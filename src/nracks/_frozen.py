"""The base of nracks' immutable value types.

It stands in for @dataclass(frozen=True): importing dataclasses loads
inspect, ast, dis and tokenize, and it builds every method with exec,
which together were most of the time it took to import nracks.
"""


_set = object.__setattr__


class Frozen:
    """A value named by the attributes listed in _fields, in constructor
    order.  Two values are equal when they are of the same class and their
    fields are equal; the hash and the repr Name(field=value, ...) read the
    same fields.  The default constructor takes one argument per field, by
    position or by keyword; a subclass that checks or normalizes its
    arguments has its own __init__, which passes the fields, in _fields
    order, to _store.  After that no attribute can be set or deleted.
    functools.cached_property, pickle and copy still work, as they write
    the instance __dict__ directly; cached values take no part in
    equality."""

    _fields = ()

    def __init__(self, *args, **kwargs):
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, self._fields[len(args):]))
            except KeyError:  # a field with no argument
                args = ()
        # What is left in kwargs repeats a positional argument or names no field.
        if kwargs or len(args) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__}() takes each of the arguments "
                            f"{', '.join(self._fields)} once")
        self._store(*args)

    def _store(self, *values) -> None:
        # object.__setattr__, not __dict__.update: an instance whose dict
        # was never read keeps its attributes inline, where reads are faster.
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
