"""The value types as callers see them.

Every public value type (and FiniteRack, which adds its own constructor)
is built by position, by keyword and with its defaults; equal fields give
equal objects with equal hashes, and objects of different classes are
never equal; attributes cannot be set or deleted; the repr spells out
every field; construction refuses bad fields with fixed messages; the
cached views are computed once per object; and pickle and copy give equal
objects back.  Importing nracks loads none of dataclasses, inspect or
typing.
"""

import copy
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from itertools import permutations

import pytest

from nracks import (
    AbelianGroupInvariants,
    Classification,
    CoefficientGroup,
    ConstructionError,
    EnumerationReport,
    FiniteGroup,
    FiniteNRack,
    FiniteRack,
    GroupModule,
    GroupPresentation,
    HomologyResult,
    InnerMap,
    LeibnizNAlgebra,
    LinearOperator,
    ValidationReport,
    validate,
)

Z2_TABLE = (0, 1, 1, 0)
Z2_REPR = "FiniteGroup(size=2, cayley=(0, 1, 1, 0), identity=0, inverse=(0, 1))"
FLAGS = (True, None, True, True, False, False)
FLAGS_REPR = ("Classification(is_nrack=True, is_pointed=None, is_weak_nquandle=True, "
              "is_nquandle=True, is_weak_nkei=False, is_nkei=False)")
NRACK_REPR = "FiniteNRack(arity=2, size=2, table=(0, 1, 0, 1), basepoint=None)"


def _z2():
    return FiniteGroup(2, Z2_TABLE, 0)


def _s3_table():
    """Cayley table of S3 on the permutations of (0, 1, 2) in lex order,
    composing right to left."""
    perms = list(permutations(range(3)))
    return tuple(perms.index(tuple(p[q[i]] for i in range(3))) for p in perms for q in perms)


# name -> (class, positional arguments, the same fields by keyword, repr).
# Lists where tuples are stored check the normalization on the way in.
CASES = {
    "FiniteNRack": (
        FiniteNRack, (2, 2, [0, 1, 0, 1], 1),
        dict(arity=2, size=2, table=(0, 1, 0, 1), basepoint=1),
        "FiniteNRack(arity=2, size=2, table=(0, 1, 0, 1), basepoint=1)",
    ),
    "FiniteRack": (
        FiniteRack, (2, [0, 1, 0, 1], 0),
        dict(size=2, table=(0, 1, 0, 1), basepoint=0),
        "FiniteRack(arity=2, size=2, table=(0, 1, 0, 1), basepoint=0)",
    ),
    "Classification": (
        Classification, FLAGS,
        dict(is_nrack=True, is_pointed=None, is_weak_nquandle=True, is_nquandle=True,
             is_weak_nkei=False, is_nkei=False),
        FLAGS_REPR,
    ),
    "ValidationReport": (
        ValidationReport, (Classification(*FLAGS), None, (0,)),
        dict(classification=Classification(*FLAGS), distributivity_witness=None,
             bijectivity_witness=(0,)),
        f"ValidationReport(classification={FLAGS_REPR}, distributivity_witness=None, "
        "bijectivity_witness=(0,))",
    ),
    "InnerMap": (
        InnerMap, (FiniteNRack(2, 2, (0, 1, 0, 1)), (1,), (0, 1)),
        dict(source=FiniteNRack(2, 2, (0, 1, 0, 1)), arguments=(1,), permutation=(0, 1)),
        f"InnerMap(source={NRACK_REPR}, arguments=(1,), permutation=(0, 1))",
    ),
    "FiniteGroup": (
        FiniteGroup, (2, [0, 1, 1, 0], 0, (1, 1)),
        dict(size=2, cayley=Z2_TABLE, identity=0, inverse=None),
        Z2_REPR,
    ),
    "GroupModule": (
        GroupModule, (_z2(), _z2(), [[0, 1], [0, 1]]),
        dict(space=_z2(), acting=_z2(), action=((0, 1), (0, 1))),
        f"GroupModule(space={Z2_REPR}, acting={Z2_REPR}, action=((0, 1), (0, 1)))",
    ),
    "GroupPresentation": (
        GroupPresentation, (2, [[1, -2], [2]]),
        dict(generators=2, relators=((1, -2), (2,))),
        "GroupPresentation(generators=2, relators=((1, -2), (2,)))",
    ),
    "CoefficientGroup": (
        CoefficientGroup, (4,), dict(modulus=4), "CoefficientGroup(modulus=4)",
    ),
    "HomologyResult": (
        HomologyResult, (2, AbelianGroupInvariants(1, (3,)), "Q", CoefficientGroup(0)),
        dict(degree=2, invariants=AbelianGroupInvariants(1, (3,)), variant="Q",
             coefficients=CoefficientGroup()),
        "HomologyResult(degree=2, invariants=AbelianGroupInvariants(free_rank=1, torsion=(3,)), "
        "variant='Q', coefficients=CoefficientGroup(modulus=0))",
    ),
    "EnumerationReport": (
        EnumerationReport, (2, 1, "nrack", 1, 1, ((0,),)),
        dict(arity=2, size=1, filter="nrack", count_total=1, count_up_to_iso=1,
             representatives=((0,),)),
        "EnumerationReport(arity=2, size=1, filter='nrack', count_total=1, count_up_to_iso=1, "
        "representatives=((0,),))",
    ),
    "AbelianGroupInvariants": (
        AbelianGroupInvariants, (1, [2, 4]), dict(free_rank=1, torsion=(2, 4)),
        "AbelianGroupInvariants(free_rank=1, torsion=(2, 4))",
    ),
    "LeibnizNAlgebra": (
        LeibnizNAlgebra, (2, 2, {(0, 1): [1, 0], (1, 0): (0, 0)}),
        dict(dimension=2, arity=2, constants={(0, 1): (Fraction(1), Fraction(0))}),
        "LeibnizNAlgebra(dimension=2, arity=2, "
        "constants={(0, 1): (Fraction(1, 1), Fraction(0, 1))})",
    ),
    "LinearOperator": (
        LinearOperator, ([[1, 0], ["1/2", 2]],),
        dict(matrix=((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(2)))),
        "LinearOperator(matrix=((Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(1, 2), Fraction(2, 1))))",
    ),
}
HASHABLE = sorted(set(CASES) - {"LeibnizNAlgebra"})


def _field_names(name):
    """The field names in constructor order; a FiniteRack has the fields
    of a FiniteNRack."""
    return list(CASES["FiniteNRack" if name == "FiniteRack" else name][2])


@pytest.mark.parametrize("name", sorted(CASES))
def test_positional_and_keyword_construction_agree(name):
    cls, args, kwargs, text = CASES[name]
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert type(by_position) is type(by_keyword) is cls
    assert by_position == by_keyword and not by_position != by_keyword
    assert repr(by_position) == repr(by_keyword) == text


@pytest.mark.parametrize("name", sorted(CASES))
def test_constructors_refuse_extra_repeated_unknown_or_missing_arguments(name):
    cls, args, kwargs, _ = CASES[name]
    first = next(iter(kwargs))
    calls = [lambda: cls(*args, None), lambda: cls(*args, **{first: args[0]}),
             lambda: cls(**kwargs, extra=None)]
    if name != "CoefficientGroup":  # its one field has a default
        calls.append(cls)
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_fields_give_equal_hashes(name):
    cls, args, kwargs, _ = CASES[name]
    assert hash(cls(*args)) == hash(cls(**kwargs))
    assert len({cls(*args), cls(**kwargs)}) == 1


def test_defaults():
    assert FiniteNRack(2, 1, (0,)).basepoint is None
    assert FiniteRack(1, (0,)).basepoint is None
    assert FiniteGroup(2, Z2_TABLE, 0).inverse == (0, 1)
    assert CoefficientGroup().modulus == 0
    assert CoefficientGroup() == CoefficientGroup(0) == CoefficientGroup.integers()
    assert LeibnizNAlgebra(3, 2).constants == {}
    # Each algebra gets its own empty table.
    assert LeibnizNAlgebra(3, 2).constants is not LeibnizNAlgebra(3, 2).constants


def test_fields_are_normalized():
    assert FiniteNRack(2, 2, [0, 1, 0, 1]).table == (0, 1, 0, 1)
    assert FiniteGroup(2, [0, 1, 1, 0], 0, inverse=(1, 1)).inverse == (0, 1)
    assert GroupModule(_z2(), _z2(), [[0, 1], [0, 1]]).action == ((0, 1), (0, 1))
    assert GroupPresentation(1, [[1]]).relators == ((1,),)
    assert AbelianGroupInvariants(0, [2]).torsion == (2,)
    L = LeibnizNAlgebra(2, 2, {(0, 1): [1, 0], (1, 1): [0, 0]})
    assert L.constants == {(0, 1): (Fraction(1), Fraction(0))}
    assert all(type(c) is Fraction for c in L.constants[(0, 1)])
    assert LinearOperator([[1]]).matrix == ((Fraction(1),),)


def test_different_fields_or_classes_are_unequal():
    table = (0, 1, 2) * 3
    rack, nrack = FiniteRack(3, table), FiniteNRack(2, 3, table)
    assert rack != nrack and nrack != rack
    assert not rack == nrack and not nrack == rack
    assert rack == FiniteRack(3, list(table)) and nrack == FiniteNRack(2, 3, list(table))
    assert FiniteNRack(2, 3, table) != FiniteNRack(2, 3, table, basepoint=0)
    assert CoefficientGroup(2) != CoefficientGroup(3)
    assert AbelianGroupInvariants(1, ()) != (1, ())
    assert LinearOperator([[1]]) != LinearOperator([[2]])


def test_leibniz_algebra_is_unhashable():
    with pytest.raises(TypeError):
        hash(LeibnizNAlgebra(2, 2))
    assert LeibnizNAlgebra(2, 2) == LeibnizNAlgebra(2, 2, {})


@pytest.mark.parametrize("name", sorted(CASES))
def test_attributes_cannot_be_set_or_deleted(name):
    cls, args, _, _ = CASES[name]
    obj = cls(*args)
    before = repr(obj)
    for field in _field_names(name):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert repr(obj) == before


def _refuses(error, message, build):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_validation_messages():
    _refuses(ValueError, "arity must be >= 2, got 1", lambda: FiniteNRack(1, 2, (0, 1)))
    _refuses(ValueError, "size must be >= 1, got 0", lambda: FiniteNRack(2, 0, ()))
    _refuses(ValueError, "table has 3 entries, too few for size**arity = 2**2",
             lambda: FiniteNRack(2, 2, (0, 1, 0)))
    _refuses(ValueError, "table has 5 entries, expected 4", lambda: FiniteNRack(2, 2, (0,) * 5))
    _refuses(ValueError, "table entries must lie in the carrier",
             lambda: FiniteNRack(2, 2, (0, 1, 0, 2)))
    _refuses(ValueError, "basepoint 2 outside carrier", lambda: FiniteRack(2, (0, 1, 0, 1), 2))
    _refuses(ValueError, "group must be nonempty", lambda: FiniteGroup(0, (), 0))
    _refuses(ValueError, "cayley table must have 4 entries", lambda: FiniteGroup(2, (0, 1), 0))
    _refuses(ValueError, "cayley entries must lie in the carrier",
             lambda: FiniteGroup(2, (0, 1, 1, 2), 0))
    _refuses(ValueError, "identity 2 outside carrier", lambda: FiniteGroup(2, Z2_TABLE, 2))
    _refuses(ValueError, "identity law fails", lambda: FiniteGroup(2, Z2_TABLE, 1))
    _refuses(ValueError, "associativity fails at (1, 1, 2)",
             lambda: FiniteGroup(3, (0, 1, 2, 1, 0, 0, 2, 0, 0), 0))
    _refuses(ValueError, "element 1 has no inverse", lambda: FiniteGroup(2, (0, 1, 1, 1), 0))
    nonabelian = FiniteGroup(6, _s3_table(), 0)
    _refuses(ConstructionError, "module carrier must be an abelian group",
             lambda: GroupModule(nonabelian, _z2(), [[0, 1]] * 2))
    _refuses(ConstructionError, "action must assign a map to every group element",
             lambda: GroupModule(_z2(), _z2(), [[0, 1]]))
    _refuses(ConstructionError, "action of element 1 is not a bijection",
             lambda: GroupModule(_z2(), _z2(), [[0, 1], [1, 1]]))
    _refuses(ConstructionError, "action of element 1 is not an automorphism",
             lambda: GroupModule(_z2(), _z2(), [[0, 1], [1, 0]]))
    z3 = FiniteGroup(3, (0, 1, 2, 1, 2, 0, 2, 0, 1), 0)
    _refuses(ConstructionError, "identity must act trivially",
             lambda: GroupModule(z3, FiniteGroup(1, (0,), 0), [[0, 2, 1]]))
    _refuses(ConstructionError, "action is not a group homomorphism",
             lambda: GroupModule(z3, z3, [[0, 1, 2], [0, 2, 1], [0, 2, 1]]))
    _refuses(ValueError, "generator count must be nonnegative",
             lambda: GroupPresentation(-1, ()))
    _refuses(ValueError, "empty relator stored", lambda: GroupPresentation(1, [[]]))
    _refuses(ValueError, "letter 2 outside generator range", lambda: GroupPresentation(1, [[2]]))
    _refuses(ValueError, "cyclic coefficient modulus must be >= 2", lambda: CoefficientGroup(1))
    _refuses(ValueError, "free rank must be nonnegative", lambda: AbelianGroupInvariants(-1, ()))
    _refuses(ValueError, "torsion (2, 3) violates divisibility",
             lambda: AbelianGroupInvariants(0, [2, 3]))
    _refuses(ValueError, "torsion factors must be >= 2", lambda: AbelianGroupInvariants(0, (1,)))
    _refuses(ValueError, "dimension must be >= 1", lambda: LeibnizNAlgebra(0, 2))
    _refuses(ValueError, "arity must be >= 2", lambda: LeibnizNAlgebra(2, 1))
    _refuses(ValueError, "argument tuple (0, 2) out of range",
             lambda: LeibnizNAlgebra(2, 2, {(0, 2): (1, 0)}))
    _refuses(ValueError, "structure vector has wrong length",
             lambda: LeibnizNAlgebra(2, 2, {(0, 1): (1,)}))
    _refuses(ValueError, "operator matrix must be square", lambda: LinearOperator([[1, 0]]))


def test_cached_views_are_computed_once():
    R = FiniteNRack(2, 3, (0, 2, 1, 2, 1, 0, 1, 0, 2))
    assert validate(R) is validate(R)
    # The kept report is not a field: equality and hash ignore it.
    assert R == FiniteNRack(2, 3, R.table) and hash(R) == hash(FiniteNRack(2, 3, R.table))
    L = LeibnizNAlgebra(2, 2, {(0, 1): (1, 0), (1, 0): (-1, 0)})
    assert L.support is L.support
    assert L.support == (1, {(0, 1): ((0, 1),), (1, 0): ((0, -1),)})


@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_and_copy_round_trips(name):
    cls, args, _, _ = CASES[name]
    obj = cls(*args)
    if name in ("FiniteNRack", "FiniteRack"):
        validate(obj)
    if name == "LeibnizNAlgebra":
        obj.support
    copies = [copy.copy(obj), copy.deepcopy(obj)] + [
        pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert type(other) is cls
        assert other == obj and repr(other) == repr(obj)
        with pytest.raises(AttributeError):
            setattr(other, _field_names(name)[0], None)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["nracks.cli", "nracks"])
def test_importing_nracks_loads_no_dataclasses_inspect_or_typing(module):
    # -S: no site start-up, whose .pth hooks may import typing themselves;
    # -B: no bytecode written into src, as -I ignores PYTHONDONTWRITEBYTECODE.
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import {module}; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                            capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
