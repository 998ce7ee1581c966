"""The CLI on inputs of random shape.

`check` and `homology` read a table document and, for homology, a degree
specification, coefficients, a variant and a budget.  Whatever the input,
cli.main must end with a documented exit code, 0 to 3 (4 is an internal
error and needs an injected fault), and never with a traceback: wrong
types, bools where integers belong, negative or huge arity and size,
tables too short or too long, entries outside the carrier, documents that
are not objects or not JSON, and degree specifications of every spelling.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from nracks.cli import main

HUGE = [10**7, 10**30, -(10**30)]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.sampled_from(HUGE),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
)
ENTRIES = st.one_of(st.integers(-1, 4), st.booleans(), st.none(), st.text(max_size=2),
                    st.lists(st.integers(0, 2), max_size=2))
# Valid tables: one element, the trivial and dihedral quandles of order 3,
# a 3-rack on two elements, and one element at a huge arity.
VALID = [
    {"arity": 2, "size": 1, "table": [0]},
    {"arity": 2, "size": 3, "table": [0, 1, 2] * 3},
    {"arity": 2, "size": 3, "table": [0, 2, 1, 2, 1, 0, 1, 0, 2], "basepoint": 0},
    {"arity": 3, "size": 2, "table": [0, 1] * 4},
    {"arity": 10**7, "size": 1, "table": [0], "basepoint": 0},
]


@st.composite
def documents(draw):
    """The text of a table document: valid, nearly valid, wild or not JSON."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        doc = draw(st.sampled_from(VALID))
    elif kind == 1:
        # Plausible shape: small arity and size, a table of about the
        # right length, entries at or just past the carrier's ends.
        n, m = draw(st.integers(0, 3)), draw(st.integers(-1, 3))
        length = max(0, max(m, 0) ** n + draw(st.integers(-2, 1)))
        doc = {"arity": n, "size": m,
               "table": draw(st.lists(st.integers(-1, max(m, 0)), min_size=length, max_size=length))}
        if draw(st.booleans()):
            doc["basepoint"] = draw(st.one_of(st.integers(-1, 3), st.booleans(), st.none()))
    elif kind == 2:
        keys = draw(st.lists(st.sampled_from(["arity", "size", "table", "basepoint", "extra"]),
                             unique=True))
        doc = {key: draw(st.lists(ENTRIES, max_size=9) if key == "table" else SCALARS)
               for key in keys}
    elif kind == 3:
        doc = draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=3)))
    else:
        return draw(st.text(max_size=12))
    return json.dumps(doc)


# Degree specifications with small bounds, and spellings that must be
# refused.  No bound is large: one element has rank 1 in every degree, so
# no column budget limits how far a huge range would run.
DEGREES = st.one_of(
    st.integers(0, 3).map(str),
    st.tuples(st.integers(0, 3), st.sampled_from(["-", "..", " - ", ",", ", "]),
              st.integers(0, 3)).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
    st.sampled_from(["", " ", "-", "1-", "-1", "1..", "..2", "a", "1,,2", "1-2-3", "٣",
                     "1.5", "+1", "0x2", "1e2", "2-1", " 2 , 1 ", "1-٣", "1 2"]),
    st.text(alphabet=st.characters(blacklist_categories=("Nd",)), max_size=5),
)
OPTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("--variant"), st.sampled_from(["R", "D", "Q", "X", ""])),
        st.tuples(st.just("--coefficients"),
                  st.sampled_from(["Z", "Z/2", "Z/6", "Z/0", "Z/1", "Z/-3", "Q", "", "Z/٣"])),
        st.tuples(st.just("--budget"), st.one_of(st.integers(-2, 30000).map(str),
                                                 st.sampled_from(["", "x", "1e3"]))),
    ),
    max_size=3,
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argument list
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(text=documents(), command=st.sampled_from(["check", "homology"]),
       degrees=DEGREES, options=OPTIONS)
def test_the_cli_exits_with_a_documented_code(text, command, degrees, options):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "table.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = [command, "--input", path]
        if command == "homology":
            argv += ["--degrees", degrees] + [a for option in options for a in option]
        code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, text, code, err)
    assert "Traceback" not in err
