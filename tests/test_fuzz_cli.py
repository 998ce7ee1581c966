"""The CLI on inputs of random shape.

`check` and `homology` read a table document and, for homology, a degree
specification, coefficients, a variant and a budget; `leibniz` reads a
structure-constant tensor and, optionally, a linear operator; `construct
conj` reads a group and `construct module-group` a bundle of two groups,
an action and a bracket; `construct` z4, gamma, lift and reduce,
`enumerate`, `assoc-group` and `inner` take sizes, arities and budgets
as arguments, and some a table.  Whatever the input, cli.main must end
with a documented exit code, 0 to 3 (4 is an internal error and needs an
injected fault), and never with a traceback: wrong types, bools where
integers belong, negative or huge arity (2**63 and past), size and
dimension, tables too short or too long, entries outside the carrier or
the dimension, values that are not rationals, operator matrices of the
wrong shape, groups, actions and brackets with a field missing, mistyped
or out of range, documents that are not objects or not JSON, and degree
specifications of every spelling.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from nracks import cyclic_group, dihedral_group, symmetric_group
from nracks.cli import main
from nracks.jsonio import group_to_json

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


# Tensor and operator dimensions: small ones the checks answer, and huge
# ones, up to 10**12, that no structure vector can hold.
DIMENSIONS = st.one_of(st.integers(-1, 4), st.sampled_from([10**5, 10**5 + 1, 10**9, 10**12]))
RATIONALS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4"])
NOT_RATIONALS = st.one_of(st.sampled_from(["2/0", "1/-2", " 1", "x", ""]), st.text(max_size=4))
# Operator entries: JSON numbers are read through their text, like strings.
MATRIX_ENTRIES = st.one_of(RATIONALS, st.integers(-3, 3), NOT_RATIONALS,
                           st.floats(allow_nan=False), st.booleans(), st.none(), st.just([1]))


def _off(draw, doc, items):
    """doc with one thing wrong: a field dropped or given a wild value, or
    a wild value in one field or entry of an item of the list under
    items."""
    field = draw(st.sampled_from(sorted(doc)))
    if field != items or not doc[items] or draw(st.booleans()):
        if draw(st.booleans()):
            del doc[field]
        else:
            doc[field] = draw(SCALARS)
        return doc
    item = doc[items][draw(st.integers(0, len(doc[items]) - 1))]
    if isinstance(item, dict):
        item[draw(st.sampled_from(sorted(item)))] = draw(st.one_of(
            SCALARS, NOT_RATIONALS, st.sampled_from([-1, 10**12]),
            st.lists(st.integers(-1, 3), max_size=4)))
    else:
        item[draw(st.integers(0, len(item) - 1))] = draw(MATRIX_ENTRIES)
    return doc


@st.composite
def tensor_documents(draw):
    """The text of a tensor document: well formed (two times in five),
    with one thing wrong, wild or not JSON."""
    kind = draw(st.sampled_from(["valid", "valid", "off", "wild", "text"]))
    if kind in ("valid", "off"):
        d, n = draw(DIMENSIONS), draw(st.one_of(st.integers(2, 3), st.sampled_from([1, 10**12])))
        index = st.integers(0, min(d, 3) - 1) if d >= 1 else st.just(0)
        constant = st.fixed_dictionaries({
            "args": st.lists(index, min_size=min(n, 4), max_size=min(n, 4)),
            "out": index,
            "value": RATIONALS,
        })
        doc = {"dimension": d, "arity": n, "constants": draw(st.lists(constant, max_size=6))}
        if kind == "off":
            doc = _off(draw, doc, "constants")
    elif kind == "wild":
        doc = draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                             st.dictionaries(st.sampled_from(["args", "out", "value"]), SCALARS)))
    else:
        return draw(st.text(max_size=12))
    return json.dumps(doc)


@st.composite
def operator_documents(draw):
    """The text of an operator document: square of the tensor's dimension
    3, of any dimension, with one thing wrong, wild or not JSON."""
    kind = draw(st.sampled_from(["valid", "any", "off", "wild", "text"]))
    if kind in ("valid", "any", "off"):
        d = draw(st.just(3) if kind == "valid" else DIMENSIONS)
        rows = d if 0 <= d <= 4 else draw(st.integers(0, 4))
        row = st.lists(RATIONALS, min_size=rows, max_size=rows)
        doc = {"dimension": d, "matrix": draw(st.lists(row, min_size=rows, max_size=rows))}
        if kind == "off":
            doc = _off(draw, doc, "matrix")
    elif kind == "wild":
        doc = draw(st.one_of(SCALARS, st.dictionaries(st.sampled_from(["dimension", "matrix"]),
                                                      SCALARS)))
    else:
        return draw(st.text(max_size=12))
    return json.dumps(doc)


# The cross product on Q^3, a Lie bracket, and the same tensor with one
# constant doubled, which breaks the fundamental identity.
CROSS = {"dimension": 3, "arity": 2, "constants": [
    {"args": [i, j], "out": k, "value": str(sign)}
    for i, j, k, sign in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                          (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]
]}
BROKEN = {**CROSS, "constants": CROSS["constants"] + [{"args": [0, 1], "out": 2, "value": "1"}]}


def _leibniz(files, options=()):
    with tempfile.TemporaryDirectory() as directory:
        argv = ["leibniz"]
        for flag, text in files:
            path = os.path.join(directory, f"{flag[2:]}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            argv += [flag, path]
        return argv, _run(argv + list(options))


@settings(max_examples=150, deadline=None)
@given(text=tensor_documents(), seed=st.sampled_from([[], ["--seed", "3"]]))
def test_leibniz_exits_with_a_documented_code_on_any_tensor(text, seed):
    argv, (code, err) = _leibniz([("--input", text)], seed)
    assert code in (0, 1, 2, 3), (argv, text, code, err)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(tensor=st.sampled_from([CROSS, BROKEN]), text=operator_documents())
def test_leibniz_exits_with_a_documented_code_on_any_operator(tensor, text):
    argv, (code, err) = _leibniz([("--input", json.dumps(tensor)), ("--operator", text)])
    assert code in (0, 1, 2, 3), (argv, text, code, err)
    assert "Traceback" not in err


# Groups of order at most 6, as the Cayley table's associativity check
# costs k**3: the cyclic groups, S3 and the Klein four-group.
GROUPS = [cyclic_group(k) for k in range(1, 7)] + [symmetric_group(3), dihedral_group(2)]
ABELIAN = [G for G in GROUPS if G.is_abelian()]
WILD = st.one_of(SCALARS, st.integers(-1, 7))


def _spoiled(draw, value):
    """A copy of the JSON value with one thing wrong at some depth: a field
    dropped or given a wild value, or a list item dropped, added or
    spoiled in turn."""
    if isinstance(value, dict) and value:
        out, key = dict(value), draw(st.sampled_from(sorted(value)))
        how = draw(st.sampled_from(["drop", "wild", "inner"]))
        if how == "drop":
            del out[key]
        else:
            out[key] = draw(WILD) if how == "wild" else _spoiled(draw, value[key])
        return out
    if isinstance(value, list) and value:
        out, i = list(value), draw(st.integers(0, len(value) - 1))
        how = draw(st.sampled_from(["drop", "add", "inner"]))
        if how == "drop":
            del out[i]
        elif how == "add":
            out.insert(i, draw(WILD))
        else:
            out[i] = _spoiled(draw, value[i])
        return out
    return draw(WILD)


def _text(draw, valid: dict) -> str:
    """The valid document (two kinds in five), spoiled, wild or not JSON."""
    kind = draw(st.integers(0, 4))
    if kind == 4:
        return draw(st.text(max_size=12))
    if kind == 3:
        return json.dumps(draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=3))))
    return json.dumps(valid if kind < 2 else _spoiled(draw, valid))


@st.composite
def group_documents(draw):
    return _text(draw, group_to_json(draw(st.sampled_from(GROUPS))))


def _bracket(k: int, arity: int, twisted: bool) -> list[int]:
    """An antisymmetric bracket on the cyclic group of order k written
    additively: the identity 0 everywhere, or the product of the pairwise
    differences of the arguments, which changes sign under any swap."""
    if not twisted:
        return [0] * k**arity
    if arity == 2:
        return [(a - b) % k for a in range(k) for b in range(k)]
    return [(a - b) * (b - c) * (a - c) % k for a in range(k) for b in range(k) for c in range(k)]


@st.composite
def module_group_documents(draw):
    """The text of a module-group bundle on groups of order at most 6 and
    arity 2 or 3: an action of H on V that is trivial, or for H of order 2
    negation, and a bracket that is trivial, or twisted on a cyclic H."""
    arity = draw(st.integers(2, 3))
    H, V = draw(st.sampled_from(GROUPS)), draw(st.sampled_from(ABELIAN))
    identity = list(range(V.size))
    negation = [V.inv(v) for v in identity]
    negate = H.size == 2 and draw(st.booleans())
    action = [identity if h == H.identity or not negate else negation for h in range(H.size)]
    cyclic = H.cayley == cyclic_group(H.size).cayley
    bracket = _bracket(H.size, arity, cyclic and draw(st.booleans()))
    valid = {"arity": arity, "group": group_to_json(H), "module": group_to_json(V),
             "action": action, "bracket": bracket}
    return _text(draw, valid)


def _construct(argv, text):
    """Run argv with the path of a file holding text appended."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = argv + [path]
        return argv, _run(argv)


@settings(max_examples=150, deadline=None)
@given(text=group_documents(), arity=st.integers(2, 3))
def test_construct_conj_exits_with_a_documented_code_on_any_group(text, arity):
    argv, (code, err) = _construct(["construct", "conj", "--n", str(arity), "--group"], text)
    assert code in (0, 1, 2, 3), (argv, text, code, err)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(text=module_group_documents())
def test_construct_module_group_exits_with_a_documented_code_on_any_bundle(text):
    argv, (code, err) = _construct(["construct", "module-group", "--input"], text)
    assert code in (0, 1, 2, 3), (argv, text, code, err)
    assert "Traceback" not in err


# Sizes and arities of every order: small ones that answer, 2**63 and
# past, where a count no longer fits a machine word, and 10**30.
ORDERS = st.one_of(st.integers(-1, 4), st.sampled_from([10**4, 2**63 - 1, 2**63, 10**30]))
# Budgets small enough that no search or complex they allow is large work.
BUDGETS = st.one_of(st.integers(-1, 2000), st.sampled_from([-(10**30)]))
# One element at every arity, valid racks and a 3-rack, and a table whose
# rows are not bijections.
TABLES = st.one_of(
    ORDERS.map(lambda n: {"arity": n, "size": 1, "table": [0]}),
    st.sampled_from(VALID[1:4] + [{"arity": 2, "size": 2, "table": [0, 0, 1, 1]}]),
)


@st.composite
def construct_argv(draw):
    """construct z4, gamma, lift or reduce with drawn sizes, arities and
    parameters; lift and reduce read a drawn table."""
    kind = draw(st.sampled_from(["z4", "gamma", "lift", "reduce"]))
    argv = ["construct", kind, "--n", str(draw(ORDERS)), "--m", str(draw(ORDERS))]
    if kind == "gamma":
        argv += ["--t", str(draw(st.integers(-3, 5))), "--s", str(draw(st.integers(-3, 5)))]
    text = json.dumps(draw(TABLES)) if kind in ("lift", "reduce") else None
    return argv, text


@st.composite
def table_command_argv(draw):
    """enumerate with drawn arity, size, filter and budget, or assoc-group
    or inner on a drawn table."""
    command = draw(st.sampled_from(["enumerate", "assoc-group", "inner"]))
    if command == "enumerate":
        filter_name = draw(st.sampled_from(["nrack", "weak-n-quandle", "n-quandle", "n-kei"]))
        return ["enumerate", "--n", str(draw(ORDERS)), "--m", str(draw(ORDERS)),
                "--filter", filter_name, "--budget", str(draw(BUDGETS))], None
    argv = [command] + (["--paper-relator"] if draw(st.booleans()) else [])
    return argv, json.dumps(draw(TABLES))


@settings(max_examples=200, deadline=None)
@given(drawn=st.one_of(construct_argv(), table_command_argv()))
def test_size_and_arity_arguments_exit_with_a_documented_code(drawn):
    argv, text = drawn
    if text is None:
        code, err = _run(argv)
    else:
        argv, (code, err) = _construct(argv + ["--input"], text)
    assert code in (0, 1, 2, 3), (argv, text, code, err)
    assert "Traceback" not in err
