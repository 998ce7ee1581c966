"""Answers do not depend on how the carrier is labelled.  Renaming the
elements of a table by a permutation of its carrier gives an isomorphic
table.

check: a table drawn from the rack censuses (binary of order at most 4,
arity 3 of order at most 3, arity 4 of order at most 2) or the fixtures,
or a one-entry mutant of one, with a basepoint drawn, has the
classification of its relabeled copy, whose basepoint is relabeled too;
each witness of the copy, mapped back, is a violation of the original.

inner and assoc-group: an n-rack drawn from the same censuses and
fixtures has the sorted orbit sizes and the multiset of cycle types of
the inner-map permutations of its relabeled copy, and, in both relator
forms, its relator count and abelianization.  The abelianization is
Z^o for o the number of orbits: every abelianized relator is
e_[xs] - e_{x_n}, which identifies exactly the elements of an orbit.

construct lift then construct reduce on a relabeled binary rack of the
censuses or the fixtures give the original's tables relabeled, by sigma
on the lift and by sigma on each entry of a tuple on the reduced rack;
construct conj on a relabeled copy of a group of order at most 8 gives the
original's table relabeled, pointed at the relabeled identity.  Both are
checked with is_homomorphism, with no isomorphism search.

leibniz: the fundamental-identity, Filippov and derivation verdicts of a
bracket and an operator are those of the same bracket and operator
written in another basis, drawn as a product of elementary integer
matrices (a unimodular change of basis, not only a permutation).

Homology: the rack complex R, degenerate subcomplex D and quandle complex
Q of an n-quandle have the same homology and cohomology, over Z and over
Z/d for d = 2, 3, 4 and 6.  Each relabeled table also has
quandle_quotient_complex equal to the Q built directly on it, and the
rack homology of each relabeled table splits as H^R_k = H^D_k + H^Q_k in
degrees 1-3, over Z and Z/d for d = 2 to 6.  The quandles are drawn from
the binary censuses of order at most 4, the arity-3 census of order at
most 3, the arity-4 census of order 2, and the n-quandle fixtures."""

import json
import os
import tempfile
from functools import cache
from itertools import product
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import axiom_fixture_set
from oracle_enumeration import _relabel
from nracks import (
    AbelianGroupInvariants,
    CoefficientGroup,
    FiniteGroup,
    FiniteNRack,
    LeibnizNAlgebra,
    abelianization,
    adjoint,
    associated_group_presentation,
    classify,
    cohomology,
    cyclic_group,
    degenerate_subcomplex,
    dihedral_group,
    enumerate_nracks,
    homology,
    inner_map,
    is_homomorphism,
    levi_civita_nalgebra,
    orbits,
    quandle_quotient_complex,
    rack_chain_complex,
    symmetric_group,
    validate,
)
from nracks.cli import main
from nracks.core import entrywise
from nracks.jsonio import (
    dump_document,
    group_to_json,
    nrack_from_json,
    nrack_to_json,
    tensor_to_json,
)
from nracks.snf import invariants_from_cyclic_orders

RACKS = [
    FiniteNRack(n, m, table)
    for n, top in ((2, 4), (3, 3), (4, 2))
    for m in range(1, top + 1)
    for table in enumerate_nracks(n, m, "nrack").representatives
] + [X for _, X in axiom_fixture_set()]

QUANDLES = [
    (f"census(n={n},m={m})#{i}", FiniteNRack(n, m, table))
    for n, top in ((2, 4), (3, 3), (4, 2))
    for m in range(1, top + 1)
    for i, table in enumerate(enumerate_nracks(n, m, "n-quandle").representatives)
]
QUANDLES += [(name, X) for name, X in axiom_fixture_set() if classify(X).is_nquandle]
COEFFICIENTS = [CoefficientGroup(d) for d in (0, 2, 3, 4, 6)]
SPLITTING_COEFFICIENTS = [CoefficientGroup(d) for d in (0, 2, 3, 4, 5, 6)]
# Complexes go up to degree 4 while the chain rank stays within this many
# columns; for the splitting of R into D and Q, within the second.
CHAIN_RANK_CAP = 1000
SPLITTING_RANK_CAP = 5000


def _top(X: FiniteNRack, cap: int = CHAIN_RANK_CAP) -> int:
    M = X.size ** (X.arity - 1)
    top = 2
    while top < 4 and M ** (top + 1) <= cap:
        top += 1
    return top


def _relabeled(X: FiniteNRack, sigma) -> FiniteNRack:
    """X with each element a renamed sigma[a]."""
    basepoint = None if X.basepoint is None else sigma[X.basepoint]
    return FiniteNRack(X.arity, X.size, _relabel(X.table, X.size, X.arity, sigma), basepoint)


def _groups(X: FiniteNRack, top: int) -> list:
    """Every homology and cohomology group of R, D and Q below the top
    degree, over each coefficient group."""
    C = rack_chain_complex(X, top)
    D = degenerate_subcomplex(X, C)
    Q = quandle_quotient_complex(C, D)
    assert Q.cols == rack_chain_complex(X, top, variant="Q").cols
    return [
        f(CX, k, A).invariants
        for CX in (C, D, Q)
        for f in (homology, cohomology)
        for A in COEFFICIENTS
        for k in range(1, top)
    ]


@cache
def _groups_of(name: str) -> list:
    X = dict(QUANDLES)[name]
    return _groups(X, _top(X))


def test_the_draws_cover_the_censuses_and_the_fixtures():
    # 1 + 1 + 3 + 7 binary quandles of order 1 to 4, 1 + 1 + 3 arity-3
    # ones of order 1 to 3, and 1 + 1 arity-4 ones of order 1 and 2.
    names = [name for name, _ in QUANDLES]
    assert len(names) == len(set(names))
    assert [name.startswith("census(n=2,") for name in names].count(True) == 12
    assert [name.startswith("census(n=3,") for name in names].count(True) == 5
    assert [name.startswith("census(n=4,") for name in names].count(True) == 2
    assert {"conj(S3,n=2)", "conj(D4,n=2)", "lift(trivial3,3)"} <= set(names)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_relabeling_the_carrier_leaves_r_d_and_q_unchanged(data):
    name, X = data.draw(st.sampled_from(QUANDLES), label="quandle")
    sigma = data.draw(st.permutations(range(X.size)), label="sigma")
    assert _groups(_relabeled(X, sigma), _top(X)) == _groups_of(name)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rack_homology_of_a_relabeled_quandle_is_degenerate_plus_quandle_homology(data):
    # Litherland & Nelson, JPAA 178 (2003): H^R_k = H^D_k + H^Q_k, the free
    # ranks adding and the torsion of R the divisibility chain of D's and
    # Q's together.  A relabeling permutes the orbits within a class of
    # isomorphic orbits, so D's restriction orbit by orbit is drawn anew.
    name, X = data.draw(st.sampled_from(QUANDLES), label="quandle")
    sigma = data.draw(st.permutations(range(X.size)), label="sigma")
    Y = _relabeled(X, sigma)
    top = _top(X, SPLITTING_RANK_CAP)
    C = rack_chain_complex(Y, top)
    complexes = (C, degenerate_subcomplex(Y, C), rack_chain_complex(Y, top, variant="Q"))
    for A in SPLITTING_COEFFICIENTS:
        for k in range(1, top):
            HR, HD, HQ = (homology(CX, k, A).invariants for CX in complexes)
            assert HR.free_rank == HD.free_rank + HQ.free_rank, (name, A, k)
            assert HR.torsion == invariants_from_cyclic_orders(HD.torsion + HQ.torsion), (
                name, A, k)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_relabeling_the_carrier_leaves_check_unchanged(data):
    X = data.draw(st.sampled_from(RACKS), label="table")
    table = list(X.table)
    if X.size > 1 and data.draw(st.booleans(), label="mutant"):
        i = data.draw(st.integers(0, len(table) - 1), label="entry")
        table[i] = (table[i] + data.draw(st.integers(1, X.size - 1), label="shift")) % X.size
    basepoint = data.draw(st.sampled_from([None, *range(X.size)]), label="basepoint")
    X = FiniteNRack(X.arity, X.size, table, basepoint)
    sigma = data.draw(st.permutations(range(X.size)), label="sigma")
    before, after = validate(X), validate(_relabeled(X, sigma))
    assert after.classification == before.classification
    inverse = sorted(range(X.size), key=sigma.__getitem__)

    def back(xs):
        return tuple(inverse[a] for a in xs)

    witness = after.distributivity_witness
    assert (witness is None) == (before.distributivity_witness is None)
    if witness is not None:
        xs, ys = back(witness[0]), back(witness[1])
        assert X.bracket(*xs, X.bracket(*ys)) != X.bracket(*(X.bracket(*xs, y) for y in ys))
    witness = after.bijectivity_witness
    assert (witness is None) == (before.bijectivity_witness is None)
    if witness is not None:
        assert len(set(X.translation(back(witness)))) < X.size


def _cycle_type(permutation) -> tuple[int, ...]:
    seen, lengths = set(), []
    for start in range(len(permutation)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = permutation[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def _inner_and_assoc_group(X: FiniteNRack, paper_form: bool) -> tuple:
    """What inner and assoc-group report, up to labels: the sorted orbit
    sizes, the sorted cycle types of the inner maps, the relator count and
    the abelianization."""
    P = associated_group_presentation(X, paper_form=paper_form)
    return (
        sorted(len(o) for o in orbits(X)),
        sorted(_cycle_type(inner_map(X, xs).permutation) for xs in X.prefixes()),
        len(P.relators),
        abelianization(P),
    )


@cache
def _inner_and_assoc_group_of(index: int, paper_form: bool) -> tuple:
    return _inner_and_assoc_group(RACKS[index], paper_form)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_relabeling_the_carrier_leaves_inner_and_assoc_group_unchanged(data):
    index = data.draw(st.integers(0, len(RACKS) - 1), label="rack")
    paper_form = data.draw(st.booleans(), label="paper_form")
    X = RACKS[index]
    sigma = data.draw(st.permutations(range(X.size)), label="sigma")
    before = _inner_and_assoc_group_of(index, paper_form)
    assert _inner_and_assoc_group(_relabeled(X, sigma), paper_form) == before
    orbit_sizes, _, _, abelian = before
    assert abelian == AbelianGroupInvariants(len(orbit_sizes), ())


def _cli(argv, inputs: dict) -> tuple:
    """The exit code of cli.main on argv and the JSON document it writes,
    each value of inputs written to a file whose path follows its option."""
    with tempfile.TemporaryDirectory() as directory:
        for option, doc in inputs.items():
            path = os.path.join(directory, option.strip("-") + ".json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(dump_document(doc))
            argv = argv + [option, path]
        out = os.path.join(directory, "out.json")
        code = main(argv + ["--output", out])
        with open(out, encoding="utf-8") as handle:
            return code, json.load(handle)


BINARY = [X for X in RACKS if X.arity == 2]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lift_then_reduce_of_a_relabeled_rack_is_relabeled(data):
    # construct lift and construct reduce on a relabeled rack give the
    # original's tables relabeled: sigma on the lift, and sigma on each
    # entry of a tuple on the reduced rack of the lift.
    Q = data.draw(st.sampled_from(BINARY), label="rack")
    n = data.draw(st.integers(2, 3), label="arity")
    sigma = data.draw(st.permutations(range(Q.size)), label="sigma")
    tables = []
    for rack in (Q, _relabeled(Q, sigma)):
        code, lifted = _cli(["construct", "lift", "--n", str(n)], {"--input": nrack_to_json(rack)})
        assert code == 0
        code, reduced = _cli(["construct", "reduce"], {"--input": lifted})
        assert code == 0
        tables.append((nrack_from_json(lifted), nrack_from_json(reduced)))
    (lifted, reduced), (lifted_copy, reduced_copy) = tables
    assert is_homomorphism(sigma, lifted, lifted_copy)
    assert is_homomorphism(entrywise(sigma, n - 1, Q.size), reduced, reduced_copy)


GROUPS = [cyclic_group(k) for k in range(1, 7)] + [symmetric_group(3), dihedral_group(2),
                                                   dihedral_group(4)]


def _relabeled_group(G: FiniteGroup, sigma) -> FiniteGroup:
    """G with each element a renamed sigma[a]."""
    cayley = [0] * len(G.cayley)
    for a in range(G.size):
        for b in range(G.size):
            cayley[sigma[a] * G.size + sigma[b]] = sigma[G.mul(a, b)]
    return FiniteGroup(G.size, cayley, sigma[G.identity])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_conj_of_a_relabeled_group_is_relabeled(data):
    # construct conj on a relabeled copy of a group gives the original's
    # table relabeled, pointed at the relabeled identity.
    G = data.draw(st.sampled_from(GROUPS), label="group")
    n = data.draw(st.integers(2, 3), label="arity")
    sigma = data.draw(st.permutations(range(G.size)), label="sigma")
    racks = []
    for group in (G, _relabeled_group(G, sigma)):
        code, doc = _cli(["construct", "conj", "--n", str(n)], {"--group": group_to_json(group)})
        assert code == 0
        racks.append(nrack_from_json(doc))
    assert is_homomorphism(sigma, *racks, pointed=True)


# Brackets with the fundamental identity and with Filippov antisymmetry
# (the cross product and sl2, Lie algebras, and the Levi-Civita 3-bracket
# on Q^4), with the identity alone ([e_0, e_0] = e_1), with antisymmetry
# alone, and with neither (the Levi-Civita bracket with one constant
# moved, and [e_0, e_0] = e_1, [e_1, e_1] = e_0).
CROSS = LeibnizNAlgebra.from_entries(3, 2, [
    (args, out, sign) for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for args, out, sign in (((i, j), k, 1), ((j, i), k, -1))
])
SL2 = LeibnizNAlgebra.from_entries(3, 2, [
    ((0, 1), 2, 1), ((1, 0), 2, -1), ((2, 0), 0, 2), ((0, 2), 0, -2),
    ((2, 1), 1, -2), ((1, 2), 1, 2),
])
LEVI_CIVITA = levi_civita_nalgebra(4)
ALGEBRAS = [
    CROSS,
    SL2,
    LEVI_CIVITA,
    LeibnizNAlgebra.from_entries(2, 2, [((0, 0), 1, 1)]),
    LeibnizNAlgebra.from_entries(3, 2, [((0, 1), 2, 1), ((1, 0), 2, -1),
                                        ((1, 2), 1, 1), ((2, 1), 1, -1)]),
    LeibnizNAlgebra(4, 3, {**LEVI_CIVITA.constants, (0, 1, 2): (1, 0, 0, 1)}),
    LeibnizNAlgebra.from_entries(2, 2, [((0, 0), 1, 1), ((1, 1), 0, 1)]),
]


@st.composite
def unimodular(draw, d: int):
    """(P, P^-1): a product of a few elementary integer matrices, adding a
    multiple of one column to another, swapping two or negating one."""
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    inverse = [row[:] for row in P]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        how = draw(st.sampled_from(["add", "swap", "negate"]))
        if how == "add":
            a = draw(st.sampled_from([-2, -1, 1, 2]))
            for row in P:
                row[j] += a * row[i]
            inverse[i] = [x - a * y for x, y in zip(inverse[i], inverse[j])]
        elif how == "swap":
            for row in P:
                row[i], row[j] = row[j], row[i]
            inverse[i], inverse[j] = inverse[j], inverse[i]
        else:
            for row in P:
                row[j] = -row[j]
            inverse[j] = [-x for x in inverse[j]]
    return P, inverse


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _in_basis(L: LeibnizNAlgebra, P, inverse) -> LeibnizNAlgebra:
    """L written in the basis f_j = sum_i P[i][j] e_i: the constants of
    [f_{j_1},...,f_{j_n}], expanded multilinearly in e and taken back to f
    by P^-1."""
    d = L.dimension
    entries = []
    for js in product(range(d), repeat=L.arity):
        image = [0] * d
        for args, vec in L.constants.items():
            coefficient = prod(P[i][j] for i, j in zip(args, js))
            for k, c in enumerate(vec):
                if coefficient and c:
                    for out in range(d):
                        image[out] += coefficient * c * inverse[out][k]
        entries += [(js, out, v) for out, v in enumerate(image) if v]
    return LeibnizNAlgebra.from_entries(d, L.arity, entries)


def _verdicts(L: LeibnizNAlgebra, D) -> tuple:
    """fundamental_identity, filippov and derivation of the leibniz command
    on L with the operator D."""
    operator = {"dimension": L.dimension, "matrix": [[str(v) for v in row] for row in D]}
    _, doc = _cli(["leibniz"], {"--input": tensor_to_json(L), "--operator": operator})
    return doc["fundamental_identity"], doc["filippov"], doc["derivation"]


def test_the_algebras_give_every_verdict():
    verdicts = {_verdicts(L, [[0] * L.dimension] * L.dimension)[:2] for L in ALGEBRAS}
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_unimodular_change_of_basis_leaves_the_leibniz_verdicts(data):
    # The verdicts of the leibniz command are properties of the bracket
    # and the operator, not of the basis: over Z, P and P^-1 integral.
    L = data.draw(st.sampled_from(ALGEBRAS), label="algebra")
    d = L.dimension
    P, inverse = data.draw(unimodular(d), label="P")
    assert _matmul(P, inverse) == [[int(i == j) for j in range(d)] for i in range(d)]
    # An adjoint of basis vectors (a derivation when the identity holds),
    # or an integer matrix.
    if data.draw(st.booleans(), label="adjoint"):
        xs = data.draw(st.lists(st.integers(0, d - 1), min_size=L.arity - 1,
                                max_size=L.arity - 1), label="xs")
        D = adjoint(L, *([int(i == x) for i in range(d)] for x in xs)).matrix
    else:
        D = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                               min_size=d, max_size=d), label="D")
    assert _verdicts(_in_basis(L, P, inverse), _matmul(_matmul(inverse, D), P)) == _verdicts(L, D)
