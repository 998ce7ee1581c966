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

Homology: the rack complex R, degenerate subcomplex D and quandle complex
Q of an n-quandle have the same homology and cohomology, over Z and over
Z/d for d = 2, 3, 4 and 6.  Each relabeled table also has
quandle_quotient_complex equal to the Q built directly on it.  The
quandles are drawn from the binary censuses of order at most 4, the
arity-3 census of order at most 3, the arity-4 census of order 2, and the
n-quandle fixtures."""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import axiom_fixture_set
from oracle_enumeration import _relabel
from nracks import (
    AbelianGroupInvariants,
    CoefficientGroup,
    FiniteNRack,
    abelianization,
    associated_group_presentation,
    classify,
    cohomology,
    degenerate_subcomplex,
    enumerate_nracks,
    homology,
    inner_map,
    orbits,
    quandle_quotient_complex,
    rack_chain_complex,
    validate,
)

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
# Complexes go up to degree 4 while the chain rank stays within this many
# columns.
CHAIN_RANK_CAP = 1000


def _top(X: FiniteNRack) -> int:
    M = X.size ** (X.arity - 1)
    top = 2
    while top < 4 and M ** (top + 1) <= CHAIN_RANK_CAP:
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
