"""The builders, the reduction, the chain complex and the homomorphism
check, held to the per-tuple loops of oracle_constructions: the same table
entry for entry, and the same basepoint."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_constructions as oracle
from helpers import axiom_fixture_set, dihedral_nrack, one_element_nrack, trivial_nrack
from nracks import (
    ConstructionError,
    FiniteNRack,
    FiniteRack,
    GroupModule,
    build_conjugation_nrack,
    build_gamma_module_nrack,
    build_module_group_nrack,
    build_z4_module_nrack,
    cyclic_group,
    dihedral_group,
    enumerate_nracks,
    is_homomorphism,
    lift_rack_to_nrack,
    rack_chain_complex,
    reduce_nrack_to_rack,
    symmetric_group,
)
from nracks.core import entrywise
from nracks.homology import DEFAULT_COLUMN_BUDGET

ARITIES = (2, 3, 4)


def _built(R):
    return R.table, R.basepoint


@given(
    st.integers(1, 5).flatmap(
        lambda base: st.tuples(
            st.just(base),
            st.lists(st.integers(0, base - 1), min_size=1, max_size=4),
            st.integers(0, 4),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_entrywise_matches_tuple_decoding(case):
    base, phi, length = case
    got = entrywise(phi, length, base)
    tuples = list(product(range(len(phi)), repeat=length))
    assert len(got) == len(tuples)
    for i, t in enumerate(tuples):
        assert got[i] == oracle._index([phi[x] for x in t], base)


@pytest.mark.parametrize("arity", ARITIES)
@pytest.mark.parametrize("modulus", (1, 2, 4))
def test_z4_matches_oracle(arity, modulus):
    assert _built(build_z4_module_nrack(arity, modulus)) == oracle.z4(arity, modulus)


@pytest.mark.parametrize("arity", ARITIES)
@pytest.mark.parametrize("m", range(1, 9))
def test_every_valid_gamma_matches_oracle(arity, m):
    valid = 0
    for t, s in product(range(m), repeat=2):
        if oracle.gamma_is_valid(arity, m, t, s):
            R = build_gamma_module_nrack(arity, m, t, s)
            assert _built(R) == oracle.gamma(arity, m, t, s)
            valid += 1
        else:
            with pytest.raises(ConstructionError):
                build_gamma_module_nrack(arity, m, t, s)
    assert valid >= 1


@pytest.mark.parametrize("arity", ARITIES)
@pytest.mark.parametrize(
    "G", [symmetric_group(3), dihedral_group(4), cyclic_group(5)], ids=["S3", "D4", "C5"]
)
def test_conjugation_matches_oracle(arity, G):
    assert _built(build_conjugation_nrack(G, arity)) == oracle.conjugation(G, arity)


@pytest.mark.parametrize("arity", ARITIES)
def test_lift_of_the_rack_census_matches_oracle(arity):
    lifted = 0
    for m in range(1, 5):
        for table in enumerate_nracks(2, m).representatives:
            for basepoint in (None, m - 1):
                Q = FiniteRack(m, table, basepoint)
                assert _built(lift_rack_to_nrack(Q, arity)) == oracle.lift(Q, arity)
                lifted += 1
    assert lifted == 2 * (1 + 2 + 6 + 19)


def _bundles():
    """(H, bracket, module, arity, expected verdict): the trivial bracket of
    C2 on C3 at every arity, C4 on C5 by doubling with an antisymmetric
    ternary bracket, and S3 on C3 with a bracket that breaks the axioms."""
    C2, C3 = cyclic_group(2), cyclic_group(3)
    sign = GroupModule(space=C3, acting=C2, action=((0, 1, 2), (0, 2, 1)))
    out = [(C2, (0,) * 2**n, sign, n, True) for n in ARITIES]
    C4, C5 = cyclic_group(4), cyclic_group(5)
    doubling = tuple(tuple((v * pow(2, k, 5)) % 5 for v in range(5)) for k in range(4))
    cubic = tuple(((a - b) * (b - c) * (a - c)) % 4 for a, b, c in product(range(4), repeat=3))
    out.append((C4, cubic, GroupModule(space=C5, acting=C4, action=doubling), 3, True))
    S3 = symmetric_group(3)
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    odd = [sum(1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b]) % 2 for p in perms]
    action = tuple(tuple((v * (2 if odd[k] else 1)) % 3 for v in range(3)) for k in range(6))
    f = [0, 1, 0, 0, 0, 0]
    parity = tuple((f[a] + f[b] + f[c]) % 2 for a, b, c in product(range(6), repeat=3))
    out.append((S3, parity, GroupModule(space=C3, acting=S3, action=action), 3, False))
    return out


@pytest.mark.parametrize(
    "H, bracket, module, arity, verdict",
    _bundles(),
    ids=["C2-C3-n2", "C2-C3-n3", "C2-C3-n4", "C4-C5-n3", "S3-C3-failing"],
)
def test_module_group_matches_oracle(H, bracket, module, arity, verdict):
    R, report = build_module_group_nrack(H, bracket, module, arity)
    assert _built(R) == oracle.module_group(H, bracket, module, arity)
    assert report.is_nrack is verdict


REDUCE_FIXTURES = axiom_fixture_set() + [
    ("one(3)", one_element_nrack(3)),
    ("dihedral3", dihedral_nrack(3)),
    ("trivial(4,2)", trivial_nrack(4, 2)),
    ("trivial(3,3) pointed at 2", FiniteNRack(3, 3, trivial_nrack(3, 3).table, basepoint=2)),
    ("z4(n=3,m=2)", build_z4_module_nrack(3, 2)),
    ("conj(S3,n=4)", build_conjugation_nrack(symmetric_group(3), 4)),
]


@pytest.mark.parametrize("name, R", REDUCE_FIXTURES, ids=[name for name, _ in REDUCE_FIXTURES])
def test_reduce_matches_oracle(name, R):
    assert _built(reduce_nrack_to_rack(R)) == oracle.reduce(R)


RACKS4 = [FiniteNRack(2, 4, t) for t in enumerate_nracks(2, 4).representatives]
BUILD_FIXTURES = (
    REDUCE_FIXTURES
    + [(f"rack4-{i:02d}", R) for i, R in enumerate(RACKS4)]
    + [("one(2) to degree 6", one_element_nrack(2))]
)


def test_order_four_racks_are_the_nineteen_classes():
    assert len(RACKS4) == 19


@pytest.mark.parametrize("name, X", BUILD_FIXTURES, ids=[name for name, _ in BUILD_FIXTURES])
def test_rack_complex_columns_match_oracle(name, X):
    # Up to degree 4, or the highest degree within the default column
    # budget; degrees 0 and 1 as well.
    M = X.size ** (X.arity - 1)
    top = 6 if M == 1 else max(k for k in range(5) if M**k <= DEFAULT_COLUMN_BUDGET)
    for max_degree in sorted({0, 1, top}):
        C = rack_chain_complex(X, max_degree)
        assert C.ranks == [M**k for k in range(max_degree + 1)]
        want = oracle.rack_boundary_faces(C.rack, max_degree)
        for k in range(max_degree + 1):
            assert C.cols[k] == want[k], k
    assert C.cols == oracle.rack_boundary_columns(C.rack, top)


def test_is_homomorphism_matches_oracle():
    rng = random.Random(7)
    pairs = [
        (dihedral_nrack(3), dihedral_nrack(3)),
        (build_z4_module_nrack(3, 4), build_z4_module_nrack(3, 2)),
        (build_conjugation_nrack(cyclic_group(4), 2),
         build_conjugation_nrack(symmetric_group(3), 2)),
        (trivial_nrack(3, 2), trivial_nrack(3, 3)),
    ]
    verdicts = set()
    for R, S in pairs:
        maps = [tuple(rng.randrange(S.size) for _ in range(R.size)) for _ in range(40)]
        maps += [tuple(x % S.size for x in range(R.size)), (0,) * R.size]
        for f in maps:
            expected = oracle.homomorphism(f, R, S)
            assert is_homomorphism(f, R, S) is expected
            verdicts.add(expected)
    assert verdicts == {True, False}
