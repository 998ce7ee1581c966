"""The distinct-row distributivity check and the sparse Leibniz checks,
held to the exhaustive and dense loops of oracle_verify: the same verdict
and the same first witness on every input."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_verify
from helpers import (
    RATIONALS,
    axiom_fixture_set,
    dihedral_nrack,
    one_element_nrack,
    trivial_nrack,
)
from nracks import (
    FiniteNRack,
    LeibnizNAlgebra,
    LinearOperator,
    adjoint,
    bracket,
    build_conjugation_nrack,
    build_z4_module_nrack,
    check_derivation,
    check_filippov,
    check_fundamental_identity,
    check_left_distributive,
    cyclic_group,
    enumerate_nracks,
    levi_civita_nalgebra,
    symmetric_group,
)
from nracks.leibniz import check_multilinearity_sample


def golden_tables():
    """The tables behind the homology and associated-group goldens, and the
    acceptance axiom fixtures."""
    tables = [
        one_element_nrack(2), trivial_nrack(2, 2), trivial_nrack(2, 3), dihedral_nrack(3),
        build_z4_module_nrack(3, 4),
    ]
    tables += [build_conjugation_nrack(G, n)
               for G in (cyclic_group(2), symmetric_group(3)) for n in (2, 3)]
    return tables + [R for _, R in axiom_fixture_set()]


def enumerated_tables():
    return [
        FiniteNRack(n, m, table)
        for n, top in ((2, 4), (3, 3))
        for m in range(1, top + 1)
        for table in enumerate_nracks(n, m).representatives
    ]


def one_entry_mutants(R, rng):
    """R with one entry of its first row changed, and with one entry of its
    last row changed."""
    m = R.size
    if m == 1:
        return []
    out = []
    for lo in (0, len(R.table) - m):
        idx = lo + rng.randrange(m)
        table = list(R.table)
        table[idx] = (table[idx] + rng.randrange(1, m)) % m
        out.append(FiniteNRack(R.arity, m, tuple(table), R.basepoint))
    return out


def assert_distributivity_matches_oracle(R):
    assert check_left_distributive(R) == oracle_verify.left_distributive(R)


def test_distributivity_matches_oracle_on_goldens_enumerations_and_mutants():
    rng = random.Random(5)
    tables = golden_tables() + enumerated_tables()
    tables += [one_element_nrack(n) for n in (2, 3, 4, 5)]
    failing = 0
    for R in tables:
        assert_distributivity_matches_oracle(R)
        for M in one_entry_mutants(R, rng):
            assert_distributivity_matches_oracle(M)
            failing += not check_left_distributive(M)[0]
    # The mutants exercise the witness search, not only the passing scan.
    assert failing > 100


def _tables_with_repeated_rows(n, m):
    """Tables whose rows are drawn from a pool of three, so that the same
    row recurs at several prefixes, distributive or not."""
    row = st.tuples(*[st.integers(0, m - 1)] * m)
    return st.tuples(
        st.lists(row, min_size=3, max_size=3),
        st.lists(st.integers(0, 2), min_size=m ** (n - 1), max_size=m ** (n - 1)),
    ).map(lambda t: FiniteNRack(n, m, sum((t[0][i] for i in t[1]), ())))


def _permutation_rows(n, m):
    return st.lists(st.permutations(range(m)), min_size=m ** (n - 1),
                    max_size=m ** (n - 1)).map(
        lambda rows: FiniteNRack(n, m, sum(map(tuple, rows), ())))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _tables_with_repeated_rows(2, 3), _tables_with_repeated_rows(2, 4),
    _tables_with_repeated_rows(3, 2), _tables_with_repeated_rows(3, 3),
    _permutation_rows(2, 3), _permutation_rows(3, 2), _permutation_rows(2, 4),
))
def test_distributivity_matches_oracle_on_random_tables(R):
    assert_distributivity_matches_oracle(R)


def relabeled(L, perm, dimension):
    """L on a space of the given dimension, basis vector e_i renamed e_perm[i];
    the basis vectors perm leaves out span the zero padding."""
    entries = [
        (tuple(perm[a] for a in args), perm[i], c)
        for args, vec in L.constants.items()
        for i, c in enumerate(vec)
        if c
    ]
    return LeibnizNAlgebra.from_entries(dimension, L.arity, entries)


def one_constant_mutant(L, rng):
    """L with one structure constant changed: a seeded entry, zero or not,
    moved by a nonzero amount."""
    args = tuple(rng.randrange(L.dimension) for _ in range(L.arity))
    vec = list(oracle_verify.structure_vector(L, args))
    vec[rng.randrange(L.dimension)] += rng.choice((-2, -1, 1, 2))
    constants = dict(L.constants)
    constants[args] = tuple(vec)
    return LeibnizNAlgebra(L.dimension, L.arity, constants)


def levi_civita_copies(d, rng):
    L = levi_civita_nalgebra(d)
    perm = list(range(d + 1))
    rng.shuffle(perm)
    return [L, relabeled(L, range(d), d + 1), relabeled(L, perm, d + 1)]


@pytest.mark.parametrize("d", [3, 4, 5])
def test_fundamental_identity_matches_oracle_on_levi_civita(d):
    rng = random.Random(d)
    copies = levi_civita_copies(d, rng)
    for L in copies:
        # The Levi-Civita bracket is a Filippov bracket, so the answer is
        # known; the dense loop takes about 12 s on the valid d = 5 tensor.
        assert check_fundamental_identity(L) == (True, None)
        if d < 5:
            assert oracle_verify.fundamental_identity(L) == (True, None)
    failing = 0
    for L in copies[: 1 if d == 5 else 3]:
        for _ in range({3: 15, 4: 5, 5: 4}[d]):
            M = one_constant_mutant(L, rng)
            result = check_fundamental_identity(M)
            assert result == oracle_verify.fundamental_identity(M)
            failing += not result[0]
    assert failing > 0


def _random_tensors(d, n, values=st.integers(-2, 2)):
    entries = st.tuples(
        st.tuples(*[st.integers(0, d - 1)] * n), st.integers(0, d - 1), values)
    return st.lists(entries, max_size=8).map(
        lambda e: LeibnizNAlgebra.from_entries(d, n, e))


def _random_operators(d, values=st.integers(-1, 1)):
    return st.lists(st.lists(values, min_size=d, max_size=d),
                    min_size=d, max_size=d).map(LinearOperator)


RATIONAL_SHAPES = ((2, 2), (3, 2), (2, 3), (3, 3))


@settings(max_examples=300, deadline=None)
@given(st.one_of([
    st.tuples(_random_tensors(d, n, RATIONALS),
              st.lists(st.tuples(*[RATIONALS] * d), min_size=n, max_size=n))
    for d, n in RATIONAL_SHAPES
]))
def test_bracket_and_adjoint_match_the_fraction_oracle_on_rational_values(pair):
    L, vectors = pair
    assert bracket(L, *vectors) == oracle_verify.bracket(L, *vectors)
    assert adjoint(L, *vectors[:-1]).matrix == oracle_verify.adjoint(L, *vectors[:-1])


@settings(max_examples=20, deadline=None)
@given(st.one_of([_random_tensors(d, n, RATIONALS) for d, n in RATIONAL_SHAPES]))
def test_multilinearity_probe_matches_oracle_on_rational_tensors(L):
    for seed in range(21):
        assert check_multilinearity_sample(L, seed=seed) == \
            oracle_verify.multilinearity_sample(L, seed=seed)


def test_rational_multiples_keep_their_derivations():
    # c * [.,...] satisfies the fundamental identity again, so its adjoints
    # at rational vectors are derivations; for sl2 they are not
    # antisymmetric, so each entry's own denominator matters.  so(4) acts
    # on c * Levi-Civita by derivations, and a nonzero diagonal entry
    # breaks the derivation equation.
    rng = random.Random(13)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 7))

    sl2 = [((0, 1), 2, 1), ((1, 0), 2, -1), ((2, 0), 0, 2), ((0, 2), 0, -2),
           ((2, 1), 1, -2), ((1, 2), 1, 2)]
    lc4 = [(args, i, v) for args, vec in levi_civita_nalgebra(4).constants.items()
           for i, v in enumerate(vec) if v]
    for c in (Fraction(1, 3), Fraction(-5, 7), Fraction(6, 35)):
        for d, n, entries in ((3, 2, sl2), (4, 3, lc4)):
            L = LeibnizNAlgebra.from_entries(d, n, [(a, i, c * v) for a, i, v in entries])
            assert check_fundamental_identity(L) == (True, None)
            for _ in range(3):
                D = adjoint(L, *([rational() for _ in range(d)] for _ in range(n - 1)))
                assert check_derivation(L, D) is oracle_verify.derivation(L, D) is True
        matrix = [[Fraction(0)] * 4 for _ in range(4)]
        for i, j in combinations(range(4), 2):
            v = rational()
            matrix[i][j], matrix[j][i] = v, -v
        D = LinearOperator(matrix)
        assert check_derivation(L, D) is oracle_verify.derivation(L, D) is True
        matrix[2][2] = Fraction(1, rng.randint(2, 7))
        D = LinearOperator(matrix)
        assert check_derivation(L, D) is oracle_verify.derivation(L, D) is False


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    [_random_tensors(2, 2), _random_tensors(3, 2), _random_tensors(2, 3)]
    + [_random_tensors(d, n, RATIONALS) for d, n in RATIONAL_SHAPES]
))
def test_fundamental_identity_matches_oracle_on_random_tensors(L):
    # The whole result: verdict, witness tuples and both sides as Fractions.
    assert check_fundamental_identity(L) == oracle_verify.fundamental_identity(L)


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    [st.tuples(_random_tensors(2, 2), _random_operators(2)),
     st.tuples(_random_tensors(3, 2), _random_operators(3)),
     st.tuples(_random_tensors(2, 3), _random_operators(2))]
    + [st.tuples(_random_tensors(d, n, RATIONALS), _random_operators(d, RATIONALS))
       for d, n in RATIONAL_SHAPES]
))
def test_derivation_matches_oracle_on_random_operators(pair):
    L, D = pair
    assert check_derivation(L, D) == oracle_verify.derivation(L, D)


def _antisymmetrized(L):
    """L minus L with its first two slots swapped: antisymmetric in those."""
    entries = []
    for args, vec in L.constants.items():
        swapped = (args[1], args[0]) + args[2:]
        for i, c in enumerate(vec):
            entries += [(args, i, c), (swapped, i, -c)]
    return LeibnizNAlgebra.from_entries(L.dimension, L.arity, entries)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _random_tensors(2, 2), _random_tensors(3, 2), _random_tensors(2, 3),
    _random_tensors(3, 2).map(_antisymmetrized), _random_tensors(2, 3).map(_antisymmetrized),
    _random_tensors(3, 3, RATIONALS), _random_tensors(3, 3, RATIONALS).map(_antisymmetrized),
))
def test_filippov_matches_oracle_on_random_tensors(L):
    assert check_filippov(L) == oracle_verify.filippov(L)


def test_filippov_matches_oracle_on_levi_civita_and_mutants():
    rng = random.Random(7)
    for L in [levi_civita_nalgebra(d) for d in (3, 4)] + [
        one_constant_mutant(levi_civita_nalgebra(4), rng) for _ in range(10)
    ]:
        assert check_filippov(L) == oracle_verify.filippov(L)
    assert check_filippov(levi_civita_nalgebra(4))


def test_derivation_matches_oracle_on_levi_civita_adjoints_and_mutants():
    rng = random.Random(11)
    for L in [levi_civita_nalgebra(4)] + [
        one_constant_mutant(levi_civita_nalgebra(4), rng) for _ in range(4)
    ]:
        d = L.dimension
        basis = [tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)]
        for xs in product(range(d), repeat=L.arity - 1):
            D = adjoint(L, *(basis[x] for x in xs))
            assert check_derivation(L, D) == oracle_verify.derivation(L, D)
        D = LinearOperator([[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)])
        assert check_derivation(L, D) == oracle_verify.derivation(L, D)
