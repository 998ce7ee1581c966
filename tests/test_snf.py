from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors
from sympy.polys.matrices import DomainMatrix

from helpers import boundary_dense, dihedral_nrack
from oracle_snf import invariants_by_factoring
from nracks import (
    AbelianGroupInvariants,
    abelianization,
    associated_group_presentation,
    build_conjugation_nrack,
    build_z4_module_nrack,
    homology,
    invariant_factors,
    rack_chain_complex,
    sparse_invariant_factors,
    symmetric_group,
)
from nracks import snf
from nracks.snf import (
    CERTIFICATE_PRIME,
    _echelon_basis,
    _gcd_step,
    certified_factors,
    determinant,
    group_from_diagonal,
    invariants_from_cyclic_orders,
    smith_normal_form,
)


def diagonal(S):
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


def test_diag_2_3_gives_1_6():
    S = smith_normal_form([[2, 0], [0, 3]])
    assert diagonal(S) == [1, 6]


def test_zero_matrix_gives_zero_smith_form():
    assert smith_normal_form([[0] * 3 for _ in range(3)]) == [[0] * 3 for _ in range(3)]


def test_2468_invariant_factors():
    # gcd of entries 2, |det| = 8, so factors (2, 4).
    assert invariant_factors([[2, 4], [6, 8]]) == (2, 4)


def test_empty_shapes():
    assert invariant_factors([]) == ()
    assert invariant_factors([[], []]) == ()
    assert smith_normal_form([[5]]) == [[5]]
    assert smith_normal_form([[], []]) == [[], []]
    assert smith_normal_form([]) == []


def test_rectangular():
    assert invariant_factors([[1, 0, 0], [0, 2, 0]]) == (1, 2)
    assert invariant_factors([[3], [6]]) == (3,)


def _matrices():
    dims = st.integers(1, 4)
    return dims.flatmap(
        lambda r: dims.flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


@settings(max_examples=250, deadline=None)
@given(_matrices())
def test_snf_properties(M):
    S = smith_normal_form(M)
    rows, cols = len(M), len(M[0])
    assert len(S) == rows and all(len(row) == cols for row in S)
    # Diagonal, nonnegative, divisibility chain.
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert S[i][j] == 0
    d = diagonal(S)
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # Invariant factors agree with an independent implementation.
    ours = tuple(x for x in d if x != 0)
    theirs = tuple(int(x) for x in sympy_invariant_factors(Matrix(M)) if x != 0)
    assert ours == theirs


# Matrices whose first echelon basis is not diagonal, so the Smith form
# takes more than one pass.
_MULTI_PASS = {
    "dense": [[2, 4, 6, 8, 1], [3, 0, -3, 5, 2], [1, 1, 1, 1, 1], [0, 6, 3, 9, 12]],
    "dihedral-d3": boundary_dense(rack_chain_complex(dihedral_nrack(3), 3), 3),
    "2x2": [[2, 1], [0, 2]],
    "3x3": [[6, 4, 0], [0, 10, 15], [9, 0, 12]],
}


@pytest.mark.parametrize("M", _MULTI_PASS.values(), ids=_MULTI_PASS)
def test_smith_form_alternates_until_diagonal(monkeypatch, M):
    original, calls = snf._echelon_basis, []

    def counting(vectors):
        calls.append(len(vectors))
        return original(vectors)

    monkeypatch.setattr(snf, "_echelon_basis", counting)
    S = smith_normal_form(M)
    assert len(calls) >= 2
    assert tuple(d for d in diagonal(S) if d) == _sympy_factors(M)


@pytest.mark.parametrize("M", _MULTI_PASS.values(), ids=_MULTI_PASS)
def test_a_corrupted_later_pass_is_caught(monkeypatch, M):
    # The second pass's basis loses its last vector: the membership check
    # on that pass must fail, as the first pass is sound.
    original, calls = snf._echelon_basis, []

    def corrupted(vectors):
        basis = original(vectors)
        calls.append(len(basis))
        if len(calls) == 2:
            del basis[max(basis)]
        return basis

    monkeypatch.setattr(snf, "_echelon_basis", corrupted)
    with pytest.raises(AssertionError, match="echelon residual verification failed"):
        smith_normal_form(M)
    assert len(calls) == 2


def _columns(M):
    return [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(len(M[0]))]


def _sympy_factors(M):
    return tuple(int(x) for x in sympy_invariant_factors(Matrix(M)) if x != 0)


# Mostly +-1 and zero, as in boundary maps, with non-unit entries that can
# leave a residual for the dense Smith form.
_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -4, 6])


@st.composite
def _sparse_matrices(draw, entries=_ENTRIES):
    """Tall, wide and square matrices with some rows and columns zeroed."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows // 2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols // 2))
    return [
        [0 if i in zero_rows or j in zero_cols else draw(entries) for j in range(cols)]
        for i in range(rows)
    ]


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_sparse_engine_matches_sympy(M):
    want = _sympy_factors(M)
    assert sparse_invariant_factors(_columns(M)) == want
    assert invariant_factors(M) == want


def _rank_gf(rows, p):
    return DomainMatrix.from_list(rows, ZZ).convert_to(GF(p)).rank() if rows else 0


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_pivot_keys_name_blocks_the_chain_can_drop(M):
    # The rows at the unit keys split off unit factors only, and those at
    # the certificate's keys are independent modulo its prime.
    factorization = certified_factors(_columns(M))
    assert factorization.factors == _sympy_factors(M)
    unit_rows = [M[i] for i in factorization.unit_keys]
    assert (_sympy_factors(unit_rows) if unit_rows else ()) == (1,) * len(unit_rows)
    rank_rows = [M[i] for i in snf._rank_mod_p(_columns(M))]
    rank = _rank_gf(rank_rows, CERTIFICATE_PRIME)
    assert rank == len(rank_rows) == sum(1 for d in factorization.factors if d % CERTIFICATE_PRIME)


@st.composite
def _wide_residual_matrices(draw):
    """[A 0; 0 B] with rows and columns shuffled.  B is r x c with no +-1
    entry and no zero column, and c > r + rows(A), so B is left untouched
    and the residual has more columns than rows, whatever A leaves."""
    a_rows, a_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    A = [[draw(_ENTRIES) for _ in range(a_cols)] for _ in range(a_rows)]
    r = draw(st.integers(1, 3))
    c = draw(st.integers(r + a_rows + 1, r + a_rows + 3))
    non_unit = st.sampled_from([2, -2, 3, -3, 4, 6, -9])
    B = [
        [draw(non_unit) if j % r == i else draw(st.sampled_from([0, 0, 2, -3, 5]))
         for j in range(c)]
        for i in range(r)
    ]
    M = [row + [0] * c for row in A] + [[0] * a_cols + row for row in B]
    row_order = draw(st.permutations(range(len(M))))
    col_order = draw(st.permutations(range(len(M[0]))))
    return [[M[i][j] for j in col_order] for i in row_order]


def _transposed(M):
    return [list(r) for r in zip(*M)]


@settings(max_examples=150, deadline=None)
@given(_wide_residual_matrices(), st.booleans())
def test_echelon_passes_see_at_most_the_short_side(M, transpose):
    # The residual is wide, or tall once the input is transposed; either
    # way the Smith form gets the vectors of its long side, each in Z^r.
    if transpose:
        M = _transposed(M)
    columns = _columns(M)
    _, residual = snf._eliminate_unit_pivots(columns)
    height = len({i for col in residual for i in col})
    assert (len(residual) > height) != transpose
    r = min(len(residual), height)
    spans = []
    original = snf._smith_factors

    def spy(vectors):
        spans.append(len({t for vector in vectors for t in vector}))
        return original(vectors)

    with mock.patch.object(snf, "_smith_factors", spy):
        got = sparse_invariant_factors(columns)
    assert got == _sympy_factors(M)
    assert len(spans) == 1 and spans[0] <= r


@st.composite
def _residual_blocks(draw):
    """A matrix of any shape up to 5 x 5 with no +-1 entry and at least one
    nonzero one.  Its entries share factors 2, 3 and 5 in part, so the
    echelon basis takes gcd steps, and its rows and columns may be
    dependent."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.sampled_from([0, 0, 2, -2, 3, 4, -6, 9, 10, -15])
    B = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    B[0][0] = draw(st.sampled_from([2, -3, 6, 10]))
    return B


@st.composite
def _residual_matrices(draw):
    """[A 0; 0 B] with rows and columns shuffled, B a _residual_blocks
    matrix, so the residual is never empty."""
    A = draw(_sparse_matrices())
    B = draw(_residual_blocks())
    cols = len(B[0])
    a_cols = len(A[0])
    M = [row + [0] * cols for row in A] + [[0] * a_cols + row for row in B]
    row_order = draw(st.permutations(range(len(M))))
    col_order = draw(st.permutations(range(len(M[0]))))
    return [[M[i][j] for j in col_order] for i in row_order]


@settings(max_examples=300, deadline=None)
@given(_residual_matrices(), st.booleans())
def test_echelon_residual_matches_sympy(M, transpose):
    # Wide and tall residuals.
    if transpose:
        M = _transposed(M)
    _, residual = snf._eliminate_unit_pivots(_columns(M))
    assert residual
    assert invariant_factors(M) == _sympy_factors(M)


def test_hermite_reduction_keeps_entries_above_pivots_below_them():
    basis = {0: {0: 2, 1: 7, 2: -5}, 1: {1: -3, 2: 4}, 2: {2: 5}}
    snf._hermite_reduce(basis)
    assert all(0 <= basis[lead].get(p, 0) < basis[p][p]
               for p in basis for lead in basis if lead < p)
    dense = [[b.get(t, 0) for t in range(3)] for _, b in sorted(basis.items())]
    assert abs(determinant(dense)) == 30
    assert _sympy_factors(dense) == _sympy_factors([[2, 7, -5], [0, -3, 4], [0, 0, 5]])


@settings(max_examples=300, deadline=None)
@given(_residual_blocks(), st.booleans())
def test_echelon_basis_is_hermite_reduced(B, transpose):
    # The rows, or the columns, of a residual-like block: the basis comes
    # back Hermite-reduced however small its entries, and every input
    # vector reduces to zero against it.
    if transpose:
        B = _transposed(B)
    vectors = [{j: v for j, v in enumerate(row) if v} for row in B]
    basis = _echelon_basis(vectors)
    assert basis and all(b[p] > 0 for p, b in basis.items())
    assert all(0 <= basis[lead].get(p, 0) < basis[p][p]
               for p in basis for lead in basis if lead < p)
    assert not any(snf._reduce(dict(v), basis) for v in vectors)


def test_echelon_basis_entries_stay_small_on_dihedral_r4():
    # H_5 of the rack complex of R4 (x o y = 2x - y mod 4) leaves residuals
    # whose basis entries reached 102 bits when the basis was reduced only
    # past 64; reduced after every change, they stay at a few bits.
    bits = []

    def spy(vectors):
        basis = _echelon_basis(vectors)
        bits.extend(abs(x).bit_length() for b in basis.values() for x in b.values())
        return basis

    with mock.patch.object(snf, "_echelon_basis", spy):
        H = homology(rack_chain_complex(dihedral_nrack(4), 6), 5)
    assert H.invariants == AbelianGroupInvariants(32, (2,) * 66)
    assert bits and max(bits) <= 64


# Residuals that need gcd steps, wide and tall: no entry is +-1.
_GCD_CASES = [[[2, 3]], [[2], [3]], [[6, 10, 15], [4, 0, 9]], [[6, 4], [10, 0], [15, 9]]]


def _non_unimodular_gcd_step(a, c):
    (s, t), second = _gcd_step(a, c)
    return (2 * s, 2 * t), second


def _basis_without_first_vector(vectors):
    return _echelon_basis(vectors[1:])


@pytest.mark.parametrize(
    "name, mutant",
    [("_gcd_step", _non_unimodular_gcd_step), ("_echelon_basis", _basis_without_first_vector)],
    ids=["non-unimodular-gcd-step", "dropped-input-vector"],
)
@pytest.mark.parametrize("M", _GCD_CASES)
def test_echelon_residual_mutants_are_caught(monkeypatch, name, mutant, M):
    assert invariant_factors(M) == _sympy_factors(M)
    monkeypatch.setattr(snf, name, mutant)
    with pytest.raises(AssertionError, match="echelon residual verification failed"):
        invariant_factors(M)


def test_unit_keys_stay_unimodular_when_a_column_regains_a_row():
    # Markowitz order pivots (row 0, col 0), then (row 2, col 1), then
    # (row 1, col 2).  The first pivot cancels row 1 out of column 3 and
    # the second fills it back in, so column 3 is listed twice under row 1
    # when the third pivot clears it.
    M = [[-1, 1, 0, 1], [1, 0, 2, -1], [0, 1, 1, 2]]
    units, residual = snf._eliminate_unit_pivots(_columns(M))
    assert units == {0, 1, 2} and residual == []
    assert determinant([row[:3] for row in M]) in (1, -1)
    assert certified_factors(_columns(M)).factors == (1, 1, 1) == _sympy_factors(M)


def test_unit_pivots_alone_factor_torsion_free_maps_and_relators():
    # The z4 (n=3) boundary maps and every abelianized relator matrix,
    # whose rows are e_[xs] - e_{x_n}, eliminate completely, so the
    # residual's Smith form never runs.
    C = rack_chain_complex(build_z4_module_nrack(3, 4), 3)
    with mock.patch.object(snf, "_smith_factors", side_effect=AssertionError):
        assert [len(C.factors(k)) for k in (1, 2, 3)] == [0, 8, 184]
        for R in (dihedral_nrack(3), build_conjugation_nrack(symmetric_group(3), 3)):
            for paper_form in (False, True):
                abelianization(associated_group_presentation(R, paper_form=paper_form))


@pytest.mark.parametrize(
    "corrupt, M",
    [
        (lambda units, residual: (set(sorted(units)[1:]), residual),
         boundary_dense(rack_chain_complex(dihedral_nrack(3), 3), 3)),
        (lambda units, residual: (units, residual[1:]), [[2, 0], [0, 3]]),
    ],
    ids=["dropped-pivot", "dropped-residual-column"],
)
def test_corrupted_elimination_trips_the_rank_certificate(monkeypatch, corrupt, M):
    eliminate = snf._eliminate_unit_pivots
    monkeypatch.setattr(snf, "_eliminate_unit_pivots", lambda cols: corrupt(*eliminate(cols)))
    with pytest.raises(AssertionError, match="rank certificate failed"):
        invariant_factors(M)


def test_rank_certificate_counts_factors_the_prime_does_not_divide():
    # Modulo the certificate prime the rank of [[p, 0], [0, 1]] is 1.
    assert invariant_factors([[CERTIFICATE_PRIME, 0], [0, 1]]) == (1, CERTIFICATE_PRIME)
    assert invariant_factors([[0, 0], [0, 0]]) == ()
    assert sparse_invariant_factors([]) == ()
    assert sparse_invariant_factors([{}, {5: 0}]) == ()


def _rank_mod_p_lowest_row(columns, p):
    """The earlier certificate: residues in [0, p), each column reduced by
    its lowest row, shortest columns first."""
    kept = {}
    for col in sorted(columns, key=len):
        v = {i: x % p for i, x in col.items() if x % p}
        while v:
            low = min(v)
            pivot = kept.get(low)
            if pivot is None:
                inverse = pow(v[low], -1, p)
                kept[low] = {i: x * inverse % p for i, x in v.items()}
                break
            q = v[low]
            for i, b in pivot.items():
                w = (v.get(i, 0) - q * b) % p
                if w:
                    v[i] = w
                else:
                    v.pop(i, None)
    return len(kept)


def _matrices_mod_p(p):
    """Sparse matrices with entries up to +-3p: multiples of p, the ends of
    the symmetric range [-p/2, p/2] and one past them, at every multiple."""
    half = p // 2
    edges = [s * (m * p + e) for s in (1, -1) for m in (0, 1, 2) for e in (0, half, half + 1)]
    edges += [3 * p, -3 * p]
    entries = _ENTRIES | st.sampled_from(edges) | st.integers(-3 * p, 3 * p)
    return st.tuples(st.just(p), _sparse_matrices(entries))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5, CERTIFICATE_PRIME]).flatmap(_matrices_mod_p))
def test_rank_mod_p_matches_sympy(case):
    # The certificate reduces the shortest columns first by their highest
    # row; the rank must be sympy's over GF(p) and the lowest-row
    # reduction's.  Small primes divide some entries, so the rank modulo p
    # can fall below the rank over Q.
    p, M = case
    want = DomainMatrix.from_list(M, ZZ).convert_to(GF(p)).rank()
    kept = snf._rank_mod_p(_columns(M), p)
    assert len(kept) == want
    assert _rank_mod_p_lowest_row(_columns(M), p) == want
    # The kept highest rows are independent: the certificate's block.
    assert _rank_gf([M[i] for i in kept], p) == want


def test_sparse_engine_leaves_its_input_unchanged():
    C = rack_chain_complex(dihedral_nrack(3), 4)
    before = [[dict(col) for col in cols] for cols in C.cols]
    for k in (1, 2, 3, 4):
        sparse_invariant_factors(C.cols[k])
    assert C.cols == before


def test_determinant_known_values():
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([]) == 1
    with pytest.raises(ValueError):
        determinant([[1, 2]])


def test_invariants_from_cyclic_orders():
    assert invariants_from_cyclic_orders([2, 3]) == (6,)
    assert invariants_from_cyclic_orders([2, 2]) == (2, 2)
    assert invariants_from_cyclic_orders([4, 6]) == (2, 12)
    assert invariants_from_cyclic_orders([1, 1]) == ()
    assert invariants_from_cyclic_orders([]) == ()
    assert invariants_from_cyclic_orders([12, 18, 2]) == (2, 6, 36)
    for orders in ([0], [3, -2]):
        with pytest.raises(ValueError, match="must be positive"):
            invariants_from_cyclic_orders(orders)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(1, 200), max_size=10))
def test_invariants_from_cyclic_orders_match_the_factoring_oracle(orders):
    assert invariants_from_cyclic_orders(orders) == invariants_by_factoring(orders)


def test_invariants_from_cyclic_orders_never_factor_an_order():
    # Trial division would run to about 1.5e9 on this prime.
    p = 2**61 - 1
    assert invariants_from_cyclic_orders([p]) == (p,)
    assert invariants_from_cyclic_orders([4 * p, 6, p]) == (2 * p, 12 * p)


def test_group_from_diagonal():
    inv = group_from_diagonal((1, 1, 2, 6), ambient_rank=6)
    assert inv.free_rank == 2
    assert inv.torsion == (2, 6)
    assert group_from_diagonal((2,), 1) == AbelianGroupInvariants(0, (2,))


def test_abelian_invariants_validation():
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (3, 2))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(-1, ())
