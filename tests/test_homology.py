import json
import os
import time
import tracemalloc
from math import gcd

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from helpers import (
    axiom_fixture_set,
    boundary_dense,
    dihedral_nrack,
    one_element_nrack,
    trivial_nrack,
)
from oracle_cjkls import _rank_mod_p, rack_homology_oracle
from nracks import (
    BudgetExceededError,
    FiniteNRack,
    SubcomplexError,
    build_conjugation_nrack,
    build_z4_module_nrack,
    classify,
    cohomology,
    degenerate_subcomplex,
    enumerate_nracks,
    homology,
    quandle_quotient_complex,
    rack_chain_complex,
    symmetric_group,
)
from nracks.constructions import FiniteRack
from nracks.homology import ChainComplex, CoefficientGroup, _check_square_zero, reduced_rack_table
from nracks.snf import (
    AbelianGroupInvariants,
    invariant_factors,
    invariants_from_cyclic_orders,
    sparse_invariant_factors,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "homology_tables.json")

Z = CoefficientGroup(0)


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def fixture_table(name):
    return {
        "one_element": one_element_nrack(2),
        "trivial_m2": trivial_nrack(2, 2),
        "trivial_m3": trivial_nrack(2, 3),
        "dihedral_z3": dihedral_nrack(3),
    }[name]


def test_coefficient_group_parse():
    assert CoefficientGroup.parse("Z").modulus == 0
    assert CoefficientGroup.parse("Z/6").modulus == 6
    assert str(CoefficientGroup(3)) == "Z/3"
    with pytest.raises(ValueError):
        CoefficientGroup.parse("Q")
    for text in ("Z", "Z/2", "Z/6", "Z/10", "Z/2305843009213693951"):
        assert str(CoefficientGroup.parse(text)) == text
    for text in ("Z/0", "Z/1", "Z/+4", "Z/ 4", "Z/\u0664", " Z", "Z/02", "Z/00", "Z/010"):
        with pytest.raises(ValueError, match="cannot parse coefficient group"):
            CoefficientGroup.parse(text)
    with pytest.raises(ValueError):
        CoefficientGroup(1)


def test_one_element_complex_all_boundaries_vanish():
    C = rack_chain_complex(one_element_nrack(3), 4)
    assert C.ranks == [1, 1, 1, 1, 1]
    for k in range(1, 5):
        assert all(col == {} for col in C.cols[k])


def test_trivial_rack_boundaries_vanish():
    C = rack_chain_complex(trivial_nrack(2, 2), 3)
    assert C.ranks == [1, 2, 4, 8]
    assert [C.rank(k) for k in range(4)] == C.ranks
    for k in range(1, 4):
        assert all(col == {} for col in C.cols[k])


def test_dihedral_boundary_matrix_degree_two():
    # d_2(x1, x2) = (x1) - (x2 o x1) with x2 o x1 = 2*x2 - x1 mod 3.
    C = rack_chain_complex(dihedral_nrack(3), 3)
    M = boundary_dense(C, 2)
    assert len(M) == 3 and len(M[0]) == 9
    for j in range(9):
        x1, x2 = divmod(j, 3)
        expected = {}
        expected[x1] = expected.get(x1, 0) + 1
        acted = (2 * x2 - x1) % 3
        expected[acted] = expected.get(acted, 0) - 1
        for i in range(3):
            assert M[i][j] == expected.get(i, 0)


def test_boundary_squares_to_zero_dense():
    C = rack_chain_complex(dihedral_nrack(3), 4)
    for k in (3, 4):
        A = boundary_dense(C, k - 1)
        B = boundary_dense(C, k)
        prod = [
            [sum(A[i][r] * B[r][j] for r in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))
        ]
        assert all(v == 0 for row in prod for v in row)



@pytest.mark.parametrize(
    "column, squares_to_zero",
    [
        ({}, True),
        ({0: 2, 1: 1}, True),
        ({0: -2, 1: -1}, True),
        ({0: 1, 1: 1}, False),
        ({0: -3, 2: 1}, False),
        ({2: 2}, False),
    ],
)
def test_the_square_check_weighs_every_coefficient(column, squares_to_zero):
    # d_1 has entries of size 2 and 3 and rows that cancel across columns,
    # so d_1 d_2 = 0 only when the coefficients of d_2 match them exactly.
    cols = [[{}, {}], [{0: 1, 1: -1}, {0: -2, 1: 2}, {1: 3}], [column]]
    if squares_to_zero:
        _check_square_zero(cols)
    else:
        with pytest.raises(AssertionError, match="boundary does not square to zero"):
            _check_square_zero(cols)


BIG = 10**12


@pytest.mark.parametrize(
    "lower, column, squares_to_zero",
    [
        ([{0: BIG}, {0: BIG}], {0: 1, 1: -1}, True),
        ([{0: BIG}, {0: BIG}], {0: 1, 1: 1}, False),
        ([{0: 1}, {0: 1}], {0: BIG, 1: -BIG}, True),
        ([{0: 1}, {0: 1}], {0: BIG, 1: 1 - BIG}, False),
    ],
)
def test_the_square_check_does_not_grow_with_the_entries(lower, column, squares_to_zero):
    # Entries of 10^12 listed one row per unit would never finish; each
    # verdict must come at once.
    cols = [[{}], lower, [column]]
    start = time.perf_counter()
    if squares_to_zero:
        _check_square_zero(cols)
    else:
        with pytest.raises(AssertionError, match="boundary does not square to zero"):
            _check_square_zero(cols)
    assert time.perf_counter() - start < 1


def test_reduced_rack_table_of_z4_three_rack():
    rows = reduced_rack_table(build_z4_module_nrack(3, 4))
    assert len(rows) == 16
    # (x1,x2) acting on (y1,y2) adds 2x1+2x2 to both coordinates.
    for a in range(16):
        x1, x2 = divmod(a, 4)
        t = (2 * x1 + 2 * x2) % 4
        for b in range(16):
            y1, y2 = divmod(b, 4)
            assert rows[a][b] == ((y1 + t) % 4) * 4 + (y2 + t) % 4


def test_degenerate_ranks_one_element():
    R = one_element_nrack(2)
    C = rack_chain_complex(R, 3)
    D = degenerate_subcomplex(R, C)
    assert D.ranks == [0, 0, 1, 1]


def test_degenerate_ranks_trivial_m2():
    R = trivial_nrack(2, 2)
    C = rack_chain_complex(R, 2)
    D = degenerate_subcomplex(R, C)
    assert D.ranks == [0, 0, 2]


def test_degenerate_ranks_dihedral():
    # 3-tuples over 3 elements with a consecutive repeat: 27 - 3*2*2 = 15.
    R = dihedral_nrack(3)
    C = rack_chain_complex(R, 3)
    D = degenerate_subcomplex(R, C)
    assert D.ranks == [0, 0, 3, 15]


def test_quotient_ranks():
    R = one_element_nrack(2)
    C = rack_chain_complex(R, 3)
    Q = quandle_quotient_complex(C, degenerate_subcomplex(R, C))
    assert Q.ranks == [1, 1, 0, 0]
    R = dihedral_nrack(3)
    C = rack_chain_complex(R, 3)
    Q = quandle_quotient_complex(C, degenerate_subcomplex(R, C))
    assert Q.ranks == [1, 3, 6, 12]


def test_degenerate_requires_nquandle():
    R = build_z4_module_nrack(3, 4)
    assert not classify(R).is_nquandle
    C = rack_chain_complex(R, 2)
    with pytest.raises(ValueError, match="n-quandle"):
        degenerate_subcomplex(R, C)


def test_quotient_requires_matching_subcomplex():
    R = dihedral_nrack(3)
    C = rack_chain_complex(R, 3)
    D = degenerate_subcomplex(R, C)
    smaller = rack_chain_complex(trivial_nrack(2, 2), 3)
    with pytest.raises(SubcomplexError):
        quandle_quotient_complex(smaller, D)
    with pytest.raises(SubcomplexError):
        quandle_quotient_complex(C, C)


def test_homology_degree_bounds():
    C = rack_chain_complex(one_element_nrack(2), 3)
    with pytest.raises(ValueError):
        homology(C, 0)
    with pytest.raises(ValueError):
        homology(C, 3)


def test_one_element_integral_homology():
    C = rack_chain_complex(one_element_nrack(2), 5)
    for k in range(1, 5):
        inv = homology(C, k, Z).invariants
        assert inv.free_rank == 1 and inv.torsion == ()


def test_trivial_rack_integral_homology():
    for m in (2, 3):
        C = rack_chain_complex(trivial_nrack(2, m), 4)
        for k in range(1, 4):
            inv = homology(C, k, Z).invariants
            assert inv.free_rank == m**k and inv.torsion == ()


def test_dihedral_quandle_homology_golden_values():
    R = dihedral_nrack(3)
    C = rack_chain_complex(R, 4)
    Q = quandle_quotient_complex(C, degenerate_subcomplex(R, C))
    h2 = homology(Q, 2, Z).invariants
    assert h2.free_rank == 0 and h2.torsion == ()
    h3 = homology(Q, 3, Z).invariants
    assert h3.free_rank == 0 and h3.torsion == (3,)


def test_all_variants_against_golden_file():
    golden = load_golden()
    complexes = {}
    for key, want in sorted(golden.items()):
        name, variant, k, coeff = key.split("|")
        k = int(k)
        if (name, variant) not in complexes:
            R = fixture_table(name)
            C = rack_chain_complex(R, 4)
            if variant == "R":
                complexes[(name, variant)] = C
            else:
                D = degenerate_subcomplex(R, C)
                complexes[(name, "D")] = D
                complexes[(name, "Q")] = quandle_quotient_complex(C, D)
        CX = complexes[(name, variant)]
        A = CoefficientGroup.parse(coeff)
        result = homology(CX, k, A)
        assert result.invariants.free_rank == want["free_rank"], key
        assert list(result.invariants.torsion) == want["torsion"], key
        assert result.variant == variant and result.degree == k


def test_cohomology_one_element():
    C = rack_chain_complex(one_element_nrack(2), 4)
    for k in (1, 2, 3):
        inv = cohomology(C, k, Z).invariants
        assert inv.free_rank == 1 and inv.torsion == ()


def test_cohomology_trivial_m2_degree_two():
    C = rack_chain_complex(trivial_nrack(2, 2), 3)
    inv = cohomology(C, 2, Z).invariants
    assert inv.free_rank == 4 and inv.torsion == ()


def test_cohomology_dihedral_quandle_mod3():
    # Universal coefficients dualize the Z/3 in integral H_3: the rank-one
    # Z/3 module shows up in degree 3, and degree 2 is zero.
    R = dihedral_nrack(3)
    C = rack_chain_complex(R, 4)
    Q = quandle_quotient_complex(C, degenerate_subcomplex(R, C))
    A3 = CoefficientGroup(3)
    assert cohomology(Q, 2, A3).invariants.torsion == ()
    got = cohomology(Q, 3, A3).invariants
    assert got.free_rank == 0 and got.torsion == (3,)
    # Integrally the torsion appears one degree above the homology torsion.
    assert cohomology(Q, 3, Z).invariants.torsion == ()


def _transposed_sympy_factors(CX, k):
    dense = boundary_dense(CX, k)
    rows, cols = CX.ranks[k - 1], CX.ranks[k]
    return [int(f) for f in sympy_invariant_factors(Matrix(cols, rows, lambda i, j: dense[j][i]))
            if f != 0]


def test_cohomology_matches_sympy_on_transposed_maps():
    # cohomology reuses the factors of d_k and d_{k+1}; the oracle transposes
    # them first, as the dual complex has it, and factors them with sympy:
    # H^k = ker d_{k+1}^T / im d_k^T.  Degree 4 is included because the
    # first torsion in H^k of dihedral_z3 (Z/3, variants R and Q) is there.
    pairs = sorted({tuple(key.split("|")[:2]) for key in load_golden()})
    assert ("dihedral_z3", "Q") in pairs
    for name, variant in pairs:
        R = fixture_table(name)
        CX = rack_chain_complex(R, 5)
        if variant != "R":
            D = degenerate_subcomplex(R, CX)
            CX = D if variant == "D" else quandle_quotient_complex(CX, D)
        for k in (1, 2, 3, 4):
            leaving = _transposed_sympy_factors(CX, k + 1)
            arriving = _transposed_sympy_factors(CX, k)
            want = (CX.ranks[k] - len(leaving) - len(arriving),
                    tuple(f for f in arriving if f > 1))
            got = cohomology(CX, k, Z).invariants
            assert (got.free_rank, got.torsion) == want, (name, variant, k)


def _complexes_for_the_row_side(case):
    """(label, complex) pairs whose boundary maps the orientation test factors."""
    if case == "order4-R":
        racks = enumerate_nracks(2, 4).representatives
        assert len(racks) == 19
        return [(f"R{i}", rack_chain_complex(FiniteNRack(2, 4, t), 4))
                for i, t in enumerate(racks)]
    if case == "order4-DQ":
        quandles = [FiniteNRack(2, 4, t) for t in enumerate_nracks(2, 4).representatives]
        quandles = [R for R in quandles if classify(R).is_nquandle]
        assert len(quandles) == 7
        out = []
        for i, R in enumerate(quandles):
            C = rack_chain_complex(R, 4)
            D = degenerate_subcomplex(R, C)
            out += [(f"D{i}", D), (f"Q{i}", quandle_quotient_complex(C, D))]
        return out
    if case == "dihedral-R6":
        return [("dihedral", rack_chain_complex(dihedral_nrack(3), 6))]
    if case == "z4n3-R3":
        return [("z4", rack_chain_complex(build_z4_module_nrack(3, 4), 3))]
    return [("one", rack_chain_complex(one_element_nrack(2), 4))]


@pytest.mark.parametrize(
    "case", ["order4-R", "order4-DQ", "dihedral-R6", "z4n3-R3", "one-element"]
)
def test_factors_by_rows_match_the_stored_columns_and_sympy(case):
    # ChainComplex.factors eliminates the rows of d_k (the columns of the
    # coboundary); the oracle factors the stored columns of d_k as given,
    # and sympy factors the dense map where it has at most 81 columns.
    for label, C in _complexes_for_the_row_side(case):
        for k in range(1, C.max_degree + 1):
            got = C.factors(k)
            assert got == sparse_invariant_factors(C.cols[k]), (label, k)
            if C.rank(k) <= 81:
                dense = Matrix(C.rank(k - 1), C.rank(k), lambda i, j: C.cols[k][j].get(i, 0))
                want = tuple(int(f) for f in sympy_invariant_factors(dense) if f != 0)
                assert got == want, (label, k)


def test_mod_p_agrees_with_direct_gaussian_elimination():
    # The Z/d path is universal-coefficient reduction from integral Smith
    # data; cross-check dimensions against plain mod-p row reduction.
    for R in (trivial_nrack(2, 3), dihedral_nrack(3)):
        C = rack_chain_complex(R, 4)
        spaces = {"R": C}
        if classify(R).is_nquandle:
            D = degenerate_subcomplex(R, C)
            spaces["D"] = D
            spaces["Q"] = quandle_quotient_complex(C, D)
        for variant, CX in spaces.items():
            for k in (1, 2, 3):
                for p in (2, 3):
                    inv = homology(CX, k, CoefficientGroup(p)).invariants
                    dim = len(inv.torsion)
                    assert all(d == p for d in inv.torsion)
                    direct = (
                        CX.ranks[k]
                        - _rank_mod_p(boundary_dense(CX, k), p)
                        - _rank_mod_p(boundary_dense(CX, k + 1), p)
                    )
                    assert dim == direct, (variant, k, p)
                    # Over a field, cohomology has the same dimension.
                    co = cohomology(CX, k, CoefficientGroup(p)).invariants
                    assert len(co.torsion) == dim and co.free_rank == 0


# The n-quandles of the censuses (binary of order at most 4, arity 3 of
# order at most 3, arity 4 of order at most 2) and the n-quandle fixtures,
# each with the top degree of its complexes: at most 4, while the chain
# rank stays within 1,000 columns.
UCT_QUANDLES = [
    FiniteNRack(n, m, table)
    for n, top in ((2, 4), (3, 3), (4, 2))
    for m in range(1, top + 1)
    for table in enumerate_nracks(n, m, "n-quandle").representatives
] + [X for _, X in axiom_fixture_set() if classify(X).is_nquandle]


def _uct_top(X: FiniteNRack) -> int:
    M = X.size ** (X.arity - 1)
    top = 2
    while top < 4 and M ** (top + 1) <= 1000:
        top += 1
    return top


def test_universal_coefficient_order_consistency():
    # Whole groups, not only orders, in R, D and Q:
    #   H_k(Z/d) = (Z/d)^b + sum Z/gcd(d, t) + sum Z/gcd(d, u),
    # b the free rank and t the torsion of H_k, u the torsion of H_{k-1}
    # (H_0 = Z); H^k(Z) has the free rank of H_k and the torsion of
    # H_{k-1}; and H^k(Z/d) = H_k(Z/d).
    assert len(UCT_QUANDLES) == 28
    for X in UCT_QUANDLES:
        top = _uct_top(X)
        for variant in "RDQ":
            C = rack_chain_complex(X, top, variant=variant)
            integral = [AbelianGroupInvariants(1, ())] + [
                homology(C, k, Z).invariants for k in range(1, top)
            ]
            for k in range(1, top):
                here, below = integral[k], integral[k - 1]
                assert cohomology(C, k, Z).invariants == AbelianGroupInvariants(
                    here.free_rank, below.torsion), (X, variant, k)
                for d in (2, 3, 4, 6):
                    A = CoefficientGroup(d)
                    orders = [d] * here.free_rank + [gcd(d, t) for t in here.torsion + below.torsion]
                    expected = AbelianGroupInvariants(0, invariants_from_cyclic_orders(orders))
                    assert homology(C, k, A).invariants == expected, (X, variant, k, d)
                    assert cohomology(C, k, A).invariants == expected, (X, variant, k, d)


def test_rank_bookkeeping_against_sympy():
    C = rack_chain_complex(dihedral_nrack(3), 4)
    for k in (2, 3, 4):
        M = boundary_dense(C, k)
        assert len(invariant_factors(M)) == Matrix(M).rank()


@pytest.mark.parametrize(
    "table, variant, expected",
    [
        ("z4(n=3)", "R", {1: (8, ()), 2: (64, ())}),
        ("z4(n=2)", "R", {4: (16, ())}),
        ("dihedral_z3", "R", {5: (1, (3, 3, 3, 3))}),
        ("conj(S3,n=2)", "Q", {3: (12, (3, 3, 3, 3, 9)), 4: (24, (3,) * 12 + (9,) * 5)}),
    ],
)
def test_large_cases(table, variant, expected):
    # Deferred as too slow for the dense Smith form; the largest chain rank
    # here is 4096 (z4, n=3, degree 3).
    R = {
        "z4(n=3)": lambda: build_z4_module_nrack(3, 4),
        "z4(n=2)": lambda: build_z4_module_nrack(2, 4),
        "dihedral_z3": lambda: dihedral_nrack(3),
        "conj(S3,n=2)": lambda: build_conjugation_nrack(symmetric_group(3), 2),
    }[table]()
    C = rack_chain_complex(R, max(expected) + 1)
    if variant == "Q":
        C = quandle_quotient_complex(C, degenerate_subcomplex(R, C))
    for k, (free, torsion) in expected.items():
        inv = homology(C, k, Z).invariants
        assert (inv.free_rank, inv.torsion) == (free, torsion), k


def test_budget_refusal():
    R = build_conjugation_nrack(symmetric_group(3), 3)
    with pytest.raises(BudgetExceededError) as err:
        rack_chain_complex(R, 3)
    assert err.value.reached == 36**3
    rack_chain_complex(R, 2)  # within budget


def test_budget_refused_at_the_first_rank_over_it():
    R = build_z4_module_nrack(3, 4)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            rack_chain_complex(R, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.limit, err.value.reached) == (20000, 16**4)
    assert str(err.value) == "chain rank 65536 in degree 4 exceeds the 20000-column budget"
    assert peak < 2**20


def test_the_quandle_complex_is_charged_its_own_rank():
    # conj(S3) has M = 6; Q_6 has 6 * 5^5 = 18,750 columns, where R_6 has 6^6.
    R = build_conjugation_nrack(symmetric_group(3), 2)
    assert rack_chain_complex(R, 6, budget=18750, variant="Q").ranks[-1] == 18750
    with pytest.raises(BudgetExceededError) as err:
        rack_chain_complex(R, 6, budget=18749, variant="Q")
    assert (err.value.limit, err.value.reached) == (18749, 18750)
    with pytest.raises(BudgetExceededError) as err:
        rack_chain_complex(R, 6, budget=18750)
    assert err.value.reached == 6**6


# x o y = y on two elements: Q has rank 2 in every degree, and H_k = Z^2
# for its two orbits.
TWO_ELEMENT_QUANDLE = FiniteNRack(2, 2, [0, 1, 0, 1])


def _peak_of_long_quandle_complex(top):
    tracemalloc.start()
    try:
        C = rack_chain_complex(TWO_ELEMENT_QUANDLE, top, variant="Q")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert C.ranks == [1] + [2] * top
    return peak


def test_a_long_quandle_complex_is_built_in_memory_linear_in_the_degrees():
    # Four times the degrees may take about four times the memory, and no
    # more: nothing kept per chain may grow with its degree.
    small, large = (_peak_of_long_quandle_complex(top) for top in (5000, 20000))
    assert large < 6 * small, (small, large)


def test_a_long_quandle_complex_is_built_in_time_linear_in_the_degrees():
    start = time.perf_counter()
    C = rack_chain_complex(TWO_ELEMENT_QUANDLE, 100000, variant="Q")
    assert C.max_degree == 100000
    assert time.perf_counter() - start < 10


def test_a_high_degree_may_be_asked_for_before_the_degrees_below_it():
    # Each map is factored after the one below it, without recursion.
    C = rack_chain_complex(TWO_ELEMENT_QUANDLE, 3000, variant="Q")
    assert homology(C, 2999).invariants.free_rank == 2
    assert len(C._factors) == 3000


def test_an_unknown_variant_is_refused_with_value_error():
    # The complex of the one-element rack to degree 2, as one block.
    blocks = [([[{}], [{}], [{}]], [[0]], {})]
    assert ChainComplex(FiniteRack(1, (0,)), blocks, "R", 1).factors(2) == ()
    with pytest.raises(ValueError, match="unknown complex variant 'X'"):
        ChainComplex(FiniteRack(1, (0,)), blocks, "X", 1)


def test_triplet_export_format():
    C = rack_chain_complex(dihedral_nrack(3), 2)
    text = C.boundary_triplets(2)
    lines = text.strip().split("\n")
    assert lines[0] == "3 9"
    for line in lines[1:]:
        i, j, v = line.split()
        assert 0 <= int(i) < 3 and 0 <= int(j) < 9 and int(v) != 0
    # Degree-one boundary is the zero map.
    assert rack_chain_complex(dihedral_nrack(3), 1).boundary_triplets(1) == "1 3\n"


def test_chain_complex_requires_valid_nrack():
    with pytest.raises(ValueError, match="witness"):
        rack_chain_complex(FiniteNRack(2, 2, (0, 1, 1, 0)), 2)


def test_n3_rack_complex_matches_reduced_rack_pipeline():
    # The complex of an n-rack is the complex of its reduced rack viewed
    # as a 2-rack.
    R = build_z4_module_nrack(3, 4)
    C = rack_chain_complex(R, 2)
    rows = reduced_rack_table(R)
    flat = tuple(v for row in rows for v in row)
    C2 = rack_chain_complex(FiniteNRack(2, 16, flat), 2)
    assert C.ranks == C2.ranks
    assert C.cols == C2.cols


def test_n2_pipeline_matches_cjkls_oracle_on_small_racks():
    from oracle_enumeration import brute_force_enumerate

    for m in (1, 2, 3):
        _, classes = brute_force_enumerate(2, m, "nrack")
        for table in classes:
            R = FiniteNRack(2, m, table)
            rows = [list(table[i * m : (i + 1) * m]) for i in range(m)]
            C = rack_chain_complex(R, 4)
            spaces = {"R": C}
            if classify(R).is_nquandle:
                D = degenerate_subcomplex(R, C)
                spaces["D"] = D
                spaces["Q"] = quandle_quotient_complex(C, D)
            for variant, CX in spaces.items():
                for k in (1, 2, 3):
                    for mod in (0, 2, 3):
                        A = Z if mod == 0 else CoefficientGroup(mod)
                        inv = homology(CX, k, A).invariants
                        free, tor = rack_homology_oracle(rows, variant, k, mod)
                        assert (inv.free_rank, inv.torsion) == (free, tor), (
                            table,
                            variant,
                            k,
                            mod,
                        )
