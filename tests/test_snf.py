import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from helpers import dihedral_nrack
from nracks import AbelianGroupInvariants, invariant_factors, rack_chain_complex, smith_normal_form
from nracks.snf import (
    _assert_product,
    determinant,
    group_from_diagonal,
    invariants_from_cyclic_orders,
)


def diagonal(S):
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


def test_diag_2_3_gives_1_6():
    _, S, _ = smith_normal_form([[2, 0], [0, 3]])
    assert diagonal(S) == [1, 6]


def test_zero_matrix_keeps_identity_transforms():
    U, S, V = smith_normal_form([[0] * 3 for _ in range(3)])
    assert S == [[0] * 3 for _ in range(3)]
    assert U == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert V == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_2468_invariant_factors():
    # gcd of entries 2, |det| = 8, so factors (2, 4).
    assert invariant_factors([[2, 4], [6, 8]]) == (2, 4)


def test_empty_shapes():
    assert invariant_factors([]) == ()
    assert invariant_factors([[], []]) == ()
    U, S, V = smith_normal_form([[5]])
    assert S == [[5]]


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
    U, S, V = smith_normal_form(M)
    rows, cols = len(M), len(M[0])
    # S = U*M*V, recomputed here by naive multiplication.
    UM = [[sum(U[i][k] * M[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
    UMV = [[sum(UM[i][k] * V[k][j] for k in range(cols)) for j in range(cols)] for i in range(rows)]
    assert UMV == S
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
    # U, V unimodular (fraction-free determinant).
    assert determinant(U) in (1, -1)
    assert determinant(V) in (1, -1)
    # Invariant factors agree with an independent implementation.
    ours = tuple(x for x in d if x != 0)
    theirs = tuple(int(x) for x in sympy_invariant_factors(Matrix(M)) if x != 0)
    assert ours == theirs


@pytest.mark.parametrize(
    "M",
    [
        [[2, 4, 6, 8, 1], [3, 0, -3, 5, 2], [1, 1, 1, 1, 1], [0, 6, 3, 9, 12]],
        rack_chain_complex(dihedral_nrack(3), 3).boundary_dense(3),
    ],
    ids=["dense", "dihedral-d3"],
)
def test_product_check_catches_any_changed_entry_of_S(M):
    U, S, V = smith_normal_form(M)
    _assert_product(U, M, V, S)
    for i, row in enumerate(S):
        for j in range(len(row)):
            changed = [list(r) for r in S]
            changed[i][j] += 1
            with pytest.raises(AssertionError, match="verification failed"):
                _assert_product(U, M, V, changed)


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


def test_group_from_diagonal():
    inv = group_from_diagonal((1, 1, 2, 6), ambient_rank=6)
    assert inv.free_rank == 2
    assert inv.torsion == (2, 6)
    assert inv.order is None
    assert group_from_diagonal((2,), 1).order == 2


def test_abelian_invariants_validation():
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (3, 2))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(-1, ())
    assert AbelianGroupInvariants(0, (2, 4)).order == 8
