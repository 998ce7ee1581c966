from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RATIONALS
from oracle_verify import structure_vector
from nracks import (
    LeibnizNAlgebra,
    LinearOperator,
    adjoint,
    bracket,
    check_derivation,
    check_filippov,
    check_fundamental_identity,
    check_self_derivation,
    levi_civita_nalgebra,
)
from nracks.jsonio import tensor_from_json, tensor_to_json
from nracks.leibniz import check_multilinearity_sample


def basis(d, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(d))


def nambu():
    return levi_civita_nalgebra(4)


def zero_algebra(d=3, n=3):
    return LeibnizNAlgebra(d, n, {})


def sl2():
    # [e,f] = h, [h,e] = 2e, [h,f] = -2f, extended antisymmetrically;
    # basis order e=0, f=1, h=2.
    return LeibnizNAlgebra.from_entries(
        3,
        2,
        [
            ((0, 1), 2, 1),
            ((1, 0), 2, -1),
            ((2, 0), 0, 2),
            ((0, 2), 0, -2),
            ((2, 1), 1, -2),
            ((1, 2), 1, 2),
        ],
    )


def mutant(L, index, factor=2):
    """Scale the index-th stored entry (lexicographic argument order)."""
    args = sorted(L.constants)[index]
    constants = dict(L.constants)
    constants[args] = tuple(factor * v for v in constants[args])
    return LeibnizNAlgebra(L.dimension, L.arity, constants)


def test_tensor_validation():
    with pytest.raises(ValueError):
        LeibnizNAlgebra(0, 2, {})
    with pytest.raises(ValueError):
        LeibnizNAlgebra(2, 1, {})
    with pytest.raises(ValueError):
        LeibnizNAlgebra(2, 2, {(0, 5): (1, 0)})
    with pytest.raises(ValueError):
        LeibnizNAlgebra(2, 2, {(0, 0): (1,)})


def test_bracket_zero_algebra():
    L = zero_algebra()
    v = (Fraction(1), Fraction(2), Fraction(3))
    assert bracket(L, v, v, v) == (Fraction(0),) * 3


def test_bracket_nambu_basis():
    L = nambu()
    assert bracket(L, basis(4, 0), basis(4, 1), basis(4, 2)) == basis(4, 3)
    assert bracket(L, basis(4, 0), basis(4, 2), basis(4, 1)) == tuple(
        -v for v in basis(4, 3)
    )


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(nambu(), basis(3, 0), basis(4, 1), basis(4, 2))
    with pytest.raises(ValueError):
        bracket(nambu(), basis(4, 0), basis(4, 1))


def test_bracket_multilinearity_seeded_probe():
    assert check_multilinearity_sample(nambu(), trials=30, seed=0)
    assert check_multilinearity_sample(sl2(), trials=30, seed=1)


def test_fundamental_identity_zero_and_nambu():
    assert check_fundamental_identity(zero_algebra())[0]
    assert check_fundamental_identity(nambu())[0]


def test_fundamental_identity_mutant_fails_with_witness():
    M = mutant(nambu(), 0)
    ok, witness = check_fundamental_identity(M)
    assert not ok
    xs, ys, lhs, rhs = witness
    assert len(xs) == 2 and len(ys) == 3
    assert lhs != rhs
    # The reported witness is the lexicographically first violation.
    first = None
    d, n = M.dimension, M.arity
    for cand_xs in product(range(d), repeat=n - 1):
        for cand_ys in product(range(d), repeat=n):
            ad = [structure_vector(M, cand_xs + (j,)) for j in range(d)]
            inner = structure_vector(M, cand_ys)
            lhs2 = [sum(inner[j] * ad[j][i] for j in range(d)) for i in range(d)]
            rhs2 = [Fraction(0)] * d
            for pos in range(n):
                z = ad[cand_ys[pos]]
                for j in range(d):
                    term = structure_vector(M, cand_ys[:pos] + (j,) + cand_ys[pos + 1 :])
                    for i in range(d):
                        rhs2[i] += z[j] * term[i]
            if lhs2 != rhs2:
                first = (cand_xs, cand_ys)
                break
        if first:
            break
    assert (xs, ys) == first


def test_twenty_mutants_fail_and_agree_with_self_derivation():
    L = nambu()
    for index in range(20):
        M = mutant(L, index)
        ok, witness = check_fundamental_identity(M)
        assert not ok and witness is not None
        assert check_self_derivation(M) is False


def test_filippov_nambu_and_zero():
    assert check_filippov(nambu())
    assert check_filippov(zero_algebra())


def test_leibniz_but_not_filippov():
    L = LeibnizNAlgebra.from_entries(2, 2, [((0, 0), 1, 1)])
    assert check_fundamental_identity(L)[0]
    assert not check_filippov(L)


@pytest.mark.parametrize("out", [-1, 2])
def test_from_entries_refuses_an_output_index_out_of_range(out):
    # -1 would store the value at index 1, and 2 would fail as an IndexError.
    with pytest.raises(ValueError, match=f"^output index {out} out of range$"):
        LeibnizNAlgebra.from_entries(2, 2, [((0, 1), out, 1)])


def test_filippov_implies_vanishing_on_repeats():
    L = nambu()
    for args in product(range(4), repeat=3):
        if len(set(args)) < 3:
            assert structure_vector(L, args) == (Fraction(0),) * 4


def test_derivation_zero_operator():
    assert check_derivation(nambu(), LinearOperator(((0,) * 4,) * 4))


def test_derivation_identity_fails_for_ternary_bracket():
    ident = LinearOperator(
        tuple(tuple(Fraction(1 if i == j else 0) for j in range(4)) for i in range(4))
    )
    assert not check_derivation(nambu(), ident)


def test_adjoint_matrix_nambu():
    op = adjoint(nambu(), basis(4, 0), basis(4, 1))
    # e3 -> e4, e4 -> -e3 in one-based labels; zero on e1, e2.
    expected = [
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]
    assert [[int(v) for v in row] for row in op.matrix] == expected
    assert check_derivation(nambu(), op)


def test_adjoint_of_zero_vectors():
    z = (Fraction(0),) * 4
    assert adjoint(nambu(), z, z).matrix == LinearOperator(((0,) * 4,) * 4).matrix


def test_adjoint_on_zero_algebra():
    L = zero_algebra()
    assert adjoint(L, basis(3, 0), basis(3, 1)).matrix == LinearOperator(((0,) * 3,) * 3).matrix


def test_self_derivation_nambu_and_zero():
    assert check_self_derivation(nambu())
    assert check_self_derivation(zero_algebra())


def test_sl2_is_lie_algebra():
    L = sl2()
    assert check_fundamental_identity(L)[0]
    assert check_filippov(L)
    assert check_self_derivation(L)
    # Jacobi via antisymmetry: [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 on basis.
    for x, y, z in product(range(3), repeat=3):
        total = [Fraction(0)] * 3
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            inner = structure_vector(L, (b, c))
            for j in range(3):
                term = structure_vector(L, (a, j))
                for i in range(3):
                    total[i] += inner[j] * term[i]
        assert all(v == 0 for v in total)


def _random_tensors(values=st.integers(-2, 2)):
    return st.lists(
        st.tuples(
            st.tuples(st.integers(0, 1), st.integers(0, 1)),
            st.integers(0, 1),
            values,
        ),
        max_size=6,
    ).map(lambda entries: LeibnizNAlgebra.from_entries(2, 2, entries))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_random_tensors(), _random_tensors(RATIONALS)))
def test_self_derivation_equals_fundamental_identity(L):
    assert check_self_derivation(L) == check_fundamental_identity(L)[0]


@settings(max_examples=30, deadline=None)
@given(_random_tensors(), st.integers(0, 2**16))
def test_basis_identity_extends_to_random_vectors(L, seed):
    ok, _ = check_fundamental_identity(L)
    if not ok:
        return
    import random

    rng = random.Random(seed)

    def vec():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))

    for _ in range(5):
        xs = [vec() for _ in range(1)]
        ys = [vec() for _ in range(2)]
        lhs = bracket(L, xs[0], bracket(L, *ys))
        rhs = [Fraction(0)] * 2
        for i in range(2):
            inner = bracket(L, xs[0], ys[i])
            args = list(ys)
            args[i] = inner
            term = bracket(L, *args)
            for j in range(2):
                rhs[j] += term[j]
        assert list(lhs) == rhs


def test_tensor_json_round_trip():
    L = nambu()
    doc = tensor_to_json(L)
    back = tensor_from_json(doc)
    assert back.dimension == L.dimension and back.arity == L.arity
    assert back.constants == L.constants
    # Fractional values survive.
    M = LeibnizNAlgebra.from_entries(2, 2, [((0, 1), 0, Fraction(3, 4))])
    assert tensor_from_json(tensor_to_json(M)).constants == M.constants


def test_tensor_json_validation():
    with pytest.raises(ValueError):
        tensor_from_json({"dimension": 2, "arity": 2})
    with pytest.raises(ValueError):
        tensor_from_json(
            {
                "dimension": 2,
                "arity": 2,
                "constants": [{"args": [0, 0], "out": 5, "value": "1"}],
            }
        )
    with pytest.raises(ValueError):
        tensor_from_json(
            {
                "dimension": 2,
                "arity": 2,
                "constants": [{"args": [0, 0], "out": 0, "value": "1/0"}],
            }
        )
