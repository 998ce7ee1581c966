import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dihedral_nrack, one_element_nrack, shift_nrack, trivial_nrack
from nracks import (
    AxiomError,
    FiniteNRack,
    FiniteRack,
    associated_group_presentation,
    build_conjugation_nrack,
    build_z4_module_nrack,
    check_inner_is_automorphism,
    check_left_distributive,
    check_pointed,
    check_translation_bijective,
    classify,
    degenerate_subcomplex,
    find_isomorphism,
    inner_map,
    is_homomorphism,
    lift_rack_to_nrack,
    orbits,
    rack_chain_complex,
    reduce_nrack_to_rack,
    symmetric_group,
    validate,
)


def z4_3rack():
    return build_z4_module_nrack(3, 4)


def conj_s3(n=3):
    return build_conjugation_nrack(symmetric_group(3), n)


def test_table_shape_validation():
    with pytest.raises(ValueError):
        FiniteNRack(2, 2, (0, 1, 2, 1))
    with pytest.raises(ValueError):
        FiniteNRack(2, 2, (0, 1, 1))
    with pytest.raises(ValueError):
        FiniteNRack(1, 2, (0, 1))
    with pytest.raises(ValueError):
        FiniteNRack(2, 2, (0, 1, 1, 0), basepoint=5)


def test_table_size_checked_without_forming_the_power():
    with pytest.raises(ValueError, match=r"table has 7 entries, too few for size\*\*arity = 2\*\*3"):
        FiniteNRack(3, 2, (0,) * 7)
    with pytest.raises(ValueError, match="table has 9 entries, expected 8"):
        FiniteNRack(3, 2, (0,) * 9)
    with pytest.raises(ValueError, match="table has 0 entries, too few"):
        FiniteNRack(10**9, 1, ())
    assert FiniteNRack(10**9, 1, (0,)).size == 1


def test_astronomical_arity_rejected_at_once(tmp_path):
    # 3**30000000 has over 14 million digits.  A child that forms it hangs,
    # so it runs in a subprocess whose timeout fails this test instead.
    path = tmp_path / "huge.json"
    path.write_text('{"arity": 30000000, "size": 3, "table": []}')
    result = subprocess.run(
        [sys.executable, "-m", "nracks.cli", "check", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert result.returncode == 2
    assert result.stderr == (
        "input error: table has 0 entries, too few for size**arity = 3**30000000\n"
    )


def test_z4_three_rack_left_distributive():
    ok, witness = check_left_distributive(z4_3rack())
    assert ok and witness is None


def test_one_element_left_distributive_any_arity():
    for n in (2, 3, 4):
        ok, _ = check_left_distributive(one_element_nrack(n))
        assert ok


def test_mod2_addition_counterexample():
    # x o y = x + y mod 2: first violation at x=1, (y1,y2)=(0,0):
    # 1 o (0 o 0) = 1 but (1 o 0) o (1 o 0) = 0.
    bad = FiniteNRack(2, 2, (0, 1, 1, 0))
    ok, witness = check_left_distributive(bad)
    assert not ok
    assert witness == ((1,), (0, 0))


def test_z4_translation_bijective():
    ok, _ = check_translation_bijective(z4_3rack())
    assert ok


def test_constant_table_not_bijective():
    const = FiniteNRack(3, 2, (0,) * 8)
    ok, prefix = check_translation_bijective(const)
    assert not ok
    assert prefix == (0, 0)


def test_conjugation_s3_translation_bijective():
    ok, _ = check_translation_bijective(conj_s3())
    assert ok


def test_pointed_conjugation_s3():
    assert check_pointed(conj_s3())


def test_pointed_one_element():
    assert check_pointed(one_element_nrack(3))


def test_z4_with_basepoint_zero_not_pointed():
    # [x1,x2,0] = 2x1 + 2x2, nonzero at (1,0).
    R = FiniteNRack(3, 4, z4_3rack().table, basepoint=0)
    assert not check_pointed(R)


def test_check_pointed_requires_basepoint():
    with pytest.raises(ValueError):
        check_pointed(z4_3rack())


def test_classify_z4_weak_kei():
    flags = classify(z4_3rack())
    assert flags.is_nrack
    assert flags.is_weak_nquandle
    assert flags.is_weak_nkei
    assert not flags.is_nquandle
    assert not flags.is_nkei
    assert flags.is_pointed is None


def test_classify_z4_even_arity_not_weak_quandle():
    # n=4: [x,x,x,x] = 7x = 3x mod 4, not x at x=1.
    flags = classify(build_z4_module_nrack(4, 4))
    assert flags.is_nrack and not flags.is_weak_nquandle and not flags.is_weak_nkei


def test_classify_conjugation_s3():
    flags = classify(conj_s3())
    assert flags.is_nrack and flags.is_pointed and flags.is_weak_nquandle
    assert not flags.is_nquandle


def test_classify_one_element_all_flags():
    flags = classify(one_element_nrack(3))
    assert flags == classify(one_element_nrack(3))
    assert all(
        [
            flags.is_nrack,
            flags.is_pointed,
            flags.is_weak_nquandle,
            flags.is_nquandle,
            flags.is_weak_nkei,
            flags.is_nkei,
        ]
    )


def test_classify_non_rack_all_flags_false():
    flags = classify(FiniteNRack(2, 2, (0, 0, 0, 0), basepoint=0))
    assert flags.is_pointed is False
    assert not any(
        [
            flags.is_nrack,
            flags.is_weak_nquandle,
            flags.is_nquandle,
            flags.is_weak_nkei,
            flags.is_nkei,
        ]
    )


def _tables(n, m):
    return st.tuples(*[st.integers(0, m - 1)] * (m**n)).map(
        lambda t: FiniteNRack(n, m, t)
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(_tables(2, 2), _tables(2, 3), _tables(3, 2)))
def test_classification_implications_hold_on_arbitrary_tables(R):
    flags = classify(R)
    if flags.is_nquandle:
        assert flags.is_weak_nquandle
    if flags.is_nkei:
        assert flags.is_nquandle
    if flags.is_weak_nkei:
        assert flags.is_weak_nquandle
    for other in (flags.is_weak_nquandle, flags.is_nquandle, flags.is_weak_nkei, flags.is_nkei):
        if other:
            assert flags.is_nrack


@settings(max_examples=150, deadline=None)
@given(_tables(2, 3))
def test_first_distributivity_witness_is_lexicographic(R):
    ok, witness = check_left_distributive(R)
    # Naive rescan: first (xs, ys) in lexicographic order that violates.
    first = None
    for xs in product(range(3), repeat=1):
        for ys in product(range(3), repeat=2):
            lhs = R.bracket(*xs, R.bracket(*ys))
            rhs = R.bracket(*(R.bracket(*xs, y) for y in ys))
            if lhs != rhs:
                first = (xs, ys)
                break
        if first:
            break
    assert witness == first
    assert ok == (first is None)


def test_is_homomorphism_identity():
    R = z4_3rack()
    assert is_homomorphism(list(range(4)), R, R)


def test_is_homomorphism_multiplication_by_unit():
    R = z4_3rack()
    assert is_homomorphism([(3 * x) % 4 for x in range(4)], R, R)


def test_is_homomorphism_transposition_is_not():
    # Swapping 0 and 1: image of [0,0,0] = 0 is 1, but [1,1,0] = 0.
    R = z4_3rack()
    assert not is_homomorphism([1, 0, 2, 3], R, R)


def test_constant_map_into_shift_rack_fails():
    # The shift rack has no idempotent element, so no constant map works.
    src = trivial_nrack(2, 2)
    dst = shift_nrack(2)
    assert not is_homomorphism([0, 0], src, dst)
    # Constant maps into a quandle always work: the diagonal is idempotent.
    assert is_homomorphism([0, 0, 0], dihedral_nrack(3), dihedral_nrack(3))


def test_is_homomorphism_arity_mismatch():
    with pytest.raises(ValueError):
        is_homomorphism([0], one_element_nrack(2), one_element_nrack(3))


def test_pointed_homomorphism_variant():
    R = conj_s3()
    assert is_homomorphism(list(range(6)), R, R, pointed=True)
    moved = FiniteNRack(R.arity, R.size, R.table, basepoint=1)
    assert not is_homomorphism(list(range(6)), R, moved, pointed=True)


def test_find_isomorphism_self():
    R = z4_3rack()
    f = find_isomorphism(R, R)
    assert f == (0, 1, 2, 3)


def test_find_isomorphism_size_mismatch():
    assert find_isomorphism(z4_3rack(), one_element_nrack(3)) is None


def test_find_isomorphism_trivial_vs_shift():
    assert find_isomorphism(trivial_nrack(2, 2), shift_nrack(2)) is None


def test_find_isomorphism_result_is_bijective_homomorphism():
    # Relabel the dihedral quandle by a nontrivial permutation and recover
    # an isomorphism.
    R = dihedral_nrack(3)
    sigma = (2, 0, 1)
    table = [0] * 9
    for x in range(3):
        for y in range(3):
            table[sigma[x] * 3 + sigma[y]] = sigma[R.bracket(x, y)]
    S = FiniteNRack(2, 3, tuple(table))
    f = find_isomorphism(R, S)
    assert f is not None
    assert sorted(f) == [0, 1, 2]
    assert is_homomorphism(f, R, S)


def test_inner_map_z4_examples():
    R = z4_3rack()
    assert inner_map(R, (0, 0)).permutation == (0, 1, 2, 3)
    # args (1,0): y -> 2 + y mod 4, the double transposition (0 2)(1 3).
    assert inner_map(R, (1, 0)).permutation == (2, 3, 0, 1)


def test_inner_map_conjugation_by_group_element():
    G = symmetric_group(3)
    R = conj_s3()
    e = G.identity
    for g in range(6):
        perm = inner_map(R, (g, e)).permutation
        assert perm == tuple(G.mul(G.mul(g, h), G.inv(g)) for h in range(6))


def test_inner_map_invalid_argument():
    with pytest.raises(ValueError):
        inner_map(z4_3rack(), (0, 9))
    with pytest.raises(ValueError):
        inner_map(z4_3rack(), (0,))


def test_inner_maps_are_automorphisms_z4():
    R = z4_3rack()
    assert all(check_inner_is_automorphism(R, xs) for xs in R.prefixes())


def test_inner_maps_are_automorphisms_conj_s3():
    R = conj_s3()
    assert all(check_inner_is_automorphism(R, xs) for xs in R.prefixes())


def test_inner_maps_are_automorphisms_one_element():
    R = one_element_nrack(4)
    assert all(check_inner_is_automorphism(R, xs) for xs in R.prefixes())


def test_inner_composition_identity():
    # phi(x) . phi(y) = phi(phi(x)(y_1),...,phi(x)(y_{n-1})) . phi(x)
    for R in (z4_3rack(), dihedral_nrack(3), trivial_nrack(3, 2), conj_s3(2)):
        for xs in R.prefixes():
            phi_x = inner_map(R, xs).permutation
            for ys in R.prefixes():
                phi_y = inner_map(R, ys).permutation
                mapped = tuple(phi_x[y] for y in ys)
                phi_m = inner_map(R, mapped).permutation
                lhs = tuple(phi_x[phi_y[v]] for v in range(R.size))
                rhs = tuple(phi_m[phi_x[v]] for v in range(R.size))
                assert lhs == rhs


def test_orbits_trivial_rack_singletons():
    assert orbits(trivial_nrack(3, 4)) == [[0], [1], [2], [3]]


def test_orbits_z4():
    assert orbits(z4_3rack()) == [[0, 2], [1, 3]]


def test_orbits_conjugation_s3_are_conjugacy_classes():
    sizes = sorted(len(o) for o in orbits(conj_s3()))
    assert sizes == [1, 2, 3]


def test_validator_deterministic():
    bad = FiniteNRack(2, 2, (0, 1, 1, 0))
    assert validate(bad) == validate(bad)
    assert classify(bad) == classify(bad)


# Each library operation that needs an n-rack, or an n-quandle, on a table
# X, with the message of its refusal.  MOD2 has bijective rows but is not
# left distributive; z4_3rack() is a 3-rack that is not a 3-quandle.
MOD2 = FiniteRack(2, (0, 1, 1, 0))
NOT_A_RACK = "requires a valid n-rack; distributivity witness ((1,), (0, 0)), bijectivity witness None"
GATES = [
    ("chain", MOD2, lambda X: rack_chain_complex(X, 2), "chain complex " + NOT_A_RACK),
    ("quandle", MOD2, lambda X: rack_chain_complex(X, 2, variant="Q"),
     "quandle complex " + NOT_A_RACK),
    ("quandle-z4", z4_3rack(), lambda X: rack_chain_complex(X, 2, variant="Q"),
     "quandle complex requires an n-quandle"),
    ("degenerate", MOD2,
     lambda X: degenerate_subcomplex(X, rack_chain_complex(trivial_nrack(2, 2), 2)),
     "degenerate subcomplex " + NOT_A_RACK),
    ("degenerate-z4", z4_3rack(),
     lambda X: degenerate_subcomplex(X, rack_chain_complex(X, 2)),
     "degenerate subcomplex requires an n-quandle"),
    ("lift", MOD2, lambda X: lift_rack_to_nrack(X, 3), "lift " + NOT_A_RACK),
    ("reduce", MOD2, reduce_nrack_to_rack, "reduce " + NOT_A_RACK),
    ("associated-group", MOD2, associated_group_presentation, "associated group " + NOT_A_RACK),
]


@pytest.mark.parametrize("X, call, message", [g[1:] for g in GATES], ids=[g[0] for g in GATES])
def test_each_gate_refuses_with_the_tables_report(X, call, message):
    with pytest.raises(AxiomError) as err:
        call(X)
    assert isinstance(err.value, ValueError)
    assert str(err.value) == message
    # The validator's report, flags and witnesses alike.
    assert err.value.report == validate(X)
