import json
import os
import random
import subprocess
import sys
from itertools import product

import pytest

import nracks.constructions
from helpers import axiom_fixture_set, dihedral_nrack, one_element_nrack, trivial_nrack
from nracks import (
    BudgetExceededError,
    ConstructionError,
    FiniteGroup,
    FiniteNRack,
    FiniteRack,
    GroupModule,
    GroupPresentation,
    abelianization,
    associated_group_presentation,
    build_conjugation_nrack,
    build_gamma_module_nrack,
    build_module_group_nrack,
    build_z4_module_nrack,
    check_relator_preservation,
    classify,
    cyclic_group,
    dihedral_group,
    enumerate_nracks,
    find_isomorphism,
    is_homomorphism,
    lift_rack_to_nrack,
    reduce_nrack_to_rack,
    symmetric_group,
    validate,
    validate_rack,
)
from nracks.cli import main
from nracks.constructions import (
    TABLE_BUDGET,
    _relator_word,
    check_antisymmetric_bracket,
    evaluate_word,
    free_reduce,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "assoc_group.json")


def test_group_law_validation():
    cyclic_group(5)
    symmetric_group(3)
    dihedral_group(4)
    with pytest.raises(ValueError):
        FiniteGroup(2, (0, 1, 1, 1), 0)  # 1*1 = 1 has no inverse... and fails identity
    with pytest.raises(ValueError):
        FiniteGroup(2, (0, 1, 1, 0), 1)  # wrong identity index


def test_symmetric_group_s3_structure():
    G = symmetric_group(3)
    assert G.size == 6
    assert not G.is_abelian()
    orders = sorted(
        next(k for k in range(1, 7) if _power(G, g, k) == G.identity) for g in range(6)
    )
    assert orders == [1, 2, 2, 2, 3, 3]


def _power(G, g, k):
    acc = G.identity
    for _ in range(k):
        acc = G.mul(acc, g)
    return acc


def test_dihedral_group_d4():
    G = dihedral_group(4)
    assert G.size == 8 and not G.is_abelian()


def test_z4_nrack_matches_formula():
    for n in (2, 3, 4):
        R = build_z4_module_nrack(n, 4)
        for xs in product(range(4), repeat=n):
            assert R.bracket(*xs) == (2 * sum(xs[:-1]) + xs[-1]) % 4
        assert validate(R).is_nrack


def test_z4_small_moduli_validate():
    for m in (1, 2, 4):
        for n in (2, 3):
            assert validate(build_z4_module_nrack(n, m)).is_nrack


def test_z4_rejects_modulus_without_z4_structure():
    with pytest.raises(ConstructionError, match="4 = 0"):
        build_z4_module_nrack(3, 8)
    with pytest.raises(ConstructionError, match="4 = 0"):
        build_z4_module_nrack(2, 3)


def test_gamma_coincides_with_z4():
    for n in (2, 3, 4):
        assert build_gamma_module_nrack(n, 4, 1, 2).table == build_z4_module_nrack(n, 4).table


def test_gamma_alexander_fixture():
    # s = 1 - t mod 5: the Alexander-type quandle; 9 + 9 = 18 = 3 (mod 5).
    R = build_gamma_module_nrack(2, 5, 3, 3)
    flags = classify(R)
    assert flags.is_nrack and flags.is_nquandle


def test_gamma_rejects_broken_relation():
    with pytest.raises(ConstructionError, match=r"s\^2 \+ t\*s - s"):
        build_gamma_module_nrack(3, 5, 3, 1)


def test_gamma_rejects_nonunit_t():
    with pytest.raises(ConstructionError, match="not a unit"):
        build_gamma_module_nrack(2, 4, 2, 0)


def test_gamma_rejects_higher_arity_without_vanishing_s_squared():
    # (t, s) = (3, 3) mod 5 satisfies the twisted-module relation but
    # (n-2)*s^2 = 9 != 0 mod 5, and the n=3 table is indeed not
    # distributive; the constructor must refuse it.
    with pytest.raises(ConstructionError, match=r"\(n-2\)\*s\^2"):
        build_gamma_module_nrack(3, 5, 3, 3)
    table = tuple(
        (3 * (x1 + x2) + 3 * x3) % 5 for x1, x2, x3 in product(range(5), repeat=3)
    )
    ok, _ = __import__("nracks").check_left_distributive(FiniteNRack(3, 5, table))
    assert not ok


def test_conjugation_nracks_validate_and_point():
    for G in (cyclic_group(2), cyclic_group(4), symmetric_group(3), dihedral_group(4)):
        for n in (2, 3):
            R = build_conjugation_nrack(G, n)
            flags = classify(R)
            assert flags.is_nrack and flags.is_pointed and flags.is_weak_nquandle


def test_conjugation_abelian_group_is_trivial_nrack():
    R = build_conjugation_nrack(cyclic_group(2), 3)
    assert R.table == trivial_nrack(3, 2).table
    flags = classify(R)
    assert flags.is_nquandle and flags.is_nkei


def test_conjugation_s3_binary_matches_hand_table():
    G = symmetric_group(3)
    R = build_conjugation_nrack(G, 2)
    for x in range(6):
        for y in range(6):
            assert R.bracket(x, y) == G.mul(G.mul(x, y), G.inv(x))


def test_lift_trivial_rack():
    Q = FiniteRack(3, tuple(y for x in range(3) for y in range(3)))
    R = lift_rack_to_nrack(Q, 3)
    assert all(R.bracket(a, b, c) == c for a, b, c in product(range(3), repeat=3))


def test_lift_dihedral_formula():
    Q = FiniteRack(3, tuple((2 * x - y) % 3 for x in range(3) for y in range(3)))
    R = lift_rack_to_nrack(Q, 3)
    assert validate(R).is_nrack
    for a, b, c in product(range(3), repeat=3):
        assert R.bracket(a, b, c) == (2 * a - 2 * b + c) % 3


def test_lift_z4_two_rack_gives_z4_three_rack():
    Q = FiniteRack.from_nrack(build_z4_module_nrack(2, 4))
    assert lift_rack_to_nrack(Q, 3).table == build_z4_module_nrack(3, 4).table


def test_lift_arity_two_is_identity():
    Q = FiniteRack.from_nrack(dihedral_nrack(3))
    assert lift_rack_to_nrack(Q, 2).table == Q.table


def test_lift_functoriality():
    # A rack homomorphism stays a homomorphism of the lifted n-racks.
    Q = FiniteRack.from_nrack(build_z4_module_nrack(2, 4))
    f = [(3 * x) % 4 for x in range(4)]
    assert is_homomorphism(f, Q, Q)
    for n in (3, 4):
        L = lift_rack_to_nrack(Q, n)
        assert is_homomorphism(f, L, L)


def test_lift_rejects_non_rack():
    with pytest.raises(ValueError):
        lift_rack_to_nrack(FiniteRack(2, (0, 1, 1, 0)), 3)


def test_reduce_one_element():
    R = reduce_nrack_to_rack(one_element_nrack(3))
    assert R.size == 1 and R.basepoint == 0


def test_reduce_z4_three_rack():
    rack = reduce_nrack_to_rack(build_z4_module_nrack(3, 4))
    assert rack.size == 16
    assert validate_rack(rack).is_nrack
    # Spot check against the defining formula: tuple (x1,x2) o (y1,y2)
    # = (2x1+2x2+y1, 2x1+2x2+y2) with index 4*first + second.
    for x1, x2, y1, y2 in product(range(4), repeat=4):
        got = rack.bracket(x1 * 4 + x2, y1 * 4 + y2)
        t = (2 * x1 + 2 * x2) % 4
        assert got == ((t + y1) % 4) * 4 + (t + y2) % 4


def test_reduce_two_rack_is_identity():
    R = build_z4_module_nrack(2, 4)
    assert reduce_nrack_to_rack(R).table == R.table


def test_reduce_pointed_at_diagonal_basepoint():
    R = build_conjugation_nrack(symmetric_group(3), 3)
    rack = reduce_nrack_to_rack(R)
    assert rack.basepoint == R.basepoint * 6 + R.basepoint
    flags = validate_rack(rack).classification
    assert flags.is_pointed


def test_reduce_preserves_quandle():
    # n-quandle inputs give quandles; diagonal idempotence in particular.
    for R in (trivial_nrack(3, 3), build_conjugation_nrack(cyclic_group(4), 3), dihedral_nrack(3)):
        assert classify(R).is_nquandle
        rack = reduce_nrack_to_rack(R)
        flags = validate_rack(rack).classification
        assert flags.is_nquandle
        for a in range(rack.size):
            assert rack.bracket(a, a) == a


def test_reduce_after_lift_is_valid_rack():
    Q = FiniteRack.from_nrack(dihedral_nrack(3))
    for n in (2, 3):
        rack = reduce_nrack_to_rack(lift_rack_to_nrack(Q, n))
        assert validate_rack(rack).is_nrack
    assert lift_rack_to_nrack(Q, 2).table == Q.table


def _reduction_tables():
    # The census tables are pointed at their last element, so that the
    # basepoint's image is checked off the zero index.
    named = list(axiom_fixture_set())
    named += [
        (f"census(n={n},m={m})#{i}", FiniteNRack(n, m, table, basepoint=m - 1))
        for n, sizes in ((2, range(1, 6)), (3, range(1, 4)), (4, (2,)), (5, (2,)))
        for m in sizes
        for i, table in enumerate(enumerate_nracks(n, m).representatives)
    ]
    return named


REDUCTION_TABLES = _reduction_tables()


@pytest.mark.parametrize(
    "R", [R for _, R in REDUCTION_TABLES], ids=[name for name, _ in REDUCTION_TABLES]
)
def test_an_nrack_reduces_to_a_rack_that_is_a_quandle_exactly_for_an_nquandle(R):
    # reduce_nrack_to_rack does not validate its output; these are the
    # theorems that let it skip the scan.
    rack = reduce_nrack_to_rack(R)
    assert validate(rack).is_nrack
    assert classify(rack).is_nquandle == classify(R).is_nquandle
    m, n = R.size, R.arity
    if R.basepoint is None:
        assert rack.basepoint is None
    else:
        assert rack.basepoint == sum(R.basepoint * m**i for i in range(n - 1))


def test_module_group_trivial_collapse():
    # H = Z2 acting trivially on V = Z3 with constant-identity bracket:
    # both coordinates collapse to known constructions.
    H, V = cyclic_group(2), cyclic_group(3)
    module = GroupModule(space=V, acting=H, action=((0, 1, 2), (0, 1, 2)))
    R, report = build_module_group_nrack(H, (0,) * 8, module, 3)
    assert report.is_nrack
    assert R.size == 6 and R.basepoint == 0
    flags = report.classification
    assert flags.is_pointed and flags.is_nquandle


def test_module_group_s3_product_structure():
    H, V = symmetric_group(3), cyclic_group(3)
    module = GroupModule(space=V, acting=H, action=tuple(((0, 1, 2),) * 6))
    R, report = build_module_group_nrack(H, (H.identity,) * (6**3), module, 3)
    assert report.is_nrack
    conj = build_conjugation_nrack(H, 3)
    for cs in product(range(18), repeat=3):
        us = [c // 6 for c in cs]
        As = [c % 6 for c in cs]
        got = R.bracket(*cs)
        assert got // 6 == us[-1]
        assert got % 6 == conj.bracket(*As)


def test_module_group_nontrivial_action_verdict():
    # H = Z4 with the antisymmetric bracket (a-b)(b-c)(a-c) mod 4 acting on
    # Z5 through 2^k: the validator verdict is recorded, and it passes.
    H, V = cyclic_group(4), cyclic_group(5)
    action = tuple(tuple((v * pow(2, k, 5)) % 5 for v in range(5)) for k in range(4))
    module = GroupModule(space=V, acting=H, action=action)
    bracket = tuple(
        ((a - b) * (b - c) * (a - c)) % 4 for a, b, c in product(range(4), repeat=3)
    )
    check_antisymmetric_bracket(H, bracket, 3)
    R, report = build_module_group_nrack(H, bracket, module, 3)
    assert R.size == 20
    assert report.is_nrack


def test_module_group_failing_verdict_is_recorded():
    # Nonabelian H with a bracket that is not a class function: the data
    # passes every parameter check but the assembled table is not left
    # distributive, and the verdict says so with a witness.
    H, V = symmetric_group(3), cyclic_group(3)
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    odd = [
        sum(1 for a in range(3) for b in range(a + 1, 3) if p[a] > p[b]) % 2
        for p in perms
    ]
    action = tuple(
        tuple((v * (2 if odd[k] else 1)) % 3 for v in range(3)) for k in range(6)
    )
    module = GroupModule(space=V, acting=H, action=action)
    f = [0, 1, 0, 0, 0, 0]
    bracket = tuple(
        1 if (f[a] + f[b] + f[c]) % 2 else 0
        for a, b, c in product(range(6), repeat=3)
    )
    check_antisymmetric_bracket(H, bracket, 3)
    R, report = build_module_group_nrack(H, bracket, module, 3)
    assert R.size == 18
    assert not report.is_nrack
    assert report.distributivity_witness is not None
    assert report.bijectivity_witness is None


def test_module_group_rejects_bad_action():
    H, V = cyclic_group(2), cyclic_group(3)
    with pytest.raises(ConstructionError, match="automorphism"):
        GroupModule(space=V, acting=H, action=((0, 1, 2), (1, 2, 0)))
    with pytest.raises(ConstructionError, match="identity"):
        GroupModule(space=V, acting=H, action=((0, 2, 1), (0, 1, 2)))


def test_module_group_rejects_nonabelian_module():
    with pytest.raises(ConstructionError, match="abelian"):
        GroupModule(
            space=symmetric_group(3),
            acting=cyclic_group(1),
            action=(tuple(range(6)),),
        )


def test_module_group_rejects_asymmetric_bracket():
    H = cyclic_group(4)
    bad = tuple((a + b + c) % 4 for a, b, c in product(range(4), repeat=3))
    with pytest.raises(ConstructionError, match="antisymmetric"):
        check_antisymmetric_bracket(H, bad, 3)


def _first_antisymmetry_failure(H, bracket, arity):
    """The message for the first tuple, then the first adjacent swap of it,
    that does not invert the value, each swapped tuple indexed from its
    entries; None when every swap does."""
    k = H.size
    index = {xs: i for i, xs in enumerate(product(range(k), repeat=arity))}
    for xs, i in index.items():
        for p in range(arity - 1):
            ys = xs[:p] + (xs[p + 1], xs[p]) + xs[p + 2 :]
            if bracket[index[ys]] != H.inv(bracket[i]):
                return (f"bracket is not antisymmetric: swap at positions {p},{p + 1} "
                        f"of {xs} does not invert the value")
    return None


@pytest.mark.parametrize("seed", range(30))
def test_antisymmetry_reports_the_first_failing_swap(seed):
    # The identity bracket with a few entries moved: the swapped entry is
    # read through its index offset, and the first failure is the one the
    # tuple-by-tuple reading finds.
    rng = random.Random(seed)
    H = rng.choice([cyclic_group(2), cyclic_group(3), symmetric_group(3)])
    arity = rng.randint(2, 4)
    bracket = [H.identity] * H.size**arity
    for _ in range(rng.randint(0, 2)):
        bracket[rng.randrange(len(bracket))] = rng.randrange(H.size)
    expected = _first_antisymmetry_failure(H, bracket, arity)
    if expected is None:
        check_antisymmetric_bracket(H, tuple(bracket), arity)
    else:
        with pytest.raises(ConstructionError) as err:
            check_antisymmetric_bracket(H, tuple(bracket), arity)
        assert str(err.value) == expected


def test_antisymmetry_costs_one_read_per_swap():
    # C2 at arity 20, 2**20 entries within the table budget: 19 swaps per
    # entry, each one read.  Recomputing each swapped index from its
    # entries costs arity times more, far past the timeout.
    code = ("from nracks import cyclic_group\n"
            "from nracks.constructions import check_antisymmetric_bracket\n"
            "check_antisymmetric_bracket(cyclic_group(2), (0,) * 2**20, 20)\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=15)


def test_free_reduce():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([2, 1, -1, -2]) == ()
    assert free_reduce([1, 2, -2, 3]) == (1, 3)
    assert free_reduce([]) == ()


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation(2, ((),))
    with pytest.raises(ValueError):
        GroupPresentation(2, ((3,),))
    with pytest.raises(ValueError):
        GroupPresentation(2, ((0,),))


def test_one_element_nrack_presents_free_group_of_rank_one():
    for n in (2, 3):
        P = associated_group_presentation(one_element_nrack(n))
        assert P.generators == 1 and P.relators == ()
        inv = abelianization(P)
        assert inv.free_rank == 1 and inv.torsion == ()
        # What the presentation of one element takes without a word: its
        # one relator reduces to the empty word in both forms.
        for paper_form in (False, True):
            assert _relator_word((0,) * n, 0, paper_form) == ()


def test_trivial_three_rack_abelianization():
    for m in (1, 2, 3, 4):
        P = associated_group_presentation(trivial_nrack(3, m))
        inv = abelianization(P)
        assert inv.free_rank == m and inv.torsion == ()


def test_z4_three_rack_presentation_counts():
    # 64 tuple relators; the 4 diagonal words reduce to the empty word.
    P = associated_group_presentation(build_z4_module_nrack(3, 4))
    assert P.generators == 4
    assert len(P.relators) == 60


def test_abelianization_of_small_presentations():
    assert abelianization(GroupPresentation(1, ((1, 1),))).torsion == (2,)
    inv = abelianization(GroupPresentation(2, ((1, 2, -1, -2),)))
    assert inv.free_rank == 2 and inv.torsion == ()


def test_abelianization_invariant_under_relabeling_and_reordering():
    P = associated_group_presentation(build_z4_module_nrack(3, 4))
    base = abelianization(P)
    rng = random.Random(7)
    relators = list(P.relators)
    for _ in range(3):
        rng.shuffle(relators)
        sigma = list(range(P.generators))
        rng.shuffle(sigma)
        relabeled = tuple(
            tuple((sigma[abs(l) - 1] + 1) * (1 if l > 0 else -1) for l in word)
            for word in relators
        )
        assert abelianization(GroupPresentation(P.generators, relabeled)) == base


def test_relator_preservation_identity_on_conjugation_nracks():
    for G in (cyclic_group(2), cyclic_group(4), symmetric_group(3)):
        for n in (2, 3):
            R = build_conjugation_nrack(G, n)
            assert check_relator_preservation(R, G, list(range(G.size)))


def test_relator_preservation_trivial_rack_into_z2():
    R = trivial_nrack(3, 2)
    assert check_relator_preservation(R, cyclic_group(2), [0, 0])


def test_relator_preservation_paper_form_fails_on_s3():
    # The alternative prefix ordering does not cancel against conjugation
    # brackets in a nonabelian group; abelian targets cannot see the
    # difference.
    G = symmetric_group(3)
    R = build_conjugation_nrack(G, 3)
    assert check_relator_preservation(R, G, list(range(6)), paper_form=False)
    assert not check_relator_preservation(R, G, list(range(6)), paper_form=True)
    Z4 = cyclic_group(4)
    R4 = build_conjugation_nrack(Z4, 3)
    assert check_relator_preservation(R4, Z4, list(range(4)), paper_form=True)


def test_relator_preservation_requires_morphism():
    # The identity map from the Z4 module 3-rack into the conjugation
    # 3-rack of Z4 is not a bracket morphism, so the check refuses it.
    R = build_z4_module_nrack(3, 4)
    with pytest.raises(ValueError, match="morphism"):
        check_relator_preservation(R, cyclic_group(4), list(range(4)))


def test_evaluate_word():
    G = symmetric_group(3)
    images = list(range(6))
    for g in range(6):
        assert evaluate_word(G, (g + 1, -(g + 1)), images) == G.identity


def test_assoc_group_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    z4n3 = build_z4_module_nrack(3, 4)
    for form, key in ((False, "chosen"), (True, "paper")):
        P = associated_group_presentation(z4n3, paper_form=form)
        inv = abelianization(P)
        want = golden[f"z4_n3_{key}"]
        assert len(P.relators) == want["relator_count"]
        assert inv.free_rank == want["abelianization"]["free_rank"]
        assert list(inv.torsion) == want["abelianization"]["torsion"]
    for name, G in (("z2", cyclic_group(2)), ("s3", symmetric_group(3))):
        for n in (2, 3):
            R = build_conjugation_nrack(G, n)
            P = associated_group_presentation(R)
            want = golden[f"conj_{name}_n{n}"]
            assert len(P.relators) == want["relator_count"]
            inv = abelianization(P)
            assert inv.free_rank == want["abelianization"]["free_rank"]


def test_constructed_nracks_not_isomorphic_to_wrong_sizes():
    assert find_isomorphism(build_z4_module_nrack(3, 4), trivial_nrack(3, 4)) is None


def test_gamma_parameter_sweep_validates():
    # Every accepted (m, t, s) with m <= 6 yields a table passing the full
    # validator, for arities 2 and 3.
    accepted = 0
    for m in range(1, 7):
        for t in range(m):
            for s in range(m):
                for n in (2, 3):
                    try:
                        R = build_gamma_module_nrack(n, m, t, s)
                    except ConstructionError:
                        continue
                    assert validate(R).is_nrack, (n, m, t, s)
                    accepted += 1
    assert accepted > 20


def test_conjugation_arity_four():
    R = build_conjugation_nrack(cyclic_group(4), 4)
    assert validate(R).is_nrack
    R = build_conjugation_nrack(symmetric_group(3), 4)
    flags = classify(R)
    assert flags.is_nrack and flags.is_pointed and flags.is_weak_nquandle


def test_lift_arity_four_validates():
    Q = FiniteRack.from_nrack(dihedral_nrack(3))
    assert validate(lift_rack_to_nrack(Q, 4)).is_nrack


def test_oversized_tables_refused_before_anything_is_built(monkeypatch, capsys):
    S3, C2 = symmetric_group(3), cyclic_group(2)
    rack = FiniteRack(3, tuple((2 * x - y) % 3 for x in range(3) for y in range(3)))
    module = GroupModule(space=cyclic_group(3), acting=C2, action=((0, 1, 2), (0, 2, 1)))
    wide = trivial_nrack(12, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the table was iterated")

    monkeypatch.setattr(nracks.constructions, "product", refuse)
    cases = [
        (lambda: build_z4_module_nrack(40, 4), 4**11),
        (lambda: build_gamma_module_nrack(40, 4, 1, 2), 4**11),
        (lambda: build_conjugation_nrack(S3, 9), 6**9),
        (lambda: lift_rack_to_nrack(rack, 14), 3**14),
        # The bracket is never read: the budget is checked first.
        (lambda: build_module_group_nrack(C2, (), module, 9), 6**9),
        # 2^11 tuples, so the reduced rack would have 2^22 entries.
        (lambda: reduce_nrack_to_rack(wide), 2**22),
    ]
    for build, reached in cases:
        with pytest.raises(BudgetExceededError) as err:
            build()
        assert (err.value.limit, err.value.reached) == (TABLE_BUDGET, reached)
    assert str(err.value) == "a table of 2048**2 entries exceeds the 2000000-entry budget"
    assert main(["construct", "z4", "--n", "40", "--m", "4"]) == 3
    assert "budget exceeded" in capsys.readouterr().err
