"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on a passing run.  Every expected value here is exact; there are no
tolerances anywhere.
"""

import functools
import subprocess
import sys
import time
from itertools import combinations

import pytest

from helpers import axiom_fixture_set, dihedral_nrack, one_element_nrack, trivial_nrack
from oracle_cjkls import rack_homology_oracle
from oracle_enumeration import brute_force_enumerate
from nracks import (
    FiniteNRack,
    LeibnizNAlgebra,
    abelianization,
    associated_group_presentation,
    build_conjugation_nrack,
    build_gamma_module_nrack,
    build_z4_module_nrack,
    check_fundamental_identity,
    check_filippov,
    check_inner_is_automorphism,
    check_relator_preservation,
    check_self_derivation,
    classify,
    cyclic_group,
    degenerate_subcomplex,
    enumerate_nracks,
    find_isomorphism,
    homology,
    levi_civita_nalgebra,
    quandle_quotient_complex,
    rack_chain_complex,
    symmetric_group,
    validate,
)
from nracks.errors import ConstructionError
from nracks.homology import DEFAULT_COLUMN_BUDGET, CoefficientGroup
from nracks.jsonio import dump_document, group_to_json, nrack_to_json, tensor_to_json


def _report(number: int, label: str):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return wrapped

    return decorator


@_report(1, "axiom suite for every built-in construction")
def test_criterion_1_axiom_suite():
    for name, R in axiom_fixture_set():
        report = validate(R)
        assert report.is_nrack, name
    # The quadratic-module bracket is a weak n-kei exactly for odd arity.
    for n in (2, 3, 4):
        flags = classify(build_z4_module_nrack(n, 4))
        assert flags.is_weak_nkei == (n % 2 == 1), n
    # The rejected twisted-module fixture names its violated relation.
    with pytest.raises(ConstructionError, match=r"s\^2 \+ t\*s - s"):
        build_gamma_module_nrack(3, 5, 3, 1)
    # Reductions of the fixture set validate as racks.
    from nracks import reduce_nrack_to_rack

    for name, R in axiom_fixture_set():
        if R.size ** (R.arity - 1) <= 64:
            assert validate(reduce_nrack_to_rack(R)).is_nrack, name


@_report(2, "inner maps act by automorphisms on every fixture")
def test_criterion_2_inner_automorphisms():
    failures = 0
    for name, R in axiom_fixture_set():
        for xs in R.prefixes():
            if not check_inner_is_automorphism(R, xs):
                failures += 1
    assert failures == 0


@_report(3, "boundary squares to zero and degenerate chains are closed")
def test_criterion_3_chain_complex_integrity():
    fixtures = list(axiom_fixture_set()) + [
        ("one-element", one_element_nrack(2)),
        ("trivial(2,2)", trivial_nrack(2, 2)),
        ("trivial(2,3)", trivial_nrack(2, 3)),
        ("dihedral-z3", dihedral_nrack(3)),
    ]
    for name, R in fixtures:
        M = R.size ** (R.arity - 1)
        max_k = 0
        while max_k < 4 and M ** (max_k + 1) <= DEFAULT_COLUMN_BUDGET:
            max_k += 1
        if max_k < 2:
            continue
        C = rack_chain_complex(R, max_k)
        # Explicit re-verification, independent of the constructor's check.
        for k in range(2, max_k + 1):
            lower = C.cols[k - 1]
            for col in C.cols[k]:
                acc = {}
                for r, coeff in col.items():
                    for i, v in lower[r].items():
                        acc[i] = acc.get(i, 0) + coeff * v
                assert all(v == 0 for v in acc.values()), (name, k)
        if classify(R).is_nquandle:
            D = degenerate_subcomplex(R, C)  # raises if not closed
            assert all(r <= f for r, f in zip(D.ranks, C.ranks))


@_report(4, "homology golden values, exact equality")
def test_criterion_4_homology_goldens():
    C = rack_chain_complex(one_element_nrack(2), 5)
    for k in range(1, 5):
        inv = homology(C, k).invariants
        assert (inv.free_rank, inv.torsion) == (1, ()), k
    for m in (1, 2, 3):
        C = rack_chain_complex(trivial_nrack(2, m), 4)
        for k in range(1, 4):
            inv = homology(C, k).invariants
            assert (inv.free_rank, inv.torsion) == (m**k, ()), (m, k)
    R = dihedral_nrack(3)
    C = rack_chain_complex(R, 4)
    Q = quandle_quotient_complex(C, degenerate_subcomplex(R, C))
    h2 = homology(Q, 2).invariants
    h3 = homology(Q, 3).invariants
    assert (h2.free_rank, h2.torsion) == (0, ())
    assert (h3.free_rank, h3.torsion) == (0, (3,))


@_report(5, "n=2 pipeline equals the independent classical oracle")
def test_criterion_5_oracle_equivalence():
    coefficient_groups = [
        CoefficientGroup(0),
        CoefficientGroup(2),
        CoefficientGroup(3),
    ]
    compared = 0
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
                    for A in coefficient_groups:
                        inv = homology(CX, k, A).invariants
                        free, tor = rack_homology_oracle(rows, variant, k, A.modulus)
                        assert (inv.free_rank, inv.torsion) == (free, tor)
                        compared += 1
    assert compared >= 150


@_report(6, "Leibniz suite with twenty failing mutants")
def test_criterion_6_leibniz():
    nambu = levi_civita_nalgebra(4)
    assert check_fundamental_identity(nambu)[0]
    assert check_filippov(nambu)
    assert check_self_derivation(nambu)
    tensors = [nambu]
    keys = sorted(nambu.constants)
    for index in range(20):
        constants = dict(nambu.constants)
        constants[keys[index]] = tuple(2 * v for v in constants[keys[index]])
        tensors.append(LeibnizNAlgebra(4, 3, constants))
    disagreements = 0
    for i, L in enumerate(tensors):
        ok, witness = check_fundamental_identity(L)
        if i == 0:
            assert ok
        else:
            assert not ok and witness is not None, i
        if ok != check_self_derivation(L):
            disagreements += 1
    assert disagreements == 0


@_report(7, "associated group: relators die in conjugation targets")
def test_criterion_7_associated_group():
    for G in (cyclic_group(2), cyclic_group(4), symmetric_group(3)):
        for n in (2, 3):
            R = build_conjugation_nrack(G, n)
            assert check_relator_preservation(R, G, list(range(G.size)))
    for m in (1, 2, 3, 4):
        inv = abelianization(associated_group_presentation(trivial_nrack(3, m)))
        assert (inv.free_rank, inv.torsion) == (m, ())


@_report(8, "enumeration matches the unpruned oracle")
def test_criterion_8_enumeration():
    start = time.monotonic()
    for n, m in ((2, 1), (2, 2), (2, 3), (3, 2)):
        total, classes = brute_force_enumerate(n, m, "nrack")
        report = enumerate_nracks(n, m, "nrack")
        assert report.count_total == total, (n, m)
        assert report.count_up_to_iso == len(classes), (n, m)
        racks = [FiniteNRack(n, m, t) for t in report.representatives]
        for A, B in combinations(racks, 2):
            assert find_isomorphism(A, B) is None
    assert time.monotonic() - start < 300


@_report(9, "CLI outputs are byte-identical across repeated runs")
def test_criterion_9_cli_determinism(tmp_path):
    dihedral = tmp_path / "dihedral.json"
    dihedral.write_text(dump_document(nrack_to_json(dihedral_nrack(3))))
    s3 = tmp_path / "s3.json"
    s3.write_text(dump_document(group_to_json(symmetric_group(3))))
    nambu = tmp_path / "nambu.json"
    nambu.write_text(dump_document(tensor_to_json(levi_civita_nalgebra(4))))
    commands = [
        ("check", "--input", str(dihedral)),
        ("construct", "z4", "--n", "3", "--m", "4"),
        ("construct", "conj", "--group", str(s3), "--n", "2"),
        ("reduce", "--input", str(dihedral)),
        ("homology", "--input", str(dihedral), "--variant", "Q", "--degrees", "1-3"),
        ("cohomology", "--input", str(dihedral), "--degrees", "2", "--coefficients", "Z/3"),
        ("assoc-group", "--input", str(dihedral)),
        ("leibniz", "--input", str(nambu)),
        ("enumerate", "--n", "2", "--m", "3"),
        ("inner", "--input", str(dihedral)),
    ]
    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "nracks.cli", *args],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, args
        assert runs[0].returncode == runs[1].returncode, args
        assert runs[0].stdout, args
