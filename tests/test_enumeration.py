import inspect
import json
import os
import sys
import tracemalloc
from itertools import combinations, permutations
from math import factorial

import pytest

import oracle_enumeration
from oracle_enumeration import (
    _relabel,
    brute_force_enumerate,
    canonical_form,
    row_scan_enumerate,
)
import nracks.enumeration
from nracks import (
    BudgetExceededError,
    EnumerationReport,
    FiniteNRack,
    classify,
    enumerate_nracks,
    find_isomorphism,
)
from nracks.cli import main
from nracks.core import entrywise

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "enumeration_counts.json")

CASES = [(2, 1), (2, 2), (2, 3), (3, 2)]
FILTER_NAMES = ("nrack", "weak-n-quandle", "n-quandle", "n-kei")


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_counts_match_golden_file():
    golden = load_golden()
    for n, m in CASES:
        for f in FILTER_NAMES:
            report = enumerate_nracks(n, m, f)
            want = golden[f"{n},{m},{f}"]
            assert report.count_total == want["count_total"], (n, m, f)
            assert report.count_up_to_iso == want["count_up_to_iso"], (n, m, f)


def test_counts_match_unpruned_oracle():
    for n, m in CASES:
        for f in FILTER_NAMES:
            total, classes = brute_force_enumerate(n, m, f)
            report = enumerate_nracks(n, m, f)
            assert report.count_total == total
            assert report.count_up_to_iso == len(classes)
            # Lexicographically least representatives coincide with the
            # oracle's canonical forms.
            assert sorted(report.representatives) == classes


def test_two_element_rack_representatives():
    report = enumerate_nracks(2, 2)
    assert report.representatives == ((0, 1, 0, 1), (1, 0, 1, 0))


def test_representatives_satisfy_filter_and_are_nonisomorphic():
    for n, m in CASES:
        for f in FILTER_NAMES:
            report = enumerate_nracks(n, m, f)
            racks = [FiniteNRack(n, m, t) for t in report.representatives]
            for R in racks:
                flags = classify(R)
                assert flags.is_nrack
                if f == "weak-n-quandle":
                    assert flags.is_weak_nquandle
                elif f == "n-quandle":
                    assert flags.is_nquandle
                elif f == "n-kei":
                    assert flags.is_nkei
            for A, B in combinations(racks, 2):
                assert find_isomorphism(A, B) is None


FILTER_FLAGS = {
    "nrack": "is_nrack",
    "weak-n-quandle": "is_weak_nquandle",
    "n-quandle": "is_nquandle",
    "n-kei": "is_nkei",
}
FLAG_CASES = [
    (n, m, f) for n, top in ((2, 6), (3, 3)) for m in range(1, top + 1) for f in FILTER_NAMES
] + [(3, 4, "n-quandle")]


@pytest.mark.parametrize(
    "arity, size, filter_name", FLAG_CASES, ids=["-".join(map(str, c)) for c in FLAG_CASES]
)
def test_every_representative_classifies_with_its_filter_flag(arity, size, filter_name):
    # The search emits the tables it accepts without classifying them: a
    # complete table has passed every distributivity instance and, row by
    # row, the filter.
    flag = FILTER_FLAGS[filter_name]
    for t in enumerate_nracks(arity, size, filter_name).representatives:
        flags = classify(FiniteNRack(arity, size, t))
        assert flags.is_nrack and getattr(flags, flag), t


def test_representative_is_least_in_class():
    for arity, size in ((2, 3), (2, 4), (3, 3)):
        for f in FILTER_NAMES:
            report = enumerate_nracks(arity, size, f)
            for t in report.representatives:
                assert t == canonical_form(t, size, arity), (arity, size, f)


# Racks (OEIS A181771) and quandles (OEIS A181769) of order 1..6, up to
# isomorphism; see Vendramin, "On the classification of quandles of low
# order", J. Knot Theory Ramifications 21 (2012).
PUBLISHED_CLASS_COUNTS = {
    "nrack": (1, 2, 6, 19, 74, 353),
    "n-quandle": (1, 1, 3, 7, 22, 73),
}


@pytest.mark.parametrize("filter_name", sorted(PUBLISHED_CLASS_COUNTS))
def test_rack_and_quandle_class_counts_match_oeis(filter_name):
    counts = tuple(
        enumerate_nracks(2, m, filter_name).count_up_to_iso for m in range(1, 7)
    )
    assert counts == PUBLISHED_CLASS_COUNTS[filter_name]


@pytest.mark.parametrize("arity, size", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
@pytest.mark.parametrize("filter_name", FILTER_NAMES)
def test_count_total_is_the_sum_of_orbit_sizes(arity, size, filter_name):
    report = enumerate_nracks(arity, size, filter_name)
    labeled = 0
    for t in report.representatives:
        automorphisms = sum(
            _relabel(t, size, arity, sigma) == t
            for sigma in permutations(range(size))
        )
        labeled += factorial(size) // automorphisms
    assert report.count_total == labeled


ROW_SCAN_CASES = [
    (n, m, f)
    for n, sizes in ((2, range(1, 6)), (3, range(1, 4)), (4, (2,)), (5, (2,)))
    for m in sizes
    for f in FILTER_NAMES
] + [(2, 6, "n-quandle"), (2, 6, "n-kei")]


@pytest.mark.parametrize(
    "arity, size, filter_name", ROW_SCAN_CASES, ids=["-".join(map(str, c)) for c in ROW_SCAN_CASES]
)
def test_search_matches_the_row_scan_and_its_budget(arity, size, filter_name):
    # The row scan tries all m! rows at every prefix it enters; the search
    # tries only the rows its constraints allow, yet must accept the same
    # rows in the same order and count the same placements.
    count_total, representatives, placements = row_scan_enumerate(arity, size, filter_name)
    want = EnumerationReport(arity, size, filter_name, count_total, len(representatives),
                             representatives)
    assert enumerate_nracks(arity, size, filter_name, budget=placements) == want
    with pytest.raises(BudgetExceededError) as err:
        enumerate_nracks(arity, size, filter_name, budget=placements - 1)
    assert (err.value.limit, err.value.reached) == (placements - 1, placements)


@pytest.mark.parametrize("arity, size", [(3, 3), (2, 5)])
def test_each_row_action_is_computed_once_per_run(monkeypatch, arity, size):
    # entrywise runs once per relabeling s (for s^-1: m! - 1 calls) and
    # twice per distinct row placed (the row and its inverse).  At most the
    # m! permutations can be placed, so a run makes at most 3 m! - 1 calls.
    # Computed afresh at every placement, they were 1,017 at (3, 3) and
    # 3,263 at (2, 5).
    calls = 0

    def counted(phi, length, base):
        nonlocal calls
        calls += 1
        return entrywise(phi, length, base)

    monkeypatch.setattr(nracks.enumeration, "entrywise", counted)
    enumerate_nracks(arity, size)
    assert 0 < calls <= 3 * factorial(size) - 1


@pytest.mark.parametrize("filter_name", FILTER_NAMES)
def test_one_element_search_costs_nothing_in_the_arity(filter_name):
    # One element has one prefix and one row whatever the arity, so neither
    # the prefixes' fixed points nor the row's action may walk n - 1 entries.
    tracemalloc.start()
    try:
        report = enumerate_nracks(10**7, 1, filter_name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == EnumerationReport(10**7, 1, filter_name, 1, 1, ((0,),))
    assert peak < 2**20


def _fix_even_first_entry(prefix, filter_name):
    return prefix[:1] if prefix[0] % 2 == 0 else ()


@pytest.mark.parametrize(
    "arity, size, filter_name", [(2, 4, "nrack"), (2, 5, "nrack"), (3, 3, "nrack"), (2, 5, "n-kei")]
)
def test_a_pinned_row_passes_the_row_filter_like_any_other(
    monkeypatch, arity, size, filter_name
):
    # A pinned row is a conjugate of the row at the prefix that phi or its
    # inverse moves this one to, and the filters' fixed points move with the
    # prefix, so a pinned row always passes them.  A rule that does not move
    # with the prefix (fix x at (x, ...) for even x) can reject a pinned
    # row, and the search must then drop it as the row scan does.
    monkeypatch.setattr(nracks.enumeration, "_fixed_points", _fix_even_first_entry)
    monkeypatch.setattr(oracle_enumeration, "_fixed_points", _fix_even_first_entry)
    count_total, representatives, placements = row_scan_enumerate(arity, size, filter_name)
    report = enumerate_nracks(arity, size, filter_name, budget=placements)
    assert (report.count_total, report.representatives) == (count_total, representatives)


def test_budget_exceeded_raises_without_partial_results():
    with pytest.raises(BudgetExceededError):
        enumerate_nracks(2, 3, budget=10)


def test_oversized_search_refused_before_anything_is_built(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("rows or prefixes were built")

    monkeypatch.setattr(nracks.enumeration, "permutations", refuse)
    monkeypatch.setattr(nracks.enumeration, "product", refuse)
    # (3, 5): m! = 120 and m^(n-1) = 25 fit, but 120 * 25 placements do not.
    for arity, size in ((2, 8), (25, 2), (3, 5)):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_nracks(arity, size, budget=1000)
        assert (err.value.limit, err.value.reached) == (1000, 1001)
        assert str(err.value) == "enumeration exceeded the budget of 1000 candidates"
    assert main(["enumerate", "--n", "2", "--m", "12"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


EARLY_REFUSALS = [
    (2, 4, 20, "nrack"), (2, 4, 0, "nrack"), (2, 3, -1, "nrack"), (4, 2, 5, "nrack"),
    (2, 1, 0, "nrack"), (2, 4, 20, "n-quandle"), (4, 2, 5, "n-kei"),
    (2, 4, 95, "nrack"), (3, 3, 53, "n-quandle"),
]


@pytest.mark.parametrize(
    "arity, size, budget, filter_name",
    EARLY_REFUSALS,
    # The default filter stays out of the id: "2-4-20", "2-4-20-n-quandle".
    ids=["-".join(map(str, c[:3] if c[3] == "nrack" else c)) for c in EARLY_REFUSALS],
)
def test_early_refusal_is_the_error_the_search_raises(
    monkeypatch, arity, size, budget, filter_name
):
    # Rows the filter rejects still count as placements, so the search
    # passes the budget exactly where the early refusal says it will.
    with pytest.raises(BudgetExceededError) as early:
        enumerate_nracks(arity, size, filter_name, budget=budget)
    monkeypatch.setattr(nracks.enumeration, "first_product_past", lambda factors, limit: None)
    with pytest.raises(BudgetExceededError) as searched:
        enumerate_nracks(arity, size, filter_name, budget=budget)
    assert (early.value.limit, early.value.reached, str(early.value)) == (
        searched.value.limit, searched.value.reached, str(searched.value))


def test_search_deeper_than_the_recursion_limit(capsys):
    # 2^7 = 128 prefixes: a stack frame per prefix would pass the limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        with pytest.raises(BudgetExceededError) as err:
            enumerate_nracks(8, 2, budget=200)
        code = main(["enumerate", "--n", "8", "--m", "2", "--budget", "200"])
    finally:
        sys.setrecursionlimit(limit)
    assert (err.value.limit, err.value.reached) == (200, 201)
    assert code == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_unknown_filter_rejected():
    with pytest.raises(ValueError):
        enumerate_nracks(2, 2, "quasigroup")


def test_enumeration_deterministic():
    a = enumerate_nracks(3, 2)
    b = enumerate_nracks(3, 2)
    assert a == b
