"""Exhaustive enumeration of n-rack tables up to isomorphism.

The search assigns one translation row per argument prefix, in
lexicographic prefix order.  Rows are drawn from the permutations of the
carrier (translation bijectivity row by row), and every left
distributivity instance is checked as soon as all rows it touches are
assigned.  Tables therefore come out in lexicographic order, so the first
member of each isomorphism class is its least representative.
"""

from dataclasses import dataclass
from itertools import permutations, product, repeat

from .core import FiniteNRack, classify, find_isomorphism
from .errors import BudgetExceededError

DEFAULT_CANDIDATE_BUDGET = 2_000_000

FILTERS = ("nrack", "weak-n-quandle", "n-quandle", "n-kei")


@dataclass(frozen=True)
class EnumerationReport:
    arity: int
    size: int
    filter: str
    count_total: int
    count_up_to_iso: int
    representatives: tuple[tuple[int, ...], ...]


def _passes(flags, filter_name: str) -> bool:
    if filter_name == "nrack":
        return flags.is_nrack
    if filter_name == "weak-n-quandle":
        return flags.is_weak_nquandle
    if filter_name == "n-quandle":
        return flags.is_nquandle
    if filter_name == "n-kei":
        return flags.is_nkei
    raise ValueError(f"unknown filter {filter_name!r}; choose from {FILTERS}")


def _passes_budget(factors, budget: int) -> bool:
    """Whether the product of factors passes budget, multiplied out only
    until a partial product does."""
    total = 1
    for f in factors:
        total *= f
        if total > budget:
            return True
    return total > budget


def _budget_error(budget: int, reached: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"enumeration exceeded the budget of {budget} candidates",
        limit=budget,
        reached=reached,
    )


def enumerate_nracks(
    arity: int,
    size: int,
    filter_name: str = "nrack",
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> EnumerationReport:
    """Backtracking enumeration of all tables satisfying the axioms plus the
    requested filter; representatives are deduplicated with the isomorphism
    search.  Raises BudgetExceededError once the number of attempted row
    placements passes the budget (no partial results)."""
    if filter_name not in FILTERS:
        raise ValueError(f"unknown filter {filter_name!r}; choose from {FILTERS}")
    m, n = size, arity
    if n < 2 or m < 1:
        raise ValueError("need arity >= 2 and size >= 1")
    # Prefix 0 tries all m! rows, and the first path places the identity
    # row at each of the m^(n-1) prefixes: if either count passes the
    # budget, so does the search, at the first placement past it.
    if _passes_budget(range(2, m + 1), budget) or (
        m > 1 and _passes_budget(repeat(m, n - 1), budget)
    ):
        raise _budget_error(budget, max(budget, 0) + 1)
    prefix_count = m ** (n - 1)
    prefix_digits = list(product(range(m), repeat=n - 1))
    all_rows = [list(p) for p in permutations(range(m))]
    rows: list[list[int] | None] = [None] * prefix_count
    visited = 0
    count_total = 0
    representatives: list[tuple[int, ...]] = []

    def distributive_at(t: int) -> bool:
        # Verify every instance whose three rows (outer prefix, inner
        # prefix, acted prefix) are all assigned and whose latest row is t.
        for px in range(t + 1):
            phi = rows[px]
            for py in range(t + 1):
                acted = [phi[d] for d in prefix_digits[py]]
                pz = 0
                for d in acted:
                    pz = pz * m + d
                if pz > t:
                    continue
                if max(px, py, pz) != t:
                    continue
                row_y, row_z = rows[py], rows[pz]
                for yn in range(m):
                    if phi[row_y[yn]] != row_z[phi[yn]]:
                        return False
        return True

    def emit():
        nonlocal count_total
        table = tuple(v for row in rows for v in row)
        candidate = FiniteNRack(n, m, table)
        if not _passes(classify(candidate), filter_name):
            return
        count_total += 1
        for rep in representatives:
            if find_isomorphism(candidate, FiniteNRack(n, m, rep)) is not None:
                return
        representatives.append(table)

    def extend(t: int):
        nonlocal visited
        if t == prefix_count:
            emit()
            return
        for row in all_rows:
            visited += 1
            if visited > budget:
                raise _budget_error(budget, visited)
            rows[t] = row
            if distributive_at(t):
                extend(t + 1)
            rows[t] = None

    extend(0)
    return EnumerationReport(
        arity=n,
        size=m,
        filter=filter_name,
        count_total=count_total,
        count_up_to_iso=len(representatives),
        representatives=tuple(representatives),
    )
