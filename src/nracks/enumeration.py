"""Exhaustive enumeration of n-rack tables up to isomorphism.

The search is orderly (Read, "Every one a winner", 1978): it assigns one
translation row per argument prefix, in lexicographic prefix order, and
keeps a partial table only while no relabeling of the carrier can make
it lexicographically smaller.  Rows are drawn from the permutations of
the carrier in lexicographic order (translation bijectivity row by row),
every left distributivity instance is checked as soon as all rows it
touches are assigned, and the requested filter is applied row by row.
Every complete table the search accepts is therefore the least member of
its isomorphism class, tables come out in lexicographic order, and no two
are isomorphic.  The labeled tables of a class number m!/|Aut T|, where
the automorphisms of T are the relabelings that leave it unchanged.
"""

from dataclasses import dataclass
from itertools import permutations, product, repeat
from math import factorial

from .core import FiniteNRack, classify, first_product_past
from .errors import BudgetExceededError

DEFAULT_CANDIDATE_BUDGET = 2_000_000

# The classification flag each filter keeps.
FILTER_FLAGS = {
    "nrack": "is_nrack",
    "weak-n-quandle": "is_weak_nquandle",
    "n-quandle": "is_nquandle",
    "n-kei": "is_nkei",
}
FILTERS = tuple(FILTER_FLAGS)


@dataclass(frozen=True)
class EnumerationReport:
    arity: int
    size: int
    filter: str
    count_total: int
    count_up_to_iso: int
    representatives: tuple[tuple[int, ...], ...]


def _passes_budget(factors, budget: int) -> bool:
    """Whether the product of factors passes budget, multiplied out only
    until a partial product does."""
    return first_product_past(factors, budget) is not None


def _budget_error(budget: int, reached: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"enumeration exceeded the budget of {budget} candidates",
        limit=budget,
        reached=reached,
    )


def _fixed_points(prefix, filter_name: str) -> tuple[int, ...]:
    """The elements the row at prefix must fix under filter_name: x at the
    diagonal prefix (x,...,x) for weak n-quandles, every entry of the
    prefix for n-quandles and n-keis."""
    if filter_name == "weak-n-quandle":
        return prefix[:1] if len(set(prefix)) == 1 else ()
    if filter_name in ("n-quandle", "n-kei"):
        return tuple(sorted(set(prefix)))
    return ()


def enumerate_nracks(
    arity: int,
    size: int,
    filter_name: str = "nrack",
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> EnumerationReport:
    """Orderly enumeration of the tables satisfying the axioms plus the
    requested filter: one lex-least representative per isomorphism class,
    in lexicographic order, and count_total summed over the classes by
    orbit-stabilizer.  Every row tried at every prefix counts as one
    placement, whether or not it is kept; BudgetExceededError is raised
    once the placements pass the budget (no partial results)."""
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
    inverses = [sorted(range(m), key=row.__getitem__) for row in all_rows]
    fixed = [_fixed_points(p, filter_name) for p in prefix_digits]
    involutive = filter_name == "n-kei"

    # rows[t] is all_rows[cursor[t] - 1] while the search stands below t.
    rows: list[list[int] | None] = [None] * prefix_count
    cursor = [0] * prefix_count
    visited = 0
    count_total = 0
    representatives: list[tuple[int, ...]] = []

    def acted(phi, p: int) -> int:
        """The index of the prefix phi.p, phi applied digit by digit."""
        q = 0
        for d in prefix_digits[p]:
            q = q * m + phi[d]
        return q

    # A distributivity instance has an outer prefix px, an inner prefix py
    # and the acted prefix pz = phi.py, phi the row at px: it says
    # phi . row_py = row_pz . phi.  Those whose latest row is t are
    #   px = t, py and pz up to t: checked by distributive_at;
    #   px < t, py = pz = t: row t commutes with phi (distributive_at);
    #   px < t, py = t, pz < t: row t is phi^-1 . row_pz . phi;
    #   px < t, py < t, pz = t: row t is phi . row_py . phi^-1.
    # The last two depend on the rows before t only, and pin row t down.

    def constraints(t: int):
        """(forced, commuting) at prefix t, given the rows before t: the row
        the pinning instances force ([] if two force different rows, None
        if none applies), and the rows row t must commute with."""
        forced, commuting = None, []
        for px in range(t):
            phi = rows[px]
            inverse = inverses[cursor[px] - 1]
            pins = []
            pz = acted(phi, t)
            if pz == t:
                commuting.append(phi)
            elif pz < t:
                pins.append([inverse[rows[pz][phi[y]]] for y in range(m)])
            py = acted(inverse, t)
            if py < t:
                pins.append([phi[rows[py][inverse[z]]] for z in range(m)])
            for pin in pins:
                if forced is None:
                    forced = pin
                elif pin != forced:
                    return [], commuting
        return forced, commuting

    def admissible(t: int, row) -> bool:
        if forced[t] is not None and row != forced[t]:
            return False
        if any(row[x] != x for x in fixed[t]):
            return False
        return not involutive or all(row[row[y]] == y for y in range(m))

    def distributive_at(t: int) -> bool:
        # The instances with latest row t that admissible leaves unchecked.
        phi = rows[t]
        for other in commuting[t]:
            if any(other[phi[y]] != phi[other[y]] for y in range(m)):
                return False
        for py in range(t + 1):
            pz = acted(phi, py)
            if pz <= t:
                row_y, row_z = rows[py], rows[pz]
                if any(phi[row_y[y]] != row_z[phi[y]] for y in range(m)):
                    return False
        return True

    def still_tied(t: int, tied):
        """Compare T with each relabeling T^s in tied, an (s, q) list whose
        rows before q agree, on the rows of both now assigned; row q of T^s
        is s . row[s^-1 q] . s^-1.  None if some T^s is smaller; else the
        (s, q) still equal so far.  Both sides' earlier rows are fixed, so
        a smaller T^s stays smaller in every completion, and a larger one
        can be dropped."""
        out = []
        for s, q in tied:
            sigma, inverse = all_rows[s], inverses[s]
            while q <= t and (source := acted(inverse, q)) <= t:
                row = rows[source]
                image = [sigma[row[y]] for y in inverse]
                if image != rows[q]:
                    break
                q += 1
            else:
                out.append((s, q))
                continue
            if image < rows[q]:
                return None
        return out

    # Per prefix t: the relabelings (all but the identity, all_rows[0])
    # that agree with the table on every row compared before row t was
    # placed, and the constraints of the rows before t on row t.
    tied: list[list | None] = [None] * prefix_count
    forced: list[list[int] | None] = [None] * prefix_count
    commuting: list[list | None] = [None] * prefix_count
    tied[0] = [(s, 0) for s in range(1, len(all_rows))]
    commuting[0] = []
    t = 0
    while t >= 0:
        c = cursor[t]
        if c == len(all_rows):
            cursor[t] = 0
            t -= 1
            continue
        cursor[t] = c + 1
        visited += 1
        if visited > budget:
            raise _budget_error(budget, visited)
        row = all_rows[c]
        if not admissible(t, row):
            continue
        rows[t] = row
        if not distributive_at(t):
            continue
        ties = still_tied(t, tied[t])
        if ties is None:
            continue
        if t + 1 < prefix_count:
            t += 1
            tied[t] = ties
            forced[t], commuting[t] = constraints(t)
            continue
        # A full table: every relabeling still tied fixes it.
        table = tuple(v for r in rows for v in r)
        if getattr(classify(FiniteNRack(n, m, table)), FILTER_FLAGS[filter_name]):
            count_total += factorial(m) // (1 + len(ties))
            representatives.append(table)

    return EnumerationReport(
        arity=n,
        size=m,
        filter=filter_name,
        count_total=count_total,
        count_up_to_iso=len(representatives),
        representatives=tuple(representatives),
    )
