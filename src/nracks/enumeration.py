"""Exhaustive enumeration of n-rack tables up to isomorphism.

The search is orderly (Read, "Every one a winner", 1978): it assigns one
translation row per argument prefix, in lexicographic prefix order, and
keeps a partial table only while no relabeling of the carrier can make
it lexicographically smaller.  Every complete table the search accepts
is therefore the least member of its isomorphism class, tables come out
in lexicographic order, and no two are isomorphic.  The labeled tables
of a class number m!/|Aut T|, where the automorphisms of T are the
relabelings that leave it unchanged.  A relabeled row is compared with
the table's on its first two entries before it is built, since most
relabelings differ there, and each distinct row's action on the prefixes,
its inverse and the inverse's action are computed once per call.

Rows are permutations of the carrier (translation bijectivity row by
row), and each prefix tries only the rows its constraints allow, in
lexicographic order.  Left distributivity instances whose other rows are
all placed either pin the row down or make it commute with an earlier
row.  A pinned row is the only candidate (there is none when two pins
disagree) and still has to pass the filter.  Otherwise the candidates are
the filter's rows (the permutations fixing the elements the filter
names, involutions for n-keis) that lie in the centralizer of every such
earlier row; each centralizer is computed once per call.  The remaining
instances are checked as soon as all rows they touch are assigned.  So
a complete table the search accepts has passed every distributivity
instance and, row by row, the filter, and it is emitted as it stands.
Entering a prefix counts m! placements, one for each row a scan over
every permutation would try, so the budget is passed exactly where that
scan passes it.
"""

from itertools import chain, permutations, product, repeat
from math import factorial

from ._frozen import Frozen
from .core import entrywise, first_product_past
from .errors import BudgetExceededError

DEFAULT_CANDIDATE_BUDGET = 2_000_000

FILTERS = ("nrack", "weak-n-quandle", "n-quandle", "n-kei")


class EnumerationReport(Frozen):
    _fields = ("arity", "size", "filter", "count_total", "count_up_to_iso", "representatives")


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
    orbit-stabilizer.  Every prefix entered counts m! placements, however
    few rows its constraints leave; BudgetExceededError is raised once the
    placements pass the budget (no partial results)."""
    if filter_name not in FILTERS:
        raise ValueError(f"unknown filter {filter_name!r}; choose from {FILTERS}")
    m, n = size, arity
    if n < 2 or m < 1:
        raise ValueError("need arity >= 2 and size >= 1")
    # Every search reaches the all-identity table, so it enters each of the
    # m^(n-1) prefixes at least once, and each entry counts m! placements:
    # if m! * m^(n-1) passes the budget, so does the search.
    if _passes_budget(chain(range(2, m + 1), repeat(m, n - 1 if m > 1 else 0)), budget):
        raise _budget_error(budget, max(budget, 0) + 1)
    # On one element the only prefix is (0,...,0); the prefix (0,) has the
    # same entries, fixed points and index, and costs nothing in n.
    length = n - 1 if m > 1 else 1
    prefix_count = m**length
    all_rows = list(permutations(range(m)))
    fixed = [_fixed_points(p, filter_name) for p in product(range(m), repeat=length)]
    involutive = filter_name == "n-kei"

    def inverse_of(row):
        return sorted(range(m), key=row.__getitem__)

    def commutes(a, b) -> bool:
        return [a[y] for y in b] == [b[y] for y in a]

    def admissible(fix, row) -> bool:
        if any(row[x] != x for x in fix):
            return False
        return not involutive or all(row[row[y]] == y for y in range(m))

    # The filter's rows for each distinct fixed-point set, and the
    # centralizer of each row some row must commute with, as indices into
    # all_rows in lexicographic order.
    filter_rows = {f: [i for i, r in enumerate(all_rows) if admissible(f, r)] for f in set(fixed)}
    centralizers: dict[tuple[int, ...], set[int]] = {}

    # Per prefix t on the search path: the row placed there, and its entry
    # in actions: (the index of phi.p for every prefix p, phi^-1, the index
    # of phi^-1.p), computed once per distinct row.
    rows, placed = [None] * prefix_count, [None] * prefix_count
    actions = {}
    placements = 0
    count_total = 0
    representatives: list[tuple[int, ...]] = []

    # A distributivity instance has an outer prefix px, an inner prefix py
    # and the acted prefix pz = phi.py, phi the row at px: it says
    # phi . row_py = row_pz . phi.  Those whose latest row is t are
    #   px = t, py and pz up to t: checked by distributive_at;
    #   px < t, py = pz = t: row t commutes with phi (candidates);
    #   px < t, py = t, pz < t: row t is phi^-1 . row_pz . phi;
    #   px < t, py < t, pz = t: row t is phi . row_py . phi^-1.
    # The last two depend on the rows before t only, and pin row t down.

    def constraints(t: int):
        """(forced, commuting) at prefix t, given the rows before t: the row
        the pinning instances force (() if two force different rows, None
        if none applies), and the set of rows row t must commute with."""
        forced, commuting = None, set()
        for px in range(t):
            phi = rows[px]
            act, inverse, inverse_act = placed[px]
            pins = []
            pz = act[t]
            if pz == t:
                commuting.add(phi)
            elif pz < t:
                pins.append(tuple([inverse[rows[pz][phi[y]]] for y in range(m)]))
            py = inverse_act[t]
            if py < t:
                pins.append(tuple([phi[rows[py][inverse[z]]] for z in range(m)]))
            for pin in pins:
                if forced is None:
                    forced = pin
                elif pin != forced:
                    return (), commuting
        return forced, commuting

    def candidates(t: int) -> list[tuple[int, ...]]:
        """The rows prefix t may take, in lexicographic order: the forced
        row alone, or the filter's rows that commute with every row in
        commuting.  Entering a prefix counts the m! placements of a scan
        over every row."""
        nonlocal placements
        placements += len(all_rows)
        if placements > budget:
            raise _budget_error(budget, max(budget, 0) + 1)
        forced, commuting = constraints(t)
        if forced is not None:
            ok = forced and admissible(fixed[t], forced)
            return [forced] if ok and all(commutes(forced, r) for r in commuting) else []
        pool = filter_rows[fixed[t]]
        for phi in commuting:
            if phi not in centralizers:
                centralizers[phi] = {i for i, r in enumerate(all_rows) if commutes(phi, r)}
            pool = [i for i in pool if i in centralizers[phi]]
        return [all_rows[i] for i in pool]

    def distributive_at(t: int) -> bool:
        # The instances with outer prefix t: the others are in candidates.
        phi, act = rows[t], placed[t][0]
        for py in range(t + 1):
            pz = act[py]
            if pz <= t:
                row_y, row_z = rows[py], rows[pz]
                if phi[row_y[0]] != row_z[phi[0]]:
                    return False
                if [phi[y] for y in row_y] != [row_z[y] for y in phi]:
                    return False
        return True

    # Relabeling s as (s, s^-1, the index of s^-1.p for every prefix p, and
    # prefix_count past the last, where a relabeling tied on every row waits).
    relabelings = [
        (sigma, inverse := inverse_of(sigma), entrywise(inverse, length, m) + [prefix_count])
        for sigma in all_rows[1:]
    ]

    def still_tied(t: int, tied):
        """Compare T with each relabeling T^s in tied, a (s, q, w) list whose
        rows before q agree, on the rows of both now assigned; row q of T^s
        is s . row[s^-1 q] . s^-1, so it can be compared once prefix
        w = max(q, s^-1 q) is placed.  None if some T^s is smaller; else the
        (s, q, w) still equal so far.  Both sides' earlier rows are fixed, so
        a smaller T^s stays smaller in every completion, and a larger one
        can be dropped.  Row q of T^s is compared on its entries 0 and 1
        first (a relabeling moves at least two points, so m >= 2), and built
        whole only when both tie: most relabelings differ there."""
        out = []
        for entry in tied:
            if entry[2] > t:
                out.append(entry)
                continue
            relabeling, q, _ = entry
            sigma, inverse, acted = relabeling
            while True:
                row, target = rows[acted[q]], rows[q]
                image, want = sigma[row[inverse[0]]], target[0]
                if image == want:
                    image, want = sigma[row[inverse[1]]], target[1]
                    if image == want:
                        image, want = tuple([sigma[row[y]] for y in inverse]), target
                if image != want:
                    if image < want:
                        return None
                    break
                q += 1
                if (wait := max(q, acted[q])) > t:
                    out.append((relabeling, q, wait))
                    break
        return out

    # Per prefix t: the relabelings (all but the identity) that agree with
    # the table on every row compared before row t was placed, and the rows
    # prefix t has still to try.
    tied: list[list | None] = [None] * prefix_count
    options: list = [None] * prefix_count
    tied[0] = [(relabeling, 0, relabeling[2][0]) for relabeling in relabelings]
    options[0] = iter(candidates(0))
    t = 0
    while t >= 0:
        row = rows[t] = next(options[t], None)
        if row is None:
            t -= 1
            continue
        if row not in actions:
            inverse = inverse_of(row)
            actions[row] = (entrywise(row, length, m), inverse, entrywise(inverse, length, m))
        placed[t] = actions[row]
        if not distributive_at(t):
            continue
        ties = still_tied(t, tied[t])
        if ties is None:
            continue
        if t + 1 < prefix_count:
            t += 1
            tied[t] = ties
            options[t] = iter(candidates(t))
            continue
        # A full table: every relabeling still tied fixes it.
        count_total += factorial(m) // (1 + len(ties))
        representatives.append(tuple(v for r in rows for v in r))

    return EnumerationReport(
        arity=n,
        size=m,
        filter=filter_name,
        count_total=count_total,
        count_up_to_iso=len(representatives),
        representatives=tuple(representatives),
    )
