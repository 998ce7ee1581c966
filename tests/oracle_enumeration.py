"""Enumeration oracles.

brute_force_enumerate iterates every one of the m^(m^n) candidate tables,
checks the axioms and filters with direct quantifier loops, and groups
survivors into isomorphism classes by canonical form (minimum over all
carrier relabelings).  Independent of the package under test.

row_scan_enumerate is the orderly search that tries every one of the m!
rows at every prefix it enters, with its placement counter: the reference
for the rows, the order and the budget count of nracks.enumeration.
"""

from itertools import permutations, product
from math import factorial


def _value(table, m, args):
    idx = 0
    for a in args:
        idx = idx * m + a
    return table[idx]


def _bijective_rows(table, m, n):
    rows = m ** (n - 1)
    for r in range(rows):
        if len(set(table[r * m : (r + 1) * m])) != m:
            return False
    return True


def _left_distributive(table, m, n):
    for xs in product(range(m), repeat=n - 1):
        for ys in product(range(m), repeat=n):
            lhs = _value(table, m, xs + (_value(table, m, ys),))
            rhs = _value(table, m, tuple(_value(table, m, xs + (y,)) for y in ys))
            if lhs != rhs:
                return False
    return True


def _weak_quandle(table, m, n):
    return all(_value(table, m, (x,) * n) == x for x in range(m))


def _quandle(table, m, n):
    for xs in product(range(m), repeat=n - 1):
        for y in set(xs):
            if _value(table, m, xs + (y,)) != y:
                return False
    return True


def _kei_condition(table, m, n):
    for xs in product(range(m), repeat=n - 1):
        for y in range(m):
            if _value(table, m, xs + (_value(table, m, xs + (y,)),)) != y:
                return False
    return True


def _passes(table, m, n, filter_name):
    if not (_bijective_rows(table, m, n) and _left_distributive(table, m, n)):
        return False
    if filter_name == "nrack":
        return True
    if filter_name == "weak-n-quandle":
        return _weak_quandle(table, m, n)
    if filter_name == "n-quandle":
        return _weak_quandle(table, m, n) and _quandle(table, m, n)
    if filter_name == "n-kei":
        return (
            _weak_quandle(table, m, n)
            and _quandle(table, m, n)
            and _kei_condition(table, m, n)
        )
    raise ValueError(filter_name)


def _relabel(table, m, n, sigma):
    out = [0] * len(table)
    for args in product(range(m), repeat=n):
        idx = 0
        for a in args:
            idx = idx * m + sigma[a]
        out[idx] = sigma[_value(table, m, args)]
    return tuple(out)


def canonical_form(table, m, n):
    return min(_relabel(table, m, n, sigma) for sigma in permutations(range(m)))


def brute_force_enumerate(n, m, filter_name="nrack"):
    """(count_total, sorted canonical class forms) over all tables."""
    count_total = 0
    classes = set()
    for table in product(range(m), repeat=m**n):
        if not _passes(table, m, n, filter_name):
            continue
        count_total += 1
        classes.add(canonical_form(table, m, n))
    return count_total, sorted(classes)


def _fixed_points(prefix, filter_name):
    if filter_name == "weak-n-quandle":
        return prefix[:1] if len(set(prefix)) == 1 else ()
    if filter_name in ("n-quandle", "n-kei"):
        return tuple(sorted(set(prefix)))
    return ()


def row_scan_enumerate(n, m, filter_name="nrack"):
    """(count_total, representatives in search order, placements): the
    orderly search that scans all m! rows in lexicographic order at every
    prefix it enters, each row tried counting as one placement; leaves are
    checked with the quantifier loops above."""
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
        if _passes(table, m, n, filter_name):
            count_total += factorial(m) // (1 + len(ties))
            representatives.append(table)

    return count_total, tuple(representatives), visited
