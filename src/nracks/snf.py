"""Smith normal form over the integers, with exact arbitrary-precision entries.

Shared engine for homology groups and presentation abelianizations.  All
arithmetic is on Python ints; no overflow is possible.

Invariant factors come from sparse_invariant_factors, which works on sparse
columns: it eliminates +-1 pivots in Markowitz order, each contributing the
factor 1.  What is left, the residual, is factored on its short side, of
size r: its long-side vectors, each in Z^r, go to _smith_factors, which
alternates echelon bases on rows and on columns until the matrix is
diagonal (after Kannan & Bachem, SIAM J. Comput. 8, 1979, and Cohen, A
Course in Computational Algebraic Number Theory, 1993, section 2.4).  Each
echelon basis is built by exact division and 2x2 extended-gcd steps, and
it is Hermite-reduced after every vector that changes it, which keeps its
entries near the size of its pivots: reduced only once an entry passed 64
bits, the basis for d_13 of the quandle complex of the dihedral quandle R3
grew entries of 12,406 bits.  The diagonal is folded into a divisibility
chain by gcd and lcm alone.  The dense smith_normal_form is the same
engine on the rows of a dense matrix.

Every answer is certified before it is returned: the unit-pivot steps are
unimodular by construction, and each echelon pass takes integer steps
alone, which keep the lattice, while every vector it was given must reduce
to zero against its basis by exact division, which proves it.  The number
of factors, the rank, is certified against a second source:
sparse_invariant_factors takes the rank of its input modulo
CERTIFICATE_PRIME from a separate elimination (_rank_mod_p) in another
order and another arithmetic: columns shortest first, each reduced by its
highest row, with residues held in the symmetric range [-p/2, p/2].

certified_factors is the same engine without that rank, and it returns the
keys of the +-1 pivots.  A chain complex uses it to factor d_k from fewer
columns than d_k^T has, leaving out those that the pivots on d_{k-1} make
dependent, and certifies the rank another way: every complex is built
from a rack, and it knows the rank of every d_k from the orbit count of
the rack (see homology.ChainComplex).
"""

from collections import defaultdict, namedtuple
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from ._frozen import Frozen

# 2^61 - 1, a Mersenne prime: the rank of a matrix over F_p is the number
# of its invariant factors that p does not divide.
CERTIFICATE_PRIME = 2**61 - 1


class AbelianGroupInvariants(Frozen):
    """Canonical form of a finitely generated abelian group:
    Z^free_rank plus cyclic factors Z/d_1 x ... x Z/d_r with d_1 | d_2 | ...
    and every d_i >= 2."""

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        torsion = tuple(torsion)
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {torsion} violates divisibility")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion factors must be >= 2")
        self._store(free_rank, torsion)


def smith_normal_form(M):
    """Smith normal form of an integer matrix, by _smith_factors on its rows.

    Args:
      M: rectangular matrix as a list of rows of ints (rows may be empty).

    Returns:
      S, a matrix of M's shape that is zero off the diagonal and holds
      d_1 | d_2 | ... >= 0 on it.
    """
    cols = len(M[0]) if M else 0
    if any(len(row) != cols for row in M):
        raise ValueError("ragged matrix")
    S = [[0] * cols for _ in M]
    for t, d in enumerate(_smith_factors([{j: v for j, v in enumerate(row) if v} for row in M])):
        S[t][t] = d
    return S


def invariant_factors(M) -> tuple[int, ...]:
    """Nonzero diagonal entries d_1 | d_2 | ... of the Smith form of the
    dense matrix M (a list of rows), by sparse_invariant_factors."""
    cols = len(M[0]) if M else 0
    if any(len(row) != cols for row in M):
        raise ValueError("ragged matrix")
    return sparse_invariant_factors(
        [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(cols)]
    )


def sparse_invariant_factors(columns) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of the integer matrix whose
    column j is columns[j], a {row: entry} dict.

    Rows are arbitrary hashable, orderable keys; rows that no column
    mentions are zero rows and change nothing.  The columns are not
    modified.  Raises AssertionError, and returns nothing, when a
    membership check on the residual fails, or when the rank modulo
    CERTIFICATE_PRIME is not the number of factors the prime does not
    divide.
    """
    factors = certified_factors(columns).factors
    rank = len(_rank_mod_p(columns))
    if rank != sum(1 for d in factors if d % CERTIFICATE_PRIME):
        raise AssertionError(f"rank certificate failed: rank {rank} modulo {CERTIFICATE_PRIME} "
                             f"against {len(factors)} invariant factors")
    return factors


class Factorization(namedtuple("Factorization", "factors unit_keys")):
    """Invariant factors, with the row keys of the +-1 pivots.

    unit_keys: with the pivot columns they index a square submatrix that
    is unimodular: column operations among the pivot columns make it
    triangular with +-1 on the diagonal.
    """

    __slots__ = ()


def certified_factors(columns) -> Factorization:
    """Invariant factors of the matrix with the given columns, with the keys
    of its +-1 pivots.

    The elimination's steps are unimodular, and the membership checks on
    the residual raise AssertionError, returning nothing, when they fail.
    The number of factors is not checked here: the caller
    certifies the rank, by the rank modulo CERTIFICATE_PRIME of the same
    columns (sparse_invariant_factors) or by a rank it knows on other
    grounds (homology.ChainComplex).
    """
    unit_keys, residual = _eliminate_unit_pivots(columns)
    return Factorization((1,) * len(unit_keys) + _residual_factors(residual), unit_keys)


def _eliminate_unit_pivots(columns):
    """Eliminate +-1 pivots from a copy of the columns.

    Pivots are taken in Markowitz order: the shortest column holding a
    +-1 entry first, and within it the +-1 entry whose row is counted
    shortest.  Column operations clear the pivot's row in the other
    columns; the pivot's row and column are then dropped, which a row
    operation would justify, as the pivot row is zero outside the pivot.
    Each step is unimodular and splits off the invariant factor 1.

    A row's count is the length of the list of every column that has held
    it: fill-in appends to the list and nothing is ever removed, so the
    count is an upper bound, and a pivot skips the listed columns that no
    longer hold its row.

    Returns (the rows of the pivots, residual columns), the residual
    holding the nonzero columns that are left, none of them with a +-1
    entry.
    """
    cols = {}
    rows = defaultdict(list)
    for j, col in enumerate(columns):
        entries = {i: v for i, v in col.items() if v} if 0 in col.values() else dict(col)
        if entries:
            cols[j] = entries
            for i in entries:
                rows[i].append(j)
    # (length, column) entries go stale when a column changes length; each
    # change pushes a fresh entry, and a column with no unit entry waits
    # until it changes again.
    heap = [(len(col), j) for j, col in cols.items()]
    heapify(heap)
    pivots = set()
    while heap:
        length, j = heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != length:
            continue
        best = None
        for i, v in col.items():
            if v == 1 or v == -1:
                count = len(rows[i])
                if best is None or count < best_count:
                    best, best_count = i, count
        if best is None:
            continue
        u = col[best]
        del cols[j]
        for k in rows.pop(best):
            other = cols.get(k)
            if other is None:
                continue
            q = other.get(best)
            if q is None:
                continue
            q *= u
            for i, v in col.items():
                w = other.get(i)
                if w is None:
                    other[i] = -q * v
                    rows[i].append(k)
                else:
                    w -= q * v
                    if w:
                        other[i] = w
                    else:
                        del other[i]
            if other:
                heappush(heap, (len(other), k))
            else:
                del cols[k]
        pivots.add(best)
    return pivots, list(cols.values())


def _residual_factors(residual) -> tuple[int, ...]:
    """Invariant factors of the residual columns, by _smith_factors on the
    vectors of their long side.

    With r the smaller of the residual's row and column counts, each
    vector of the long side (a row when the columns are fewer, else a
    column) lies in Z^r, so no echelon basis is ever more than r x r.
    """
    if not residual:
        return ()
    if len(residual) <= len({i for col in residual for i in col}):
        residual = _transpose(residual)
    return _smith_factors(residual)


def _smith_factors(vectors) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of the matrix whose rows
    are the sparse vectors, by alternating echelon bases (after Kannan &
    Bachem, SIAM J. Comput. 8, 1979).

    Row operations do not change invariant factors, so those of the
    vectors are those of any basis of the lattice they span, and those of
    a basis are those of its transpose.  Each pass takes the certified
    echelon basis (_certified_basis) of the previous pass's transpose,
    until every basis vector holds one entry: the matrix is then diagonal
    up to the order of its columns, and its entries, folded into a
    divisibility chain, are the factors, with a 1 for each entry the fold
    drops.  Raises AssertionError when a pass fails its check.
    """
    basis = _certified_basis(vectors)
    while any(len(b) > 1 for b in basis.values()):
        basis = _certified_basis(_transpose([b for _, b in sorted(basis.items())]))
    chain = invariants_from_cyclic_orders(b[p] for p, b in basis.items())
    return (1,) * (len(basis) - len(chain)) + chain


def _certified_basis(vectors) -> dict:
    """The _echelon_basis of the vectors, once every vector reduces to zero
    against it by exact division.  The basis is built by integer steps
    alone, so it lies in the vectors' lattice, and the vectors lie in its
    lattice: the two lattices are equal.  Raises AssertionError when a
    vector is not a member."""
    basis = _echelon_basis(vectors)
    if any(_reduce(dict(vector), basis) for vector in vectors):
        raise AssertionError("echelon residual verification failed")
    return basis


def _transpose(vectors) -> list:
    """The transpose of the matrix whose rows are the sparse vectors: one
    {row number: entry} vector per position that some vector holds."""
    by_position: dict = {}
    for j, vector in enumerate(vectors):
        for t, v in vector.items():
            by_position.setdefault(t, {})[j] = v
    return list(by_position.values())


def _echelon_basis(vectors) -> dict:
    """A basis of the lattice the sparse vectors span, as {lead: vector}
    with every vector's lowest nonzero position, its lead, distinct.

    Each vector is reduced by the basis vector at its lead: by exact
    division where that pivot divides the lead entry (_reduce), otherwise
    by the 2x2 step of _gcd_step, which leaves the gcd in the basis.
    Either step has determinant 1, so the lattice never changes.  A vector
    whose lead no basis vector has joins the basis.  After each vector
    that changes the basis, _hermite_reduce brings every entry above a
    pivot into [0, pivot), so the gcd steps never compound entries that
    a pivot could have cut down; a vector that reduces to zero changes
    nothing and is skipped.  The input is not modified.
    """
    basis: dict = {}
    for vector in vectors:
        v = _reduce(dict(vector), basis)
        if not v:
            continue
        while v:
            lead = min(v)
            b = basis.get(lead)
            if b is None:
                basis[lead], v = v, {}
            else:
                (s, t), (x, y) = _gcd_step(b[lead], v[lead])
                basis[lead] = _combination(s, b, t, v)
                v = _reduce(_combination(x, b, y, v), basis)
        _hermite_reduce(basis)
    return basis


def _reduce(v, basis):
    """Reduce the sparse vector v in place by exact division against the
    basis, lead by lead, until it vanishes or its lead entry is not a
    multiple of a basis pivot; returns v."""
    while v:
        lead = min(v)
        b = basis.get(lead)
        if b is None or v[lead] % b[lead]:
            break
        _add_multiple(v, b, -(v[lead] // b[lead]))
    return v


def _gcd_step(a, c):
    """The 2x2 integer matrix [[s, t], [x, y]] of determinant 1 with
    s*a + t*c = g = +-gcd(a, c) and x*a + y*c = 0, for a != 0."""
    s0, s1, t0, t1, g, h = 1, 0, 0, 1, a, c
    while h:
        q = g // h
        g, h = h, g - q * h
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (s0, t0), (-c // g, a // g)


def _hermite_reduce(basis):
    """Reduce each basis entry above a pivot to [0, pivot), pivots made
    positive, by adding multiples of the pivot's vector: unimodular steps.
    Ascending leads, as a step at lead p changes only positions >= p."""
    leads = sorted(basis)
    for p in leads:
        b = basis[p]
        if b[p] < 0:
            for t in b:
                b[t] = -b[t]
        for lead in leads:
            if lead >= p:
                break
            w = basis[lead]
            q = w.get(p, 0) // b[p]
            if q:
                _add_multiple(w, b, -q)


def _add_multiple(v, b, q):
    """v += q*b in place, for sparse vectors."""
    for t, x in b.items():
        w = v.get(t, 0) + q * x
        if w:
            v[t] = w
        else:
            del v[t]


def _combination(s, b, t, v) -> dict:
    """The sparse vector s*b + t*v."""
    out = {}
    for key in b.keys() | v.keys():
        w = s * b.get(key, 0) + t * v.get(key, 0)
        if w:
            out[key] = w
    return out


def _rank_mod_p(columns, p: int = CERTIFICATE_PRIME) -> set:
    """Rank over F_p of the matrix with the given sparse columns, as the
    highest rows of the vectors it keeps: as many as the rank.

    Independent of the unit-pivot elimination: each column is reduced
    against the kept ones by its highest row until it vanishes or its
    highest row is new, when it is normalized and kept.  The shortest
    columns go first, so the kept pivots stay sparse and later reductions
    cost less; the rank does not depend on the order.  Residues are held
    in the symmetric range [-p/2, p/2], where 0 is the only multiple of p,
    so +-1 entries stay small ints; an entry is reduced modulo p only when
    it leaves that range.
    """
    half = p // 2
    kept = {}
    for col in sorted(columns, key=len):
        v = {}
        for i, x in col.items():
            if not -half <= x <= half:
                x = (x + half) % p - half
            if x:
                v[i] = x
        while v:
            high = max(v)
            pivot = kept.get(high)
            if pivot is None:
                inverse = pow(v[high], -1, p)
                if inverse > half:
                    inverse -= p
                for i, x in v.items():
                    x *= inverse
                    v[i] = x if -half <= x <= half else (x + half) % p - half
                kept[high] = v
                break
            q = v[high]
            for i, b in pivot.items():
                w = v.get(i, 0) - q * b
                if not -half <= w <= half:
                    w = (w + half) % p - half
                if w:
                    v[i] = w
                else:
                    # -q*b is a unit, so w vanishes only where v has an entry.
                    del v[i]
    return set(kept)


def determinant(M) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    k = len(M)
    if any(len(row) != k for row in M):
        raise ValueError("determinant requires a square matrix")
    if k == 0:
        return 1
    A = [list(row) for row in M]
    sign = 1
    prev = 1
    for t in range(k - 1):
        if A[t][t] == 0:
            for i in range(t + 1, k):
                if A[i][t] != 0:
                    A[t], A[i] = A[i], A[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                A[i][j] = (A[i][j] * A[t][t] - A[i][t] * A[t][j]) // prev
            A[i][t] = 0
        prev = A[t][t]
    return sign * A[k - 1][k - 1]


def group_from_diagonal(diagonal, ambient_rank: int) -> AbelianGroupInvariants:
    """Cokernel Z^ambient_rank / image, given the Smith diagonal of the image.

    diagonal: the invariant factors (nonzero diagonal entries).
    """
    torsion = [d for d in diagonal if d > 1]
    return AbelianGroupInvariants(
        free_rank=ambient_rank - len(diagonal), torsion=tuple(torsion)
    )


def invariants_from_cyclic_orders(orders) -> tuple[int, ...]:
    """Canonical divisibility chain of a direct sum of cyclic groups Z/o.

    Orders equal to 1 are dropped; the result d_1 | d_2 | ... is unique.
    No order is factored: each is folded into the chain from the bottom by
    Z/d + Z/o = Z/gcd(d, o) + Z/lcm(d, o), the gcd taking d's place and the
    lcm moving up.
    """
    chain: list[int] = []
    for o in orders:
        if o < 1:
            raise ValueError(f"cyclic order must be positive, got {o}")
        for i, d in enumerate(chain):
            chain[i], o = gcd(d, o), lcm(d, o)
        chain.append(o)
    return tuple(d for d in chain if d > 1)
