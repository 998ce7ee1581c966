"""Smith normal form over the integers, with exact arbitrary-precision entries.

Shared engine for homology groups and presentation abelianizations.  All
arithmetic is on Python ints; no overflow is possible.

Invariant factors come from sparse_invariant_factors, which works on sparse
columns: it eliminates +-1 pivots in Markowitz order, each contributing the
factor 1.  What is left, the residual, is factored on its short side, of
size r: its long-side vectors are inserted into an echelon basis of Z^r by
exact division and 2x2 extended-gcd steps, and only that basis, at most
r x r, goes to the dense smith_normal_form (after Dumas, Saunders &
Villard, J. Symb. Comp. 32, 2001, and Cohen, A Course in Computational
Algebraic Number Theory, 1993, section 2.4).  Every answer is certified
before it is returned: the unit-pivot steps are unimodular by
construction, every residual vector must reduce to zero against the basis
by exact division, and the basis's S = U*B*V is checked exactly.  The
number of factors, the rank, is certified against a second source:
sparse_invariant_factors takes the rank of its input modulo
CERTIFICATE_PRIME from a separate elimination (_rank_mod_p) in another
order and another arithmetic: columns shortest first, each reduced by its
highest row, with residues held in the symmetric range [-p/2, p/2].

certified_factors is the same engine without that rank, and it returns the
keys of the +-1 pivots.  A chain complex uses it to factor d_k from fewer
columns than d_k^T has, leaving out those that the pivots on d_{k-1} make
dependent, and certifies the rank another way: a complex built from a
rack knows the rank of every d_k from the orbit count of the rack, and a
complex built by hand takes the mod-p rank of the whole map (see
homology.ChainComplex).
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

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank > 0:
            return None
        prod = 1
        for d in self.torsion:
            prod *= d
        return prod


def smith_normal_form(M):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Args:
      M: rectangular matrix as a list of rows of ints (rows may be empty).

    Returns:
      (U, S, V) with S = U*M*V, where S is diagonal with nonnegative
      entries d_1 | d_2 | ..., and U, V are square unimodular matrices of
      sizes rows(M) and cols(M).  The product identity is re-checked
      exactly before returning.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    S = [list(row) for row in M]
    if any(len(row) != cols for row in S):
        raise ValueError("ragged matrix")
    U, V = ([[int(i == j) for j in range(k)] for i in range(k)] for k in (rows, cols))

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for row in S:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def pivot(t):
        """Move the smallest nonzero |entry| of the trailing submatrix to
        (t, t); False when there is none."""
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is not None:
            swap_rows(t, best[0])
            swap_cols(t, best[1])
        return best is not None

    t = 0
    while t < min(rows, cols):
        if not pivot(t):
            break
        while True:
            # Clear the pivot column, then the pivot row; repeat while the
            # pivot keeps shrinking to a proper divisor.
            for i in range(t + 1, rows):
                if S[i][t] != 0:
                    add_row(t, i, -(S[i][t] // S[t][t]))
            if any(S[i][t] != 0 for i in range(t + 1, rows)):
                pivot(t)
                continue
            for j in range(t + 1, cols):
                if S[t][j] != 0:
                    add_col(t, j, -(S[t][j] // S[t][t]))
            if any(S[t][j] != 0 for j in range(t + 1, cols)):
                pivot(t)
                continue
            # Pivot must divide every remaining entry; if not, fold the
            # offending row into the pivot row and restart this block.
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if S[i][j] % S[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if S[t][t] < 0:
            S[t], U[t] = [-a for a in S[t]], [-a for a in U[t]]
        t += 1

    _assert_product(U, M, V, S)
    return U, S, V


def _sparse_product(A, B):
    """A*B for matrices given as lists of {column: nonzero entry} rows."""
    out = []
    for row in A:
        acc: dict[int, int] = {}
        for k, a in row.items():
            for j, b in B[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append(acc)
    return out


def _assert_product(U, M, V, S):
    """Exact check of S = U*(M*V), summing over nonzero entries only."""
    Us, Ms, Vs = ([{j: a for j, a in enumerate(row) if a} for row in A] for A in (U, M, V))
    UMV = _sparse_product(Us, _sparse_product(Ms, Vs))
    for i, row in enumerate(S):
        for j, s in enumerate(row):
            if UMV[i].get(j, 0) != s:
                raise AssertionError("smith normal form verification failed")


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
    modified.  Raises AssertionError, and returns nothing, when the
    residual's membership or product check or the rank certificate fails.
    """
    return certify_rank_mod_p(columns, certified_factors(columns).factors)


def certify_rank_mod_p(columns, factors) -> tuple[int, ...]:
    """The factors, once the rank modulo CERTIFICATE_PRIME of the matrix with
    the given columns is the number of them that the prime does not divide;
    AssertionError otherwise."""
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

    The elimination's steps are unimodular, and the residual's membership
    and product checks raise AssertionError, returning nothing, when they
    fail.  The number of factors is not checked here: the caller
    certifies the rank, by certify_rank_mod_p on the same columns
    (sparse_invariant_factors) or by a rank it knows on other grounds
    (homology.ChainComplex).
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


# A basis vector whose largest entry passes this many bits triggers a
# Hermite reduction of the basis; the limit then rises to twice the bits of
# the largest entry left, so entries that the reduction cannot shrink do
# not trigger it again until they double.
_HERMITE_BITS = 64


def _residual_factors(residual) -> tuple[int, ...]:
    """Invariant factors of the residual columns, from an echelon basis of
    the lattice on their short side.

    With r the smaller of the residual's row and column counts, each
    vector of the long side (a row when the columns are fewer, else a
    column) lies in Z^r.  Row operations do not change invariant factors,
    so those of the residual are those of any basis of the lattice the
    long-side vectors span.  _echelon_basis builds one, at most r vectors,
    by integer steps alone; every input vector must then reduce to zero
    against it by exact division, which shows the two lattices are equal.
    The checked dense smith_normal_form of the basis, at most r x r, gives
    the factors.  Raises AssertionError when a vector is not a member.
    """
    if not residual:
        return ()
    row_keys = sorted({i for col in residual for i in col})
    if len(residual) <= len(row_keys):
        by_row: dict = {}
        for j, col in enumerate(residual):
            for i, v in col.items():
                by_row.setdefault(i, {})[j] = v
        vectors, short_side = list(by_row.values()), range(len(residual))
    else:
        vectors, short_side = residual, row_keys
    basis = _echelon_basis(vectors)
    if any(_reduce(dict(vector), basis) for vector in vectors):
        raise AssertionError("echelon residual verification failed")
    dense = [[b.get(t, 0) for t in short_side] for _, b in sorted(basis.items())]
    _, S, _ = smith_normal_form(dense)
    return tuple(S[t][t] for t in range(len(S)) if S[t][t])


def _echelon_basis(vectors) -> dict:
    """A basis of the lattice the sparse vectors span, as {lead: vector}
    with every vector's lowest nonzero position, its lead, distinct.

    Each vector is reduced by the basis vector at its lead: by exact
    division where that pivot divides the lead entry (_reduce), otherwise
    by the 2x2 step of _gcd_step, which leaves the gcd in the basis.
    Either step has determinant 1, so the lattice never changes.  A vector
    whose lead no basis vector has joins the basis.  The input is not
    modified.
    """
    basis: dict = {}
    limit = _HERMITE_BITS
    for vector in vectors:
        v = _reduce(dict(vector), basis)
        while v:
            lead = min(v)
            b = basis.get(lead)
            if b is None:
                basis[lead], v = v, {}
            else:
                (s, t), (x, y) = _gcd_step(b[lead], v[lead])
                basis[lead] = _combination(s, b, t, v)
                v = _reduce(_combination(x, b, y, v), basis)
            if _bits(basis[lead]) > limit:
                _hermite_reduce(basis)
                limit = max(limit, 2 * max(_bits(w) for w in basis.values()))
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


def _bits(v) -> int:
    return max(abs(x) for x in v.values()).bit_length()


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
