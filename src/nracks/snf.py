"""Smith normal form over the integers, with exact arbitrary-precision entries.

Shared engine for homology groups and presentation abelianizations.  All
arithmetic is on Python ints; no overflow is possible.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """Canonical form of a finitely generated abelian group:
    Z^free_rank plus cyclic factors Z/d_1 x ... x Z/d_r with d_1 | d_2 | ...
    and every d_i >= 2."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} violates divisibility")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion factors must be >= 2")

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank > 0:
            return None
        prod = 1
        for d in self.torsion:
            prod *= d
        return prod


def _identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


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
    U = _identity(rows)
    V = _identity(cols)

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

    def negate_row(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]

    def pivot(t):
        """Smallest nonzero |entry| in the trailing submatrix, or None."""
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # Clear the pivot column, then the pivot row; repeat while the
            # pivot keeps shrinking to a proper divisor.
            for i in range(t + 1, rows):
                if S[i][t] != 0:
                    add_row(t, i, -(S[i][t] // S[t][t]))
            if any(S[i][t] != 0 for i in range(t + 1, rows)):
                pos = pivot(t)
                swap_rows(t, pos[0])
                swap_cols(t, pos[1])
                continue
            for j in range(t + 1, cols):
                if S[t][j] != 0:
                    add_col(t, j, -(S[t][j] // S[t][t]))
            if any(S[t][j] != 0 for j in range(t + 1, cols)):
                pos = pivot(t)
                swap_rows(t, pos[0])
                swap_cols(t, pos[1])
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
            negate_row(t)
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
    """Nonzero diagonal entries d_1 | d_2 | ... of the Smith form of M."""
    _, S, _ = smith_normal_form(M)
    return tuple(S[i][i] for i in range(min(len(S), len(S[0]) if S else 0)) if S[i][i] != 0)


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


def _factorize(d: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def invariants_from_cyclic_orders(orders) -> tuple[int, ...]:
    """Canonical divisibility chain of a direct sum of cyclic groups Z/o.

    Orders equal to 1 are dropped; the result d_1 | d_2 | ... is unique.
    """
    primes: dict[int, list[int]] = {}
    for o in orders:
        if o == 1:
            continue
        if o < 1:
            raise ValueError(f"cyclic order must be positive, got {o}")
        for p, e in _factorize(o).items():
            primes.setdefault(p, []).append(e)
    if not primes:
        return ()
    width = max(len(v) for v in primes.values())
    chain = [1] * width
    for p, exps in primes.items():
        exps = sorted(exps)
        pad = [0] * (width - len(exps)) + exps
        for i, e in enumerate(pad):
            chain[i] *= p**e
    return tuple(d for d in chain if d > 1)
