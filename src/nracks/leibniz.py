"""Leibniz n-algebra verification on structure-constant tensors.

All coefficients are exact rationals; every comparison is exact.  The
fundamental identity

    [x_1,...,x_{n-1},[y_1,...,y_n]]
        = sum_{i=1}^n [y_1,...,y_{i-1},[x_1,...,x_{n-1},y_i],y_{i+1},...,y_n]

is checked on basis tuples, which suffices by multilinearity.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class LeibnizNAlgebra:
    """Structure constants of an n-linear bracket on a d-dimensional space.

    constants maps an argument tuple (i_1,...,i_n) of basis indices to the
    coefficient vector of [e_{i_1},...,e_{i_n}]; absent tuples are zero.
    """

    dimension: int
    arity: int
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.arity < 2:
            raise ValueError("arity must be >= 2")
        clean = {}
        for args, vec in self.constants.items():
            args = tuple(args)
            if len(args) != self.arity or any(not (0 <= i < self.dimension) for i in args):
                raise ValueError(f"argument tuple {args} out of range")
            vec = tuple(_as_fraction(v) for v in vec)
            if len(vec) != self.dimension:
                raise ValueError("structure vector has wrong length")
            if any(vec):
                clean[args] = vec
        object.__setattr__(self, "constants", clean)

    @classmethod
    def from_entries(cls, dimension: int, arity: int, entries) -> "LeibnizNAlgebra":
        """entries: iterable of (args, out, value) triples, zero elsewhere."""
        table: dict[tuple, list[Fraction]] = {}
        for args, out, value in entries:
            args = tuple(args)
            vec = table.setdefault(args, [Fraction(0)] * dimension)
            vec[out] += _as_fraction(value)
        return cls(dimension, arity, {a: tuple(v) for a, v in table.items()})

    def structure_vector(self, args) -> tuple[Fraction, ...]:
        return self.constants.get(tuple(args), (Fraction(0),) * self.dimension)

    def zero_vector(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) * self.dimension


@dataclass(frozen=True)
class LinearOperator:
    """A d x d exact-rational matrix; matrix[i][j] is the e_i coefficient
    of the image of e_j."""

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(_as_fraction(v) for v in row) for row in self.matrix)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "matrix", rows)

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def apply(self, v) -> tuple[Fraction, ...]:
        v = [_as_fraction(x) for x in v]
        if len(v) != self.dimension:
            raise ValueError("vector dimension mismatch")
        return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in self.matrix)

    @classmethod
    def zero(cls, dimension: int) -> "LinearOperator":
        return cls(tuple((Fraction(0),) * dimension for _ in range(dimension)))


def bracket(L: LeibnizNAlgebra, *vectors) -> tuple[Fraction, ...]:
    """Multilinear extension of the structure constants to coefficient vectors."""
    if len(vectors) != L.arity:
        raise ValueError(f"bracket takes {L.arity} vectors")
    vs = []
    for v in vectors:
        v = tuple(_as_fraction(x) for x in v)
        if len(v) != L.dimension:
            raise ValueError("vector dimension mismatch")
        vs.append(v)
    out = [Fraction(0)] * L.dimension
    for args, vec in L.constants.items():
        coeff = Fraction(1)
        for v, i in zip(vs, args):
            coeff *= v[i]
            if not coeff:
                break
        if coeff:
            for j in range(L.dimension):
                out[j] += coeff * vec[j]
    return tuple(out)


def _basis(dimension: int, index: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if j == index else 0) for j in range(dimension))


def check_fundamental_identity(L: LeibnizNAlgebra):
    """Exhaustive basis check of the fundamental identity.

    Returns (True, None), or (False, (xs, ys, lhs, rhs)) with the
    lexicographically first violating prefix xs, arguments ys, and the two
    unequal sides as coefficient vectors.
    """
    d, n = L.dimension, L.arity
    for xs in product(range(d), repeat=n - 1):
        # Columns of ad(xs): image vectors of each basis element.
        ad = [L.structure_vector(xs + (j,)) for j in range(d)]
        for ys in product(range(d), repeat=n):
            inner = L.structure_vector(ys)
            lhs = [sum(inner[j] * ad[j][i] for j in range(d)) for i in range(d)]
            rhs = [Fraction(0)] * d
            for pos in range(n):
                z = ad[ys[pos]]
                for j in range(d):
                    if not z[j]:
                        continue
                    term = L.structure_vector(ys[:pos] + (j,) + ys[pos + 1 :])
                    for i in range(d):
                        rhs[i] += z[j] * term[i]
            if lhs != rhs:
                return False, (xs, ys, tuple(lhs), tuple(rhs))
    return True, None


def check_filippov(L: LeibnizNAlgebra) -> bool:
    """Whether the bracket is antisymmetric in each pair of argument slots."""
    d, n = L.dimension, L.arity
    for args in product(range(d), repeat=n):
        vec = L.structure_vector(args)
        for p in range(n):
            for q in range(p + 1, n):
                swapped = list(args)
                swapped[p], swapped[q] = swapped[q], swapped[p]
                other = L.structure_vector(swapped)
                if any(other[i] != -vec[i] for i in range(d)):
                    return False
    return True


def check_derivation(L: LeibnizNAlgebra, D: LinearOperator) -> bool:
    """D([x_1,...,x_n]) = sum_i [x_1,...,D(x_i),...,x_n] on all basis tuples."""
    d, n = L.dimension, L.arity
    if D.dimension != d:
        raise ValueError("operator dimension mismatch")
    M = D.matrix
    for ys in product(range(d), repeat=n):
        lhs = D.apply(L.structure_vector(ys))
        rhs = [Fraction(0)] * d
        for pos in range(n):
            for j in range(d):
                coeff = M[j][ys[pos]]
                if not coeff:
                    continue
                term = L.structure_vector(ys[:pos] + (j,) + ys[pos + 1 :])
                for i in range(d):
                    rhs[i] += coeff * term[i]
        if list(lhs) != rhs:
            return False
    return True


def adjoint(L: LeibnizNAlgebra, *vectors) -> LinearOperator:
    """The operator Y -> [x_1,...,x_{n-1},Y] for fixed coefficient vectors."""
    if len(vectors) != L.arity - 1:
        raise ValueError(f"adjoint takes {L.arity - 1} vectors")
    cols = [bracket(L, *vectors, _basis(L.dimension, j)) for j in range(L.dimension)]
    return LinearOperator(
        tuple(tuple(cols[j][i] for j in range(L.dimension)) for i in range(L.dimension))
    )


def check_self_derivation(L: LeibnizNAlgebra) -> bool:
    """Whether every basis adjoint operator is a derivation of the bracket.

    Agrees with check_fundamental_identity on every tensor: the two are
    reformulations of the same basis equations.  The CLI therefore reports
    the fundamental-identity verdict as self_derivation; this check is the
    reference that test_self_derivation_equals_fundamental_identity holds
    it to.
    """
    for xs in product(range(L.dimension), repeat=L.arity - 1):
        op = adjoint(L, *(_basis(L.dimension, x) for x in xs))
        if not check_derivation(L, op):
            return False
    return True


def check_multilinearity_sample(L: LeibnizNAlgebra, trials: int = 20, seed: int = 0) -> bool:
    """Spot check of linearity in each slot on seeded random rational vectors.

    True by construction of the multilinear extension; exposed as a
    regression probe.
    """
    rng = random.Random(seed)

    def rand_vector():
        return tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(L.dimension)
        )

    for _ in range(trials):
        pos = rng.randrange(L.arity)
        fixed = [rand_vector() for _ in range(L.arity)]
        u, w = rand_vector(), rand_vector()
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        combo = tuple(a * x + b * y for x, y in zip(u, w))
        left = bracket(L, *(fixed[:pos] + [combo] + fixed[pos + 1 :]))
        right_u = bracket(L, *(fixed[:pos] + [u] + fixed[pos + 1 :]))
        right_w = bracket(L, *(fixed[:pos] + [w] + fixed[pos + 1 :]))
        if left != tuple(a * x + b * y for x, y in zip(right_u, right_w)):
            return False
    return True


def levi_civita_nalgebra(dimension: int) -> LeibnizNAlgebra:
    """The alternating (dimension-1)-ary bracket with
    [e_{i_1},...,e_{i_{d-1}}] = sum_l sign(i_1,...,i_{d-1},l) e_l."""
    if dimension < 3:
        raise ValueError("need dimension >= 3 for a (d-1)-ary bracket")
    entries = []
    for perm in product(range(dimension), repeat=dimension):
        if len(set(perm)) != dimension:
            continue
        sign = 1
        for i in range(dimension):
            for j in range(i + 1, dimension):
                if perm[i] > perm[j]:
                    sign = -sign
        entries.append((perm[:-1], perm[-1], sign))
    return LeibnizNAlgebra.from_entries(dimension, dimension - 1, entries)
