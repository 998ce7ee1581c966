"""Leibniz n-algebra verification on structure-constant tensors.

Coefficients enter and leave as exact rationals (`Fraction`), but the
checks run over the integers: the constants are scaled by one common
denominator, each input vector or operator by the lcm of its own
denominators, and the two sides of an equation, which carry the same
nonzero factor, are compared as integers.  Every comparison is exact.  The
fundamental identity

    [x_1,...,x_{n-1},[y_1,...,y_n]]
        = sum_{i=1}^n [y_1,...,y_{i-1},[x_1,...,x_{n-1},y_i],y_{i+1},...,y_n]

is checked on basis tuples, which suffices by multilinearity.
"""

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from math import lcm, prod

from ._frozen import Frozen
from .errors import BudgetExceededError

# check_multilinearity_sample draws trials * (arity + 2) random vectors of
# dimension entries each, and refuses to draw more entries than this.  Its
# default 20 trials draw 600 on a dimension-6 ternary bracket.
MULTILINEARITY_DRAW_BUDGET = 100_000


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _cleared(values) -> tuple[int, list[int]]:
    """(s, ints) with values[i] = ints[i] / s, s the lcm of the denominators."""
    fs = [_as_fraction(x) for x in values]
    s = lcm(*(x.denominator for x in fs))
    return s, [x.numerator * (s // x.denominator) for x in fs]


class LeibnizNAlgebra(Frozen):
    """Structure constants of an n-linear bracket on a d-dimensional space.

    constants maps an argument tuple (i_1,...,i_n) of basis indices to the
    coefficient vector of [e_{i_1},...,e_{i_n}]; absent tuples are zero, and
    so are all of them when constants is not given.  The algebra keeps its
    own copy of the nonzero vectors.  It holds a dict, so it has no hash.
    """

    _fields = ("dimension", "arity", "constants")

    def __init__(self, dimension: int, arity: int, constants: dict | None = None):
        constants = {tuple(args): vec for args, vec in (constants or {}).items()}
        self.check_shape(dimension, arity, constants)
        clean = {}
        for args, vec in constants.items():
            vec = tuple(_as_fraction(v) for v in vec)
            if len(vec) != dimension:
                raise ValueError("structure vector has wrong length")
            if any(vec):
                clean[args] = vec
        self._store(dimension, arity, clean)

    @staticmethod
    def check_shape(dimension: int, arity: int, tuples) -> None:
        """Raise ValueError unless dimension >= 1, arity >= 2 and each
        argument tuple is arity basis indices below dimension."""
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if arity < 2:
            raise ValueError("arity must be >= 2")
        for args in tuples:
            if len(args) != arity or any(not (0 <= i < dimension) for i in args):
                raise ValueError(f"argument tuple {args} out of range")

    @classmethod
    def from_entries(cls, dimension: int, arity: int, entries) -> "LeibnizNAlgebra":
        """entries: iterable of (args, out, value) triples, zero elsewhere;
        an output index out outside 0..dimension-1 raises ValueError."""
        table: dict[tuple, list[Fraction]] = {}
        for args, out, value in entries:
            if not 0 <= out < dimension:
                raise ValueError(f"output index {out} out of range")
            vec = table.setdefault(tuple(args), [Fraction(0)] * dimension)
            vec[out] += _as_fraction(value)
        return cls(dimension, arity, {a: tuple(v) for a, v in table.items()})

    @cached_property
    def support(self) -> tuple[int, dict]:
        """(den, args -> ((i, den * coefficient), ...)): the integer sparse
        view the checks read.  den is the lcm of every constant's
        denominator, and the terms list the nonzero coefficients of
        [e_{i_1},...,e_{i_n}] scaled by it."""
        den = lcm(*(c.denominator for vec in self.constants.values() for c in vec))
        return den, {
            args: tuple((i, c.numerator * (den // c.denominator)) for i, c in enumerate(vec) if c)
            for args, vec in self.constants.items()
        }


class LinearOperator(Frozen):
    """A d x d exact-rational matrix; matrix[i][j] is the e_i coefficient
    of the image of e_j."""

    _fields = ("matrix",)

    def __init__(self, matrix: tuple[tuple[Fraction, ...], ...]):
        rows = tuple(tuple(_as_fraction(v) for v in row) for row in matrix)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("operator matrix must be square")
        self._store(rows)

    @property
    def dimension(self) -> int:
        return len(self.matrix)


def bracket(L: LeibnizNAlgebra, *vectors) -> tuple[Fraction, ...]:
    """Multilinear extension of the structure constants to coefficient vectors.

    Each vector is scaled by the lcm of its own denominators, the sums run
    over integers, and each coordinate leaves as
    Fraction(total, den * the product of the scales).
    """
    if len(vectors) != L.arity:
        raise ValueError(f"bracket takes {L.arity} vectors")
    scales, vs = zip(*(_cleared(v) for v in vectors))
    if any(len(v) != L.dimension for v in vs):
        raise ValueError("vector dimension mismatch")
    den, S = L.support
    out = [0] * L.dimension
    for args, terms in S.items():
        coeff = 1
        for v, i in zip(vs, args):
            coeff *= v[i]
            if not coeff:
                break
        if coeff:
            for j, c in terms:
                out[j] += coeff * c
    return tuple(Fraction(x, den * prod(scales)) for x in out)


def _basis(dimension: int, index: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if j == index else 0) for j in range(dimension))


def _first_derivation_failure(S: dict, cols):
    """The lex-first basis tuple ys with D([ys]) != sum_i [...,D(y_i),...],
    as (ys, lhs, rhs) with each side a dict index -> coefficient, or None
    when D is a derivation.  S is the integer table of L.support, and
    cols[y] lists D(e_y) as ((i, coefficient), ...) over its nonzero
    entries, as integers scaled by one common factor: both sides then
    carry the same factor, so they are compared, and returned, as scaled
    integers.

    A side is nonzero at ys only if ys is in the support, or if some ys
    with one slot y swapped for an e_j of D(e_y) is; only those tuples are
    visited, so the work follows the nonzero constants.
    """
    into: dict[int, list[int]] = {}  # j -> the y whose D(e_y) has an e_j term
    for y, col in enumerate(cols):
        for j, _ in col:
            into.setdefault(j, []).append(y)
    candidates = set(S)
    for args in S:
        for pos, j in enumerate(args):
            candidates.update(args[:pos] + (y,) + args[pos + 1 :] for y in into.get(j, ()))
    for ys in sorted(candidates):
        lhs: dict[int, int] = {}
        rhs: dict[int, int] = {}
        for j, c in S.get(ys, ()):
            for i, v in cols[j]:
                lhs[i] = lhs.get(i, 0) + c * v
        for pos, y in enumerate(ys):
            for j, z in cols[y]:
                for i, v in S.get(ys[:pos] + (j,) + ys[pos + 1 :], ()):
                    rhs[i] = rhs.get(i, 0) + z * v
        if {i: v for i, v in lhs.items() if v} != {i: v for i, v in rhs.items() if v}:
            return ys, lhs, rhs
    return None


def check_fundamental_identity(L: LeibnizNAlgebra):
    """Basis check of the fundamental identity: at each prefix xs, ad(xs)
    must be a derivation of the bracket.  Prefixes whose adjoint is zero
    satisfy it trivially and are skipped.

    Returns (True, None), or (False, (xs, ys, lhs, rhs)) with the
    lexicographically first violating prefix xs, arguments ys, and the two
    unequal sides as coefficient vectors.  Both sides are sums of products
    of two scaled constants, so they are compared as integers carrying the
    factor den^2; only a witness is divided back into Fractions.
    """
    (den, S), d = L.support, L.dimension
    for xs in sorted({args[:-1] for args in S}):
        failure = _first_derivation_failure(S, [S.get(xs + (y,), ()) for y in range(d)])
        if failure is not None:
            ys, lhs, rhs = failure
            dense = [tuple(Fraction(s.get(i, 0), den**2) for i in range(d)) for s in (lhs, rhs)]
            return False, (xs, ys, *dense)
    return True, None


def check_filippov(L: LeibnizNAlgebra) -> bool:
    """Whether the bracket is antisymmetric in each pair of argument slots.

    Only the nonzero constants are checked: a zero entry whose swap is
    nonzero fails at that swap, since swapping back gives zero.
    """
    S = L.support[1]
    for args, terms in S.items():
        negated = tuple((i, -c) for i, c in terms)
        for p, q in combinations(range(L.arity), 2):
            swapped = args[:p] + (args[q],) + args[p + 1 : q] + (args[p],) + args[q + 1 :]
            if S.get(swapped) != negated:
                return False
    return True


def check_derivation(L: LeibnizNAlgebra, D: LinearOperator) -> bool:
    """D([x_1,...,x_n]) = sum_i [x_1,...,D(x_i),...,x_n] on all basis tuples."""
    if D.dimension != L.dimension:
        raise ValueError("operator dimension mismatch")
    # D scaled by the lcm of its entries' denominators: both sides then
    # carry the factor den * that lcm.
    _, flat = _cleared(v for row in D.matrix for v in row)
    d = D.dimension
    cols = [tuple((i, v) for i, v in enumerate(flat[j::d]) if v) for j in range(d)]
    return _first_derivation_failure(L.support[1], cols) is None


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


def require_probe_budget(dimension: int, arity: int, trials: int = 20) -> None:
    """Raise BudgetExceededError when check_multilinearity_sample, with
    these trials, would draw more than MULTILINEARITY_DRAW_BUDGET entries
    on an algebra of this dimension and arity."""
    draws = trials * (arity + 2) * dimension
    if draws > MULTILINEARITY_DRAW_BUDGET:
        raise BudgetExceededError(
            f"multilinearity probe needs {draws} random draws, over the "
            f"{MULTILINEARITY_DRAW_BUDGET}-draw budget",
            limit=MULTILINEARITY_DRAW_BUDGET,
            reached=draws,
        )


def check_multilinearity_sample(L: LeibnizNAlgebra, trials: int = 20, seed: int = 0) -> bool:
    """Spot check of linearity in each slot on seeded random rational vectors.

    True by construction of the multilinear extension; exposed as a
    regression probe of bracket, whose integer sums it calls.  The draws
    are Fractions taken from random.Random(seed) in a fixed order, so each
    seed gives the same vectors, and the same answer, on every run.
    Raises BudgetExceededError, before drawing, when the draws would pass
    MULTILINEARITY_DRAW_BUDGET.
    """
    require_probe_budget(L.dimension, L.arity, trials)
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
    for perm in permutations(range(dimension)):
        sign = 1
        for i in range(dimension):
            for j in range(i + 1, dimension):
                if perm[i] > perm[j]:
                    sign = -sign
        entries.append((perm[:-1], perm[-1], sign))
    return LeibnizNAlgebra.from_entries(dimension, dimension - 1, entries)
