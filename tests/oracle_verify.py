"""Exhaustive reference checks for the axiom and identity verifiers.

These are the direct loops the package's checks are held to: left
distributivity scanned prefix by prefix over every argument tuple, and the
fundamental identity, the derivation equation and antisymmetry evaluated
on dense coefficient vectors over every basis tuple.  The bracket, the
adjoint and the multilinearity probe are computed in Fraction arithmetic
throughout, with no common denominator.  They return the same values as
the package functions they mirror, witnesses included.
"""

import random
from fractions import Fraction
from itertools import product


def structure_vector(L, args):
    """The coefficient vector of [e_{i_1},...,e_{i_n}], zero where L has no
    constant."""
    return L.constants.get(tuple(args), (Fraction(0),) * L.dimension)


def left_distributive(R):
    """(True, None) or (False, the lex-first violating (xs, ys))."""
    m, n = R.size, R.arity
    table = R.table
    strides = R.strides
    for p, xs in enumerate(product(range(m), repeat=n - 1)):
        phi = table[p * m : (p + 1) * m]
        for yidx, ys in enumerate(product(range(m), repeat=n)):
            lhs = phi[table[yidx]]
            rhs = table[sum(phi[y] * s for y, s in zip(ys, strides))]
            if lhs != rhs:
                return False, (xs, ys)
    return True, None


def fundamental_identity(L):
    """(True, None) or (False, (xs, ys, lhs, rhs)) at the lex-first
    violating basis tuples, with both sides as dense vectors."""
    d, n = L.dimension, L.arity
    for xs in product(range(d), repeat=n - 1):
        ad = [structure_vector(L, xs + (j,)) for j in range(d)]
        for ys in product(range(d), repeat=n):
            inner = structure_vector(L, ys)
            lhs = [sum(inner[j] * ad[j][i] for j in range(d)) for i in range(d)]
            rhs = [Fraction(0)] * d
            for pos in range(n):
                z = ad[ys[pos]]
                for j in range(d):
                    if not z[j]:
                        continue
                    term = structure_vector(L, ys[:pos] + (j,) + ys[pos + 1 :])
                    for i in range(d):
                        rhs[i] += z[j] * term[i]
            if lhs != rhs:
                return False, (xs, ys, tuple(lhs), tuple(rhs))
    return True, None


def derivation(L, D):
    """Whether D([ys]) = sum_i [..., D(y_i), ...] on every basis tuple."""
    d, n = L.dimension, L.arity
    M = D.matrix
    for ys in product(range(d), repeat=n):
        inner = structure_vector(L, ys)
        lhs = [sum(M[i][j] * inner[j] for j in range(d)) for i in range(d)]
        rhs = [Fraction(0)] * d
        for pos in range(n):
            for j in range(d):
                coeff = M[j][ys[pos]]
                if not coeff:
                    continue
                term = structure_vector(L, ys[:pos] + (j,) + ys[pos + 1 :])
                for i in range(d):
                    rhs[i] += coeff * term[i]
        if lhs != rhs:
            return False
    return True


def filippov(L):
    """Whether every swap of two argument slots negates every structure vector."""
    d, n = L.dimension, L.arity
    for args in product(range(d), repeat=n):
        vec = structure_vector(L, args)
        for p in range(n):
            for q in range(p + 1, n):
                swapped = list(args)
                swapped[p], swapped[q] = swapped[q], swapped[p]
                other = structure_vector(L, swapped)
                if any(other[i] != -vec[i] for i in range(d)):
                    return False
    return True


def bracket(L, *vectors):
    """The multilinear extension of the structure constants, one Fraction
    product per stored argument tuple."""
    vs = [tuple(Fraction(x) for x in v) for v in vectors]
    out = [Fraction(0)] * L.dimension
    for args, vec in L.constants.items():
        coeff = Fraction(1)
        for v, i in zip(vs, args):
            coeff *= v[i]
        for j, c in enumerate(vec):
            out[j] += coeff * c
    return tuple(out)


def adjoint(L, *vectors):
    """The matrix of Y -> [vectors..., Y], rows indexed by output."""
    d = L.dimension
    basis = [tuple(Fraction(int(i == j)) for i in range(d)) for j in range(d)]
    cols = [bracket(L, *vectors, e) for e in basis]
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def multilinearity_sample(L, trials=20, seed=0):
    """The seeded linearity probe, drawing its vectors and scalars in the
    same order as the package's, on the Fraction bracket above."""
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
