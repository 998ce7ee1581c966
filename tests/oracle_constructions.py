"""Per-tuple reference loops for the builders, the reduction, the chain
complex and the homomorphism check.

Each function walks every argument tuple in lexicographic order and
evaluates the defining formula on it, encoding tuples digit by digit; the
package builds the same tables from row maps and entrywise index maps.
Builders return (table, basepoint).  rack_boundary_faces is the chain
complex's earlier face-by-face builder, which finds each face by index
arithmetic; the package now builds d_k from d_{k-1}.
degenerate_restriction is the earlier degenerate subcomplex, restricted
from the assembled columns of the whole rack complex; the package now
restricts each orbit block of R on its own.
"""

from itertools import product
from math import gcd

from nracks.core import entrywise


def _index(digits, base):
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx


def gamma(arity, m, t, s):
    """[x_1,...,x_n] = s*x_1 + ... + s*x_{n-1} + t*x_n mod m."""
    table = tuple(
        (s * sum(xs[:-1]) + t * xs[-1]) % m for xs in product(range(m), repeat=arity)
    )
    return table, None


def gamma_is_valid(arity, m, t, s):
    """The three relations build_gamma_module_nrack checks."""
    t, s = t % m, s % m
    return gcd(t, m) == 1 and (s * s + t * s - s) % m == 0 and (arity - 2) * s * s % m == 0


def z4(arity, modulus):
    """[x_1,...,x_n] = 2x_1 + ... + 2x_{n-1} + x_n mod modulus."""
    table = tuple(
        (2 * sum(xs[:-1]) + xs[-1]) % modulus
        for xs in product(range(modulus), repeat=arity)
    )
    return table, None


def conjugation(G, arity):
    """x_1 ... x_{n-1} x_n x_{n-1}^-1 ... x_1^-1, pointed at the identity."""
    table = []
    for xs in product(range(G.size), repeat=arity):
        acc = xs[-1]
        for x in reversed(xs[:-1]):
            acc = G.mul(G.mul(x, acc), G.inv(x))
        table.append(acc)
    return tuple(table), G.identity


def lift(Q, arity):
    """x_1 o (x_2 o (... (x_{n-1} o x_n)...)), pointed where Q is."""
    table = []
    for xs in product(range(Q.size), repeat=arity):
        acc = xs[-1]
        for x in reversed(xs[:-1]):
            acc = Q.bracket(x, acc)
        table.append(acc)
    return tuple(table), Q.basepoint


def reduce(R):
    """The binary rack on (n-1)-tuples, pointed at the all-basepoint tuple."""
    m, n = R.size, R.arity
    M = m ** (n - 1)
    tuples = list(product(range(m), repeat=n - 1))
    table = []
    for a in range(M):
        row = R.table[a * m : (a + 1) * m]
        for b in range(M):
            table.append(_index([row[digit] for digit in tuples[b]], m))
    basepoint = None
    if R.basepoint is not None:
        basepoint = _index([R.basepoint] * (n - 1), m)
    return tuple(table), basepoint


def module_group(H, bracket, module, arity):
    """[(u_i, A_i)] = ({A_1,...,A_n} . u_n, conjugation of A_n by A_1...A_{n-1})
    on the carrier V x H, element (u, A) at u*|H| + A."""
    k, v = H.size, module.space.size
    table = []
    for cs in product(range(v * k), repeat=arity):
        us = [c // k for c in cs]
        As = [c % k for c in cs]
        acc = As[-1]
        for a in reversed(As[:-1]):
            acc = H.mul(H.mul(a, acc), H.inv(a))
        first = module.action[bracket[_index(As, k)]][us[-1]]
        table.append(first * k + acc)
    return tuple(table), module.space.identity * k + H.identity


def rack_boundary_columns(rack, max_degree):
    """cols[k][j] of the rack complex on the binary rack: every face of
    every k-tuple formed as a tuple and encoded digit by digit.  The empty
    tuple has no faces, so degree 0 is one empty column."""
    M = rack.size
    cols = []
    for k in range(max_degree + 1):
        degree_cols = []
        for t in product(range(M), repeat=k):
            col = {}
            for i in range(2, k + 1):
                sign = 1 if i % 2 == 0 else -1
                kept = t[: i - 1] + t[i:]
                acted = tuple(rack.bracket(t[i - 1], x) for x in t[: i - 1]) + t[i:]
                for target, s in ((kept, sign), (acted, -sign)):
                    idx = _index(target, M)
                    col[idx] = col.get(idx, 0) + s
            degree_cols.append({i: v for i, v in col.items() if v != 0})
        cols.append(degree_cols)
    return cols


def degenerate_restriction(cols, M):
    """The columns of the rack complex cols on the M-element reduced rack
    at the degenerate tuples, rows and columns renumbered in the same
    order: (t, x) is degenerate iff t is, or x = last(t) = t mod M, and the
    empty tuple has no last entry.  A row at a non-degenerate position
    raises AssertionError."""
    out = []
    position = {}
    flags = [False]
    for k in range(len(cols)):
        if k:
            flags = [f or (k > 1 and x == t % M) for t, f in enumerate(flags) for x in range(M)]
        kept = [j for j, f in enumerate(flags) if f]
        degree_cols = []
        for full in kept:
            col = {}
            for row, v in cols[k][full].items():
                if row not in position:
                    raise AssertionError(f"degenerate basis not closed in degree {k}")
                col[position[row]] = v
            degree_cols.append(col)
        out.append(degree_cols)
        position = {full: pos for pos, full in enumerate(kept)}
    return out


def rack_boundary_faces(rack, max_degree):
    """cols[k][j] of the rack complex on the binary rack, face by face: j
    splits by divmod into the index of (x_1,...,x_{i-1}), x_i and the
    index of (x_{i+1},...,x_k), and x_i acting on the head is read from
    the entrywise table for that length."""
    M = rack.size
    acts = [[entrywise(rack.row(x), L, M) for x in range(M)] for L in range(max_degree)]
    cols = []
    for k in range(max_degree + 1):
        degree_cols = []
        for j in range(M**k):
            col = {}
            for i in range(2, k + 1):
                sign = 1 if i % 2 == 0 else -1
                # j = (head * M + x) * scale + tail, x the i-th entry.
                scale = M ** (k - i)
                rest, tail = divmod(j, scale)
                head, x = divmod(rest, M)
                kept = head * scale + tail
                acted = acts[i - 1][x][head] * scale + tail
                col[kept] = col.get(kept, 0) + sign
                col[acted] = col.get(acted, 0) - sign
            degree_cols.append({i: v for i, v in col.items() if v != 0})
        cols.append(degree_cols)
    return cols


def homomorphism(f, R, S):
    """Whether f([xs]_R) = [f(x_1),...,f(x_n)]_S on every tuple."""
    for xs in product(range(R.size), repeat=R.arity):
        if f[R.bracket(*xs)] != S.bracket(*(f[x] for x in xs)):
            return False
    return True
