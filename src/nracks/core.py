"""Finite n-racks: carriers, axiom checks, classification, and inner maps.

An n-rack is a set with an n-ary bracket [x_1,...,x_n] that is left
distributive,

    [x_1,...,x_{n-1},[y_1,...,y_n]] = [[x_1,...,x_{n-1},y_1],...,[x_1,...,x_{n-1},y_n]],

and whose translations y -> [a_1,...,a_{n-1},y] are bijections.  Carriers
are always {0,...,m-1}; named elements belong to I/O adapters.

Tuples are indexed lexicographically, first entry most significant.
entrywise(phi, length, base) maps every tuple index to the index of the
tuple with phi applied to each entry; the distributivity check, the
homomorphism check, the reduction to the tuple rack and the chain complex
all read tuples through it instead of decoding them digit by digit.
"""

from functools import cached_property
from itertools import product, repeat
from operator import itemgetter

from ._frozen import Frozen
from .errors import AxiomError


def first_product_past(factors, limit: int) -> int | None:
    """The first partial product of factors (the empty product 1 included)
    that exceeds limit, or None: factors >= 1 are multiplied out only until
    the product passes the limit."""
    total = 1
    for f in factors:
        if total > limit:
            break
        total *= f
    return total if total > limit else None


def first_power_past(base: int, exponent: int, limit: int) -> int | None:
    """first_product_past of exponent copies of base; an astronomically large
    exponent costs nothing, as 1**k is 1 and a larger base passes any limit
    within limit.bit_length() + 1 factors, so no more are drawn."""
    count = min(exponent, limit.bit_length() + 1 if base > 1 else 1)
    return first_product_past(repeat(base, count), limit)


def entrywise(phi, length: int, base: int) -> list[int]:
    """For every length-tuple over range(len(phi)), in index order, the
    index in base `base` of the tuple with phi applied to each entry.

    Tuples are indexed lexicographically, first entry most significant, so
    entry i of the result is the index of (phi[t_1],...,phi[t_length]) where
    (t_1,...,t_length) is the i-th tuple; length 0 gives [0], the empty tuple.
    """
    idx = [0]
    for _ in range(length):
        idx = [a * base + b for a in idx for b in phi]
    return idx


class FiniteNRack(Frozen):
    """An n-ary operation table on {0,...,size-1}.

    The table is flat and row-major: entry for (x_1,...,x_n) sits at index
    x_1*size^(n-1) + ... + x_n.  A basepoint marks the distinguished
    element of a pointed n-rack; None means no basepoint is declared.
    """

    _fields = ("arity", "size", "table", "basepoint")

    def __init__(self, arity: int, size: int, table: tuple[int, ...],
                 basepoint: int | None = None):
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if not isinstance(table, tuple):
            table = tuple(table)
        given = len(table)
        if first_power_past(size, arity, given) is not None:
            raise ValueError(
                f"table has {given} entries, too few for "
                f"size**arity = {size}**{arity}"
            )
        expected = size**arity
        if given != expected:
            raise ValueError(f"table has {given} entries, expected {expected}")
        if any(not (0 <= v < size) for v in table):
            raise ValueError("table entries must lie in the carrier")
        if basepoint is not None and not (0 <= basepoint < size):
            raise ValueError(f"basepoint {basepoint} outside carrier")
        self._store(arity, size, table, basepoint)

    @property
    def strides(self) -> tuple[int, ...]:
        m, n = self.size, self.arity
        return tuple(m ** (n - 1 - i) for i in range(n))

    def index(self, args) -> int:
        m = self.size
        idx = 0
        for a in args:
            idx = idx * m + a
        return idx

    def bracket(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ValueError(f"bracket takes {self.arity} arguments")
        return self.table[self.index(args)]

    def translation(self, prefix) -> tuple[int, ...]:
        """The row y -> [prefix, y]; contiguous because y is least significant."""
        if len(prefix) != self.arity - 1:
            raise ValueError(f"prefix must have {self.arity - 1} entries")
        p = self.index(prefix)
        return self.table[p * self.size : (p + 1) * self.size]

    def prefixes(self):
        return product(range(self.size), repeat=self.arity - 1)

    @cached_property
    def _report(self) -> "ValidationReport":
        """The axiom scan of this table, run on first access and kept with
        the table object; read it through validate."""
        if self.size == 1:
            # The one entry is 0, so every axiom and structure holds, and the
            # basepoint, if declared, is 0: no scan, whose tuples and loops
            # would grow with the arity.
            pointed = None if self.basepoint is None else True
            return ValidationReport(Classification(True, pointed, True, True, True, True), None, None)
        dist_ok, dist_witness = check_left_distributive(self)
        bij_ok, bij_witness = check_translation_bijective(self)
        return ValidationReport(
            classification=_classification(self, dist_ok and bij_ok),
            distributivity_witness=dist_witness,
            bijectivity_witness=bij_witness,
        )


class Classification(Frozen):
    """Axiom flags of a table.  is_pointed is None when no basepoint is set.

    Implications enforced by construction: any true flag other than
    is_nrack implies is_nrack; kei flags imply the matching quandle flags;
    is_nquandle implies is_weak_nquandle.
    """

    _fields = ("is_nrack", "is_pointed", "is_weak_nquandle", "is_nquandle", "is_weak_nkei",
               "is_nkei")


class ValidationReport(Frozen):
    _fields = ("classification", "distributivity_witness", "bijectivity_witness")

    @property
    def is_nrack(self) -> bool:
        return self.classification.is_nrack


class InnerMap(Frozen):
    """The translation permutation y -> [args, y] of a validated n-rack."""

    _fields = ("source", "arguments", "permutation")


def check_left_distributive(R: FiniteNRack):
    """Left-distributivity check, one evaluation per distinct translation row.

    Distributivity at a prefix depends only on its row phi: phi([ys]) must
    equal [phi(y_1),...,phi(y_n)] for all ys.  A row is evaluated by two
    gathers over the whole table, the right-hand one at the indices
    entrywise(phi, n, m), compared at once; prefixes are scanned
    in lex order and a row already seen has passed.  Returns (True, None)
    or (False, witness) with witness the lexicographically first violating
    ((x_1..x_{n-1}), (y_1..y_n)).
    """
    m, n = R.size, R.arity
    table = R.table
    images = itemgetter(*table)
    passed = set()
    for p, xs in enumerate(R.prefixes()):
        phi = table[p * m : (p + 1) * m]
        if phi in passed:
            continue
        lhs, rhs = images(phi), itemgetter(*entrywise(phi, n, m))(table)
        if lhs != rhs:
            k = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            return False, (xs, tuple(k // s % m for s in R.strides))
        passed.add(phi)
    return True, None


def check_translation_bijective(R: FiniteNRack):
    """Returns (True, None) or (False, first prefix whose row is not a bijection)."""
    for xs in R.prefixes():
        if len(set(R.translation(xs))) != R.size:
            return False, xs
    return True, None


def check_pointed(R: FiniteNRack) -> bool:
    """Both pointedness equations for the declared basepoint:
    [b,...,b,y] = y for all y, and [x_1,...,x_{n-1},b] = b for all prefixes."""
    if R.basepoint is None:
        raise ValueError("no basepoint declared")
    b = R.basepoint
    return R.translation((b,) * (R.arity - 1)) == tuple(range(R.size)) and all(
        R.translation(xs)[b] == b for xs in R.prefixes()
    )


def _check_weak_nquandle(R: FiniteNRack) -> bool:
    return all(R.bracket(*(x,) * R.arity) == x for x in range(R.size))


def _check_nquandle(R: FiniteNRack) -> bool:
    # [x_1,...,x_{n-1},y] = y whenever x_i = y for some i in 1..n-1.
    return all(R.translation(xs)[y] == y for xs in R.prefixes() for y in set(xs))


def _check_involutive(R: FiniteNRack) -> bool:
    # [x_1,...,x_{n-1},[x_1,...,x_{n-1},y]] = y for all prefixes and y.
    rows = map(R.translation, R.prefixes())
    return all(row[row[y]] == y for row in rows for y in range(R.size))


def _classification(R: FiniteNRack, is_nrack: bool) -> Classification:
    """The structure flags of R, given the verdict of the n-rack axioms.

    All flags other than is_nrack are forced False when the table is not
    an n-rack; pointedness is reported as None when no basepoint is set.
    """
    if not is_nrack:
        pointed = None if R.basepoint is None else False
        return Classification(False, pointed, False, False, False, False)
    pointed = None if R.basepoint is None else check_pointed(R)
    weak = _check_weak_nquandle(R)
    quandle = weak and _check_nquandle(R)
    involutive = _check_involutive(R)
    return Classification(
        is_nrack=True,
        is_pointed=pointed,
        is_weak_nquandle=weak,
        is_nquandle=quandle,
        is_weak_nkei=weak and involutive,
        is_nkei=quandle and involutive,
    )


def classify(R: FiniteNRack) -> Classification:
    """Evaluate all structure flags by exhaustive check: validate(R).classification."""
    return validate(R).classification


def validate(R: FiniteNRack) -> ValidationReport:
    """All structure flags plus the first counterexample for each failed
    n-rack axiom.

    Each axiom is scanned once per table object: the report is computed on
    the first call and kept on R, so later calls on the same object (from
    classify, the constructions or the chain complex) return it at no cost.
    """
    return R._report


def require(R: FiniteNRack, what: str, nquandle: bool = False) -> ValidationReport:
    """validate(R), for an operation, named by what, that needs an n-rack,
    or with nquandle=True an n-quandle.  A table that fails is refused with
    AxiomError, which carries its report; this is the one place that raises
    it."""
    report = validate(R)
    if not report.is_nrack:
        raise AxiomError(f"{what} requires a valid n-rack; distributivity witness "
                         f"{report.distributivity_witness}, bijectivity witness "
                         f"{report.bijectivity_witness}", report)
    if nquandle and not report.classification.is_nquandle:
        raise AxiomError(f"{what} requires an n-quandle", report)
    return report


def is_homomorphism(f, R: FiniteNRack, S: FiniteNRack, pointed: bool = False) -> bool:
    """Whether f (a map carrier(R) -> carrier(S), indexable by element) satisfies
    f([x_1,...,x_n]_R) = [f(x_1),...,f(x_n)]_S on all tuples.

    With pointed=True additionally requires f(basepoint_R) = basepoint_S.
    """
    if R.arity != S.arity:
        raise ValueError(f"arity mismatch: {R.arity} != {S.arity}")
    f = tuple(f[x] for x in range(R.size))
    if any(not (0 <= v < S.size) for v in f):
        raise ValueError("map image outside target carrier")
    if pointed:
        if R.basepoint is None or S.basepoint is None:
            raise ValueError("pointed comparison requires basepoints on both sides")
        if f[R.basepoint] != S.basepoint:
            return False
    images = entrywise(f, R.arity, S.size)
    return all(f[v] == S.table[i] for v, i in zip(R.table, images))


def cycle_type(perm) -> tuple[int, ...]:
    """Sorted cycle lengths of a permutation given as an image list."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def translation_cycle_types(R: FiniteNRack):
    """Multiset (sorted tuple) of cycle types over all translation rows.

    Invariant under isomorphism, used to prune the isomorphism search.
    """
    return tuple(sorted(cycle_type(R.translation(xs)) for xs in R.prefixes()))


def _element_invariant(R: FiniteNRack, x: int):
    diag = R.translation((x,) * (R.arity - 1))
    return (cycle_type(diag), diag[x] == x)


def find_isomorphism(R: FiniteNRack, S: FiniteNRack):
    """A bijective homomorphism R -> S as an image tuple, or None.

    Backtracking over carrier bijections; candidate images are pruned by
    per-element translation cycle types and partial tuples are re-checked
    after each assignment.  find_isomorphism(R, R) always succeeds.
    """
    if R.arity != S.arity:
        raise ValueError(f"arity mismatch: {R.arity} != {S.arity}")
    if R.size != S.size:
        return None
    if translation_cycle_types(R) != translation_cycle_types(S):
        return None
    m, n = R.size, R.arity
    inv_R = [_element_invariant(R, x) for x in range(m)]
    inv_S = [_element_invariant(S, x) for x in range(m)]
    f: list[int | None] = [None] * m
    used = [False] * m

    def consistent(assigned):
        for xs in product(assigned, repeat=n):
            v = R.bracket(*xs)
            if f[v] is None:
                continue
            if f[v] != S.bracket(*(f[x] for x in xs)):
                return False
        return True

    def extend(x):
        if x == m:
            return True
        for y in range(m):
            if used[y] or inv_R[x] != inv_S[y]:
                continue
            f[x] = y
            used[y] = True
            if consistent(range(x + 1)) and extend(x + 1):
                return True
            f[x] = None
            used[y] = False
        return False

    if extend(0):
        return tuple(f)
    return None


def inner_map(R: FiniteNRack, args) -> InnerMap:
    """The permutation y -> [args, y] for a validated n-rack."""
    args = tuple(args)
    if len(args) != R.arity - 1:
        raise ValueError(f"inner map takes {R.arity - 1} arguments")
    if any(not (0 <= a < R.size) for a in args):
        raise ValueError("invalid argument element")
    return InnerMap(source=R, arguments=args, permutation=R.translation(args))


def check_inner_is_automorphism(R: FiniteNRack, args) -> bool:
    """phi(args)([y_1,...,y_n]) = [phi(args)(y_1),...,phi(args)(y_n)] on all tuples.

    Must hold on every valid n-rack; serves as a cross-check of the axiom
    verifier.
    """
    phi = inner_map(R, args).permutation
    return is_homomorphism(phi, R, R)


def orbits(R: FiniteNRack) -> list[list[int]]:
    """Partition of the carrier into orbits of the group generated by all
    inner-map permutations.  Orbits are sorted, and listed by least element."""
    parent = list(range(R.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for xs in R.prefixes():
        row = R.translation(xs)
        for y in range(R.size):
            union(y, row[y])
    groups: dict[int, list[int]] = {}
    for x in range(R.size):
        groups.setdefault(find(x), []).append(x)
    return [sorted(groups[root]) for root in sorted(groups)]
