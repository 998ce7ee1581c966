"""Builders for n-racks: module brackets, conjugation, the rack <-> n-rack
functors, module-over-group carriers, and the associated group presentation
with its abelianization.

The gamma, conjugation and lift tables are folds of row maps: from the
last argument's values, each pass prepends one argument x and applies its
map (v -> s*x + v, conjugation by x, the rack row of x).  The z4 table is
the (t, s) = (1, 2) gamma table.  Row a of the reduced rack, and the
bracket index of the module-over-group table, are core.entrywise maps.
"""

from itertools import permutations, product
from math import gcd

from ._frozen import Frozen
from .core import (
    FiniteNRack,
    ValidationReport,
    entrywise,
    first_power_past,
    is_homomorphism,
    require,
    validate,
)
from .errors import BudgetExceededError, ConstructionError
from .snf import AbelianGroupInvariants, group_from_diagonal, sparse_invariant_factors


# The most table entries a builder makes.  A larger table is refused before
# anything is allocated or iterated; a table this size builds and validates
# in a few seconds.
TABLE_BUDGET = 2_000_000


def _check_table_budget(size: int, arity: int) -> None:
    reached = first_power_past(size, arity, TABLE_BUDGET)
    if reached is not None:
        message = f"a table of {size}**{arity} entries exceeds the {TABLE_BUDGET}-entry budget"
        raise BudgetExceededError(message, limit=TABLE_BUDGET, reached=reached)


def _fold(maps, last, arity: int) -> tuple[int, ...]:
    """The arity-ary table whose entry for (x_1,...,x_n) is
    maps[x_1](maps[x_2](...maps[x_{n-1}](last[x_n])...)), each map an
    image sequence: every pass prepends one argument, most significant."""
    table = last
    for _ in range(arity - 1):
        table = [f[v] for f in maps for v in table]
    return tuple(table)


class FiniteRack(FiniteNRack):
    """A binary left rack candidate: the arity-2 FiniteNRack, entry for
    (x, y) at index x*size + y.  Structural checks only; use validate_rack."""

    def __init__(self, size: int, table, basepoint: int | None = None):
        super().__init__(2, size, table, basepoint)

    def op(self, x: int, y: int) -> int:
        return self.table[x * self.size + y]

    def row(self, x: int) -> tuple[int, ...]:
        return self.table[x * self.size : (x + 1) * self.size]

    def to_nrack(self) -> FiniteNRack:
        return self

    @classmethod
    def from_nrack(cls, R: FiniteNRack) -> "FiniteRack":
        if R.arity != 2:
            raise ValueError(f"expected a binary table, got arity {R.arity}")
        return cls(R.size, R.table, R.basepoint)


def validate_rack(Q: FiniteRack) -> ValidationReport:
    """Rack axioms: the n-rack report of Q, kept on Q like any other table's."""
    return validate(Q)


class FiniteGroup(Frozen):
    """A finite group on {0..size-1}: flat Cayley table (entry for (a, b) at
    a*size + b) and identity index.  The group laws are checked exhaustively
    at construction; inverses are derived, whatever inverse is given."""

    _fields = ("size", "cayley", "identity", "inverse")

    def __init__(self, size: int, cayley: tuple[int, ...], identity: int,
                 inverse: tuple[int, ...] | None = None):
        k = size
        if k < 1:
            raise ValueError("group must be nonempty")
        if not isinstance(cayley, tuple):
            cayley = tuple(cayley)
        if len(cayley) != k * k:
            raise ValueError(f"cayley table must have {k * k} entries")
        if any(not (0 <= v < k) for v in cayley):
            raise ValueError("cayley entries must lie in the carrier")
        e = identity
        if not (0 <= e < k):
            raise ValueError(f"identity {e} outside carrier")
        if any(cayley[e * k + x] != x or cayley[x * k + e] != x for x in range(k)):
            raise ValueError("identity law fails")
        for a in range(k):
            for b in range(k):
                ab = cayley[a * k + b]
                for c in range(k):
                    if cayley[ab * k + c] != cayley[a * k + cayley[b * k + c]]:
                        raise ValueError(f"associativity fails at ({a}, {b}, {c})")
        inverse = []
        for a in range(k):
            found = [b for b in range(k) if cayley[a * k + b] == e == cayley[b * k + a]]
            if not found:
                raise ValueError(f"element {a} has no inverse")
            inverse.append(found[0])
        self._store(size, cayley, identity, tuple(inverse))

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a * self.size + b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def is_abelian(self) -> bool:
        return all(
            self.mul(a, b) == self.mul(b, a)
            for a in range(self.size)
            for b in range(self.size)
        )


def cyclic_group(k: int) -> FiniteGroup:
    table = tuple((a + b) % k for a in range(k) for b in range(k))
    return FiniteGroup(k, table, 0)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on lexicographically ordered permutation words; (p*q)(i) = p(q(i))."""
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(index[tuple(p[j] for j in q)] for p in perms for q in perms)
    return FiniteGroup(len(perms), table, index[tuple(range(n))])


def dihedral_group(k: int) -> FiniteGroup:
    """Order 2k: elements 0..k-1 are rotations r^i, k..2k-1 are reflections r^i s."""
    if k < 1:
        raise ValueError("dihedral parameter must be >= 1")

    def mul(a, b):
        ia, ja = a % k, a // k
        ib, jb = b % k, b // k
        if ja == 0:
            return (ia + ib) % k + k * jb
        return (ia - ib) % k + k * (1 - jb)

    table = tuple(mul(a, b) for a in range(2 * k) for b in range(2 * k))
    return FiniteGroup(2 * k, table, 0)


def build_z4_module_nrack(arity: int, modulus: int = 4) -> FiniteNRack:
    """[x_1,...,x_n] = 2x_1 + ... + 2x_{n-1} + x_n on Z/modulus.

    Requires 4 = 0 (mod modulus), i.e. the carrier is a module over Z/4;
    this is the (t, s) = (1, 2) instance of the twisted-module bracket and
    the same congruence makes the table left distributive.
    """
    if arity < 2:
        raise ConstructionError(f"arity must be >= 2, got {arity}")
    if modulus < 1:
        raise ConstructionError(f"modulus must be >= 1, got {modulus}")
    if 4 % modulus != 0:
        raise ConstructionError(
            f"violated relation: 4 = 0 (mod {modulus}) fails, so Z/{modulus} "
            "is not a module over Z/4"
        )
    return build_gamma_module_nrack(arity, modulus, 1, 2)


def build_gamma_module_nrack(arity: int, modulus: int, t: int, s: int) -> FiniteNRack:
    """[x_1,...,x_n] = s*x_1 + ... + s*x_{n-1} + t*x_n on Z/modulus.

    Parameter checks, each reported by the violated relation:
      * t must be a unit mod modulus (translation bijectivity),
      * s^2 + t*s - s = 0 (mod modulus) (the twisted-module relation),
      * (n-2)*s^2 = 0 (mod modulus) (left distributivity for n > 2; the
        n = 2 case needs nothing beyond the twisted-module relation).
    """
    if arity < 2:
        raise ConstructionError(f"arity must be >= 2, got {arity}")
    if modulus < 1:
        raise ConstructionError(f"modulus must be >= 1, got {modulus}")
    m = modulus
    t %= m
    s %= m
    if gcd(t, m) != 1:
        raise ConstructionError(
            f"violated relation: gcd(t, m) = gcd({t}, {m}) = {gcd(t, m)} != 1, "
            "t is not a unit"
        )
    if (s * s + t * s - s) % m != 0:
        raise ConstructionError(
            f"violated relation: s^2 + t*s - s = {s * s + t * s - s} != 0 (mod {m})"
        )
    if (arity - 2) * s * s % m != 0:
        raise ConstructionError(
            f"violated relation: (n-2)*s^2 = {(arity - 2) * s * s} != 0 (mod {m}); "
            "the bracket is not left distributive for this arity"
        )
    _check_table_budget(m, arity)
    shifts = [[(s * x + v) % m for v in range(m)] for x in range(m)]
    return FiniteNRack(arity, m, _fold(shifts, [t * y % m for y in range(m)], arity))


def build_conjugation_nrack(G: FiniteGroup, arity: int) -> FiniteNRack:
    """[x_1,...,x_n] = x_1 x_2 ... x_{n-1} x_n x_{n-1}^-1 ... x_1^-1 in G,
    pointed at the identity."""
    if arity < 2:
        raise ConstructionError(f"arity must be >= 2, got {arity}")
    k = G.size
    _check_table_budget(k, arity)
    conjugations = [[G.mul(G.mul(x, y), G.inv(x)) for y in range(k)] for x in range(k)]
    return FiniteNRack(arity, k, _fold(conjugations, range(k), arity), basepoint=G.identity)


def lift_rack_to_nrack(Q: FiniteRack, arity: int) -> FiniteNRack:
    """[x_1,...,x_n] = x_1 o (x_2 o (... (x_{n-1} o x_n)...)); arity 2 returns
    the rack itself as a 2-rack."""
    if arity < 2:
        raise ConstructionError(f"arity must be >= 2, got {arity}")
    _check_table_budget(Q.size, arity)
    require(Q, "lift")
    rows = [Q.row(x) for x in range(Q.size)]
    return FiniteNRack(arity, Q.size, _fold(rows, range(Q.size), arity), basepoint=Q.basepoint)


def reduce_nrack_to_rack(R: FiniteNRack) -> FiniteRack:
    """The binary rack on (n-1)-tuples:

        (x_1,...,x_{n-1}) o (y_1,...,y_{n-1})
            = ([x_1,...,x_{n-1},y_1], ..., [x_1,...,x_{n-1},y_{n-1}]).

    Tuples are indexed lexicographically, first coordinate most
    significant.  Pointed at the all-basepoint tuple when R is pointed.
    R's own axiom scan is the one kept on R by validate, so reducing an
    already validated table does not scan it again.  The output is not
    scanned: an n-rack always reduces to a rack, and to a quandle exactly
    when it is an n-quandle.
    """
    m, n = R.size, R.arity
    M = m ** (n - 1)
    _check_table_budget(M, 2)
    require(R, "reduce")
    if m == 1:
        # One tuple, whatever the arity: no tuple or loop as long as it.
        return FiniteRack(1, (0,), None if R.basepoint is None else 0)
    table = [v for a in range(M) for v in entrywise(R.table[a * m : (a + 1) * m], n - 1, m)]
    basepoint = None if R.basepoint is None else R.index((R.basepoint,) * (n - 1))
    return FiniteRack(M, tuple(table), basepoint)


class GroupModule(Frozen):
    """A finite abelian group V with an action of a group H by automorphisms.

    action[h] is the permutation of V's carrier given by h.  Construction
    verifies that V is abelian, every action[h] is an automorphism of V,
    and h -> action[h] is a homomorphism sending the identity to id.
    """

    _fields = ("space", "acting", "action")

    def __init__(self, space: FiniteGroup, acting: FiniteGroup,
                 action: tuple[tuple[int, ...], ...]):
        V, H = space, acting
        if not V.is_abelian():
            raise ConstructionError("module carrier must be an abelian group")
        action = tuple(tuple(p) for p in action)
        if len(action) != H.size:
            raise ConstructionError("action must assign a map to every group element")
        for h, perm in enumerate(action):
            if sorted(perm) != list(range(V.size)):
                raise ConstructionError(f"action of element {h} is not a bijection")
            for a in range(V.size):
                for b in range(V.size):
                    if perm[V.mul(a, b)] != V.mul(perm[a], perm[b]):
                        raise ConstructionError(
                            f"action of element {h} is not an automorphism"
                        )
        if action[H.identity] != tuple(range(V.size)):
            raise ConstructionError("identity must act trivially")
        for h1 in range(H.size):
            for h2 in range(H.size):
                composed = tuple(action[h1][action[h2][v]] for v in range(V.size))
                if composed != action[H.mul(h1, h2)]:
                    raise ConstructionError("action is not a group homomorphism")
        self._store(space, acting, action)


def check_antisymmetric_bracket(H: FiniteGroup, bracket: tuple[int, ...], arity: int) -> None:
    """Antisymmetry for group-valued n-ary operations: swapping any two
    adjacent arguments must send the value to its group inverse."""
    k = H.size
    if len(bracket) != k**arity:
        raise ConstructionError(f"bracket table must have {k ** arity} entries")
    if any(not (0 <= v < k) for v in bracket):
        raise ConstructionError("bracket values must lie in the group")
    strides = [k ** (arity - 1 - i) for i in range(arity)]
    for xs in product(range(k), repeat=arity):
        idx = sum(x * st for x, st in zip(xs, strides))
        for i in range(arity - 1):
            swapped = list(xs)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            jdx = sum(x * st for x, st in zip(swapped, strides))
            if bracket[jdx] != H.inv(bracket[idx]):
                raise ConstructionError(
                    f"bracket is not antisymmetric: swap at positions {i},{i + 1} "
                    f"of {xs} does not invert the value"
                )


def build_module_group_nrack(
    H: FiniteGroup,
    bracket: tuple[int, ...],
    module: GroupModule,
    arity: int,
) -> tuple[FiniteNRack, ValidationReport]:
    """Carrier V x H with

        [(u_1, A_1), ..., (u_n, A_n)]
            = ({A_1,...,A_n} . u_n, A_1 A_2 ... A_{n-1} A_n A_{n-1}^-1 ... A_1^-1)

    where {...} is the supplied antisymmetric bracket on H acting on V.
    The table is built unconditionally and passed through the validator;
    the returned report says whether the axioms hold for the given data.
    """
    if arity < 2:
        raise ConstructionError(f"arity must be >= 2, got {arity}")
    if module.acting is not H:
        if module.acting.cayley != H.cayley or module.acting.identity != H.identity:
            raise ConstructionError("module is not an H-module for the supplied H")
    _check_table_budget(module.space.size * H.size, arity)
    check_antisymmetric_bracket(H, bracket, arity)
    V = module.space
    k = H.size
    size = V.size * k
    conj = build_conjugation_nrack(H, arity).table
    # As[j]: the index in H^arity of the H parts of the j-th carrier tuple,
    # whose last entry is j % size, with V part j % size // k.
    As = entrywise([c % k for c in range(size)], arity, k)
    table = tuple(
        module.action[bracket[a]][j % size // k] * k + conj[a] for j, a in enumerate(As)
    )
    rack = FiniteNRack(arity, size, table, basepoint=V.identity * k + H.identity)
    return rack, validate(rack)


class GroupPresentation(Frozen):
    """Generators 0..generators-1 with relator words as tuples of signed
    1-based indices: generator i is i+1, its inverse -(i+1).  Relators are
    stored freely reduced; no empty relator is kept."""

    _fields = ("generators", "relators")

    def __init__(self, generators: int, relators: tuple[tuple[int, ...], ...]):
        if generators < 0:
            raise ValueError("generator count must be nonnegative")
        relators = tuple(tuple(w) for w in relators)
        for word in relators:
            if not word:
                raise ValueError("empty relator stored")
            for letter in word:
                if letter == 0 or abs(letter) > generators:
                    raise ValueError(f"letter {letter} outside generator range")
        self._store(generators, relators)


def free_reduce(word) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs g g^-1 until none remain."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _relator_word(xs, value: int, paper_form: bool) -> tuple[int, ...]:
    # Generators are 0-based carrier elements; letters are signed 1-based.
    pos = [x + 1 for x in xs]
    if paper_form:
        # x_1^-1 ... x_{n-1}^-1 x_n^-1 x_{n-1} ... x_1  followed by [xs].
        word = [-g for g in pos[:-1]] + [-pos[-1]] + list(reversed(pos[:-1])) + [value + 1]
    else:
        # gen([xs]) = x_1 ... x_{n-1} x_n x_{n-1}^-1 ... x_1^-1, written as
        # gen([xs]) x_1 ... x_{n-1} x_n^-1 x_{n-1}^-1 ... x_1^-1; this is the
        # form that conjugation n-racks satisfy under the identity map.
        word = [value + 1] + pos[:-1] + [-pos[-1]] + [-g for g in reversed(pos[:-1])]
    return free_reduce(word)


def associated_group_presentation(R: FiniteNRack, paper_form: bool = False) -> GroupPresentation:
    """One generator per carrier element and one relator per n-tuple,
    imposing gen([x_1,...,x_n]) = x_1 ... x_{n-1} x_n x_{n-1}^-1 ... x_1^-1.

    paper_form=True switches to the alternative prefix ordering
    x_1^-1 ... x_{n-1}^-1 x_n^-1 x_{n-1} ... x_1 gen([x]); the two differ on
    nonabelian targets.  Relators are freely reduced, deduplicated, and
    sorted; trivial relators are dropped.
    """
    require(R, "associated group")
    words = set()
    for xs in product(range(R.size), repeat=R.arity):
        word = _relator_word(xs, R.bracket(*xs), paper_form)
        if word:
            words.add(word)
    return GroupPresentation(R.size, tuple(sorted(words)))


def abelianization(P: GroupPresentation) -> AbelianGroupInvariants:
    """Smith normal form of the relator exponent-sum matrix.

    Each relator's exponent sums form one sparse row; the rows are handed to
    the engine as the columns of the transpose, which has the same
    invariant factors.
    """
    rows = []
    for word in P.relators:
        row: dict[int, int] = {}
        for letter in word:
            g = abs(letter) - 1
            row[g] = row.get(g, 0) + (1 if letter > 0 else -1)
        rows.append(row)
    return group_from_diagonal(sparse_invariant_factors(rows), P.generators)


def evaluate_word(G: FiniteGroup, word, images) -> int:
    """Evaluate a signed relator word in G, sending generator i to images[i]."""
    acc = G.identity
    for letter in word:
        g = images[abs(letter) - 1]
        acc = G.mul(acc, g if letter > 0 else G.inv(g))
    return acc


def check_relator_preservation(
    R: FiniteNRack, G: FiniteGroup, alpha, paper_form: bool = False
) -> bool:
    """Whether every relator of the associated group dies in G under alpha.

    alpha must be an n-rack morphism from R into the conjugation n-rack of
    G (checked first; ValueError otherwise).  True means the induced map
    from the associated group to G exists.
    """
    conj = build_conjugation_nrack(G, R.arity)
    alpha = tuple(alpha[x] for x in range(R.size))
    if not is_homomorphism(alpha, R, conj):
        raise ValueError("alpha is not an n-rack morphism into the conjugation n-rack")
    P = associated_group_presentation(R, paper_form=paper_form)
    return all(evaluate_word(G, word, alpha) == G.identity for word in P.relators)
