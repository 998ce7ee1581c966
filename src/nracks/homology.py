"""Chain complexes and (co)homology of finite n-racks.

The complex of an n-rack X lives on the reduced rack Y = X^(n-1) (tuple
carrier, see constructions.reduce_nrack_to_rack): degree-k chains are free
abelian on k-tuples over Y, ordered lexicographically.  The boundary is

    d(x_1,...,x_k) = sum_{i=2}^k (-1)^i [ (x_1,...,x_{i-1},x_{i+1},...,x_k)
                     - (x_i*x_1,...,x_i*x_{i-1},x_{i+1},...,x_k) ]

where a*b is the left action of a on b in Y.  This is the unique reading
of the classical rack boundary for which d.d = 0 holds on left racks; the
identity is asserted on every construction.  Degree 0 has rank 1 (the
empty tuple) with d_1 = 0, so H_0 = A.  A complex is held as its boundary
columns alone (ChainComplex): column j of d_k is the boundary of the j-th
chain of degree k, degree 0 keeping one empty column per chain, and no
tuple is stored; the ranks are the column counts.  The columns are kept in
blocks, d_k being their direct sum, each block counted once per orbit it
stands for (below).  A complex is made only by its builders,
rack_chain_complex, degenerate_subcomplex and quandle_quotient_complex;
an arbitrary integer matrix is factored by snf.sparse_invariant_factors.

For an n-quandle, the degenerate tuples (two consecutive entries equal)
span a subcomplex D, and the quandle complex Q = C/D has the
non-degenerate tuples as its basis, in the same lexicographic order; its
boundary is d followed by the projection p that kills degenerate tuples.

One recursion builds both the rack complex R and Q, each boundary map
from the one below it.  The children of a tuple t are the tuples (t, x).
Q skips the child (t, last(t)), as (t, x) is degenerate when t is or when
x = last(t); R is the case in which no child is skipped, read as every
tuple having for its last entry a sentinel that no element equals, as the
empty tuple has in both.  For each kept child,

    p d_k(t, x) = (p d_{k-1}(t), x) + (-1)^k [ t - x.t ],

where p is the identity on R, (c, x) appends x to every tuple of the
chain c and drops the skipped children, and x.t is x acting on each entry
of t.  Each x acts bijectively, so on a quandle x.t is again
non-degenerate and no projection touches t - x.t.  So column (t, x) of
d_k is column t of d_{k-1} with each row r moved to the position of
(r, x), or dropped when (r, x) is skipped, plus the rows t and x.t, which
may cancel.  The positions of the children and of x.t are read from
tables extended by one entry per degree, so the build is linear in the
entries it writes.

Closure of D is verified, not assumed.  A degenerate (t, x) has t
degenerate, or t non-degenerate and x = last(t).  In the first case
p d(t, x) = (p d(t), x), skipped children dropped, as t and x.t are
degenerate, and that is zero once D is closed one degree down.  So, by induction on
the degree, d(D) lies in D up to the top degree exactly when
p d_k(t, last(t)) vanishes for each non-degenerate t in each degree
k >= 2: the one column per t that Q skips, built and checked instead of
kept.  In degree 2 that is (a) - (a.a) = 0, the quandle identity a.a = a.

The rank of every boundary map is known before it is factored.  With r_k
the rank of C_k, s_k that of d_k and b_k the free rank of H_k,
b_k = r_k - s_k - s_{k+1} and s_1 = 0, so s_{k+1} = r_k - s_k - b_k, and
the free ranks depend only on the number o of orbits of Y under its inner
group:

    R: b_k = o^k,  Q: b_k = o(o-1)^(k-1),  D: b_k = o^k - o(o-1)^(k-1).

For R this is the theorem of Etingof & Grana (On rack cohomology, J. Pure
Appl. Algebra 177, 2003): the Betti numbers of a finite rack are o^k.  For
a finite quandle, Litherland & Nelson (The Betti numbers of some finite
racks, J. Pure Appl. Algebra 178, 2003) split the rack complex as
C^R = C^D + C^Q and determine the degenerate homology by the quandle
homology; with the rack Betti numbers this gives the quandle Betti numbers
o(o-1)^(k-1), as conjectured by Carter, Jelsovsky, Kamada & Saito, and D
has the difference.  Each d_k of a complex built here must have exactly
s_k invariant factors (ChainComplex.factors), so a wrong column,
orbit count or elimination that changes a rank raises instead of
answering.  The tests check every s_k against an independent rank modulo
a prime on the small censuses and the fixtures.

R splits by the orbit of the first entry.  No face of d(x_1,...,x_k)
deletes x_1, and face i only moves it to x_i*x_1, in the same orbit of Y.
So for k >= 1 the chains whose first entry lies in an orbit O span a
subcomplex, the block of O, and each d_k is the direct sum of the blocks'
maps: the block of O is the complex of Y with coefficients in the Y-set O,
one degree up (Carter, Elhamdadi, Grana & Saito, Osaka J. Math. 42, 2005).
An isomorphism of Y-sets phi: O -> O' maps the block of O onto that of O'
by (a, x_2,...,x_k) -> (phi(a), x_2,...,x_k), as x*phi(a) = phi(x*a), with
the same columns once positions are counted within each block.  So R is
built one block per class of isomorphic orbits, each seeded by the same
recursion with the entries of one orbit, and the invariant factors of d_k
are those of the representative blocks, each counted once per orbit of its
class, folded into one divisibility chain.  The orbit count certifies that
class-weighted count; every representative block is checked for d.d = 0;
each orbit map is checked on all of Y x O, and the orbits of the classes
must partition Y, before any block is built.  When no two orbits are
isomorphic the recursion is seeded with all of Y at once: one block,
counted once.  Q and D are not split this way: phi need not keep a = x_2,
so it does not carry degenerate tuples to degenerate tuples.  Q is always
one block seeded with all of Y, by the recursion alone, also when it is
asked for as the quotient of R by D.  D is the subcomplex of R on the
degenerate positions, restricted from each block of R once per orbit of
its class, with that orbit's own entries deciding which tuples are
degenerate: one block of D per orbit, counted once.

Homology with Z/d coefficients is computed from the integral Smith normal
form data by universal-coefficient reduction:

    H_k(X; Z/d) = (Z/d)^rho + sum_i Z/gcd(d, t_i) + sum_j Z/gcd(d, u_j)

with rho the integral free rank, t_i the torsion of integral H_k, and u_j
the torsion of integral H_{k-1}.  Every gcd divides d, and the gcds are
put in a divisibility chain by gcd and lcm steps, so no number is ever
factored.  Tests cross-check this against direct mod-p Gaussian
elimination on all fixtures.
"""

from collections import Counter
from itertools import cycle
from math import gcd

from ._frozen import Frozen
from .constructions import FiniteRack, reduce_nrack_to_rack
from .core import FiniteNRack, orbits, require
from .errors import BudgetExceededError, SubcomplexError
from .snf import (
    AbelianGroupInvariants,
    Factorization,
    certified_factors,
    invariants_from_cyclic_orders,
)

DEFAULT_COLUMN_BUDGET = 20000


class CoefficientGroup(Frozen):
    """Coefficients for homology: the integers (modulus 0) or Z/d, d >= 2."""

    _fields = ("modulus",)

    def __init__(self, modulus: int = 0):
        if modulus != 0 and modulus < 2:
            raise ValueError("cyclic coefficient modulus must be >= 2")
        self._store(modulus)

    @classmethod
    def parse(cls, text: str) -> "CoefficientGroup":
        """Accepts only the canonical spelling, so str(parse(text)) == text:
        "Z", or "Z/" followed by the ASCII digits of some d >= 2 with no
        leading zero."""
        if text == "Z":
            return cls(0)
        digits = text[2:]
        if (text.startswith("Z/") and digits.isascii() and digits.isdigit()
                and digits[0] != "0" and int(digits) >= 2):
            return cls(int(digits))
        raise ValueError(f"cannot parse coefficient group {text!r}: expected Z or Z/d, d >= 2")

    def __str__(self) -> str:
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"


class ChainComplex:
    """Free chain groups held as blocks of sparse integer boundary columns.

    rack is the reduced rack Y the complex lives on, of size M, and variant
    is "R", "D" or "Q" (ValueError otherwise).  Position p in degree k is
    the p-th k-tuple over Y in lexicographic order (first entry most
    significant) among all tuples for variant "R", the degenerate ones (two
    consecutive entries equal) for "D", and the non-degenerate ones for
    "Q"; degree 0 is the empty tuple, non-degenerate.  cols[k][j] is column
    j of d_k as a map from row position in degree k-1 to its integer
    coefficient, cols[0] holding one empty column per degree-0 chain, as
    d_0 = 0.  So rank(k) = len(cols[k]) in every degree, ranks lists every
    rank, and max_degree = len(cols) - 1.

    Each of the blocks is (cols, orders, factors), d_k being the direct
    sum of each block's map counted len(orders) times.  Every order lists
    the first entries of an orbit the block stands for, and the block's
    cols are in block-local positions: i * P + r in degree k >= 1 is the
    tuple with first entry order[i] and the rest ranked r, P = rank(k) / M,
    the same columns for every order of the block (see the module
    docstring).  A block seeded with all of Y has orders
    [list(range(M))].  Degree 0 is the empty tuple of the whole complex,
    in no block; each block's cols[0] is the complex's own, [{}], or []
    for D.  factors keeps the block's own factorizations, with the row
    keys they pivoted on.  cols is assembled from the blocks on first read
    and kept; ranks and factors read the blocks.

    orbit_count is the number of orbits of Y: the rank of every d_k
    follows from it and the variant's free ranks (see the module
    docstring), computed once, on construction.  Every block has
    d_{k-1} d_k = 0, checked exactly on construction; factors relies on
    it.  The invariant factors of each d_k are computed on first use and
    kept with the complex; the boundary columns must not change
    afterwards.  The builders are rack_chain_complex, degenerate_subcomplex
    and quandle_quotient_complex.  Unlike the value types, a ChainComplex
    compares by identity, and its repr reads no columns.
    """

    def __init__(self, rack: FiniteRack, blocks, variant: str, orbit_count: int):
        if variant not in ("R", "D", "Q"):
            raise ValueError(f"unknown complex variant {variant!r}")
        self.rack, self.variant, self.orbit_count = rack, variant, orbit_count
        self._blocks = blocks
        self._cols = None
        self._factors: dict[int, tuple[int, ...]] = {}
        first = blocks[0][0]
        self._ranks = [len(first[0])] + [
            sum(len(cols[k]) * len(orders) for cols, orders, _ in blocks)
            for k in range(1, len(first))
        ]
        for cols, _, _ in blocks:
            _check_square_zero(cols)
        # The rank s_k of every d_k from the free ranks b_k of the variant:
        # s_1 = 0 and s_{k+1} = r_k - s_k - b_k.
        s = self._boundary_ranks = [0, 0]
        for k in range(1, self.max_degree):
            s.append(self._ranks[k] - s[k] - _free_rank(variant, orbit_count, k))

    @property
    def max_degree(self) -> int:
        return len(self._ranks) - 1

    def rank(self, k: int) -> int:
        return self._ranks[k]

    @property
    def ranks(self) -> list[int]:
        return list(self._ranks)

    @property
    def cols(self) -> list[list[dict[int, int]]]:
        if self._cols is None:
            M = self.rack.size
            self._cols = []
            for k, rank in enumerate(self._ranks):
                # Block-local position i * P + r is order[i] * P + r.
                P, Q = rank // M, self._ranks[k - 1] // M if k else 0
                degree: list[dict[int, int]] = [{}] * rank
                for block, orders, _ in self._blocks:
                    for order in orders:
                        to_row = [a * Q + r for a in order for r in range(Q)]
                        to_col = [a * P + r for a in order for r in range(P)]
                        for j, col in zip(to_col, block[k]):
                            degree[j] = {to_row[i]: v for i, v in col.items()}
                self._cols.append(degree)
        return self._cols

    def factors(self, k: int) -> tuple[int, ...]:
        """Invariant factors of d_k, factored once per complex, with their
        number certified.

        d_k is block-diagonal: each block is factored along its own chain
        (see _next_factorization), and its factors count once per orbit it
        stands for.  That number is the rank of d_k, and it must be the rank
        s_k that the free ranks give (see the module docstring), from
        outside the elimination; otherwise AssertionError is raised and no
        factors are kept.  The factors other than 1 are folded into one
        divisibility chain, so nothing is factored twice.
        """
        while len(self._factors) < k:
            m = len(self._factors) + 1
            found = [(orders, _next_factorization(cols, done), done)
                     for cols, orders, done in self._blocks]
            count = sum(len(orders) * len(f.factors) for orders, f, _ in found)
            if count != self._boundary_ranks[m]:
                raise AssertionError(f"rank certificate failed: d_{m} has {count} invariant "
                                     f"factors, and {self._boundary_ranks[m]} by its orbit count")
            for _, f, done in found:
                done[m] = f
            chain = invariants_from_cyclic_orders(
                [d for orders, f, _ in found for d in f.factors if d > 1 for _ in orders]
            )
            self._factors[m] = (1,) * (count - len(chain)) + chain
        return self._factors[k]

    def boundary_triplets(self, k: int) -> str:
        """Plain text export: a "rows cols" header line, then one
        "row col value" line per nonzero entry (0-based), sorted."""
        rows, cols = self.rank(k - 1), self.rank(k)
        lines = [f"{rows} {cols}"]
        entries = []
        for j, col in enumerate(self.cols[k]):
            for i, v in col.items():
                entries.append((i, j, v))
        for i, j, v in sorted(entries):
            lines.append(f"{i} {j} {v}")
        return "\n".join(lines) + "\n"


def _check_square_zero(cols: list[list[dict[int, int]]]) -> None:
    """Assert d_{k-1} d_k = 0 in every degree of the columns, exactly.

    Column by column: through the entries +-1 of d_k that reach a column of
    d_{k-1} with entries +-1 alone, the rows reached with a plus sign must
    sort to those reached with a minus sign; every other product is summed
    exactly, so the cost does not grow with the size of the entries.
    """
    for k in range(2, len(cols)):
        lower = cols[k - 1]
        plus = [[i for i, v in col.items() if v == 1] for col in lower]
        minus = [[i for i, v in col.items() if v == -1] for col in lower]
        unit = [len(p) + len(m) == len(col) for p, m, col in zip(plus, minus, lower)]
        for col in cols[k]:
            up, down, rest = [], [], {}
            for r, c in col.items():
                if c == 1 and unit[r]:
                    up += plus[r]
                    down += minus[r]
                elif c == -1 and unit[r]:
                    up += minus[r]
                    down += plus[r]
                else:
                    for i, v in lower[r].items():
                        rest[i] = rest.get(i, 0) + c * v
            if rest:
                rest = Counter(rest)
                rest.update(up)
                rest.subtract(down)
                zero = not any(rest.values())
            else:
                up.sort()
                down.sort()
                zero = up == down
            if not zero:
                raise AssertionError("boundary does not square to zero")


def _next_factorization(cols, done: dict[int, Factorization]) -> Factorization:
    """Factor d_m of the columns cols, m = len(done) + 1, the maps below it
    factored in done; the factors are not yet certified (see
    ChainComplex.factors).

    The factors are those of the coboundary d_m^T: its columns are the
    nonzero rows of d_m, indexed by column position.  d_m is at least as
    wide as it is tall, and most of its columns lie in the kernel;
    eliminating by rows leaves only the dependent rows to reduce.

    Fewer rows still suffice.  If d_{m-1}[A, B] is invertible, then
    d_{m-1}[A, :] d_m = 0 puts rows B of d_m in the span of the others,
    B': d_m[B, :] = -d_{m-1}[A, B]^-1 d_{m-1}[A, B'] d_m[B', :].  So d_{m-1}
    is factored first, and the elimination is handed d_m without the rows
    at the keys of its +-1 pivots on d_{m-1}: a unimodular block, so the
    invariant factors do not change.
    """
    m = len(done) + 1
    units = done[m - 1].unit_keys if m > 1 else ()
    rows = [None if i in units else {} for i in range(len(cols[m - 1]))]
    for j, col in enumerate(cols[m]):
        for i, v in col.items():
            if rows[i] is not None:
                rows[i][j] = v
    return certified_factors([row for row in rows if row])


class HomologyResult(Frozen):
    _fields = ("degree", "invariants", "variant", "coefficients")


def reduced_rack_table(X: FiniteNRack) -> list[list[int]]:
    """Row-indexed table of the reduced rack X^(n-1) the complex lives on."""
    rack = reduce_nrack_to_rack(X)
    return [list(rack.row(a)) for a in range(rack.size)]


def rack_chain_complex(
    X: FiniteNRack, max_degree: int, budget: int = DEFAULT_COLUMN_BUDGET, variant: str = "R"
) -> ChainComplex:
    """The chain complex of X up to the given degree: the rack complex R,
    or for an n-quandle, with variant "D", its degenerate subcomplex, or
    with variant "Q" the quandle complex, on the non-degenerate tuples.
    One recursion builds R and Q, R being the case in which no tuple is
    skipped (see the module docstring); D is degenerate_subcomplex of R.

    X must be an n-rack, and for D and Q an n-quandle; a table that is not
    is refused with AxiomError (a ValueError) carrying its report, before
    anything is built.  Any other variant is refused with ValueError.
    Construction refuses degrees whose rank exceeds the column budget, the
    rank of the complex built by the recursion, _free_rank over the M
    elements of Y: that of R for D, which is restricted from R, split into
    blocks or not.  D and Q raise AssertionError when the degenerate
    tuples fail to span a subcomplex, which on an n-quandle only a fault
    brings about.  d.d = 0 is asserted before returning.  The complex
    keeps the orbit count of the reduced rack, one union-find over its
    rows, which fixes the rank of every boundary map (see ChainComplex).
    R is built one block per class of isomorphic orbits when two orbits
    are isomorphic (see the module docstring); otherwise, and always for
    Q, one block is seeded with all of Y.
    """
    if variant == "D":
        require(X, "degenerate subcomplex", nquandle=True)
        return degenerate_subcomplex(X, rack_chain_complex(X, max_degree, budget))
    if variant not in ("R", "Q"):
        raise ValueError(f"unknown complex variant {variant!r}")
    if max_degree < 0:
        raise ValueError("max degree must be nonnegative")
    require(X, "quandle complex" if variant == "Q" else "chain complex", nquandle=variant == "Q")
    M = X.size ** (X.arity - 1)
    for k in range(max_degree + 1):
        r = _free_rank(variant, M, k)
        if r > budget:
            raise BudgetExceededError(
                f"chain rank {r} in degree {k} exceeds the {budget}-column budget",
                limit=budget,
                reached=r,
            )
    rack = reduce_nrack_to_rack(X)
    rows = [rack.row(x) for x in range(M)]
    orbs = orbits(rack)
    # One block seeded with all of Y, unless a class of R holds two orbits;
    # Q is not split (see the module docstring).
    classes = [[list(range(M))]]
    if variant == "R" and len(split := _orbit_classes(rows, orbs)) < len(orbs):
        classes = split
    return _split_complex(rack, rows, classes, max_degree, variant, len(orbs))


def _boundary_columns(rows, seed, max_degree: int, quandle: bool):
    """Columns of d_0 .. d_max_degree on the tuples whose first entry lies
    in seed, a subset of Y closed under its action, by the recursion of the
    module docstring: R, or with quandle the non-degenerate tuples for Q.

    rows[x][a] is x acting on a.  Position p in degree k >= 1 is the p-th
    such tuple in lexicographic order, its first entry ranked by its place
    in seed: with seed all of Y in order, the positions of ChainComplex;
    with seed an orbit, block-local positions.  Degree 0 is the empty
    tuple.  A seed that the action leaves raises AssertionError.
    """
    M = len(rows)
    # Q skips the child (t, last(t)) of each tuple t.  R records for every
    # tuple the last entry the empty tuple has in both, the sentinel M that
    # no entry equals, so it skips none.  width is the number of children
    # each tuple keeps.
    width = M - 1 if quandle else M
    # tag[y] is the last entry recorded for a tuple ending in y.
    tag = range(M) if quandle else [M] * M
    place = [-1] * M
    for i, a in enumerate(seed):
        place[a] = i
    # lasts: last entries of the (k-1)-tuples; acts[x][p]: the position of
    # x acting on each entry of the p-th (k-1)-tuple.  Both grow a degree
    # at the bottom of each step.
    lasts = [tag[a] for a in seed]
    acts = [[place[row[a]] for a in seed] for row in rows]
    if any(-1 in act for act in acts):
        raise AssertionError("a block's first entries are not closed under the action")
    # children[x][p]: the position of the child (p, x) among the
    # (k-1)-tuples, or -1 where it is skipped; d_1 = 0 has no row to move.
    children = [()] * M
    # d_0 = 0 and d_1 = 0: one empty column per chain.
    cols: list[list[dict[int, int]]] = [[{}], [{} for _ in seed]][: max_degree + 1]
    for k in range(2, max_degree + 1):
        sign = 1 if k % 2 == 0 else -1
        by_x = list(zip(range(M), children, acts))
        degree_cols = []
        for t, below in enumerate(cols[k - 1]):
            items = below.items()
            last = lasts[t]
            for x, child, act in by_x:
                # Rows (r, x) that are skipped all land on -1.
                col = {child[r]: v for r, v in items}
                if -1 in col:
                    del col[-1]
                # (-1)^k (t - x.t), cancelling what is already there.
                u = act[t]
                if u != t:
                    s = col.get(t, 0) + sign
                    if s:
                        col[t] = s
                    else:
                        del col[t]
                    s = col.get(u, 0) - sign
                    if s:
                        col[u] = s
                    else:
                        del col[u]
                if x != last:
                    degree_cols.append(col)
                elif col:
                    raise AssertionError(
                        f"degenerate basis not closed under the boundary in degree {k}"
                    )
        cols.append(degree_cols)
        if k < max_degree:
            children = [[-1 if l == x else p * width + x - (x > l) for p, l in enumerate(lasts)]
                        for x in range(M)]
            acts = [[children[b][a] for a, l in zip(act, lasts) for y, b in enumerate(row) if y != l]
                    for act, row in zip(acts, rows)]
            lasts = [tag[y] for l in lasts for y in range(M) if y != l]
    return cols


def _orbit_classes(rows, orbs: list[list[int]]) -> list[list[list[int]]]:
    """The orbits of Y grouped into classes of isomorphic Y-sets, in order
    of first orbit.  A class lists its orbits: the first, its
    representative, sorted, and each other one as the images of the
    representative's entries under an isomorphism (see _orbit_map).
    Isomorphic orbits have the same size and the same number of points
    fixed by each x in Y, so only orbits that agree on those are compared.
    """
    classes: list[list[list[int]]] = []
    seen: dict[tuple, list[list[list[int]]]] = {}
    for orbit in orbs:
        key = (len(orbit), *(sum(row[a] == a for a in orbit) for row in rows))
        candidates = seen.setdefault(key, [])
        for cls in candidates:
            image = _orbit_map(rows, cls[0], orbit)
            if image is not None:
                cls.append(image)
                break
        else:
            candidates.append([orbit])
            classes.append(candidates[-1])
    return classes


def _orbit_map(rows, source: list[int], target: list[int]) -> list[int] | None:
    """An isomorphism of Y-sets from the orbit source onto the orbit target,
    as the images of source's entries, or None.  It is fixed by the image b
    of source[0]: phi(x.a) = x.phi(a) spreads it over the orbit, and each b
    in target is tried until the spread map is one (see _is_orbit_map)."""
    for b in target:
        phi = {source[0]: b}
        spread = [source[0]]
        for a in spread:
            for row in rows:
                if row[a] not in phi:
                    phi[row[a]] = row[phi[a]]
                    spread.append(row[a])
        image = [phi.get(a) for a in source]
        if _is_orbit_map(rows, source, image):
            return image
    return None


def _is_orbit_map(rows, source: list[int], image: list) -> bool:
    """Whether a -> image[i], a = source[i], has phi(x.a) = x.phi(a) for
    every x in Y and a in source.  Onto an orbit of the same size, such a
    map is one to one, as its image is closed under the action."""
    where = {a: i for i, a in enumerate(source)}
    return len(image) == len(source) and None not in image and all(
        row[a] in where and image[where[row[a]]] == row[image[i]]
        for row in rows for i, a in enumerate(source)
    )


def _split_complex(rack: FiniteRack, rows, classes, max_degree: int, variant: str,
                   orbit_count: int) -> ChainComplex:
    """The complex of the variant on the reduced rack with rows, one block
    built per class of isomorphic orbits (see ChainComplex), each seeded by
    _boundary_columns with the first orbit of its class.  What the blocks
    rest on is checked first, each failure raising AssertionError: the
    orbits of all classes partition Y, and each orbit's map from its
    representative is an isomorphism of Y-sets, on every pair of Y x the
    orbit."""
    if sorted(a for cls in classes for order in cls for a in order) != list(range(len(rows))):
        raise AssertionError("the orbit classes do not partition the reduced rack")
    if not all(_is_orbit_map(rows, rep, order) for rep, *others in classes for order in others):
        raise AssertionError("an orbit map is not an isomorphism of Y-sets")
    blocks = [(_boundary_columns(rows, cls[0], max_degree, variant == "Q"), cls, {})
              for cls in classes]
    return ChainComplex(rack, blocks, variant, orbit_count)


def _free_rank(variant: str, size: int, k: int) -> int:
    """The number of k-tuples of the variant over a set of the given size:
    all of them for R, the degenerate ones for D, the non-degenerate ones
    for Q, and in degree 0 the empty tuple, non-degenerate.  Over the M
    elements of Y it is the rank of C_k; over the o orbits of Y, for
    k >= 1, the free rank of H_k of a finite rack, D and Q taken of a
    quandle (see the module docstring).  Only what the variant needs is
    evaluated: o^k gains a digit every few degrees, so evaluating it for
    Q as well would make a long range of degrees quadratic."""
    quandle = 0 if variant == "R" else size * (size - 1) ** (k - 1) if k else 1
    return quandle if variant == "Q" else size**k - quandle


def degenerate_subcomplex(X: FiniteNRack, C: ChainComplex) -> ChainComplex:
    """Subcomplex spanned by tuples with two consecutive equal entries: the
    columns of the rack complex C at their positions, renumbered in the
    same order, restricted from each block of C once per orbit of its
    class (see _degenerate_block).

    Requires X to be an n-quandle (AxiomError, a ValueError, otherwise),
    and C to be a rack complex of X (SubcomplexError, a ValueError,
    otherwise).  Closure under the boundary is verified, not assumed: a
    boundary row at a non-degenerate position raises AssertionError, as
    the other certificates on a complex do.  In degree 2 it is the quandle
    identity a.a = a on the reduced rack C lives on, as the boundary of
    (a, a) is (a) - (a.a) and D_1 is empty.  The orbit count of C is passed
    on, so D has its ranks certified by its own free ranks.
    rack_chain_complex(X, k, variant="D") is this subcomplex of
    rack_chain_complex(X, k).
    """
    if C.variant != "R":
        raise SubcomplexError("degenerate subcomplex is taken inside the rack complex")
    M = C.rack.size
    if M != X.size ** (X.arity - 1):
        raise SubcomplexError("complex does not belong to the given n-rack")
    require(X, "degenerate subcomplex", nquandle=True)
    blocks = [(_degenerate_block(cols, order, M), [order], {})
              for cols, orders, _ in C._blocks for order in orders]
    return ChainComplex(C.rack, blocks, "D", C.orbit_count)


def _degenerate_block(cols, order, M: int) -> list[list[dict[int, int]]]:
    """The columns of the rack complex block cols at its degenerate tuples
    for the orbit whose first entries are order, renumbered in the same
    order: a block of D, in block-local positions (see ChainComplex).

    The child (t, x) of a tuple t is degenerate iff t is, or x is the last
    entry of t, read from the orbit's own entries: order[t] for a 1-tuple
    t, and t mod M for a longer one; the empty tuple and the 1-tuples are
    not degenerate.  A boundary row at a non-degenerate position raises
    AssertionError.
    """
    block: list[list[dict[int, int]]] = [[]]
    flags, lasts = [False] * len(order), order
    position: dict[int, int] = {}
    for k in range(1, len(cols)):
        if k > 1:
            flags = [f or x == last for f, last in zip(flags, lasts) for x in range(M)]
            lasts = cycle(range(M))
        kept = [j for j, f in enumerate(flags) if f]
        degree_cols = []
        for full in kept:
            col = {}
            for row, v in cols[k][full].items():
                if row not in position:
                    raise AssertionError(
                        f"degenerate basis not closed under the boundary in degree {k}"
                    )
                col[position[row]] = v
            degree_cols.append(col)
        block.append(degree_cols)
        position = {full: pos for pos, full in enumerate(kept)}
    return block


def quandle_quotient_complex(C: ChainComplex, D: ChainComplex) -> ChainComplex:
    """Quotient of the rack complex by the degenerate subcomplex: the
    quandle complex on the non-degenerate tuples, built on C's reduced rack
    up to C's top degree by the recursion of rack_chain_complex, with C's
    orbit count; C's columns are not read.  D is checked, not read: it
    must be C's degenerate subcomplex by rack, top degree and ranks, those
    of C less those of Q."""
    if C.variant != "R" or D.variant != "D":
        raise SubcomplexError("quotient takes the rack complex and its degenerate subcomplex")
    if D.rack != C.rack or D.max_degree != C.max_degree:
        raise SubcomplexError("subcomplex does not match the ambient complex")
    M = C.rack.size
    if D.ranks != [r - _free_rank("Q", M, k) for k, r in enumerate(C.ranks)]:
        raise SubcomplexError("subcomplex basis is not the degenerate sub-basis")
    rows = [C.rack.row(x) for x in range(M)]
    return _split_complex(C.rack, rows, [[list(range(M))]], C.max_degree, "Q", C.orbit_count)


def _group_from_matrices(rank: int, out_factors, in_factors, A: CoefficientGroup):
    """Structure of ker(out)/im(in) over A, from integral invariant factors.

    out_factors: invariant factors of the map leaving the degree.
    in_factors: invariant factors of the map arriving at the degree.
    """
    free = rank - len(out_factors) - len(in_factors)
    if free < 0:
        raise AssertionError("rank bookkeeping is inconsistent")
    if A.modulus == 0:
        torsion = tuple(d for d in in_factors if d > 1)
        return AbelianGroupInvariants(free_rank=free, torsion=torsion)
    d = A.modulus
    # Every part divides d, so the free summands Z/d close the chain; the
    # parts are chained by gcd and lcm, and nothing is factored.
    parts = [gcd(d, t) for t in in_factors if t > 1]
    parts += [gcd(d, u) for u in out_factors if u > 1]
    torsion = invariants_from_cyclic_orders(parts) + (d,) * free
    return AbelianGroupInvariants(free_rank=0, torsion=torsion)


def _derived_group(
    C: ChainComplex, k: int, A: CoefficientGroup, out_map: int, in_map: int
) -> HomologyResult:
    """The group in degree k over A, with d_out_map leaving the degree and
    d_in_map arriving at it."""
    if not 1 <= k < C.max_degree:
        raise ValueError(
            f"degree {k} out of range; need 1 <= k < {C.max_degree} "
            "so that both boundary maps exist"
        )
    invariants = _group_from_matrices(C.rank(k), C.factors(out_map), C.factors(in_map), A)
    return HomologyResult(degree=k, invariants=invariants, variant=C.variant, coefficients=A)


def homology(C: ChainComplex, k: int, A: CoefficientGroup = CoefficientGroup()) -> HomologyResult:
    """H_k of the complex over A: ker d_k / im d_{k+1}.

    Uses the same per-map invariant factors as cohomology (see
    ChainComplex.factors), so each boundary map is factored once per complex.
    """
    return _derived_group(C, k, A, k, k + 1)


def cohomology(C: ChainComplex, k: int, A: CoefficientGroup = CoefficientGroup()) -> HomologyResult:
    """H^k over A: homology of the dual complex, ker d_{k+1}^T / im d_k^T.

    A matrix and its transpose have the same invariant factors, so H^k is
    derived from the factors of d_k and d_{k+1} (see ChainComplex.factors),
    the same ones homology uses, with the roles of the two maps swapped.
    """
    return _derived_group(C, k, A, k + 1, k)
