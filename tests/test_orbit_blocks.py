"""The rack complex split by the orbit of its first entry.

No term of d(x_1, ..., x_k) moves x_1 out of its orbit, so R is
block-diagonal, one block per orbit O of the reduced rack Y: the complex of
Y with coefficients in the Y-set O (Carter, Elhamdadi, Grana & Saito, Osaka
J. Math. 42, 2005).  Isomorphic orbits give blocks with the same columns,
and rack_chain_complex builds and factors one block per class.  Checked
here against the whole complex, built by patching in one class per orbit,
over the censuses and the fixtures: the same factors and groups, the same
columns once assembled, and the same D and Q; a split with every orbit in
its own block gives them too.  Then each mutant of what the blocks rest on
(a tuple in the wrong block, an orbit map that is not an isomorphism, a
class size off by one, a wrong sign in every block or in a later block
alone) must raise AssertionError in the library and exit 4 with no answer
in the CLI.  A split complex answers without reading its global columns,
and so do D, restricted from it block by block, and D's homology; D's
columns are checked against the restriction of the whole of R.
"""

import importlib
import itertools

import pytest

import oracle_constructions as oracle
from helpers import axiom_fixture_set, dihedral_nrack
from nracks import (
    AbelianGroupInvariants,
    CoefficientGroup,
    FiniteNRack,
    build_conjugation_nrack,
    build_z4_module_nrack,
    cohomology,
    degenerate_subcomplex,
    enumerate_nracks,
    homology,
    orbits,
    quandle_quotient_complex,
    rack_chain_complex,
    reduce_nrack_to_rack,
    symmetric_group,
    validate,
)
from nracks.cli import main
from nracks.homology import ChainComplex
from nracks.jsonio import dump_document, nrack_to_json

homology_module = importlib.import_module("nracks.homology")

# Degrees 2 to 4 are built, while the top chain rank stays within this.
CHAIN_RANK_CAP = 5000
Z4_3 = build_z4_module_nrack(3, 4)
CONJ_S3_3 = build_conjugation_nrack(symmetric_group(3), 3)


def _tables():
    named = [
        (f"census(n={n},m={m})#{i}", FiniteNRack(n, m, table))
        for n, top in ((2, 4), (3, 3), (4, 2))
        for m in range(1, top + 1)
        for i, table in enumerate(enumerate_nracks(n, m).representatives)
    ]
    named += [(name, X) for name, X in axiom_fixture_set() if validate(X).is_nrack]
    named += [(f"dihedral({m})", dihedral_nrack(m)) for m in (3, 4, 5, 6)]
    named.append(("conj(S3)", build_conjugation_nrack(symmetric_group(3), 2)))
    named.append(("z4(n=3)", Z4_3))
    named.append(("conj(S3,n=3)", CONJ_S3_3))
    return named


TABLES = _tables()


def _top(X):
    M = X.size ** (X.arity - 1)
    return max([k for k in range(2, 5) if M**k <= CHAIN_RANK_CAP], default=2)


def _whole(X, top, monkeypatch):
    """R of X built on all of Y at once: one class per orbit."""
    with monkeypatch.context() as patch:
        patch.setattr(homology_module, "_orbit_classes", lambda rows, orbs: [[o] for o in orbs])
        return rack_chain_complex(X, top)


def _each_orbit_a_block(X, top):
    """R of X split with every orbit in a class of its own."""
    rack = reduce_nrack_to_rack(X)
    rows = [rack.row(x) for x in range(rack.size)]
    orbs = orbits(rack)
    return homology_module._split_complex(rack, rows, [[o] for o in orbs], top, "R", len(orbs))


def _split(C):
    """Whether C is held as blocks counted more than once in all: one per
    orbit, with two or more orbits, not one block seeded with all of Y."""
    return sum(len(orders) for _, orders, _ in C._blocks) > 1


def _groups(C):
    return [
        f(C, k, A).invariants
        for f in (homology, cohomology)
        for A in (CoefficientGroup(), CoefficientGroup(4))
        for k in range(1, C.max_degree)
    ]


@pytest.mark.parametrize("X", [X for _, X in TABLES], ids=[name for name, _ in TABLES])
def test_the_split_complex_is_the_whole_complex(X, monkeypatch):
    top = _top(X)
    C, W, E = rack_chain_complex(X, top), _whole(X, top, monkeypatch), _each_orbit_a_block(X, top)
    assert not _split(W)
    for other in (W, E):
        assert [C.factors(k) for k in range(1, top + 1)] == [
            other.factors(k) for k in range(1, top + 1)
        ]
        assert _groups(C) == _groups(other)
        assert C.ranks == other.ranks and C.cols == other.cols
    if validate(X).classification.is_nquandle:
        D, DW = degenerate_subcomplex(X, C), degenerate_subcomplex(X, W)
        assert D.cols == DW.cols
        assert quandle_quotient_complex(C, D).cols == quandle_quotient_complex(W, DW).cols


def test_the_oracle_covers_split_complexes():
    # 28 + 60 + 17 census tables, the 16 fixtures, and 7 more; 93 of them
    # have two isomorphic orbits or more.
    assert len(TABLES) == 128
    split = [name for name, X in TABLES if _split(rack_chain_complex(X, 2))]
    assert {"z4(n=3)", "conj(S3,n=3)", "trivial(3,2)"} <= set(split)
    assert len(split) == 93


@pytest.mark.parametrize(
    "X, classes",
    [(Z4_3, [8]), (CONJ_S3_3, [1, 3, 4, 3]), (build_conjugation_nrack(symmetric_group(3), 2), None)],
    ids=["z4(n=3)", "conj(S3,n=3)", "conj(S3)"],
)
def test_classes_of_isomorphic_orbits(X, classes):
    # z4 n=3: 8 orbits in 1 class; conj(S3) n=3: 11 orbits in 4 classes;
    # conj(S3): 3 orbits, no two isomorphic, so Y is one seed.
    C = rack_chain_complex(X, 2)
    if classes is None:
        assert not _split(C)
        return
    assert [len(orders) for _, orders, _ in C._blocks] == classes


def test_only_one_block_per_class_is_built(monkeypatch):
    # z4 n=3 in degree 3: one block of 2 * 16**2 columns, not 16**3.
    built = []
    original = homology_module._boundary_columns

    def spy(rows, seed, max_degree, quandle=False):
        cols = original(rows, seed, max_degree, quandle)
        built.append((list(seed), len(cols[3])))
        return cols

    monkeypatch.setattr(homology_module, "_boundary_columns", spy)
    C = rack_chain_complex(Z4_3, 3)
    assert built == [([0, 10], 2 * 16**2)]
    assert C.rank(3) == 16**3 and len(C.cols[3]) == 16**3
    built.clear()
    _whole(Z4_3, 3, monkeypatch)
    assert built == [(list(range(16)), 16**3)]


def test_q_and_d_are_not_split():
    # The map (a, x_2, ...) -> (phi(a), x_2, ...) need not keep a = x_2, so
    # Q is built on all of Y; trivial(3,2) is a quandle with 4 isomorphic
    # orbits.
    X = dict(TABLES)["trivial(3,2)"]
    assert not _split(rack_chain_complex(X, 3, variant="Q"))
    assert _split(rack_chain_complex(X, 3))


def test_the_answers_of_a_split_complex_read_no_global_columns(monkeypatch):
    # z4 n=3 answers from its one block of 2 * 16**2 columns in degree 3:
    # its repr, ranks, factors and groups never read cols, whose 16**3
    # global columns are put together on the first read, once.
    C = rack_chain_complex(Z4_3, 3)
    reads = []
    cols = type(C).cols
    monkeypatch.setattr(type(C), "cols", property(lambda self: reads.append(1) or cols.fget(self)))
    repr(C)
    assert C.ranks == [1, 16, 256, 4096]
    assert [len(C.factors(k)) for k in (1, 2, 3)] == [0, 8, 184]
    assert _groups(C) and reads == []
    assert len(C.cols[3]) == 16**3 and C.cols is C.cols and len(reads) == 3


NQUANDLES = [(name, X) for name, X in TABLES if validate(X).classification.is_nquandle]


@pytest.mark.parametrize("X", [X for _, X in NQUANDLES], ids=[name for name, _ in NQUANDLES])
def test_d_restricted_block_by_block_is_the_restriction_of_the_whole(X):
    # D is restricted from each block of R once per orbit of its class,
    # each orbit's own entries deciding which tuples are degenerate; the
    # oracle restricts R's assembled columns.
    top = _top(X)
    D = rack_chain_complex(X, top, variant="D")
    assert D.cols == oracle.degenerate_restriction(rack_chain_complex(X, top).cols, D.rack.size)


def test_the_d_oracle_covers_quandles_whose_r_splits():
    # The trivial quandles of order 2 to 4, the quandles #1 and #3 of the
    # order-4 quandle census (#1 and #4 of the rack census), conj(D4) and
    # dihedral(6), among 17 of the 33 n-quandles.
    split = {name for name, X in NQUANDLES if _split(rack_chain_complex(X, 2))}
    assert {"census(n=2,m=2)#0", "census(n=2,m=3)#0", "census(n=2,m=4)#0", "census(n=2,m=4)#1",
            "census(n=2,m=4)#4", "conj(D4,n=2)", "dihedral(6)"} <= split
    assert (len(split), len(NQUANDLES)) == (17, 33)
    # Each orbit of a split R gives a block of D of its own: dihedral(6)
    # has two isomorphic orbits, the second listed as the image of the
    # first.
    X = dict(NQUANDLES)["dihedral(6)"]
    (_, orders, _), = rack_chain_complex(X, 3)._blocks
    assert orders == [[0, 2, 4], [3, 5, 1]]
    D = rack_chain_complex(X, 3, variant="D")
    assert [orders for _, orders, _ in D._blocks] == [[[0, 2, 4]], [[3, 5, 1]]]


def test_d_and_its_homology_on_a_split_quandle_read_no_global_columns(monkeypatch):
    # trivial(3,2) has 4 isomorphic orbits; D reads R's blocks, not the
    # columns R would assemble from them.
    def fail(self):
        raise AssertionError("global columns read")

    monkeypatch.setattr(ChainComplex, "cols", property(fail))
    X = dict(TABLES)["trivial(3,2)"]
    C = rack_chain_complex(X, 4)
    assert _split(C)
    # A trivial quandle has d = 0: H^D_k is free of rank o^k - o(o-1)^(k-1).
    for D in (rack_chain_complex(X, 4, variant="D"), degenerate_subcomplex(X, C)):
        for f in (homology, cohomology):
            assert [f(D, k).invariants for k in (1, 2, 3)] == [
                AbelianGroupInvariants(r, ()) for r in (0, 4, 28)]
    with pytest.raises(AssertionError, match="global columns read"):
        C.cols


# ------------------------------------------------------------------ mutants


def _tuple_in_the_wrong_block(monkeypatch):
    # The first element of the second orbit is put in the first orbit: the
    # first block's seed is then not closed under the action.
    original = homology_module.orbits

    def moved(R):
        orbs = original(R)
        a = orbs[1].pop(0)
        orbs[0] = sorted(orbs[0] + [a])
        return orbs

    monkeypatch.setattr(homology_module, "orbits", moved)


def _orbit_moved_within_a_class(monkeypatch):
    # One entry of the third orbit of the first class is handed to the second.
    original = homology_module._orbit_classes

    def moved(rows, orbs):
        classes = original(rows, orbs)
        classes[0][1].append(classes[0][2].pop())
        return classes

    monkeypatch.setattr(homology_module, "_orbit_classes", moved)


def _broken_orbit_map(rows, rep, order):
    """The order with two images swapped that breaks phi(y.a) = y.phi(a) at
    the fewest pairs (y, a).  A swap keeps the map one to one onto the
    orbit, so only the check of every pair can see it; and no bijection
    breaks a single pair, as y.phi and phi(y.-) are bijections of the orbit
    and differ at two points or none."""
    where = {a: i for i, a in enumerate(rep)}
    found = []
    for i, j in itertools.combinations(range(len(order)), 2):
        swapped = list(order)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        broken = sum(swapped[where[row[a]]] != row[swapped[p]]
                     for row in rows for p, a in enumerate(rep))
        if broken:
            found.append((broken, swapped))
    return min(found)[1]


def _orbit_map_not_an_isomorphism(monkeypatch):
    original = homology_module._orbit_classes

    def broken(rows, orbs):
        classes = original(rows, orbs)
        cls = next(cls for cls in classes if len(cls) > 1 and len(cls[0]) > 2)
        cls[1] = _broken_orbit_map(rows, cls[0], cls[1])
        return classes

    monkeypatch.setattr(homology_module, "_orbit_classes", broken)


def _class_size(change):
    def mutate(monkeypatch):
        original = homology_module._orbit_classes

        def resized(rows, orbs):
            classes = original(rows, orbs)
            if change > 0:
                classes[0].append(classes[0][-1])
            else:
                classes[0].pop()
            return classes

        monkeypatch.setattr(homology_module, "_orbit_classes", resized)

    return mutate


def _sign_flipped_in_blocks(first):
    def mutate(monkeypatch):
        # The first column of a block's d_2 with two entries gets one of
        # them negated, in every block, or in every block but the first,
        # whose seed holds 0; d_2 d_3 = 0 sees it, block by block.
        original = homology_module._boundary_columns

        def flipped(rows, seed, max_degree, quandle=False):
            cols = original(rows, seed, max_degree, quandle)
            if first or 0 not in seed:
                col = next(c for c in cols[2] if len(c) > 1)
                row = min(col)
                col[row] = -col[row]
            return cols

        monkeypatch.setattr(homology_module, "_boundary_columns", flipped)

    return mutate


# A 3-rack of order 3 whose 5 orbits fall into a class of 1 and one of 4.
TWO_CLASSES = dict(TABLES)["census(n=3,m=3)#4"]


# name: (mutation, table, the check that must catch it)
MUTANTS = {
    "tuple in the wrong block": (_tuple_in_the_wrong_block, Z4_3, "not closed under the action"),
    "orbit moved within a class": (
        _orbit_moved_within_a_class, Z4_3, "not an isomorphism of Y-sets"),
    "orbit map not an isomorphism": (
        _orbit_map_not_an_isomorphism, CONJ_S3_3, "not an isomorphism of Y-sets"),
    "class size one more": (_class_size(1), Z4_3, "do not partition"),
    "class size one less": (_class_size(-1), Z4_3, "do not partition"),
    "sign flipped in a block": (_sign_flipped_in_blocks(True), Z4_3, "does not square to zero"),
    "sign flipped in a later block": (
        _sign_flipped_in_blocks(False), TWO_CLASSES, "does not square to zero"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_a_mutant_of_the_split_raises(monkeypatch, name):
    mutate, X, check = MUTANTS[name]
    mutate(monkeypatch)
    with pytest.raises(AssertionError, match=check):
        C = rack_chain_complex(X, 2 if X is CONJ_S3_3 else 3)
        [homology(C, k) for k in range(1, C.max_degree)]


@pytest.mark.parametrize("name", MUTANTS)
def test_a_mutant_of_the_split_exits_4_without_an_answer(monkeypatch, capsys, tmp_path, name):
    mutate, X, check = MUTANTS[name]
    path = tmp_path / "table.json"
    path.write_text(dump_document(nrack_to_json(X)))
    mutate(monkeypatch)
    degrees = "1" if X is CONJ_S3_3 else "1-2"
    assert main(["homology", "--input", str(path), "--degrees", degrees]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ") and check in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change", [1, -1])
def test_a_class_size_off_by_one_fails_the_rank_certificate(change):
    # Past the checks of the build, the orbit count sees the class-weighted
    # number of factors.
    C = rack_chain_complex(Z4_3, 3)
    block, orders, done = C._blocks[0]
    C._blocks[0] = (block, orders + orders[:1] if change > 0 else orders[1:], done)
    with pytest.raises(AssertionError, match="rank certificate failed"):
        C.factors(2)


def test_the_unmutated_cases_answer():
    # Unpatched, every mutant's table answers: H_1 = Z^8 and H_2 = Z^64 for
    # z4 n=3 (8 orbits), H_1 = Z^11 for conj(S3) n=3 (11 orbits).
    C = rack_chain_complex(Z4_3, 3)
    assert [homology(C, k).invariants.free_rank for k in (1, 2)] == [8, 64]
    assert [homology(C, k).invariants.torsion for k in (1, 2)] == [(), ()]
    C = rack_chain_complex(CONJ_S3_3, 2)
    assert homology(C, 1).invariants.free_rank == 11
