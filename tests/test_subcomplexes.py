"""The degenerate subcomplex D and the quandle quotient Q = C/D, entry for
entry against the classical oracle, as is the rack complex of every small
rack that is not a quandle, and the checks on the sub-basis that
quandle_quotient_complex is given.  The quandle complex built directly on
the non-degenerate tuples is checked entry for entry against the classical
oracle and against quandle_quotient_complex, D built by
rack_chain_complex against the restriction of R, and the three complexes
against the Litherland-Nelson splitting."""

import importlib

import pytest

from helpers import (
    axiom_fixture_set,
    boundary_dense,
    dihedral_nrack,
    one_element_nrack,
    shift_nrack,
    trivial_nrack,
)
from oracle_cjkls import boundary_matrix
from nracks import (
    FiniteNRack,
    SubcomplexError,
    build_conjugation_nrack,
    classify,
    degenerate_subcomplex,
    enumerate_nracks,
    homology,
    quandle_quotient_complex,
    rack_chain_complex,
    symmetric_group,
)
from nracks.cli import main
from nracks.homology import ChainComplex, CoefficientGroup, reduced_rack_table
from nracks.jsonio import dump_document, nrack_to_json
from nracks.snf import invariants_from_cyclic_orders

# nracks.homology the module, which the function of that name shadows.
homology_module = importlib.import_module("nracks.homology")

# Binary quandles small enough for dense oracle matrices in degrees 1-4
# (at most 6**4 = 1296 columns).
ORACLE_INPUTS = [(f"dihedral({m})", dihedral_nrack(m)) for m in (3, 4, 5)]
ORACLE_INPUTS += [("conj(S3,n=2)", build_conjugation_nrack(symmetric_group(3), 2))]
ORACLE_INPUTS += [
    (f"census(n=2,m={m})#{i}", FiniteNRack(2, m, table))
    for m in range(1, 5)
    for i, table in enumerate(enumerate_nracks(2, m, "n-quandle").representatives)
]

# Every binary rack of order at most 3 that is not a quandle: the racks on
# which the recursion shared by R and Q must skip no tuple.  R only.
NON_QUANDLES = [
    (f"racks(n=2,m={m})#{i}", R)
    for m in range(1, 4)
    for i, R in enumerate(
        FiniteNRack(2, m, table) for table in enumerate_nracks(2, m, "nrack").representatives
    )
    if not classify(R).is_nquandle
]

# Every n-quandle fixture; degrees go up to 4 while the chain rank stays
# within this many columns.
FIXTURES = ORACLE_INPUTS + [
    (name, R)
    for name, R in axiom_fixture_set()
    if classify(R).is_nquandle and name not in dict(ORACLE_INPUTS)
]
RANK_CAP = 5000


def _complexes(R, top):
    C = rack_chain_complex(R, top)
    D = degenerate_subcomplex(R, C)
    return {"R": C, "D": D, "Q": quandle_quotient_complex(C, D)}


@pytest.mark.parametrize(
    "R", [R for _, R in ORACLE_INPUTS + NON_QUANDLES], ids=[n for n, _ in ORACLE_INPUTS + NON_QUANDLES]
)
def test_boundary_matrices_match_the_classical_oracle(R):
    # Pins the lex order of the tuples and the renumbering of the sub-bases.
    table = reduced_rack_table(R)
    complexes = _complexes(R, 4) if classify(R).is_nquandle else {"R": rack_chain_complex(R, 4)}
    for variant, CX in complexes.items():
        for k in range(1, 5):
            assert boundary_dense(CX, k) == boundary_matrix(table, k, variant), (variant, k)


@pytest.mark.parametrize("R", [R for _, R in FIXTURES], ids=[n for n, _ in FIXTURES])
def test_degenerate_and_quotient_bases_partition_the_tuples(R):
    M = R.size ** (R.arity - 1)
    top = 1
    while top < 4 and M ** (top + 1) <= RANK_CAP:
        top += 1
    spaces = _complexes(R, top)
    C, D, Q = spaces["R"], spaces["D"], spaces["Q"]
    position: dict[int, int] = {}
    for k in range(top + 1):
        # Tuple t of degree k read digit by digit, base M, first entry first.
        tuples = [[t // M ** (k - 1 - i) % M for i in range(k)] for t in range(M**k)]
        flags = [any(a == b for a, b in zip(t, t[1:])) for t in tuples]
        degenerate = [t for t, f in enumerate(flags) if f]
        assert (D.rank(k), Q.rank(k)) == (len(degenerate), len(flags) - len(degenerate)), k
        # D's columns are R's at the degenerate tuples, rows renumbered.
        assert D.cols[k] == [
            {position[r]: v for r, v in C.cols[k][t].items()} for t in degenerate
        ], k
        position = {t: p for p, t in enumerate(degenerate)}
    assert [Q.ranks[k] for k in range(1, top + 1)] == [
        M * (M - 1) ** (k - 1) for k in range(1, top + 1)
    ]


def test_quotient_refuses_a_subcomplex_of_another_rack():
    # x o y = y + 1 on Z/3 and the dihedral quandle have the same carrier
    # size; the D of one is not a subcomplex of the other's complex.
    C = rack_chain_complex(shift_nrack(3), 3)
    R = dihedral_nrack(3)
    D = degenerate_subcomplex(R, rack_chain_complex(R, 3))
    with pytest.raises(SubcomplexError, match="does not match"):
        quandle_quotient_complex(C, D)


def test_quotient_refuses_a_sub_basis_other_than_the_degenerate_one():
    # The quotient reads nothing of D, so D must have the ranks of the
    # degenerate split: the Q complex relabeled "D" has the others.
    R = dihedral_nrack(3)
    C = rack_chain_complex(R, 3)
    D = degenerate_subcomplex(R, C)
    Q = quandle_quotient_complex(C, D)
    with pytest.raises(SubcomplexError, match="degenerate sub-basis"):
        blocks = [(cols, orders, {}) for cols, orders, _ in Q._blocks]
        quandle_quotient_complex(C, ChainComplex(Q.rack, blocks, "D", Q.orbit_count))
    lower = degenerate_subcomplex(R, rack_chain_complex(R, 2))
    with pytest.raises(SubcomplexError, match="does not match"):
        quandle_quotient_complex(C, lower)


def _top_degree(R, cap=RANK_CAP):
    M = R.size ** (R.arity - 1)
    top = 1
    while top < 4 and M ** (top + 1) <= cap:
        top += 1
    return top


# (name, quandle, top degree) for the direct quandle complex: the order-4
# quandles, the homology golden tables, the arity-3 quandles of order 3 (an
# arity-3 lift of a non-trivial quandle is not an n-quandle), and every
# n-quandle fixture.
QUANDLES = [
    ("dihedral(3)", dihedral_nrack(3), 6),
    ("conj(S3,n=2)", build_conjugation_nrack(symmetric_group(3), 2), 4),
    ("one_element", one_element_nrack(2), 6),
    ("trivial_m2", trivial_nrack(2, 2), 6),
    ("trivial_m3", trivial_nrack(2, 3), 5),
]
QUANDLES += [
    (f"census(n=2,m=4)#{i}", FiniteNRack(2, 4, table), 4)
    for i, table in enumerate(enumerate_nracks(2, 4, "n-quandle").representatives)
]
QUANDLES += [
    (f"census(n=3,m=3)#{i}", FiniteNRack(3, 3, table), 3)
    for i, table in enumerate(enumerate_nracks(3, 3, "n-quandle").representatives)
]
QUANDLES += [
    (name, R, _top_degree(R))
    for name, R in FIXTURES
    if name not in {name for name, _, _ in QUANDLES}
]


@pytest.mark.parametrize(
    "R, top", [(R, top) for _, R, top in QUANDLES], ids=[n for n, _, _ in QUANDLES]
)
def test_the_direct_quandle_complex_matches_the_classical_oracle(R, top):
    Q = rack_chain_complex(R, top, variant="Q")
    table = reduced_rack_table(R)
    for k in range(1, top + 1):
        assert boundary_dense(Q, k) == boundary_matrix(table, k, "Q"), k
    for d in range(top + 1):
        C = rack_chain_complex(R, d)
        quotient = quandle_quotient_complex(C, degenerate_subcomplex(R, C))
        direct = rack_chain_complex(R, d, variant="Q")
        assert (direct.variant, direct.rack) == ("Q", C.rack)
        assert direct.cols == Q.cols[: d + 1], d
        assert (quotient.variant, quotient.rack) == ("Q", C.rack)
        assert quotient.orbit_count == C.orbit_count
        assert quotient.cols == direct.cols, d


def _oracle_triplets(table, k, variant):
    """The oracle's d_k in the format of ChainComplex.boundary_triplets."""
    dense = boundary_matrix(table, k, variant)
    lines = [f"{len(dense)} {len(dense[0]) if dense else 0}"]
    lines += [f"{i} {j} {v}" for i, row in enumerate(dense) for j, v in enumerate(row) if v]
    return "\n".join(lines) + "\n"


def test_the_direct_quandle_complex_dumps_the_oracle_matrices(tmp_path):
    R = build_conjugation_nrack(symmetric_group(3), 2)
    path = tmp_path / "conj.json"
    path.write_text(dump_document(nrack_to_json(R)))
    out = tmp_path / "dump"
    argv = ["homology", "--input", str(path), "--variant", "Q", "--degrees", "1-3",
            "--dump-matrices", str(out), "--output", str(tmp_path / "answer.jsonl")]
    assert main(argv) == 0
    table = reduced_rack_table(R)
    assert sorted(p.name for p in out.iterdir()) == [f"boundary_Q_{k}.txt" for k in range(1, 5)]
    for k in range(1, 5):
        assert (out / f"boundary_Q_{k}.txt").read_text() == _oracle_triplets(table, k, "Q"), k


def test_the_quandle_complex_refuses_a_rack_that_is_not_a_quandle(monkeypatch):
    with pytest.raises(ValueError, match="requires an n-quandle"):
        rack_chain_complex(shift_nrack(3), 2, variant="Q")
    with pytest.raises(ValueError, match="unknown complex variant 'X'"):
        rack_chain_complex(dihedral_nrack(3), 2, variant="X")

    # D's gate refuses the table before any column is built.
    def fail(*args, **kwargs):
        raise AssertionError("a column was built")

    monkeypatch.setattr(homology_module, "_boundary_columns", fail)
    with pytest.raises(ValueError, match="degenerate subcomplex requires an n-quandle"):
        rack_chain_complex(shift_nrack(3), 2, variant="D")


@pytest.mark.parametrize(
    "R, top", [(R, top) for _, R, top in QUANDLES], ids=[n for n, _, _ in QUANDLES]
)
def test_variant_d_is_the_degenerate_subcomplex_of_the_rack_complex(R, top):
    D = rack_chain_complex(R, top, variant="D")
    restricted = degenerate_subcomplex(R, rack_chain_complex(R, top))
    assert D.variant == "D"
    assert (D.cols, D.ranks, D.orbit_count) == (
        restricted.cols, restricted.ranks, restricted.orbit_count)


# Litherland & Nelson, J. Pure Appl. Algebra 178 (2003): for a quandle the
# rack homology splits as H_k^R = H_k^D + H_k^Q.  Degrees 1-3 need d_4: every
# quandle above whose d_4 has at most 10,000 columns.
SPLITTING = [(name, R) for name, R, _ in QUANDLES if _top_degree(R, 10_000) >= 4]


@pytest.mark.parametrize("R", [R for _, R in SPLITTING], ids=[n for n, _ in SPLITTING])
def test_rack_homology_is_degenerate_plus_quandle_homology(R):
    C = rack_chain_complex(R, 4)
    D = degenerate_subcomplex(R, C)
    Q = rack_chain_complex(R, 4, variant="Q")
    for A in (CoefficientGroup(0), CoefficientGroup(2), CoefficientGroup(3)):
        for k in (1, 2, 3):
            HR, HD, HQ = (homology(CX, k, A).invariants for CX in (C, D, Q))
            assert HR.free_rank == HD.free_rank + HQ.free_rank, (A, k)
            assert HR.torsion == invariants_from_cyclic_orders(HD.torsion + HQ.torsion), (A, k)
