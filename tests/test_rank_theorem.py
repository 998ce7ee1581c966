"""Boundary ranks certified by the orbit-count theorems.

A complex built from a rack knows the rank s_k of each d_k from the number
o of orbits of its reduced rack (homology module docstring): s_1 = 0 and
s_{k+1} = r_k - s_k - b_k, with b_k = o^k for R (Etingof & Grana, JPAA 177,
2003), o(o-1)^(k-1) for Q and o^k - o(o-1)^(k-1) for D (Litherland &
Nelson, JPAA 178, 2003).  Checked here, with the recurrence written out
again, against the rank modulo snf.CERTIFICATE_PRIME of every nonzero row
of d_k, an elimination that never reads the theorem, over the censuses
and the fixtures.  Then each mutant of the theorem path (an orbit count
off by one, Q's free ranks used for R, the free ranks read one degree off,
one built entry with a flipped sign) must raise AssertionError in the
library and exit 4 with no answer in the CLI.  An elimination that loses a
unit pivot must fail the theorem too, and no map is ranked modulo the
prime.
"""

import importlib

import pytest

from helpers import dihedral_nrack
from nracks import (
    FiniteNRack,
    build_conjugation_nrack,
    build_z4_module_nrack,
    degenerate_subcomplex,
    enumerate_nracks,
    homology,
    orbits,
    quandle_quotient_complex,
    rack_chain_complex,
    symmetric_group,
)
from nracks import snf
from nracks.cli import main
from nracks.jsonio import dump_document, nrack_to_json

homology_module = importlib.import_module("nracks.homology")

# Degrees are checked up to 4, while the top chain rank stays within this.
CHAIN_RANK_CAP = 5000


def _tables():
    named = [
        (f"census(n={n},m={m})#{i}", FiniteNRack(n, m, table))
        for n, top in ((2, 4), (3, 3), (4, 2))
        for m in range(1, top + 1)
        for i, table in enumerate(enumerate_nracks(n, m).representatives)
    ]
    named += [(f"dihedral({m})", dihedral_nrack(m)) for m in (3, 4, 5, 6)]
    named.append(("conj(S3)", build_conjugation_nrack(symmetric_group(3), 2)))
    named.append(("z4(n=3)", build_z4_module_nrack(3, 4)))
    return named


TABLES = _tables()


def _variants(X):
    """R of X, and D and Q when X is an n-quandle, to the highest degree
    k <= 4 whose chain rank stays within the cap."""
    M = X.size ** (X.arity - 1)
    top = max(k for k in range(1, 5) if M**k <= CHAIN_RANK_CAP)
    C = rack_chain_complex(X, top)
    if any(C.rack.bracket(a, a) != a for a in range(M)):
        return [C]
    D = degenerate_subcomplex(X, C)
    return [C, D, quandle_quotient_complex(C, D)]


def _theorem_ranks(C):
    """s_0 .. s_top of C by the recurrence, from the orbits of its rack."""
    o = len(orbits(C.rack))
    s = [0, 0]
    for k in range(1, C.max_degree):
        free = {"R": o**k, "Q": o * (o - 1) ** (k - 1)}
        free["D"] = free["R"] - free["Q"]
        s.append(C.rank(k) - s[k] - free[C.variant])
    return s[: C.max_degree + 1]


def _nonzero_rows(C, k):
    rows = [{} for _ in range(C.rank(k - 1))]
    for j, col in enumerate(C.cols[k]):
        for i, v in col.items():
            rows[i][j] = v
    return [row for row in rows if row]


@pytest.mark.parametrize("X", [X for _, X in TABLES], ids=[name for name, _ in TABLES])
def test_theorem_ranks_equal_the_rank_modulo_a_prime(X):
    for C in _variants(X):
        want = _theorem_ranks(C)
        assert C._boundary_ranks[: C.max_degree + 1] == want
        for k in range(1, C.max_degree + 1):
            assert len(snf._rank_mod_p(_nonzero_rows(C, k))) == want[k], (C.variant, k)
            assert len(C.factors(k)) == want[k]


def test_the_oracle_covers_the_census_and_every_variant():
    counts = {"R": 0, "D": 0, "Q": 0}
    for _, X in TABLES:
        for C in _variants(X):
            counts[C.variant] += 1
    # 28 + 60 + 17 census tables, 4 dihedral quandles, conj(S3) and z4.
    assert len(TABLES) == 111 and counts["R"] == 111
    assert counts["D"] == counts["Q"] > 0


# ------------------------------------------------------------------ mutants


def _orbit_count_off_by_one(monkeypatch):
    original = homology_module.orbits
    monkeypatch.setattr(homology_module, "orbits", lambda R: original(R) + [[]])


def _quandle_free_ranks_for_racks(monkeypatch):
    original = homology_module._free_rank
    monkeypatch.setattr(homology_module, "_free_rank", lambda variant, o, k: original("Q", o, k))


def _free_ranks_one_degree_off(monkeypatch):
    original = homology_module._free_rank
    monkeypatch.setattr(
        homology_module, "_free_rank", lambda variant, o, k: original(variant, o, k + 1)
    )


def _sign_flipped_in_degree(k):
    def mutate(monkeypatch):
        # The first column of d_k with two entries gets one of them negated.
        original = homology_module._boundary_columns

        def flipped(rows, seed, max_degree, quandle=False):
            cols = original(rows, seed, max_degree, quandle)
            col = next(c for c in cols[k] if len(c) > 1)
            row = min(col)
            col[row] = -col[row]
            return cols

        monkeypatch.setattr(homology_module, "_boundary_columns", flipped)

    return mutate


MUTANTS = {
    "orbit count off by one": (_orbit_count_off_by_one, ["R", "Q"]),
    "Q's free ranks for R": (_quandle_free_ranks_for_racks, ["R"]),
    "free ranks one degree off": (_free_ranks_one_degree_off, ["R", "Q"]),
    # d_2 d_3 = 0 sees the flip in d_2.  In d_3, the top map here, the
    # flipped entry's row is a zero column of d_2, and only the rank sees it.
    "sign flipped in d_2": (_sign_flipped_in_degree(2), ["R", "Q"]),
    "sign flipped in d_3": (_sign_flipped_in_degree(3), ["R", "Q"]),
}
CASES = [(name, variant) for name, (_, variants) in MUTANTS.items() for variant in variants]
IDS = [f"{name}-{variant}" for name, variant in CASES]
CONJ_S3 = build_conjugation_nrack(symmetric_group(3), 2)


@pytest.mark.parametrize("name, variant", CASES, ids=IDS)
def test_a_mutant_of_the_theorem_path_raises(monkeypatch, name, variant):
    MUTANTS[name][0](monkeypatch)
    with pytest.raises(AssertionError):
        C = rack_chain_complex(CONJ_S3, 3, variant=variant)
        [homology(C, k) for k in (1, 2)]


@pytest.mark.parametrize("name, variant", CASES, ids=IDS)
def test_a_mutant_of_the_theorem_path_exits_4_without_an_answer(
    monkeypatch, capsys, tmp_path, name, variant
):
    path = tmp_path / "conj_s3.json"
    path.write_text(dump_document(nrack_to_json(CONJ_S3)))
    MUTANTS[name][0](monkeypatch)
    argv = ["homology", "--input", str(path), "--variant", variant, "--degrees", "1-2"]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ")
    assert "Traceback" not in err


def test_the_unmutated_cases_answer():
    # The mutant tests fail for the mutant alone: unpatched, every case
    # answers, with conj(S3)'s three orbits in the free ranks.
    for variant in ("R", "Q"):
        C = rack_chain_complex(CONJ_S3, 3, variant=variant)
        assert [homology(C, k).invariants.free_rank for k in (1, 2)] == (
            [3, 9] if variant == "R" else [3, 6]
        )


def test_a_lost_unit_pivot_fails_the_theorem_with_no_rank_modulo_a_prime(monkeypatch):
    # An elimination that loses one unit pivot, and with it one factor, is
    # refused by the orbit count; no complex ranks a map modulo the prime.
    eliminate = snf._eliminate_unit_pivots

    def lose_a_pivot(columns):
        units, residual = eliminate(columns)
        return set(sorted(units)[1:]), residual

    monkeypatch.setattr(snf, "_eliminate_unit_pivots", lose_a_pivot)
    with pytest.raises(AssertionError, match="rank certificate failed"):
        rack_chain_complex(CONJ_S3, 3).factors(2)
    monkeypatch.undo()
    calls = []
    rank = snf._rank_mod_p
    monkeypatch.setattr(snf, "_rank_mod_p", lambda columns: calls.append(columns) or rank(columns))
    for variant in "RDQ":
        C = rack_chain_complex(CONJ_S3, 3, variant=variant)
        assert len(C.factors(3)) == C._boundary_ranks[3]
    assert calls == []
