"""The degenerate subcomplex D and the quandle quotient Q = C/D, entry for
entry against the classical oracle, and the checks on the sub-basis that
quandle_quotient_complex is given."""

import dataclasses

import pytest

from helpers import axiom_fixture_set, boundary_dense, dihedral_nrack, shift_nrack
from oracle_cjkls import boundary_matrix
from nracks import (
    FiniteNRack,
    SubcomplexError,
    build_conjugation_nrack,
    classify,
    degenerate_subcomplex,
    enumerate_nracks,
    quandle_quotient_complex,
    rack_chain_complex,
    symmetric_group,
)
from nracks.homology import reduced_rack_table

# Binary quandles small enough for dense oracle matrices in degrees 1-4
# (at most 6**4 = 1296 columns).
ORACLE_INPUTS = [(f"dihedral({m})", dihedral_nrack(m)) for m in (3, 4, 5)]
ORACLE_INPUTS += [("conj(S3,n=2)", build_conjugation_nrack(symmetric_group(3), 2))]
ORACLE_INPUTS += [
    (f"census(n=2,m={m})#{i}", FiniteNRack(2, m, table))
    for m in range(1, 5)
    for i, table in enumerate(enumerate_nracks(2, m, "n-quandle").representatives)
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


@pytest.mark.parametrize("R", [R for _, R in ORACLE_INPUTS], ids=[n for n, _ in ORACLE_INPUTS])
def test_boundary_matrices_match_the_classical_oracle(R):
    # Pins the lex order of the tuples and the renumbering of the sub-bases.
    table = reduced_rack_table(R)
    for variant, CX in _complexes(R, 4).items():
        for k in range(1, 5):
            assert boundary_dense(CX, k) == boundary_matrix(table, k, variant), (variant, k)


@pytest.mark.parametrize("R", [R for _, R in FIXTURES], ids=[n for n, _ in FIXTURES])
def test_degenerate_and_quotient_bases_partition_the_tuples(R):
    M = R.size ** (R.arity - 1)
    top = 1
    while top < 4 and M ** (top + 1) <= RANK_CAP:
        top += 1
    spaces = _complexes(R, top)
    D, Q = spaces["D"], spaces["Q"]
    for k in range(top + 1):
        assert sorted([*D.basis[k], *Q.basis[k]]) == list(range(M**k)), k
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
    R = dihedral_nrack(3)
    C = rack_chain_complex(R, 3)
    D = degenerate_subcomplex(R, C)
    short = [list(b) for b in D.basis]
    short[2] = short[2][1:]
    with pytest.raises(SubcomplexError, match="degenerate sub-basis"):
        quandle_quotient_complex(C, dataclasses.replace(D, basis=short))
    lower = degenerate_subcomplex(R, rack_chain_complex(R, 2))
    with pytest.raises(SubcomplexError, match="does not match"):
        quandle_quotient_complex(C, lower)
