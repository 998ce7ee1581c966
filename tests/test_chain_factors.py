"""Boundary maps factored along the chain.

ChainComplex.factors hands the engine only the rows of d_k that the pivots
of d_{k-1} leave independent: it drops the keys of the +-1 pivots on
d_{k-1}.  A rack complex split into orbit blocks does so on each
representative block, along the block's own chain.  Checked here against
the per-map factors of the whole of each d_k, the number of factors
against the rank modulo snf.CERTIFICATE_PRIME of the whole map and the
rank the orbit count gives, and the chain step itself against sympy on
random integer complexes with torsion.
"""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from helpers import dihedral_nrack
from nracks import (
    FiniteNRack,
    FiniteRack,
    build_conjugation_nrack,
    build_z4_module_nrack,
    degenerate_subcomplex,
    enumerate_nracks,
    quandle_quotient_complex,
    rack_chain_complex,
    symmetric_group,
)
from nracks import snf
from nracks.homology import ChainComplex
from nracks.snf import sparse_invariant_factors

homology_module = importlib.import_module("nracks.homology")


def _rows_of(cols, k):
    """Every row of d_k, the columns of the coboundary: row i as {j: entry}."""
    rows = [{} for _ in range(len(cols[k - 1]))]
    for j, col in enumerate(cols[k]):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def _rows(C, k):
    return _rows_of(C.cols, k)


def per_map_factors(C, k):
    """The invariant factors of d_k from all of its nonzero rows, each map
    on its own: how every map was factored before the chain was used."""
    return sparse_invariant_factors([row for row in _rows(C, k) if row])


def _chains(C):
    """(columns, factorizations) of each chain that C factors on its own:
    each block, one per class of isomorphic orbits of a split rack complex
    and the one block of any other complex."""
    return [(cols, done) for cols, _, done in C._blocks]


def _certified_inputs(C, monkeypatch):
    """Factor every map of the fresh complex C through the top one and
    return the engine's inputs: inputs[k - 1][b] is the input for d_k of
    chain b (see _chains), as factors(k) factors d_{k-1} of every chain
    before it calls the engine on d_k."""
    inputs = []
    engine = homology_module.certified_factors

    def record(columns):
        inputs.append(columns)
        return engine(columns)

    monkeypatch.setattr(homology_module, "certified_factors", record)
    C.factors(C.max_degree)
    monkeypatch.undo()
    width = len(_chains(C))
    assert len(inputs) == C.max_degree * width
    return [inputs[i : i + width] for i in range(0, len(inputs), width)]


def _check_along_the_chain(C, monkeypatch):
    inputs = _certified_inputs(C, monkeypatch)
    for k, chain_inputs in enumerate(inputs, start=1):
        for columns, (cols, done) in zip(chain_inputs, _chains(C)):
            # The engine is handed exactly the rows the unit keys on d_{k-1}
            # of the same chain leave.
            units = done[k - 1].unit_keys if k > 1 else ()
            rows = _rows_of(cols, k)
            assert columns == [row for i, row in enumerate(rows) if row and i not in units]
            if k > 1:
                # The lemma's block: the columns of d_{k-1} at the unit keys
                # split off unit factors only.
                below = cols[k - 1]
                assert sparse_invariant_factors([below[j] for j in units]) == (1,) * len(units)
        # The factors equal those of the whole map, and number its rank,
        # which the orbit count gives.
        assert C.factors(k) == per_map_factors(C, k)
        rank = len(snf._rank_mod_p([row for row in _rows(C, k) if row]))
        assert len(C.factors(k)) == rank == C._boundary_ranks[k]


def _variants(R, top):
    C = rack_chain_complex(R, top)
    if any(C.rack.bracket(a, a) != a for a in range(C.rack.size)):
        return [("R", C)]
    D = degenerate_subcomplex(R, C)
    return [("R", C), ("D", D), ("Q", quandle_quotient_complex(C, D))]


RACK_CENSUS = [FiniteNRack(2, 4, table) for table in enumerate_nracks(2, 4).representatives]


@pytest.mark.parametrize("index", range(len(RACK_CENSUS)))
def test_census_racks_factor_along_the_chain(monkeypatch, index):
    # The order-4 rack census to degree 4, with D and Q for the quandles.
    for _, C in _variants(RACK_CENSUS[index], 4):
        _check_along_the_chain(C, monkeypatch)


@pytest.mark.parametrize(
    "name, R, top, variant",
    [
        ("dihedral3 R", dihedral_nrack(3), 6, "R"),
        ("z4(n=3) R", build_z4_module_nrack(3, 4), 3, "R"),
        ("conj(S3) Q", build_conjugation_nrack(symmetric_group(3), 2), 5, "Q"),
    ],
    ids=lambda x: x if isinstance(x, str) else "",
)
def test_larger_complexes_factor_along_the_chain(monkeypatch, name, R, top, variant):
    C = dict(_variants(R, top))[variant]
    _check_along_the_chain(C, monkeypatch)


def test_a_split_complex_factors_one_chain_per_class(monkeypatch):
    # z4 n=3 has 8 isomorphic orbits: one block is factored, on 2 * 16**(k-1)
    # columns in degree k, and its factors count 8 times.
    C = rack_chain_complex(build_z4_module_nrack(3, 4), 3)
    assert [len(orders) for _, orders, _ in C._blocks] == [8] and len(_chains(C)) == 1
    inputs = _certified_inputs(C, monkeypatch)
    assert [max((j for row in chain[0] for j in row), default=-1) < 2 * 16 ** (k - 1)
            for k, chain in enumerate(inputs, start=1)] == [True] * 3
    (block, orders, done), = C._blocks
    assert len(orders) == 8
    for k in (2, 3):
        assert len(C.factors(k)) == 8 * len(done[k].factors)


def test_torsion_beside_dropped_rows():
    # Every nonzero entry of a census map is +-1, but conj(S3) Q factors
    # d_4 without the 20 rows that the unit pivots of d_3 name, beside
    # torsion that the dense residual keeps.
    C = dict(_variants(build_conjugation_nrack(symmetric_group(3), 2), 4))["Q"]
    assert [d for d in C.factors(4) if d > 1] == [3, 3, 3, 3, 9]
    (_, _, done), = C._blocks
    assert len(done[3].unit_keys) == 20


def test_a_boundary_that_does_not_square_to_zero_is_refused():
    # d_1 d_2 = 1 on Z <- Z <- Z: no instance is built.  With d_2 = 0 it is
    # the complex of the one-element rack, one orbit.
    trivial = FiniteRack(1, (0,))
    with pytest.raises(AssertionError, match="boundary does not square to zero"):
        ChainComplex(trivial, [([[{}], [{0: 1}], [{0: 1}]], [[0]], {})], "R", 1)
    C = ChainComplex(trivial, [([[{}], [{}], [{}]], [[0]], {})], "R", 1)
    assert [C.factors(k) for k in (1, 2)] == [(), ()]


# -------------------------------------------------- random integer complexes

_MULTIPLIERS = st.sampled_from([0, 1, -1, 1, 2, -2, 3, 4, -6, 9])


def _unimodular(draw, n):
    """A random unimodular n x n matrix P with its inverse, as a product of
    elementary row additions."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [list(row) for row in P]
    if n < 2:
        return P, inverse
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from([1, -1, 2, -3]))
        # P <- E P and inverse <- inverse E^-1, E = I + c e_i e_j^T.
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
        for row in inverse:
            row[j] -= c * row[i]
    return P, inverse


def _product(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@st.composite
def _integer_complexes(draw):
    """Dense d_1 .. d_top of a complex over Z: a direct sum of free summands
    and elementary pieces Z --a--> Z from degree k to k - 1, the multiplier
    a leaving Z/|a| in degree k - 1, mixed in each degree by a unimodular
    change of basis P_k, so that d_k becomes P_{k-1} d_k P_k^-1."""
    top = draw(st.integers(2, 4))
    ranks = [draw(st.integers(0, 1)) for _ in range(top + 1)]
    pieces = []
    for k, a in draw(st.lists(st.tuples(st.integers(1, top), _MULTIPLIERS), max_size=9)):
        pieces.append((k, ranks[k], ranks[k - 1], a))
        ranks[k] += 1
        ranks[k - 1] += 1
    maps = [None] + [[[0] * ranks[k] for _ in range(ranks[k - 1])] for k in range(1, top + 1)]
    for k, j, i, a in pieces:
        maps[k][i][j] = a
    bases = [_unimodular(draw, r) for r in ranks]
    for k in range(1, top + 1):
        if ranks[k - 1] and ranks[k]:
            maps[k] = _product(_product(bases[k - 1][0], maps[k]), bases[k][1])
    return ranks, maps


@settings(max_examples=250, deadline=None)
@given(_integer_complexes())
def test_random_complexes_with_torsion_factor_along_the_chain(complex_):
    ranks, maps = complex_
    cols = [[{} for _ in range(ranks[0])]] + [
        [{i: row[j] for i, row in enumerate(M) if row[j]} for j in range(ranks[k])]
        for k, M in enumerate(maps[1:], start=1)
    ]
    homology_module._check_square_zero(cols)
    # Each map factored after the one below it, without the rows at the
    # unit keys of that one, as ChainComplex.factors does on every block.
    done = {}
    for k in range(1, len(ranks)):
        done[k] = homology_module._next_factorization(cols, done)
        want = sparse_invariant_factors([row for row in _rows_of(cols, k) if row])
        assert done[k].factors == want
        if ranks[k - 1] and ranks[k]:
            assert want == tuple(
                int(x) for x in sympy_invariant_factors(Matrix(maps[k])) if x != 0
            )
