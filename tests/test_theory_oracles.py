"""Theory identities that hold on every finite n-rack, checked on the
fixtures and on the enumerated census (n=2 with m <= 4, n=3 with m <= 3):

- the free rank of H^R_k is |O|^k, O the orbits of the reduced rack
  (Etingof & Grana, JPAA 177, 2003);
- for n-quandles, the free rank of H^Q_k is |O| (|O| - 1)^(k-1)
  (Litherland & Nelson, JPAA 178, 2003);
- the abelianized associated group is free on the orbits of X, as every
  relator abelianizes to e_[xs] - e_{x_n}, in both relator forms;
- the connected quandles of prime order p are the p - 2 affine ones
  (Etingof, Soloviev & Guralnick, J. Algebra 242, 2001);
- the quandle homology of the dihedral quandles of order 3, 5 and 7 in
  high degree (Niebrzydowski & Przytycki, JPAA 213, 2009; Nosaka,
  Trans. AMS 365, 2013).
"""

import pytest

from helpers import axiom_fixture_set, dihedral_nrack
from oracle_enumeration import canonical_form
from nracks import (
    FiniteNRack,
    abelianization,
    associated_group_presentation,
    CoefficientGroup,
    build_conjugation_nrack,
    classify,
    degenerate_subcomplex,
    dihedral_group,
    enumerate_nracks,
    homology,
    orbits,
    quandle_quotient_complex,
    rack_chain_complex,
    symmetric_group,
)

# Degrees are checked while the top chain rank stays within this many
# columns, and up to degree 3.
CHAIN_RANK_CAP = 3000


def tables():
    named = list(axiom_fixture_set())
    named += [(f"dihedral({m})", dihedral_nrack(m)) for m in (3, 4, 5, 6)]
    named += [
        (f"census(n={n},m={m})#{i}", FiniteNRack(n, m, table))
        for n, top in ((2, 4), (3, 3))
        for m in range(1, top + 1)
        for i, table in enumerate(enumerate_nracks(n, m).representatives)
    ]
    return named


TABLES = tables()
IDS = [name for name, _ in TABLES]


def top_degree(M: int) -> int:
    """Highest degree k <= 3 whose homology needs chain ranks within the cap."""
    k = 1
    while k < 3 and M ** (k + 2) <= CHAIN_RANK_CAP:
        k += 1
    return k


@pytest.mark.parametrize("R", [R for _, R in TABLES], ids=IDS)
def test_rack_and_quandle_betti_numbers_are_set_by_the_orbits(R):
    M = R.size ** (R.arity - 1)
    top = top_degree(M)
    C = rack_chain_complex(R, top + 1)
    o = len(orbits(C.rack))
    assert [homology(C, k).invariants.free_rank for k in range(1, top + 1)] == [
        o**k for k in range(1, top + 1)
    ]
    if classify(R).is_nquandle:
        Q = quandle_quotient_complex(C, degenerate_subcomplex(R, C))
        assert [homology(Q, k).invariants.free_rank for k in range(1, top + 1)] == [
            o * (o - 1) ** (k - 1) for k in range(1, top + 1)
        ]


# conj(D5) at n=3 has 1,000 relators on 10 generators; its chain complex is
# past the cap, so it joins this test alone.
PRESENTED = TABLES + [("conj(D5,n=3)", build_conjugation_nrack(dihedral_group(5), 3))]


@pytest.mark.parametrize("R", [R for _, R in PRESENTED], ids=[name for name, _ in PRESENTED])
@pytest.mark.parametrize("paper_form", [False, True])
def test_abelianized_associated_group_is_free_on_the_orbits(R, paper_form):
    # Each relator abelianizes to e_[xs] - e_{x_n}, so Z^X is divided by
    # y ~ [xs, y], whose classes are the inner orbits: Z^o, no torsion.
    inv = abelianization(associated_group_presentation(R, paper_form=paper_form))
    assert (inv.free_rank, inv.torsion) == (len(orbits(R)), ())


def test_conj_s3_quandle_betti_numbers_in_degrees_3_and_4():
    # Three conjugacy classes: 3 * 2^2 and 3 * 2^3.
    R = build_conjugation_nrack(symmetric_group(3), 2)
    C = rack_chain_complex(R, 5)
    Q = quandle_quotient_complex(C, degenerate_subcomplex(R, C))
    assert [homology(Q, k).invariants.free_rank for k in (3, 4)] == [12, 24]


@pytest.mark.parametrize("p", [3, 5])
def test_connected_quandles_of_prime_order_are_the_affine_ones(p):
    # x.y = t y + (1 - t) x mod p for t = 2..p-1, one class each.
    connected = {
        t
        for t in enumerate_nracks(2, p, "n-quandle").representatives
        if len(orbits(FiniteNRack(2, p, t))) == 1
    }
    affine = {
        canonical_form(tuple((t * y + (1 - t) * x) % p for x in range(p) for y in range(p)), p, 2)
        for t in range(2, p)
    }
    assert len(connected) == p - 2
    assert connected == affine


@pytest.mark.parametrize(
    "m, torsion",
    [(3, [0, 0, 1, 1, 1, 2, 3, 4, 6]), (5, [0, 0, 1, 1, 1]), (7, [0, 0, 1, 1])],
    ids=["R3", "R5", "R7"],
)
def test_dihedral_quandle_homology_in_high_degree(m, torsion):
    """H^Q_n of the dihedral quandle R_m (x.y = 2x - y mod m, m = 3, 5, 7)
    is Z for n = 1 and (Z/m)^f_n for n >= 2, with torsion[n - 1] = f_n.

    Degrees count the entries of a tuple: C^Q_n is free on the
    non-degenerate n-tuples, the indexing in which H^Q_2(R_3) = 0 and
    H^Q_3(R_3) = Z/3 (Carter, Jelsovsky, Kamada & Saito, JPAA 157, 2001),
    so f_3 = 1 here.  In that indexing Niebrzydowski & Przytycki
    (Homology of dihedral quandles, JPAA 213, 2009) conjectured
    f_n = f_{n-1} + f_{n-3} for R_3 from f_1 = f_2 = 0, f_3 = 1, which
    gives 0, 0, 1, 1, 1, 2, 3, 4, 6, and Nosaka (On quandle homology
    groups of Alexander quandles of prime order, Trans. AMS 365, 2013)
    proved it, with the homology of the other R_p of prime order.  No
    free part past degree 1: each R_m is connected, one orbit, so
    o(o-1)^(n-1) = 0.  Over Z/m, universal coefficients give
    H_n(Z/m) = H_n (x) Z/m + Tor(H_{n-1}, Z/m), so (Z/m)^(f_n + f_{n-1})
    for n >= 2 and Z/m for n = 1.
    """
    top = len(torsion)
    Q = rack_chain_complex(dihedral_nrack(m), top + 1, variant="Q")
    integral = [homology(Q, n).invariants for n in range(1, top + 1)]
    assert [(h.free_rank, h.torsion) for h in integral] == [
        (int(n == 1), (m,) * f) for n, f in enumerate(torsion, start=1)
    ]
    mod_m = [homology(Q, n, CoefficientGroup(m)).invariants for n in range(1, top + 1)]
    assert [(h.free_rank, h.torsion) for h in mod_m] == [
        (0, (m,) * (int(n == 1) + f + ([0] + torsion)[n - 1]))
        for n, f in enumerate(torsion, start=1)
    ]
