"""Shared fixture builders for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

from nracks import (
    FiniteNRack,
    FiniteRack,
    build_conjugation_nrack,
    build_gamma_module_nrack,
    build_z4_module_nrack,
    cyclic_group,
    dihedral_group,
    lift_rack_to_nrack,
    symmetric_group,
)

# Rational coefficients for Leibniz tensors, vectors and operators: zero, or
# a signed numerator over a denominator 1..7, so common denominators range
# over products of small primes.
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 7)),
)


def trivial_nrack(n: int, m: int) -> FiniteNRack:
    """[x_1,...,x_n] = x_n."""
    table = []
    count = m**n
    for idx in range(count):
        table.append(idx % m)
    return FiniteNRack(n, m, tuple(table))


def dihedral_nrack(m: int) -> FiniteNRack:
    """The dihedral quandle x o y = 2x - y mod m, as a 2-rack."""
    return FiniteNRack(2, m, tuple((2 * x - y) % m for x in range(m) for y in range(m)))


def shift_nrack(m: int) -> FiniteNRack:
    """x o y = y + 1 mod m: a rack with no idempotent element for m > 1."""
    return FiniteNRack(2, m, tuple((y + 1) % m for x in range(m) for y in range(m)))


def boundary_dense(C, k: int) -> list[list[int]]:
    """d_k of the complex C as a dense rows x cols list (rows = ranks[k-1],
    cols = ranks[k]), for oracles that take dense matrices."""
    if not 1 <= k <= C.max_degree:
        raise ValueError(f"no boundary matrix in degree {k}")
    M = [[0] * C.ranks[k] for _ in range(C.ranks[k - 1])]
    for j, col in enumerate(C.cols[k]):
        for i, v in col.items():
            M[i][j] = v
    return M


def one_element_nrack(n: int = 2) -> FiniteNRack:
    return FiniteNRack(n, 1, (0,) * 1, basepoint=0)


def axiom_fixture_set() -> list[tuple[str, FiniteNRack]]:
    """The construction fixtures exercised by the acceptance axiom suite."""
    fixtures = [(f"z4(n={n})", build_z4_module_nrack(n, 4)) for n in (2, 3, 4)]
    fixtures += [
        ("gamma(3,4,1,2)", build_gamma_module_nrack(3, 4, 1, 2)),
        ("gamma(2,5,3,3)", build_gamma_module_nrack(2, 5, 3, 3)),
    ]
    groups = [
        ("Z2", cyclic_group(2)),
        ("Z4", cyclic_group(4)),
        ("S3", symmetric_group(3)),
        ("D4", dihedral_group(4)),
    ]
    for name, G in groups:
        for n in (2, 3):
            fixtures.append((f"conj({name},n={n})", build_conjugation_nrack(G, n)))
    trivial_rack = FiniteRack(3, tuple(y for x in range(3) for y in range(3)))
    dihedral_rack = FiniteRack(3, tuple((2 * x - y) % 3 for x in range(3) for y in range(3)))
    fixtures += [
        ("lift(trivial3,3)", lift_rack_to_nrack(trivial_rack, 3)),
        ("lift(dihedral3,3)", lift_rack_to_nrack(dihedral_rack, 3)),
        ("trivial(3,2)", trivial_nrack(3, 2)),
    ]
    return fixtures
