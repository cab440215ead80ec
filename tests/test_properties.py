"""Randomized properties of the sector pipeline, checked against tests/oracles.py.

Every test is derandomized and draws only small chains, so the module runs in
a few seconds and reruns identically.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kron_kink_hamiltonian, sector_kron_indices
from xxzkink.basis import IsingConfig, SectorBasis, reachable_sectors
from xxzkink.eigensolver import dense_spectrum
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import build_sector_operator

H = HalfInt

# (2J, L) whose full tensor space has at most 256 states
KRON_CHAINS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1), (5, 1))
# (2J, L) whose largest sector has at most 400 states
DENSE_CHAINS = KRON_CHAINS + ((1, 4), (2, 3), (3, 2), (4, 2))

delta_invs = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


def sectors(chains):
    """(2J, L, 2M) with (2J, L) drawn from ``chains`` and M reachable."""
    return st.sampled_from(chains).flatmap(
        lambda c: st.sampled_from(reachable_sectors(H(c[0]), c[1])).map(lambda m: (*c, m))
    )


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data(), two_j=st.integers(1, 4), L=st.integers(1, 3))
def test_rank_unrank_round_trip(data, two_j, L):
    digits = data.draw(st.lists(st.integers(0, two_j), min_size=2 * L + 1, max_size=2 * L + 1))
    config = IsingConfig.from_down_units(H(two_j), L, digits)
    basis = SectorBasis(H(two_j), L, config.magnetization)
    index = basis.rank(config)
    assert basis.unrank(index) == config
    assert basis.down[index].tolist() == digits
    other = data.draw(st.integers(0, basis.dim - 1))
    assert basis.rank(basis.unrank(other)) == other


@settings(max_examples=100, derandomize=True, deadline=None)
@given(sector=sectors(KRON_CHAINS), delta_inv=delta_invs)
def test_kink_matrix_matches_tensor_product(sector, delta_inv):
    two_j, L, two_m = sector
    basis = SectorBasis(H(two_j), L, H(two_m))
    op = build_sector_operator(H(two_j), L, H(two_m), "kink", delta_inv, basis=basis)
    idx = sector_kron_indices(basis)
    full = kron_kink_hamiltonian(two_j, L, delta_inv)
    assert np.abs(full[np.ix_(idx, idx)] - op.to_dense()).max() <= 1e-12


@settings(max_examples=100, derandomize=True, deadline=None)
@given(sector=sectors(DENSE_CHAINS), variant=st.sampled_from(("kink", "antikink", "h1")),
       delta_inv=delta_invs)
def test_csr_is_exactly_symmetric(sector, variant, delta_inv):
    two_j, L, two_m = sector
    dv = None if variant == "h1" else delta_inv
    matrix = build_sector_operator(H(two_j), L, H(two_m), variant, dv).matrix
    assert (matrix != matrix.T).nnz == 0


@settings(max_examples=100, derandomize=True, deadline=None)
@given(sector=sectors(DENSE_CHAINS), delta_inv=delta_invs)
def test_spin_flip_reflection_maps_sector_to_minus_sector_property(sector, delta_inv):
    # m_alpha -> -m_{-alpha} carries the kink matrix of sector M onto -M
    two_j, L, two_m = sector
    basis = SectorBasis(H(two_j), L, H(two_m))
    mirror = SectorBasis(H(two_j), L, H(-two_m))
    perm = mirror.rank_rows(two_j - basis.down[:, ::-1])
    a = build_sector_operator(H(two_j), L, H(two_m), "kink", delta_inv, basis=basis)
    b = build_sector_operator(H(two_j), L, H(-two_m), "kink", delta_inv, basis=mirror)
    assert np.array_equal(b.to_dense()[np.ix_(perm, perm)], a.to_dense())
    va, vb = dense_spectrum(a).eigenvalues, dense_spectrum(b).eigenvalues
    assert np.abs(va - vb).max() <= 1e-12 * (1.0 + np.abs(va).max())
