"""Randomized properties of the sector pipeline, checked against tests/oracles.py.

Every test is derandomized and draws only small chains, so the module runs in
a few seconds and reruns identically.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kron_kink_hamiltonian, sector_kron_indices
from rank_order import dense_by_rank, rank_terms, ranks
from xxzkink.basis import SectorBasis, reachable_sectors
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
    two_m = (2 * L + 1) * two_j - 2 * sum(digits)
    basis = SectorBasis(H(two_j), L, H(two_m))
    index = int(rank_terms(basis.prefix_counts, [digits])[0])
    assert basis.down[index].tolist() == digits
    other = data.draw(st.integers(0, basis.dim - 1))
    assert rank_terms(basis.prefix_counts, basis.down[other:other + 1]).tolist() == [other]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(sector=sectors(KRON_CHAINS), delta_inv=delta_invs)
def test_kink_matrix_matches_tensor_product(sector, delta_inv):
    two_j, L, two_m = sector
    op = build_sector_operator(H(two_j), L, H(two_m), "kink", delta_inv)
    # tensor indices of the rows by rank, moved to the operator's order
    idx = sector_kron_indices(SectorBasis(H(two_j), L, H(two_m)))[ranks(op.halves)]
    full = kron_kink_hamiltonian(two_j, L, delta_inv)
    assert np.abs(full[np.ix_(idx, idx)] - op.to_dense()).max() <= 1e-12


@settings(max_examples=100, derandomize=True, deadline=None)
@given(sector=sectors(DENSE_CHAINS), variant=st.sampled_from(("kink", "antikink")),
       delta_inv=delta_invs)
def test_csr_is_exactly_symmetric(sector, variant, delta_inv):
    two_j, L, two_m = sector
    matrix = build_sector_operator(H(two_j), L, H(two_m), variant, delta_inv).matrix
    assert (matrix != matrix.T).nnz == 0


@settings(max_examples=100, derandomize=True, deadline=None)
@given(sector=sectors(DENSE_CHAINS), delta_inv=delta_invs)
def test_spin_flip_reflection_maps_sector_to_minus_sector_property(sector, delta_inv):
    # m_alpha -> -m_{-alpha} carries the kink matrix of sector M onto -M
    two_j, L, two_m = sector
    basis = SectorBasis(H(two_j), L, H(two_m))
    mirror = SectorBasis(H(two_j), L, H(-two_m))
    perm = rank_terms(mirror.prefix_counts, two_j - basis.down[:, ::-1])
    a = build_sector_operator(H(two_j), L, H(two_m), "kink", delta_inv)
    b = build_sector_operator(H(two_j), L, H(-two_m), "kink", delta_inv)
    assert np.array_equal(dense_by_rank(b)[np.ix_(perm, perm)], dense_by_rank(a))
    va, vb = dense_spectrum(a).eigenvalues, dense_spectrum(b).eigenvalues
    assert np.abs(va - vb).max() <= 1e-12 * (1.0 + np.abs(va).max())
