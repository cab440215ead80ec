import numpy as np
import pytest

from oracles import brute_sector_rows
import xxzkink.basis
from xxzkink.basis import (
    MAX_TWO_J,
    SectorBasis,
    rank_terms,
    reachable_sectors,
    sector_counts,
)
from xxzkink.halfint import HalfInt

H = HalfInt


def test_dimension_examples():
    assert sector_counts(H(1), 2, H(5))[0] == 1
    assert sector_counts(H(1), 2, H(3))[0] == 5
    assert sector_counts(H(2), 1, H(0))[0] == 7
    assert sector_counts(H(1), 2, H(99))[0] == 0  # unreachable -> 0, not an error
    assert sector_counts(H(2), 2, H(1))[0] == 0  # wrong parity


@pytest.mark.parametrize("two_j", [1, 2, 3, 4])
@pytest.mark.parametrize("L", [1, 2])
def test_enumeration_matches_brute_force(two_j, L):
    for two_m in reachable_sectors(H(two_j), L):
        basis = SectorBasis(H(two_j), L, H(two_m))
        ref = brute_sector_rows(two_j, L, two_m)
        assert basis.dim == len(ref) == sector_counts(H(two_j), L, H(two_m))[0]
        assert [tuple(r) for r in basis.down] == ref


def test_enumeration_examples():
    basis = SectorBasis(H(1), 2, H(5))
    # doubled values 2m = 2J - 2d
    assert [[1 - 2 * d for d in row] for row in basis.down.tolist()] == [[1, 1, 1, 1, 1]]
    basis = SectorBasis(H(2), 1, H(0))
    tuples = [tuple(1 - d for d in row) for row in basis.down.tolist()]  # m = J - d
    assert len(tuples) == 7
    assert (1, 0, -1) in tuples and (0, 0, 0) in tuples
    # first emitted config is the m-lexicographically greatest (smallest down units)
    assert tuple(basis.down[0]) == min(tuple(r) for r in basis.down)


def test_rank_unrank_roundtrip_exhaustive():
    for two_j in (1, 2, 3, 4):
        for L in (2, 3, 4):
            for two_m in reachable_sectors(H(two_j), L):
                if sector_counts(H(two_j), L, H(two_m))[0] > 10**4:
                    continue
                basis = SectorBasis(H(two_j), L, H(two_m))
                # vectorized: the rank of row i is i
                assert np.array_equal(rank_terms(basis.prefix_counts, basis.down),
                                      np.arange(basis.dim))


@pytest.mark.parametrize("two_j, L, two_m, dim", [(1, 34, -67, 69), (127, 5, -1395, 11)])
def test_sectors_with_counts_above_64_bits_build(two_j, L, two_m, dim):
    # their unreachable counting-table entries exceed 2**63; the mirror sectors built before
    for sign in (-1, 1):
        basis = SectorBasis(H(two_j), L, H(sign * two_m))
        assert basis.dim == dim
        assert np.array_equal(rank_terms(basis.prefix_counts, basis.down), np.arange(dim))


def test_rank_rows_of_random_rows_in_a_large_sector():
    basis = SectorBasis(H(3), 5, H(-3))
    assert basis.dim == 411_334
    ranks = np.random.default_rng(1).integers(0, basis.dim, 1000)
    assert np.array_equal(rank_terms(basis.prefix_counts, basis.down[ranks]), ranks)


def test_rank_unrank_config_objects():
    # m = (-1/2, 1/2, 1/2) is the last of the three rows of J = 1/2, L = 1, M = 1/2
    basis = SectorBasis(H(1), 1, H(1))
    assert basis.down.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert rank_terms(basis.prefix_counts, [[1, 0, 0]]).tolist() == [2]


def test_total_dimension_identity():
    for two_j in (1, 2, 3, 4):
        for L in (1, 2, 3, 4):
            total = sum(
                sector_counts(H(two_j), L, H(tm))[0] for tm in reachable_sectors(H(two_j), L)
            )
            assert total == (two_j + 1) ** (2 * L + 1)


def test_spin_flip_counting_symmetry():
    for two_j in (1, 3, 4):
        for L in (2, 3):
            for tm in reachable_sectors(H(two_j), L):
                assert sector_counts(H(two_j), L, H(tm))[0] == sector_counts(
                    H(two_j), L, H(-tm)
                )[0]


@pytest.mark.parametrize("two_j, n", [(1, 9), (2, 7), (5, 5), (127, 3)])
def test_count_table_rows_are_window_sums(two_j, n):
    # each cell of the sliding sum against its window summed directly
    for total in (0, two_j, n * two_j // 2 + 1, n * two_j):
        ways = xxzkink.basis._count_table(two_j, n, total)[0]
        assert ways[n] == [1] + [0] * total
        for i in range(n):
            assert ways[i] == [sum(ways[i + 1][max(0, r - two_j):r + 1])
                               for r in range(total + 1)]


def test_max_states_guard(monkeypatch):
    # 270 counting-table steps pass, the 3139 states do not
    monkeypatch.setattr(xxzkink.basis, "MAX_STATES", 300)
    with pytest.raises(ValueError, match="sector two_m=0 has more than the limit of 300 states"):
        SectorBasis(H(2), 4, H(0))


def test_digits_are_int8_up_to_the_spin_limit():
    assert MAX_TWO_J == 127
    basis = SectorBasis(H(MAX_TWO_J), 1, H(3 * MAX_TWO_J - 2))
    assert basis.down.dtype == np.int8 and basis.down.flags.f_contiguous  # site-major
    assert basis.down.tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    with pytest.raises(ValueError, match="two_m=99 labels an unreachable sector"):
        SectorBasis(H(3), 2, H(99))
    with pytest.raises(ValueError, match="2J <= 127"):
        SectorBasis(H(MAX_TWO_J + 1), 1, H(3 * MAX_TWO_J + 3))
