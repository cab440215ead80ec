from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import brute_config_energy, brute_least_completion
import xxzkink.ising
from xxzkink.basis import SectorBasis, rank_terms, reachable_sectors
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import ising_diagonal
from xxzkink.ising import (
    EdgeSectorError,
    band_edge_multiplicity_lower_bound,
    excitation_config,
    excitation_energy,
    excitation_sets,
    ground_descriptor,
    isolation_distance,
    least_completion,
    localized_excitations,
    low_energy_rows,
    predicted_low_spectrum,
)

H = HalfInt


def ground_config(J, L, M) -> np.ndarray:
    """The unique zero-energy configuration of the sector, as an int8 digit row."""
    desc = ground_descriptor(J, L, M)
    return xxzkink.ising._wall_row(J, L, desc.x, desc.m)


@dataclass(frozen=True)
class DegeneratePair:
    a: int
    b: int
    m: HalfInt
    energy: int


def degenerate_pairs(J) -> list:
    """Below-band degeneracies beyond the symmetric m=0 doubling.

    Each factorization 2J = a*b with 2 <= a <= b pairs the first rightward
    excitation with the (a-1)-th leftward one at m = J - 2 + a - b, both at
    energy 2J - 1 + a - b, mirrored at -m when m is nonzero.
    """
    tj = J.twice
    out = []
    for a in range(2, int(tj**0.5) + 1):
        if tj % a != 0:
            continue
        b = tj // a
        if b < a:
            continue
        m = J - 2 + a - b
        energy = tj - 1 + a - b
        out.append(DegeneratePair(a, b, m, energy))
        if m.twice != 0:
            out.append(DegeneratePair(a, b, -m, energy))
    return out


def test_ground_descriptor_examples():
    d = ground_descriptor(H(3), 3, H(-3))
    assert (d.x, d.m) == (1, H(3)) and d.coincident
    d = ground_descriptor(H(1), 2, H(5))
    assert (d.x, d.m) == (-2, H(1)) and d.coincident
    d = ground_descriptor(H(4), 3, H(-2))
    assert (d.x, d.m) == (0, H(-2)) and not d.coincident
    # bottom sector: all sites down, forced label (L, -J)
    d = ground_descriptor(H(3), 2, H(-15))
    assert (d.x, d.m) == (2, H(-3)) and d.coincident
    with pytest.raises(ValueError):
        ground_descriptor(H(1), 2, H(7))


def test_ground_config_is_unique_zero_energy_state():
    for two_j in (1, 2, 3, 4):
        for L in (2, 3):
            for two_m in reachable_sectors(H(two_j), L):
                basis = SectorBasis(H(two_j), L, H(two_m))
                diag = ising_diagonal(basis)
                assert int((diag == 0).sum()) == 1
                row = ground_config(H(two_j), L, H(two_m))
                assert row.dtype == np.int8
                index = int(rank_terms(basis.prefix_counts, row[None, :])[0])
                assert np.array_equal(basis.down[index], row)
                assert diag[index] == 0 == brute_config_energy(two_j, row.tolist())


def test_excitation_set_examples():
    s = excitation_sets(H(1), H(1))
    assert s.plus == [] and s.minus == []
    s = excitation_sets(H(2), H(0))
    assert s.plus == [] and s.minus == []  # E(0,1) = 2 = 2J excluded
    s = excitation_sets(H(4), H(0))
    assert s.plus == [(1, 3)] and s.minus == [(1, 3)]


def test_excitation_energies_increase_in_n():
    for two_j in (2, 4, 6):
        for tm in range(-two_j, two_j + 1, 2):
            for sign, bound in ((+1, (two_j - tm) // 2), (-1, (two_j + tm) // 2)):
                energies = [
                    excitation_energy(H(two_j), H(tm), n, sign) for n in range(1, bound + 1)
                ]
                assert energies == sorted(set(energies))


def test_excitation_configs_reproduce_energies():
    for two_j in (1, 2, 3, 4, 5):
        for L in (2, 3):
            for two_m in reachable_sectors(H(two_j), L):
                try:
                    excitations = localized_excitations(H(two_j), L, H(two_m))
                except EdgeSectorError:
                    continue
                basis = SectorBasis(H(two_j), L, H(two_m))
                ground = ground_config(H(two_j), L, H(two_m)).astype(int)
                for exc in excitations:
                    row = exc.config
                    index = int(rank_terms(basis.prefix_counts, row[None, :])[0])
                    assert np.array_equal(basis.down[index], row)
                    assert brute_config_energy(two_j, row.tolist()) == exc.energy
                    assert 0 < exc.energy < two_j
                    # n units cross the wall: two adjacent digits change by -n, +n
                    change = row - ground
                    moved = np.flatnonzero(change)
                    assert moved.size == 2 and moved[1] == moved[0] + 1
                    assert change[moved].tolist() == [-exc.n, exc.n]


def test_coincident_labels_describe_one_config():
    J, L = H(3), 3
    desc = ground_descriptor(J, L, H(-3))
    assert desc.coincident and (desc.x, desc.m) == (1, J)
    canonical = [(-J if a < desc.x else (desc.m if a == desc.x else J)) for a in range(-L, L + 1)]
    partner = [(-J if a < desc.x - 1 else (-J if a == desc.x - 1 else J)) for a in range(-L, L + 1)]
    assert canonical == partner


def test_first_excitation_from_extremal_wall():
    # moving one unit across the wall of an (x, -J) label costs exactly 1
    row = excitation_config(H(3), 2, 0, H(-3), 1, +1)
    assert row.tolist() == [3, 3, 2, 1, 0]
    assert brute_config_energy(3, row.tolist()) == 1 == excitation_energy(H(3), H(-3), 1, +1)
    for x, n, sign in ((2, 1, +1), (0, 1, 0), (0, 0, +1), (0, 4, +1), (0, 1, -1)):
        with pytest.raises(ValueError):  # wall on the edge, bad sign, n out of range
            excitation_config(H(3), 2, x, H(-3), n, sign)


def test_predicted_low_spectrum_examples():
    assert predicted_low_spectrum(H(3), 3, H(-3)) == {0: 1, 1: 1}
    assert predicted_low_spectrum(H(4), 3, H(0)) == {0: 1, 3: 2}
    assert predicted_low_spectrum(H(1), 3, H(1)) == {0: 1}
    with pytest.raises(EdgeSectorError):
        predicted_low_spectrum(H(1), 2, H(5))  # wall at the edge


def test_predicted_low_spectrum_matches_enumeration():
    for two_j in (1, 2, 3):
        for L in (2, 3):
            for two_m in reachable_sectors(H(two_j), L):
                try:
                    predicted = predicted_low_spectrum(H(two_j), L, H(two_m))
                except EdgeSectorError:
                    continue
                diag = ising_diagonal(SectorBasis(H(two_j), L, H(two_m)))
                observed = dict(Counter(int(e) for e in diag[diag < two_j]))
                assert observed == predicted
                assert all(mult <= 2 for mult in predicted.values())


def test_isolation_distance():
    least = least_completion(H(3), 3)
    assert isolation_distance(H(3), 3, H(-3), [1], least) == [1]
    with pytest.raises(ValueError):
        isolation_distance(H(3), 3, H(-3), [2], least)  # 2 is not in that sector's spectrum
    # distances are integers >= 1 across a small grid
    least = least_completion(H(4), 2)
    for two_m in reachable_sectors(H(4), 2):
        basis = SectorBasis(H(4), 2, H(two_m))
        values = np.unique(ising_diagonal(basis))
        if values.size < 2:
            continue
        for dist in isolation_distance(H(4), 2, H(two_m), values[:4], least):
            assert type(dist) is int and dist >= 1
    # a sector of 812 525 155 states whose lowest levels are 0, 2 and 5
    assert isolation_distance(H(5), 6, H(-3), [2], least_completion(H(5), 6)) == [2]


@pytest.mark.parametrize("two_j", [1, 2, 3, 4])
def test_least_completion_is_the_least_tail_energy(two_j):
    least = least_completion(H(two_j), 2)  # tails of k = 0..4 sites
    assert least.dtype == np.int64 and least.shape == (5, 5 * two_j + 1, two_j + 1)
    for k in range(5):
        for r in range(5 * two_j + 1):
            for p in range(two_j + 1):
                expected = brute_least_completion(two_j, k, r, p)
                got = int(least[k, r, p])
                assert got == (xxzkink.ising._INFEASIBLE if expected is None else expected)


# every sector of 2J = 1..6 at L <= 3, and the benchmark's chain 2J = 5, L = 4
ORACLE_CHAINS = [(two_j, L) for two_j in range(1, 7) for L in (1, 2, 3)] + [(5, 4)]


@pytest.mark.parametrize("two_j, L", ORACLE_CHAINS)
def test_low_energy_rows_are_the_sector_rows_within_the_cap(two_j, L):
    least = least_completion(H(two_j), L)
    for two_m in reachable_sectors(H(two_j), L):
        basis = SectorBasis(H(two_j), L, H(two_m))
        diag = ising_diagonal(basis)
        for cap in range(2 * two_j + 1):
            rows, energies = low_energy_rows(H(two_j), L, H(two_m), cap, least)
            kept = diag <= cap
            assert rows.dtype == np.int8 and energies.dtype == np.int64
            assert np.array_equal(rows, basis.down[kept])  # same rows, same order
            assert np.array_equal(energies, diag[kept])


@pytest.mark.parametrize("two_j, L", ORACLE_CHAINS)
def test_isolation_distance_matches_the_whole_sector(two_j, L):
    least = least_completion(H(two_j), L)
    for two_m in reachable_sectors(H(two_j), L):
        J, M = H(two_j), H(two_m)
        levels = np.unique(ising_diagonal(SectorBasis(J, L, M)))
        gap = int(np.setdiff1d(np.arange(levels[-1] + 2), levels)[0])  # lowest non-level
        with pytest.raises(ValueError, match="is not an eigenvalue"):
            isolation_distance(J, L, M, [0, gap], least)
        if levels.size == 1:
            with pytest.raises(ValueError, match="single distinct level"):
                isolation_distance(J, L, M, [0], least)
            continue
        # the levels up to 2 * 2J, which certify asks about, at once and one at a time
        low = levels[levels <= 2 * two_j]
        expected = [int(np.abs(levels[levels != E] - E).min()) for E in low]
        assert isolation_distance(J, L, M, low, least) == expected
        for E, distance in zip(low, expected):
            assert isolation_distance(J, L, M, [E], least) == [distance]


def test_degenerate_pairs():
    assert degenerate_pairs(H(2)) == []  # 2J = 2 has no factorization
    pairs = degenerate_pairs(H(4))
    assert len(pairs) == 1 and (pairs[0].a, pairs[0].b, pairs[0].m, pairs[0].energy) == (
        2,
        2,
        H(0),
        3,
    )
    pairs = degenerate_pairs(H(6))
    assert [(p.a, p.b, p.m.twice, p.energy) for p in pairs] == [(2, 3, 0, 4)]
    assert excitation_energy(H(6), H(0), 1, +1) == excitation_energy(H(6), H(0), 1, -1) == 4
    # 2J = 9 = 3*3: pair at m = 5/2, energy 8, plus the mirror at -5/2
    pairs = degenerate_pairs(H(9))
    assert [(p.a, p.b, p.m.twice, p.energy) for p in pairs] == [(3, 3, 5, 8), (3, 3, -5, 8)]
    assert excitation_energy(H(9), H(5), 1, +1) == 8
    assert excitation_energy(H(9), H(5), 2, -1) == 8


def test_first_excitation_multiplicity_rule():
    for two_j in (1, 2, 3, 4, 5, 6):
        for L in (2, 3):
            for two_m in reachable_sectors(H(two_j), L):
                try:
                    predicted = predicted_low_spectrum(H(two_j), L, H(two_m))
                except EdgeSectorError:
                    continue
                excited = sorted(e for e in predicted if e > 0)
                if not excited:
                    continue
                doubled = two_j % 2 == 0 and two_j > 2 and two_m % (2 * two_j) == 0
                assert predicted[excited[0]] == (2 if doubled else 1)


def test_band_edge_bound_examples():
    # divisible sector: 2L - 1
    assert band_edge_multiplicity_lower_bound(H(1), 2, H(3)) == 3
    basis = SectorBasis(H(1), 2, H(3))
    assert int((ising_diagonal(basis) == 1).sum()) == 4  # observed >= bound
    # interior non-divisible sector: 2L - 2
    assert band_edge_multiplicity_lower_bound(H(4), 3, H(-2)) == 4
    # one-dimensional extreme sectors carry no band states at all
    assert band_edge_multiplicity_lower_bound(H(3), 2, H(15)) == 0
    assert band_edge_multiplicity_lower_bound(H(3), 2, H(-15)) == 0


def test_band_edge_bound_grows_linearly():
    bounds = [band_edge_multiplicity_lower_bound(H(4), L, H(-2)) for L in (2, 3, 4, 5)]
    assert bounds == [2, 4, 6, 8]


def test_band_edge_bound_is_attained():
    for two_j in (1, 2, 3, 4):
        for L in (2, 3):
            for two_m in reachable_sectors(H(two_j), L):
                basis = SectorBasis(H(two_j), L, H(two_m))
                observed = int((ising_diagonal(basis) == two_j).sum())
                bound = band_edge_multiplicity_lower_bound(H(two_j), L, H(two_m))
                assert 0 <= bound <= max(0, basis.dim - 1)
                assert observed >= bound
