from collections import Counter

import numpy as np
import pytest

from xxzkink.basis import SectorBasis, reachable_sectors
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import ising_config_energy, ising_diagonal
from xxzkink.ising import (
    EdgeSectorError,
    band_edge_multiplicity_lower_bound,
    degenerate_pairs,
    excitation_config,
    excitation_energy,
    excitation_sets,
    ground_config,
    ground_descriptor,
    isolation_distance,
    localized_excitations,
    predicted_low_spectrum,
)

H = HalfInt


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
                cfg = ground_config(H(two_j), L, H(two_m))
                assert cfg.magnetization == H(two_m)
                assert diag[basis.rank(cfg)] == 0


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
                for exc in excitations:
                    assert exc.config.magnetization == H(two_m)
                    assert ising_config_energy(H(two_j), exc.config) == exc.energy
                    assert 0 < exc.energy < two_j


def test_coincident_labels_describe_one_config():
    J, L = H(3), 3
    desc = ground_descriptor(J, L, H(-3))
    assert desc.coincident and (desc.x, desc.m) == (1, J)
    canonical = [(-J if a < desc.x else (desc.m if a == desc.x else J)) for a in range(-L, L + 1)]
    partner = [(-J if a < desc.x - 1 else (-J if a == desc.x - 1 else J)) for a in range(-L, L + 1)]
    assert canonical == partner


def test_first_excitation_from_extremal_wall():
    # moving one unit across the wall of an (x, -J) label costs exactly 1
    cfg = excitation_config(H(3), 2, 0, H(-3), 1, +1)
    assert ising_config_energy(H(3), cfg) == 1 == excitation_energy(H(3), H(-3), 1, +1)


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
    assert isolation_distance(H(3), 3, H(-3), [1]) == [(1, True)]
    with pytest.raises(ValueError):
        isolation_distance(H(3), 3, H(-3), [2])  # 2 is not in that sector's spectrum
    # cap exceeded -> certified lower bound with flag
    assert isolation_distance(H(3), 3, H(-3), [1], max_enumeration=10) == [(1, False)]
    # distances are integers >= 1 across a small grid
    for two_m in reachable_sectors(H(4), 2):
        basis = SectorBasis(H(4), 2, H(two_m))
        values = np.unique(ising_diagonal(basis))
        if values.size < 2:
            continue
        for dist in isolation_distance(H(4), 2, H(two_m), values[:4]):
            assert dist.exact and dist.distance >= 1


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
