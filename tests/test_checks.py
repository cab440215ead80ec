from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

import xxzkink.checks
from xxzkink.basis import SectorBasis, reachable_sectors
from xxzkink.checks import verify_ising_theorems
from xxzkink.halfint import HalfInt
from xxzkink.ising import (
    EdgeSectorError,
    band_edge_multiplicity_lower_bound,
    predicted_low_spectrum,
)

H = HalfInt


def _covered(down: np.ndarray, two_j: int) -> tuple:
    """Full-row features of check (c): a strict descent, and an interior site
    flanked by a non-minimal left and a non-maximal right neighbor."""
    descent = (down[:, 1:] > down[:, :-1]).any(axis=1)
    flanked = ((down[:, :-2] < two_j) & (down[:, 2:] > 0)).any(axis=1)
    return descent, flanked


def _reference_sector(J, L: int, two_m: int) -> dict:
    """Every SectorCheck field from full-row formulas over all of the sector's rows."""
    basis = SectorBasis(J, L, H(two_m))
    down = basis.down.astype(np.int64)
    band = J.twice
    diag = ((band - down[:, :-1]) * down[:, 1:]).sum(axis=1)
    try:
        predicted = predicted_low_spectrum(J, L, H(two_m))
    except EdgeSectorError:
        predicted = None
    observed_low = {int(e): int(c) for e, c in sorted(Counter(diag[diag < band]).items())}
    covered = np.logical_or(*_covered(down, band))
    return {
        "two_m": two_m,
        "dim": basis.dim,
        "edge": predicted is None,
        "ground_count": int((diag == 0).sum()),
        "observed_low": observed_low,
        "predicted_low": predicted,
        "low_match": None if predicted is None else observed_low == predicted,
        "floor_ok": bool((diag[covered] >= band).all()),
        "band_multiplicity": int((diag == band).sum()),
        "band_bound": band_edge_multiplicity_lower_bound(J, L, H(two_m)),
    }


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_sector_checks_match_the_full_row_reference(two_j, L):
    J = H(two_j)
    report = verify_ising_theorems(J, L)
    assert [s.two_m for s in report.sectors] == reachable_sectors(J, L)
    for sector in report.sectors:
        fields = asdict(sector)
        reference = _reference_sector(J, L, sector.two_m)
        assert fields == reference
        # the JSON output lists the levels in this order, and its flags are bools
        assert list(fields["observed_low"].items()) == list(reference["observed_low"].items())
        assert type(sector.floor_ok) is bool


@pytest.mark.parametrize("feature", ["descent", "flanked"])
def test_a_covered_row_below_the_band_fails_the_floor(monkeypatch, feature):
    # spin 1, L = 2, two_m = 0: lower one covered row of energy >= 2J to 2J - 1
    real = xxzkink.checks.low_energy_rows
    lowered = []

    def low_energy_rows(J, L, M, cap):
        if M.twice != 0:
            return real(J, L, M, cap)
        rows, energies = real(J, L, M, 4 * L * J.twice**2)  # every row of the sector
        descent, flanked = _covered(rows, J.twice)
        chosen = descent if feature == "descent" else flanked & ~descent
        row = np.flatnonzero(chosen & (energies >= J.twice))[0]
        energies[row] = J.twice - 1
        lowered.append(row)
        kept = energies <= cap
        return rows[kept], energies[kept]

    monkeypatch.setattr(xxzkink.checks, "low_energy_rows", low_energy_rows)
    report = verify_ising_theorems(H(2), 2)
    assert len(lowered) == 1
    for sector in report.sectors:
        assert sector.floor_ok is (sector.two_m != 0)
        assert sector.passed is (sector.two_m != 0)
    assert not report.passed
