"""Exhaustive verification of the diagonal-limit structure on small chains.

For every sector the checks are:

  (a) exactly one zero-energy configuration;
  (b) the energies below the band edge 2J match the closed-form prediction
      (bulk sectors only; sectors whose wall touches the boundary are
      reported but not judged against the closed form);
  (c) any configuration with a strict descent, or with an interior site
      flanked by a non-minimal left neighbor and a non-maximal right
      neighbor, has energy at least 2J (equivalently: no configuration
      below 2J has either feature, so only those few rows are examined);
  (d) the multiplicity of the level 2J is at least the constructive bound.

The checks are exhaustive by pruning, not by enumeration: every check reads
only the rows with E(c) <= 2J, which ``ising.low_energy_rows`` lists from
the chain's least-completion table without building the sector, and every
sector's dimension comes from one counting table of the chain.  The energies
are exact integers, so every comparison is sharp; (a), (b) and (d) read one
bincount.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _count_table, _sector_shape, reachable_sectors
from .basis import SectorBasis  # noqa: F401  (no longer called here; bench/traced.py hooks it)
from .halfint import HalfInt, as_half
from .hamiltonian import ising_diagonal  # noqa: F401  (likewise hooked, not called)
from .ising import (EdgeSectorError, band_edge_multiplicity_lower_bound, least_completion,
                    low_energy_rows, predicted_low_spectrum)


@dataclass
class SectorCheck:
    two_m: int
    dim: int
    edge: bool
    ground_count: int
    observed_low: dict
    predicted_low: dict | None
    low_match: bool | None
    floor_ok: bool
    band_multiplicity: int
    band_bound: int

    @property
    def ground_unique(self) -> bool:
        return self.ground_count == 1

    @property
    def band_ok(self) -> bool:
        return self.band_multiplicity >= self.band_bound

    @property
    def passed(self) -> bool:
        return (
            self.ground_unique
            and self.low_match is not False
            and self.floor_ok
            and self.band_ok
        )


@dataclass
class IsingCheckReport:
    two_j: int
    L: int
    sectors: list

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sectors)

    def lines(self) -> list:
        out = [
            f"diagonal-limit checks for 2J={self.two_j}, L={self.L} "
            f"({len(self.sectors)} sectors)"
        ]
        for s in self.sectors:
            low = "edge(skipped)" if s.low_match is None else ("ok" if s.low_match else "MISMATCH")
            out.append(
                f"  two_m={s.two_m:+d} dim={s.dim} ground={'ok' if s.ground_unique else 'FAIL'} "
                f"low_spectrum={low} floor={'ok' if s.floor_ok else 'FAIL'} "
                f"band mult={s.band_multiplicity} >= bound={s.band_bound} "
                f"{'ok' if s.band_ok else 'FAIL'}"
            )
        out.append("all sectors pass" if self.passed else "FAILURES present")
        return out


def verify_ising_theorems(J, L, budget: int = 10_000_000) -> IsingCheckReport:
    """Run the per-sector checks over every sector of the (J, L) chain."""
    J = as_half(J)
    L = int(L)
    n, _ = _sector_shape(J, L, J)  # spin and length first: the base is then >= 2
    size = 1
    for _ in range(n):  # so at most log2(budget) + 1 factors before the exit
        size *= J.twice + 1
        if size > budget:
            # printed as a power: the decimal form can exceed int-to-str limits
            raise ValueError(
                f"state space size {J.twice + 1}^{n} exceeds the exhaustive budget {budget}")
    band = J.twice  # the level 2J as an exact integer
    least = least_completion(J, L)
    # rows with D down units, for D up to the centre; mirroring d -> 2J - d gives the rest
    top = n * J.twice
    dims = _count_table(J.twice, n, top // 2)[0][0]
    sectors = []
    for two_m in reachable_sectors(J, L):
        M = HalfInt(two_m)
        rows, energies = low_energy_rows(J, L, M, band, least)
        counts = np.bincount(energies, minlength=band + 1)  # E(c) >= 0 is an exact integer
        ground_count = int(counts[0])
        observed_low = {e: int(c) for e, c in enumerate(counts[:band].tolist()) if c}
        try:
            predicted = predicted_low_spectrum(J, L, M)
            low_match = observed_low == predicted
            edge = False
        except EdgeSectorError:
            predicted = None
            low_match = None
            edge = True
        # (c) says no covered row lies below 2J, so only those rows are tested
        low = rows[energies < band]
        descent = (low[:, 1:] > low[:, :-1]).any(axis=1)
        flanked = ((low[:, :-2] < band) & (low[:, 2:] > 0)).any(axis=1)
        floor_ok = not (descent | flanked).any()
        band_multiplicity = int(counts[band])
        band_bound = band_edge_multiplicity_lower_bound(J, L, M)
        sectors.append(
            SectorCheck(
                two_m=two_m,
                dim=dims[min((top - two_m) // 2, (top + two_m) // 2)],
                edge=edge,
                ground_count=ground_count,
                observed_low=observed_low,
                predicted_low=predicted,
                low_match=low_match,
                floor_ok=floor_ok,
                band_multiplicity=band_multiplicity,
                band_bound=band_bound,
            )
        )
    return IsingCheckReport(J.twice, L, sectors)
