"""Closed-form spectral data of the chain at zero transverse coupling.

Every sector has a unique zero-energy configuration: a wall of -J sites on
the left, +J sites on the right and one interstitial value m at some site x,
with M = -2Jx + m.  Transferring n units of magnetization across the wall
produces the localized excitations with energies

    E_plus(m, n)  = n^2 + (J + m) n     (units moved rightward, 1 <= n <= J - m)
    E_minus(m, n) = n^2 + (J - m) n     (units moved leftward,  1 <= n <= J + m)

and the sector's spectrum below the band edge 2J consists exactly of these
closed forms (for walls away from the chain ends).  All energies here are
exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import MAX_STATES, _sector_shape
from .basis import SectorBasis  # noqa: F401  (no longer called here; bench/traced.py hooks it)
from .halfint import HalfInt, as_half
from .hamiltonian import ising_diagonal  # noqa: F401  (likewise hooked, not called)

# least_completion's entry for a digit sum no tail has; adding an energy cannot overflow it
_INFEASIBLE = np.iinfo(np.int64).max // 2


class EdgeSectorError(ValueError):
    """Ground wall sits on the boundary: the closed-form excitation list
    does not apply and callers should fall back to numerics."""


@dataclass(frozen=True)
class GroundDescriptor:
    """Canonical wall label (x, m) of a sector's unique zero-energy state.

    m lies in (-J, J] except in the bottom sector, where the all-down
    configuration forces (x, m) = (L, -J).  ``coincident`` marks sectors
    whose two raw labels (x, J) and (x-1, -J) denote the same configuration.
    """

    x: int
    m: HalfInt
    coincident: bool


def least_completion(J, L) -> np.ndarray:
    """least[k, r, p]: the least energy of a k-site digit tail with digit sum r
    after a left neighbour of digit p, bond to it included, exact int64, by
    the min-plus recursion least[k, r, p] = min_t (2J - p) t + least[k-1, r-t, t].
    One table serves every sector of the chain; it is refused above MAX_STATES
    cells before it is allocated."""
    two_j = as_half(J).twice
    n, _ = _sector_shape(J, L, J)
    top = n * two_j  # every digit sum of the chain
    if n * (top + 1) * (two_j + 1) > MAX_STATES:
        raise ValueError(f"the least-completion table of {n} sites with 2J={two_j} "
                         f"needs more than {MAX_STATES} cells")
    least = np.full((n, top + 1, two_j + 1), _INFEASIBLE, dtype=np.int64)
    least[0, 0] = 0
    bond = np.arange(two_j, -1, -1)  # 2J - p for each left digit p
    for k in range(1, n):
        width = (k - 1) * two_j + 1  # the feasible sums of a (k-1)-site tail
        for t in range(two_j + 1):
            np.minimum(least[k, t:t + width], least[k - 1, :width, t, None] + bond * t,
                       out=least[k, t:t + width])
    return least


def low_energy_rows(J, L, M, cap: int, least: np.ndarray) -> tuple:
    """(rows, energies): every digit row of sector M with E(c) <= cap, as
    (N, n_sites) int8 in the basis's ascending lexicographic order, and
    their energies, exact int64.  ``least`` is the chain's least_completion.

    Grows the enumeration tree of ``basis._enumerate_down`` one site at a
    time, keeping a child digit while its partial energy plus the least
    energy of any completion (none for an infeasible sum left) is <= cap:
    every kept prefix completes within the cap, so no level of the tree is
    wider than the rows returned."""
    J = as_half(J)
    n, total = _sector_shape(J, L, M)
    if total is None:
        raise ValueError(f"magnetization {as_half(M)} unreachable for J={J}, L={L}")
    two_j = J.twice
    remaining = np.array([total], dtype=np.int64)
    energy = np.zeros(1, dtype=np.int64)
    digits = np.full(1, two_j, dtype=np.int64)  # each node's last digit; 2J: site -L has no bond
    levels = []  # per site: (digit, parent index) of each kept node
    for i in range(n):
        counts = np.minimum(remaining, two_j) + 1
        parent = np.repeat(np.arange(remaining.size), counts)
        child = np.arange(parent.size) - (np.cumsum(counts) - counts)[parent]
        child_energy = energy[parent] + (two_j - digits[parent]) * child
        rest = remaining[parent] - child
        keep = child_energy + least[n - i - 1, rest, child] <= cap
        parent, digits, energy, remaining = (a[keep] for a in (parent, child, child_energy, rest))
        levels.append((digits.astype(np.int8), parent))
    rows = np.empty((energy.size, n), dtype=np.int8)
    node = np.arange(energy.size)
    for i in range(n - 1, -1, -1):
        column, parent = levels[i]
        rows[:, i] = column[node]
        node = parent[node]
    return rows, energy


def ground_descriptor(J, L, M) -> GroundDescriptor:
    J = as_half(J)
    M = as_half(M)
    L = int(L)
    n, total = _sector_shape(J, L, M)
    if total is None:
        raise ValueError(f"magnetization {M} unreachable for J={J}, L={L}")
    tj, tm_goal = J.twice, M.twice
    r = tm_goal % (2 * tj)
    tm = r if r <= tj else r - 2 * tj         # canonical local value in (-J, J]
    x = (tm - tm_goal) // (2 * tj)
    coincident = (tm_goal - tj) % (2 * tj) == 0
    if x == L + 1:
        # bottom sector: all sites at -J
        return GroundDescriptor(L, HalfInt(-tj), coincident)
    if not -L <= x <= L:
        raise AssertionError("wall position escaped the chain")
    return GroundDescriptor(x, HalfInt(tm), coincident)


def _wall_row(J, L: int, x: int, m) -> np.ndarray:
    """Digit row d = J - m of the wall (x, m): 2J left of x, J - m at x, 0 right of x."""
    row = np.zeros(2 * L + 1, dtype=np.int8)
    row[:x + L] = J.twice
    row[x + L] = (J - m).as_integer()
    return row


def ground_config(J, L, M) -> np.ndarray:
    """The unique zero-energy configuration of the sector, as an int8 digit row."""
    J = as_half(J)
    L = int(L)
    desc = ground_descriptor(J, L, M)
    return _wall_row(J, L, desc.x, desc.m)


def excitation_energy(J, m, n: int, sign: int) -> int:
    """n^2 + (J + sign*m) n, exact integer."""
    J = as_half(J)
    m = as_half(m)
    n = int(n)
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    step = (J + m) if sign > 0 else (J - m)
    return n * n + step.as_integer() * n


class ExcitationSets(NamedTuple):
    plus: list   # (n, energy) with units moved rightward
    minus: list  # (n, energy) with units moved leftward


def excitation_sets(J, m) -> ExcitationSets:
    """All (n, energy) pairs with energy strictly below the band edge 2J."""
    J = as_half(J)
    m = as_half(m)
    if abs(m.twice) > J.twice or (J.twice - m.twice) % 2 != 0:
        raise ValueError(f"m={m} is not on the spin-{J} ladder")
    band = J.twice  # 2J as an exact integer
    out = {+1: [], -1: []}
    for sign, n_max in ((+1, (J - m).as_integer()), (-1, (J + m).as_integer())):
        for n in range(1, n_max + 1):
            e = excitation_energy(J, m, n, sign)
            if e >= band:
                break  # energies increase with n
            out[sign].append((n, e))
    return ExcitationSets(out[+1], out[-1])


def excitation_config(J, L, x: int, m, n: int, sign: int) -> np.ndarray:
    """Digit row obtained from the wall (x, m) by moving n units across it:
    rightward (sign +1) digits x, x+1 change by -n, +n; leftward (sign -1)
    digits x-1, x do."""
    J = as_half(J)
    m = as_half(m)
    L = int(L)
    n = int(n)
    if not -L + 1 <= x <= L - 1:
        raise ValueError(f"wall position x={x} must be interior to [-{L}, {L}]")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 1 <= n <= ((J - m) if sign > 0 else (J + m)).as_integer():
        raise ValueError(f"need 1 <= n <= J {'-' if sign > 0 else '+'} m, got n={n}")
    row = _wall_row(J, L, x, m)
    a = x + L if sign > 0 else x + L - 1
    row[a] -= n
    row[a + 1] += n
    return row


@dataclass(frozen=True, eq=False)  # an array field: field-wise == and hash would fail
class KinkExcitation:
    sign: int
    n: int
    energy: int
    config: np.ndarray  # int8 digit row


def localized_excitations(J, L, M) -> list:
    """All below-band excitations of a bulk sector, each with its digit row."""
    J = as_half(J)
    L = int(L)
    desc = ground_descriptor(J, L, M)
    if not -L + 1 <= desc.x <= L - 1:
        raise EdgeSectorError(
            f"sector M={as_half(M)} has its wall at x={desc.x}; no closed-form list"
        )
    sets = excitation_sets(J, desc.m)
    out = []
    for sign, pairs in ((+1, sets.plus), (-1, sets.minus)):
        for n, e in pairs:
            out.append(KinkExcitation(sign, n, e, excitation_config(J, L, desc.x, desc.m, n, sign)))
    return out


def predicted_low_spectrum(J, L, M) -> dict:
    """Energies below 2J with multiplicities: {0: 1} plus the energies of
    localized_excitations, collisions across the two families counting twice.

    Raises EdgeSectorError when the sector's wall touches the boundary.
    """
    out = {0: 1}
    for exc in localized_excitations(J, L, M):
        out[exc.energy] = out.get(exc.energy, 0) + 1
    return out


def isolation_distance(J, L, M, energies, least: np.ndarray) -> list:
    """Distance from each eigenvalue in ``energies`` to the nearest other
    distinct sector level, one int per energy, given the chain's ``least``.

    Reads the sector's levels up to 2 max(E) by ``low_energy_rows``.  0 is
    always a level, so the nearest other level to E lies within E of it; for
    E = 0 alone the cap doubles until it reaches a positive level or every
    level.  All sector levels are integers, so the distances are too.
    """
    energies = [int(e) for e in energies]
    if not energies:
        return []
    cap = max(2 * max(energies), 1)
    highest = 2 * int(L) * as_half(J).twice ** 2  # E(c) <= (n - 1) (2J)^2
    while True:
        # the levels are non-negative integers: the nonzero bins, in ascending order
        values = np.flatnonzero(np.bincount(low_energy_rows(J, L, M, cap, least)[1]))
        if values.size > 1 or cap >= highest:
            break
        cap *= 2
    for E in energies:
        if E not in values:
            raise ValueError(f"E={E} is not an eigenvalue of the sector")
    if values.size == 1:
        raise ValueError("sector has a single distinct level; no isolation distance")
    return [int(np.abs(values[values != E] - E).min()) for E in energies]


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
    J = as_half(J)
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


def band_edge_multiplicity_lower_bound(J, L, M) -> int:
    """Constructive lower bound on the multiplicity of the level 2J.

    Counts the explicit energy-2J configurations obtained by planting one
    raised unit strictly left of the wall or one lowered unit strictly right
    of it.  Coincident sectors use the label (x, J) for the left insertions
    and the label (x-1, -J) for the right ones, which yields 2L-1 interior
    counts instead of 2L-2; labels that fall off the chain contribute nothing.
    """
    J = as_half(J)
    L = int(L)
    desc = ground_descriptor(J, L, M)
    if desc.coincident:
        if desc.m == J:
            x_left, x_right = desc.x, desc.x - 1
        else:  # bottom sector, label (L, -J); the (L+1, J) partner is off-chain
            x_left, x_right = desc.x + 1, desc.x
        left = max(0, x_left - 1 + L) if x_left <= L else 0
        right = max(0, L - x_right - 1) if x_right >= -L else 0
    else:
        # -J < m < J strictly, so both insertion families are admissible
        left = max(0, desc.x - 1 + L)
        right = max(0, L - desc.x - 1)
    return left + right
