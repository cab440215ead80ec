"""Sector-restricted matrices of the anisotropic chain with domain-wall fields.

All variants act on one magnetization sector and are real symmetric.  With
s = sqrt(1 - delta_inv^2) and bond energies

    E(c) = sum_a (J + m_a)(J - m_{a+1})      (nonnegative integers)
    F(c) = sum_a (J^2 - m_a m_{a+1})         (exact half-integers)

the supported variants are

    kink        diag E(c) + (1 - s) J (m_L - m_{-L})   hopping x delta_inv
    antikink    diag F(c) + s J (m_L - m_{-L})         hopping x delta_inv
    ising_kink  diag E(c)                              no hopping
    ising_free  diag F(c)                              no hopping
    h1          no diagonal                            hopping x 1
    h2          diag J (m_L - m_{-L})                  no hopping

Hopping couples configurations that exchange one unit across a bond; the
entry is -(1/2) sqrt(product of the two ladder radicands), with the radicand
product formed in exact integers and square-rooted once.  Only one hop
direction is built (the strict lower triangle, int32 ranks) and assembly
adds its transpose.  The decomposition kink = ising_kink + delta_inv * h1 +
(1 - s) * h2 holds entrywise, as does ising_free = ising_kink + h2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .basis import IsingConfig, SectorBasis
from .halfint import as_half

VARIANTS = ("kink", "antikink", "ising_kink", "ising_free", "h1", "h2")


def ising_bond_energy(J, m, mp) -> int:
    """(J + m)(J - m'), the energy of one oriented bond; exact integer >= 0."""
    J = as_half(J)
    m = as_half(m)
    mp = as_half(mp)
    for v in (m, mp):
        if abs(v.twice) > J.twice or (J.twice - v.twice) % 2 != 0:
            raise ValueError(f"{v} is not on the spin-{J} ladder")
    return (J + m).as_integer() * (J - mp).as_integer()


def ising_config_energy(J, config: IsingConfig) -> int:
    """Sum of the 2L bond energies of a configuration; exact integer >= 0."""
    vals = config.values
    return sum(ising_bond_energy(J, vals[i], vals[i + 1]) for i in range(len(vals) - 1))


def ising_diagonal(basis: SectorBasis) -> np.ndarray:
    """Vector of E(c) over the sector, exact int64, indexed by rank."""
    d = basis.down
    # int8 digits: widen before the product (up to 127 * 127)
    return ((basis.two_j - d[:, :-1]).astype(np.int16) * d[:, 1:]).sum(axis=1, dtype=np.int64)


def free_diagonal(basis: SectorBasis) -> np.ndarray:
    """Vector of F(c) over the sector; exact multiples of 1/2 in float64."""
    left = basis.down[:, :-1].astype(np.int16)
    right = basis.down[:, 1:]
    return (0.5 * basis.two_j * (left + right) - left * right).sum(axis=1)


def boundary_diagonal(basis: SectorBasis) -> np.ndarray:
    """Vector of J (m_L - m_{-L}) over the sector; exact multiples of 1/2."""
    d = basis.down
    return 0.5 * basis.two_j * (d[:, 0].astype(np.int16) - d[:, -1])


@dataclass
class HoppingStructure:
    """COO triplets of the pure hopping term (the h1 variant), reusable across
    anisotropy values for one sector: one hop direction only, the strict lower
    triangle (cols < rows) with int32 ranks; assembly adds the transpose."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def hopping_structure(basis: SectorBasis) -> HoppingStructure:
    """Single-exchange couplings of a sector, one hop direction only.

    For each bond (a, a+1), every configuration with d_a >= 1 and
    d_{a+1} <= 2J - 1 has the move (d_a - 1, d_{a+1} + 1): raise m at a,
    lower it at a+1.  Site a is the more significant digit, so the neighbor
    has a lower rank and the triplets form the strict lower triangle.  The
    reverse move has a bit-identical value, as
    rad_up[d] * rad_down[d'] == rad_down[d-1] * rad_up[d'+1] in integers.

    The neighbor's rank is the row's own rank plus a correction read off the
    prefix-count table: only the site-a digit and the site-(a+1) digit and
    remaining sum change, so two table lookups per site give the rank
    difference in O(1) per row.  The remaining sum at a is total_down minus a
    running int32 prefix; ranks are int32, as the default max_states < 2**31.
    """
    dim, n = basis.down.shape
    tj = basis.two_j
    down = basis.down
    cum = basis.prefix_counts
    drange = np.arange(tj + 1, dtype=np.int64)
    rad_up = drange * (tj - drange + 1)       # raise m at a site holding d units
    rad_down = (tj - drange) * (drange + 1)   # lower m at a site holding d units
    ranks = np.arange(dim, dtype=np.int32)
    prefix = np.zeros(dim, dtype=np.int32)
    rows_parts, cols_parts, vals_parts = [], [], []
    for a in range(n - 1):
        da, db = down[:, a], down[:, a + 1]
        mask = (da >= 1) & (db <= tj - 1)
        if mask.any():
            dam, dbm = da[mask], db[mask]
            ram = basis.total_down - prefix[mask]
            rbm = ram - dam
            delta = (
                cum[a, ram, dam - 1]
                - cum[a, ram, dam]
                + cum[a + 1, rbm + 1, dbm + 1]
                - cum[a + 1, rbm, dbm]
            )
            rows = ranks[mask]
            rows_parts.append(rows)
            cols_parts.append((rows + delta).astype(np.int32))
            vals_parts.append(-0.5 * np.sqrt((rad_up[dam] * rad_down[dbm]).astype(float)))
        prefix += da
    if rows_parts:
        return HoppingStructure(
            np.concatenate(rows_parts), np.concatenate(cols_parts), np.concatenate(vals_parts)
        )
    empty = np.zeros(0, dtype=np.int32)
    return HoppingStructure(empty, empty, np.zeros(0))


@dataclass
class SectorOperator:
    """A variant restricted to one sector, stored as CSR (row index = rank)."""

    basis: SectorBasis
    variant: str
    delta_inv: float | None
    matrix: sparse.csr_matrix
    diagonal_only: bool

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def inf_norm(self) -> float:
        """Maximum absolute row sum; used to scale residual tolerances."""
        return float(abs(self.matrix).sum(axis=1).max())


def build_sector_operator(
    J,
    L,
    M,
    variant: str = "kink",
    delta_inv: float | None = None,
    basis: SectorBasis | None = None,
    structure: HoppingStructure | None = None,
) -> SectorOperator:
    """Assemble one sector-restricted variant as a real symmetric CSR matrix.

    ``delta_inv`` is required (in [0, 1]) for the kink and antikink variants
    and must be omitted for the parameter-free ones.  A prebuilt ``basis``
    and hopping ``structure`` may be passed to share work across variants and
    anisotropy values.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    J = as_half(J)
    M = as_half(M)
    if variant in ("kink", "antikink"):
        if delta_inv is None:
            raise ValueError(f"variant {variant!r} requires delta_inv")
        delta_inv = float(delta_inv)
        if not 0.0 <= delta_inv <= 1.0:
            raise ValueError(f"delta_inv must lie in [0, 1], got {delta_inv}")
    elif delta_inv is not None:
        raise ValueError(f"variant {variant!r} takes no delta_inv")

    if basis is None:
        basis = SectorBasis(J, L, M)
    elif (basis.two_j, basis.L, basis.two_m) != (J.twice, int(L), M.twice):
        raise ValueError("supplied basis does not match (J, L, M)")
    if basis.dim == 0:
        raise ValueError(f"sector M={M} is empty for J={J}, L={L}")

    hop_scale = 0.0
    if variant == "h1":
        hop_scale = 1.0
    elif variant in ("kink", "antikink"):
        hop_scale = delta_inv

    if variant == "kink":
        s = math.sqrt(1.0 - delta_inv * delta_inv)
        diag = ising_diagonal(basis) + (1.0 - s) * boundary_diagonal(basis)
    elif variant == "antikink":
        s = math.sqrt(1.0 - delta_inv * delta_inv)
        diag = free_diagonal(basis) + s * boundary_diagonal(basis)
    elif variant == "ising_kink":
        diag = ising_diagonal(basis).astype(float)
    elif variant == "ising_free":
        diag = free_diagonal(basis)
    elif variant == "h2":
        diag = boundary_diagonal(basis)
    else:  # h1
        diag = None

    dim = basis.dim
    ranks = np.arange(dim, dtype=np.int32)
    rows, cols, data = [], [], []
    if diag is not None:
        rows.append(ranks)
        cols.append(ranks)
        data.append(diag.astype(float))
    diagonal_only = True
    if hop_scale != 0.0:
        if structure is None:
            structure = hopping_structure(basis)
        # the stored triangle and its transpose share one scaled value array
        hops = hop_scale * structure.values
        rows += [structure.rows, structure.cols]
        cols += [structure.cols, structure.rows]
        data += [hops, hops]
        diagonal_only = structure.rows.size == 0

    matrix = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )
    return SectorOperator(basis, variant, delta_inv, matrix, diagonal_only)
