"""Sector-restricted matrices of the anisotropic chain with domain-wall fields.

Two chains act on one magnetization sector, both real symmetric: the kink
chain and its antikink mirror.  Each is summed from three blocks, the bond
energies, the boundary term and the unscaled hopping:

    E(c) = sum_a (J + m_a)(J - m_{a+1})      (ising_diagonal; nonnegative integers)
    B(c) = J (m_L - m_{-L})                  (boundary_diagonal; multiples of 1/2)
    h1                                       (hopping_lower; its strict lower triangle)

With s = sqrt(1 - delta_inv^2),

    kink     = E + (1 - s) B + delta_inv h1
    antikink = E + (1 + s) B + delta_inv h1

F = E + B = sum_a (J^2 - m_a m_{a+1}) is the Ising diagonal with free ends,
as sum_a J (m_{a+1} - m_a) telescopes to B; at delta_inv = 1 both chains are
F + h1.

Hopping couples configurations that exchange one unit across a bond; the
entry is -(1/2) sqrt(product of the two ladder radicands), with the radicand
product formed in exact integers and square-rooted once.  An operator is its
diagonal vector plus the hop scale delta_inv over the strict lower triangle L
of the sector's unscaled h1 (int32 ranks), a CSR that is built once per
sector from one hop direction and shared by every operator of the sector.
h1 is symmetric, so h1 = L + L^T, and every product applies it as
L x + L^T x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .basis import SectorBasis
from .halfint import as_half

if TYPE_CHECKING:  # scipy is imported where a CSR is built, so ising-check never loads it
    from scipy import sparse


def ising_diagonal(basis: SectorBasis) -> np.ndarray:
    """Vector of E(c) over the sector, exact int64, indexed by rank.

    One pass per bond over two contiguous digit columns: the bond energy
    (2J - d_a) d_{a+1} <= 127 * 127 is formed in one reused int16 vector and
    added into the int64 sum."""
    d = basis.down
    energy = np.zeros(basis.dim, dtype=np.int64)
    bond = np.empty(basis.dim, dtype=np.int16)
    for a in range(basis.n_sites - 1):
        np.subtract(basis.two_j, d[:, a], out=bond, dtype=np.int16)
        bond *= d[:, a + 1]
        energy += bond
    return energy


def boundary_diagonal(basis: SectorBasis) -> np.ndarray:
    """Vector of J (m_L - m_{-L}) over the sector; exact multiples of 1/2."""
    d = basis.down
    return 0.5 * basis.two_j * (d[:, 0].astype(np.int16) - d[:, -1])


@dataclass
class HoppingStructure:
    """COO triplets of the unscaled hopping h1: one hop direction only, the
    strict lower triangle (cols < rows) with int32 ranks; ``hopping_lower``
    turns them into that triangle's CSR."""

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
    counting table: only the digit sum from site a+1 on changes, from R to
    R + 1, so ``rank_rows`` moves by ways[a+2, R+1] - ways[a+1, R+1], two
    lookups per row.  R is total_down minus a running int32 prefix; ranks
    are int32, as MAX_STATES < 2**31.
    """
    dim, n = basis.down.shape
    tj = basis.two_j
    down = basis.down
    ways = basis.ways
    drange = np.arange(tj + 1, dtype=np.int64)
    rad_up = drange * (tj - drange + 1)       # raise m at a site holding d units
    rad_down = (tj - drange) * (drange + 1)   # lower m at a site holding d units
    ranks = np.arange(dim, dtype=np.int32)
    prefix = np.zeros(dim, dtype=np.int32)
    # every bond has the same number of moves, so the triplets are filled in place
    size = basis.hops
    out = HoppingStructure(np.empty(size, np.int32), np.empty(size, np.int32), np.empty(size))
    per_bond = size // (n - 1)
    for a in range(n - 1):
        da, db = down[:, a], down[:, a + 1]
        mask = (da >= 1) & (db <= tj - 1)
        prefix += da
        rest = basis.total_down + 1 - prefix[mask]  # R + 1
        part = slice(a * per_bond, (a + 1) * per_bond)
        out.rows[part] = ranks[mask]
        out.cols[part] = out.rows[part] + ways[a + 2, rest] - ways[a + 1, rest]
        out.values[part] = -0.5 * np.sqrt((rad_up[da[mask]] * rad_down[db[mask]]).astype(float))
    return out


def hopping_lower(structure: HoppingStructure, dim: int) -> sparse.csr_matrix:
    """The strict lower triangle of the unscaled h1 as a CSR (int32 indices),
    from ``hopping_structure``'s triplets."""
    from scipy import sparse

    return sparse.csr_matrix((structure.values, (structure.rows, structure.cols)),
                             shape=(dim, dim))


def hopping_bytes(dim: int, hops: int) -> int:
    """Bytes of the lower-triangle CSR of a sector with ``sector_counts``
    (dim, hops): an int32 index and a float64 value per hop plus int32 row
    pointers."""
    return hops * (4 + 8) + 4 * (dim + 1)


def sector_bytes(dim: int, n_sites: int) -> int:
    """Bytes that building a sector's basis and its operator's diagonal take:
    the int8 digit rows plus the enumeration's int32 node arrays.  The
    per-bond diagonals (an int64 sum and one int16 bond vector), the float
    diagonals and the exact sort's argsort come after those temporaries are
    freed and stay below them."""
    # ru_maxrss per state, less the n digit bytes: building the basis took
    # 30 / 29 / 40 / 41 / 47 at (2J, L, 2M) = (3, 5, 1), (3, 6, 1), (1, 12, 5),
    # (1, 16, 19), (1, 20, 29), and 23 to 27 at four sectors with 2J = 7 to
    # 127; the kink diagonal added nothing to those peaks.  The bound is looser
    # than that, and it is kept so that the same sectors stay admitted.
    return dim * (n_sites + max(72, 3 * n_sites + 16))


@dataclass
class SectorOperator:
    """A chain restricted to one sector as diag + hop_scale * (L + L^T)
    (index = rank); ``lower`` is the strict lower triangle L of the sector's
    unscaled hopping, shared by every operator of the sector (an empty CSR
    when none was built)."""

    diag: np.ndarray
    lower: sparse.csr_matrix
    hop_scale: float

    @cached_property
    def upper(self) -> sparse.csc_matrix:
        """L^T, a CSC view of L's own arrays, made once rather than per product."""
        return self.lower.T

    @property
    def dim(self) -> int:
        return self.diag.size

    @property
    def diagonal_only(self) -> bool:
        return self.hop_scale == 0.0 or self.lower.nnz == 0

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The operator as one CSR, assembled on demand for inspection (no
        solve uses it); exactly zero diagonal entries are not stored."""
        from scipy import sparse

        return sparse.diags(self.diag, format="csr") + self.hop_scale * (self.lower + self.upper)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        y = self.lower @ v
        y += self.upper @ v  # the one n-vector temporary
        # y = hop_scale * y + diag * v in cache-sized blocks
        step = 16384
        for lo in range(0, y.size, step):
            block = y[lo:lo + step]
            block *= self.hop_scale
            block += self.diag[lo:lo + step] * v[lo:lo + step]
        return y

    def to_dense(self, rows=slice(None)) -> np.ndarray:
        """The dense matrix, or its principal submatrix on the sorted ranks ``rows``."""
        sub = self.lower[rows][:, rows]  # the lower triangle of h1's submatrix
        dense = (self.hop_scale * (sub + sub.T)).toarray()
        np.fill_diagonal(dense, self.diag[rows])  # h1 has no diagonal entries
        return dense

    def inf_norm(self) -> float:
        """Maximum absolute row sum; used to scale residual tolerances."""
        # every hop entry is negative, so -(L + L^T) @ 1 holds h1's absolute row sums
        ones = np.ones(self.dim)
        sums = np.abs(self.diag) - self.hop_scale * (self.lower @ ones + self.upper @ ones)
        return float(sums.max())


def build_sector_operator(
    J,
    L,
    M,
    variant: str,
    delta_inv: float,
    basis: SectorBasis | None = None,
    lower: sparse.csr_matrix | None = None,
) -> SectorOperator:
    """The kink or antikink chain of one sector as diag + delta_inv * h1.

    ``variant`` is "kink" (diagonal E + (1 - s) B) or "antikink"
    (E + (1 + s) B), with s = sqrt(1 - delta_inv^2) and delta_inv in [0, 1].
    A prebuilt ``basis`` and h1 triangle ``lower`` (``hopping_lower``) may be
    passed to share them across chains and anisotropy values; the triangle is
    built here only when delta_inv > 0 and none is given.
    """
    if variant not in ("kink", "antikink"):
        raise ValueError(f"unknown variant {variant!r}; expected 'kink' or 'antikink'")
    J = as_half(J)
    M = as_half(M)
    delta_inv = float(delta_inv)
    if not 0.0 <= delta_inv <= 1.0:
        raise ValueError(f"delta_inv must lie in [0, 1], got {delta_inv}")

    if basis is None:
        basis = SectorBasis(J, L, M)
    elif (basis.two_j, basis.L, basis.two_m) != (J.twice, int(L), M.twice):
        raise ValueError("supplied basis does not match (J, L, M)")

    s = math.sqrt(1.0 - delta_inv * delta_inv)
    b = 1.0 - s if variant == "kink" else 1.0 + s
    if lower is None and delta_inv == 0.0:
        from scipy import sparse

        lower = sparse.csr_matrix((basis.dim, basis.dim))
    elif lower is None:
        lower = hopping_lower(hopping_structure(basis), basis.dim)
    elif lower.shape != (basis.dim, basis.dim):
        raise ValueError("supplied lower triangle does not match the basis")
    return SectorOperator(ising_diagonal(basis) + b * boundary_diagonal(basis), lower, delta_inv)
