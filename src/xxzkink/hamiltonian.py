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
product formed in exact integers and square-rooted once.  The table is
also the storage: an operator is its diagonal vector plus a hop scale
(delta_inv, 1 or 0) over the sector's unscaled h1 CSR, which is built once
per sector from one hop direction (the strict lower triangle, int32 ranks)
and shared by every operator of the sector.  So kink = ising_kink +
delta_inv * h1 + (1 - s) * h2 holds entrywise, as does ising_free =
ising_kink + h2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .basis import SectorBasis
from .halfint import as_half

VARIANTS = ("kink", "antikink", "ising_kink", "ising_free", "h1", "h2")


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
    """COO triplets of the pure hopping term (the h1 variant): one hop
    direction only, the strict lower triangle (cols < rows) with int32 ranks;
    ``hopping_matrix`` turns them into the h1 CSR."""

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
    running int32 prefix; ranks are int32, as MAX_STATES < 2**31.
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
    # every bond has the same number of moves, so the triplets are filled in place
    size = basis.hops
    out = HoppingStructure(np.empty(size, np.int32), np.empty(size, np.int32), np.empty(size))
    per_bond = size // (n - 1)
    for a in range(n - 1):
        da, db = down[:, a], down[:, a + 1]
        mask = (da >= 1) & (db <= tj - 1)
        dam, dbm = da[mask], db[mask]
        ram = basis.total_down - prefix[mask]
        rbm = ram - dam
        delta = (
            cum[a, ram, dam - 1]
            - cum[a, ram, dam]
            + cum[a + 1, rbm + 1, dbm + 1]
            - cum[a + 1, rbm, dbm]
        )
        part = slice(a * per_bond, (a + 1) * per_bond)
        out.rows[part] = ranks[mask]
        out.cols[part] = out.rows[part] + delta
        out.values[part] = -0.5 * np.sqrt((rad_up[dam] * rad_down[dbm]).astype(float))
        prefix += da
    return out


def hopping_matrix(structure: HoppingStructure, dim: int) -> sparse.csr_matrix:
    """The unscaled h1 CSR (int32 indices) from ``hopping_structure``'s triplets.

    A counting sort on rows, each row's lower entries before its upper ones.
    The triplets come bond by bond with ascending rows.  The neighbor a rank
    reaches across bond a ranks below the one it reaches across a later bond,
    and the rank reaching it across bond a ranks above the one reaching it
    across a later bond.  So a run of ascending rows holds each rank at most
    once as a row and once as a column, and scattering the runs forward (lower
    entries), then backward (upper entries), leaves every row sorted.
    """
    rows, cols, vals = structure.rows, structure.cols, structure.values
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=dim) + np.bincount(cols, minlength=dim),
              out=indptr[1:])
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    fill = indptr[:-1].copy()  # next free slot of each row
    cuts = np.flatnonzero(rows[1:] <= rows[:-1]) + 1
    runs = list(zip(np.r_[0, cuts], np.r_[cuts, rows.size]))
    for key, other, order in ((rows, cols, runs), (cols, rows, runs[::-1])):
        for a, b in order:
            pos = fill[key[a:b]]
            indices[pos], data[pos] = other[a:b], vals[a:b]
            fill[key[a:b]] = pos + 1
    if not np.array_equal(fill, indptr[1:]):
        raise ValueError("triplets are not in hopping_structure's bond order")
    return sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))


def hopping_bytes(dim: int, hops: int) -> int:
    """Bytes of the h1 CSR of a sector with ``sector_counts`` (dim, hops): an
    int32 index and a float64 value per entry plus int32 row pointers."""
    return 2 * hops * (4 + 8) + 4 * (dim + 1)


def sector_bytes(dim: int, n_sites: int) -> int:
    """Bytes that building a sector's basis and its operator's diagonal take:
    the int8 digit rows plus the larger of the enumeration's int64 node
    arrays and ising_diagonal's int8 and int16 (dim, n_sites - 1) copies with
    its int64 sum.  The float diagonals and the exact sort's argsort come
    after those temporaries are freed and stay below them."""
    # ru_maxrss per state, less the n digit bytes: building the basis took
    # 44 / 47 / 65 / 60 at (2J, L) = (3, 5), (3, 6), (1, 12), (1, 20), and the
    # kink diagonal 97 / 133 at (1, 16), (1, 20); ten more sectors with 2J up
    # to 127, sorted at delta_inv = 0, stayed below this bound as well
    return dim * (n_sites + max(72, 3 * n_sites + 16))


@dataclass
class SectorOperator:
    """A variant restricted to one sector as diag + hop_scale * h1 (index =
    rank); ``h1`` is the sector's unscaled hopping CSR, shared by every
    operator of the sector (an empty CSR when none was built)."""

    diag: np.ndarray
    h1: sparse.csr_matrix
    hop_scale: float

    @property
    def dim(self) -> int:
        return self.diag.size

    @property
    def diagonal_only(self) -> bool:
        return self.hop_scale == 0.0 or self.h1.nnz == 0

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The operator as one CSR, assembled on demand for inspection (no
        solve uses it); exactly zero diagonal entries are not stored."""
        return sparse.diags(self.diag, format="csr") + self.hop_scale * self.h1

    def diagonal(self) -> np.ndarray:
        return self.diag

    def matvec(self, v: np.ndarray) -> np.ndarray:
        y = self.h1 @ v
        # y = hop_scale * y + diag * v in cache-sized blocks: no n-vector temporary
        step = 16384
        for lo in range(0, y.size, step):
            block = y[lo:lo + step]
            block *= self.hop_scale
            block += self.diag[lo:lo + step] * v[lo:lo + step]
        return y

    def to_dense(self, rows=slice(None)) -> np.ndarray:
        """The dense matrix, or its principal submatrix on the sorted ranks ``rows``."""
        dense = (self.hop_scale * self.h1[rows][:, rows]).toarray()
        np.fill_diagonal(dense, self.diag[rows])  # h1 has no diagonal entries
        return dense

    def inf_norm(self) -> float:
        """Maximum absolute row sum; used to scale residual tolerances."""
        # every hop entry is negative, so -h1 @ 1 holds h1's absolute row sums
        sums = np.abs(self.diag) - self.hop_scale * (self.h1 @ np.ones(self.dim))
        return float(sums.max())


def build_sector_operator(
    J,
    L,
    M,
    variant: str = "kink",
    delta_inv: float | None = None,
    basis: SectorBasis | None = None,
    h1: sparse.csr_matrix | None = None,
) -> SectorOperator:
    """One sector-restricted variant as diag + hop_scale * h1.

    ``delta_inv`` is required (in [0, 1]) for the kink and antikink variants
    and must be omitted for the parameter-free ones.  A prebuilt ``basis``
    and ``h1`` (``hopping_matrix``) may be passed to share them across
    variants and anisotropy values; h1 is built here only when the variant
    hops and none is given.
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

    s = None if delta_inv is None else math.sqrt(1.0 - delta_inv * delta_inv)
    # variant -> (its diagonal over the sector, its hop scale)
    terms = {
        "kink": (lambda: ising_diagonal(basis) + (1.0 - s) * boundary_diagonal(basis), delta_inv),
        "antikink": (lambda: free_diagonal(basis) + s * boundary_diagonal(basis), delta_inv),
        "ising_kink": (lambda: ising_diagonal(basis).astype(float), 0.0),
        "ising_free": (lambda: free_diagonal(basis), 0.0),
        "h1": (lambda: np.zeros(basis.dim), 1.0),
        "h2": (lambda: boundary_diagonal(basis), 0.0),
    }
    diagonal, hop_scale = terms[variant]
    if h1 is None and hop_scale == 0.0:
        h1 = sparse.csr_matrix((basis.dim, basis.dim))
    elif h1 is None:
        h1 = hopping_matrix(hopping_structure(basis), basis.dim)
    elif h1.shape != (basis.dim, basis.dim):
        raise ValueError("supplied h1 does not match the basis")
    return SectorOperator(diagonal(), h1, hop_scale)
