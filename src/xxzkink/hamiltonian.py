"""Sector-restricted matrices of the anisotropic chain with domain-wall fields.

Two chains act on one magnetization sector, both real symmetric: the kink
chain and its antikink mirror.  Each is summed from three blocks, the bond
energies, the boundary term and the unscaled hopping:

    E(c) = sum_a (J + m_a)(J - m_{a+1})      (nonnegative integers)
    B(c) = J (m_L - m_{-L})                  (multiples of 1/2)
    h1

With s = sqrt(1 - delta_inv^2),

    kink     = E + (1 - s) B + delta_inv h1
    antikink = E + (1 + s) B + delta_inv h1

F = E + B = sum_a (J^2 - m_a m_{a+1}) is the Ising diagonal with free ends,
as sum_a J (m_{a+1} - m_a) telescopes to B; at delta_inv = 1 both chains are
F + h1.

Hopping couples configurations that exchange one unit across a bond; the
entry is -(1/2) sqrt(product of the two ladder radicands), with the radicand
product formed in exact integers and square-rooted once.

Every sector is indexed and built from the tables of its two half-chains,
sites -L..-1 and 0..L, each enumerated per digit sum (``HalfChains``; Lin's
two-table indexing: H. Q. Lin, Phys. Rev. B 42 (1990) 6561; A. Weisse and
H. Fehske, Lect. Notes Phys. 739 (2008) 529).  The index is sum-major: by
the left digit sum, then the left row, then the right one; ``order`` maps it
to the rank.  A table depends only on (2J, half length, digit sum), so a
sweep builds each one once for all of its sectors.  An operator is its
diagonal E + b B (``HalfChains.diagonal``) plus the hop scale delta_inv over
the sector's unscaled h1, which every operator of the sector shares.  The
sector's size alone (HALF_CHAIN_MIN_DIM) picks the product kernel:

- a smaller sector multiplies by one symmetric CSR of h1, assembled from
  ``HalfChains.hop_pairs`` on its first product;
- a larger one stores no h1 and applies it block by block from the half
  tables (``HalfChains.apply``).

``ising_diagonal`` and ``hopping_structure`` give E and one hop direction of
h1 in rank order over a ``SectorBasis``: the reference the half tables are
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .basis import (_check_dimension, _clip, _count_table, _enumerate_down, _hop_count,
                    _sector_shape, prefix_counts, rank_terms)
from .halfint import as_half

if TYPE_CHECKING:  # scipy is imported where a CSR is built, so ising-check never loads it
    from scipy import sparse

    from .basis import SectorBasis


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


@dataclass
class HoppingStructure:
    """COO triplets of the unscaled hopping h1: one hop direction only, the
    strict lower triangle (cols < rows) with int32 ranks."""

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
    R + 1, so the rank (``rank_terms``) moves by ways[a+2, R+1] -
    ways[a+1, R+1], two lookups per row.  R is total_down minus a running
    int32 prefix; ranks are int32, as MAX_STATES < 2**31.
    """
    return _hops(basis.two_j, basis.down, basis.ways, basis.total_down, basis.hops)


def _hops(tj: int, down: np.ndarray, ways: np.ndarray, total: int, size: int) -> HoppingStructure:
    """``hopping_structure`` of the chains with digit rows ``down`` (their
    digit sum total, their counting table ways, size moves)."""
    dim, n = down.shape
    drange = np.arange(tj + 1, dtype=np.int64)
    rad_up = drange * (tj - drange + 1)       # raise m at a site holding d units
    rad_down = (tj - drange) * (drange + 1)   # lower m at a site holding d units
    ranks = np.arange(dim, dtype=np.int32)
    prefix = np.zeros(dim, dtype=np.int32)
    # every bond has the same number of moves, so the triplets are filled in place
    out = HoppingStructure(np.empty(size, np.int32), np.empty(size, np.int32), np.empty(size))
    per_bond = size // max(n - 1, 1)
    for a in range(n - 1):
        da, db = down[:, a], down[:, a + 1]
        mask = (da >= 1) & (db <= tj - 1)
        prefix += da
        rest = total + 1 - prefix[mask]  # R + 1
        part = slice(a * per_bond, (a + 1) * per_bond)
        out.rows[part] = ranks[mask]
        out.cols[part] = out.rows[part] + ways[a + 2, rest] - ways[a + 1, rest]
        out.values[part] = -0.5 * np.sqrt((rad_up[da[mask]] * rad_down[db[mask]]).astype(float))
    return out


def _both_directions(i: np.ndarray, j: np.ndarray, value: np.ndarray,
                     dim: int) -> sparse.csr_matrix:
    """The symmetric CSR (int32 indices) with the entries value at (i, j)
    and at (j, i), one hop direction given."""
    from scipy import sparse

    return sparse.csr_matrix((np.concatenate([value, value]),
                              (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(dim, dim))


def hopping_bytes(dim: int, hops: int) -> int:
    """Bytes at the peak of building the symmetric CSR of h1
    (``HalfChains.csr``) of a sector with ``sector_counts`` (dim, hops): the
    CSR, an int32 index and a float64 value for each of its 2 hops entries
    plus int32 row pointers, beside the both-direction COO it is converted
    from (32 bytes a hop) and ``hop_pairs``' triplets (16), and 16 KiB for the
    small objects around them.  ``hop_pairs``' digit rows, keys and sort are
    freed before that peak."""
    return hops * (24 + 32 + 16) + 4 * (dim + 1) + 2**14


# smallest sector whose operators apply h1 block by block rather than from one
# CSR: the faster of two medians of 30 products h1 x in ms, one BLAS thread
#   dim (2J, L, 2M)          blockwise   CSR
#     2 128 (3, 3, -1)         0.15      0.01
#    27 876 (3, 4, -3)         0.37      0.22
#    50 388 (1, 9, -5)         0.34      0.33
#    93 600 (4, 4, -10)        0.87      0.70
#   100 298 (3, 5, -13)        0.84      0.80
#   134 512 (7, 3, -1)         1.94      1.26
#   145 899 (5, 4, -19)        1.29      1.13
#   171 106 (2, 6, -4)         1.36      1.51
#   220 198 (3, 5, -9)         1.81      1.94
#   411 334 (3, 5, -3)         3.36      4.01
# The blocks win from about 150 000 states at 2J <= 5, and short chains of
# large spin, whose middle bond is one of few, stay faster on the CSR.  The
# CSR costs 24 bytes per hop (12 MiB at 100 298 states, 57 MiB at 411 334),
# where the tables take under 1 MiB, so the blocks start where they are
# within 5 % of it.
HALF_CHAIN_MIN_DIM = 100_000


def blockwise(dim: int) -> bool:
    """Whether a sector of dim states applies h1 block by block rather than
    from one CSR."""
    return dim >= HALF_CHAIN_MIN_DIM


def _half_counts(two_j: int, L: int, total: int) -> tuple:
    """(left sums, left ways, right ways, dim) of a sector split into its left
    L sites and its right L + 1: the left digit sums s that leave the right
    half a reachable t = total - s, and each half's exact counting table,
    whose ways[0][u] is the number of half rows with digit sum u."""
    sums = range(max(0, total - (L + 1) * two_j), min(total, L * two_j) + 1)
    left = _count_table(two_j, L, sums[-1])[0]
    right = _count_table(two_j, L + 1, total - sums[0])[0]
    return sums, left, right, sum(left[0][s] * right[0][total - s] for s in sums)


def half_chain_bytes(J, L, M) -> int:
    """Bytes of a sector's half-chain tables (``HalfChains``): per block, two
    symmetric CSRs (an int32 index and a float64 value per entry plus int32
    row pointers), the int8 digit rows and two float64 middle-bond factors per
    row; then the two scratch blocks of a product and the int32 order map."""
    J, M = as_half(J), as_half(M)
    L = int(L)
    total = _sector_shape(J, L, M)[1]
    sums, left, right, dim = _half_counts(J.twice, L, total)
    need = largest = 0
    for s in sums:
        for ways, n, u in ((left, L, s), (right, L + 1, total - s)):
            rows = ways[0][u]
            need += 2 * 12 * _hop_count(ways, J.twice, n, u) + 4 * (rows + 1) + rows * (n + 16)
        largest = max(largest, left[0][s] * right[0][total - s])
    return need + 2 * 8 * largest + 4 * dim


def _half_chain(tj: int, n: int, u: int, ways) -> tuple:
    """The digit rows of the n-site chains with digit sum u, from their exact
    counting table ``ways`` clipped to their number of rows, and their
    symmetric hopping CSR.  Every count these read is at most that number, so
    the table is the same whichever chain's counting table it comes from."""
    clipped = _clip(ways, ways[0][u])
    down = _enumerate_down(tj, n, u, clipped)
    moves = _hops(tj, down, clipped, u, _hop_count(ways, tj, n, u))
    return down, _both_directions(moves.rows, moves.cols, moves.values, len(down))


class HalfChains:
    """The unscaled h1 of one sector as tables of its two half-chains, and
    its product in the sector's sum-major order.

    The left half is sites -L..-1, each row's digits stored outward from
    site -1; the right half is sites 0..L, stored outward from site 0.  Each
    half is ordered like a ``SectorBasis`` of its own sites in that order,
    so per digit sum u its rows are ascending lexicographic and its hopping
    is the hopping of that chain: h1 is invariant under the reflection that
    turns the left half around.  The sector is ordered by the left digit sum
    s, then by the left row, then by the right one, so a vector is a stack of
    row-major blocks X_s of shape n_L(s) x n_R(t), t = total_down - s, and

        (h1 x)_s = h_L(s) X_s + X_s h_R(t) + the middle bond (-1, 0).

    The middle bond moves a unit from site -1 to site 0, which maps block s
    into block s - 1.  Both halves run outward from it, so the left rows of
    block s with d_{-1} >= 1 are a tail [r:], their images the head [:R] of
    block s - 1, the right rows with d_0 <= 2J - 1 a head [:c] and their
    images a tail [C:].  The entry -(1/2) sqrt(rad_up(d_{-1}) rad_down(d_0))
    is a row factor times a column factor, so each direction of the bond
    between two blocks is one scaled sub-block update.

    Attributes: ``offsets`` (block starts, dim last), ``left`` and ``right``
    (int8 digit rows per block), ``left_hop`` and ``right_hop`` (symmetric
    CSRs per block), ``middle`` (per block s > 0: r, c and the factors over
    the tail and the head), ``largest`` (the largest block's size) and
    ``hops``, the moves of one hop direction.  ``tables`` maps (half length,
    digit sum) to a half's rows and CSR; a dict shared by several sectors of
    one chain builds each of them once.
    """

    def __init__(self, J, L, M, tables: dict | None = None):
        J, M = as_half(J), as_half(M)
        self.L = L = int(L)
        self.two_j = tj = J.twice
        self.two_m = M.twice
        self.n_sites, self.total_down = _sector_shape(J, L, M)
        total = self.total_down
        if total is None:
            raise ValueError(f"two_m={M.twice} labels an unreachable sector")
        sums, left, right, self.dim = _half_counts(tj, L, total)
        _check_dimension(self.dim, M.twice)
        drange = np.arange(tj + 1, dtype=np.int64)
        rad_up = (drange * (tj - drange + 1)).astype(float)
        rad_down = ((tj - drange) * (drange + 1)).astype(float)
        tables = {} if tables is None else tables

        def half(n, u, ways):
            if (n, u) not in tables:
                tables[n, u] = _half_chain(tj, n, u, ways)
            return tables[n, u]

        self.left, self.left_hop = zip(*(half(L, s, left) for s in sums))
        self.right, self.right_hop = zip(*(half(L + 1, total - s, right) for s in sums))
        sizes = [len(a) * len(b) for a, b in zip(self.left, self.right)]
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.largest = max(sizes)
        self.middle = [None]
        for k in range(1, len(sums)):
            r = int(np.searchsorted(self.left[k][:, 0], 1))
            c = int(np.searchsorted(self.right[k][:, 0], tj))
            a = -0.5 * np.sqrt(rad_up[self.left[k][r:, 0]])
            self.middle.append((r, c, a, np.sqrt(rad_down[self.right[k][:c, 0]])))
        # the moves inside each half, times the other half's rows, then the middle bond's
        self.hops = sum(hl.nnz // 2 * len(b) + hr.nnz // 2 * len(a) for a, b, hl, hr
                        in zip(self.left, self.right, self.left_hop, self.right_hop))
        self.hops += sum(len(a) * c for _, c, a, _ in self.middle[1:])

    def _blocks(self, x: np.ndarray) -> list:
        """x as its row-major blocks X_s (views)."""
        return [x[lo:hi].reshape(len(a), len(b))
                for lo, hi, a, b in zip(self.offsets, self.offsets[1:], self.left, self.right)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """h1 @ x in sum-major order, written block by block into one vector."""
        from scipy.sparse._sparsetools import csr_matvecs  # Y += A X, X and Y row-major

        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != (self.dim,):  # csr_matvecs reads and writes through raw pointers
            raise ValueError(f"expected a vector of {self.dim} entries, got shape {x.shape}")
        y = np.empty_like(x)
        scratch = np.empty(2 * self.largest)
        xs, ys = self._blocks(x), self._blocks(y)
        for X, Y, hl, hr in zip(xs, ys, self.left_hop, self.right_hop):
            nl, nr = X.shape
            # X h_R = (h_R X^T)^T, as h_R is symmetric, through two transposed copies
            xt = scratch[:X.size].reshape(nr, nl)
            yt = scratch[X.size:2 * X.size].reshape(nr, nl)
            np.copyto(xt, X.T)
            yt.fill(0.0)
            csr_matvecs(nr, nr, nl, hr.indptr, hr.indices, hr.data, xt.ravel(), yt.ravel())
            np.copyto(Y, yt.T)
            csr_matvecs(nl, nl, nr, hl.indptr, hl.indices, hl.data, X.ravel(), Y.ravel())
        for k in range(1, len(xs)):
            r, c, a, b = self.middle[k]
            rows = len(a)
            if rows == 0 or c == 0:
                continue
            C = ys[k - 1].shape[1] - c
            # the bond's entries, then each direction scaled by them and added
            entries = scratch[:rows * c].reshape(rows, c)
            tmp = scratch[rows * c:2 * rows * c].reshape(rows, c)
            np.multiply(a[:, None], b, out=entries)
            np.multiply(entries, xs[k][r:, :c], out=tmp)
            ys[k - 1][:rows, C:] += tmp
            np.multiply(entries, xs[k - 1][:rows, C:], out=tmp)
            ys[k][r:, :c] += tmp
        return y

    def diagonal(self, b: float) -> np.ndarray:
        """E + b B in sum-major order: E in exact integers, B in exact
        multiples of 1/2, so each entry is rounded only in b B and the sum."""
        tj = self.two_j
        out = np.empty(self.dim)
        for lo, hi, left, right in zip(self.offsets, self.offsets[1:], self.left, self.right):
            dl, dr = left.astype(np.int64), right.astype(np.int64)
            # bonds inside each half (the left one stored outward), then (-1, 0)
            el = ((tj - dl[:, 1:]) * dl[:, :-1]).sum(axis=1)
            er = ((tj - dr[:, :-1]) * dr[:, 1:]).sum(axis=1)
            energy = el[:, None] + er[None, :] + (tj - dl[:, :1]) * dr[None, :, 0]
            edge = 0.5 * tj * (dl[:, -1:] - dr[None, :, -1])  # J (d_{-L} - d_L)
            out[lo:hi] = (energy + b * edge).ravel()
        return out

    @cached_property
    def order(self) -> np.ndarray:
        """int32 map from the sum-major index to the rank (``SectorBasis``
        order): a rank is a sum of per-site terms (``rank_terms``), the left
        sites' and the right sites', so each block is one broadcast add."""
        n, total = self.n_sites, self.total_down
        table = prefix_counts(_clip(_count_table(self.two_j, n, total)[0], self.dim))
        out = np.empty(self.dim, dtype=np.int32)
        for lo, hi, left, right in zip(self.offsets, self.offsets[1:], self.left, self.right):
            ahead = rank_terms(table, left[:, ::-1], rest=int(right[0].sum()))
            behind = rank_terms(table, right, first=self.L)
            out[lo:hi] = (ahead[:, None] + behind[None, :]).ravel()
        return out

    def digit_rows(self, index: np.ndarray) -> np.ndarray:
        """Digit rows (site -L first, as ``SectorBasis.down``) of sum-major indices."""
        index = np.asarray(index, dtype=np.int64)
        block = np.searchsorted(self.offsets, index, side="right") - 1
        rows = np.empty((index.size, self.n_sites), dtype=np.int8)
        for k in np.unique(block):
            sel = np.flatnonzero(block == k)
            left, right = np.divmod(index[sel] - self.offsets[k], len(self.right[k]))
            rows[sel, :self.L] = self.left[k][left, ::-1]
            rows[sel, self.L:] = self.right[k][right]
        return rows

    def hop_pairs(self, index: np.ndarray) -> tuple:
        """(i, j, value) for every h1 entry between index[i] and index[j],
        one per pair: each bond's move as in ``hopping_structure``, with the
        same value, found among the digit rows by their bytes as keys."""
        rows = self.digit_rows(index)
        n, tj = self.n_sites, self.two_j

        def keys(digits):
            return np.ascontiguousarray(digits).view(np.dtype((np.void, n))).ravel()

        sort = np.argsort(keys(rows))
        known = keys(rows)[sort]
        drange = np.arange(tj + 1, dtype=np.int64)
        rad_up, rad_down = drange * (tj - drange + 1), (tj - drange) * (drange + 1)
        found = []
        for a in range(n - 1):
            src = np.flatnonzero((rows[:, a] >= 1) & (rows[:, a + 1] <= tj - 1))
            moved = rows[src]
            moved[:, a] -= 1
            moved[:, a + 1] += 1
            wanted = keys(moved)
            at = np.minimum(np.searchsorted(known, wanted), known.size - 1)
            hit = known[at] == wanted
            src, dst = src[hit].astype(np.int32), sort[at[hit]].astype(np.int32)
            value = -0.5 * np.sqrt((rad_up[rows[src, a]] * rad_down[rows[src, a + 1]]).astype(float))
            found.append((src, dst, value))
        return tuple(np.concatenate(part) for part in zip(*found))

    @cached_property
    def csr(self) -> sparse.csr_matrix:
        """h1 as one symmetric CSR in sum-major order, from ``hop_pairs``
        (hopping_bytes prices it)."""
        return _both_directions(*self.hop_pairs(np.arange(self.dim)), self.dim)


def sector_bytes(dim: int, n_sites: int) -> int:
    """Bytes that a sector's digit rows and diagonal take, priced as a
    ``SectorBasis`` (the int8 digit rows plus the enumeration's int32 node
    arrays), which ``profile`` builds for the zero mode.  The half tables,
    the diagonal with its per-block temporaries and the exact sort stay below
    it: their tracemalloc peak at delta_inv = 0, k = 6 was 0.13 to 0.63 of it
    at (2J, L, 2M) = (3, 5, -3), (1, 12, 5), (1, 16, 19), (7, 3, -1) and
    (3, 6, 1), 134 512 to 6 506 786 states."""
    # ru_maxrss per state, less the n digit bytes: building the basis took
    # 30 / 29 / 40 / 41 / 47 at (2J, L, 2M) = (3, 5, 1), (3, 6, 1), (1, 12, 5),
    # (1, 16, 19), (1, 20, 29), and 23 to 27 at four sectors with 2J = 7 to
    # 127; the kink diagonal added nothing to those peaks.  The bound is looser
    # than that, and it is kept so that the same sectors stay admitted.
    return dim * (n_sites + max(72, 3 * n_sites + 16))


@dataclass
class SectorOperator:
    """A chain restricted to one sector as diag + hop_scale * h1, indexed in
    the sum-major order of its ``halves`` (``HalfChains``), which hold h1 and
    are shared by every operator of the sector; ``order`` maps the index to
    the rank.  Below HALF_CHAIN_MIN_DIM states h1 is applied from one
    symmetric CSR (``HalfChains.csr``), else block by block."""

    diag: np.ndarray
    halves: HalfChains
    hop_scale: float

    @property
    def dim(self) -> int:
        return self.diag.size

    @property
    def order(self) -> np.ndarray:
        """The rank of each index."""
        return self.halves.order

    @property
    def diagonal_only(self) -> bool:
        return self.hop_scale == 0.0 or self.halves.hops == 0

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The operator as one CSR, assembled on demand for inspection (no
        solve uses it, and its h1 is not kept); exactly zero entries are not
        stored."""
        from scipy import sparse

        h1 = _both_directions(*self.halves.hop_pairs(np.arange(self.dim)), self.dim)
        return sparse.diags(self.diag, format="csr") + self.hop_scale * h1

    def _hop(self, v: np.ndarray) -> np.ndarray:
        """h1 @ v."""
        if blockwise(self.dim):
            return self.halves.apply(v)
        return self.halves.csr @ v

    def matvec(self, v: np.ndarray) -> np.ndarray:
        y = self._hop(v)
        # y = hop_scale * y + diag * v in cache-sized blocks
        step = 16384
        for lo in range(0, y.size, step):
            block = y[lo:lo + step]
            block *= self.hop_scale
            block += self.diag[lo:lo + step] * v[lo:lo + step]
        return y

    def to_dense(self, rows=slice(None)) -> np.ndarray:
        """The dense matrix, or its principal submatrix on the sorted indices ``rows``."""
        index = np.arange(self.dim)[rows]
        i, j, value = self.halves.hop_pairs(index)
        dense = np.zeros((index.size, index.size))
        dense[i, j] = dense[j, i] = self.hop_scale * value
        np.fill_diagonal(dense, self.diag[rows])  # h1 has no diagonal entries
        return dense

    def inf_norm(self) -> float:
        """Maximum absolute row sum; used to scale residual tolerances."""
        # every hop entry is negative, so -h1 @ 1 holds h1's absolute row sums
        sums = np.abs(self.diag) - self.hop_scale * self._hop(np.ones(self.dim))
        return float(sums.max())


def build_sector_operator(J, L, M, variant: str, delta_inv: float,
                          halves: HalfChains | None = None) -> SectorOperator:
    """The kink or antikink chain of one sector as diag + delta_inv * h1.

    ``variant`` is "kink" (diagonal E + (1 - s) B) or "antikink"
    (E + (1 + s) B), with s = sqrt(1 - delta_inv^2) and delta_inv in [0, 1].
    Prebuilt ``halves`` (``HalfChains``) may be passed to share them, and the
    h1 they hold, across chains and anisotropy values; else they are built.
    """
    if variant not in ("kink", "antikink"):
        raise ValueError(f"unknown variant {variant!r}; expected 'kink' or 'antikink'")
    J = as_half(J)
    M = as_half(M)
    delta_inv = float(delta_inv)
    if not 0.0 <= delta_inv <= 1.0:
        raise ValueError(f"delta_inv must lie in [0, 1], got {delta_inv}")
    if halves is None:
        halves = HalfChains(J, L, M)
    elif (halves.two_j, halves.L, halves.two_m) != (J.twice, int(L), M.twice):
        raise ValueError("supplied half-chain tables do not match (J, L, M)")
    s = math.sqrt(1.0 - delta_inv * delta_inv)
    b = 1.0 - s if variant == "kink" else 1.0 + s
    return SectorOperator(halves.diagonal(b), halves, delta_inv)
