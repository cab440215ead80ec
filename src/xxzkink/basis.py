"""Fixed-magnetization configuration bases: counting, enumeration, ranking.

A chain on sites alpha = -L..L carries one spin of magnitude J per site.  A
configuration assigns each site a local eigenvalue m_alpha in {-J, ..., J};
the sector with total magnetization M collects every configuration with
sum(m_alpha) = M.

Throughout the package a configuration is its row of "down units"
d_alpha = J - m_alpha, an integer in 0..2J per site, and the sector
constraint becomes

    sum(d_alpha) = D = ((2L+1) * 2J - 2M) / 2 .

The enumeration order is ascending lexicographic in (d_{-L}, ..., d_{L}):
site -L is most significant and at each site larger m (smaller d) comes
first.  Counts and ranking tables are exact; the vectorized 64-bit tables
refuse sectors whose counts do not fit.

The digits of a materialized basis are stored as int8, one byte per site,
which limits the spin to 2J <= 127; the counting and ranking tables stay
int64.  Consumers that multiply or add digits widen them first.
"""

from __future__ import annotations

import numpy as np

from .halfint import HalfInt, as_half

_I64_MAX = np.iinfo(np.int64).max
MAX_TWO_J = int(np.iinfo(np.int8).max)  # digits 0..2J are stored as int8
# default cap on a sector's dimension, and on the steps of its counting table
MAX_STATES = 50_000_000


def _sector_shape(J, L, M):
    """(n_sites, total_down) of a sector; total_down is None when unreachable.
    The one check of spin and length, made before anything is built."""
    J = as_half(J)
    M = as_half(M)
    L = int(L)
    if J.twice < 1:
        raise ValueError("spin magnitude must be at least 1/2")
    if J.twice > MAX_TWO_J:
        raise ValueError(f"spin J={J} exceeds the int8 digit limit 2J <= {MAX_TWO_J}")
    if L < 1:
        raise ValueError("need L >= 1")
    n = 2 * L + 1
    doubled = n * J.twice - M.twice
    if doubled % 2 != 0 or doubled < 0 or doubled > 2 * n * J.twice:
        return n, None
    return n, doubled // 2


def _check_table(two_j: int, n: int, total: int) -> None:
    """Refuse a counting table of more than MAX_STATES steps: n * total * 2J
    additions of ints of up to n * log2(2J + 1) bits, a step per 64-bit word."""
    words = 1 + n * two_j.bit_length() // 64
    if n * (total + 1) * (two_j + 1) * words > MAX_STATES:
        raise ValueError(f"the counting table of {n} sites with 2J={two_j} and {total} down "
                         f"units needs more than {MAX_STATES} steps")


def _count_table(two_j: int, n: int, total: int) -> tuple:
    """(ways, dim, hops), refused by _check_table before anything is allocated.
    ways[i][r] is the number of length-(n-i) digit tails with sum r, exact
    ints; dim = ways[0][total]; hops counts one hop direction (h1's strict
    lower triangle): on each bond, the configurations with d_a >= 1 and
    d_{a+1} <= 2J - 1, by inclusion-exclusion on the two pinned digits."""
    _check_table(two_j, n, total)
    ways = [[0] * (total + 1) for _ in range(n + 1)]
    ways[n][0] = 1
    for i in range(n - 1, -1, -1):
        nxt = ways[i + 1]
        row = ways[i]
        for r in range(total + 1):
            row[r] = sum(nxt[r - d] for d in range(min(two_j, r) + 1))
    rest = total - two_j  # digit sum left once d_{a+1} = 2J
    pinned = ways[1][rest] - ways[2][rest] if rest >= 0 else 0
    return ways, ways[0][total], (n - 1) * (ways[0][total] - ways[1][total] - pinned)


def sector_counts(J, L, M) -> tuple:
    """Exact (dimension, hop count) of a sector, (0, 0) if unreachable."""
    n, total = _sector_shape(J, L, M)
    return (0, 0) if total is None else _count_table(as_half(J).twice, n, total)[1:]


def sector_dimension(J, L, M) -> int:
    """Exact number of configurations with total magnetization M (0 if unreachable)."""
    return sector_counts(J, L, M)[0]


def _check_dimension(dim: int, two_m: int) -> None:
    """The one limit on a sector's size; dim, maybe hundreds of digits, is not printed."""
    if dim > MAX_STATES:
        raise ValueError(f"sector two_m={two_m} has more than the limit of {MAX_STATES} states")


def _cumulative_counts(ways64: np.ndarray, two_j: int) -> np.ndarray:
    """C[i, r, e] = number of digit choices d < e at site i given remaining sum r.

    Equals sum_{d<e} ways[i+1][r-d]; the rank of a configuration is the sum of
    C[i, R_i, d_i] over sites, where R_i is the digit sum from site i onward.
    """
    n = ways64.shape[0] - 1
    width = ways64.shape[1]
    cum = np.zeros((n, width, two_j + 2), dtype=np.int64)
    for i in range(n):
        nxt = ways64[i + 1]
        for e in range(1, two_j + 2):
            d = e - 1
            shifted = np.zeros(width, dtype=np.int64)
            if d < width:
                shifted[d:] = nxt[: width - d]
            cum[i, :, e] = cum[i, :, e - 1] + shifted
    return cum


def _enumerate_down(two_j: int, n: int, total: int, ways64: np.ndarray) -> np.ndarray:
    """All digit rows of the sector in ascending lexicographic order, as int8.

    Fills the output column by column.  A node of the enumeration tree at
    site i (a prefix of i digits) with remaining sum r heads ways[i][r]
    consecutive rows, so column i is every child digit repeated by the
    completion count ways[i+1][r - d] of its subtree.  Only the per-node
    arrays are int64, and the last digit is forced (it equals the remainder).
    """
    dim = int(ways64[0, total])
    down = np.empty((dim, n), dtype=np.int8)
    remaining = np.array([total], dtype=np.int64)
    for i in range(n - 1):
        rest = (n - i - 1) * two_j
        lo = np.maximum(remaining - rest, 0)
        counts = np.minimum(remaining, two_j) - lo + 1
        # child digits lo..hi of each node, in node order
        starts = np.cumsum(counts) - counts
        digits = np.repeat(lo - starts, counts) + np.arange(counts.sum())
        remaining = np.repeat(remaining, counts) - digits
        column = np.repeat(digits.astype(np.int8), ways64[i + 1, remaining])
        if column.size != dim:
            raise AssertionError("enumeration does not match the counting table")
        down[:, i] = column
    down[:, n - 1] = remaining
    return down


class SectorBasis:
    """Ordered basis of one magnetization sector: its digit rows and the
    table that ranks them.

    Attributes
    ----------
    down : (dim, n_sites) C-ordered int8 array
        Down-unit digits of every configuration, row index = rank,
        rows in enumeration order, so ``down[i]`` is the row of rank i.
        Spins above 2J = 127 are refused with ValueError; the ranking
        table stays int64.
    prefix_counts : the C[i, r, e] ranking table (see _cumulative_counts),
        read by ``rank_rows``
    """

    def __init__(self, J, L, M):
        self.L = int(L)
        self.two_j = as_half(J).twice
        self.two_m = as_half(M).twice
        self.n_sites, self.total_down = _sector_shape(J, L, M)
        if self.total_down is None:
            self.dim = self.hops = 0
            self.down = np.zeros((0, self.n_sites), dtype=np.int8)
            self.prefix_counts = None
            return
        ways, self.dim, self.hops = _count_table(self.two_j, self.n_sites, self.total_down)
        _check_dimension(self.dim, self.two_m)
        if any(c > _I64_MAX for row in ways for c in row):
            raise OverflowError("sector counting tables exceed 64-bit range")
        ways64 = np.array(ways, dtype=np.int64)
        self.prefix_counts = _cumulative_counts(ways64, self.two_j)
        self.down = _enumerate_down(self.two_j, self.n_sites, self.total_down, ways64)

    def rank_rows(self, rows: np.ndarray) -> np.ndarray:
        """Ranks of digit rows (shape (N, n_sites)); rows must belong to the sector."""
        rows = np.asarray(rows, dtype=np.int64)
        suffix = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
        sites = np.arange(self.n_sites)[None, :]
        return self.prefix_counts[sites, suffix, rows].sum(axis=1)


def reachable_sectors(J, L) -> list:
    """All doubled magnetizations with a nonempty sector, ascending; refused
    before the list is built when the central (largest) sector is."""
    J = as_half(J)
    top = (2 * int(L) + 1) * J.twice
    n, total = _sector_shape(J, L, HalfInt(top % 2))
    _check_table(J.twice, n, total)
    return list(range(-top, top + 1, 2))
