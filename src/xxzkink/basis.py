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
first.  Counts are exact Python ints.  A materialized basis keeps one
table: those counts clipped to dim, and their prefix sums over the
remaining digit sum.  Enumeration and hopping read only entries that a
row of the sector reaches, each at most dim, and ranking reads differences
of prefix sums that span only such entries, so the clipping loses nothing
and every sector fits.

The digits of a materialized basis are stored as int8, one byte per site,
which limits the spin to 2J <= 127.  The digit array is site-major
(Fortran order): each site's column is contiguous, so the per-bond kernels
read two columns in one pass.
Consumers that multiply or add digits widen them first.
"""

from __future__ import annotations

import numpy as np

from .halfint import HalfInt, as_half

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
    additions of ints of up to n * log2(2J + 1) bits, a step per 64-bit word
    (the window sum of _count_table makes two additions a cell, so this is an
    upper bound)."""
    words = 1 + n * two_j.bit_length() // 64
    if n * (total + 1) * (two_j + 1) * words > MAX_STATES:
        raise ValueError(f"the counting table of {n} sites with 2J={two_j} and {total} down "
                         f"units needs more than {MAX_STATES} steps")


def _count_table(two_j: int, n: int, total: int) -> tuple:
    """(ways, dim, hops), refused by _check_table before anything is allocated.
    ways[i][r] is the number of length-(n-i) digit tails with sum r, exact
    ints; dim = ways[0][total]; hops counts one hop direction (h1's strict
    lower triangle, ``_hop_count``)."""
    _check_table(two_j, n, total)
    ways = [[0] * (total + 1) for _ in range(n + 1)]
    ways[n][0] = 1
    for i in range(n - 1, -1, -1):
        nxt = ways[i + 1]
        row = ways[i]
        window = 0  # nxt[r - 2J] + ... + nxt[r], slid along r
        for r in range(total + 1):
            window += nxt[r]
            if r > two_j:
                window -= nxt[r - two_j - 1]
            row[r] = window
    return ways, ways[0][total], _hop_count(ways, two_j, n, total)


def _hop_count(ways, two_j: int, n: int, total: int) -> int:
    """Moves of one hop direction in the n-site chains with digit sum total,
    from their counting table ``ways`` (whose columns reach total): on each
    bond, the rows with d_a >= 1 and d_{a+1} <= 2J - 1, by inclusion-exclusion
    on the two pinned digits."""
    if n < 2:
        return 0
    rest = total - two_j  # digit sum left once d_{a+1} = 2J
    pinned = ways[1][rest] - ways[2][rest] if rest >= 0 else 0
    return (n - 1) * (ways[0][total] - ways[1][total] - pinned)


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


def _enumerate_down(two_j: int, n: int, total: int, ways: np.ndarray) -> np.ndarray:
    """All digit rows of the sector in ascending lexicographic order, as
    site-major int8.

    Fills the output column by column, each a contiguous run of dim bytes.
    A node of the enumeration tree at site i (a prefix of i digits) with
    remaining sum r heads ways[i][r] consecutive rows, so column i is every
    child digit repeated by the completion count ways[i+1][r - d] of its
    subtree.  The per-node arrays are int32, as is the clipped table: a
    reachable count is at most dim <= MAX_STATES < 2**31.  The last digit is
    forced (it equals the remainder).
    """
    dim = int(ways[0, total])
    down = np.empty((dim, n), dtype=np.int8, order="F")
    remaining = np.array([total], dtype=np.int32)
    for i in range(n - 1):
        rest = (n - i - 1) * two_j
        lo = np.maximum(remaining - rest, 0)
        counts = np.minimum(remaining, two_j) - lo + 1
        # child digits lo..hi of each node, in node order
        starts = np.cumsum(counts, dtype=np.int32) - counts
        digits = np.repeat(lo - starts, counts) + np.arange(counts.sum(), dtype=np.int32)
        remaining = np.repeat(remaining, counts) - digits
        column = np.repeat(digits.astype(np.int8), ways[i + 1, remaining])
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
    down : (dim, n_sites) site-major int8 array
        Down-unit digits of every configuration, row index = rank,
        rows in enumeration order, so ``down[i]`` is the row of rank i;
        each site's column ``down[:, a]`` is contiguous.
        Spins above 2J = 127 are refused with ValueError.
    ways : (n_sites + 1, total_down + 1) int32 array
        ways[i, r], the number of digit tails on sites i.. with sum r,
        clipped to dim
    prefix_counts : (n_sites + 1, total_down + 2) int64 array
        P[i, r] = sum of ways[i, :r], read by ``rank_rows``

    An unreachable M is refused with ValueError, so every basis has a row.
    """

    def __init__(self, J, L, M):
        self.L = int(L)
        self.two_j = as_half(J).twice
        self.two_m = as_half(M).twice
        self.n_sites, self.total_down = _sector_shape(J, L, M)
        if self.total_down is None:
            raise ValueError(f"two_m={self.two_m} labels an unreachable sector")
        ways, self.dim, self.hops = _count_table(self.two_j, self.n_sites, self.total_down)
        _check_dimension(self.dim, self.two_m)
        self.ways = _clip(ways, self.dim)
        self.prefix_counts = prefix_counts(self.ways)
        self.down = _enumerate_down(self.two_j, self.n_sites, self.total_down, self.ways)

    def rank_rows(self, rows: np.ndarray) -> np.ndarray:
        """Ranks of digit rows (shape (N, n_sites)); rows must belong to the sector."""
        return rank_terms(self.prefix_counts, rows)


def _clip(ways, cap: int) -> np.ndarray:
    """An exact counting table clipped to cap, as int32."""
    return np.array([[min(c, cap) for c in row] for row in ways], dtype=np.int32)


def prefix_counts(ways: np.ndarray) -> np.ndarray:
    """P[i, r] = sum of ways[i, :r], the table that ``rank_terms`` reads."""
    table = np.zeros((ways.shape[0], ways.shape[1] + 1), dtype=np.int64)
    np.cumsum(ways, axis=1, out=table[:, 1:])
    return table


def rank_terms(table: np.ndarray, rows, first: int = 0, rest: int = 0) -> np.ndarray:
    """Sum of the rank terms of sites first, first + 1, ... of digit rows on
    those sites, when the sites after them hold ``rest`` down units; ``table``
    is the sector's prefix_counts.  Over all sites (first = rest = 0) this is
    the rank.

    A row ranks after every row that first differs from it by a smaller
    digit d < d_i at some site i, and those number
    sum_{d < d_i} ways[i+1, R_i - d] = P[i+1, R_i + 1] - P[i+1, R_{i+1} + 1],
    where R_i is the row's digit sum from site i on and R_{i+1} = R_i - d_i.
    The term of site i reads only d_i and R_i, so a rank splits into a sum
    over a left and a right group of sites."""
    rows = np.asarray(rows, dtype=np.int64)
    upper = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1] + (rest + 1)  # R_i + 1
    sites = np.arange(first + 1, first + rows.shape[1] + 1)
    return (table[sites, upper] - table[sites, upper - rows]).sum(axis=1)


def reachable_sectors(J, L) -> list:
    """All doubled magnetizations with a nonempty sector, ascending; refused
    before the list is built when the central (largest) sector is."""
    J = as_half(J)
    top = (2 * int(L) + 1) * J.twice
    n, total = _sector_shape(J, L, HalfInt(top % 2))
    _check_table(J.twice, n, total)
    return list(range(-top, top + 1, 2))
