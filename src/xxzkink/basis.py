"""Fixed-magnetization configuration bases: counting, enumeration, ranking.

A chain on sites alpha = -L..L carries one spin of magnitude J per site.  A
configuration assigns each site a local eigenvalue m_alpha in {-J, ..., J};
the sector with total magnetization M collects every configuration with
sum(m_alpha) = M.

Internally a configuration is a vector of "down units" d_alpha = J - m_alpha,
an integer in 0..2J per site, and the sector constraint becomes

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

from dataclasses import dataclass

import numpy as np

from .halfint import HalfInt, as_half

_I64_MAX = np.iinfo(np.int64).max
MAX_TWO_J = int(np.iinfo(np.int8).max)  # digits 0..2J are stored as int8
# default cap on a sector's dimension, and on the steps of its counting table
MAX_STATES = 50_000_000


@dataclass(frozen=True)
class IsingConfig:
    """One local eigenvalue per site alpha = -L..L (index 0 is site -L)."""

    L: int
    values: tuple

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("need L >= 1")
        vals = tuple(as_half(v) for v in self.values)
        if len(vals) != 2 * self.L + 1:
            raise ValueError(f"expected {2 * self.L + 1} values, got {len(vals)}")
        object.__setattr__(self, "values", vals)

    @property
    def n_sites(self) -> int:
        return 2 * self.L + 1

    def value_at(self, alpha: int) -> HalfInt:
        if not -self.L <= alpha <= self.L:
            raise IndexError(f"site {alpha} outside [-{self.L}, {self.L}]")
        return self.values[alpha + self.L]

    @property
    def magnetization(self) -> HalfInt:
        return HalfInt(sum(v.twice for v in self.values))

    def down_units(self, J) -> np.ndarray:
        """Integer vector d = J - m per site; rejects values off the ladder."""
        tj = as_half(J).twice
        out = np.empty(self.n_sites, dtype=np.int64)
        for i, v in enumerate(self.values):
            t = tj - v.twice
            if t < 0 or t > 2 * tj or t % 2 != 0:
                raise ValueError(f"value {v} at site {i - self.L} is not on the spin ladder")
            out[i] = t // 2
        return out

    @classmethod
    def from_down_units(cls, J, L: int, down) -> "IsingConfig":
        tj = as_half(J).twice
        return cls(L, tuple(HalfInt(tj - 2 * int(d)) for d in down))


def _sector_shape(J, L, M):
    """(n_sites, total_down) of a sector; total_down is None when unreachable."""
    J = as_half(J)
    M = as_half(M)
    L = int(L)
    if J.twice < 1:
        raise ValueError("spin magnitude must be at least 1/2")
    if L < 1:
        raise ValueError("need L >= 1")
    n = 2 * L + 1
    doubled = n * J.twice - M.twice
    if doubled % 2 != 0 or doubled < 0 or doubled > 2 * n * J.twice:
        return n, None
    return n, doubled // 2


def _count_table(two_j: int, n: int, total: int) -> list:
    """ways[i][r]: number of length-(n-i) digit tails with sum r, exact ints.

    The fill takes about n * total * 2J steps on Python ints, so a table of
    more than MAX_STATES steps is refused before anything is allocated.
    """
    if n * (total + 1) * (two_j + 1) > MAX_STATES:
        raise ValueError(f"the counting table of {n} sites with 2J={two_j} and {total} down "
                         f"units needs more than {MAX_STATES} steps")
    ways = [[0] * (total + 1) for _ in range(n + 1)]
    ways[n][0] = 1
    for i in range(n - 1, -1, -1):
        nxt = ways[i + 1]
        row = ways[i]
        for r in range(total + 1):
            row[r] = sum(nxt[r - d] for d in range(min(two_j, r) + 1))
    return ways


def sector_dimension(J, L, M) -> int:
    """Exact number of configurations with total magnetization M (0 if unreachable)."""
    n, total = _sector_shape(J, L, M)
    if total is None:
        return 0
    return _count_table(as_half(J).twice, n, total)[0][total]


def hop_count(J, L, M) -> int:
    """Exact number of one-direction hops of a sector (the strict lower
    triangle of h1): on each bond, the configurations with d_a >= 1 and
    d_{a+1} <= 2J - 1, by inclusion-exclusion on the two pinned digits."""
    n, total = _sector_shape(J, L, M)
    if total is None:
        return 0
    tj = as_half(J).twice
    ways = _count_table(tj, n, total)
    rest = total - tj  # digit sum left once d_{a+1} = 2J
    pinned = ways[1][rest] - ways[2][rest] if rest >= 0 else 0
    return (n - 1) * (ways[0][total] - ways[1][total] - pinned)


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
    """Ordered basis of one magnetization sector with rank/unrank tables.

    Attributes
    ----------
    down : (dim, n_sites) C-ordered int8 array
        Down-unit digits of every configuration, row index = rank,
        rows in enumeration order.  Spins above 2J = 127 are refused with
        ValueError; the rank/unrank tables stay int64.
    """

    def __init__(self, J, L, M, max_states: int = MAX_STATES):
        self.J = as_half(J)
        self.M = as_half(M)
        self.L = int(L)
        self.two_j = self.J.twice
        self.two_m = self.M.twice
        if self.two_j > MAX_TWO_J:
            raise ValueError(
                f"spin J={self.J} exceeds the int8 digit limit 2J <= {MAX_TWO_J}"
            )
        self.n_sites, self.total_down = _sector_shape(self.J, self.L, self.M)
        if self.total_down is None:
            self.dim = 0
            self.down = np.zeros((0, self.n_sites), dtype=np.int8)
            self._cum = None
            return
        ways = _count_table(self.two_j, self.n_sites, self.total_down)
        dim = ways[0][self.total_down]
        if any(c > _I64_MAX for row in ways for c in row):
            raise OverflowError("sector counting tables exceed 64-bit range")
        if dim > max_states:
            raise ValueError(f"sector dimension {dim} exceeds max_states={max_states}")
        self.dim = dim
        ways64 = np.array(ways, dtype=np.int64)
        self._cum = _cumulative_counts(ways64, self.two_j)
        self.down = _enumerate_down(self.two_j, self.n_sites, self.total_down, ways64)

    @property
    def prefix_counts(self) -> np.ndarray:
        """The C[i, r, e] ranking table (see _cumulative_counts)."""
        return self._cum

    def __len__(self) -> int:
        return self.dim

    def __iter__(self):
        for row in self.down:
            yield IsingConfig.from_down_units(self.J, self.L, row)

    def rank_rows(self, rows: np.ndarray) -> np.ndarray:
        """Ranks of digit rows (shape (N, n_sites)); rows must belong to the sector."""
        rows = np.asarray(rows, dtype=np.int64)
        suffix = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
        sites = np.arange(self.n_sites)[None, :]
        return self._cum[sites, suffix, rows].sum(axis=1)

    def rank(self, config: IsingConfig) -> int:
        if config.L != self.L:
            raise ValueError(f"config has L={config.L}, basis has L={self.L}")
        row = config.down_units(self.J)
        if int(row.sum()) != self.total_down:
            raise ValueError(
                f"config magnetization {config.magnetization} does not match sector {self.M}"
            )
        return int(self.rank_rows(row[None, :])[0])

    def unrank(self, index: int) -> IsingConfig:
        index = int(index)
        if not 0 <= index < self.dim:
            raise ValueError(f"rank {index} outside [0, {self.dim})")
        digits = []
        r = index
        remaining = self.total_down
        for i in range(self.n_sites):
            row = self._cum[i, remaining]
            d = int(np.searchsorted(row, r, side="right")) - 1
            r -= int(row[d])
            remaining -= d
            digits.append(d)
        return IsingConfig.from_down_units(self.J, self.L, digits)


def reachable_sectors(J, L) -> list:
    """All doubled magnetizations with a nonempty sector, ascending."""
    J = as_half(J)
    L = int(L)
    top = (2 * L + 1) * J.twice
    return list(range(-top, top + 1, 2))
