"""The kink chain in rank order: the reference that the half-chain operators
are checked against, and the map from their sum-major index to the rank.

It is assembled from the package's rank-order blocks over a ``SectorBasis``
(``ising_diagonal`` and the strict lower triangle of h1 from
``hopping_structure``) and ``oracles.boundary_diagonal``; none of it goes
through ``HalfChains``.  ``ranks`` reads only a ``HalfChains``' half rows.
"""

import math

import numpy as np
from scipy import sparse

from oracles import boundary_diagonal
from xxzkink.basis import SectorBasis, _clip, _count_table, prefix_counts
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import hopping_structure, ising_diagonal


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


def ranks(halves) -> np.ndarray:
    """int32 map from the sum-major index of ``halves`` (``HalfChains``) to
    the rank (``SectorBasis`` order): a rank is a sum of per-site terms
    (``rank_terms``), the left sites' and the right sites', so each block is
    one broadcast add."""
    table = prefix_counts(_clip(_count_table(halves.two_j, halves.n_sites,
                                             halves.total_down)[0], halves.dim))
    out = np.empty(halves.dim, dtype=np.int32)
    for lo, hi, left, right in zip(halves.offsets, halves.offsets[1:], halves.left, halves.right):
        ahead = rank_terms(table, left[:, ::-1], rest=int(right[0].sum()))
        behind = rank_terms(table, right, first=halves.L)
        out[lo:hi] = (ahead[:, None] + behind[None, :]).ravel()
    return out


def dense_by_rank(op):
    """An operator's dense matrix with its rows and columns moved to the rank,
    for comparison with rank-order references."""
    order = ranks(op.halves)
    dense = np.empty((op.dim, op.dim))
    dense[np.ix_(order, order)] = op.to_dense()
    return dense


def hopping_lower(structure, dim: int) -> sparse.csr_matrix:
    """The strict lower triangle of the unscaled h1 as a CSR (int32 indices),
    from ``hopping_structure``'s triplets."""
    return sparse.csr_matrix((structure.values, (structure.rows, structure.cols)),
                             shape=(dim, dim))


def reference_kink(two_j, L, two_m, delta_inv):
    """(basis, kink matrix as a CSR indexed by rank) of one sector."""
    basis = SectorBasis(HalfInt(two_j), L, HalfInt(two_m))
    lower = hopping_lower(hopping_structure(basis), basis.dim)
    b = 1.0 - math.sqrt(1.0 - delta_inv * delta_inv)
    diag = ising_diagonal(basis) + b * boundary_diagonal(basis)
    return basis, (sparse.diags(diag) + delta_inv * (lower + lower.T)).tocsr()
