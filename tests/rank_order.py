"""The kink chain in rank order: the reference that the half-chain operators
are checked against.

It is assembled from the package's rank-order blocks over a ``SectorBasis``
(``ising_diagonal`` and the strict lower triangle of h1 from
``hopping_structure``) and ``oracles.boundary_diagonal``; none of it goes
through ``HalfChains``.
"""

import math

from scipy import sparse

from oracles import boundary_diagonal
from xxzkink.basis import SectorBasis
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import hopping_structure, ising_diagonal


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
