"""Independent brute-force references used by the tests.

Everything here works from first principles (itertools enumeration and full
tensor products of single-site matrices) and imports nothing from the package
it is used to check.
"""

import itertools
import math

import numpy as np


def spin_matrices(two_j):
    """Dense real (S3, S+, S-) of spin two_j / 2 in the m-descending basis:
    index i holds m = J - i, S+ sits on the superdiagonal and S- is its
    transpose."""
    if two_j < 1:
        raise ValueError("spin magnitude must be at least 1/2")
    dim = two_j + 1
    s3 = np.diag([(two_j - 2 * i) / 2.0 for i in range(dim)])
    splus = np.zeros((dim, dim))
    for i in range(1, dim):
        # i lowering steps below the top level; radicand i * (2J - i + 1)
        splus[i - 1, i] = math.sqrt(i * (two_j - i + 1))
    return s3, splus, splus.T.copy()


def brute_sector_rows(two_j, L, two_m):
    """All down-unit tuples of the sector, ascending lexicographic."""
    n = 2 * L + 1
    doubled = n * two_j - two_m
    if doubled % 2 != 0 or doubled < 0 or doubled > 2 * n * two_j:
        return []
    total = doubled // 2
    return [t for t in itertools.product(range(two_j + 1), repeat=n) if sum(t) == total]


def brute_config_energy(two_j, row):
    """Kink bond-energy sum, in exact integers, from the down units."""
    return sum((two_j - row[a]) * row[a + 1] for a in range(len(row) - 1))


def kron_site_operator(two_j, n_sites, mat, pos):
    out = np.array([[1.0]])
    eye = np.eye(two_j + 1)
    for p in range(n_sites):
        out = np.kron(out, mat if p == pos else eye)
    return out


def two_site_operators(two_j):
    """(h0, h1): the diagonal bond term J^2 - S3 x S3 and the exchange bond
    term (S+ x S- + S- x S+) / 2, dense on two sites."""
    s3, splus, sminus = spin_matrices(two_j)

    def site(mat, pos):
        return kron_site_operator(two_j, 2, mat, pos)

    h0 = (two_j / 2.0) ** 2 * np.eye((two_j + 1) ** 2) - site(s3, 0) @ site(s3, 1)
    h1 = 0.5 * (site(splus, 0) @ site(sminus, 1) + site(sminus, 0) @ site(splus, 1))
    return h0, h1


def kron_kink_hamiltonian(two_j, L, delta_inv, variant="kink"):
    """Full-space Hamiltonian assembled from single-site tensor products."""
    J = two_j / 2.0
    s3, splus, sminus = spin_matrices(two_j)
    n = 2 * L + 1
    full = (two_j + 1) ** n
    H = np.zeros((full, full))

    def site(mat, pos):
        return kron_site_operator(two_j, n, mat, pos)

    for a in range(n - 1):
        transverse = 0.5 * (
            site(splus, a) @ site(sminus, a + 1) + site(sminus, a) @ site(splus, a + 1)
        )
        diag = J * J * np.eye(full) - site(s3, a) @ site(s3, a + 1)
        if variant == "h1":
            H -= transverse
        elif variant == "h2":
            pass
        elif variant in ("ising_kink", "ising_free"):
            H += diag
        else:
            H += diag - delta_inv * transverse
    boundary = site(s3, 0) - site(s3, n - 1)  # S3 at -L minus S3 at +L
    if variant == "kink":
        H += J * np.sqrt(1.0 - delta_inv**2) * boundary
    elif variant == "antikink":
        H -= J * np.sqrt(1.0 - delta_inv**2) * boundary
    elif variant == "ising_kink":
        H += J * boundary
    elif variant == "h2":
        H = -J * boundary
    return H


def boundary_diagonal(basis):
    """Vector of B = J (m_L - m_{-L}) over a sector basis, indexed by rank;
    exact multiples of 1/2, from the digits as J (d_{-L} - d_L)."""
    d = basis.down
    return 0.5 * basis.two_j * (d[:, 0].astype(np.int16) - d[:, -1])


def sector_kron_indices(basis):
    """Full-space tensor indices of a sector basis (site -L slowest)."""
    idx = np.zeros(basis.dim, dtype=np.int64)
    radix = basis.two_j + 1
    for i in range(basis.n_sites):
        idx = idx * radix + basis.down[:, i]
    return idx


def brute_least_completion(two_j, k, r, p):
    """Least energy of a k-digit tail with digit sum r after a left digit p,
    the bond to p included; None when no tail has that sum."""
    energies = [(two_j - p) * t[0] + brute_config_energy(two_j, t) if k else 0
                for t in itertools.product(range(two_j + 1), repeat=k) if sum(t) == r]
    return min(energies, default=None)
