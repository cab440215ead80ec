"""Checks of the relative-bound lemma behind the certificates: the certified
two-site constant, and the chain bound sampled on seeded random vectors of a
sector."""

import math

import numpy as np

from rank_order import hopping_lower
from xxzkink.basis import SectorBasis
from xxzkink.halfint import as_half
from xxzkink.hamiltonian import hopping_structure, ising_diagonal


def relative_bound_constant(A: np.ndarray, B: np.ndarray, tol: float = 1e-10) -> float:
    """Smallest certified c with -cA <= B <= cA, namely |B| / lambda_1(A).

    Requires A >= 0 (up to tol) and Ker(A) contained in Ker(B): every
    eigenvector of A with eigenvalue below the tolerance must be annihilated
    by B to within tol * |B|.  The returned constant is re-certified by
    checking that the smallest eigenvalue of cA +/- B is above -tol * |A|.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    evals, vecs = np.linalg.eigh(A)
    norm_a = max(abs(evals[0]), abs(evals[-1]))
    thresh = tol * max(1.0, norm_a)
    if evals[0] < -thresh:
        raise ValueError(f"A has eigenvalue {evals[0]}; not positive semidefinite")
    norm_b = float(np.abs(np.linalg.eigvalsh(B)).max()) if B.any() else 0.0
    kernel = np.nonzero(evals < thresh)[0]
    for i in kernel:
        leak = float(np.linalg.norm(B @ vecs[:, i]))
        if leak > tol * max(1.0, norm_b):
            raise ValueError(
                f"kernel containment fails: A-eigenvector {i} (eigenvalue {evals[i]:.3e}) "
                f"has |B v| = {leak:.3e}"
            )
    positive = evals[evals >= thresh]
    if positive.size == 0:
        if norm_b <= tol * max(1.0, norm_b):
            return 0.0
        raise ValueError("A vanishes but B does not")
    c = norm_b / float(positive[0])
    for signed in (c * A - B, c * A + B):
        low = float(np.linalg.eigvalsh(signed)[0])
        if low < -tol * max(1.0, norm_a):
            raise RuntimeError(f"certification failed: min-eig(cA -/+ B) = {low}")
    return c


def sampled_bound_ratio(J, L, M, trials: int = 1000, seed: int = 0,
                        basis: SectorBasis | None = None) -> float:
    """Max over seeded unit vectors of |H1 v| / (sqrt(J^2+2J^3)(|H0 v| + 2J^2)).

    Vectors are componentwise standard normals from PCG64 generators spawned
    per trial off one root seed, normalized to the unit sphere; the result is
    deterministic given (seed, trials), and the bound holds on the sample
    when it does not exceed 1.  Sampling is not a proof: at J = 1/2, where
    the bound fails, random vectors stay below 1 (0.857 at L = 3, M = -1/2
    over 1000 trials).  No trials is a ValueError.
    """
    J = as_half(J)
    if basis is None:
        basis = SectorBasis(J, L, M)
    # H1 = h1 (the unscaled hopping, L + L^T from its strict lower triangle L)
    # and H0 = E (the bond energies), from their blocks in rank order
    lower = hopping_lower(hopping_structure(basis), basis.dim)
    h1 = (lower + lower.T).tocsr()
    h0 = ising_diagonal(basis).astype(float)
    jf = float(J)
    slope = math.sqrt(jf * jf + 2.0 * jf**3)
    offset = 2.0 * jf * jf

    def ratio(child):
        v = np.random.default_rng(child).standard_normal(basis.dim)
        v /= np.linalg.norm(v)
        bound = slope * (np.linalg.norm(h0 * v) + offset)
        return float(np.linalg.norm(h1 @ v) / bound)

    return max(ratio(child) for child in np.random.SeedSequence(seed).spawn(trials))
