"""Symmetric eigensolvers with residual certification and multiplicity grouping.

The sector picks the route: an exact sort of a diagonal-only operator, a
dense direct solve of a small sector, or else a seeded, implicitly restarted
Lanczos (ARPACK) with shift-deflation restarts.  A Krylov method may converge
only one Ritz vector per distinct eigenvalue, so after a run converges the
solver restarts with everything found shifted out of the window and keeps
going until the smallest value found in the complement can no longer enter
the requested window; this recovers degenerate clusters with their
multiplicities.  Those confirmation runs are loose probes: ARPACK stops at
CONFIRM_TOL, and a Rayleigh quotient theta with explicit residual r places an
eigenvalue of H in [theta - r, theta + r], so the probe settles the question
when theta - r is above the window.  Only a probe that
reaches into the window is followed by a full-tolerance run, whose pair is
pooled; a probe's pair never is.  Every returned eigenpair carries an
explicitly computed residual |H v - lambda v|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .hamiltonian import SectorOperator


@dataclass
class SpectrumRecord:
    two_j: int
    L: int
    two_m: int
    variant: str
    delta_inv: float | None
    eigenvalues: np.ndarray
    residuals: np.ndarray
    solver: str
    clusters: list
    eigenvectors: np.ndarray | None = None


def group_multiplicities(values, cluster_tol: float = 1e-8) -> list:
    """Greedy clustering of sorted values into (representative, multiplicity).

    A gap joins the running cluster when it is at most
    cluster_tol * (1 + |value|); representatives are cluster means.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    if np.any(np.diff(values) < 0):
        raise ValueError("values must be sorted ascending")
    clusters = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[i - 1] > cluster_tol * (1.0 + abs(values[i])):
            chunk = values[start:i]
            clusters.append((float(chunk.mean()), int(chunk.size)))
            start = i
    return clusters


def _record(op: SectorOperator, vals, residuals, solver, cluster_tol, vecs=None):
    b = op.basis
    vals = np.asarray(vals, dtype=float)
    return SpectrumRecord(
        two_j=b.two_j,
        L=b.L,
        two_m=b.two_m,
        variant=op.variant,
        delta_inv=op.delta_inv,
        eigenvalues=vals,
        residuals=np.asarray(residuals, dtype=float),
        solver=solver,
        clusters=group_multiplicities(vals, cluster_tol),
        eigenvectors=vecs,
    )


# largest sector for the dense route: with one BLAS thread and k = 6, a full
# eigh plus its residuals ties with Lanczos between n = 161 and n = 203
DENSE_MAX = 200
# memory guard of the dense route: H and its eigenvectors are n x n doubles
DENSE_CAP = 4000


class DenseCapError(ValueError):
    """Sector too large for the dense route."""


def dense_spectrum(op: SectorOperator, k: int | None = None, keep_vectors: bool = False,
                   cluster_tol: float = 1e-8) -> SpectrumRecord:
    """The k lowest pairs (all when k is None): an exact sort of a diagonal-only
    operator at any size, else a direct symmetric solve of at most DENSE_CAP states."""
    n = op.dim
    if n == 0:
        raise ValueError("empty sector")
    k = n if k is None else min(k, n)
    if op.diagonal_only:
        diag = op.diagonal()
        order = np.argsort(diag, kind="stable")[:k]
        vecs = None
        if keep_vectors:
            vecs = np.zeros((n, k))
            vecs[order, np.arange(k)] = 1.0
        return _record(op, diag[order].astype(float), np.zeros(k), "dense", cluster_tol, vecs)
    if n > DENSE_CAP:
        raise DenseCapError(f"dimension {n} exceeds dense cap {DENSE_CAP}")
    H = op.to_dense()
    vals, V = eigh(H)
    vals, V = vals[:k], V[:, :k]
    residuals = np.empty(k)
    for start in range(0, k, 512):
        stop = min(start + 512, k)
        block = H @ V[:, start:stop] - V[:, start:stop] * vals[start:stop]
        residuals[start:stop] = np.linalg.norm(block, axis=0)
    return _record(op, vals, residuals, "dense", cluster_tol, V if keep_vectors else None)


class LanczosError(RuntimeError):
    """Lanczos did not converge; carries the best Ritz values found so far."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


# ARPACK tolerance of a confirmation probe: on the 411k sector a probe at 1e-3
# ends 0.031 above the 3rd value (theta - r) after 41 matvecs, where a
# full-tolerance run takes 131
CONFIRM_TOL = 1e-3


def _lanczos_sweep(op, want: int, tol_abs: float, max_iter: int, rng, deflate: list,
                   scale: float, *, probe_tol: float | None = None):
    """One implicitly restarted Lanczos run (ARPACK) in the complement of ``deflate``.

    ARPACK sees H + scale*I + 2*scale*V V^T, where V holds the deflated
    eigenvectors.  The identity shift makes the operator positive definite:
    ARPACK's smallest-algebraic mode can miss an exact zero eigenvalue of a
    singular H.  With scale = 1 + |H|_inf the deflation shift lifts every
    found pair strictly above the rest of the spectrum, whatever its sign, so
    the lowest Ritz pairs belong to the complement.  Returns (values, vectors,
    residuals) for the ``want`` lowest pairs, with Rayleigh quotients of the
    unshifted H and explicit residuals, or None when ARPACK did not converge
    within ``max_iter`` restarts or a residual exceeds tol_abs.  A probe
    (``probe_tol`` given) runs ARPACK at that tolerance and has no residual cap.
    """
    n = op.dim
    V = np.column_stack(deflate) if deflate else None

    def shifted(x):
        y = op.matvec(x)
        y += scale * x
        if V is not None:
            y += V @ ((2.0 * scale) * (V.T @ x))
        return y

    A = LinearOperator((n, n), matvec=shifted, dtype=float)
    # ARPACK stops at Ritz residuals <= tol * theta; the wanted theta are at
    # most 2 * scale, so this asks for half the certified bound
    tol = tol_abs / (4.0 * scale) if probe_tol is None else probe_tol
    try:
        _, X = eigsh(A, k=want, which="SA", v0=rng.standard_normal(n), maxiter=max_iter,
                     tol=tol)
    except ArpackNoConvergence:
        return None
    vals, vecs, res = [], [], []
    for x in X.T:
        hx = op.matvec(x)
        theta = float(x @ hx)
        r = float(np.linalg.norm(hx - theta * x))
        if probe_tol is None and r > tol_abs:
            return None
        vals.append(theta)
        vecs.append(x)
        res.append(r)
    return np.asarray(vals), vecs, res


def lanczos_lowest(op: SectorOperator, k: int, tol: float = 1e-10, seed: int = 0,
                   keep_vectors: bool = False, cluster_tol: float = 1e-8) -> SpectrumRecord:
    """The k lowest eigenvalues (with multiplicity) by deflated Lanczos.

    Deterministic for a fixed seed: start vectors come from one PCG64 stream.
    Residuals of all returned pairs are at most tol * (1 + max row sum).
    Each ARPACK run is capped at min(dim, max(300, 20 k)) restarts.

    Once k values are pooled, each confirmation run is a probe at CONFIRM_TOL
    for the lowest value of the complement.  Its Rayleigh quotient theta and
    explicit residual r stop the solve when theta - r is at least the k-th
    value minus the cluster band.  Otherwise, or when the probe does not
    converge, a full-tolerance run in the same complement is pooled and the
    same rule is applied to its value.  Like that rule, the probe does not
    prove that the complement holds nothing lower: ARPACK may converge to a
    higher eigenvalue when the start vector barely overlaps a lower one.
    """
    n = op.dim
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < dim, got k={k}, dim={n}")
    scale = 1.0 + op.inf_norm()
    tol_abs = tol * scale
    max_iter = min(n, max(300, 20 * k))
    rng = np.random.default_rng(seed)
    pool_vals: list = []
    pool_vecs: list = []
    pool_res: list = []
    max_sweeps = 2 * k + 8

    def settled(value: float) -> bool:
        # the complement's minimum can no longer displace the k-th value, so
        # the returned multiset is final (an equal copy changes nothing)
        kth = sorted(pool_vals)[k - 1]
        return value >= kth - cluster_tol * (1.0 + abs(kth))

    for _ in range(max_sweeps):
        comp = n - len(pool_vals)
        if comp <= 0:
            break
        if len(pool_vals) >= k:
            # an eigenvalue of H lies within r of the probe's theta
            probe = _lanczos_sweep(op, 1, tol_abs, max_iter, rng, pool_vecs, scale,
                                   probe_tol=CONFIRM_TOL)
            if probe is not None and settled(probe[0][0] - probe[2][0]):
                break
        want = min(k - len(pool_vals), comp) if len(pool_vals) < k else 1
        got = _lanczos_sweep(op, want, tol_abs, max_iter, rng, pool_vecs, scale)
        if got is None:
            raise LanczosError(
                f"no convergence within {max_iter} restarts",
                best=np.asarray(sorted(pool_vals)),
            )
        new_vals, new_vecs, new_res = got
        pool_vals.extend(float(v) for v in new_vals)
        pool_vecs.extend(new_vecs)
        pool_res.extend(new_res)
        # the sweep minimum is the smallest eigenvalue left in the complement
        if len(pool_vals) >= k and settled(float(new_vals.min())):
            break
    if len(pool_vals) < k:
        raise LanczosError(
            f"found only {len(pool_vals)} of {k} eigenpairs",
            best=np.asarray(sorted(pool_vals)),
        )

    order = np.argsort(np.asarray(pool_vals), kind="stable")[:k]
    vals = np.asarray(pool_vals)[order]
    res = np.asarray(pool_res)[order]
    vecs = None
    if keep_vectors:
        vecs = np.column_stack([pool_vecs[i] for i in order])
    return _record(op, vals, res, "lanczos", cluster_tol, vecs)


def solve_lowest(op: SectorOperator, k: int, tol: float = 1e-10, seed: int = 0,
                 keep_vectors: bool = False, cluster_tol: float = 1e-8) -> SpectrumRecord:
    """The k lowest pairs: diagonal-only operators and sectors of at most DENSE_MAX
    states, or with k >= dim, take dense_spectrum; all others deflated Lanczos."""
    k = int(k)
    if k < 1:
        raise ValueError("need k >= 1")
    if op.diagonal_only or op.dim <= DENSE_MAX or k >= op.dim:
        return dense_spectrum(op, k, keep_vectors=keep_vectors, cluster_tol=cluster_tol)
    return lanczos_lowest(op, k, tol=tol, seed=seed, keep_vectors=keep_vectors,
                          cluster_tol=cluster_tol)
