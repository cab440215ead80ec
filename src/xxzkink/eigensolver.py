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

Every ARPACK run applies one operator and asks for its largest values: the
Chebyshev polynomial T_p of an affine map Y of H_d, where H_d is H with
every pooled pair lifted out of the wanted range (``_lanczos_sweep``).
Probes, sectors under FILTER_MIN_DIM states and runs without a cut take
p = 1: Y = -(H + scale) with scale = 1 + |H|_inf and the pool lifted by
2 scale.  The other full-tolerance runs are Chebyshev filtered (Zhou, Saad,
Tiago & Chelikowsky, J. Comput. Phys. 219 (2006) 172; Fang & Saad, SIAM J.
Sci. Comput. 34 (2012) A2220): p = FILTER_DEGREE, every pooled pair is
moved to hi = |H|_inf, and Y maps the unwanted interval [c, hi] onto
[1, -1], so T_p(Y) stays in [-1, 1] there and grows fast below c.  Each
ARPACK step then costs FILTER_DEGREE matvecs but the run takes about that
many times fewer steps, and a step's reorthogonalization, not its matvec,
is what dominates on large sectors.  The cut c must lie above every wanted
value.  It comes from Cauchy interlacing: the j-th eigenvalue of a
principal submatrix bounds the j-th eigenvalue of H from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import daxpy, dgemv
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .hamiltonian import SectorOperator


@dataclass
class SpectrumRecord:
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


# largest sector for the dense route: with one BLAS thread and k = 6, a full
# eigh plus its residuals ties with Lanczos between n = 161 and n = 203
DENSE_MAX = 200


def dense_spectrum(op: SectorOperator, k: int | None = None, keep_vectors: bool = False,
                   cluster_tol: float = 1e-8) -> SpectrumRecord:
    """The k lowest pairs (all when k is None): an exact sort of a diagonal-only
    operator at any size, else a direct symmetric solve (solve_bytes prices it)."""
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
        vals = diag[order].astype(float)
        return SpectrumRecord(vals, np.zeros(k), "dense", group_multiplicities(vals, cluster_tol),
                              vecs)
    H = op.to_dense()
    vals, V = eigh(H)
    vals, V = vals[:k], V[:, :k]
    residuals = np.empty(k)
    for start in range(0, k, 512):
        stop = min(start + 512, k)
        block = H @ V[:, start:stop] - V[:, start:stop] * vals[start:stop]
        residuals[start:stop] = np.linalg.norm(block, axis=0)
    return SpectrumRecord(vals, residuals, "dense", group_multiplicities(vals, cluster_tol),
                          V if keep_vectors else None)


class LanczosError(RuntimeError):
    """Lanczos did not converge."""


# ARPACK tolerance of a confirmation probe: on the 411k sector a probe at 1e-3
# ends 0.031 above the 3rd value (theta - r) after 41 matvecs, where a
# full-tolerance run takes 131
CONFIRM_TOL = 1e-3
# filter degree: the first run on the 411k sector (k = 3, one BLAS thread)
# took 208 / 216 / 168 / 210 / 252 matvecs and 3.4 / 3.4 / 2.3 / 2.8 / 3.3 s at
# degree 4 / 6 / 8 / 10 / 12, against 179 matvecs and 6.6 s unfiltered
FILTER_DEGREE = 8
# smallest filtered sector: lanczos_lowest at k = 6, delta_inv = 0.4 took
#   dim       2128   3535   8135   18351  27876
#   degree 1  0.024  0.034  0.094  0.200  0.335 s
#   filtered  0.028  0.032  0.074  0.170  0.306 s
# and the 28 Lanczos jobs of J = 3/2, L = 3 (dim <= 2128) 0.33 s unfiltered
# against 0.48 s filtered; at delta_inv = 0.1 and 1 the filter also lost one
# k = 3 case each at 3535, 8135 and 13051 states and won every case at 27876
FILTER_MIN_DIM = 10000
# size of the interlacing submatrix: on the 411k sector 300 states give
# mu_1..mu_4 = 0.0005, 1.121, 1.969, 2.038 against 0, 1.117, 1.958, 2.026 in
# about 0.1 s with the sort; 100 and 600 states cost the same 168 matvecs
CUT_STATES = 300
# the cut is mu_j with j >= pooled + want + CUT_MARGIN: margins 3 / 6 / 12 took
# 288 / 168 / 288 matvecs in the first run on the 411k sector
CUT_MARGIN = 6


def _interlacing_bounds(op) -> np.ndarray:
    """Eigenvalues mu_1 <= mu_2 <= ... of H on its CUT_STATES lowest-diagonal
    configurations (a stable sort); by Cauchy interlacing mu_j >= lambda_j(H)."""
    rows = np.sort(np.argsort(op.diagonal(), kind="stable")[:CUT_STATES])
    return eigh(op.to_dense(rows), eigvals_only=True)


def _interlacing_cut(op, index: int, hi: float, sep: float):
    """A filter cut strictly above the ``index`` lowest eigenvalues of H, or None.

    The cut is the first mu_j of ``_interlacing_bounds`` with
    j >= index + CUT_MARGIN that exceeds mu_index by more than ``sep``, so it
    lies above lambda_index; None when there is no such mu_j below hi - sep.
    """
    if index + CUT_MARGIN > min(CUT_STATES, op.dim):
        return None
    mu = _interlacing_bounds(op)
    above = mu[index + CUT_MARGIN - 1:]
    above = above[above > mu[index - 1] + sep]
    if above.size == 0 or above[0] >= hi - sep:
        return None
    return float(above[0])


def _lanczos_sweep(op, want: int, tol_abs: float, max_iter: int, rng, pool_vals: list,
                   pool_vecs: np.ndarray, scale: float, *, probe_tol: float | None = None,
                   cut: float | None = None):
    """One implicitly restarted Lanczos run (ARPACK) in the complement of the pool.

    ARPACK sees the largest values of T_p(Y), the degree-p Chebyshev
    polynomial of Y = (center - H - V diag(lift) V^T) / half, where V holds
    the pooled eigenvectors.  Without a ``cut``, p = 1 and
    (center, half, lift) = (-scale, 1, 2 scale): Y = -(H + scale*I +
    2*scale*V V^T).  The identity shift keeps Y negative definite, so an
    exact zero eigenvalue of a singular H is not missed, and with
    scale = 1 + |H|_inf the lift moves every found pair strictly below the
    rest of Y's spectrum, whatever its sign, so the largest Ritz pairs belong
    to the complement.  With a ``cut`` c, p = FILTER_DEGREE and
    (center, half) = ((hi + c) / 2, (hi - c) / 2) with hi = scale - 1, and
    lift = hi - pool_vals moves every pooled pair to hi: Y maps [c, hi] onto
    [1, -1], so everything at or above c, the pool included, lands in [-1, 1]
    and every value below c above 1.  Returns (values, vectors, residuals)
    for the ``want`` lowest pairs, with Rayleigh quotients of H and explicit
    residuals, or None when ARPACK did not converge within ``max_iter``
    restarts or a residual exceeds tol_abs.  A probe (``probe_tol`` given)
    runs ARPACK at that tolerance and has no residual cap.
    """
    n = op.dim
    V = pool_vecs if pool_vecs.shape[1] else None
    # ARPACK stops at Ritz residuals <= tol * |theta|; at degree 1 the wanted
    # |theta| are at most 2 * scale, so this asks for half the certified bound.
    # Filtered, the explicit residual check below is what certifies.
    tol = tol_abs / (4.0 * scale) if probe_tol is None else probe_tol
    if cut is None:
        degree, center, half, lift = 1, -scale, 1.0, 2.0 * scale
    else:
        hi = scale - 1.0
        degree, center, half = FILTER_DEGREE, 0.5 * (hi + cut), 0.5 * (hi - cut)
        lift = hi - np.asarray(pool_vals)

    def y_of_h(x):
        y = op.matvec(x)
        if V is not None:
            # y += V diag(lift) V^T x
            dgemv(1.0, V.T, lift * (V.T @ x), beta=1.0, y=y, trans=1, overwrite_y=True)
        daxpy(x, y, a=-center)
        y *= -1.0 / half
        return y

    def apply(x):
        # three-term recurrence T_{j+1} = 2 Y T_j - T_{j-1}
        prev, cur = x, y_of_h(x)
        for _ in range(degree - 1):
            nxt = y_of_h(cur)
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
        return cur

    A = LinearOperator((n, n), matvec=apply, dtype=float)
    try:
        _, X = eigsh(A, k=want, which="LA", v0=rng.standard_normal(n), maxiter=max_iter,
                     tol=tol)
    except ArpackNoConvergence:
        return None
    vals, res = [], []
    for x in X.T:
        hx = op.matvec(x)
        theta = float(x @ hx)
        r = float(np.linalg.norm(hx - theta * x))
        if probe_tol is None and r > tol_abs:
            return None
        vals.append(theta)
        res.append(r)
    return np.asarray(vals), X, res


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

    On sectors of at least FILTER_MIN_DIM states every full-tolerance run is
    Chebyshev filtered.  Its cut is an interlacing bound mu_j with
    j >= pooled + want + CUT_MARGIN (``_interlacing_cut``): removing the
    pooled values from the spectrum leaves its i-th value at most
    lambda_{pooled+i}(H), so every wanted value lies below the cut.  A sector
    whose submatrix gives no cut below |H|_inf, and a filtered run that does
    not converge or misses the residual bound, run at degree 1 instead.  The
    probes always run at degree 1: a filtered probe cannot stop before ncv
    steps of FILTER_DEGREE matvecs each (168 matvecs against 41 on the 411k
    sector).
    """
    n = op.dim
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < dim, got k={k}, dim={n}")
    scale = 1.0 + op.inf_norm()
    tol_abs = tol * scale
    max_iter = min(n, max(300, 20 * k))
    rng = np.random.default_rng(seed)
    pool_vals: list = []
    pool_vecs = np.empty((n, 0))
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
            probe = _lanczos_sweep(op, 1, tol_abs, max_iter, rng, pool_vals, pool_vecs, scale,
                                   probe_tol=CONFIRM_TOL)
            if probe is not None and settled(probe[0][0] - probe[2][0]):
                break
            del probe
        want = min(k - len(pool_vals), comp) if len(pool_vals) < k else 1
        cut = None
        if n >= FILTER_MIN_DIM:
            cut = _interlacing_cut(op, len(pool_vals) + want, scale - 1.0, tol_abs)
        got = _lanczos_sweep(op, want, tol_abs, max_iter, rng, pool_vals, pool_vecs, scale,
                             cut=cut)
        if got is None and cut is not None:
            # the same complement at degree 1, from the next start vector
            got = _lanczos_sweep(op, want, tol_abs, max_iter, rng, pool_vals, pool_vecs,
                                 scale)
        if got is None:
            raise LanczosError(f"no convergence within {max_iter} restarts")
        new_vals, new_vecs, new_res = got
        pool_vals.extend(float(v) for v in new_vals)
        pool_vecs = np.hstack([pool_vecs, new_vecs])
        pool_res.extend(new_res)
        # ARPACK's returned block would otherwise sit beside the next run's workspace
        del got, new_vecs
        # the sweep minimum is the smallest eigenvalue left in the complement
        if len(pool_vals) >= k and settled(float(new_vals.min())):
            break
    if len(pool_vals) < k:
        raise LanczosError(f"found only {len(pool_vals)} of {k} eigenpairs")

    order = np.argsort(np.asarray(pool_vals), kind="stable")[:k]
    vals = np.asarray(pool_vals)[order]
    res = np.asarray(pool_res)[order]
    vecs = None
    if keep_vectors:
        vecs = pool_vecs[:, order]
    return SpectrumRecord(vals, res, "lanczos", group_multiplicities(vals, cluster_tol), vecs)


def _dense_route(n: int, k: int) -> bool:
    return n <= DENSE_MAX or k >= n


def solve_bytes(n: int, k: int) -> int:
    """Bytes that solve_lowest allocates for the k lowest pairs of an n-state
    sector with hopping: on the dense route H, eigh's copy of it, the
    eigenvectors and LAPACK's O(n) workspace; else ARPACK's max(2k+1, 20)
    basis vectors, the equal-size block scipy allocates to extract Ritz
    vectors from them, and the k pooled vectors."""
    if _dense_route(n, k):
        # dense_spectrum(op, n) grew ru_maxrss by 106 / 157 / 289 / 564 MiB at
        # n = 2128 / 2598 / 3535 / 4950 (one BLAS thread): 3.07 / 3.04 / 3.03 /
        # 3.02 n^2 doubles, all below 3 n^2 + 200 n
        return (3 * n + 200) * n * 8
    return n * (2 * max(2 * k + 1, 20) + k) * 8


def solve_lowest(op: SectorOperator, k: int, tol: float = 1e-10, seed: int = 0,
                 keep_vectors: bool = False, cluster_tol: float = 1e-8) -> SpectrumRecord:
    """The k lowest pairs: diagonal-only operators and sectors of at most DENSE_MAX
    states, or with k >= dim, take dense_spectrum; all others deflated Lanczos."""
    k = int(k)
    if k < 1:
        raise ValueError("need k >= 1")
    if op.diagonal_only or _dense_route(op.dim, k):
        return dense_spectrum(op, k, keep_vectors=keep_vectors, cluster_tol=cluster_tol)
    return lanczos_lowest(op, k, tol=tol, seed=seed, keep_vectors=keep_vectors,
                          cluster_tol=cluster_tol)
