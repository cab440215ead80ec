"""Symmetric eigensolvers with residual certification and multiplicity grouping.

The sector picks the route: an exact sort of a diagonal-only operator, a
dense direct solve of a small sector, or else a seeded, implicitly restarted
Lanczos (ARPACK) with shift-deflation restarts (Lehoucq & Sorensen, SIAM J.
Matrix Anal. Appl. 17 (1996) 789).  A Krylov method may converge only one
Ritz vector per distinct eigenvalue, so a Lanczos solve must also show that
it missed nothing below the k-th value it returns.  One rule, set by
delta_inv alone, decides how (``lanczos_lowest``): off the bands around the
Ising limit (0) and the isotropic point (1) the first run asks for one pair
more than the window and settles on it; on the bands, and after a failed
run, the solver shifts everything found out of the window and runs loose
probes in the complement until none can enter it, which recovers degenerate
clusters with their multiplicities.  Every returned eigenpair carries an
explicitly computed residual |H v - lambda v|.  ARPACK draws every start and
restart vector from the solve's one seeded PCG64 stream, so reruns are exact.

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
many times fewer steps, so ARPACK's own work (restarts and
reorthogonalization) shrinks while the matvec count does not.  The matvecs
dominate on large sectors: under cProfile they took 1.3 of the 2.0 s solve
of the 411 334-state sector, ARPACK's dsaupd 0.29 s.  The cut c must lie
above every wanted value.  It comes from Cauchy interlacing: the j-th
eigenvalue of a principal submatrix bounds the j-th eigenvalue of H from
above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import SectorOperator


@dataclass
class SpectrumRecord:
    eigenvalues: np.ndarray
    residuals: np.ndarray
    solver: str
    clusters: list
    eigenvectors: np.ndarray | None = None


# residual tolerance scale: every returned pair has |H v - lambda v| at most
# TOL (1 + |H|_inf).  Double precision certifies far below it: on the tier-1
# sectors (J <= 5/2 at L <= 3 and J = 3/2, L = 4, M = -3/2; delta_inv 0.4
# and 1; k = 6) dense residuals reach 2.0e-15 (1 + |H|_inf), and deflated
# Lanczos meets 3e-15 on all 44 Lanczos cases
TOL = 1e-10
# relative gap that joins two values into one cluster, and the width of the
# bands around delta_inv = 0 and 1 on which a Lanczos solve keeps its probe
CLUSTER_TOL = 1e-8


def group_multiplicities(values, cluster_tol: float = CLUSTER_TOL) -> list:
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


def _lowest_indices(values: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(values, kind="stable")[:k], by partial selection: the k
    smallest values, ties taken by lowest index, in stable sorted order."""
    if k >= values.size:
        return np.argsort(values, kind="stable")
    kth = np.partition(values, k - 1)[k - 1]
    below = np.flatnonzero(values < kth)
    picks = np.concatenate([below, np.flatnonzero(values == kth)[:k - below.size]])
    picks.sort()
    return picks[np.argsort(values[picks], kind="stable")]


def _by_rank(op: SectorOperator, vecs: np.ndarray) -> np.ndarray:
    """Eigenvector rows moved from the operator's index to the rank, so that a
    returned vector is indexed like the sector's basis."""
    out = np.empty_like(vecs)
    out[op.order] = vecs
    return out


# largest sector for the dense route: with one BLAS thread and k = 6, a full
# eigh plus its residuals ties with Lanczos between n = 161 and n = 203
DENSE_MAX = 200


def dense_spectrum(op: SectorOperator, k: int | None = None,
                   keep_vectors: bool = False) -> SpectrumRecord:
    """The k lowest pairs (all when k is None): an exact sort of a diagonal-only
    operator at any size, else a direct symmetric solve (solve_bytes prices it)."""
    n = op.dim
    if n == 0:
        raise ValueError("empty sector")
    k = n if k is None else min(k, n)
    if op.diagonal_only:
        diag = op.diag
        order = _lowest_indices(diag, k)
        vecs = None
        if keep_vectors:  # unit vectors, placed by rank
            vecs = np.zeros((n, k))
            vecs[op.order[order], np.arange(k)] = 1.0
        vals = diag[order].astype(float)
        return SpectrumRecord(vals, np.zeros(k), "dense", group_multiplicities(vals), vecs)
    from scipy.linalg import eigh

    H = op.to_dense()
    vals, V = eigh(H)
    vals, V = vals[:k], V[:, :k]
    residuals = np.empty(k)
    for start in range(0, k, 512):
        stop = min(start + 512, k)
        block = H @ V[:, start:stop] - V[:, start:stop] * vals[start:stop]
        residuals[start:stop] = np.linalg.norm(block, axis=0)
    return SpectrumRecord(vals, residuals, "dense", group_multiplicities(vals),
                          _by_rank(op, V) if keep_vectors else None)


class LanczosError(RuntimeError):
    """Lanczos did not converge."""


# ARPACK tolerance of a confirmation probe: after a filtered 3-pair run on the
# 411k sector a probe at 1e-3 ended 0.031 above the 3rd value (theta - r)
# after 41 matvecs, where a full-tolerance run takes 131
CONFIRM_TOL = 1e-3
# filter degree: the 4-pair run that settles the 411k sector (k = 3, one BLAS
# thread, seeds 11 to 13, ncv 14) took 172-200 / 196 / 196 / 234 / 280 matvecs
# and a median 3.0 / 3.4 / 2.6 / 3.7 / 3.6 s at degree 4 / 6 / 8 / 10 / 12
FILTER_DEGREE = 8
# smallest filtered sector: the largest time ratio filtered / degree 1 of
# lanczos_lowest over k = 3, 6 and delta_inv = 0.1, 0.4, 1 (the median of
# seeds 1 to 3, each a median of 7 or 11 runs, one BLAS thread) was
#   dim    2128  2598  3535  4950  6055  8135  8451  13051  18351  27876
#   ratio  1.41  1.38  1.21  1.17  1.03  1.00  0.99   0.88   0.76   0.79
# (0.028 against 0.048 s at 8135 states, k = 6, delta_inv = 0.4, seed 1), so
# every sector of the J = 3/2, L = 3 sweep (dim <= 2128) stays at degree 1
FILTER_MIN_DIM = 8135
# size of the interlacing submatrix: on the 411k sector 300 states give
# mu_1..mu_4 = 0.0005, 1.121, 1.969, 2.038 against 0, 1.117, 1.958, 2.026 in
# about 0.1 s with the sort; 100 and 600 states cost the same 168 matvecs
CUT_STATES = 300
# the cut is mu_j with j >= pooled + want + CUT_MARGIN: margins 3 / 6 / 12 took
# 288 / 168 / 288 matvecs in the 3-pair first run on the 411k sector, and the
# same 196 or 252 matvecs each in the 4-pair run
CUT_MARGIN = 6
# ARPACK basis of the filtered run for k + 1 pairs, at least 2 k + 3: the
# 4-pair run on the 411k sector took
#   ncv                 10    12    14    16    20
#   matvecs, median    204   212   196   220   276   (15 seeds, 11 to 25)
#   solve, median s   3.36  2.92  2.47  3.24  3.86
# and ncv 20 ranged over 172-284 matvecs with the seed, 14 over 196-252.
# Every other run keeps scipy's max(2 want + 1, 20): at delta_inv = 1, k = 6 a
# 6-pair filtered run and its probe took 13.0 / 11.3 / 3.6 s at ncv 14 against
# 12.1 / 10.6 / 3.7 s at 20 (J = 3/2, L = 5, 2M = -11; J = 1, L = 6, 2M = -6
# and -10; seeds 11 to 14 summed)
FILTER_NCV = 14


def _interlacing_bounds(op) -> np.ndarray:
    """Eigenvalues mu_1 <= mu_2 <= ... of H on its CUT_STATES lowest-diagonal
    configurations (a stable sort); by Cauchy interlacing mu_j >= lambda_j(H)."""
    from scipy.linalg import eigh

    rows = np.sort(_lowest_indices(op.diag, CUT_STATES))
    return eigh(op.to_dense(rows), eigvals_only=True)


def _interlacing_cut(mu: np.ndarray, index: int, hi: float, sep: float):
    """A filter cut strictly above the ``index`` lowest eigenvalues of H, or None.

    The cut is the first mu_j of the interlacing bounds ``mu`` with
    j >= index + CUT_MARGIN that exceeds mu_index by more than ``sep``, so it
    lies above lambda_index; None when there is no such mu_j below hi - sep.
    """
    if index + CUT_MARGIN > mu.size:
        return None
    above = mu[index + CUT_MARGIN - 1:]
    above = above[above > mu[index - 1] + sep]
    if above.size == 0 or above[0] >= hi - sep:
        return None
    return float(above[0])


def _lanczos_sweep(op, want: int, tol_abs: float, max_iter: int, rng, pool_vals: list,
                   pool_vecs: np.ndarray, scale: float, *, probe_tol: float | None = None,
                   cut: float | None = None, ncv: int | None = None):
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
    and every value below c above 1.  ARPACK keeps ``ncv`` Krylov vectors,
    scipy's max(2 want + 1, 20) when None, and draws its start vector and any
    restart vector from ``rng``.  Returns (values, vectors, residuals)
    for the ``want`` lowest pairs, with Rayleigh quotients of H and explicit
    residuals, or None when ARPACK did not converge within ``max_iter``
    restarts or a residual exceeds tol_abs.  A probe (``probe_tol`` given)
    runs ARPACK at that tolerance and has no residual cap.
    """
    from scipy.linalg.blas import daxpy, dgemv
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

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
        _, X = eigsh(A, k=want, which="LA", ncv=ncv, maxiter=max_iter, tol=tol, rng=rng)
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


def lanczos_lowest(op: SectorOperator, k: int, seed: int = 0,
                   keep_vectors: bool = False) -> SpectrumRecord:
    """The k lowest eigenvalues (with multiplicity) by deflated Lanczos.

    Deterministic for a fixed seed: start vectors come from one PCG64 stream.
    Residuals of all returned pairs are at most TOL * (1 + max row sum).
    Each ARPACK run is capped at min(dim, max(300, 20 k)) restarts, and a
    solve that has not settled the window after 2 k + 8 runs raises.

    One rule settles the window.  When hop_scale lies more than CLUSTER_TOL
    from 0 and from 1 and k + 1 < dim, the first run asks for k + 1 pairs.
    If it converges with every residual certified, its (k + 1)-th value is
    the complement's minimum, so the solve ends and that pair is never
    returned.  On the bands, or when that run fails, each confirmation run
    after k values are pooled is a probe at CONFIRM_TOL for the lowest value
    of the complement.  Its Rayleigh quotient theta and explicit residual r
    stop the solve when theta - r is at least the k-th value minus the
    cluster band.  Otherwise, or when the probe does not converge, a
    full-tolerance run in the same complement is pooled and the same rule is
    applied to its value.

    Neither the extra pair nor a probe proves that the complement holds
    nothing lower: ARPACK may converge to a higher eigenvalue when the start
    vector barely overlaps a lower one, or find one copy of a degenerate
    value.  Exact pairs are why the bands keep the probe.  At hop_scale 1 the
    kink chain is F + h1, the SU(2)-invariant free chain, whose
    reflection-symmetric sectors hold them (J = 1, L = 2, 2M = -6 and -4);
    hop_scale 0 is the Ising limit, whose levels are degenerate.  At
    delta_inv = 1 - e the chain moves off F + h1 by e h1 and by sqrt(2 e)
    times the boundary term, so those pairs split slowly.

    On sectors of at least FILTER_MIN_DIM states every full-tolerance run is
    Chebyshev filtered, with its cut at index pooled + asked (the extra pair
    counted) in the interlacing bounds, computed once per call
    (``_interlacing_cut``): removing the pooled values leaves the i-th value
    of the spectrum at most lambda_{pooled+i}(H), so every wanted value lies
    below the cut.  A filtered run for k + 1 pairs keeps FILTER_NCV Krylov
    vectors (at least 2 k + 3), every other run scipy's default.  A run with
    no cut below |H|_inf runs at degree 1; a failed run that asked for the
    extra pair or had a cut is repeated at degree 1 for the pairs it wanted,
    probe to follow.  Probes run at degree 1: a filtered probe cannot stop
    before ncv steps of FILTER_DEGREE matvecs each (168 matvecs against 41
    on the 411k sector).
    """
    n = op.dim
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < dim, got k={k}, dim={n}")
    scale = 1.0 + op.inf_norm()
    tol_abs = TOL * scale
    max_iter = min(n, max(300, 20 * k))
    rng = np.random.default_rng(seed)
    pool_vals: list = []
    pool_vecs = np.empty((n, 0))
    pool_res: list = []
    max_sweeps = 2 * k + 8
    mu = _interlacing_bounds(op) if n >= FILTER_MIN_DIM else None
    extra = int(k + 1 < n and min(abs(op.hop_scale), abs(op.hop_scale - 1.0)) > CLUSTER_TOL)

    def settled(value: float) -> bool:
        # the complement's minimum can no longer displace the k-th value, so
        # the returned multiset is final (an equal copy changes nothing)
        kth = sorted(pool_vals)[k - 1]
        return value >= kth - CLUSTER_TOL * (1.0 + abs(kth))

    for _ in range(max_sweeps):
        if len(pool_vals) >= k:
            # an eigenvalue of H lies within r of the probe's theta
            probe = _lanczos_sweep(op, 1, tol_abs, max_iter, rng, pool_vals, pool_vecs, scale,
                                   probe_tol=CONFIRM_TOL)
            if probe is not None and settled(probe[0][0] - probe[2][0]):
                break
            del probe
        want = k - len(pool_vals) if len(pool_vals) < k else 1
        cut = None if mu is None else _interlacing_cut(mu, len(pool_vals) + want + extra,
                                                       scale - 1.0, tol_abs)
        ncv = min(n, max(2 * want + 3, FILTER_NCV)) if extra and cut is not None else None
        got = _lanczos_sweep(op, want + extra, tol_abs, max_iter, rng, pool_vals, pool_vecs,
                             scale, cut=cut, ncv=ncv)
        if got is None and (extra or cut is not None):
            # the same complement at degree 1 for want pairs, from the next start vector
            extra = 0
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
        # the extra pair is the lowest value above the k pooled below it; else
        # the sweep minimum is the smallest eigenvalue left in the complement
        if extra or len(pool_vals) >= n or settled(float(new_vals.min())):
            break
    else:
        raise LanczosError(f"window not settled within {max_sweeps} runs")

    order = np.argsort(np.asarray(pool_vals), kind="stable")[:k]
    vals = np.asarray(pool_vals)[order]
    res = np.asarray(pool_res)[order]
    vecs = None
    if keep_vectors:
        vecs = _by_rank(op, pool_vecs[:, order])
    return SpectrumRecord(vals, res, "lanczos", group_multiplicities(vals), vecs)


def _dense_route(n: int, k: int) -> bool:
    return n <= DENSE_MAX or k >= n


def solve_bytes(n: int, k: int) -> int:
    """Bytes that solve_lowest allocates for the k lowest pairs of an n-state
    sector with hopping: on the dense route H, eigh's copy of it, the
    eigenvectors and LAPACK's O(n) workspace; else ARPACK's basis of
    max(2k + 3, 20) vectors (a run for k + 1 pairs), the equal-size block
    scipy allocates to extract Ritz vectors from it, ARPACK's four-vector
    workspace, k + 1 returned or pooled vectors and one operator temporary."""
    if _dense_route(n, k):
        # dense_spectrum(op, n) grew ru_maxrss by 106 / 157 / 289 / 564 MiB at
        # n = 2128 / 2598 / 3535 / 4950 (one BLAS thread): 3.07 / 3.04 / 3.03 /
        # 3.02 n^2 doubles, all below 3 n^2 + 200 n
        return (3 * n + 200) * n * 8
    # tracemalloc peaks: eigsh alone 2 ncv + 4 + k n-vectors; lanczos_lowest at
    # k = 6 on 27 876 states 51.04 (degree 1) and 41.1 (filtered) of these 52
    return n * (2 * max(2 * k + 3, 20) + k + 6) * 8


def solve_lowest(op: SectorOperator, k: int, seed: int = 0,
                 keep_vectors: bool = False) -> SpectrumRecord:
    """The k lowest pairs: diagonal-only operators and sectors of at most DENSE_MAX
    states, or with k >= dim, take dense_spectrum; all others deflated Lanczos."""
    k = int(k)
    if k < 1:
        raise ValueError("need k >= 1")
    if op.diagonal_only or _dense_route(op.dim, k):
        return dense_spectrum(op, k, keep_vectors=keep_vectors)
    return lanczos_lowest(op, k, seed=seed, keep_vectors=keep_vectors)
