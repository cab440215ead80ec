import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from rank_order import ranks, reference_kink
import xxzkink.eigensolver
from xxzkink.basis import reachable_sectors, sector_counts
from xxzkink.eigensolver import (
    CONFIRM_TOL,
    DENSE_MAX,
    FILTER_DEGREE,
    FILTER_MIN_DIM,
    LanczosError,
    _interlacing_bounds,
    _interlacing_cut,
    _lanczos_sweep,
    _lowest_indices,
    dense_spectrum,
    group_multiplicities,
    lanczos_lowest,
    solve_bytes,
    solve_lowest,
)
import xxzkink.hamiltonian
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import SectorOperator, build_sector_operator

H = HalfInt


def test_group_multiplicities_examples():
    assert group_multiplicities([0.0, 3.0 - 1e-12, 3.0 + 1e-12], 1e-9) == [(0.0, 1), (3.0, 2)]
    assert group_multiplicities([0.0, 1.0, 1.0, 1.0, 3.0]) == [(0.0, 1), (1.0, 3), (3.0, 1)]
    assert group_multiplicities([]) == []
    with pytest.raises(ValueError):
        group_multiplicities([1.0, 0.0])


def test_cluster_count_nonincreasing_in_tol():
    values = np.sort(np.random.default_rng(5).standard_normal(60))
    counts = [len(group_multiplicities(values, tol)) for tol in (1e-12, 1e-6, 1e-2, 1.0)]
    assert counts == sorted(counts, reverse=True)


def test_dense_diagonal_is_exact():
    op = build_sector_operator(H(1), 2, H(3), "kink", 0.0)
    rec = dense_spectrum(op)
    assert rec.solver == "dense"
    assert np.array_equal(rec.eigenvalues, [0.0, 1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(rec.residuals, np.zeros(5))
    assert rec.clusters == [(0.0, 1), (1.0, 4)]


def test_dense_sort_of_a_large_diagonal_sector():
    # the exact sort of a 4950-state diagonal-only sector builds only the
    # eigenvector columns it returns
    ising = build_sector_operator(H(3), 4, H(-13), "kink", 0.0)
    rec = dense_spectrum(ising, 4, keep_vectors=True)
    assert rec.eigenvectors.shape == (ising.dim, 4)
    for value, v in zip(rec.eigenvalues, rec.eigenvectors.T):
        assert np.array_equal(ising.matvec(v), value * v)


def test_dense_residual_certificates():
    op = build_sector_operator(H(2), 2, H(2), "kink", 0.6)
    rec = dense_spectrum(op)
    assert rec.residuals.max() <= 1e-10 * (1.0 + op.inf_norm())
    assert (np.diff(rec.eigenvalues) >= 0).all()
    assert rec.eigenvalues[0] >= -1e-10  # kink spectra are nonnegative


def test_dense_keep_vectors():
    op = build_sector_operator(H(2), 2, H(0), "kink", 0.3)
    rec = dense_spectrum(op, keep_vectors=True)
    v0 = rec.eigenvectors[:, 0]  # indexed like the operator
    assert np.linalg.norm(op.matvec(v0) - rec.eigenvalues[0] * v0) <= 1e-10


def test_lanczos_matches_dense():
    for two_j, L, dv in ((2, 2, 0.5), (3, 2, 0.4), (1, 3, 0.8), (3, 3, 0.7)):
        for two_m in reachable_sectors(H(two_j), L):
            if not 8 <= sector_counts(H(two_j), L, H(two_m))[0] <= 600:
                continue
            op = build_sector_operator(H(two_j), L, H(two_m), "kink", dv)
            ref = dense_spectrum(op)
            rec = lanczos_lowest(op, 5, seed=2)
            assert np.abs(rec.eigenvalues - ref.eigenvalues[:5]).max() <= 1e-8
            assert [m for _, m in rec.clusters] == [
                m for _, m in group_multiplicities(ref.eigenvalues[:5])]
            assert rec.residuals.max() <= 1e-10 * (1.0 + op.inf_norm())


def test_lanczos_degenerate_cluster():
    op = build_sector_operator(H(4), 2, H(0), "kink", 0.0)
    rec = lanczos_lowest(op, 3, seed=7)
    assert np.allclose(rec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-10)
    assert rec.clusters[1][1] == 2


def test_lanczos_deflation_lifts_past_wide_gap():
    # spectrum {-5, 5 x 34}: the gap exceeds 1 + |H|_inf, so a found pair
    # lifted by less than twice that would sit below the rest and come back
    base = build_sector_operator(H(1), 3, H(1), "kink", 0.5)
    diag = np.full(base.dim, 5.0)
    diag[0] = -5.0
    op = SectorOperator(diag, base.halves, 0.0)
    rec = lanczos_lowest(op, 2, seed=0)
    assert np.allclose(rec.eigenvalues, [-5.0, 5.0], atol=1e-10)


def test_lanczos_ground_state_is_zero_mode():
    op = build_sector_operator(H(2), 2, H(0), "kink", 0.5)
    rec = lanczos_lowest(op, 1, seed=3)
    assert abs(rec.eigenvalues[0]) <= 1e-10 * (1.0 + op.inf_norm())


def test_lanczos_determinism():
    op = build_sector_operator(H(3), 2, H(-1), "kink", 0.4)
    a = lanczos_lowest(op, 4, seed=42)
    b = lanczos_lowest(op, 4, seed=42)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.residuals, b.residuals)


def test_lanczos_reruns_are_byte_identical_through_arpack_restarts():
    # near the Ising limit ARPACK breaks down and asks for fresh restart
    # vectors; they come from the seeded stream, not from OS entropy
    op = build_sector_operator(H(1), 5, H(-7), "kink", 1e-9)
    runs = set()
    for _ in range(5):
        rec = lanczos_lowest(op, 6, seed=1)
        runs.add(rec.eigenvalues.tobytes() + rec.residuals.tobytes())
    assert len(runs) == 1


def test_lanczos_that_never_settles_raises(monkeypatch):
    # probes that never settle and full runs that keep finding lower values
    # use up all 2 k + 8 runs; the unconfirmed window is never returned
    op = build_sector_operator(H(3), 3, H(-13), "kink", 1.0)  # 203 states, no extra pair
    runs = []

    def falling(op, want, tol_abs, max_iter, rng, pool_vals, pool_vecs, scale, *,
                probe_tol=None, cut=None, ncv=None):
        runs.append(want)
        if probe_tol is not None:
            return np.array([-1e9]), np.zeros((op.dim, 1)), [0.0]
        low = -float(len(pool_vals))
        return low - np.arange(want, dtype=float), np.zeros((op.dim, want)), [0.0] * want

    monkeypatch.setattr(xxzkink.eigensolver, "_lanczos_sweep", falling)
    with pytest.raises(LanczosError, match="not settled within 14 runs"):
        lanczos_lowest(op, 3, seed=0)
    # 14 full runs, a probe before each but the first
    assert runs == [3] + [1, 1] * 13


def _spy_on_eigsh(monkeypatch, keys=("tol",)) -> list:
    """Record (k, *kwargs[keys]) of every ARPACK call lanczos_lowest makes."""
    calls = []
    real = scipy.sparse.linalg.eigsh

    def spy(A, k, **kwargs):
        calls.append((k, *(kwargs[key] for key in keys)))
        return real(A, k=k, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return calls


def _spy_on_sweeps(monkeypatch) -> list:
    """Record the Chebyshev degree of every ARPACK run lanczos_lowest makes:
    FILTER_DEGREE when the run is given a cut, else 1."""
    degrees = []
    real = xxzkink.eigensolver._lanczos_sweep

    def spy(*args, cut=None, **kwargs):
        degrees.append(1 if cut is None else FILTER_DEGREE)
        return real(*args, cut=cut, **kwargs)

    monkeypatch.setattr(xxzkink.eigensolver, "_lanczos_sweep", spy)
    return degrees


@pytest.mark.parametrize("delta_inv", [0.4, 1.0])
def test_lanczos_confirms_with_one_loose_probe(monkeypatch, delta_inv):
    calls = _spy_on_eigsh(monkeypatch)
    op = build_sector_operator(H(3), 3, H(-13), "kink", delta_inv)  # 203 states, no cluster
    rec = lanczos_lowest(op, 3, seed=0)
    if delta_inv == 1.0:
        # at the isotropic point the run asks for k and a loose probe follows
        assert [k for k, _ in calls] == [3, 1]
        assert calls[0][1] <= 1e-10 and calls[1][1] == CONFIRM_TOL
    else:
        # elsewhere one run for k + 1 pairs settles the window
        assert [k for k, _ in calls] == [4] and calls[0][1] <= 1e-10
    assert [m for _, m in rec.clusters] == [1, 1, 1]
    assert rec.residuals.max() <= 1e-10 * (1.0 + op.inf_norm())


def test_lanczos_probe_inside_window_runs_full_tolerance(monkeypatch):
    calls = _spy_on_eigsh(monkeypatch)
    op = build_sector_operator(H(4), 2, H(0), "kink", 0.0)
    rec = lanczos_lowest(op, 3, seed=7)
    # the first run misses one copy of 3; the probe finds it inside the
    # window, so a full-tolerance run pools it
    tols = [tol for _, tol in calls]
    assert tols[1] == CONFIRM_TOL and tols[2] <= 1e-10
    assert np.allclose(rec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-10)
    assert rec.clusters[1] == (pytest.approx(3.0, abs=1e-10), 2)


def test_lanczos_nonconvergence_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    op = build_sector_operator(H(3), 3, H(-3), "kink", 0.9)
    with pytest.raises(LanczosError):
        lanczos_lowest(op, 4, seed=0)


def test_lanczos_k_range():
    op = build_sector_operator(H(1), 2, H(5), "kink", 0.5)  # dim 1
    with pytest.raises(ValueError):
        lanczos_lowest(op, 1)


def test_solve_lowest_dispatch():
    small = build_sector_operator(H(2), 2, H(2), "kink", 0.4)  # 45 states
    large = build_sector_operator(H(3), 3, H(-13), "kink", 0.4)  # 203 states
    assert small.dim <= DENSE_MAX < large.dim
    dense = solve_lowest(small, 4)
    lan = solve_lowest(large, 4, seed=5)
    assert dense.solver == "dense"
    assert lan.solver == "lanczos"
    assert np.abs(dense.eigenvalues - lanczos_lowest(small, 4, seed=5).eigenvalues).max() <= 1e-8
    assert np.abs(lan.eigenvalues - dense_spectrum(large).eigenvalues[:4]).max() <= 1e-8
    assert len(dense.eigenvalues) == len(lan.eigenvalues) == 4
    # k >= dim returns every pair of the sector
    assert len(solve_lowest(small, 100).eigenvalues) == small.dim
    # the Ising limit is sorted exactly above DENSE_MAX
    ising = build_sector_operator(H(3), 3, H(-3), "kink", 0.0)  # 1918 states
    assert ising.dim > DENSE_MAX
    exact = solve_lowest(ising, 4)
    assert exact.solver == "dense"
    assert exact.eigenvalues.tolist() == [0.0, 1.0, 3.0, 3.0]
    assert np.array_equal(exact.residuals, np.zeros(4))
    with pytest.raises(ValueError):
        solve_lowest(small, 0)


SMALL_SECTORS = [
    (two_j, L, two_m)
    for two_j in (1, 2, 3, 4)
    for L in (2, 3, 4)
    for two_m in reachable_sectors(H(two_j), L)
    if 8 <= sector_counts(H(two_j), L, H(two_m))[0] <= 400
]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    sector=st.sampled_from(SMALL_SECTORS),
    variant=st.sampled_from(("kink", "antikink")),
    delta_inv=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_lanczos_matches_dense_property(sector, variant, delta_inv, k, seed):
    two_j, L, two_m = sector
    op = build_sector_operator(H(two_j), L, H(two_m), variant, delta_inv)
    ref = dense_spectrum(op).eigenvalues[:k]
    rec = lanczos_lowest(op, k, seed=seed)
    assert np.abs(rec.eigenvalues - ref).max() <= 1e-8
    assert [m for _, m in rec.clusters] == [m for _, m in group_multiplicities(ref)]
    assert rec.residuals.max() <= 1e-10 * (1.0 + op.inf_norm())


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    sector=st.sampled_from(SMALL_SECTORS),
    delta_inv=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    size=st.integers(1, 60),
    index=st.integers(1, 12),
)
# Ising limit of J = 1, L = 3, M = 0: the values 0, 2 x 7, 3 x 8, so mu_8 = lambda_2
@example(sector=(2, 3, 0), delta_inv=0.0, size=60, index=2)
def test_interlacing_bounds_lie_above_the_spectrum(sector, delta_inv, size, index):
    two_j, L, two_m = sector
    op = build_sector_operator(H(two_j), L, H(two_m), "kink", delta_inv)
    exact = dense_spectrum(op).eigenvalues
    hi = op.inf_norm()
    with mock.patch.object(xxzkink.eigensolver, "CUT_STATES", size):
        mu = _interlacing_bounds(op)
    cut = _interlacing_cut(mu, index, hi, 1e-10 * (1.0 + hi))
    assert mu.size == min(size, op.dim)
    assert (mu >= exact[:mu.size] - 1e-12 * (1.0 + hi)).all()
    if cut is not None:
        assert exact[index - 1] < cut < hi


FILTERED = (3, 4, -9)  # 13051 states


def _filtered_sector(delta_inv: float) -> SectorOperator:
    op = build_sector_operator(H(FILTERED[0]), FILTERED[1], H(FILTERED[2]), "kink", delta_inv)
    assert op.dim >= FILTER_MIN_DIM
    return op


@pytest.mark.parametrize("delta_inv", [0.2, 0.4, 0.7])
def test_filtered_lanczos_matches_degree_one(monkeypatch, delta_inv):
    op = _filtered_sector(delta_inv)
    calls = _spy_on_eigsh(monkeypatch)
    degrees = _spy_on_sweeps(monkeypatch)
    rec = lanczos_lowest(op, 6, seed=4)
    # one filtered run for k + 1 pairs settles the window: no probe follows
    assert [k for k, _ in calls] == [7] and degrees == [FILTER_DEGREE]
    assert calls[0][1] <= 1e-10
    monkeypatch.setattr(xxzkink.eigensolver, "FILTER_MIN_DIM", op.dim + 1)
    ref = lanczos_lowest(op, 6, seed=4)
    assert degrees[1] == 1
    assert np.abs(rec.eigenvalues - ref.eigenvalues).max() <= 1e-8
    assert [m for _, m in rec.clusters] == [m for _, m in ref.clusters]
    assert rec.residuals.max() <= 1e-10 * (1.0 + op.inf_norm())


def test_filtered_lanczos_keeps_the_probe_at_the_isotropic_point(monkeypatch):
    # at delta_inv = 1 the chain is the SU(2)-invariant F + h1, whose sectors
    # can hold exact pairs, so an extra Ritz pair proves nothing there
    op = _filtered_sector(1.0)
    assert op.hop_scale == 1.0
    calls = _spy_on_eigsh(monkeypatch)
    degrees = _spy_on_sweeps(monkeypatch)
    rec = lanczos_lowest(op, 6, seed=4)
    assert calls[:2] == [(6, calls[0][1]), (1, CONFIRM_TOL)] and calls[0][1] <= 1e-10
    assert degrees[:2] == [FILTER_DEGREE, 1]
    assert rec.residuals.max() <= 1e-10 * (1.0 + op.inf_norm())


# (2J, L, 2M), k: 18, 30, 203 and 255 states; at delta_inv = 1 the first two
# hold an exact pair inside the window
EXTRA_PAIR_SECTORS = [((4, 1, -2), 5), ((2, 2, -4), 11), ((3, 3, -13), 6), ((4, 2, -6), 6)]


@pytest.mark.parametrize("delta_inv", [0.2, 0.4, 0.7, 1.0 - 1e-9, 1.0])
@pytest.mark.parametrize("sector, k", EXTRA_PAIR_SECTORS)
def test_filtered_extra_pair_matches_dense(monkeypatch, sector, k, delta_inv):
    monkeypatch.setattr(xxzkink.eigensolver, "FILTER_MIN_DIM", 0)
    calls = _spy_on_eigsh(monkeypatch)
    degrees = _spy_on_sweeps(monkeypatch)
    op = build_sector_operator(H(sector[0]), sector[1], H(sector[2]), "kink", delta_inv)
    rec = lanczos_lowest(op, k, seed=4)
    ref = dense_spectrum(op, k)
    if delta_inv == 1.0 and op.dim <= 30:
        assert 2 in [m for _, m in ref.clusters]
    assert np.abs(rec.eigenvalues - ref.eigenvalues).max() <= 1e-8
    assert [m for _, m in rec.clusters] == [m for _, m in ref.clusters]
    assert rec.residuals.max() <= 1e-10 * (1.0 + op.inf_norm())
    if delta_inv < 0.9:
        assert [n for n, _ in calls] == [k + 1] and degrees == [FILTER_DEGREE]
    else:
        # within cluster_tol of the isotropic point the run asks for k and a probe follows
        assert calls[0][0] == k and degrees[0] == FILTER_DEGREE
        assert (1, CONFIRM_TOL) in calls


def test_filtered_lanczos_degenerate_cluster(monkeypatch):
    calls = _spy_on_eigsh(monkeypatch, ("which",))
    degrees = _spy_on_sweeps(monkeypatch)
    monkeypatch.setattr(xxzkink.eigensolver, "FILTER_MIN_DIM", 0)
    test_lanczos_degenerate_cluster()
    # one operator T_p(Y) at both degrees: a filtered first run, then a
    # degree-1 probe in the complement of the three pooled pairs, each
    # asking ARPACK for the largest values
    assert degrees == [FILTER_DEGREE, 1]
    assert [which for _, which in calls] == ["LA", "LA"]


def test_filtered_lanczos_deflation_lifts_past_wide_gap(monkeypatch):
    degrees = _spy_on_sweeps(monkeypatch)
    monkeypatch.setattr(xxzkink.eigensolver, "FILTER_MIN_DIM", 0)
    # {-5, 5 x 34} leaves no cut below |H|_inf = 5, so this runs at degree 1
    test_lanczos_deflation_lifts_past_wide_gap()
    assert set(degrees) == {1}
    # with the 34 values spread over [5, 6] the filter engages
    base = build_sector_operator(H(1), 3, H(1), "kink", 0.5)
    diag = np.concatenate(([-5.0], np.linspace(5.0, 6.0, base.dim - 1)))
    op = SectorOperator(diag, base.halves, 0.0)
    degrees.clear()
    rec = lanczos_lowest(op, 2, seed=0)
    assert degrees[0] == FILTER_DEGREE
    assert np.allclose(rec.eigenvalues, [-5.0, 5.0], atol=1e-10)
    # a filtered run in the complement of the -5 pair moves it to |H|_inf
    # inside the filter interval, so it finds 5 and not -5 again
    scale = 1.0 + op.inf_norm()
    found = np.zeros(op.dim)
    found[0] = 1.0
    vals, _, res = _lanczos_sweep(op, 1, 1e-10 * scale, op.dim, np.random.default_rng(1),
                                  [-5.0], found[:, None], scale, cut=5.5)
    assert vals == pytest.approx([5.0], abs=1e-10) and res[0] <= 1e-10 * scale


# thresholds below and above the 203-state sector: filtered and degree 1
@pytest.mark.parametrize("min_dim", [0, 10000])
def test_filtered_run_without_convergence_repeats_at_degree_one(monkeypatch, min_dim):
    real = scipy.sparse.linalg.eigsh

    def no_convergence_for_the_extra_pair(A, k, **kwargs):
        if k == 4:
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
        return real(A, k=k, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence_for_the_extra_pair)
    calls = _spy_on_eigsh(monkeypatch)
    degrees = _spy_on_sweeps(monkeypatch)
    monkeypatch.setattr(xxzkink.eigensolver, "FILTER_MIN_DIM", min_dim)
    op = build_sector_operator(H(3), 3, H(-13), "kink", 0.4)  # 203 states
    rec = lanczos_lowest(op, 3, seed=0)
    # the run for k + 1 pairs fails, filtered or not; degree 1 asks for k, then probes
    assert degrees == [FILTER_DEGREE if min_dim == 0 else 1, 1, 1]
    assert [k for k, _ in calls] == [4, 3, 1] and calls[2][1] == CONFIRM_TOL
    assert np.abs(rec.eigenvalues - dense_spectrum(op).eigenvalues[:3]).max() <= 1e-8
    assert rec.residuals.max() <= 1e-10 * (1.0 + op.inf_norm())


def test_run_with_an_uncertified_residual_repeats_at_degree_one(monkeypatch):
    # ARPACK's first run returns one Ritz vector perturbed off its eigenvector:
    # its explicit residual fails the cap, so none of that run's pairs is pooled
    real = scipy.sparse.linalg.eigsh
    perturbed = []

    def perturb_once(A, k, **kwargs):
        vals, X = real(A, k=k, **kwargs)
        if not perturbed:
            X = X.copy()
            X[:, 0] += 1e-3 * np.random.default_rng(0).standard_normal(X.shape[0])
            X[:, 0] /= np.linalg.norm(X[:, 0])
            perturbed.append(X[:, 0])
        return vals, X

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturb_once)
    calls = _spy_on_eigsh(monkeypatch)
    found = []
    sweep = xxzkink.eigensolver._lanczos_sweep

    def spy(*args, **kwargs):
        found.append(sweep(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(xxzkink.eigensolver, "_lanczos_sweep", spy)
    op = build_sector_operator(H(3), 3, H(-13), "kink", 0.4)  # 203 states, degree 1
    scale = 1.0 + op.inf_norm()
    rec = lanczos_lowest(op, 3, seed=0)
    x = perturbed[0]
    assert np.linalg.norm(op.matvec(x) - (x @ op.matvec(x)) * x) > 1e-10 * scale
    # the run for k + 1 pairs is dropped; degree 1 asks for k, then probes
    assert found[0] is None and [k for k, _ in calls] == [4, 3, 1]
    assert calls[2][1] == CONFIRM_TOL
    assert np.abs(rec.eigenvalues - dense_spectrum(op).eigenvalues[:3]).max() <= 1e-8
    assert rec.residuals.max() <= 1e-10 * scale


def test_filtered_extra_pair_is_never_returned(monkeypatch):
    op = _filtered_sector(0.4)
    found = []
    real = xxzkink.eigensolver._lanczos_sweep

    def spy(*args, **kwargs):
        got = real(*args, **kwargs)
        found.append(got)
        return got

    monkeypatch.setattr(xxzkink.eigensolver, "_lanczos_sweep", spy)
    rec = lanczos_lowest(op, 6, seed=4, keep_vectors=True)
    (vals, _, res), = found
    order = np.argsort(vals)
    assert vals.size == 7 and rec.eigenvalues.size == 6 and rec.eigenvectors.shape == (op.dim, 6)
    # the 7th value sits above the 6th, outside the window
    assert vals[order[6]] > rec.eigenvalues[-1] + 1e-8
    assert np.array_equal(rec.eigenvalues, vals[order[:6]])
    assert rec.residuals.max() <= 1e-10 * (1.0 + op.inf_norm())
    assert max(res) <= 1e-10 * (1.0 + op.inf_norm())


# thresholds below and above the 13051-state sector: filtered and degree 1
@pytest.mark.parametrize("min_dim", [10000, 10**9])
def test_solve_bytes_bounds_the_lanczos_solve(monkeypatch, min_dim):
    # the filtered run for k + 1 pairs, and the degree-1 run and probe
    op = _filtered_sector(0.4)
    op.halves.csr  # the sector's h1, built on the first product, is not the solve's
    monkeypatch.setattr(xxzkink.eigensolver, "FILTER_MIN_DIM", min_dim)
    tracemalloc.start()
    try:
        lanczos_lowest(op, 6, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= solve_bytes(op.dim, 6)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(values=st.lists(st.integers(-3, 3), min_size=1, max_size=80), k=st.integers(1, 90),
       floats=st.booleans())
def test_lowest_indices_equal_the_stable_argsort(values, k, floats):
    # few distinct values, so most picks are ties broken by the lowest index
    values = np.asarray(values, dtype=float if floats else np.int64)
    got = _lowest_indices(values, k)
    assert np.array_equal(got, np.argsort(values, kind="stable")[:k])


@pytest.mark.parametrize("sector, delta_inv", [((3, 4, -3), 0.4), ((3, 3, -1), 0.4),
                                               ((3, 3, -1), 1.0)])
def test_lanczos_agrees_on_both_routes(monkeypatch, sector, delta_inv):
    # 27 876 states run the filtered first run, 2128 states the degree-1 one;
    # each with h1 x from the CSR, then from the half-chain blocks
    two_j, L, two_m = sector
    records = []
    for min_dim in (math.inf, 0):
        monkeypatch.setattr(xxzkink.hamiltonian, "HALF_CHAIN_MIN_DIM", min_dim)
        op = build_sector_operator(H(two_j), L, H(two_m), "kink", delta_inv)
        records.append((op, lanczos_lowest(op, 4, seed=5, keep_vectors=True)))
    (csr, a), (blk, b) = records
    assert (csr.dim >= FILTER_MIN_DIM) == (sector == (3, 4, -3))
    assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-12
    assert [m for _, m in a.clusters] == [m for _, m in b.clusters]
    # the kept vectors, moved from the operator's index to the rank, are
    # eigenvectors of the rank-order reference
    _, reference = reference_kink(two_j, L, two_m, delta_inv)
    order = ranks(csr.halves)
    for record in (a, b):
        by_rank = np.empty_like(record.eigenvectors)
        by_rank[order] = record.eigenvectors
        for value, vector in zip(record.eigenvalues, by_rank.T):
            assert np.linalg.norm(reference @ vector - value * vector) <= 1e-9 * csr.inf_norm()


def test_every_product_passes_through_matvec(monkeypatch):
    # h1 x only inside SectorOperator.matvec, which the benchmark traces as
    # eigensolver.matvec, except for the one in inf_norm
    counts = {"_hop": 0, "matvec": 0}
    for name in counts:
        real = getattr(SectorOperator, name)

        def counted(self, *args, real=real, name=name, **kwargs):
            counts[name] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SectorOperator, name, counted)
    degrees = _spy_on_sweeps(monkeypatch)
    op = build_sector_operator(H(3), 4, H(-3), "kink", 0.4)  # 27 876 states
    lanczos_lowest(op, 3, seed=1)
    assert FILTER_DEGREE in degrees
    assert counts["matvec"] > 0 and counts["_hop"] == counts["matvec"] + 1
