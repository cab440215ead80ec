import json
import math
import tracemalloc

import numpy as np
import pytest

import xxzkink.eigensolver
import xxzkink.hamiltonian
import xxzkink.sweep
from xxzkink.basis import SectorBasis, reachable_sectors, sector_counts
from xxzkink.checks import verify_ising_theorems
from xxzkink.eigensolver import lanczos_lowest, solve_bytes, solve_lowest
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import (build_sector_operator, half_chain_bytes, hopping_bytes,
                                 hopping_lower, hopping_structure, sector_bytes)
from xxzkink.sweep import (
    PROFILE_FIELDS,
    SweepPlan,
    all_ok,
    profile_table,
    rows_to_csv,
    run_sweep,
    sweep_to_json,
)

H = HalfInt


def small_plan(**overrides):
    kwargs = dict(
        two_j=3,
        L=2,
        two_m_list=(-3, 3),
        delta_inv_grid=(0.0, 0.4),
        k=3,
        seed=1,
    )
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


def test_run_sweep_row_count_and_order():
    plan = small_plan()
    rows = run_sweep(plan)
    assert len(rows) == 2 * 2 * 3
    assert all_ok(rows)
    keys = [(r["two_m"], r["delta_inv"], r["eig_index"]) for r in rows]
    assert keys == sorted(keys, key=lambda t: (plan.two_m_list.index(t[0]), t[1], t[2]))
    for r in rows:
        assert r["band_edge"] == 3
        assert r["residual"] <= 1e-9


def test_run_sweep_deterministic():
    assert run_sweep(small_plan()) == run_sweep(small_plan())


def test_ising_limit_rows():
    rows = run_sweep(SweepPlan(two_j=3, L=3, two_m_list=(-3,), delta_inv_grid=(0.0,), k=4))
    assert [r["eigenvalue"] for r in rows] == [0.0, 1.0, 3.0, 3.0]
    assert [r["multiplicity_cluster"] for r in rows] == [1, 1, 2, 2]


def test_hopping_built_once_per_sector_and_only_off_the_ising_limit(monkeypatch):
    build = xxzkink.hamiltonian.hopping_structure

    # patched where the sweep and the operator assembly look it up
    def patch(fn):
        for module in (xxzkink.sweep, xxzkink.hamiltonian):
            monkeypatch.setattr(module, "hopping_structure", fn)

    def refuse(basis):
        raise AssertionError("hopping built for an all-zero grid")

    patch(refuse)
    assert all_ok(run_sweep(small_plan(delta_inv_grid=(0.0,))))

    calls = []

    def counted(basis):
        calls.append(basis.two_m)
        return build(basis)

    patch(counted)
    # every grid point of a sector shares that sector's one h1 triangle object
    build_op = xxzkink.sweep.build_sector_operator
    shared = {}

    def spied(J, L, M, variant, delta_inv, **kwargs):
        op = build_op(J, L, M, variant, delta_inv, **kwargs)
        shared.setdefault(M.twice, set()).add(id(kwargs["lower"]))
        assert op.lower is kwargs["lower"]
        return op

    monkeypatch.setattr(xxzkink.sweep, "build_sector_operator", spied)
    # 3 reuses the rows of its mirror -3 and builds nothing
    plan = small_plan(two_m_list=(-3, 5, 3), delta_inv_grid=(0.0, 0.2, 0.4))
    assert all_ok(run_sweep(plan))
    assert calls == [-3, 5]
    assert sorted(shared) == [-3, 5]
    assert all(len(ids) == 1 and id(None) not in ids for ids in shared.values())


# the filtered route of the 27 876-state sector, its degree-1 route, and the
# filtered route with h1 applied from the half-chain tables
@pytest.mark.parametrize("min_dim, halves", [
    pytest.param(None, False, id="None"),
    pytest.param(10**9, False, id="1000000000"),
    pytest.param(None, True, id="halves"),
])
def test_a_job_fits_its_preflight_estimate(monkeypatch, min_dim, halves):
    # the sector's shared hopping, operator and k = 6 solve, as run_sweep does them
    J, L, M, k = H(3), 4, H(-3), 6
    if min_dim is not None:
        monkeypatch.setattr(xxzkink.eigensolver, "FILTER_MIN_DIM", min_dim)
    monkeypatch.setattr(xxzkink.hamiltonian, "HALF_CHAIN_MIN_DIM", 0 if halves else 10**9)
    dim, hops = sector_counts(J, L, M)
    hopping = half_chain_bytes(J, L, M) if halves else hopping_bytes(dim, hops)
    need = sector_bytes(dim, 2 * L + 1) + hopping + solve_bytes(dim, k)
    # the preflight admits the job and maps scipy's solvers before anything is built
    assert xxzkink.sweep._preflight(J, L, M, k) == dim
    tracemalloc.start()
    try:
        shared = xxzkink.sweep._shared(J, L, M, dim, True)
        op = build_sector_operator(J, L, M, "kink", 0.4, **shared)
        record = solve_lowest(op, k, seed=np.random.SeedSequence(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 27876 and record.solver == "lanczos"
    assert (op.halves is not None) == halves == ("halves" in shared)
    assert peak <= need


def _on_both_routes(monkeypatch, run):
    """run() with every sector on the triangle, then on the half-chain tables."""
    out = []
    for min_dim in (math.inf, 0):
        monkeypatch.setattr(xxzkink.hamiltonian, "HALF_CHAIN_MIN_DIM", min_dim)
        out.append(run())
    return out


def test_sweeps_agree_on_both_routes(monkeypatch):
    # the Ising limit, dense and Lanczos sectors, and mirror copies
    plan = small_plan(two_j=3, L=3, two_m_list=(-5, -1, 1, 15), delta_inv_grid=(0.0, 0.4, 1.0))
    tri, blk = _on_both_routes(monkeypatch, lambda: run_sweep(plan))
    assert len(tri) == len(blk) and all_ok(blk)
    for a, b in zip(tri, blk):
        assert abs(a["eigenvalue"] - b["eigenvalue"]) <= 1e-12
        assert {**a, "eigenvalue": 0, "residual": 0} == {**b, "eigenvalue": 0, "residual": 0}


def test_a_half_chain_sweep_builds_no_basis(monkeypatch):
    monkeypatch.setattr(xxzkink.hamiltonian, "HALF_CHAIN_MIN_DIM", 0)

    def refuse(*args):
        raise AssertionError("digit rows built on the half-chain route")

    monkeypatch.setattr(xxzkink.sweep, "SectorBasis", refuse)
    assert all_ok(run_sweep(small_plan(two_m_list=(-3, 3), delta_inv_grid=(0.0, 0.4))))


@pytest.mark.parametrize("sector", [(3, 3, -3), (2, 3, 0)])
def test_profiles_agree_on_both_routes(monkeypatch, sector):
    # 1918 and 393 states: Lanczos with eigenvectors, mapped back to ranks
    two_j, L, two_m = sector
    tri, blk = _on_both_routes(monkeypatch, lambda: profile_table(H(two_j), L, H(two_m), 2.5,
                                                                  seed=3))
    for a, b in zip(tri, blk):
        assert a["site"] == b["site"] and a["ground_profile"] == b["ground_profile"]
        assert abs(a["first_excited_profile"] - b["first_excited_profile"]) <= 1e-10


def spy_solves(monkeypatch, fail_on=None):
    """List the two_m of every solve; the job (two_m, delta_inv) fail_on raises."""
    build, solve = xxzkink.sweep.build_sector_operator, xxzkink.sweep.solve_lowest
    job, solved = [], []

    def built(J, L, M, variant, delta_inv, **kwargs):
        job[:] = [M.twice, delta_inv]
        return build(J, L, M, variant, delta_inv, **kwargs)

    def solving(op, k, **kwargs):
        solved.append(job[0])
        if tuple(job) == fail_on:
            raise RuntimeError("injected")
        return solve(op, k, **kwargs)

    monkeypatch.setattr(xxzkink.sweep, "build_sector_operator", built)
    monkeypatch.setattr(xxzkink.sweep, "solve_lowest", solving)
    return solved


def rows_by_sector(rows) -> dict:
    sectors = {}
    for row in rows:
        sectors.setdefault(row["two_m"], []).append(row)
    return sectors


@pytest.mark.parametrize("two_j", [3, 2])
def test_all_sector_sweeps_solve_each_mirror_pair_once(monkeypatch, two_j):
    # J = 1, L = 2 has the self-mirror sector M = 0, J = 3/2 has none
    sectors = tuple(reachable_sectors(H(two_j), 2))
    plan = small_plan(two_j=two_j, two_m_list=sectors)
    solved = spy_solves(monkeypatch)
    rows = run_sweep(plan)
    assert all_ok(rows)
    assert solved == [tm for tm in sectors if tm <= 0 for _ in plan.delta_inv_grid]
    assert (0 in sectors) == (two_j % 2 == 0)
    by_sector = rows_by_sector(rows)
    for tm in sectors:
        if tm > 0:
            assert by_sector[tm] == [dict(row, two_m=tm) for row in by_sector[-tm]]
            # and the copies are the spectrum an independent solve finds
            alone = run_sweep(small_plan(two_j=two_j, two_m_list=(tm,)))
            assert [r["eig_index"] for r in alone] == [r["eig_index"] for r in by_sector[tm]]
            assert all(abs(a["eigenvalue"] - b["eigenvalue"]) <= 1e-12
                       for a, b in zip(alone, by_sector[tm]))


def test_the_first_visited_sector_of_a_pair_is_solved(monkeypatch):
    solved = spy_solves(monkeypatch)
    alone = run_sweep(small_plan(two_m_list=(3,)))
    assert solved == [3, 3]
    solved.clear()
    rows = run_sweep(small_plan(two_m_list=(3, -3)))
    assert solved == [3, 3]
    # 3 keeps the job seeds it has alone, so -3 copies exactly those rows
    assert rows == alone + [dict(row, two_m=-3) for row in alone]


def test_a_failed_sector_is_not_copied_to_its_mirror(monkeypatch):
    solved = spy_solves(monkeypatch, fail_on=(-3, 0.4))
    rows = rows_by_sector(run_sweep(small_plan()))
    assert solved == [-3, -3, 3, 3]
    assert [r["status"] for r in rows[-3]] == ["ok"] * 3 + ["error: RuntimeError: injected"]
    assert all_ok(rows[3]) and len(rows[3]) == 2 * 3
    assert [r["eigenvalue"] for r in rows[3][3:]] == pytest.approx(
        [r["eigenvalue"] for r in run_sweep(small_plan(two_m_list=(3,), delta_inv_grid=(0.4,)))],
        abs=1e-12)


def test_failed_jobs_degrade_to_status_rows(monkeypatch):
    # Lanczos on one-dimensional sectors cannot work; rows must say so
    solve = xxzkink.sweep.solve_lowest

    def lanczos_on_dim_one(op, k, **kwargs):
        return (lanczos_lowest if op.dim == 1 else solve)(op, k, **kwargs)

    monkeypatch.setattr(xxzkink.sweep, "solve_lowest", lanczos_on_dim_one)
    plan = small_plan(two_m_list=(15, 3), k=3)
    rows = run_sweep(plan)
    errors = [r for r in rows if r["status"] != "ok"]
    good = [r for r in rows if r["status"] == "ok"]
    assert len(errors) == 2 and all(r["two_m"] == 15 for r in errors)
    assert all(r["eigenvalue"] is None for r in errors)
    assert all(r["status"].startswith("error: ValueError: need 1 <= k < dim") for r in errors)
    assert len(good) == 2 * 3
    assert not all_ok(rows)


def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(delta_inv_grid=(0.0, 1.5)).validate()
    with pytest.raises(ValueError):
        small_plan(two_m_list=(2,)).validate()  # wrong parity
    with pytest.raises(ValueError):
        small_plan(k=0).validate()


def test_csv_and_json_rendering():
    plan = small_plan(two_m_list=(3,), delta_inv_grid=(0.0,), k=2)
    rows = run_sweep(plan)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "two_j,L,two_m,delta_inv,eig_index,eigenvalue,residual,multiplicity_cluster,band_edge,status"
    assert len(lines) == 1 + len(rows)
    payload = json.loads(sweep_to_json(plan, rows))
    assert payload["plan"]["two_j"] == 3
    assert payload["plan"]["two_m_list"] == [3]
    assert payload["rows"][0]["status"] == "ok"


def test_profile_csv_rendering():
    text = rows_to_csv(profile_table(H(3), 2, H(-3), 2.5), PROFILE_FIELDS)
    lines = text.strip().split("\n")
    assert lines[0] == "site,ground_profile,first_excited_profile"
    assert len(lines) == 1 + 5


def test_profile_table():
    rows = profile_table(H(3), 3, H(-3), 2.5)
    assert [r["site"] for r in rows] == list(range(-3, 4))
    ground = [r["ground_profile"] for r in rows]
    assert ground[0] < -1.4 and ground[-1] > 1.4
    excited = [r["first_excited_profile"] for r in rows]
    assert all(abs(v) <= 1.5 + 1e-9 for v in excited)
    # fully polarized sector: constant ground column, no excited column
    rows = profile_table(H(1), 2, H(5), 2.5)
    assert [r["ground_profile"] for r in rows] == [0.5] * 5
    assert all(r["first_excited_profile"] is None for r in rows)
    with pytest.raises(ValueError):
        profile_table(H(1), 2, H(3), 1.0)


def test_verify_ising_theorems_small_grids():
    report = verify_ising_theorems(H(2), 2)
    assert report.passed
    # no sector of the spin-1 chain has levels strictly inside (0, 2)
    for sector in report.sectors:
        assert set(sector.observed_low) <= {0, 1}
        if 1 in sector.observed_low:
            pass  # level 1 < 2J is allowed (kink excitations)
    report = verify_ising_theorems(H(1), 2)
    assert report.passed
    for sector in report.sectors:
        assert set(sector.observed_low) == {0}  # nothing strictly inside (0, 1)
    report = verify_ising_theorems(H(4), 2)
    assert report.passed
    m0 = next(s for s in report.sectors if s.two_m == 0)
    assert m0.predicted_low == {0: 1, 3: 2} and m0.low_match


def test_verify_budget():
    with pytest.raises(ValueError):
        verify_ising_theorems(H(4), 4, budget=1000)


def test_report_lines_render():
    report = verify_ising_theorems(H(1), 2)
    lines = report.lines()
    assert "all sectors pass" in lines[-1]
    assert len(lines) == len(report.sectors) + 2
