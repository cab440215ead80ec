import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

import xxzkink.eigensolver
import xxzkink.hamiltonian
import xxzkink.sweep
from xxzkink.basis import reachable_sectors, sector_counts
from xxzkink.checks import verify_ising_theorems
from xxzkink.cli import main
from xxzkink.eigensolver import TOL, LanczosError, lanczos_lowest, solve_bytes, solve_lowest
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import (HalfChains, build_sector_operator, half_chain_bytes,
                                 hopping_bytes, sector_bytes)
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
    # the CSR of h1 is every h1 entry of the sector at once
    pairs = xxzkink.hamiltonian.HalfChains.hop_pairs
    built = []

    def counted(halves, index):
        if index.size == halves.dim:
            built.append(halves.two_m)
        return pairs(halves, index)

    monkeypatch.setattr(xxzkink.hamiltonian.HalfChains, "hop_pairs", counted)
    # every grid point of a sector shares that sector's one HalfChains object
    build_op = xxzkink.sweep.build_sector_operator
    shared = {}

    def spied(J, L, M, variant, delta_inv, **kwargs):
        op = build_op(J, L, M, variant, delta_inv, **kwargs)
        shared.setdefault(M.twice, set()).add(id(kwargs["halves"]))
        assert op.halves is kwargs["halves"]
        return op

    monkeypatch.setattr(xxzkink.sweep, "build_sector_operator", spied)
    # 203 states take Lanczos, whose products build the CSR; 2M = 21 has 1 state
    plan = small_plan(two_j=3, L=3, two_m_list=(-13, 21, 13), delta_inv_grid=(0.0,))
    assert all_ok(run_sweep(plan)) and built == []
    shared.clear()
    # 13 reuses the rows of its mirror -13 and builds nothing
    plan = small_plan(two_j=3, L=3, two_m_list=(-13, 21, 13), delta_inv_grid=(0.0, 0.2, 0.4))
    assert all_ok(run_sweep(plan))
    assert built == [-13]
    assert sorted(shared) == [-13, 21]
    assert all(len(ids) == 1 for ids in shared.values())


def test_an_all_sector_sweep_builds_each_half_table_once(monkeypatch):
    made = []
    half_chain = xxzkink.hamiltonian._half_chain

    def counted(tj, n, u, ways):
        made.append((n, u))
        return half_chain(tj, n, u, ways)

    monkeypatch.setattr(xxzkink.hamiltonian, "_half_chain", counted)
    sectors = reachable_sectors(H(3), 3)
    built = {}
    build = xxzkink.sweep.HalfChains

    def spied(J, L, M, tables):
        built[M.twice] = build(J, L, M, tables)
        return built[M.twice]

    monkeypatch.setattr(xxzkink.sweep, "HalfChains", spied)
    assert all_ok(run_sweep(small_plan(two_j=3, L=3, two_m_list=tuple(sectors))))
    # each table (half length, digit sum) that some solved sector needs, once
    needs = []
    for halves in built.values():
        sums = xxzkink.hamiltonian._half_counts(3, 3, halves.total_down)[0]
        needs += [(3, s) for s in sums] + [(4, halves.total_down - s) for s in sums]
    assert sorted(made) == sorted(set(needs)) and len(made) < len(needs)
    # the shared tables hold the rows and CSRs that a sector builds for itself
    for tm, halves in built.items():
        alone = HalfChains(H(3), 3, H(tm))
        for got, want in ((halves.left, alone.left), (halves.right, alone.right)):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        for got, want in ((halves.left_hop, alone.left_hop), (halves.right_hop, alone.right_hop)):
            assert all((a != b).nnz == 0 for a, b in zip(got, want))


# the filtered route of the 27 876-state sector and its degree-1 route, with
# h1 x from the CSR, and the filtered route with h1 x from the half-chain blocks
@pytest.mark.parametrize("min_dim, halves", [
    pytest.param(None, False, id="None"),
    pytest.param(10**9, False, id="1000000000"),
    pytest.param(None, True, id="halves"),
])
def test_a_job_fits_its_preflight_estimate(monkeypatch, min_dim, halves):
    # the sector's tables, operator and k = 6 solve, as run_sweep does them
    J, L, M, k = H(3), 4, H(-3), 6
    if min_dim is not None:
        monkeypatch.setattr(xxzkink.eigensolver, "FILTER_MIN_DIM", min_dim)
    monkeypatch.setattr(xxzkink.hamiltonian, "HALF_CHAIN_MIN_DIM", 0 if halves else 10**9)
    dim, hops = sector_counts(J, L, M)
    hopping = half_chain_bytes(J, L, M) if halves else hopping_bytes(dim, hops)
    need = sector_bytes(dim, 2 * L + 1) + hopping + solve_bytes(dim, k)
    # the preflight admits the job and maps scipy's solvers before anything is built
    xxzkink.sweep._preflight(J, L, M, k)
    tracemalloc.start()
    try:
        op = build_sector_operator(J, L, M, "kink", 0.4)
        record = solve_lowest(op, k, seed=np.random.SeedSequence(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 27876 and record.solver == "lanczos"
    assert ("csr" in vars(op.halves)) != halves
    assert peak <= need


def _on_both_routes(monkeypatch, run):
    """run() with every product h1 x from the CSR, then from the half-chain blocks."""
    out = []
    for min_dim in (math.inf, 0):
        monkeypatch.setattr(xxzkink.hamiltonian, "HALF_CHAIN_MIN_DIM", min_dim)
        out.append(run())
    return out


def test_sweeps_agree_on_both_routes(monkeypatch):
    # the Ising limit, dense and Lanczos sectors, and mirror copies
    plan = small_plan(two_j=3, L=3, two_m_list=(-5, -1, 1, 15), delta_inv_grid=(0.0, 0.4, 1.0))
    csr, blk = _on_both_routes(monkeypatch, lambda: run_sweep(plan))
    assert len(csr) == len(blk) and all_ok(blk)
    for a, b in zip(csr, blk):
        assert abs(a["eigenvalue"] - b["eigenvalue"]) <= 1e-12
        assert {**a, "eigenvalue": 0, "residual": 0} == {**b, "eigenvalue": 0, "residual": 0}


def _refuse_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("digit rows of a whole sector built by a command")

    monkeypatch.setattr(xxzkink.sweep, "SectorBasis", refuse)


def test_a_half_chain_sweep_builds_no_basis(monkeypatch):
    _refuse_basis(monkeypatch)
    assert all_ok(run_sweep(small_plan(two_m_list=(-3, 3), delta_inv_grid=(0.0, 0.4))))


@pytest.mark.parametrize("sector, solver", [((3, 3, -3), "lanczos"), ((3, 2, -3), "dense")])
def test_a_profile_builds_no_basis(monkeypatch, sector, solver):
    # 1918 and 135 states: the zero mode and the kept eigenvector are both
    # read from the sector's half-chain tables
    _refuse_basis(monkeypatch)
    records = []
    solve = xxzkink.sweep.solve_lowest

    def spy(op, k, **kwargs):
        records.append(solve(op, k, **kwargs))
        return records[-1]

    monkeypatch.setattr(xxzkink.sweep, "solve_lowest", spy)
    two_j, L, two_m = sector
    rows = profile_table(H(two_j), L, H(two_m), 2.5, seed=1)
    assert [record.solver for record in records] == [solver]
    assert [row["site"] for row in rows] == list(range(-L, L + 1))
    assert all(row["first_excited_profile"] is not None for row in rows)


@pytest.mark.parametrize("sector", [(3, 3, -3), (2, 3, 0)])
def test_profiles_agree_on_both_routes(monkeypatch, sector):
    # 1918 and 393 states: Lanczos with eigenvectors in the operator's order
    two_j, L, two_m = sector
    csr, blk = _on_both_routes(monkeypatch, lambda: profile_table(H(two_j), L, H(two_m), 2.5,
                                                                  seed=3))
    for a, b in zip(csr, blk):
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


def test_near_ising_limit_sectors_fall_back_to_dense(capsys, monkeypatch):
    # at delta_inv = 1e-9 Lanczos does not converge on some of these sectors
    # of 728, 1128 and 2128 states, depending on the seed; each such sector
    # then takes the dense solve
    dense = []
    real = xxzkink.sweep.dense_spectrum

    def counted(op, *args, **kwargs):
        dense.append(op.dim)
        return real(op, *args, **kwargs)

    monkeypatch.setattr(xxzkink.sweep, "dense_spectrum", counted)
    bound = {tm: TOL * (1.0 + build_sector_operator(H(3), 3, H(tm), "kink", 1e-9).inf_norm())
             for tm in (-9, -7, -1)}
    for seed in range(3):
        code = main(["spectrum", "-J", "3/2", "-L", "3", "--two-m=-9/2,-7/2,-1/2",
                     "--delta", "1e9", "--k", "3", "--seed", str(seed)])
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert code == 0
        assert len(rows) == 9 and all(r["status"] == "ok" for r in rows)
        assert all(float(r["residual"]) <= bound[int(r["two_m"])] for r in rows)
    assert dense


def _no_convergence(op, k, **kwargs):
    raise LanczosError("no convergence within 300 restarts")


@pytest.mark.parametrize("fits", [True, False])
def test_lanczos_failure_takes_the_dense_solve_that_fits(monkeypatch, fits):
    monkeypatch.setattr(xxzkink.sweep, "solve_lowest", _no_convergence)
    plan = small_plan(L=3, two_m_list=(-9,), delta_inv_grid=(0.4,))
    dim = sector_counts(H(3), 3, H(-9))[0]  # 728 states: priced for Lanczos
    limit = solve_bytes(dim, dim) + (1 if fits else -1)
    # the preflight prices the Lanczos route, far below the dense price
    monkeypatch.setattr(xxzkink.sweep, "memory_limit", lambda: limit)
    rows = run_sweep(plan)
    if fits:
        assert all_ok(rows) and len(rows) == plan.k
        ref = solve_lowest(build_sector_operator(H(3), 3, H(-9), "kink", 0.4), dim)
        assert [r["eigenvalue"] for r in rows] == ref.eigenvalues[:plan.k].tolist()
    else:
        status = "error: LanczosError: no convergence within 300 restarts"
        assert [r["status"] for r in rows] == [status]


def test_profile_falls_back_to_dense_too(monkeypatch):
    J, L, M = H(3), 3, H(-9)  # 728 states, solved by Lanczos
    expected = profile_table(J, L, M, 2.5, seed=1)
    monkeypatch.setattr(xxzkink.sweep, "solve_lowest", _no_convergence)
    got = profile_table(J, L, M, 2.5, seed=1)
    assert [r["ground_profile"] for r in got] == [r["ground_profile"] for r in expected]
    assert np.allclose([r["first_excited_profile"] for r in got],
                       [r["first_excited_profile"] for r in expected], atol=1e-10)


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
