import json

import pytest

import xxzkink.sweep
from xxzkink.checks import verify_ising_theorems
from xxzkink.eigensolver import lanczos_lowest
from xxzkink.halfint import HalfInt
from xxzkink.sweep import (
    SweepPlan,
    all_ok,
    profile_table,
    rows_to_csv,
    run_sweep,
    spectrum_rows,
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
    rows = spectrum_rows(3, 3, -3, 0.0, k=4)
    assert [r["eigenvalue"] for r in rows] == [0.0, 1.0, 3.0, 3.0]
    assert [r["multiplicity_cluster"] for r in rows] == [1, 1, 2, 2]


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


def test_emit_profile_writes_csv(tmp_path):
    from xxzkink.sweep import emit_profile

    out = tmp_path / "profile.csv"
    emit_profile(H(3), 2, H(-3), 2.5, str(out))
    lines = out.read_text().strip().split("\n")
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
