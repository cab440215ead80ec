import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xxzkink
from xxzkink.basis import sector_dimension
from xxzkink.cli import main, parse_doubled, parse_grid, parse_sector_list
from xxzkink.eigensolver import DENSE_MAX
from xxzkink.halfint import HalfInt


def test_parse_doubled_spellings():
    assert parse_doubled("3") == 3  # bare integers are doubled values
    assert parse_doubled("3/2") == 3
    assert parse_doubled("1.5") == 3
    assert parse_doubled("-3/2") == -3
    assert parse_doubled("-2.5") == -5
    assert parse_doubled("2") == 2
    with pytest.raises(Exception):
        parse_doubled("0.3")


def test_parse_grid_and_sectors():
    assert parse_grid("0:1:3") == (0.0, 0.5, 1.0)
    assert parse_grid("0.25") == (0.25,)
    assert parse_grid("0.1,0.2") == (0.1, 0.2)
    assert parse_sector_list("-3,3/2,1.5") == (-3, 3, 3)


def test_spectrum_stdout(capsys):
    code = main(
        ["spectrum", "-J", "3/2", "-L", "3", "--two-m=-3/2", "--delta-inv", "0", "--k", "4"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    rows = list(csv.DictReader(lines))
    assert [float(r["eigenvalue"]) for r in rows] == [0.0, 1.0, 3.0, 3.0]
    assert rows[0]["status"] == "ok"
    assert rows[0]["band_edge"] == "3"


def test_equivalent_spin_spellings(capsys):
    outs = []
    for spelling in ("3", "3/2", "1.5"):
        assert main(
            ["spectrum", "-J", spelling, "-L", "2", "--two-m=3/2", "--delta-inv", "0.4", "--k", "2"]
        ) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_sweep_file_byte_identical_rerun(tmp_path):
    # 203-state sectors: the delta_inv > 0 jobs take the seeded Lanczos route
    assert sector_dimension(HalfInt(3), 3, HalfInt(-13)) > DENSE_MAX
    args = [
        "sweep", "-J", "3/2", "-L", "3", "--two-m=-13/2,13/2", "--delta-inv", "0:0.4:3",
        "--k", "3", "--seed", "7",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.DictReader(out1.read_text().split("\n")))
    assert len(rows) == 2 * 3 * 3


def test_sweep_json_plan_echo(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(
        ["sweep", "-J", "1", "-L", "2", "--all-sectors", "--delta", "2.5,10",
         "--k", "1", "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["plan"]["two_j"] == 1
    assert payload["plan"]["delta_inv_grid"] == [0.4, 0.1]
    assert len(payload["rows"]) == 6 * 2  # six sectors of the spin-1/2 chain, two grid points
    assert all(r["status"] == "ok" for r in payload["rows"])
    assert all(abs(r["eigenvalue"]) < 1e-9 for r in payload["rows"])  # k=1: ground is 0


def test_ising_check_exit_codes(capsys, tmp_path):
    assert main(["ising-check", "-J", "1", "-L", "2"]) == 0
    assert "all sectors pass" in capsys.readouterr().out
    out = tmp_path / "check.json"
    assert main(["ising-check", "-J", "4", "-L", "2", "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    doublet = next(s for s in payload["sectors"] if s["two_m"] == 0)
    assert doublet["predicted_low"] == {"0": 1, "3": 2}


def test_ising_check_budget_error(capsys):
    assert main(["ising-check", "-J", "6", "-L", "4"]) == 2  # 7^9 states, over budget
    assert "error" in capsys.readouterr().err


def test_profile_csv(tmp_path):
    out = tmp_path / "profile.csv"
    assert main(
        ["profile", "-J", "3/2", "-L", "3", "--two-m=-3/2", "--delta", "2.5", "--out", str(out)]
    ) == 0
    rows = list(csv.DictReader(out.read_text().split("\n")))
    assert len(rows) == 7
    assert [r["site"] for r in rows] == [str(a) for a in range(-3, 4)]
    ground = [float(r["ground_profile"]) for r in rows]
    excited = [float(r["first_excited_profile"]) for r in rows]
    assert ground[0] < -1.4 and ground[-1] > 1.4
    assert all(abs(v) <= 1.5 + 1e-9 for v in ground + excited)


def test_certify_json(capsys):
    assert main(["certify", "-J", "3/2", "-L", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["margin_ok"] is True
    entry = next(
        c for c in payload["certificates"] if c["two_m"] == -3 and c["sign"] == "+"
    )
    assert entry["c1"] == pytest.approx(39.0, abs=1e-12)
    assert entry["c2"] == pytest.approx(9.0, abs=1e-12)
    assert entry["isolation"] == 1 and entry["isolation_exact"] is True
    assert entry["simple_dominates"] is True


def test_certify_spin_half_margin_not_applicable(capsys):
    assert main(["certify", "-J", "1/2", "-L", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["margin_ok"] is None
    assert payload["certificates"] == []


def test_profile_needs_exactly_one_sector(capsys):
    for sectors in (["--all-sectors"], ["--two-m=1,3"]):
        assert main(["profile", "-J", "3/2", "-L", "2", *sectors, "--delta", "2.5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: profile takes exactly one sector: --two-m=M2\n"


def test_spectrum_delta_below_one_is_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "-J", "3/2", "-L", "2", "--two-m=3/2", "--delta", "0"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "delta must be >= 1, got 0.0" in err and "Traceback" not in err


def _rejected(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


SOLVER_COMMANDS = (
    ["spectrum", "-J", "3/2", "-L", "3", "--two-m=-3/2", "--delta-inv", "0.4"],
    ["sweep", "-J", "3/2", "-L", "3", "--two-m=-3/2", "--delta-inv", "0:0.4:3"],
    ["profile", "-J", "3/2", "-L", "3", "--two-m=-3/2", "--delta", "2.5"],
)


def test_bad_tol_is_rejected(capsys):
    for command in SOLVER_COMMANDS:
        for tol in ("inf", "0", "-1", "nan", "1"):
            _rejected(capsys, [*command, f"--tol={tol}"], "tol must satisfy 0 < tol < 1")


def test_bad_cluster_tol_is_rejected(capsys):
    for command in SOLVER_COMMANDS:
        for tol in ("nan", "inf", "-1e-8"):
            _rejected(capsys, [*command, f"--cluster-tol={tol}"],
                      "cluster-tol must be finite and >= 0")


def test_negative_seed_is_rejected(capsys):
    for command in SOLVER_COMMANDS:
        _rejected(capsys, [*command, "--seed=-1"], "seed must be >= 0, got -1")


def test_route_flags_are_gone(capsys):
    for flag in (["--solver", "lanczos"], ["--dense-cap", "10"]):
        _rejected(capsys, [*SOLVER_COMMANDS[0], *flag], "unrecognized arguments")


def test_profile_infinite_delta_is_rejected(capsys):
    assert main(["profile", "-J", "3/2", "-L", "2", "--two-m=-3/2", "--delta", "inf"]) == 2
    err = capsys.readouterr().err
    assert err == "error: anisotropy must be finite with delta >= 1, got inf\n"


def test_invalid_arguments_return_error(capsys):
    assert main(["spectrum", "-J", "3/2", "-L", "2", "--two-m=99", "--delta-inv", "0"]) == 2
    assert "error" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["spectrum", "-J", "nope", "-L", "2", "--two-m=1", "--delta-inv", "0"])


def test_console_entry_point():
    # the child imports the same package as this test, installed or not
    source = str(Path(xxzkink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "xxzkink", "spectrum", "-J", "1/2", "-L", "2",
         "--two-m=1/2", "--delta-inv", "0.5", "--k", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("two_j,L,two_m,delta_inv")
