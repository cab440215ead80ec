import csv
import json
import os
import subprocess
import sys
import time
import tracemalloc
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
    # M = 13/2 is the mirror of -13/2: its rows differ in two_m alone
    assert [dict(r, two_m="-13") for r in rows if r["two_m"] == "13"] == rows[:9]
    assert all(r["two_m"] == "-13" for r in rows[:9])


def test_sweep_json_plan_echo(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(
        ["sweep", "-J", "1", "-L", "2", "--all-sectors", "--delta", "2.5,10",
         "--k", "1", "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    # no solver tolerance is echoed: TOL and CLUSTER_TOL are constants
    assert list(payload["plan"]) == ["two_j", "L", "two_m_list", "delta_inv_grid", "k", "seed"]
    assert payload["plan"]["two_j"] == 1
    assert payload["plan"]["delta_inv_grid"] == [0.4, 0.1]
    assert len(payload["rows"]) == 6 * 2  # six sectors of the spin-1/2 chain, two grid points
    assert all(r["status"] == "ok" for r in payload["rows"])
    assert all(abs(r["eigenvalue"]) < 1e-9 for r in payload["rows"])  # k=1: ground is 0


def test_ising_check_exit_codes(capsys, tmp_path):
    assert main(["ising-check", "-J", "1", "-L", "2"]) == 0
    assert "all sectors pass" in capsys.readouterr().out
    # a JSON payload on stdout leaves the report to stderr
    assert main(["ising-check", "-J", "1", "-L", "1", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["passed"] is True
    assert "all sectors pass" in captured.err
    out = tmp_path / "check.json"
    assert main(["ising-check", "-J", "4", "-L", "2", "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    doublet = next(s for s in payload["sectors"] if s["two_m"] == 0)
    assert doublet["predicted_low"] == {"0": 1, "3": 2}


@pytest.mark.parametrize("argv, name", [
    (["ising-check", "-J", "2", "-L", "3"], "ising_check_J2_L3.csv"),
    (["certify", "-J", "3/2", "-L", "3"], "certify_J3-2_L3.json"),
    (["ising-check", "-J", "5/2", "-L", "4", "--budget", "20000000"], "ising_check_J5-2_L4.csv"),
    (["certify", "-J", "5/2", "-L", "4"], "certify_J5-2_L4.json"),
])
def test_cli_reproduces_the_recorded_outputs(capsys, tmp_path, argv, name):
    # tests/data holds these outputs as recorded, the last two those of the
    # benchmark's ising_limits commands; any byte of drift fails
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


@pytest.mark.parametrize("spin, sectors", [("3/2", 124), ("5/2", 206)])
def test_ising_check_at_length_20(capsys, spin, sectors):
    # (2J + 1)^41 states, so the budget is raised above the default; the
    # checks read only the rows with E(c) <= 2J of each sector
    J = HalfInt(parse_doubled(spin))
    argv = ["ising-check", "-J", spin, "-L", "20", "--budget", str(10**40), "--format", "json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.endswith("all sectors pass\n")
    payload = json.loads(captured.out)
    assert payload["passed"] is True
    assert len(payload["sectors"]) == sectors
    by_two_m = {s["two_m"]: s for s in payload["sectors"]}
    for two_m in (-41 * J.twice, 2 - 41 * J.twice, -1, 1, 7, 41 * J.twice - 4):
        assert by_two_m[two_m]["dim"] == sector_dimension(J, 20, HalfInt(two_m)), two_m


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
    assert entry["isolation"] == 1
    assert entry["simple_dominates"] is True


@pytest.mark.parametrize("spin", ["5/2", "3/2"])
def test_certificates_do_not_depend_on_the_length(capsys, spin):
    # every isolation distance is exact at every L; the lowest levels of each
    # certified sector sit where they sit at L = 4
    lists = []
    for L in ("4", "6", "20"):
        main(["certify", "-J", spin, "-L", L])
        lists.append(json.loads(capsys.readouterr().out)["certificates"])
    assert lists[0] and lists[0] == lists[1] == lists[2]


def test_certify_spin_half_margin_not_applicable(capsys):
    assert main(["certify", "-J", "1/2", "-L", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["margin_ok"] is None
    assert payload["certificates"] == []




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


def _refused(capsys, argv, message):
    # parsed, then refused by the program: one error line, exit 2
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    return err


def test_profile_needs_exactly_one_sector(capsys):
    for sectors, message in ((["--all-sectors"], "the following arguments are required: --two-m"),
                             (["--two-m=1,3"], "'1,3' is not a half-integer")):
        _rejected(capsys, ["profile", "-J", "3/2", "-L", "2", *sectors, "--delta", "2.5"], message)


SOLVER_COMMANDS = (
    ["spectrum", "-J", "3/2", "-L", "3", "--two-m=-3/2", "--delta-inv", "0.4"],
    ["sweep", "-J", "3/2", "-L", "3", "--two-m=-3/2", "--delta-inv", "0:0.4:3"],
    ["profile", "-J", "3/2", "-L", "3", "--two-m=-3/2", "--delta", "2.5"],
)


def test_negative_seed_is_rejected(capsys):
    for command in SOLVER_COMMANDS:
        _rejected(capsys, [*command, "--seed=-1"], "seed must be >= 0, got -1")


def test_route_flags_are_gone(capsys):
    # the solver's tolerances are the constants TOL and CLUSTER_TOL
    for command in SOLVER_COMMANDS:
        for flag in (["--solver", "lanczos"], ["--dense-cap", "10"], ["--tol", "1e-8"],
                     ["--cluster-tol", "1e-6"]):
            _rejected(capsys, [*command, *flag], "unrecognized arguments")


def test_unread_flags_are_gone(capsys):
    profile, certify = SOLVER_COMMANDS[2], ["certify", "-J", "3/2", "-L", "2"]
    for argv in ([*profile, "--all-sectors"], [*profile, "--format", "json"],
                 [*profile, "--k", "99"], [*certify, "--format", "csv"]):
        _rejected(capsys, argv, "unrecognized arguments")


def test_huge_half_integer_is_rejected(capsys):
    # read exactly as fractions (no float overflow), then refused above
    # 2**63 - 1, so that no later message has to print them
    for flags in (["-J", "1e400", "--two-m=1/2"], ["-J", "3/2", "--two-m=1e400"],
                  ["-J", "1e5000", "--two-m=1/2"], ["-J", "3/2", "--two-m=1e5000"],
                  ["-J", "18446744073709551616/1", "--two-m=1/2"]):
        _rejected(capsys, ["spectrum", *flags, "-L", "2", "--delta-inv", "0.4"],
                  "exceeds the doubled-value limit 9223372036854775807")
    _rejected(capsys, ["spectrum", "-J", "1e-400", "-L", "2", "--two-m=1", "--delta-inv", "0"],
              "'1e-400' is not a half-integer")


def test_grid_count_is_bounded(capsys):
    for grid, message in (("0:0.4:100000000000",
                           "grid count must lie in [1, 10000], got 100000000000"),
                          ("0:1", "grid must be start:stop:count")):
        _rejected(capsys, ["sweep", "-J", "3/2", "-L", "2", "--two-m=1/2", "--delta-inv", grid],
                  message)


def test_oversized_chain_is_refused_before_any_table(capsys):
    # a 40001 x 20001 counting table: refused before it is allocated
    _refused(capsys,
             ["spectrum", "-J", "1/2", "-L", "20000", "--two-m=1/2", "--delta-inv", "0.4"],
             "the counting table of 40001 sites")
    # 9 M additions, but of integers of up to 3001 bits: 812 MiB and 5.8 s a table
    _refused(capsys,
             ["spectrum", "-J", "1/2", "-L", "1500", "--two-m=1/2", "--delta-inv", "0.4"],
             "the counting table of 3001 sites")


def test_huge_sectors_are_refused_on_their_dimension(capsys):
    # both tables pass the step guard; the dimensions have about 420 and 300 digits
    for L in ("700", "500"):
        err = _refused(capsys,
                       ["spectrum", "-J", "1/2", "-L", L, "--two-m=1/2", "--delta-inv", "0.4"],
                       "sector two_m=1 has more than the limit of 50000000 states")
        assert len(err) < 200


def test_huge_decimal_exponents_are_rejected_quickly(capsys):
    # Fraction would compute 10**30000000 before any check
    for spin, message in (("1e30000000", "exceeds the doubled-value limit"),
                          ("1e-30000000", "is not a half-integer")):
        start = time.perf_counter()
        _rejected(capsys, ["spectrum", "-J", spin, "-L", "2", "--two-m=1/2", "--delta-inv", "0.4"],
                  message)
        assert time.perf_counter() - start < 1.0
    assert parse_doubled("0e-30000000") == 0
    assert parse_doubled("15e-1") == 3


def test_each_sector_counts_its_states_at_most_twice(capsys, monkeypatch):
    # once for the memory preflight, once for the basis; of the sweep's 11
    # mirror pairs only the M < 0 sector is built, so 22 + 11 tables, while
    # ising-check reads the dims of all 6 sectors of its chain off one table
    builds = []
    count_table = xxzkink.basis._count_table

    def counted(*args):
        builds.append(args)
        return count_table(*args)

    for module in (xxzkink.basis, xxzkink.checks):  # checks imports it by name
        monkeypatch.setattr(module, "_count_table", counted)
    for argv, tables in (
        (["spectrum", "-J", "3/2", "-L", "3", "--two-m=-3/2", "--delta-inv", "0.4"], 2),
        (["profile", "-J", "3/2", "-L", "3", "--two-m=-3/2", "--delta", "2.5"], 2),
        (["sweep", "-J", "3/2", "-L", "3", "--all-sectors", "--delta-inv", "0:0.4:3"], 33),
        (["ising-check", "-J", "1/2", "-L", "2"], 1),
    ):
        builds.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(builds) == tables, argv


def test_many_sectors_reach_the_table_guard_quickly(capsys):
    # the 20 448 sectors of J = 127/2, L = 80, then a repeat
    sectors = ",".join(map(str, range(-161 * 127, 161 * 127 + 1, 2))) + ",1"
    argv = ["sweep", "-J", "127/2", "-L", "80", "--delta-inv", "0.4"]
    start = time.perf_counter()
    _refused(capsys, [*argv, f"--two-m={sectors}"], "two_m=1 requested twice")
    assert time.perf_counter() - start < 1.0
    _refused(capsys, [*argv, "--all-sectors"], "the counting table of 161 sites")


def test_long_chains_are_refused_quickly(capsys):
    # neither the sector list nor the power 128^(2L+1) is built
    for argv, message in (
        (["spectrum", "-J", "1/2", "-L", "100000000", "--all-sectors", "--delta-inv", "0.4"],
         "the counting table of 200000001 sites"),
        (["ising-check", "-J", "127/2", "-L", "100000000"],
         "state space size 128^200000001 exceeds the exhaustive budget"),
    ):
        start = time.perf_counter()
        _refused(capsys, argv, message)
        assert time.perf_counter() - start < 1.0


def test_ising_check_budget_is_printed_as_a_power(capsys):
    # 2^40001 has 12042 decimal digits, above Python's int-to-str limit
    _refused(capsys, ["ising-check", "-J", "1/2", "-L", "20000"],
             "state space size 2^40001 exceeds the exhaustive budget 10000000")


def test_profile_infinite_delta_is_rejected(capsys):
    assert main(["profile", "-J", "3/2", "-L", "2", "--two-m=-3/2", "--delta", "inf"]) == 2
    err = capsys.readouterr().err
    assert err == "error: anisotropy must be finite with delta >= 1, got inf\n"


def test_memory_preflight_refuses_with_exit_2(capsys, monkeypatch):
    # the limit is pinned, so the outcome does not depend on the machine's memory
    monkeypatch.setattr(xxzkink.sweep, "memory_limit", lambda: 2**30)
    args = ["spectrum", "-J", "3/2", "-L", "4", "--two-m=-3/2", "--delta-inv", "0.4"]
    assert main(args + ["--k", "27000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sector two_m=-3 with k=27000 needs about 28.0 GiB")
    assert err.count("\n") == 1
    # the same sector fits at k = 3
    assert main(args + ["--k", "3"]) == 0


def test_profile_is_preflighted_like_spectrum(capsys, monkeypatch):
    monkeypatch.setattr(xxzkink.sweep, "memory_limit", lambda: 2**27)
    sector = ["-J", "3/2", "-L", "5", "--two-m=-3/2", "--delta", "2.5"]
    errors = []
    for argv in (["spectrum", *sector, "--k", "2"], ["profile", *sector]):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: sector two_m=-3 with k=2 needs about 0.2 GiB")
    assert errors[0].count("\n") == 1


def test_dense_route_is_priced_by_the_preflight(capsys, monkeypatch):
    # 4950 states at k >= dim: about 3 n^2 doubles (0.55 GiB), above 0.5 GiB
    monkeypatch.setattr(xxzkink.sweep, "memory_limit", lambda: 2**29)
    _refused(capsys, ["spectrum", "-J", "3/2", "-L", "4", "--two-m=-13/2", "--delta-inv", "0.4",
                      "--k", "30000"], "sector two_m=-13 with k=30000 needs about 0.6 GiB")


def test_certify_at_the_largest_spin_needs_little_memory(capsys):
    # 4J + 1 blocks of at most 128 rows, where four dense 16384-row matrices
    # would take 8 GiB
    tracemalloc.start()
    try:
        assert main(["certify", "-J", "127/2", "-L", "1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**26
    payload = json.loads(capsys.readouterr().out)
    assert payload["margin_ok"] is True and len(payload["certificates"]) == 646


def test_certify_prices_its_least_completion_table(capsys, tmp_path):
    # 203 is the longest 2J = 5 chain whose sector counting tables fit their limit; the
    # table holds n (n 2J + 1) (2J + 1) int64 cells for n = 2L + 1, so L = 644 is the
    # last under 50 M, and 645 is refused before any cell is allocated
    assert main(["certify", "-J", "5/2", "-L", "203", "--out", str(tmp_path / "c.json")]) == 0
    tracemalloc.start()
    try:
        _refused(capsys, ["certify", "-J", "5/2", "-L", "645"], "needs more than 50000000 cells")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_certify_below_a_threshold_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(xxzkink.cli, "series_margin", lambda *args: 0.0)
    assert main(["certify", "-J", "3/2", "-L", "3"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["margin_ok"] is True and payload["certificates"]
    assert all(c["margin_above_threshold"] == 0.0 for c in payload["certificates"])


def _forbid_basis(monkeypatch):
    """Make building any sweep or ising-check basis fail the test: the refusal
    must come first."""
    def unreachable(*args):
        raise AssertionError("a basis was built before the refusal")

    monkeypatch.setattr(xxzkink.sweep, "SectorBasis", unreachable)
    monkeypatch.setattr(xxzkink.checks, "SectorBasis", unreachable)


def test_unwritable_out_is_refused(capsys, monkeypatch, tmp_path):
    # refused before the 411 334-state solve, and nothing is created
    _forbid_basis(monkeypatch)
    out = tmp_path / "missing" / "x.csv"
    _refused(capsys, ["spectrum", "-J", "3/2", "-L", "5", "--two-m=-3/2", "--delta-inv", "0.4",
                      "--k", "3", "--out", str(out)],
             f"No such file or directory: '{out.parent}'")
    assert not out.parent.exists()


def test_exact_sort_route_is_priced_before_any_basis(capsys, monkeypatch):
    # 18 009 460 int8 rows of 51 digits and the int16 Ising temporaries
    monkeypatch.setattr(xxzkink.sweep, "memory_limit", lambda: 2**31)
    _forbid_basis(monkeypatch)
    _refused(capsys, ["spectrum", "-J", "1/2", "-L", "25", "--two-m=-39", "--delta-inv", "0",
                      "--k", "1"], "sector two_m=-39 needs about 3.7 GiB, above the 2.0 GiB")


def test_ising_limit_sweep_checks_every_sector_before_building(capsys, monkeypatch):
    # two_m=-39 (3.7 GiB) fits this pinned limit, so the outcome does not depend
    # on the machine's memory
    monkeypatch.setattr(xxzkink.sweep, "memory_limit", lambda: 2**40)
    _forbid_basis(monkeypatch)
    _refused(capsys, ["sweep", "-J", "1/2", "-L", "25", "--all-sectors", "--delta-inv", "0",
                      "--k", "1"], "sector two_m=-37 has more than the limit of 50000000 states")


def test_ising_check_reads_only_the_low_rows(capsys, monkeypatch):
    # 2^27 states within the budget, and sector two_m=-5 alone would need about
    # 1.5 GiB as a basis; the checks read only its rows with E(c) <= 2J
    monkeypatch.setattr(xxzkink.sweep, "memory_limit", lambda: 2**30)
    _forbid_basis(monkeypatch)

    def enumerated(*args):
        raise AssertionError("a whole sector was enumerated")

    monkeypatch.setattr(xxzkink.basis, "_enumerate_down", enumerated)
    assert main(["ising-check", "-J", "1/2", "-L", "13", "--budget", "200000000"]) == 0
    assert capsys.readouterr().out.endswith("all sectors pass\n")


def test_repeated_sector_is_rejected(capsys):
    for command in ("spectrum", "sweep"):
        argv = [command, "-J", "1", "-L", "1", "--two-m=1,-1,1", "--delta-inv", "0.4", "--k", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: two_m=1 requested twice\n"


@pytest.mark.parametrize("grid, twice", [("0.4,0.4", "0.4"), ("0.4:0.4:2", "0.4"),
                                         ("0.2,0.4,0.2", "0.2"), ("0,-0", "-0.0")])
def test_repeated_delta_inv_is_rejected(capsys, grid, twice):
    # each copy would run on its own job seed and print its own rows for one job
    argv = ["spectrum", "-J", "3/2", "-L", "3", "--two-m=-13/2", "--delta-inv", grid, "--k", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: delta_inv={twice} requested twice\n"


def test_profile_huge_delta(capsys):
    args = ["profile", "-J", "3/2", "-L", "2", "--two-m=-3/2", "--delta"]
    assert main(args + ["1e200"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    # the zero mode at huge delta is the ground configuration, wall at site 1
    assert [float(r["ground_profile"]) for r in rows] == [-1.5, -1.5, -1.5, 1.5, 1.5]
    assert all(r["first_excited_profile"] for r in rows)
    assert main(args + ["1e308"]) == 2  # q would underflow
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: anisotropy 1e+308 is too large")


def test_spin_above_int8_digit_limit_is_rejected(capsys):
    # -J 128 is the doubled value: spin 64, one past the int8 digits' 2J <= 127
    args = ["spectrum", "-J", "128", "-L", "2", "--two-m=640", "--delta-inv", "0.5", "--k", "1"]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: spin J=64 exceeds the int8 digit limit 2J <= 127\n"
    assert main(["ising-check", "-J", "128", "-L", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "2J <= 127" in err


def test_sector_with_counts_above_64_bits_matches_its_mirror(capsys):
    outs = []
    for two_m in ("-67/2", "67/2"):
        assert main(["spectrum", "-J", "1/2", "-L", "34", f"--two-m={two_m}",
                     "--delta-inv", "0.4", "--k", "3"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.strip().split("\n")))
        outs.append([{k: v for k, v in row.items() if k != "two_m"} for row in rows])
    assert len(outs[0]) == 3 and outs[0] == outs[1]


def test_spectrum_at_half_length_one(capsys):
    # -J 64 is the doubled value (spin 32); 2M = 192 is the polarized L = 1 sector
    args = ["spectrum", "-J", "64", "-L", "1", "--two-m=192", "--delta-inv", "0.5", "--k", "1"]
    assert main(args) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["status"] for r in rows] == ["ok"]


def test_half_length_zero_is_rejected(capsys):
    for args in (
        ["spectrum", "-J", "64", "-L", "0", "--two-m=64", "--delta-inv", "0.5", "--k", "1"],
        ["spectrum", "-J", "64", "-L", "0", "--all-sectors", "--delta-inv", "0.5", "--k", "1"],
        ["ising-check", "-J", "1", "-L", "0"],
        ["profile", "-J", "3/2", "-L", "0", "--two-m=-3/2", "--delta", "2.5"],
        ["certify", "-J", "1/2", "-L", "0"],
    ):
        assert main(args) == 2
        assert capsys.readouterr().err == "error: need L >= 1\n"


@pytest.mark.parametrize("grid", [["--delta-inv", "0:0.4:3"], ["--delta", "2.5,10"]])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_is_the_sweep(capsys, grid, fmt):
    args = ["-J", "3/2", "-L", "3", "--two-m=-3/2", *grid, "--k", "4", "--seed", "1",
            "--format", fmt]
    outs = []
    for command in ("spectrum", "sweep"):
        assert main([command, *args]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_unreachable_sector_is_refused(capsys):
    for command in (["spectrum", "--delta-inv", "0"], ["profile", "--delta", "2.5"]):
        _refused(capsys, [*command, "-J", "3/2", "-L", "2", "--two-m=99"],
                 "two_m=99 labels an unreachable sector")
    # a list that names no sector, or no anisotropy, is refused the same way
    for flags, message in ((["--two-m=,", "--delta-inv", "0"], "no sectors requested"),
                           (["--two-m=1/2", "--delta-inv", ","], "empty anisotropy grid")):
        _refused(capsys, ["sweep", "-J", "3/2", "-L", "2", *flags], message)


def test_memory_error_is_one_error_line(capsys, monkeypatch):
    for exc, line in ((MemoryError("Unable to allocate 1.00 GiB"), "Unable to allocate 1.00 GiB"),
                      (MemoryError(), "MemoryError")):
        def fail(*args, exc=exc):
            raise exc

        monkeypatch.setattr(xxzkink.checks, "low_energy_rows", fail)
        assert _refused(capsys, ["ising-check", "-J", "1", "-L", "2"], line) == f"error: {line}\n"


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
