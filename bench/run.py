"""Benchmark: time to a certified spectrum through the xxzkink command line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload's CLI commands one at a time, each in a
fresh child process (a closed loop with one client), with the package taken
from ``src/`` of this checkout and OpenBLAS pinned to one thread.
Repetitions fill a window of S seconds without overrunning it (at least one).  The
outputs are then checked against independent oracles and hashed, and the
last line of standard output is one JSON object with the metrics:

* ``--trace 0``: the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
* ``--trace 1``: additionally one traced repetition (``traced.py``), whose
  spans give the per-layer metrics.

A run whose outputs fail any check reports no timings and exits 1.  Every
file the benchmark writes goes under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from oracles import (  # noqa: E402
    Checks,
    brute_force_sectors,
    check_certificates,
    check_ising_report,
    check_mirror,
    check_reference,
    check_spectrum_rows,
    read_rows,
    sector_dimensions,
)

TOL = 1e-10  # the CLI's default residual tolerance scale
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every child is killed once the run is this old
SWEEP_GRID = (0.0, 0.4, 3)
SECTOR_411K = (3, 5, -3, 0.4, 3)  # (2J, L, 2M, delta_inv, k)

# name -> commands; each command is (label, argv, output file, takes --seed)
WORKLOADS = {
    "sweep_all_sectors": (
        ("sweep", ["sweep", "-J", "3/2", "-L", "3", "--all-sectors",
                   "--delta-inv", "0:0.4:3", "--k", "6"], "sweep.csv", True),
    ),
    "sector_411k": (
        ("spectrum", ["spectrum", "-J", "3/2", "-L", "5", "--two-m=-3/2",
                      "--delta-inv", "0.4", "--k", "3"], "spectrum.csv", True),
    ),
    "ising_limits": (
        ("ising-check", ["ising-check", "-J", "5/2", "-L", "4", "--budget", "20000000"],
         "ising.csv", False),
        ("certify", ["certify", "-J", "5/2", "-L", "4"], "certify.json", False),
    ),
}

# per-layer self times: metric -> span name recorded by traced.py
LAYER_TIMES = {
    "cli.self_s": "cli.main",
    "sweep.run_s": "sweep.run",
    "sweep.emit_s": "sweep.emit",
    "basis.build_s": "basis.build",
    "hamiltonian.hopping_s": "hamiltonian.hopping",
    "hamiltonian.assembly_s": "hamiltonian.assembly",
    "hamiltonian.ising_diagonal_s": "hamiltonian.ising_diagonal",
    "eigensolver.dispatch_s": "eigensolver.solve",
    "eigensolver.dense_s": "eigensolver.dense",
    "eigensolver.lanczos_other_s": "eigensolver.lanczos",
    "eigensolver.matvec_s": "eigensolver.matvec",
    "checks.verify_s": "checks.verify",
    "ising.isolation_s": "ising.isolation",
}
SPAN_COUNTS = {
    "eigensolver.dense_calls": "eigensolver.dense",
    "eigensolver.matvecs": "eigensolver.matvec",
    "ising.isolation_calls": "ising.isolation",
}
# counts read off returned objects by traced.py; byte figures are computed
# from array sizes (nbytes), not measured
COUNTERS = {
    "eigensolver.route_dense": "count",
    "eigensolver.route_lanczos": "count",
    "eigensolver.dense_dim_max": "count",
    "eigensolver.residual_ratio_max": "ratio",
    "hamiltonian.nnz": "count",
    "hamiltonian.triplet_bytes": "B_computed",
    "basis.calls": "count",
    "basis.states": "count",
    "basis.bytes": "B_computed",
    "checks.sectors": "count",
    "sweep.jobs": "count",
}

PROBE = """
import ctypes, glob, json, os, platform, sys
import numpy, scipy, xxzkink.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({"package": xxzkink.cli.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads}))
"""


class RunError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(argv: list, stdout_path: Path, deadline: float) -> tuple:
    """Run one child to completion; (seconds, exit code, rusage)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit():
    """HEAD of this checkout, or None when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, probe: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
        "blas": probe["blas"],
        "blas_threads_env": child_env()["OPENBLAS_NUM_THREADS"],
        "blas_threads_measured": probe["blas_threads"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "byte_figures": "computed from array sizes (nbytes), not measured",
    }


def command_argv(workload: str, seed: int) -> list:
    """(label, argv without --out, output file name) per command."""
    return [(label, list(argv) + (["--seed", str(seed)] if seeded else []), out_name)
            for label, argv, out_name, seeded in WORKLOADS[workload]]


def output_hash(outdir: Path, commands: list) -> str:
    digest = hashlib.sha256()
    for label, _, out_name in commands:
        for path in (outdir / f"{label}.stdout", outdir / out_name):
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return digest.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_rep(commands: list, outdir: Path, deadline: float, checks: Checks) -> dict:
    """One repetition: every command in its own child, back to back."""
    wall = 0.0
    rss = cpu = sys_s = 0.0
    for label, argv, out_name in commands:
        seconds, code, usage = spawn(
            [sys.executable, "-m", "xxzkink", *argv, "--out", str(outdir / out_name)],
            outdir / f"{label}.stdout", deadline)
        wall += seconds
        rss = max(rss, usage.ru_maxrss / 1024.0)
        cpu += usage.ru_utime
        sys_s += usage.ru_stime
        err = (outdir / f"{label}.err").read_text(errors="replace").strip()
        checks.add(f"{label}: exit code", code == 0, f"exit {code}: {err[-300:]}")
    return {"wall_s": wall, "peak_rss_mb": rss, "cpu_s": cpu, "sys_s": sys_s,
            "hash": output_hash(outdir, commands)}


def check_outputs(workload: str, outdir: Path, checks: Checks) -> None:
    if workload == "sweep_all_sectors":
        start, stop, count = SWEEP_GRID
        grid = tuple(float(v) for v in np.linspace(start, stop, count))
        sectors = brute_force_sectors(3, 3, grid, 6)
        spectra = check_spectrum_rows(checks, read_rows(outdir / "sweep.csv"), sectors, 6, TOL,
                                      "sweep")
        checks.add("sweep: job set", sorted(spectra) == sorted(
            (tm, dv) for tm in sectors for dv in grid), f"{len(spectra)} jobs")
        check_mirror(checks, spectra)
    elif workload == "sector_411k":
        with open(BENCH / "reference.json") as handle:
            ref = json.load(handle)["sector_411k"]
        two_j, L, two_m, delta_inv, k = SECTOR_411K
        spectra = check_spectrum_rows(checks, read_rows(outdir / "spectrum.csv"),
                                      {two_m: ref["sector"]}, k, TOL, "spectrum")
        checks.add("spectrum: job set", sorted(spectra) == [(two_m, delta_inv)],
                   str(sorted(spectra)))
        check_reference(checks, spectra.get((two_m, delta_inv), []), ref["eigsh"])
    else:
        check_ising_report(checks, outdir / "ising.csv", sector_dimensions(5, 4))
        check_certificates(checks, outdir / "certify.json", 5, 4)


def check_rerun_hashes(workload: str, seed: int, digest: str, hashes: list, checks: Checks) -> None:
    """Every repetition, and every earlier run of this source and seed, agree."""
    checks.add("reruns: identical outputs", len(set(hashes)) == 1, f"{len(set(hashes))} distinct")
    store = OUT / "hashes.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{digest}:{workload}:{seed}"
    checks.add("reruns: identical to earlier runs", known.get(key, hashes[0]) == hashes[0],
               f"{known.get(key)} != {hashes[0]}")
    known.setdefault(key, hashes[0])
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def self_times(spans: list) -> tuple:
    """Per span name: (summed self seconds, span count)."""
    inner = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    seconds, counts = {}, {}
    for i, (name, start, end, _) in enumerate(spans):
        seconds[name] = seconds.get(name, 0.0) + (end - start) - inner[i]
        counts[name] = counts.get(name, 0) + 1
    return seconds, counts


def traced_rep(commands: list, outdir: Path, deadline: float, checks: Checks) -> dict:
    """One repetition under traced.py; per-layer figures from its spans."""
    wall = 0.0
    seconds, counts, counters, import_s = {}, {}, {}, 0.0
    for label, argv, out_name in commands:
        spans_path = outdir / f"{label}.spans.json"
        stamp = time.monotonic()
        took, code, _ = spawn([sys.executable, str(BENCH / "traced.py"), repr(stamp),
                               str(spans_path), "--", *argv, "--out", str(outdir / out_name)],
                              outdir / f"{label}.stdout", deadline)
        wall += took
        checks.add(f"traced {label}: exit code", code == 0, f"exit {code}")
        if not spans_path.exists():
            checks.add(f"traced {label}: spans written", False, "no span file")
            continue
        trace = json.loads(spans_path.read_text())
        checks.add(f"traced {label}: every hook installed", not trace["missing_hooks"],
                   ", ".join(trace["missing_hooks"]))
        import_s += trace["import_s"]
        s, c = self_times(trace["spans"])
        for name in s:
            seconds[name] = seconds.get(name, 0.0) + s[name]
            counts[name] = counts.get(name, 0) + c[name]
        for name, value in trace["counters"].items():
            merge = max if name.endswith("_max") else (lambda a, b: a + b)
            counters[name] = merge(counters[name], value) if name in counters else value
    return {"wall_s": wall, "import_s": import_s, "self_s": seconds, "span_counts": counts,
            "counters": counters, "hash": output_hash(outdir, commands)}


def layer_metrics(traced: dict, reps: list) -> dict:
    metric = {}
    for name, span in LAYER_TIMES.items():
        metric[name] = (traced["self_s"].get(span, 0.0), "s")
    for name, span in SPAN_COUNTS.items():
        metric[name] = (traced["span_counts"].get(span, 0), "count")
    for name, unit in COUNTERS.items():
        metric[name] = (traced["counters"].get(name, 0), unit)
    untraced_wall = statistics.median(r["wall_s"] for r in reps)
    covered = sum(traced["self_s"].values()) + traced["import_s"]
    metric.update({
        "process.import_s": (traced["import_s"], "s"),
        "process.cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "process.sys_s": (statistics.median(r["sys_s"] for r in reps), "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced_wall, "s"),
        "trace.coverage": (covered / traced["wall_s"], "frac"),
    })
    return metric


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not (SRC / "xxzkink" / "cli.py").is_file():
        raise RunError(f"no package source at {SRC / 'xxzkink'}")
    work = fresh_dir(OUT / "work" / workload)

    # set-up: one untimed start compiles the bytecode and reports versions,
    # then interpreter start plus `import xxzkink.cli` is timed repeatedly
    checks = Checks()
    _, code, _ = spawn([sys.executable, "-c", PROBE], work / "probe.stdout", deadline)
    if code != 0:
        raise RunError("importing xxzkink.cli failed: "
                       + (work / "probe.err").read_text(errors="replace")[-500:])
    probe = json.loads((work / "probe.stdout").read_text())
    if not Path(probe["package"]).resolve().is_relative_to(SRC.resolve()):
        raise RunError(f"xxzkink was imported from {probe['package']}, not from {SRC}")
    env = environment(seed, probe)
    print("env " + json.dumps(env), flush=True)
    setup = [spawn([sys.executable, "-c", "import xxzkink.cli"], work / "setup.stdout",
                   deadline)[0] for _ in range(SETUP_SAMPLES)]

    commands = command_argv(workload, seed)
    reps = []
    measure_start = time.monotonic()
    # repetitions fill the measuring window without overrunning it, so a run
    # lasts about `seconds` unless a single repetition is longer
    while not reps or (time.monotonic() - measure_start
                       + statistics.median(r["wall_s"] for r in reps) <= seconds):
        rep = run_rep(commands, fresh_dir(work / "rep"), deadline, checks)
        reps.append(rep)
        print(f"rep {len(reps)}: wall {rep['wall_s']:.3f} s  "
              f"peak rss {rep['peak_rss_mb']:.0f} MiB  cpu {rep['cpu_s']:.2f} s  "
              f"sys {rep['sys_s']:.2f} s  hash {rep['hash'][:12]}", flush=True)
    try:
        check_outputs(workload, work / "rep", checks)
    except (OSError, KeyError, ValueError) as exc:  # missing or malformed output
        checks.add("outputs readable", False, repr(exc))
    check_rerun_hashes(workload, seed, env["source_sha256"], [r["hash"] for r in reps], checks)

    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MiB"),
    }
    record = {"workload": workload, "env": env, "trace": trace,
              "commands": [argv for _, argv, _ in commands],
              "wall_s_samples": [r["wall_s"] for r in reps], "setup_s_samples": setup,
              "reps": reps}
    if trace:
        traced = traced_rep(commands, fresh_dir(work / "traced"), deadline, checks)
        checks.add("trace fidelity: traced output hash", traced["hash"] == reps[0]["hash"],
                   f"{traced['hash']} != {reps[0]['hash']}")
        layers = layer_metrics(traced, reps)
        metrics.update(layers)
        record["traced"] = traced
        for name, (value, unit) in layers.items():
            print(f"  {name:32s} {value:>14.6g} {unit}")
    record["failed_checks"] = checks.failures
    print(f"checks: {checks.attempted - len(checks.failures)} of {checks.attempted} passed; "
          f"wall_s median of {len(reps)} rep(s), setup_s median of {len(setup)}", flush=True)
    for name, _, detail in checks.failures[:20]:
        print(f"  FAILED {name}: {detail}")
    record["metrics"] = metrics
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    return checks, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        checks, metrics = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = not checks.failures
    if args.trace == 0:
        keep = ("wall_s", "setup_s", "peak_rss_mb")
    else:
        keep = tuple(name for name in metrics if name not in ("wall_s", "setup_s", "peak_rss_mb"))
    print(json.dumps({
        "correct": ok,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in keep}
        if ok else {},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
