"""Run one xxzkink CLI command in-process with timing spans around each layer.

Usage: python3 traced.py SPAWN_STAMP SPANS_JSON -- ARGV...

SPAWN_STAMP is the parent's ``time.monotonic()`` just before it spawned this
process, so that interpreter start plus ``import xxzkink.cli`` can be timed
the way ``setup_s`` times it.  The wrappers replace the package's public
functions where their callers look them up, record (name, start, end,
parent) spans in memory plus a few counts read off the returned objects, and
everything is written to SPANS_JSON when the command returns.  The process
exits with the command's own exit code.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}

    def count(self, name: str, value, reduce=lambda a, b: a + b) -> None:
        self.counters[name] = reduce(self.counters[name], value) if name in self.counters else value

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = perf_counter()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced


def _basis(tracer, args, kwargs, basis):
    tracer.count("basis.calls", 1)
    tracer.count("basis.states", int(basis.dim))
    table = basis.prefix_counts
    table_bytes = 0 if table is None else int(table.nbytes)
    tracer.count("basis.bytes", int(basis.down.nbytes) + table_bytes)


def _hopping(tracer, args, kwargs, structure):
    tracer.count("hamiltonian.triplet_bytes",
                 int(structure.rows.nbytes + structure.cols.nbytes + structure.values.nbytes))


def _assembly(tracer, args, kwargs, op):
    tracer.count("hamiltonian.nnz", int(op.matrix.nnz))


def _solve(tracer, args, kwargs, record):
    op = args[0]
    tol = kwargs.get("tol", 1e-10)
    tracer.count(f"eigensolver.route_{record.solver}", 1)
    if len(record.residuals):
        ratio = float(max(record.residuals)) / (tol * (1.0 + op.inf_norm()))
        tracer.count("eigensolver.residual_ratio_max", ratio, max)


def _dense(tracer, args, kwargs, record):
    tracer.count("eigensolver.dense_dim_max", int(args[0].dim), max)


def _jobs(tracer, args, kwargs, rows):
    plan = args[0]
    tracer.count("sweep.jobs", len(plan.two_m_list) * len(plan.delta_inv_grid))


def _sectors(tracer, args, kwargs, report):
    tracer.count("checks.sectors", len(report.sectors))


# (module, attribute, span name, count hook); attributes are patched where
# the calling module looks them up, so every call in the pipeline is seen.
HOOKS = (
    ("xxzkink.cli", "run_sweep", "sweep.run", _jobs),
    ("xxzkink.cli", "rows_to_csv", "sweep.emit", None),
    ("xxzkink.cli", "sweep_to_json", "sweep.emit", None),
    ("xxzkink.cli", "_emit", "sweep.emit", None),
    ("xxzkink.cli", "verify_ising_theorems", "checks.verify", _sectors),
    ("xxzkink.cli", "isolation_distance", "ising.isolation", None),
    ("xxzkink.sweep", "SectorBasis", "basis.build", _basis),
    ("xxzkink.checks", "SectorBasis", "basis.build", _basis),
    ("xxzkink.ising", "SectorBasis", "basis.build", _basis),
    ("xxzkink.sweep", "hopping_structure", "hamiltonian.hopping", _hopping),
    ("xxzkink.sweep", "build_sector_operator", "hamiltonian.assembly", _assembly),
    ("xxzkink.checks", "ising_diagonal", "hamiltonian.ising_diagonal", None),
    ("xxzkink.ising", "ising_diagonal", "hamiltonian.ising_diagonal", None),
    ("xxzkink.sweep", "solve_lowest", "eigensolver.solve", _solve),
    ("xxzkink.eigensolver", "dense_spectrum", "eigensolver.dense", _dense),
    ("xxzkink.eigensolver", "lanczos_lowest", "eigensolver.lanczos", None),
    ("xxzkink.hamiltonian", "SectorOperator.matvec", "eigensolver.matvec", None),
)


def install(tracer: Tracer) -> list:
    """Patch every hook that exists; return the ones that could not be found."""
    missing = []
    for module_name, path, span, after in HOOKS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), after))
    return missing


def main() -> int:
    spawn = float(sys.argv[1])
    out_path = sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: traced.py SPAWN_STAMP SPANS_JSON -- ARGV...")
    argv = sys.argv[4:]
    import xxzkink.cli

    import_s = time.monotonic() - spawn
    tracer = Tracer()
    missing = install(tracer)
    code = tracer.wrap("cli.main", xxzkink.cli.main)(argv)
    with open(out_path, "w") as handle:
        json.dump({"import_s": import_s, "exit_code": code, "missing_hooks": missing,
                   "counters": tracer.counters, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
