"""Which commands load scipy, and which modules the test oracles and the
certificates import.  Each scipy case runs in a fresh interpreter, since this
process already holds scipy through the other tests."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xxzkink

# runs ARGV through the CLI with stdout swallowed, recording whether
# scipy.sparse.linalg was loaded at each call of sweep.memory_limit, and
# prints the exit code, those records and the loaded scipy modules
CHILD = """
import contextlib, io, json, sys
import xxzkink.cli, xxzkink.sweep

argv = json.loads(sys.argv[1])
seen = []
limit = xxzkink.sweep.memory_limit

def recording():
    seen.append("scipy.sparse.linalg" in sys.modules)
    return limit()

xxzkink.sweep.memory_limit = recording
loaded_on_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = xxzkink.cli.main(argv) if argv else 0
    except SystemExit as exit:
        code = exit.code
print(json.dumps({"code": code, "on_import": loaded_on_import, "seen": seen,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _run(argv) -> dict:
    # the child imports the same package as this test, installed or not
    source = str(Path(xxzkink.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_no_scipy():
    assert _run([]) == {"code": 0, "on_import": [], "seen": [], "scipy": []}


@pytest.mark.parametrize("argv, code", [
    (["ising-check", "-J", "1", "-L", "2"], 0),
    (["--help"], 0),
    (["spectrum", "-J", "nope", "-L", "2", "--two-m=1", "--delta-inv", "0.4"], 2),
    # a plan or a profile refused after parsing is refused before the solver loads
    (["spectrum", "-J", "3/2", "-L", "2", "--two-m=99", "--delta-inv", "0.4"], 2),
    (["profile", "-J", "3/2", "-L", "2", "--two-m=-3/2", "--delta", "0.5"], 2),
    (["profile", "-J", "3/2", "-L", "2", "--two-m=99", "--delta", "2.5"], 2),
])
def test_commands_that_do_not_solve_load_no_scipy(argv, code):
    got = _run(argv)
    assert got["code"] == code
    assert got["scipy"] == []


def test_certify_loads_no_scipy():
    # the two-site blocks go to numpy's eigvalsh, the isolation distances to low_energy_rows
    got = _run(["certify", "-J", "3/2", "-L", "2"])
    assert got["code"] == 0
    assert got["scipy"] == []


@pytest.mark.parametrize("argv", [
    ["spectrum", "-J", "3/2", "-L", "2", "--two-m=-3/2", "--delta-inv", "0.4"],
    ["profile", "-J", "3/2", "-L", "2", "--two-m=-3/2", "--delta", "2.5"],
])
def test_solving_commands_map_scipy_before_the_memory_preflight(argv):
    # memory_limit subtracts the mapped address space, so it must see scipy's
    got = _run(argv)
    assert got["code"] == 0
    assert got["on_import"] == []
    assert got["seen"] and got["seen"][0]


def _imported_modules(path: Path) -> set:
    """Every module a file imports, relative ones with their leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_oracles_and_certificates_keep_their_import_boundary():
    # read from the source, since importing any module runs the package __init__
    oracles = _imported_modules(Path(__file__).with_name("oracles.py"))
    assert not {m for m in oracles if m.split(".")[0] == "xxzkink"}, oracles
    certificates = _imported_modules(Path(xxzkink.__file__).with_name("certificates.py"))
    package = {m for m in certificates if m.startswith(".") or m.split(".")[0] == "xxzkink"}
    assert package == {".halfint"}, certificates
