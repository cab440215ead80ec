"""What callers outside the package rely on: the benchmark's timing hooks and
its reference call, and the README library example."""

import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from xxzkink import HalfInt, build_sector_operator

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path):
    """A script loaded by path, as the benchmark runs it, without editing it."""
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves():
    # bench/traced.py patches these attributes where the package's callers look them up
    traced = _load(ROOT / "bench" / "traced.py")
    missing = []
    for module_name, path, *_ in traced.HOOKS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{path}")
    assert traced.HOOKS and missing == []


def test_benchmark_reference_call():
    # bench/reference.py builds the kink chain positionally and reads these two
    op = build_sector_operator(HalfInt(3), 2, HalfInt(-3), "kink", 0.4)
    matrix = op.matrix
    assert matrix.nnz == np.count_nonzero(op.diag) + 2 * op.halves.hops > 0
    assert op.inf_norm() == pytest.approx(np.abs(matrix.toarray()).sum(axis=1).max(), rel=1e-14)


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "{0: 1, 1: 1}"
