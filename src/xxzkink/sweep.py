"""Deterministic spectrum sweeps over sectors and anisotropy grids.

Jobs run in (sector, delta_inv, eig_index) order.  Solver seeds are derived
per job index from the plan seed, which makes reruns with identical flags and
seed byte-identical.  Spin flip composed with the reflection alpha -> -alpha
carries sector M onto -M entry for entry, so a sector whose mirror was already
solved in the plan copies that mirror's rows instead of being solved again.
The copy is exact; a separate solve of the mirror agrees to rounding only, as
the split into L and L + 1 sites that orders a sector is not mirror-symmetric
and the two sum in different orders.
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
from dataclasses import asdict, dataclass

import numpy as np

from .basis import SectorBasis, _check_dimension, _sector_shape, sector_counts
from .eigensolver import solve_bytes, solve_lowest
from .groundstate import groundstate_vector, magnetization_profile, profile_from_amplitudes
from .halfint import HalfInt, as_half
from .hamiltonian import (HalfChains, blockwise, build_sector_operator, half_chain_bytes,
                          hopping_bytes, sector_bytes)
from .hamiltonian import hopping_structure  # noqa: F401  (not called here; bench/traced.py hooks it)

SWEEP_FIELDS = (
    "two_j",
    "L",
    "two_m",
    "delta_inv",
    "eig_index",
    "eigenvalue",
    "residual",
    "multiplicity_cluster",
    "band_edge",
    "status",
)

PROFILE_FIELDS = ("site", "ground_profile", "first_excited_profile")


@dataclass
class SweepPlan:
    """Resolved description of one sweep; all half-integers as doubled ints."""

    two_j: int
    L: int
    two_m_list: tuple
    delta_inv_grid: tuple
    k: int = 6
    seed: int = 0

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("need k >= 1")
        if not self.two_m_list:
            raise ValueError("no sectors requested")
        if not self.delta_inv_grid:
            raise ValueError("empty anisotropy grid")
        seen = set()
        for dv in map(float, self.delta_inv_grid):
            if not 0.0 <= dv <= 1.0:
                raise ValueError(f"delta_inv {dv} outside [0, 1]")
            if dv in seen:
                raise ValueError(f"delta_inv={dv} requested twice")
            seen.add(dv)
        seen = set()
        for tm in self.two_m_list:
            if _sector_shape(HalfInt(self.two_j), self.L, HalfInt(tm))[1] is None:
                raise ValueError(f"two_m={tm} labels an unreachable sector")
            if tm in seen:
                raise ValueError(f"two_m={tm} requested twice")
            seen.add(tm)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["two_m_list"] = list(self.two_m_list)
        d["delta_inv_grid"] = list(self.delta_inv_grid)
        return d


def _job_seed(plan_seed: int, job_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=plan_seed, spawn_key=(job_index,))


def _sector_rows(plan: SweepPlan, job_index: int, two_m: int, halves: HalfChains,
                 delta_inv: float) -> list:
    base = {
        "two_j": plan.two_j,
        "L": plan.L,
        "two_m": two_m,
        "delta_inv": delta_inv,
        "band_edge": plan.two_j,
    }
    try:
        op = build_sector_operator(
            HalfInt(plan.two_j), plan.L, HalfInt(two_m), "kink", delta_inv, halves=halves,
        )
        record = solve_lowest(op, plan.k, seed=_job_seed(plan.seed, job_index))
    except Exception as exc:  # job failures degrade to a status row
        row = dict(base)
        row.update(eig_index=None, eigenvalue=None, residual=None,
                   multiplicity_cluster=None, status=f"error: {type(exc).__name__}: {exc}")
        return [row]
    # one cluster size per eigenvalue, in order
    sizes = [count for _, count in record.clusters for _ in range(count)]
    rows = []
    for i, (value, residual, size) in enumerate(zip(record.eigenvalues, record.residuals, sizes)):
        row = dict(base)
        row.update(
            eig_index=i,
            eigenvalue=float(value),
            residual=float(residual),
            multiplicity_cluster=size,
            status="ok",
        )
        rows.append(row)
    return rows


def memory_limit() -> int:
    """Bytes this process may still use: its RLIMIT_AS soft limit less the
    address space it already maps, else physical memory."""
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    page = os.sysconf("SC_PAGE_SIZE")
    if soft != resource.RLIM_INFINITY:
        try:  # the mapped size counts against the limit; /proc is Linux only
            with open("/proc/self/statm") as statm:
                soft -= int(statm.read().split()[0]) * page
        except OSError:
            pass
        return soft
    return page * os.sysconf("SC_PHYS_PAGES")


def check_memory(need: int, what: str) -> None:
    """Refuse work that needs more bytes than this process may use."""
    limit = memory_limit()
    if need > limit:
        raise ValueError(f"{what} needs about {need / 2**30:.1f} GiB, above the "
                         f"{limit / 2**30:.1f} GiB this process may use")


def _preflight(J, L, M, k: int | None) -> None:
    """Refuse, from one counting table, a sector over the dimension limit or
    whose digit rows and diagonal, plus its hopping (the CSR of h1, or from
    HALF_CHAIN_MIN_DIM states on the half tables) and k-pair solve when it
    hops, need more memory than the process may use; k is None when every job
    is a delta_inv = 0 exact sort."""
    # the solver's scipy is mapped before the mapped size is subtracted from RLIMIT_AS
    import scipy.sparse.linalg  # noqa: F401
    dim, hops = sector_counts(J, L, M)
    _check_dimension(dim, M.twice)
    need, what = sector_bytes(dim, 2 * int(L) + 1), f"sector two_m={M.twice}"
    if k is not None:
        hopping = half_chain_bytes(J, L, M) if blockwise(dim) else hopping_bytes(dim, hops)
        need += hopping + solve_bytes(dim, k)
        what += f" with k={k}"
    check_memory(need, what)


def run_sweep(plan: SweepPlan) -> list:
    """All rows of the sweep, in deterministic (sector, delta_inv, eig) order.

    Every sector is checked before the first is built.  Each sector is built,
    run over the whole grid and dropped before the next one.  Its
    ``HalfChains`` are built once and every grid point's operator shares
    them, with the h1 they hold; the half tables themselves are built once
    per sweep, as one dict shared by every sector.  A sector whose mirror -M
    was already solved in the plan, with every row ok, copies that mirror's
    rows with only two_m replaced: the mirror's matrix is a permutation of
    its own, so its eigenvalues, cluster sizes and residuals are the mirror's
    to rounding, and the copy keeps the pair's rows exactly equal.
    """
    plan.validate()  # a refused plan is refused before scipy is loaded
    needs_hops = any(dv > 0.0 for dv in plan.delta_inv_grid)
    for tm in plan.two_m_list:
        _preflight(HalfInt(plan.two_j), plan.L, HalfInt(tm), plan.k if needs_hops else None)
    n_grid = len(plan.delta_inv_grid)
    requested = set(plan.two_m_list)
    tables = {}  # (half length, digit sum) -> half-chain table, for every sector
    solved = {}  # two_m -> its rows, held until its mirror is emitted
    rows = []
    for s, tm in enumerate(plan.two_m_list):
        if -tm in solved:
            rows.extend(dict(row, two_m=tm) for row in solved.pop(-tm))
            continue
        halves = HalfChains(HalfInt(plan.two_j), plan.L, HalfInt(tm), tables)
        sector = []
        for g, dv in enumerate(plan.delta_inv_grid):
            sector.extend(_sector_rows(plan, s * n_grid + g, tm, halves, dv))
        del halves
        rows.extend(sector)
        if tm != 0 and -tm in requested and all_ok(sector):
            solved[tm] = sector
    return rows


def all_ok(rows) -> bool:
    return all(r["status"] == "ok" for r in rows)


def _cell(value) -> str:
    return "" if value is None else str(value)


def rows_to_csv(rows, fields=SWEEP_FIELDS) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_cell(row[f]) for f in fields])
    return buf.getvalue()


def sweep_to_json(plan: SweepPlan, rows) -> str:
    return json.dumps({"plan": plan.as_dict(), "rows": list(rows)}, indent=2) + "\n"


def profile_table(J, L, M, delta: float, seed: int = 0) -> list:
    """(site, ground, first-excited) magnetization profile rows.

    The ground profile comes from the product-form zero mode; the excited one
    from the numerically obtained second eigenvector of the kink chain at
    delta_inv = 1/delta.  Sectors of dimension 1 have no excited column.
    """
    delta = float(delta)
    if delta <= 1.0:
        raise ValueError("profiles need delta > 1")
    if _sector_shape(J, L, M)[1] is None:  # refused before scipy is loaded, as in run_sweep
        raise ValueError(f"two_m={as_half(M).twice} labels an unreachable sector")
    _preflight(J, L, as_half(M), 2)
    basis = SectorBasis(J, L, M)
    ground = magnetization_profile(groundstate_vector(J, L, M, delta, basis=basis))
    excited = None
    if basis.dim >= 2:
        op = build_sector_operator(J, L, M, "kink", 1.0 / delta)
        record = solve_lowest(op, 2, seed=np.random.SeedSequence(seed), keep_vectors=True)
        excited = profile_from_amplitudes(basis, record.eigenvectors[:, 1])
    rows = []
    for i, alpha in enumerate(range(-int(L), int(L) + 1)):
        rows.append({
            "site": alpha,
            "ground_profile": float(ground[i]),
            "first_excited_profile": None if excited is None else float(excited[i]),
        })
    return rows
