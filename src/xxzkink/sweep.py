"""Deterministic spectrum sweeps over sectors and anisotropy grids.

Jobs run in (sector, delta_inv, eig_index) order.  Solver seeds are derived
per job index from the plan seed, which makes reruns with identical flags and
seed byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
from dataclasses import asdict, dataclass

import numpy as np

from .basis import SectorBasis, sector_dimension
from .eigensolver import solve_bytes, solve_lowest
from .groundstate import groundstate_vector, magnetization_profile, profile_from_amplitudes
from .halfint import HalfInt
from .hamiltonian import (build_sector_operator, hopping_bytes, hopping_matrix,
                          hopping_structure)

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
    tol: float = 1e-10
    cluster_tol: float = 1e-8
    seed: int = 0

    def validate(self) -> None:
        if self.two_j < 1:
            raise ValueError("two_j must be a positive doubled spin")
        if self.L < 1:
            raise ValueError("need L >= 1")
        if self.k < 1:
            raise ValueError("need k >= 1")
        if not self.two_m_list:
            raise ValueError("no sectors requested")
        if not self.delta_inv_grid:
            raise ValueError("empty anisotropy grid")
        for dv in self.delta_inv_grid:
            if not 0.0 <= dv <= 1.0:
                raise ValueError(f"delta_inv {dv} outside [0, 1]")
        top = (2 * self.L + 1) * self.two_j
        seen = set()
        for tm in self.two_m_list:
            if abs(tm) > top or (tm - top) % 2 != 0:
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


def _sector_rows(plan: SweepPlan, job_index: int, basis: SectorBasis, h1,
                 delta_inv: float) -> list:
    base = {
        "two_j": plan.two_j,
        "L": plan.L,
        "two_m": basis.two_m,
        "delta_inv": delta_inv,
        "band_edge": plan.two_j,
    }
    try:
        op = build_sector_operator(
            HalfInt(plan.two_j), plan.L, HalfInt(basis.two_m), "kink", delta_inv,
            basis=basis, h1=h1,
        )
        record = solve_lowest(
            op, plan.k, tol=plan.tol, seed=_job_seed(plan.seed, job_index),
            cluster_tol=plan.cluster_tol,
        )
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
    """Bytes this process may use: its RLIMIT_AS soft limit, else physical memory."""
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        return soft
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _preflight(plan: SweepPlan) -> None:
    """Refuse, before anything is built, a sector whose h1 CSR and solve need
    more memory than the process may use."""
    limit = memory_limit()
    J = HalfInt(plan.two_j)
    for tm in plan.two_m_list:
        M = HalfInt(tm)
        need = hopping_bytes(J, plan.L, M) + solve_bytes(sector_dimension(J, plan.L, M), plan.k)
        if need > limit:
            raise ValueError(f"sector two_m={tm} with k={plan.k} needs about "
                             f"{need / 2**30:.1f} GiB, above the {limit / 2**30:.1f} GiB "
                             "this process may use")


def run_sweep(plan: SweepPlan) -> list:
    """All rows of the sweep, in deterministic (sector, delta_inv, eig) order.

    Each sector is built, run over the whole grid and dropped before the next
    one; its h1 CSR is built once, only if some delta_inv > 0, and every grid
    point's operator shares it.
    """
    plan.validate()
    needs_hops = any(dv > 0.0 for dv in plan.delta_inv_grid)
    if needs_hops:  # delta_inv = 0 jobs are exact sorts
        _preflight(plan)
    n_grid = len(plan.delta_inv_grid)
    rows = []
    for s, tm in enumerate(plan.two_m_list):
        basis = SectorBasis(HalfInt(plan.two_j), plan.L, HalfInt(tm))
        h1 = hopping_matrix(hopping_structure(basis), basis.dim) if needs_hops else None
        for g, dv in enumerate(plan.delta_inv_grid):
            rows.extend(_sector_rows(plan, s * n_grid + g, basis, h1, dv))
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


def profile_table(J, L, M, delta: float, tol: float = 1e-10, seed: int = 0) -> list:
    """(site, ground, first-excited) magnetization profile rows.

    The ground profile comes from the product-form zero mode; the excited one
    from the numerically obtained second eigenvector of the kink variant at
    delta_inv = 1/delta.  Sectors of dimension 1 have no excited column.
    """
    delta = float(delta)
    if delta <= 1.0:
        raise ValueError("profiles need delta > 1")
    basis = SectorBasis(J, L, M)
    if basis.dim == 0:
        raise ValueError("empty sector")
    ground = magnetization_profile(groundstate_vector(J, L, M, delta, basis=basis))
    excited = None
    if basis.dim >= 2:
        op = build_sector_operator(J, L, M, "kink", 1.0 / delta, basis=basis)
        record = solve_lowest(
            op, 2, tol=tol, seed=np.random.SeedSequence(seed), keep_vectors=True,
        )
        excited = profile_from_amplitudes(basis, record.eigenvectors[:, 1])
    rows = []
    for i, alpha in enumerate(range(-int(L), int(L) + 1)):
        rows.append({
            "site": alpha,
            "ground_profile": float(ground[i]),
            "first_excited_profile": None if excited is None else float(excited[i]),
        })
    return rows
