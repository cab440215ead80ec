"""Independent oracles and output checks for the benchmark workloads.

Nothing here imports the package under test.  The brute-force helpers walk
the full (2J+1)^(2L+1) product space of a chain and derive sector data from
the spin ladder directly; the checks read only the files the CLI wrote.
Every check appends one (name, ok, detail) entry to a ``Checks`` tally, so
the benchmark can report failed checks against attempted ones.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Checks:
    results: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r[1]]


# ---------------------------------------------------------------- brute force

def _digit_columns(two_j: int, n_sites: int):
    """Columns d_0..d_{n-1} (d = J - m, in 0..2J) over the whole product space."""
    base = two_j + 1
    index = np.arange(base**n_sites, dtype=np.int64)
    return [((index // base ** (n_sites - 1 - i)) % base).astype(np.int8)
            for i in range(n_sites)]


def brute_force_sectors(two_j: int, L: int, delta_inv_values, k: int) -> dict:
    """Per sector: its k lowest Ising energies and ||H_kink||_inf per anisotropy.

    With d = J - m per site, <m+1|S+|m> = sqrt(d (2J - d + 1)) and
    <m-1|S-|m> = sqrt((2J - d)(d + 1)).  The kink Hamiltonian has diagonal
    E(c) + (1 - s) J (m_L - m_{-L}) with E(c) = sum_a (2J - d_a) d_{a+1} and
    s = sqrt(1 - delta_inv^2), and hopping -(delta_inv/2)(S+S- + S-S+) on
    every bond, so a row's absolute sum is |diagonal| + delta_inv * hop(c).
    Keys of the returned dict are doubled magnetizations.
    """
    n = 2 * L + 1
    d = _digit_columns(two_j, n)
    total = np.zeros(d[0].shape, dtype=np.int64)
    energy = np.zeros(d[0].shape, dtype=np.int64)
    hop = np.zeros(d[0].shape)
    for a in range(n):
        da = d[a].astype(np.int64)
        total += da
        if a + 1 < n:
            db = d[a + 1].astype(np.int64)
            energy += (two_j - da) * db
            raise_a = da * (two_j - da + 1) * (two_j - db) * (db + 1)
            lower_a = (two_j - da) * (da + 1) * db * (two_j - db + 1)
            hop += 0.5 * (np.sqrt(raise_a) + np.sqrt(lower_a))
    boundary = 0.5 * two_j * (d[0].astype(np.int64) - d[-1].astype(np.int64))
    two_m = n * two_j - 2 * total
    order = np.argsort(two_m, kind="stable")
    two_m, energy, hop, boundary = two_m[order], energy[order], hop[order], boundary[order]
    starts = np.flatnonzero(np.r_[True, two_m[1:] != two_m[:-1]])
    stops = np.r_[starts[1:], two_m.size]
    out = {}
    for lo, hi in zip(starts, stops):
        e = energy[lo:hi]
        norms = {}
        for dv in delta_inv_values:
            s = math.sqrt(1.0 - dv * dv)
            row_sum = np.abs(e + (1.0 - s) * boundary[lo:hi]) + dv * hop[lo:hi]
            norms[repr(float(dv))] = float(row_sum.max())
        out[int(two_m[lo])] = {
            "dim": int(hi - lo),
            "ising_low": [int(v) for v in np.sort(e)[:k]],
            "inf_norm": norms,
        }
    return out


def sector_dimensions(two_j: int, L: int) -> dict:
    """Sector sizes as coefficients of (1 + x + ... + x^2J)^(2L+1), exact ints."""
    n = 2 * L + 1
    coeffs = [1]
    for _ in range(n):
        nxt = [0] * (len(coeffs) + two_j)
        for i, c in enumerate(coeffs):
            for j in range(two_j + 1):
                nxt[i + j] += c
        coeffs = nxt
    return {n * two_j - 2 * total: c for total, c in enumerate(coeffs)}


# ------------------------------------------------------------- output checks

def read_rows(path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_spectrum_rows(checks: Checks, rows: list, sectors: dict, k: int,
                        tol: float, label: str) -> dict:
    """Row status, residual bound, exact Ising limit and the zero mode.

    ``sectors`` maps doubled magnetization to its brute-force record.  Returns
    {(two_m, delta_inv): [eigenvalues]} for further comparisons.
    """
    spectra: dict = {}
    for row in rows:
        key = (int(row["two_m"]), float(row["delta_inv"]))
        ok = row["status"] == "ok"
        checks.add(f"{label}: status {key}", ok, row["status"])
        if ok:
            spectra.setdefault(key, []).append(
                (int(row["eig_index"]), float(row["eigenvalue"]), float(row["residual"])))
    for (two_m, dv), entries in sorted(spectra.items()):
        ref = sectors.get(two_m)
        norm = None if ref is None else ref["inf_norm"].get(repr(dv))
        checks.add(f"{label}: known job {two_m},{dv}", norm is not None, "not requested")
        if norm is None:
            continue
        bound = tol * (1.0 + norm)
        entries.sort()
        values = [v for _, v, _ in entries]
        worst = max(r for _, _, r in entries)
        checks.add(f"{label}: count {two_m},{dv}", len(values) == min(k, ref["dim"]),
                   f"{len(values)} rows")
        checks.add(f"{label}: residual {two_m},{dv}", worst <= bound,
                   f"{worst:.3e} > {bound:.3e}")
        if dv == 0.0:
            checks.add(f"{label}: ising limit {two_m}",
                       values == [float(e) for e in ref["ising_low"][: len(values)]],
                       f"{values} != {ref['ising_low']}")
        else:
            checks.add(f"{label}: zero mode {two_m},{dv}", abs(values[0]) <= bound,
                       f"lambda_0 = {values[0]:.3e}")
        spectra[(two_m, dv)] = values
    return spectra


def check_mirror(checks: Checks, spectra: dict, atol: float = 1e-8) -> None:
    """Sectors M and -M share their spectrum (spin flip plus reflection)."""
    for (two_m, dv), values in sorted(spectra.items()):
        if two_m >= 0:
            continue
        other = spectra.get((-two_m, dv))
        ok = other is not None and len(other) == len(values) and all(
            abs(a - b) <= atol for a, b in zip(values, other))
        checks.add(f"mirror {two_m},{dv}", ok, f"{values} vs {other}")


def check_reference(checks: Checks, values: list, reference: list, atol: float = 1e-8) -> None:
    ok = len(values) == len(reference) and all(
        abs(a - b) <= atol for a, b in zip(values, reference))
    checks.add("reference eigenvalues", ok, f"{values} vs {reference}")


def check_ising_report(checks: Checks, path, dims: dict) -> None:
    """Every sector present with its independent dimension, and passed."""
    rows = read_rows(path)
    seen = {int(r["two_m"]): r for r in rows}
    checks.add("ising-check: sector set", sorted(seen) == sorted(dims),
               f"{len(seen)} sectors, expected {len(dims)}")
    for two_m, row in sorted(seen.items()):
        checks.add(f"ising-check: dim {two_m}", int(row["dim"]) == dims.get(two_m),
                   f"{row['dim']} != {dims.get(two_m)}")
        checks.add(f"ising-check: passed {two_m}", row["passed"] == "True", row["passed"])


def check_certificates(checks: Checks, path, two_j: int, L: int) -> None:
    with open(path) as handle:
        payload = json.load(handle)
    checks.add("certify: chain", (payload["two_j"], payload["length"]) == (two_j, L),
               f"{payload['two_j']}, {payload['length']}")
    checks.add("certify: margin_ok", payload["margin_ok"] is True, str(payload["margin_ok"]))
    certs = payload["certificates"]
    checks.add("certify: nonempty", len(certs) > 0, "no certificates")
    for c in certs:
        checks.add(f"certify: above threshold {c['two_m']}{c['sign']}{c['n']}",
                   c["margin_above_threshold"] > 0, repr(c["margin_above_threshold"]))
