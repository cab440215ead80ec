"""Command-line driver: spectra, sweeps, diagonal-limit checks, profiles,
perturbation certificates; CSV/JSON emission.

Half-integer flags accept three spellings, all normalized to doubled
integers: a bare integer is the doubled value (``--two-j 3`` is spin 3/2),
while fraction strings (``3/2``) and decimals (``1.5``) are values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .basis import reachable_sectors
from .certificates import certificate_constants, local_inequality_margin, series_margin
from .checks import verify_ising_theorems
from .halfint import HalfInt
from .ising import excitation_sets, isolation_distance
from .sweep import (
    PROFILE_FIELDS,
    SweepPlan,
    all_ok,
    profile_table,
    rows_to_csv,
    run_sweep,
    sweep_to_json,
)


def parse_doubled(text: str) -> int:
    """Doubled-integer value of a half-integer flag (see module docstring)."""
    text = text.strip()
    if "/" in text:
        frac = Fraction(text)
        doubled = 2 * frac
        if doubled.denominator != 1:
            raise argparse.ArgumentTypeError(f"{text!r} is not a half-integer")
        return int(doubled)
    if "." in text or "e" in text.lower():
        doubled = 2.0 * float(text)
        if doubled != int(doubled):
            raise argparse.ArgumentTypeError(f"{text!r} is not a half-integer")
        return int(doubled)
    return int(text)


def parse_sector_list(text: str) -> tuple:
    return tuple(parse_doubled(part) for part in text.split(",") if part.strip())


def parse_grid(text: str) -> tuple:
    """Anisotropy grid: 'start:stop:count' or a comma list of single values."""
    text = text.strip()
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise argparse.ArgumentTypeError("grid must be start:stop:count")
        start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        if count < 1:
            raise argparse.ArgumentTypeError("grid count must be >= 1")
        return tuple(float(v) for v in np.linspace(start, stop, count))
    return tuple(float(part) for part in text.split(",") if part.strip())


def _checked(convert, ok, rule: str):
    """An argparse type: ``convert`` the text, then reject values failing ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value
    parse.__name__ = convert.__name__
    return parse


# comparisons are false for nan, so the bounds below also reject it
parse_delta = _checked(float, lambda d: d >= 1.0, "delta must be >= 1")
parse_tol = _checked(float, lambda t: 0.0 < t < 1.0, "tol must satisfy 0 < tol < 1")
parse_cluster_tol = _checked(float, lambda t: 0.0 <= t < math.inf,
                             "cluster-tol must be finite and >= 0")
parse_seed = _checked(int, lambda s: s >= 0, "seed must be >= 0")


def parse_delta_list(text: str) -> tuple:
    """Comma list of anisotropy values delta >= 1, converted to delta_inv."""
    return tuple(1.0 / parse_delta(part) for part in text.split(",") if part.strip())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _add_common(parser, sectors: bool) -> None:
    parser.add_argument("-J", "--two-j", type=parse_doubled, required=True,
                        metavar="J2", help="spin: doubled int, fraction, or decimal")
    parser.add_argument("-L", "--length", type=int, required=True,
                        help="half-length; sites run from -L to L")
    if sectors:
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument("--two-m", type=parse_sector_list, metavar="M2[,M2...]",
                           help="sector magnetizations (same spellings as --two-j)")
        group.add_argument("--all-sectors", action="store_true",
                           help="every reachable sector")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_solver(parser) -> None:
    parser.add_argument("--k", type=int, default=6, help="eigenvalues per job")
    parser.add_argument("--tol", type=parse_tol, default=1e-10, help="residual tolerance scale")
    parser.add_argument("--cluster-tol", type=parse_cluster_tol, default=1e-8)
    parser.add_argument("--seed", type=parse_seed, default=0)


def _grid_arguments(parser, single: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    if single:
        group.add_argument("--delta-inv", type=float, metavar="X",
                           help="inverse anisotropy in [0, 1]")
        group.add_argument("--delta", type=parse_delta, metavar="D",
                           help="anisotropy >= 1 (converted to 1/D)")
    else:
        group.add_argument("--delta-inv", type=parse_grid, metavar="A:B:N|X,Y,...",
                           help="inverse-anisotropy grid in [0, 1]")
        group.add_argument("--delta", type=parse_delta_list, metavar="D1,D2,...",
                           help="anisotropy values >= 1 (converted to 1/D)")


def _resolve_sectors(args) -> tuple:
    if getattr(args, "all_sectors", False):
        return tuple(reachable_sectors(HalfInt(args.two_j), args.length))
    return tuple(args.two_m)


def _plan_from_args(args, sectors, grid) -> SweepPlan:
    return SweepPlan(
        two_j=args.two_j,
        L=args.length,
        two_m_list=sectors,
        delta_inv_grid=grid,
        k=args.k,
        tol=args.tol,
        cluster_tol=args.cluster_tol,
        seed=args.seed,
    )


def _run_plan(plan: SweepPlan, fmt: str, out: str | None) -> int:
    rows = run_sweep(plan)
    if fmt == "csv":
        _emit(rows_to_csv(rows), out)
    else:
        _emit(sweep_to_json(plan, rows), out)
    return 0 if all_ok(rows) else 1


def _cmd_spectrum(args) -> int:
    delta_inv = args.delta_inv if args.delta_inv is not None else 1.0 / args.delta
    plan = _plan_from_args(args, _resolve_sectors(args), (float(delta_inv),))
    return _run_plan(plan, args.format, args.out)


def _cmd_sweep(args) -> int:
    grid = args.delta_inv if args.delta_inv is not None else args.delta
    plan = _plan_from_args(args, _resolve_sectors(args), tuple(grid))
    return _run_plan(plan, args.format, args.out)


def _cmd_ising_check(args) -> int:
    report = verify_ising_theorems(HalfInt(args.two_j), args.length, budget=args.budget)
    for line in report.lines():
        print(line)
    if args.out is not None or args.format == "json":
        payload = {
            "two_j": report.two_j,
            "L": report.L,
            "passed": report.passed,
            "sectors": [
                {
                    "two_m": s.two_m,
                    "dim": s.dim,
                    "edge": s.edge,
                    "ground_count": s.ground_count,
                    "observed_low": {str(k): v for k, v in s.observed_low.items()},
                    "predicted_low": None if s.predicted_low is None
                    else {str(k): v for k, v in s.predicted_low.items()},
                    "low_match": s.low_match,
                    "floor_ok": s.floor_ok,
                    "band_multiplicity": s.band_multiplicity,
                    "band_bound": s.band_bound,
                    "passed": s.passed,
                }
                for s in report.sectors
            ],
        }
        if args.format == "json":
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        else:
            fields = ("two_m", "dim", "edge", "ground_count", "low_match",
                      "floor_ok", "band_multiplicity", "band_bound", "passed")
            rows = [{f: sector[f] for f in fields} for sector in payload["sectors"]]
            _emit(rows_to_csv(rows, fields), args.out)
    return 0 if report.passed else 1


def _cmd_profile(args) -> int:
    if args.all_sectors or len(args.two_m) != 1:
        raise ValueError("profile takes exactly one sector: --two-m=M2")
    rows = profile_table(
        HalfInt(args.two_j), args.length, HalfInt(args.two_m[0]), args.delta,
        tol=args.tol, seed=args.seed,
    )
    _emit(rows_to_csv(rows, PROFILE_FIELDS), args.out)
    return 0


def _cmd_certify(args) -> int:
    J = HalfInt(args.two_j)
    L = args.length
    margin = local_inequality_margin(J)
    # the J-weighted inequality holds only for J >= 1; spin 1/2 issues no
    # certificates, so the margin has nothing to certify there
    margin_ok = margin >= -1e-12 if J.twice >= 2 else None
    certificates = []
    thresholds_ok = True
    for two_m in range(-J.twice, J.twice + 1, 2):
        m = HalfInt(two_m)
        sets = excitation_sets(J, m)
        for sign, pairs in (("+", sets.plus), ("-", sets.minus)):
            for n, energy in pairs:
                iso = isolation_distance(J, L, m, energy, max_enumeration=args.max_enum)
                cert = certificate_constants(J, energy, iso.distance, iso.exact)
                above = series_margin(cert.c1, cert.c2, cert.delta_star * (1 + 1e-9))
                if above <= 0.0:
                    thresholds_ok = False
                entry = cert.as_dict()
                entry.update(
                    two_m=two_m, sign=sign, n=n,
                    simple_dominates=cert.delta_star <= cert.delta_simple,
                    margin_above_threshold=above,
                )
                certificates.append(entry)
    payload = {
        "two_j": J.twice,
        "length": L,
        "local_inequality_margin": margin,
        "margin_ok": margin_ok,
        "all_simple_dominates": all(c["simple_dominates"] for c in certificates),
        "certificates": certificates,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if (margin_ok is not False and thresholds_ok) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxzkink",
        description="Sector-resolved spectra of the anisotropic spin chain "
        "with domain-wall boundary fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of one or more sectors at one anisotropy")
    _add_common(p, sectors=True)
    _grid_arguments(p, single=True)
    _add_solver(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sweep", help="sectors x anisotropy grid")
    _add_common(p, sectors=True)
    _grid_arguments(p, single=False)
    _add_solver(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ising-check", help="exhaustive diagonal-limit verification")
    _add_common(p, sectors=False)
    p.add_argument("--budget", type=int, default=10_000_000,
                   help="largest admissible total state-space size")
    p.set_defaults(func=_cmd_ising_check)

    p = sub.add_parser("profile", help="ground and first-excited magnetization profiles")
    _add_common(p, sectors=True)
    p.add_argument("--delta", type=float, required=True, help="anisotropy > 1")
    _add_solver(p)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("certify", help="perturbation certificates as JSON")
    _add_common(p, sectors=False)
    p.add_argument("--max-enum", type=int, default=10**6,
                   help="largest sector enumerated for isolation distances")
    p.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
