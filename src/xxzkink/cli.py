"""Command-line driver: spectra, sweeps, diagonal-limit checks, profiles,
perturbation certificates; CSV/JSON emission.

Half-integer flags accept three spellings, all normalized to doubled
integers: a bare integer is the doubled value (``--two-j 3`` is spin 3/2),
while fraction strings (``3/2``) and decimals (``1.5``) are values, read
exactly as fractions; a doubled magnitude above 2**63 - 1 is refused.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .basis import _sector_shape, reachable_sectors
from .certificates import certificate_constants, local_inequality_margin, series_margin
from .checks import verify_ising_theorems
from .halfint import HalfInt, as_half
from .ising import excitation_sets, isolation_distance, least_completion
from .sweep import (
    PROFILE_FIELDS,
    SweepPlan,
    all_ok,
    profile_table,
    rows_to_csv,
    run_sweep,
    sweep_to_json,
)

_I64_MAX = np.iinfo(np.int64).max


def parse_doubled(text: str) -> int:
    """Doubled-integer value of a half-integer flag (see module docstring).  A
    nonzero decimal N 10^q is refused before 10**|q| is built: too large if
    adjusted >= 19; if -q >= 2 len(text), 5^-q > N, so 10^-q cannot divide 2N."""
    text = text.strip()
    too_large = argparse.ArgumentTypeError(f"{text!r} exceeds the doubled-value limit {_I64_MAX}")
    try:
        value = int(text)
    except ValueError:
        try:
            number = Fraction(text) if "/" in text else Decimal(text)
            if isinstance(number, Decimal) and number.is_finite() and number:
                if number.adjusted() >= 19:
                    raise too_large
                if -number.as_tuple().exponent >= 2 * len(text):
                    raise ValueError(text)
            value = as_half(Fraction(number)).twice
        except (ValueError, ArithmeticError):  # Decimal's errors are ArithmeticError
            raise argparse.ArgumentTypeError(f"{text!r} is not a half-integer") from None
    if abs(value) > _I64_MAX:
        raise too_large
    return value


def parse_sector_list(text: str) -> tuple:
    return tuple(parse_doubled(part) for part in text.split(",") if part.strip())


# largest start:stop:count grid: the grid tuple is materialized and echoed
# in the JSON plan, and every point is one solve per sector
MAX_GRID_POINTS = 10_000


def parse_grid(text: str) -> tuple:
    """Anisotropy grid: 'start:stop:count' or a comma list of single values."""
    text = text.strip()
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise argparse.ArgumentTypeError("grid must be start:stop:count")
        start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        if not 1 <= count <= MAX_GRID_POINTS:
            raise argparse.ArgumentTypeError(
                f"grid count must lie in [1, {MAX_GRID_POINTS}], got {count}")
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
parse_seed = _checked(int, lambda s: s >= 0, "seed must be >= 0")


def parse_delta_list(text: str) -> tuple:
    """Comma list of anisotropy values delta >= 1, converted to delta_inv."""
    return tuple(1.0 / parse_delta(part) for part in text.split(",") if part.strip())


def _check_out(out: str | None) -> None:
    """Refuse an --out whose directory is missing or not writable, before any
    work and without creating the file."""
    if out is None:
        return
    folder = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), folder)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _add_common(parser, fmt: bool) -> None:
    parser.add_argument("-J", "--two-j", type=parse_doubled, required=True,
                        metavar="J2", help="spin: doubled int, fraction, or decimal")
    parser.add_argument("-L", "--length", type=int, required=True,
                        help="half-length; sites run from -L to L")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_sectors(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--two-m", type=parse_sector_list, metavar="M2[,M2...]",
                       help="sector magnetizations (same spellings as --two-j)")
    group.add_argument("--all-sectors", action="store_true", help="every reachable sector")


def _add_solver(parser, per_job: bool) -> None:
    parser.add_argument("--seed", type=parse_seed, default=0)
    if per_job:  # profile always solves for two pairs
        parser.add_argument("--k", type=int, default=6, help="eigenvalues per job")


def _grid_arguments(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta-inv", type=parse_grid, metavar="A:B:N|X,Y,...",
                       help="inverse-anisotropy grid in [0, 1]")
    group.add_argument("--delta", type=parse_delta_list, metavar="D1,D2,...",
                       help="anisotropy values >= 1 (converted to 1/D)")


def _cmd_sweep(args) -> int:
    sectors = (reachable_sectors(HalfInt(args.two_j), args.length) if args.all_sectors
               else args.two_m)
    grid = args.delta_inv if args.delta_inv is not None else args.delta
    plan = SweepPlan(two_j=args.two_j, L=args.length, two_m_list=tuple(sectors),
                     delta_inv_grid=grid, k=args.k, seed=args.seed)
    rows = run_sweep(plan)
    _emit(rows_to_csv(rows) if args.format == "csv" else sweep_to_json(plan, rows), args.out)
    return 0 if all_ok(rows) else 1


def _cmd_ising_check(args) -> int:
    report = verify_ising_theorems(HalfInt(args.two_j), args.length, budget=args.budget)
    # a JSON payload on stdout keeps stdout parseable
    stream = sys.stderr if args.format == "json" and args.out is None else sys.stdout
    for line in report.lines():
        print(line, file=stream)
    if args.out is not None or args.format == "json":
        payload = {
            "two_j": report.two_j,
            "L": report.L,
            "passed": report.passed,
            "sectors": [dict(asdict(s), passed=s.passed) for s in report.sectors],
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
    rows = profile_table(HalfInt(args.two_j), args.length, HalfInt(args.two_m), args.delta,
                         seed=args.seed)
    _emit(rows_to_csv(rows, PROFILE_FIELDS), args.out)
    return 0


def _cmd_certify(args) -> int:
    J = HalfInt(args.two_j)
    L = args.length
    _sector_shape(J, L, J)  # spin 1/2 issues no certificates, so no table would check it
    margin = local_inequality_margin(J)
    # the J-weighted inequality holds only for J >= 1; spin 1/2 issues no
    # certificates, so the margin has nothing to certify there
    margin_ok = margin >= -1e-12 if J.twice >= 2 else None
    least = least_completion(J, L) if J.twice >= 2 else None  # spin 1/2 lists no rows
    certificates = []
    for two_m in range(-J.twice, J.twice + 1, 2):
        m = HalfInt(two_m)
        sets = excitation_sets(J, m)
        signed = [("+", n, e) for n, e in sets.plus] + [("-", n, e) for n, e in sets.minus]
        # one enumeration of the sector serves all of its excitations
        isolations = isolation_distance(J, L, m, [e for _, _, e in signed], least)
        for (sign, n, energy), distance in zip(signed, isolations):
            cert = certificate_constants(J, energy, distance)
            above = series_margin(cert.c1, cert.c2, cert.delta_star * (1 + 1e-9))
            entry = asdict(cert)
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
    thresholds_ok = all(c["margin_above_threshold"] > 0.0 for c in certificates)
    return 0 if (margin_ok is not False and thresholds_ok) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxzkink",
        description="Sector-resolved spectra of the anisotropic spin chain "
        "with domain-wall boundary fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # one command under two names: a spectrum is the sweep over a grid of one point
    for name, summary in (("spectrum", "eigenvalues of one or more sectors"),
                          ("sweep", "sectors x anisotropy grid")):
        p = sub.add_parser(name, help=summary)
        _add_common(p, fmt=True)
        _add_sectors(p)
        _grid_arguments(p)
        _add_solver(p, per_job=True)
        p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ising-check", help="exhaustive diagonal-limit verification")
    _add_common(p, fmt=True)
    p.add_argument("--budget", type=int, default=10_000_000,
                   help="largest admissible total state-space size")
    p.set_defaults(func=_cmd_ising_check)

    p = sub.add_parser("profile", help="ground and first-excited magnetization profiles")
    _add_common(p, fmt=False)
    p.add_argument("--two-m", type=parse_doubled, required=True, metavar="M2",
                   help="sector magnetization (same spellings as --two-j)")
    p.add_argument("--delta", type=float, required=True, help="anisotropy > 1")
    _add_solver(p, per_job=False)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("certify", help="perturbation certificates as JSON")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    # OSError: an unwritable --out; MemoryError: an allocation above the address-space limit
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
