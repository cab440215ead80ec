"""Record the reference data that the sector_411k checks compare against.

Usage (from the repository root): python3 bench/reference.py

Writes bench/reference.json with two things that are too slow to recompute
on every benchmark run:

* the brute-force record of the J=3/2, L=5, M=-3/2 sector (its dimension,
  lowest Ising energies and ||H||_inf at delta_inv=0.4), from the full
  4^11-state product space;
* the 3 lowest eigenvalues of that sector's operator from
  scipy.sparse.linalg.eigsh, which shares no code with the package's
  Lanczos route.

The brute-force ||H||_inf is checked against the assembled operator before
anything is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import eigsh

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from oracles import brute_force_sectors  # noqa: E402
from run import SECTOR_411K  # noqa: E402

from xxzkink import HalfInt, build_sector_operator  # noqa: E402


def main() -> int:
    two_j, L, two_m, delta_inv, k = SECTOR_411K
    record = brute_force_sectors(two_j, L, (delta_inv,), k)[two_m]
    op = build_sector_operator(HalfInt(two_j), L, HalfInt(two_m), "kink", delta_inv)
    if abs(op.inf_norm() - record["inf_norm"][repr(delta_inv)]) > 1e-9:
        raise SystemExit(f"brute-force norm {record['inf_norm']} != operator {op.inf_norm()}")
    v0 = np.random.default_rng(20070914).standard_normal(op.dim)
    values = eigsh(op.matrix, k=k, which="SA", tol=0, v0=v0, return_eigenvectors=False)
    payload = {
        "sector_411k": {
            "two_j": two_j, "L": L, "two_m": two_m, "delta_inv": delta_inv,
            "sector": record,
            "eigsh": sorted(float(v) for v in values),
        }
    }
    with open(BENCH / "reference.json", "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
