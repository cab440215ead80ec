"""End-to-end acceptance checks, one per criterion, each printing a PASS or
FAIL line (run with ``pytest -s`` to see them inline).

Two checks assert an inequality together with the exact place where it stops
holding, so the counterexample stays pinned rather than hidden.  Criterion 6
asserts the sharp two-site inequality -h0 <= h1 <= h0 for every spin on the
grid and the J-weighted form -J h0 <= h1 <= J h0 for spin 1 and up; at spin
1/2 the weighted margin is exactly -1/4, because the exchange bond norm (1/2)
exceeds the spin-squared weight (1/4).  Criterion 8b asserts that the quick
threshold 18 J^(5/2) dominates the exact analyticity threshold precisely where
the series converges at the quick value, which covers every certificate up to
spin 3/2; from spin 2 on, unit isolation distances make c1 alone (and hence
the exact threshold, which exceeds c1) larger than 18 J^(5/2).
"""

import time
from collections import Counter

import numpy as np

from bound_checks import sampled_bound_ratio
from oracles import boundary_diagonal, two_site_operators
from rank_order import dense_by_rank, rank_terms
from xxzkink.basis import SectorBasis, reachable_sectors, sector_counts
from xxzkink.certificates import certificate_constants, local_inequality_margin, series_margin
from xxzkink.cli import main as cli_main
from xxzkink.eigensolver import DENSE_MAX, dense_spectrum, lanczos_lowest, solve_lowest
from xxzkink.groundstate import groundstate_vector
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import HalfChains, build_sector_operator, ising_diagonal
from xxzkink.ising import (
    EdgeSectorError,
    band_edge_multiplicity_lower_bound,
    excitation_sets,
    isolation_distance,
    least_completion,
    predicted_low_spectrum,
)

H = HalfInt

GRID_TWO_J = (1, 2, 3, 4, 5, 6)  # J = 1/2 .. 3
GRID_L = (2, 3)


def _criterion(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


def _bulk_sectors(two_j, L):
    out = []
    for two_m in reachable_sectors(H(two_j), L):
        try:
            predicted = predicted_low_spectrum(H(two_j), L, H(two_m))
        except EdgeSectorError:
            continue
        out.append((two_m, predicted))
    return out


def test_c01_ising_low_spectrum_match():
    t0 = time.perf_counter()
    mismatches = []
    sectors = 0
    for two_j in GRID_TWO_J:
        for L in GRID_L:
            for two_m, predicted in _bulk_sectors(two_j, L):
                diag = ising_diagonal(SectorBasis(H(two_j), L, H(two_m)))
                observed = dict(Counter(int(e) for e in diag[diag < two_j]))
                sectors += 1
                if observed != predicted:
                    mismatches.append((two_j, L, two_m, observed, predicted))
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        "Ising-limit low spectra match the closed form exactly",
        not mismatches and elapsed < 60.0,
        f"{sectors} bulk sectors, {elapsed:.1f}s; mismatches: {mismatches[:3]}",
    )


def test_c02_ground_state_uniqueness():
    bad = []
    for two_j in GRID_TWO_J:
        for L in GRID_L:
            for two_m in reachable_sectors(H(two_j), L):
                diag = ising_diagonal(SectorBasis(H(two_j), L, H(two_m)))
                if int((diag == 0).sum()) != 1:
                    bad.append((two_j, L, two_m))
    _criterion(2, "exactly one zero-energy configuration per sector", not bad, f"bad: {bad[:3]}")


def test_c03_degeneracy_catalog():
    problems = []
    # spin-2 doublet at 3 and spin-3 doublet at 4, in every bulk sector with
    # magnetization divisible by 2J
    for two_j, energy in ((4, 3), (6, 4)):
        for L in GRID_L:
            for two_m, _ in _bulk_sectors(two_j, L):
                if two_m % (2 * two_j) != 0:
                    continue
                diag = ising_diagonal(SectorBasis(H(two_j), L, H(two_m)))
                low = np.sort(diag[(diag > 0) & (diag < two_j)])
                if low.size == 0 or low[0] != energy or int((low == energy).sum()) != 2:
                    problems.append(("doublet", two_j, L, two_m, low[:4].tolist()))
    # every other tested sector has a simple first excitation
    for two_j in GRID_TWO_J:
        for L in GRID_L:
            for two_m, _ in _bulk_sectors(two_j, L):
                diag = ising_diagonal(SectorBasis(H(two_j), L, H(two_m)))
                low = np.sort(diag[(diag > 0) & (diag < two_j)])
                if low.size == 0:
                    continue
                doubled = two_j % 2 == 0 and two_j > 2 and two_m % (2 * two_j) == 0
                expected = 2 if doubled else 1
                if int((low == low[0]).sum()) != expected:
                    problems.append(("simple", two_j, L, two_m, low[:4].tolist()))
    _criterion(3, "first-excitation degeneracy catalog", not problems, f"problems: {problems[:3]}")


def test_c04_band_edge_multiplicity_bound():
    violations = []
    logged = []
    for two_j in GRID_TWO_J:
        for L in GRID_L:
            for two_m in reachable_sectors(H(two_j), L):
                diag = ising_diagonal(SectorBasis(H(two_j), L, H(two_m)))
                observed = int((diag == two_j).sum())
                bound = band_edge_multiplicity_lower_bound(H(two_j), L, H(two_m))
                if observed < bound:
                    violations.append((two_j, L, two_m, observed, bound))
                logged.append(observed - bound)
    example = ising_diagonal(SectorBasis(H(1), 2, H(3)))
    print(
        f"  band-edge log: {len(logged)} sectors, observed-minus-bound "
        f"min={min(logged)} max={max(logged)}; spin-1/2 L=2 M=3/2 observed="
        f"{int((example == 1).sum())} bound={band_edge_multiplicity_lower_bound(H(1), 2, H(3))}"
    )
    _criterion(4, "band-edge multiplicity >= constructive bound", not violations,
               f"violations: {violations[:3]}")


def test_c05_product_zero_mode_residual():
    t0 = time.perf_counter()
    worst = 0.0
    for two_j in (1, 2, 3):
        for delta in (1.25, 2.5, 10.0):
            for two_m in reachable_sectors(H(two_j), 3):
                vec = groundstate_vector(H(two_j), 3, H(two_m), delta)
                op = build_sector_operator(H(two_j), 3, H(two_m), "kink", 1.0 / delta)
                # the amplitudes are indexed like the operator
                worst = max(worst, float(np.linalg.norm(op.matvec(vec.amplitudes))))
    elapsed = time.perf_counter() - t0
    _criterion(5, "product zero mode has residual <= 1e-10", worst <= 1e-10 and elapsed < 60.0,
               f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_c06_local_operator_inequality():
    sharp, shrunk = {}, {}
    for two_j in GRID_TWO_J:
        h0, h1 = two_site_operators(two_j)
        sharp[two_j] = min(float(np.linalg.eigvalsh(h0 + sign * h1)[0]) for sign in (1, -1))
        # the constant 1 is sharp: any smaller multiple of h0 no longer dominates
        shrunk[two_j] = min(float(np.linalg.eigvalsh(0.99 * h0 + sign * h1)[0]) for sign in (1, -1))
    weighted = {two_j: local_inequality_margin(H(two_j)) for two_j in GRID_TWO_J}
    ok = (
        all(m >= -1e-12 for m in sharp.values())
        and all(m < 0.0 for m in shrunk.values())
        and all(m >= -1e-12 for tj, m in weighted.items() if tj >= 2)
        and abs(weighted[1] + 0.25) <= 1e-12
    )
    detail = "; ".join(
        f"J={tj/2:g}: sharp {sharp[tj]:+.2e}, weighted {weighted[tj]:+.2e}" for tj in GRID_TWO_J
    )
    _criterion(6, "-h0 <= h1 <= h0 for all J, J-weighted form for J >= 1, -1/4 at J = 1/2",
               ok, detail)


def test_c07_relative_bound_sampled():
    checks = []
    for two_j, L, two_m in ((3, 3, -3), (4, 3, 0), (2, 4, 2)):
        basis = SectorBasis(H(two_j), L, H(two_m))
        worst = sampled_bound_ratio(H(two_j), L, H(two_m), trials=1000, seed=0, basis=basis)
        norm_exact = float(np.abs(boundary_diagonal(basis)).max()) == 2.0 * (two_j / 2.0) ** 2
        checks.append((two_j, L, two_m, worst, norm_exact))
    ok = all(w <= 1.0 + 1e-10 and flag for *_, w, flag in checks)
    detail = "; ".join(f"(J={tj/2:g},L={L},M={tm/2:g}): max ratio {w:.3f}" for tj, L, tm, w, _ in checks)
    _criterion(7, "sampled relative bound holds over 1000 trials each", ok, detail)


def test_c08a_certificate_arithmetic():
    cert = certificate_constants(H(3), 1.0, 1.0)
    ok = (
        abs(cert.c1 - 39.0) <= 1e-12
        and abs(cert.c2 - 9.0) <= 1e-12
        and series_margin(cert.c1, cert.c2, cert.delta_star * (1 + 1e-9)) > 0.0
        and series_margin(cert.c1, cert.c2, cert.delta_star * (1 + 5e-7)) > 0.0
        and series_margin(cert.c1, cert.c2, cert.delta_star * (1 - 5e-7)) < 0.0
        and cert.delta_star <= cert.delta_simple
    )
    _criterion(8, "certificate constants c1=39, c2=9 and threshold bracket",
               ok, f"delta_star={cert.delta_star:.6f}, simple={cert.delta_simple:.4f}")


def test_c08b_simple_threshold_dominates():
    problems = []
    violations = []
    total = 0
    for two_j in (2, 3, 4, 5, 6, 7, 8):  # J = 1 .. 4
        least = least_completion(H(two_j), 3)
        for two_m in range(-two_j, two_j + 1, 2):
            sets = excitation_sets(H(two_j), H(two_m))
            energies = [energy for _, energy in sets.plus + sets.minus]
            isolations = isolation_distance(H(two_j), 3, H(two_m), energies, least)
            for energy, distance in zip(energies, isolations):
                cert = certificate_constants(H(two_j), energy, distance)
                total += 1
                row = (two_j / 2, energy, distance,
                       round(cert.c1, 2), round(cert.delta_star, 2), round(cert.delta_simple, 2))
                dominates = cert.delta_star <= cert.delta_simple
                converges = series_margin(cert.c1, cert.c2, cert.delta_simple) > 0.0
                if dominates != converges:
                    problems.append(("root", row))
                if dominates:
                    continue
                violations.append(row)
                if two_j <= 3:
                    problems.append(("J<=3/2", row))
                if not cert.c1 > cert.delta_simple:
                    problems.append(("c1<=simple", row))
    failing_spins = {row[0] for row in violations}
    missing = [tj / 2 for tj in (4, 5, 6, 7, 8) if tj / 2 not in failing_spins]
    _criterion(
        8,
        "18 J^(5/2) dominates the exact threshold up to J = 3/2; beyond, only where c1 allows",
        not problems and not missing,
        f"{len(violations)} of {total} certificates not dominated, at J in "
        f"{sorted(failing_spins)}; first (J, E, d, c1, star, simple): {violations[:3]}; "
        f"problems: {problems[:3]}; spins >= 2 without a failure: {missing}",
    )


def test_c09_isolated_eigenvalue_stability():
    t0 = time.perf_counter()
    first_excited = {}
    ordered = True
    for L in (3, 4, 5):
        op = build_sector_operator(H(3), L, H(-3), "kink", 0.4)
        record = solve_lowest(op, 3, seed=9)
        e1, e2 = float(record.eigenvalues[1]), float(record.eigenvalues[2])
        first_excited[L] = e1
        ordered = ordered and (e2 - e1 > 1e-6)
    drift = abs(first_excited[5] - first_excited[4])
    elapsed = time.perf_counter() - t0
    _criterion(
        9,
        "first excited level isolated and stable in the chain length",
        ordered and drift < 1e-3 and elapsed < 300.0,
        f"E1 by L: { {L: round(v, 8) for L, v in first_excited.items()} }, "
        f"|E1(5)-E1(4)|={drift:.2e}, {elapsed:.0f}s",
    )


def test_c10_kink_antikink_equivalence():
    worst = 0.0
    for two_j in (1, 3):
        for two_m in (-two_j, two_j, 3 * two_j):
            for dv in (0.0, 0.4):
                kink = build_sector_operator(H(two_j), 3, H(two_m), "kink", dv)
                anti = build_sector_operator(H(two_j), 3, H(-two_m), "antikink", dv)
                a = dense_spectrum(kink).eigenvalues
                b = dense_spectrum(anti).eigenvalues
                worst = max(worst, float(np.abs(a - b).max()))
    _criterion(10, "kink sector M matches antikink sector -M to 1e-10",
               worst <= 1e-10, f"worst spectral gap {worst:.2e}")


def test_spin_flip_reflection_maps_sector_to_minus_sector():
    # m_alpha -> -m_{-alpha} preserves every bond energy, the boundary term
    # and the hopping, so it carries the kink matrix of sector M onto -M
    worst = 0.0
    for two_j, L in ((1, 3), (2, 2), (3, 2)):
        for two_m in reachable_sectors(H(two_j), L):
            basis = SectorBasis(H(two_j), L, H(two_m))
            mirror = SectorBasis(H(two_j), L, H(-two_m))
            perm = rank_terms(mirror.prefix_counts, two_j - basis.down[:, ::-1])
            for dv in (0.0, 0.4, 1.0):
                a = build_sector_operator(H(two_j), L, H(two_m), "kink", dv)
                b = build_sector_operator(H(two_j), L, H(-two_m), "kink", dv)
                assert np.array_equal(dense_by_rank(b)[np.ix_(perm, perm)], dense_by_rank(a))
                gap = dense_spectrum(a).eigenvalues - dense_spectrum(b).eigenvalues
                worst = max(worst, float(np.abs(gap).max()))
    assert worst <= 1e-12, worst


def _nesting_misses(small, big, tol):
    """Values of ``small`` occurring more often in it than in ``big`` (within tol)."""
    return [v for v in small
            if (np.abs(big - v) <= tol).sum() < (np.abs(small - v) <= tol).sum()]


def test_spin_half_quantum_group_nesting():
    # at J = 1/2 the kink chain is U_q(sl2)-symmetric, so spec(M+1) sits inside
    # spec(M) for M >= 0, multiplicities included.  It does not hold for J >= 1
    # away from the isotropic point delta_inv = 1; J = 1, L = 2 stays pinned.
    def spectrum(two_j, L, two_m, dv):
        op = build_sector_operator(H(two_j), L, H(two_m), "kink", dv)
        return dense_spectrum(op).eigenvalues

    top = 7  # 2M of the fully polarized J = 1/2, L = 3 sector
    for dv in (0.0, 0.4, 1.0):
        for two_m in range(1, top, 2):
            upper = spectrum(1, 3, two_m + 2, dv)
            assert not _nesting_misses(upper, spectrum(1, 3, two_m, dv), 1e-10), (two_m, dv)
    assert _nesting_misses(spectrum(2, 2, 2, 0.4), spectrum(2, 2, 0, 0.4), 1e-3)


def test_c11_solver_cross_validation(tmp_path):
    worst = 0.0
    sectors = 0
    for two_j in (1, 2, 3, 4):
        grid = (0.0, 0.4) if two_j in (1, 3) else (0.4,)
        for L in GRID_L:
            for two_m in reachable_sectors(H(two_j), L):
                dim = sector_counts(H(two_j), L, H(two_m))[0]
                if not 8 <= dim <= 2000:
                    continue
                halves = HalfChains(H(two_j), L, H(two_m))
                for dv in grid:
                    op = build_sector_operator(H(two_j), L, H(two_m), "kink", dv, halves=halves)
                    ref = dense_spectrum(op).eigenvalues[:6]
                    got = lanczos_lowest(op, 6, seed=13).eigenvalues
                    worst = max(worst, float(np.abs(ref - got).max()))
                    sectors += 1
    # 203-state sectors: the delta_inv > 0 jobs take the seeded Lanczos route
    assert sector_counts(H(3), 3, H(-13))[0] > DENSE_MAX
    args = [
        "sweep", "-J", "3/2", "-L", "3", "--two-m=-13/2,13/2", "--delta-inv", "0:0.4:3",
        "--k", "3", "--seed", "3",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _criterion(
        11,
        "Lanczos vs dense to 1e-8 and byte-identical CLI reruns",
        worst <= 1e-8 and identical,
        f"{sectors} solver pairs, worst |diff| {worst:.2e}, rerun identical: {identical}",
    )
