import numpy as np
import pytest

from bound_checks import relative_bound_constant, sampled_bound_ratio
from oracles import two_site_operators
from xxzkink.certificates import certificate_constants, local_inequality_margin, series_margin
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import build_sector_operator

H = HalfInt


def test_relative_bound_trivial_cases():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((6, 6))
    B = B + B.T
    assert relative_bound_constant(np.eye(6), np.zeros((6, 6))) == 0.0
    c = relative_bound_constant(np.eye(6), B)
    assert c == pytest.approx(np.abs(np.linalg.eigvalsh(B)).max(), rel=1e-12)


def test_relative_bound_two_site_example():
    # the lemma constant |h1| / lambda_1 is certified but not optimal: at
    # J = 1 it is sqrt(2), while the sharp domination constant is 1 for every
    # J (it equals J only here, witnessed by the zero margin of J*h0 +/- h1)
    h0, h1 = two_site_operators(2)  # J = 1
    c = relative_bound_constant(h0, h1)
    assert c == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert np.linalg.eigvalsh(c * h0 - h1).min() >= -1e-10
    assert local_inequality_margin(H(2)) >= -1e-12


def test_relative_bound_kernel_violation():
    A = np.diag([0.0, 1.0])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="kernel"):
        relative_bound_constant(A, B)


def test_relative_bound_rejects_indefinite_a():
    with pytest.raises(ValueError):
        relative_bound_constant(np.diag([-1.0, 1.0]), np.zeros((2, 2)))


def test_two_site_kernel_dimension():
    for two_j in (2, 3, 4):
        h0, _ = two_site_operators(two_j)
        evals = np.linalg.eigvalsh(h0)
        assert int((np.abs(evals) < 1e-10).sum()) == 2  # both aligned extremal products


@pytest.mark.parametrize("two_j", [2, 3, 4, 5, 6])
def test_local_inequality_margin_holds_above_spin_half(two_j):
    assert local_inequality_margin(H(two_j)) >= -1e-12


def test_block_margin_matches_the_dense_two_site_margin():
    # the dense product-space matrices of (2J+1)^2 rows are the oracle
    for two_j in range(1, 14):
        h0, h1 = two_site_operators(two_j)
        dense = min(float(np.linalg.eigvalsh(two_j / 2 * h0 + sign * h1)[0]) for sign in (1, -1))
        assert local_inequality_margin(H(two_j)) == pytest.approx(dense, abs=1e-12), two_j


def test_local_inequality_fails_at_spin_half():
    # the exchange bond norm is 1/2 > J^2 = 1/4 at J = 1/2, so the domination
    # constant is 1, not J; the J-weighted margin is exactly -1/4
    assert local_inequality_margin(H(1)) == pytest.approx(-0.25, abs=1e-12)


def test_certificate_reference_values():
    cert = certificate_constants(H(3), 1.0, 1.0)
    assert cert.c1 == pytest.approx(39.0, abs=1e-12)
    assert cert.c2 == pytest.approx(9.0, abs=1e-12)
    assert cert.delta_simple == pytest.approx(18.0 * 1.5**2.5, abs=1e-12)
    assert cert.delta_star <= cert.delta_simple
    assert cert.delta_star == pytest.approx(39.115, abs=1e-3)


def test_delta_star_is_the_threshold_root():
    # independent root finding by bisection on the series margin
    for (two_j, E, d) in ((3, 1.0, 1.0), (3, 2.0, 1.0), (2, 1.0, 1.0), (4, 3.0, 2.0)):
        cert = certificate_constants(H(two_j), E, d)
        lo, hi = 1.0 + 1e-9, 1e9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if series_margin(cert.c1, cert.c2, mid) > 0.0:
                hi = mid
            else:
                lo = mid
        assert cert.delta_star == pytest.approx(hi, rel=1e-9)
        assert series_margin(cert.c1, cert.c2, cert.delta_star * (1 + 1e-9)) > 0.0
        assert series_margin(cert.c1, cert.c2, cert.delta_star * (1 - 1e-9)) < 0.0


def test_certificate_domain_errors():
    with pytest.raises(ValueError):
        certificate_constants(H(3), 1.0, 0.0)
    with pytest.raises(ValueError):
        certificate_constants(H(3), 1.0, -1.0)
    with pytest.raises(ValueError):
        certificate_constants(H(3), 3.0, 1.0)  # at the band edge
    with pytest.raises(ValueError):
        certificate_constants(H(3), 0.0, 1.0)


def test_random_vector_bound_check():
    worst = sampled_bound_ratio(H(3), 2, H(-3), trials=200, seed=11)
    assert 0.0 < worst <= 1.0 + 1e-10
    # deterministic for a fixed seed
    again = sampled_bound_ratio(H(3), 2, H(-3), trials=200, seed=11)
    assert worst == again
    with pytest.raises(ValueError):
        sampled_bound_ratio(H(3), 2, H(-3), trials=0)


def test_h2_diagonal_norm():
    for two_j, L, two_m in ((3, 2, -3), (2, 3, 0), (4, 2, 2)):
        op = build_sector_operator(H(two_j), L, H(two_m), "h2")
        assert np.abs(op.diagonal()).max() == 2.0 * (two_j / 2.0) ** 2

