import numpy as np
import pytest

from xxzkink.basis import SectorBasis, reachable_sectors
from xxzkink.groundstate import (
    groundstate_vector,
    magnetization_profile,
    q_from_delta,
)
from xxzkink.halfint import HalfInt
from xxzkink.hamiltonian import build_sector_operator

H = HalfInt

DELTAS = (1.25, 2.5, 10.0)


def test_q_from_delta_examples():
    assert q_from_delta(1.0) == 1.0
    assert q_from_delta(1.25) == pytest.approx(0.5, abs=1e-15)
    big = q_from_delta(1e6)
    assert big == pytest.approx(5e-7, rel=1e-6)
    qs = [q_from_delta(d) for d in (1.0, 1.1, 2.0, 10.0, 1e3, 1e6)]
    assert qs == sorted(qs, reverse=True)  # monotone decreasing in delta
    for bad in (0.99, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            q_from_delta(bad)


def test_q_from_delta_huge_anisotropy():
    # delta * delta overflows near 1e154; q itself stays a normal float to ~1e308
    for delta in (1e154, 1e200, 1e300):
        q = q_from_delta(delta)
        assert q == pytest.approx(0.5 / delta, rel=1e-15)
        assert abs(0.5 * (q + 1.0 / q) - delta) <= 1e-12 * delta
    for bad in (9e307, 1.7e308):  # q would be subnormal or zero
        with pytest.raises(ValueError, match="too large"):
            q_from_delta(bad)


def test_q_round_trip_residual():
    for delta in (1.0, 1.0000001, 1.25, 3.0, 57.0, 1e6, 1e12, 1e200):
        q = q_from_delta(delta)
        assert abs(0.5 * (q + 1.0 / q) - delta) <= 1e-12 * max(1.0, delta)


def test_one_dimensional_sector():
    v = groundstate_vector(H(1), 2, H(5), 2.5)
    assert v.amplitudes.shape == (1,)
    assert v.amplitudes[0] == 1.0
    assert np.array_equal(magnetization_profile(v), np.full(5, 0.5))


def test_single_down_spin_amplitudes():
    # one down spin at site alpha carries weight q^alpha before normalization
    delta = 2.5
    q = q_from_delta(delta)
    basis = SectorBasis(H(1), 2, H(3))
    v = groundstate_vector(H(1), 2, H(3), delta, basis=basis)
    expected = np.array([q ** float(alpha) for alpha in range(-2, 3)])
    expected /= np.linalg.norm(expected)
    by_site = np.empty(5)
    for rank, row in enumerate(basis.down):
        by_site[int(np.nonzero(row)[0][0])] = v.amplitudes[rank]
    assert np.abs(by_site - expected).max() <= 1e-12


def test_requires_delta_above_one():
    with pytest.raises(ValueError):
        groundstate_vector(H(1), 2, H(3), 1.0)


def test_refuses_a_basis_of_another_sector():
    with pytest.raises(ValueError, match="supplied basis does not match"):
        groundstate_vector(H(1), 2, H(3), 2.5, basis=SectorBasis(H(1), 2, H(1)))


@pytest.mark.parametrize("two_j", [1, 2])
@pytest.mark.parametrize("delta", DELTAS)
def test_zero_mode_residual(two_j, delta):
    for two_m in reachable_sectors(H(two_j), 2):
        basis = SectorBasis(H(two_j), 2, H(two_m))
        v = groundstate_vector(H(two_j), 2, H(two_m), delta, basis=basis)
        op = build_sector_operator(H(two_j), 2, H(two_m), "kink", 1.0 / delta)
        # the amplitudes are indexed by rank, the operator in its own order
        assert np.linalg.norm(op.matvec(v.amplitudes[op.order])) <= 1e-10
        assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0, abs=1e-14)


def test_profile_bounds_and_shape():
    v = groundstate_vector(H(3), 3, H(-3), 2.5)
    p = magnetization_profile(v)
    assert p.shape == (7,)
    assert (np.abs(p) <= 1.5 + 1e-12).all()
    assert p[0] < -1.4 and p[-1] > 1.4  # polarized ends around the wall


def test_profile_reflection_symmetry():
    # flipping every spin and reflecting the chain maps sector M to -M
    for two_j, L in ((1, 3), (3, 2), (4, 2)):
        for two_m in reachable_sectors(H(two_j), L):
            p = magnetization_profile(groundstate_vector(H(two_j), L, H(two_m), 2.5))
            q = magnetization_profile(groundstate_vector(H(two_j), L, H(-two_m), 2.5))
            assert np.abs(p + q[::-1]).max() <= 1e-10


@pytest.mark.parametrize("delta", DELTAS)
def test_profile_monotone(delta):
    for two_j in (1, 2, 3, 4):
        for L in (2, 3, 4):
            for two_m in reachable_sectors(H(two_j), L):
                basis = SectorBasis(H(two_j), L, H(two_m))
                p = magnetization_profile(
                    groundstate_vector(H(two_j), L, H(two_m), delta, basis=basis)
                )
                assert (np.diff(p) >= -1e-12).all()
