"""The oracles' single-site spin matrices."""

import math

import numpy as np
import pytest

from oracles import spin_matrices

# J = 1/2 .. 4, its ids J0 .. J7 indexing the grid
HALF_GRID = [pytest.param(t, id=f"J{t - 1}") for t in range(1, 9)]


@pytest.mark.parametrize("two_j", HALF_GRID)
def test_ladder_adjointness_exact(two_j):
    # raising out of m equals lowering out of m + 1, bit for bit, and both are
    # the root of the exact radicand (J - m)(J + m + 1) = i (2J - i + 1)
    _, splus, sminus = spin_matrices(two_j)
    for i in range(1, two_j + 1):  # column i holds m = J - i
        assert splus[i - 1, i] == sminus[i, i - 1] == math.sqrt(i * (two_j - i + 1))


def test_s3_ordering():
    s3, _, _ = spin_matrices(1)
    assert np.array_equal(s3, np.diag([0.5, -0.5]))
    s3, splus, sminus = spin_matrices(3)
    assert np.array_equal(np.diag(s3), [1.5, 0.5, -0.5, -1.5])
    # S+ strictly superdiagonal, S- strictly subdiagonal
    assert np.allclose(np.tril(splus), 0)
    assert np.allclose(np.triu(sminus), 0)
    assert np.array_equal(splus, sminus.T)


@pytest.mark.parametrize("two_j", HALF_GRID)
def test_su2_identities(two_j):
    s3, splus, sminus = spin_matrices(two_j)
    comm = splus @ sminus - sminus @ splus
    assert np.abs(comm - 2 * s3).max() <= 1e-12
    casimir = s3 @ s3 + 0.5 * (splus @ sminus + sminus @ splus)
    jf = two_j / 2
    assert np.abs(casimir - jf * (jf + 1) * np.eye(two_j + 1)).max() <= 1e-12


def test_spin_zero_rejected():
    with pytest.raises(ValueError):
        spin_matrices(0)
