"""Product-amplitude zero mode of the kink chain and magnetization profiles.

For anisotropy delta > 1 put q = 1/(delta + sqrt(delta^2 - 1)) in (0, 1), the
root of (q + 1/q)/2 = delta.  In down-unit digits d_alpha the sector ground
state has unnormalized amplitude

    prod_alpha  binom(2J, d_alpha)^(1/2) * q^(alpha * d_alpha) ,

an exact zero mode of the kink chain at delta_inv = 1/delta.  Amplitudes
are accumulated in log space: the powers of q span hundreds of orders of
magnitude on longer chains, and only ratios against the largest amplitude
matter after normalization.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .basis import SectorBasis
from .halfint import as_half


def q_from_delta(delta: float) -> float:
    """The root q in (0, 1] of (q + 1/q)/2 = delta, for finite delta >= 1.

    Uses the reciprocal form to avoid cancellation at large delta, and
    sqrt(delta - 1) * sqrt(delta + 1) instead of sqrt(delta^2 - 1), which
    would overflow near delta = 1e154; the round-trip residual is machine
    precision relative to delta.  A delta so large that q is no longer a
    normal float (about 1e308) is refused.
    """
    delta = float(delta)
    if not 1.0 <= delta < math.inf:
        raise ValueError(f"anisotropy must be finite with delta >= 1, got {delta}")
    q = 1.0 / (delta + math.sqrt(delta - 1.0) * math.sqrt(delta + 1.0))
    if q < sys.float_info.min:
        raise ValueError(f"anisotropy {delta} is too large: q = 1/(2 delta) underflows")
    if abs(0.5 * (q + 1.0 / q) - delta) > 1e-12 * max(1.0, delta):
        raise RuntimeError("q parameter failed its round-trip check")
    return q


@dataclass
class SectorVector:
    """Dense real amplitudes over one sector basis, unit 2-norm."""

    basis: SectorBasis
    amplitudes: np.ndarray


def groundstate_vector(J, L, M, delta: float, basis: SectorBasis | None = None) -> SectorVector:
    """Normalized product-form ground state of the sector at anisotropy delta > 1."""
    delta = float(delta)
    if delta <= 1.0:
        raise ValueError(f"the product form needs delta > 1, got {delta}")
    J = as_half(J)
    M = as_half(M)
    L = int(L)
    if basis is None:
        basis = SectorBasis(J, L, M)
    elif (basis.two_j, basis.L, basis.two_m) != (J.twice, L, M.twice):
        raise ValueError("supplied basis does not match (J, L, M)")
    q = q_from_delta(delta)
    tj = basis.two_j
    log_binom = np.array(
        [math.lgamma(tj + 1) - math.lgamma(d + 1) - math.lgamma(tj - d + 1) for d in range(tj + 1)]
    )
    alphas = np.arange(-L, L + 1, dtype=float)
    down = np.ascontiguousarray(basis.down)  # float row sums in row-major order
    log_amp = 0.5 * log_binom[down].sum(axis=1) + math.log(q) * (down @ alphas)
    amp = np.exp(log_amp - log_amp.max())
    return SectorVector(basis, amp / np.linalg.norm(amp))


def profile_from_amplitudes(basis: SectorBasis, amplitudes: np.ndarray) -> np.ndarray:
    """Site-resolved magnetization <S3_alpha> of a unit vector over the sector."""
    weights = np.asarray(amplitudes) ** 2
    # the sum over states runs in the row-major order of the digit rows
    return 0.5 * basis.two_j - weights @ np.ascontiguousarray(basis.down)


def magnetization_profile(vector: SectorVector) -> np.ndarray:
    """<S3_alpha> for alpha = -L..L; each entry lies in [-J, J]."""
    return profile_from_amplitudes(vector.basis, vector.amplitudes)
