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

from .halfint import as_half
from .hamiltonian import HalfChains


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
    """Real amplitudes over one sector, unit 2-norm, indexed in the sum-major
    order of the sector's ``halves`` (``HalfChains``), like its operators."""

    halves: HalfChains
    amplitudes: np.ndarray


def groundstate_vector(J, L, M, delta: float, halves: HalfChains | None = None) -> SectorVector:
    """Normalized product-form ground state of the sector at anisotropy delta > 1.

    The log-amplitude is a sum over sites, so each block of the sum-major
    index is a left-row term plus a right-row term, broadcast."""
    delta = float(delta)
    if delta <= 1.0:
        raise ValueError(f"the product form needs delta > 1, got {delta}")
    J = as_half(J)
    M = as_half(M)
    L = int(L)
    if halves is None:
        halves = HalfChains(J, L, M)
    elif (halves.two_j, halves.L, halves.two_m) != (J.twice, L, M.twice):
        raise ValueError("supplied half-chain tables do not match (J, L, M)")
    log_q = math.log(q_from_delta(delta))
    tj = halves.two_j
    log_binom = np.array(
        [math.lgamma(tj + 1) - math.lgamma(d + 1) - math.lgamma(tj - d + 1) for d in range(tj + 1)]
    )

    def term(rows, alphas):
        return 0.5 * log_binom[rows].sum(axis=1) + log_q * (rows @ alphas)

    log_amp = np.empty(halves.dim)
    # the left rows run outward from site -1, the right ones from site 0
    for X, left, right in zip(halves.blocks(log_amp), halves.left, halves.right):
        X[...] = term(left, -np.arange(1.0, L + 1))[:, None] + term(right, np.arange(L + 1.0))
    amp = np.exp(log_amp - log_amp.max())
    return SectorVector(halves, amp / np.linalg.norm(amp))


def profile_from_amplitudes(halves: HalfChains, amplitudes: np.ndarray) -> np.ndarray:
    """Site-resolved magnetization <S3_alpha> of a unit vector over the sector,
    indexed in the sum-major order of ``halves``: each block's weights W_s
    reduce to W_s.sum(1) @ left and W_s.sum(0) @ right."""
    left_down, right_down = np.zeros(halves.L), np.zeros(halves.L + 1)
    weights = np.asarray(amplitudes) ** 2
    for W, left, right in zip(halves.blocks(weights), halves.left, halves.right):
        left_down += W.sum(axis=1) @ left
        right_down += W.sum(axis=0) @ right
    # the left rows run outward from site -1, so site -L comes last
    return 0.5 * halves.two_j - np.concatenate([left_down[::-1], right_down])


def magnetization_profile(vector: SectorVector) -> np.ndarray:
    """<S3_alpha> for alpha = -L..L; each entry lies in [-J, J]."""
    return profile_from_amplitudes(vector.halves, vector.amplitudes)
