"""Certificates that the transverse term is a relatively bounded perturbation
of the diagonal limit, and the anisotropy thresholds that follow.

The two-site diagonal term h0 = J^2 - S3 x S3 is positive semidefinite with
kernel spanned by the two aligned extremal products, smallest positive
eigenvalue J, and dominates the exchange term h1 = (S+ x S- + S- x S+)/2 as
-h0 <= h1 <= h0 for every spin; the constant 1 is sharp.  The J-weighted form
-J h0 <= h1 <= J h0 therefore holds for J >= 1; its margin comes from 4J + 1
tridiagonal blocks of fixed m_a + m_b, one sign sufficing as J h0 +/- h1 are
conjugate by diag((-1)^d_a).  Summed over the chain it gives, for J >= 1 and
every vector v,

    |H1 v|  <=  sqrt(J^2 + 2J^3) ( |H0 v| + 2 J^2 |v| )

with H0 the diagonal kink limit and H1 the full exchange sum.  Both fail at
J = 1/2: the weighted two-site margin is -1/4 there, and in the sector
J = 1/2, L = 3, M = -1/2 a single basis vector reaches the ratio sqrt(2) in
the relative bound.  The restriction costs nothing, because at J = 1/2 every
Ising excitation n^2 + (J +/- m) n >= 1 = 2J lies on or above the band edge:
the excitation sets are empty and no certificate is ever issued.  For an
isolated level E with isolation distance d, a circle of radius d/2 around E
stays in the resolvent set provided

    c1 / delta + c2 (1 - sqrt(1 - delta^-2))  <  1,
    c1 = sqrt(J^2 + 2J^3) (2 + 2E/d + 4J^2/d),      c2 = 4J^2 / d,

and ``delta_star`` below is the exact root of that threshold equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .halfint import as_half


def local_inequality_margin(J) -> float:
    """min over signs of the smallest eigenvalue of J*h0 +/- h1 on two sites.

    J*h0 + h1 splits into 4J + 1 blocks of fixed s = d_a + d_b (d = J - m),
    each tridiagonal in d_a with at most 2J + 1 rows: diagonal J(J^2 - m_a m_b),
    off-diagonal sqrt(rad_down(m_a) rad_up(m_b)) / 2.  J*h0 - h1 is its
    conjugate by diag((-1)^d_a), so one sign gives the margin.  Nonnegative for
    J >= 1 (up to rounding), where J*h0 dominates h1; -1/4 at J = 1/2.
    Each block is small enough for numpy's dense eigvalsh, so no scipy is loaded.
    """
    t = as_half(J).twice
    margin = math.inf
    for s in range(2 * t + 1):
        da = np.arange(max(0, s - t), min(s, t) + 1, dtype=float)
        diag = t * (t * t - (t - 2 * da) * (t - 2 * (s - da))) / 8.0
        off = 0.5 * np.sqrt(((da + 1) * (t - da) * (s - da) * (t - s + da + 1))[:-1])
        block = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        margin = min(margin, np.linalg.eigvalsh(block)[0])
    return float(margin)


@dataclass(frozen=True)
class Certificate:
    """Threshold constants for one isolated level."""

    two_j: int
    energy: float
    isolation: float
    c1: float
    c2: float
    delta_star: float
    delta_simple: float


def series_margin(c1: float, c2: float, delta: float) -> float:
    """1 - [c1/delta + c2 (1 - sqrt(1 - delta^-2))]; positive iff the
    perturbation series converges on the whole contour."""
    u = 1.0 / delta
    return 1.0 - (c1 * u + c2 * (1.0 - math.sqrt(1.0 - u * u)))


def certificate_constants(J, E: float, d: float) -> Certificate:
    """Constants c1, c2 and thresholds for level E with isolation distance d.

    ``delta_star`` is the exact root of c1/delta + c2 (1 - sqrt(1-delta^-2)) = 1;
    ``delta_simple`` is the quick reference value 18 J^(5/2).
    """
    J = as_half(J)
    E = float(E)
    d = float(d)
    if d <= 0.0:
        raise ValueError(f"isolation distance must be positive, got {d}")
    if not 0.0 < E < J.twice:
        raise ValueError(f"level must lie strictly between 0 and the band edge 2J, got {E}")
    jf = float(J)
    base = math.sqrt(jf * jf + 2.0 * jf**3)
    c1 = base * (2.0 + 2.0 * E / d + 4.0 * jf * jf / d)
    c2 = 4.0 * jf * jf / d
    delta_star = (c1 * c1 + c2 * c2) / (
        c2 * math.sqrt(c1 * c1 + 2.0 * c2 - 1.0) + c1 - c1 * c2
    )
    delta_simple = 18.0 * jf**2.5
    return Certificate(J.twice, E, d, c1, c2, delta_star, delta_simple)
