"""Spectral solution of the linearized conjugacy equation.

For a zero-mean band-limited field f and a rotation vector alpha, solves

    phi(x + alpha) - phi(x) = -f(x)    (modes 0 < |k|_1 <= cutoff)

coefficientwise: phi_k = -f_k / (e^(2*pi*i*k.alpha) - 1), with phi_0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diophantine import DiophantineVector, _power
from .errors import CohomologyResidualError, DCViolation, DivisorTooSmall, NonFinite
from .spectral import PeriodicField, _l1_radii, cs_norm, frequency_axis, truncate

__all__ = ["CohomologySolution", "solve", "growth_ratios"]

_DIVISOR_FLOOR = 1e-14
_RESIDUAL_REL = 1e-10


@dataclass(frozen=True, eq=False)
class CohomologySolution:
    corrector: PeriodicField
    residual: float  # l1 sum of the coefficients of phi(x + alpha) - phi(x) + f(x) below the cutoff
    scale: float  # |f|_2, the square root of the sum of |f_k|^2 over the whole box
    min_divisor: float


def _divisors(vec: DiophantineVector, degree: int) -> np.ndarray:
    """Box of e^(2*pi*i*k.alpha) - 1 values, argument reduced mod 1 first."""
    ax = frequency_axis(degree)
    if vec.dim == 1:
        t = (ax * vec.alpha[0]) % 1.0
    else:
        t = (ax[:, None] * vec.alpha[0] + ax[None, :] * vec.alpha[1]) % 1.0
    return np.exp(2j * np.pi * t) - 1.0


def solve(f: PeriodicField, vec: DiophantineVector, cutoff: int) -> CohomologySolution:
    """Solve for the corrector below the cutoff; the mean of f is ignored.

    Requires the rotation vector to have been verified at least up to the
    effective band, refuses divisors below an absolute floor, and checks the
    defining equation on the coefficients after the fact.
    """
    if f.dim != vec.dim:
        raise ValueError("field and rotation vector dimensions differ")
    effective = min(int(cutoff), f.degree)
    if vec.verified_up_to < effective:
        raise DCViolation(
            f"rotation vector verified only up to {vec.verified_up_to}, need {effective}"
        )
    rhs = truncate(f, effective, mode="homogeneous")
    div = _divisors(vec, rhs.degree)
    mags = np.abs(div)
    radii = _l1_radii(rhs.dim, rhs.degree)
    in_ball = (radii <= rhs.degree) & (radii > 0)
    min_divisor = float(np.min(mags[in_ball])) if in_ball.any() else np.inf
    if min_divisor < _DIVISOR_FLOOR:
        k = np.unravel_index(int(np.argmin(np.where(in_ball, mags, np.inf))), mags.shape)
        k = tuple(int(i) - rhs.degree for i in k)
        raise DivisorTooSmall(f"divisor {min_divisor:.3e} at k={k} is below {_DIVISOR_FLOOR:.0e}")
    coeffs = np.zeros_like(rhs.coeffs)
    np.divide(-rhs.coeffs, div, out=coeffs, where=in_ball)
    phi = PeriodicField(rhs.dim, rhs.degree, coeffs)

    # the l1 sum of the residual's coefficients bounds its sup, and |f|_2 is at most
    # f's sup on any grid that resolves f (Parseval): no grid sup could pass more
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.sum(np.abs(phi.coeffs * div + rhs.coeffs)))
        size = float(np.sum(np.abs(f.coeffs)))
    if not (math.isfinite(residual) and math.isfinite(size)):
        raise NonFinite(f"l1 sum of the residual ({residual:.3e}) or the field ({size:.3e}) overflows")
    top = max(float(np.max(np.abs(f.coeffs))), 1e-300)  # |f|_2 = top * |f / top|_2 cannot overflow
    scale = max(top * float(np.linalg.norm(f.coeffs / top)), 1e-300)
    if residual > _RESIDUAL_REL * scale:
        raise CohomologyResidualError(
            f"corrector residual {residual:.3e} exceeds {_RESIDUAL_REL:.0e} * {scale:.3e}"
        )
    return CohomologySolution(corrector=phi, residual=residual, scale=scale, min_divisor=min_divisor)


def growth_ratios(f: PeriodicField, vec: DiophantineVector, cutoffs, s_values) -> list:
    """Corrector norms against the gamma * N^(s + tau + d/2) * |f|_0 envelope.

    Returns one row per cutoff: (cutoff, [(s, norm, ratio), ...]).  Bounded
    ratios across cutoffs are the expected loss profile of the solver.
    """
    base = cs_norm(f, 0)
    rows = []
    for cutoff in cutoffs:
        sol = solve(f, vec, int(cutoff))
        cells = []
        for s in s_values:
            value = cs_norm(sol.corrector, s)
            envelope = vec.gamma * _power(cutoff, float(s) + vec.tau + f.dim / 2.0) * base
            cells.append((s, value, value / envelope if envelope > 0 else np.inf))
        rows.append((int(cutoff), cells))
    return rows
