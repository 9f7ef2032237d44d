"""Small-divisor lower bounds for rotation vectors."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DCViolation, DegenerateVector

__all__ = ["DiophantineVector", "verified_vector"]

_RESONANCE_FLOOR = 1e-13


def _power(base: float, exponent: float) -> float:
    """float(base) ** exponent, inf where that passes the float maximum."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return np.inf


@dataclass(frozen=True, eq=False)
class DiophantineVector:
    """Rotation vector with claimed small-divisor constants.

    The claim is dist(k . alpha, Z) >= 1 / (gamma * |k|_1^tau) for all
    0 < |k|_1 <= verified_up_to.  Construction does not check the claim;
    `verified_vector` establishes it over a range.
    """

    alpha: np.ndarray
    gamma: float
    tau: float
    verified_up_to: int = 0

    def __post_init__(self):
        a = _reduced(self.alpha)
        for name, value in (("tau", self.tau), ("gamma", self.gamma)):  # tau first, as a pass refuses it
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        a.flags.writeable = False
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def dim(self) -> int:
        return int(self.alpha.size)


def _reduced(alpha) -> np.ndarray:
    """alpha reduced mod 1, as every pass over the ball reads it."""
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if a.size not in (1, 2):
        raise ValueError("only dimensions 1 and 2 are supported")
    if not np.isfinite(a).all():  # it has no residue mod 1; reduced, it reads as a nan gamma
        raise ValueError(f"alpha components must be finite, got {a.tolist()}")
    return a % 1.0


def _ball(dim: int, radius: int):
    """Canonical half of the punctured l1 ball: one of each +-k pair."""
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if dim == 1:
        return np.arange(1, radius + 1)[:, None]
    # row k1 = 0 holds k2 = 1..radius, row k1 > 0 holds |k2| <= radius - k1, k2 increasing
    k1 = np.arange(radius + 1)
    first = np.where(k1 == 0, 1, k1 - radius)
    counts = radius - k1 - first + 1
    k2 = np.arange(counts.sum()) + np.repeat(first + counts - np.cumsum(counts), counts)
    return np.stack([np.repeat(k1, counts), k2], axis=1)


def _worst(alpha: np.ndarray, tau: float, radius: int):
    if not 0 < tau < np.inf:  # before the pass, which would read a nan tau as a nan gamma
        raise ValueError(f"tau must be positive and finite, got {tau}")
    k = _ball(alpha.size, radius)
    # one product per axis, summed in order: a BLAS kernel may fuse
    # k1*a1 + k2*a2, and near a resonance that last bit is ~1e-11 of the distance
    r = (k * alpha).sum(axis=1) % 1.0
    dist = np.minimum(r, 1.0 - r)
    # past the float maximum, |k|_1^tau = inf is the exact limit of the ratio, and a resonance still reads 0
    with np.errstate(over="ignore"):
        weight = np.abs(k).sum(axis=1).astype(float) ** tau
    ratio = np.multiply(dist, weight, out=np.zeros_like(dist), where=dist > 0)
    i = int(np.argmin(ratio))
    return tuple(int(x) for x in k[i]), float(ratio[i])


def _holds(vec: DiophantineVector, worst: tuple) -> bool:
    """The claim's verdict on one pass's (worst_k, worst_ratio)."""
    return bool(worst[1] >= 1.0 / vec.gamma)


def _fit(alpha, tau: float, radius: int) -> tuple:
    """(smallest admissible gamma, (worst_k, worst_ratio)), both from one pass."""
    worst_k, worst_ratio = worst = _worst(_reduced(alpha), float(tau), int(radius))
    if worst_ratio < _RESONANCE_FLOOR:
        raise DegenerateVector(f"resonance at k={worst_k}: k.alpha is an integer to roundoff")
    return 1.0 / worst_ratio, worst


def verified_vector(alpha, tau: float, radius: int, gamma=None) -> DiophantineVector:
    """(alpha, gamma, tau) verified up to `radius`, from one pass over the ball.

    The distance dist(k . alpha, Z) is symmetric under k -> -k, so the pass
    enumerates a canonical half of the ball (radius at least 1).  A given gamma must bound it
    (else DCViolation).  No gamma means the smallest admissible one plus
    1e-12 relative; when some k.alpha is an integer to roundoff no finite
    gamma works, and DegenerateVector is raised.
    """
    if gamma is None:
        best, worst = _fit(alpha, tau, radius)  # the fitting pass is the verifying pass
        vec = DiophantineVector(alpha, best * (1.0 + 1e-12), tau)
    else:
        vec = DiophantineVector(alpha, gamma, tau)
        worst = _worst(vec.alpha, vec.tau, int(radius))
    if not _holds(vec, worst):
        raise DCViolation(
            f"dist(k.alpha, Z) * |k|^tau = {worst[1]:.6e} at k={worst[0]}, "
            f"below 1/gamma = {1.0 / vec.gamma:.6e}"
        )
    return dataclasses.replace(vec, verified_up_to=int(radius))
