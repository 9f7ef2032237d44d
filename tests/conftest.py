"""Shared fixtures and independent reference implementations.

The oracles here are deliberately naive (nested loops over the whole
coefficient box) so that the fast library paths are checked against
something with no shared code.
"""

import math

import numpy as np
import pytest

from kamconj import DiophantineVector, PeriodicField, cs_norm, verified

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PAIR_2D = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)


def eval_oracle(f: PeriodicField, x) -> float:
    """Plain double loop over every mode in the coefficient box."""
    x = np.asarray(x, dtype=float)
    deg = f.degree
    total = 0.0 + 0.0j
    if f.dim == 1:
        for i in range(2 * deg + 1):
            k = i - deg
            total += f.coeffs[i] * np.exp(2j * np.pi * k * x[0])
    else:
        for i in range(2 * deg + 1):
            for j in range(2 * deg + 1):
                k = (i - deg, j - deg)
                phase = k[0] * x[0] + k[1] * x[1]
                total += f.coeffs[i, j] * np.exp(2j * np.pi * phase)
    return float(total.real)


def dc_oracle(alpha, tau: float, radius: int):
    """Worst-case ratio dist(k.alpha, Z) * |k|_1^tau by explicit enumeration.

    Returns (worst_ratio, worst_k) over the canonical half ball of
    nonzero integer vectors with |k|_1 <= radius.
    """
    alpha = np.asarray(alpha, dtype=float)
    d = alpha.size
    worst = math.inf
    worst_k = None
    if d == 1:
        candidates = [(k,) for k in range(1, radius + 1)]
    else:
        candidates = []
        for k1 in range(-radius, radius + 1):
            for k2 in range(-radius, radius + 1):
                if abs(k1) + abs(k2) > radius or (k1, k2) == (0, 0):
                    continue
                if k1 > 0 or (k1 == 0 and k2 > 0):
                    candidates.append((k1, k2))
    for k in candidates:
        phase = sum(ki * ai for ki, ai in zip(k, alpha))
        dist = abs(phase - round(phase))
        norm1 = sum(abs(ki) for ki in k)
        ratio = dist * norm1**tau
        if ratio < worst:
            worst = ratio
            worst_k = k
    return worst, worst_k


def hull_contains_oracle(vertices, point, tol: float) -> bool:
    """2D hull membership edge by edge, one scalar cross product per edge.

    An edge a -> b rejects the point when the cross product falls below
    -tol * max(1, |b - a|); one or two vertices compare by distance.
    """
    p = np.asarray(point, dtype=float)
    v = np.asarray(vertices, dtype=float)
    if len(v) == 1:
        return bool(np.linalg.norm(p - v[0]) <= tol)
    if len(v) == 2:
        ab = v[1] - v[0]
        denom = float(ab @ ab)
        t = 0.0 if denom == 0 else float(np.clip((p - v[0]) @ ab / denom, 0.0, 1.0))
        return float(np.linalg.norm(p - (v[0] + t * ab))) <= tol
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        cross = float((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]))
        if cross < -tol * max(1.0, float(np.linalg.norm(b - a))):
            return False
    return True


def seeded_field(
    dim: int, degree: int, norm0: float, seed: int, decay: float = 0.5
) -> PeriodicField:
    """Random real field with coefficient decay, rescaled to an exact C0 norm."""
    rng = np.random.default_rng(seed)
    entries = []
    if dim == 1:
        ks = [(k,) for k in range(1, degree + 1)]
    else:
        ks = []
        for k1 in range(0, degree + 1):
            for k2 in range(-degree, degree + 1):
                if k1 == 0 and k2 <= 0:
                    continue
                if abs(k1) + abs(k2) <= degree:
                    ks.append((k1, k2))
    for k in ks:
        re, im = rng.standard_normal(2)
        weight = math.exp(-decay * sum(abs(x) for x in k))
        entries.append((k, 0.5 * weight * complex(re, im)))
    f = PeriodicField.from_entries(dim, degree, entries)
    base = cs_norm(f, 0)
    return f * (norm0 / base)


@pytest.fixture(scope="session")
def golden_vector() -> DiophantineVector:
    return verified(DiophantineVector(np.array([GOLDEN]), gamma=3.0, tau=1.0), 256)


@pytest.fixture(scope="session")
def pair_vector() -> DiophantineVector:
    return verified(DiophantineVector(np.array(PAIR_2D), gamma=17.0, tau=2.0), 256)
