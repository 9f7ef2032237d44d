"""One quadratic improvement step for a near-rotation torus map.

A step solves the linearized conjugacy equation below a cutoff, pulls the map
back by the resulting corrector, and re-expresses the result relative to the
target rotation.  The translation part is left where the pullback puts it;
its distance from the target ("drift") is reported, not subtracted.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .cohomology import solve
from .diophantine import DiophantineVector, _power
from .errors import NonFinite, SmallnessViolated
from .rotation import convex_hull, hull_contains
from .spectral import (
    TorusMapLift,
    _sup,
    conjugate,
    cs_norm,
    deviation_norm,
    rebase,
    sampling_grid,
)

__all__ = [
    "StepConfig",
    "StepDiagnostics",
    "step",
]


@dataclass(frozen=True)
class StepConfig:
    """Knobs for a single step.

    smallness_c scales the precondition C * gamma * N^(2*tau+d+2) * eps0 < 1;
    c_post scales the accepted drift against the post-step deviation;
    target_degree fixes the band of the pulled-back map (default: keep at
    least the cutoff and the incoming degree).
    """

    smallness_c: float = 1.0
    c_post: float = 2.0
    target_degree: int | None = None
    drift_tol_abs: float = 0.0


@dataclass(frozen=True, eq=False)
class StepDiagnostics:
    cutoff: int
    smallness_margin: float
    eps0_before: float
    eps0_after: float
    drift: np.ndarray
    drift_norm: float
    drift_bound: float
    corrector_norm0: float
    posteriori_ok: bool
    hull_ok: bool


def _drift_check(f_next: TorusMapLift, vec: DiophantineVector, config: StepConfig) -> dict:
    """The `StepDiagnostics` fields that validate the translation drift of a rebased map.

    One value grid per component, on the sampling grid of the map's box
    degree, gives both deviations and the hull; value_grid adds a mean on the
    grid, so eps0_after is deviation_norm(f_next, alpha) bit for bit.  Two
    checks: the drift must not exceed c_post times the deviation from the
    drifted rotation (posteriori_ok), and the target defect f(x) - x - alpha
    must change sign, zero inside the hull of its sampled values (hull_ok).
    The hull margin absorbs roundoff at the scale of the deviation itself.
    """
    values = f_next.displacement_values(sampling_grid(f_next.degree))
    drift = f_next.rho - vec.alpha
    drift_norm = float(np.linalg.norm(drift))
    eps0 = _sup(values)
    bound = config.c_post * eps0
    return {
        "eps0_after": _sup(values, drift),
        "drift": drift,
        "drift_norm": drift_norm,
        "drift_bound": bound,
        "posteriori_ok": bool(drift_norm <= bound + config.drift_tol_abs),
        "hull_ok": _origin_in_hull(values, drift, config.drift_tol_abs + 1e-13 + 1e-9 * eps0),
    }


def _origin_in_hull(values, drift, tol: float) -> bool:
    """Whether the hull of the points (v_i + drift_i)_i, one coordinate per grid, holds the origin.

    `hull_contains(convex_hull(points), 0, tol)`, without the hull when the
    answer is plain: finite points with one strictly inside each open orthant
    put the origin strictly inside the hull of those points, since no
    hyperplane through the origin has them all on one side (in 1D: a point on
    each side of 0).  The orthants are read on the grids one at a time, since
    v + a > 0 exactly when v > -a, and the points are stacked only for the
    full hull.
    """
    def occupied(signs) -> bool:
        sides = (v > -a if up else v < -a for v, a, up in zip(values, drift, signs))
        return bool(np.any(functools.reduce(operator.and_, sides)))

    orthants = itertools.product((True, False), repeat=len(values))
    # finite as np.all(np.isfinite(v + a)): rounding is monotone
    if math.isfinite(_sup(values, drift)) and all(map(occupied, orthants)):
        return True
    points = np.stack([a + v.ravel() for v, a in zip(values, drift)], axis=1)
    return hull_contains(convex_hull(points), np.zeros(points.shape[1]), tol)


def step(
    f: TorusMapLift,
    vec: DiophantineVector,
    cutoff: int,
    config: StepConfig = StepConfig(),
) -> tuple:
    """Run one improvement step; returns (next map, corrector map, diagnostics).

    Raises SmallnessViolated when the precondition fails; the caller decides
    whether to retry at a lower cutoff.
    """
    f = rebase(f, vec.alpha)
    d = f.dim
    eps0_before = deviation_norm(f, vec.alpha, 0)
    if not math.isfinite(eps0_before):  # a nan margin would pass the smallness test
        raise NonFinite(f"deviation eps0 = {eps0_before} is not finite")
    # a rigid rotation (eps0 = 0) has margin 0 even where N^(2tau+d+2) reads inf
    margin = vec.gamma * _power(cutoff, 2.0 * vec.tau + d + 2.0) * eps0_before if eps0_before else 0.0
    if config.smallness_c * margin >= 1.0:
        raise SmallnessViolated(
            f"C * gamma * N^(2tau+d+2) * eps0 = {config.smallness_c * margin:.3e} >= 1 "
            f"at cutoff {cutoff}"
        )

    correctors = tuple(solve(u, vec, cutoff).corrector for u in f.displacement)
    phi = TorusMapLift(np.zeros(d), correctors)
    corrector_norm0 = float(np.max([cs_norm(c, 0, "grid") for c in correctors]))

    target = config.target_degree
    if target is None:
        target = max(int(cutoff), f.degree)
    f_next = rebase(conjugate(phi, f, target), vec.alpha)
    return f_next, phi, StepDiagnostics(
        cutoff=int(cutoff),
        smallness_margin=margin,
        eps0_before=eps0_before,
        corrector_norm0=corrector_norm0,
        **_drift_check(f_next, vec, config),
    )
