"""One quadratic improvement step for a near-rotation torus map.

A step solves the linearized conjugacy equation below a cutoff, pulls the map
back by the resulting corrector, and re-expresses the result relative to the
target rotation.  The translation part is left where the pullback puts it;
its distance from the target ("drift") is reported, not subtracted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohomology import solve
from .diophantine import DiophantineVector
from .errors import NonFinite, SmallnessViolated
from .rotation import convex_hull, hull_contains
from .spectral import (
    TorusMapLift,
    _abs_max,
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


@dataclass(frozen=True, eq=False)
class PosterioriReport:
    drift: np.ndarray
    drift_norm: float
    bound: float
    drift_ok: bool
    hull_ok: bool


def _check_values(f: TorusMapLift) -> tuple:
    """Each displacement component on the sampling grid of the map's box degree."""
    return f.displacement_values(sampling_grid(f.degree))


def _sup(grids, shifts=None) -> float:
    """Largest |g + shift| on any of the grids (no shifts: |g|), with no copy of a grid."""
    shifts = (0.0,) * len(grids) if shifts is None else shifts
    # np.max, not max(): a nan sup stays nan
    return float(np.max([_abs_max(g, a) for g, a in zip(grids, shifts)]))


def _posteriori(f_next, values, vec, c_post, tol_abs) -> PosterioriReport:
    """Validate the translation drift of a rebased map from its `_check_values`.

    Two checks: the drift must not exceed c_post times the deviation from the
    drifted rotation, and the target defect f(x) - x - alpha must change sign
    (zero inside the hull of its sampled values).  The hull margin absorbs
    roundoff at the scale of the deviation itself.
    """
    drift = f_next.rho - vec.alpha
    drift_norm = float(np.linalg.norm(drift))
    eps0 = _sup(values)
    bound = c_post * eps0
    hull_tol = tol_abs + 1e-13 + 1e-9 * eps0
    return PosterioriReport(
        drift=drift,
        drift_norm=drift_norm,
        bound=bound,
        drift_ok=bool(drift_norm <= bound + tol_abs),
        hull_ok=_origin_in_hull(values, drift, hull_tol),
    )


def _origin_in_hull(values, drift, tol: float) -> bool:
    """Whether the hull of the points (v_i + drift_i)_i, one coordinate per grid, holds the origin.

    `hull_contains(convex_hull(points), 0, tol)`, without the hull when the
    answer is plain.  In 2D, finite points with one strictly inside each open
    quadrant put the origin strictly inside the hull of those four: no line
    through the origin has all four on one side.  The quadrants are read on
    the grids, since v + a > 0 exactly when v > -a, and the points are stacked
    only for the full hull.
    """
    if len(values) == 2 and all(
        math.isfinite(np.max(v) + a) and math.isfinite(np.min(v) + a) for v, a in zip(values, drift)
    ):  # as np.all(np.isfinite(v + a)): rounding is monotone
        (x, y), (a, b) = values, drift
        if all(
            np.any((x > -a if right else x < -a) & (y > -b if up else y < -b))
            for right, up in ((True, True), (False, True), (False, False), (True, False))
        ):
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
    margin = vec.gamma * float(cutoff) ** (2.0 * vec.tau + d + 2.0) * eps0_before
    if config.smallness_c * margin >= 1.0:
        raise SmallnessViolated(
            f"C * gamma * N^(2tau+d+2) * eps0 = {config.smallness_c * margin:.3e} >= 1 "
            f"at cutoff {cutoff}"
        )

    correctors = tuple(solve(u, vec, cutoff).corrector for u in f.displacement)
    phi = TorusMapLift(np.zeros(d), correctors)
    corrector_norm0 = max(cs_norm(c, 0, "grid") for c in correctors)

    target = config.target_degree
    if target is None:
        target = max(int(cutoff), f.degree)
    f_next = rebase(conjugate(phi, f, target), vec.alpha)

    # one value grid per component gives both deviations and the hull; value_grid
    # adds a mean on the grid, so eps0_after is deviation_norm(f_next, alpha) bit for bit
    values = _check_values(f_next)
    post = _posteriori(f_next, values, vec, config.c_post, config.drift_tol_abs)
    eps0_after = _sup(values, post.drift)
    diags = StepDiagnostics(
        cutoff=int(cutoff),
        smallness_margin=margin,
        eps0_before=eps0_before,
        eps0_after=eps0_after,
        drift=post.drift,
        drift_norm=post.drift_norm,
        drift_bound=post.bound,
        corrector_norm0=corrector_norm0,
        posteriori_ok=post.drift_ok,
        hull_ok=post.hull_ok,
    )
    return f_next, phi, diags
