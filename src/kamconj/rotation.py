"""Rotation sets of circle and torus maps via Birkhoff averaging."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import TorusMapLift, _mode_sum, _modes, sampling_grid

__all__ = [
    "Hull",
    "convex_hull",
    "hull_contains",
    "displacement_hull",
    "birkhoff_rotation",
    "rotation_set_estimate",
    "RotationData",
]


@dataclass(frozen=True, eq=False)
class Hull:
    """Convex hull of a point cloud; an interval in 1D, a CCW polygon in 2D."""

    dim: int
    vertices: np.ndarray

    def diameter(self) -> float:
        v = self.vertices
        if len(v) == 1:
            return 0.0
        if self.dim == 1:
            return float(v.max() - v.min())
        d = v[:, None, :] - v[None, :, :]
        return float(np.sqrt((d ** 2).sum(axis=-1)).max())


def convex_hull(points) -> Hull:
    """Hull vertices of a finite point set (monotone chain in 2D).

    In 2D the points strictly inside an extreme-point polygon are dropped
    first; they are never hull vertices, so the vertices are the chain's own.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dim = pts.shape[1]
    if dim == 1:
        lo, hi = float(pts.min()), float(pts.max())
        verts = np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
        return Hull(1, verts)
    if dim != 2:
        raise ValueError("only dimensions 1 and 2 are supported")
    return Hull(2, _monotone_chain(_drop_interior(pts)))


# Akl & Toussaint, Inf. Process. Lett. 7 (1978): the points extreme in these
# directions span a polygon whose interior holds no hull vertex.
_FILTER_DIRECTIONS = [
    (float(np.cos(t)), float(np.sin(t))) for t in 2 * np.pi * np.arange(32) / 32
]


def _drop_interior(pts: np.ndarray) -> np.ndarray:
    """The 2D points that are not strictly inside the extreme-point polygon.

    A point is dropped only when it lies left of every polygon edge by more
    than a relative margin, so one within rounding of an edge is kept.
    """
    if len(pts) < 3:
        return pts
    x, y = np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1])
    extent = max(float(np.ptp(x)), float(np.ptp(y)))
    if not np.isfinite(extent):  # nan or inf points: no polygon to trust
        return pts
    poly = pts[[int(np.argmax(c * x + s * y)) for c, s in _FILTER_DIRECTIONS]]
    poly = poly[np.any(poly != np.roll(poly, 1, axis=0), axis=1)]
    if len(poly) < 3:
        return pts
    edges = np.roll(poly, -1, axis=0) - poly
    margins = 1e-12 * extent * np.hypot(edges[:, 0], edges[:, 1])
    inside = np.ones(len(pts), dtype=bool)
    for (ax, ay), (ex, ey), margin in zip(poly.tolist(), edges.tolist(), margins.tolist()):
        inside &= ex * (y - ay) - ey * (x - ax) > margin
    return pts[~inside]


def _monotone_chain(points: np.ndarray) -> np.ndarray:
    """CCW hull vertices of the distinct points (Andrew's monotone chain)."""
    uniq = np.unique(points, axis=0)
    if len(uniq) <= 2:
        return uniq
    order = np.lexsort((uniq[:, 1], uniq[:, 0]))
    p = uniq[order]

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out

    lower = half(p)
    upper = half(p[::-1])
    verts = np.array(lower[:-1] + upper[:-1])
    if len(verts) < 3:  # all collinear: keep the extreme pair
        verts = np.array([lower[0], lower[-1]])
    return verts


def _cross(o, a, b) -> float:
    return float((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))


def hull_contains(hull: Hull, point, tol: float = 0.0) -> bool:
    """Membership up to an absolute margin; degenerate hulls compare by distance.

    A polygon edge a -> b rejects the point when its cross product falls
    below -tol * max(1, |b - a|).
    """
    p = np.atleast_1d(np.asarray(point, dtype=float))
    v = hull.vertices
    if hull.dim == 1:
        return bool(v.min() - tol <= p[0] <= v.max() + tol)
    if len(v) == 1:
        return bool(np.linalg.norm(p - v[0]) <= tol)
    if len(v) == 2:
        return _segment_distance(v[0], v[1], p) <= tol
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * (p[1] - v[:, 1]) - e[:, 1] * (p[0] - v[:, 0])
    # |b - a| from the same dot product as np.linalg.norm(b - a), which BLAS
    # may fuse; sqrt(ex*ex + ey*ey) differs in the last bit for some edges
    length = np.sqrt((e[:, None, :] @ e[:, :, None]).ravel())
    return not bool(np.any(cross < -tol * np.maximum(1.0, length)))


def _segment_distance(a, b, p) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def displacement_hull(f: TorusMapLift, resolution: int | None = None) -> Hull:
    """Hull of the one-step displacement f(x) - x sampled on a uniform grid."""
    m = sampling_grid(f.degree) if resolution is None else int(resolution)
    m = max(m, 2 * f.degree + 1)
    vals = f.displacement_values(m)
    pts = np.stack([f.rho[i] + vals[i].ravel() for i in range(f.dim)], axis=1)
    return convex_hull(pts)


def _birkhoff_batch(f: TorusMapLift, starts: np.ndarray, n_iter: int) -> np.ndarray:
    """Displacement averages for a batch of orbits advanced in lockstep.

    Summing displacements telescopes exactly to (lift^n(x0) - x0) / n while the
    orbits themselves are kept reduced mod 1, so accuracy does not degrade with
    the number of iterates.
    """
    x = np.asarray(starts, dtype=float).reshape(-1, f.dim) % 1.0
    modes = [_modes(u) for u in f.displacement]
    total = np.zeros_like(x)
    for _ in range(n_iter):
        disp = np.empty_like(x)
        disp[:] = f.rho
        for j, mj in enumerate(modes):
            disp[:, j] += _mode_sum(mj, x)
        total += disp
        x = (x + disp) % 1.0
    return total / n_iter


def birkhoff_rotation(f: TorusMapLift, x0, n_iter: int) -> np.ndarray:
    """Average one-step displacement along the orbit of a single point."""
    if n_iter < 1:
        raise ValueError("need at least one iterate")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (f.dim,):
        raise ValueError("x0 must be a single point matching the map dimension")
    return _birkhoff_batch(f, x[None, :], n_iter)[0]


@dataclass(frozen=True, eq=False)
class RotationData:
    samples: np.ndarray
    rotation_hull: Hull
    displacement_hull: Hull


def rotation_set_estimate(
    f: TorusMapLift,
    n_samples: int = 32,
    n_iter: int = 1000,
    grid_resolution: int | None = None,
) -> RotationData:
    """Birkhoff rotation vectors from a spread of initial points, plus hulls.

    Initial points form a uniform grid (per-axis count is the square root of
    `n_samples` in 2D).  The rotation hull encloses the sampled averages; the
    displacement hull encloses it for any map and any horizon.
    """
    if n_iter < 1:
        raise ValueError("need at least one iterate")
    if f.dim == 1:
        starts = (np.arange(n_samples) / n_samples)[:, None]
    else:
        g = max(2, int(np.ceil(np.sqrt(n_samples))))
        ij = np.arange(g) / g
        starts = np.stack(np.meshgrid(ij, ij, indexing="ij"), axis=-1).reshape(-1, 2)
    samples = _birkhoff_batch(f, starts, n_iter)
    return RotationData(
        samples=samples,
        rotation_hull=convex_hull(samples),
        displacement_hull=displacement_hull(f, grid_resolution),
    )
