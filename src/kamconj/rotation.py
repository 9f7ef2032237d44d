"""Rotation sets of circle and torus maps via Birkhoff averaging."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .spectral import TorusMapLift, _mode_scratch, _modes, sampling_grid

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
        if self.dim == 1:
            return float(v.max() - v.min())
        d = v[:, None, :] - v[None, :, :]
        return float(np.sqrt((d ** 2).sum(axis=-1)).max())


def convex_hull(points) -> Hull:
    """Hull vertices of a finite point set (monotone chain in 2D); nan or inf raise.

    In 2D the points strictly inside an extreme-point polygon are dropped
    first; they are never hull vertices, so the vertices are the chain's own.
    A pass over every fourth direction keeps that polygon's vertices, which
    are extreme points, and thins the points the full pass then reads.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise NonFinite("hull points must be finite")
    dim = pts.shape[1]
    if dim == 1:
        lo, hi = float(pts.min()), float(pts.max())
        return Hull(1, np.array([[lo]] if lo == hi else [[lo], [hi]]))
    if dim != 2:
        raise ValueError("only dimensions 1 and 2 are supported")
    return Hull(2, _monotone_chain(_drop_interior(_drop_interior(pts, _FILTER_DIRECTIONS[::4]))))


# Akl & Toussaint, Inf. Process. Lett. 7 (1978): the points extreme in these
# directions span a polygon whose interior holds no hull vertex.
_FILTER_DIRECTIONS = [
    (float(np.cos(t)), float(np.sin(t))) for t in 2 * np.pi * np.arange(32) / 32
]


def _drop_interior(pts: np.ndarray, directions: list = _FILTER_DIRECTIONS) -> np.ndarray:
    """The 2D points not strictly inside the polygon of the points extreme in `directions`.

    A point is dropped only when it lies left of every polygon edge by more
    than a relative margin, so one within rounding of an edge is kept.
    """
    if len(pts) < 3:
        return pts
    x, y = np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1])
    extent = max(float(np.ptp(x)), float(np.ptp(y)))
    poly = pts[[int(np.argmax(c * x + s * y)) for c, s in directions]]
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
    """CCW hull vertices of the distinct points (Andrew's monotone chain).

    Rows are sorted and deduped as by `np.unique(points, axis=0)`, which
    imports `numpy.ma`, bit for bit except that of two rows differing only in
    the sign of a zero it may keep the other one.
    """
    rows = points[np.lexsort((points[:, 1], points[:, 0]))]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    uniq = rows[keep]
    if len(uniq) <= 2:
        return uniq
    p = uniq.tolist()  # Python floats round as float64 scalars do, at a fraction of the cost

    def half(seq):
        out = []
        for qx, qy in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (qy - oy) - (ay - oy) * (qx - ox) > 0:
                    break
                out.pop()
            out.append((qx, qy))
        return out

    lower = half(p)
    upper = half(p[::-1])
    verts = np.array(lower[:-1] + upper[:-1])
    if len(verts) < 3:  # all collinear: keep the extreme pair
        verts = np.array([lower[0], lower[-1]])
    return verts


def hull_contains(hull: Hull, point, tol: float = 0.0) -> bool:
    """Membership up to a margin tol; degenerate hulls compare by distance.

    A polygon edge a -> b rejects the point when its cross product, |b - a|
    times the point's distance past the edge, falls below -tol * max(1, |b - a|):
    an edge shorter than 1 passes a point up to tol / |b - a| outside it.
    The point must have the hull's dimension and tol be finite and >= 0; an
    empty hull contains no point.
    """
    if not 0 <= tol < np.inf:  # not (...): a nan tol fails too
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if p.shape != (hull.dim,):
        raise ValueError(f"point of shape {p.shape} does not match the hull dimension {hull.dim}")
    if not np.all(np.isfinite(p)):
        raise NonFinite("point must be finite")
    v = hull.vertices
    if len(v) == 0:
        return False
    if hull.dim == 1:
        return bool(v.min() - tol <= p[0] <= v.max() + tol)
    if len(v) <= 2:
        return bool(_segment_distance(v[0], v[-1], p) <= tol)
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
    """Hull of the one-step displacement f(x) - x sampled on a uniform grid.

    The grid has `resolution` points per axis (default: the sampling grid of
    f's degree), raised to 2 * degree + 1 where that is coarser.
    """
    if resolution is not None and resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    m = max(sampling_grid(f.degree) if resolution is None else int(resolution), 2 * f.degree + 1)
    coords = np.stack([r + v.ravel() for r, v in zip(f.rho, f.displacement_values(m))])
    return convex_hull(coords.T)  # Fortran order: the hull reads each coordinate without a copy


_WRAP_EVERY = 16  # iterates between two reductions of the orbits by their integer parts


def _birkhoff_batch(f: TorusMapLift, starts: np.ndarray, n_iter: int) -> np.ndarray:
    """Displacement averages for a batch of orbits advanced in lockstep.

    The average is read off the lift, (lift^n(x0) - x0) / n: an iterate only
    adds its displacement to x, and every `_WRAP_EVERY` iterates floor(x) moves
    from x into a count of wraps, so phases are evaluated at |x| <= 1 +
    _WRAP_EVERY * max|displacement| and no running sum of n displacements rounds.
    """
    if n_iter < 1:
        raise ValueError("need at least one iterate")
    x0 = np.asarray(starts, dtype=float).reshape(-1, f.dim) % 1.0
    k, w = modes = _modes(f.displacement, f.rho)
    theta, phase, unit, unit_floats = _mode_scratch(modes, len(x0))
    x, disp, wraps = x0.copy(), np.empty_like(x0), np.zeros_like(x0)
    vecmat, exp, matvec, add = np.vecmat, np.exp, np.matvec, np.add
    for done in range(0, n_iter, _WRAP_EVERY):
        for _ in range(min(_WRAP_EVERY, n_iter - done)):
            # spectral._mode_sum's calls on its operands, without a Python call per iterate
            vecmat(x, k, theta)
            exp(phase, unit)
            matvec(w, unit_floats, disp)
            add(x, disp, x)
        wraps += np.floor(x)
        x %= 1.0  # x - floor(x), bit for bit
    return ((x - x0) + wraps) / n_iter


def birkhoff_rotation(f: TorusMapLift, x0, n_iter: int) -> np.ndarray:
    """Average one-step displacement along the orbit of a single point."""
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
    if n_samples < 1:
        raise ValueError("need at least one sample")
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
