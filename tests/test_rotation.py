"""Rotation-number estimates and displacement hulls."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamconj import (
    PeriodicField,
    TorusMapLift,
    birkhoff_rotation,
    conjugate,
    convex_hull,
    cs_norm,
    displacement_hull,
    hull_contains,
    rotation_set_estimate,
)
from kamconj.rotation import (
    _FILTER_DIRECTIONS,
    _WRAP_EVERY,
    Hull,
    _birkhoff_batch,
    _drop_interior,
    _monotone_chain,
)
from kamconj.spectral import _mode_scratch, _mode_sum, _modes

from conftest import GOLDEN, PAIR_2D, bits, eval_oracle, hull_contains_oracle, seeded_field, suite_env


def sin_field(eps: float) -> PeriodicField:
    return PeriodicField.from_entries(1, 1, [((1,), -0.5j * eps)])


class TestHull:
    def test_interval_1d(self):
        hull = convex_hull([[0.3], [0.1], [0.7], [0.4]])
        assert hull.dim == 1
        assert hull.diameter() == pytest.approx(0.6)
        assert hull_contains(hull, [0.5])
        assert not hull_contains(hull, [0.8])
        assert hull_contains(hull, [0.8], tol=0.15)

    def test_single_point(self):
        hull = convex_hull([[0.2, 0.4]])
        assert hull.diameter() == 0.0
        assert hull_contains(hull, [0.2, 0.4])
        assert not hull_contains(hull, [0.2, 0.41])
        assert hull_contains(hull, [0.2, 0.41], tol=0.02)

    def test_square_2d(self):
        pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.9]]
        hull = convex_hull(pts)
        assert len(hull.vertices) == 4
        assert hull.diameter() == pytest.approx(math.sqrt(2.0))
        assert hull_contains(hull, [0.5, 0.5])
        assert hull_contains(hull, [0.0, 0.5])  # boundary
        assert not hull_contains(hull, [1.1, 0.5])
        assert hull_contains(hull, [1.05, 0.5], tol=0.1)

    def test_collinear_degenerates_to_segment(self):
        pts = [[0, 0], [0.5, 0.5], [1, 1], [0.25, 0.25]]
        hull = convex_hull(pts)
        assert len(hull.vertices) == 2
        assert hull_contains(hull, [0.75, 0.75], tol=1e-12)
        assert not hull_contains(hull, [0.5, 0.6])

    def test_vertices_counterclockwise(self):
        rng = np.random.default_rng(90)
        hull = convex_hull(rng.random((40, 2)))
        v = hull.vertices
        area2 = 0.0
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            area2 += a[0] * b[1] - b[0] * a[1]
        assert area2 > 0.0


class TestHullContainsInputs:
    """A point of another dimension or a tol that is not finite and >= 0 is an error, never a verdict."""

    TRIANGLE = [[0, 0], [1, 0], [0, 1]]

    def test_third_component_against_a_polygon(self):
        with pytest.raises(ValueError, match="hull dimension 2"):
            hull_contains(convex_hull(self.TRIANGLE), [0.1, 0.1, 5.0])

    def test_second_component_against_an_interval(self):
        with pytest.raises(ValueError, match="hull dimension 1"):
            hull_contains(convex_hull([[0.1], [0.3]]), [0.2, 9.0])

    def test_one_component_against_a_polygon(self):
        with pytest.raises(ValueError, match="hull dimension 2"):
            hull_contains(convex_hull(self.TRIANGLE), [0.1])

    def test_empty_hull_contains_no_point(self):
        hull = convex_hull(np.empty((0, 2)))
        assert len(hull.vertices) == 0
        assert not hull_contains(hull, [0.0, 0.0])
        assert not hull_contains(hull, [0.0, 0.0], tol=1.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_tol_not_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
            hull_contains(convex_hull(self.TRIANGLE), [5.0, 5.0], tol=tol)


def _non_finite_clouds():
    with_bad = np.random.default_rng(17).random((400, 2))
    with_bad[[5, 90, 200]] = [[np.nan, 0.5], [np.inf, 0.2], [0.4, -np.inf]]
    return {
        "nan-point": [[0, 0], [1, 0], [0, 1], [0.2, np.nan]],
        "inf-point": [[0, 0], [1, 0], [0, 1], [0.2, np.inf]],
        "nan-and-inf": with_bad,
        "all-nan": np.full((10, 2), np.nan),
        "1d-inf": [[0.1], [-np.inf], [0.3]],
    }


class TestNonFinitePoints:
    """A nan or inf point has no place in a hull; it is an error, never a verdict."""

    @pytest.mark.parametrize("name", sorted(_non_finite_clouds()))
    def test_convex_hull_rejects(self, name):
        with pytest.raises(ValueError, match="finite"):
            convex_hull(_non_finite_clouds()[name])

    @pytest.mark.parametrize("point", [[np.nan, 0.2], [0.2, np.inf], [-np.inf, -np.inf]])
    def test_hull_contains_rejects(self, point):
        hull = convex_hull([[0, 0], [1, 0], [0, 1]])
        with pytest.raises(ValueError, match="finite"):
            hull_contains(hull, point)
        with pytest.raises(ValueError, match="finite"):
            hull_contains(convex_hull([[0.1], [0.3]]), [x for x in point if not np.isfinite(x)][:1])


def rotation_2d_cloud(index: int = 0, resolution: int = 256) -> np.ndarray:
    """Displacement samples of the benchmark's rotation-2d input `index`."""
    rng = np.random.default_rng(index)
    u = []
    for _ in range(2):
        entries = [
            ((k1, k2), 0.5 * math.exp(-0.5 * (k1 + abs(k2))) * complex(*rng.standard_normal(2)))
            for k1 in range(3)
            for k2 in range(-2, 3)
            if not (k1 == 0 and k2 <= 0) and k1 + abs(k2) <= 2
        ]
        field = PeriodicField.from_entries(2, 2, entries)
        u.append(field * (0.01 / cs_norm(field, 0)))
    f = TorusMapLift(np.array(PAIR_2D), tuple(u))
    vals = f.displacement_values(resolution)
    return np.stack([f.rho[i] + vals[i].ravel() for i in range(2)], axis=1)


def _cocircular(n: int) -> np.ndarray:
    t = 2 * np.pi * np.arange(n) / n
    return np.stack([0.3 + 0.02 * np.cos(t), 0.7 + 0.02 * np.sin(t)], axis=1)


def _on_polygon_edges(seed: int) -> np.ndarray:
    """A polygon, points interpolated along its edges, and points inside it.

    The edge points lie within rounding of the edges, so the chain's verdicts
    on them are coin flips; a filter that dropped them on the sign of its own
    cross product, with no margin, changes the vertices for some seeds.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    center = rng.random(2) * rng.choice([0, 1, 100])
    radius = float(rng.choice([1e-3, 1, 50]))
    t = 2 * np.pi * (np.arange(n) + rng.random(n) * 0.5) / n
    corners = center + radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    s = rng.random((200, 1))
    edges = [a + s * (b - a) for a, b in zip(corners, np.roll(corners, -1, axis=0))]
    inner = corners.mean(axis=0) + 0.1 * radius * rng.standard_normal((1000, 2))
    return np.concatenate([corners, *edges, inner])


def _prefilter_clouds():
    rng = np.random.default_rng(17)
    line = np.linspace(0.0, 1.0, 301)
    return {
        "one-point-repeated": np.tile([[0.3, 0.6]], (50, 1)),
        "random": rng.random((2000, 2)),
        "random-gaussian": rng.standard_normal((5000, 2)) * [3.0, 0.01],
        "rounded-duplicates": np.round(rng.random((3000, 2)), 1),
        "collinear": np.stack([line, 0.25 + 0.5 * line], axis=1),
        "collinear-axis": np.stack([line, np.full_like(line, 0.5)], axis=1),
        "cocircular": _cocircular(500),
        "empty": np.zeros((0, 2)),
        "one-point": np.array([[0.2, 0.4]]),
        "two-points": np.array([[0.2, 0.4], [0.3, 0.1]]),
        "two-distinct-repeated": np.array([[0.2, 0.4], [0.3, 0.1]] * 20),
        "extent-1e-13": 0.5 + 1e-13 * rng.random((1000, 2)),
        "rotation-2d-0": rotation_2d_cloud(0, 256),
        **{f"on-polygon-edges-{seed}": _on_polygon_edges(seed) for seed in range(60, 90)},
    }


_PREFILTER = _prefilter_clouds()


class TestHullPrefilter:
    """The extreme-point filter drops only points the monotone chain drops anyway."""

    @pytest.mark.parametrize("name", sorted(_PREFILTER))
    def test_vertices_equal_unfiltered_chain(self, name):
        pts = _PREFILTER[name]
        assert bits(convex_hull(pts).vertices) == bits(_monotone_chain(pts))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
                st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
            ),
            max_size=120,
        )
    )
    def test_vertices_equal_unfiltered_chain_hypothesis(self, points):
        pts = np.array(points, dtype=float).reshape(-1, 2)
        assert bits(convex_hull(pts).vertices) == bits(_monotone_chain(pts))

    def test_filter_drops_most_of_a_displacement_cloud(self):
        pts = _PREFILTER["rotation-2d-0"]
        assert len(_drop_interior(pts)) < len(pts) // 20

    def test_cocircular_points_all_kept(self):
        pts = _PREFILTER["cocircular"]
        assert len(_drop_interior(pts)) == len(pts)
        assert len(convex_hull(pts).vertices) == len(pts)

    @pytest.mark.parametrize("index", range(8))
    def test_fortran_ordered_cloud_gives_same_vertices(self, index):
        # displacement_hull passes its coordinates column-major
        pts = rotation_2d_cloud(index, 256)
        fortran = np.asfortranarray(pts)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        assert bits(convex_hull(fortran).vertices) == bits(convex_hull(pts).vertices)

    @pytest.mark.parametrize("name", sorted(_PREFILTER))
    def test_first_pass_keeps_every_vertex(self, name):
        pts = _PREFILTER[name]
        kept = {tuple(p) for p in _drop_interior(pts, _FILTER_DIRECTIONS[::4]).tolist()}
        assert all(tuple(v) in kept for v in _monotone_chain(pts).tolist())


def _unique_chain_oracle(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain, written out, on rows deduplicated and ordered by `np.unique`."""
    uniq = np.unique(points, axis=0)
    if len(uniq) <= 2:
        return uniq

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (q[1] - o[1]) - (a[1] - o[1]) * (q[0] - o[0]) > 0:
                    break
                out.pop()
            out.append(q)
        return out

    p = [(float(x), float(y)) for x, y in uniq]
    lower, upper = half(p), half(p[::-1])
    verts = lower[:-1] + upper[:-1]
    return np.array(verts if len(verts) >= 3 else [lower[0], lower[-1]])


class TestChainDedup:
    """`_monotone_chain` orders and dedupes rows as `np.unique` does, without `numpy.ma`."""

    @pytest.mark.parametrize("name", sorted(_PREFILTER))
    def test_matches_unique_oracle(self, name):
        pts = _PREFILTER[name]
        assert bits(_monotone_chain(pts)) == bits(_unique_chain_oracle(pts))

    def test_matches_unique_oracle_on_rotation_2d_inputs(self):
        for index in range(40):
            cloud = rotation_2d_cloud(index, 256)
            vertices = convex_hull(cloud).vertices
            assert bits(vertices) == bits(_unique_chain_oracle(_drop_interior(cloud))), index

    def test_rotation_set_estimate_does_not_import_numpy_ma(self):
        script = (
            "import sys, numpy as np\n"
            "from kamconj import PeriodicField, TorusMapLift, rotation_set_estimate\n"
            "u = tuple(PeriodicField.from_entries(2, 2, [((1, 0), 0.003), ((0, 1), -0.002j)])"
            " for _ in range(2))\n"
            "rotation_set_estimate(TorusMapLift(np.array([0.41, 0.73]), u), n_samples=9, n_iter=50)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=suite_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _contains_cases(v: np.ndarray, tol: float, rng) -> list:
    """Vertices, points on and beside every edge, and points near the margin."""
    pts = [v.mean(axis=0), v.min(axis=0) - 1.0, v.max(axis=0) + 1.0]
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        e = b - a
        normal = np.array([e[1], -e[0]]) / max(float(np.hypot(*e)), 1e-300)  # outward for CCW
        pts.append(a)
        for t in (0.0, 0.5, 1.0, *rng.random(3)):
            on_edge = a + t * e
            pts.append(on_edge)
            for d in (tol, 2 * tol, 1e-9, -1e-9):
                q = on_edge + d * normal
                pts.append(q)
                pts.extend(np.nextafter(q, q + s) for s in ([1, 1], [-1, -1], [1, -1], [-1, 1]))
    return pts


def _ulp_steps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = np.nextafter(x, np.copysign(np.inf, k))
    return float(x)


_CONTAINS_HULLS = {
    "square-side-2": np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]),
    "random-unit": convex_hull(np.random.default_rng(21).random((40, 2))).vertices,
    "random-long-edges": convex_hull(np.random.default_rng(22).random((25, 2)) * 300 - 100).vertices,
    "displacement": convex_hull(rotation_2d_cloud(0, 64)).vertices,
    "one-vertex": np.array([[0.2, 0.4]]),
    "two-vertices": np.array([[0.2, 0.4], [2.5, -1.0]]),
}


class TestHullContainsVectorized:
    @pytest.mark.parametrize("tol", [0.0, 1e-13, 1e-6])
    @pytest.mark.parametrize("name", sorted(_CONTAINS_HULLS))
    def test_matches_per_edge_oracle(self, name, tol):
        v = _CONTAINS_HULLS[name]
        hull = Hull(2, v)
        verdicts = []
        for p in _contains_cases(v, tol, np.random.default_rng(23)):
            expected = hull_contains_oracle(v, p, tol)
            assert hull_contains(hull, p, tol) == expected, (p.tolist(), tol)
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("tol", [1e-13, 1e-6])
    def test_matches_per_edge_oracle_at_the_margin(self, tol):
        """Points a few ulps around the margin line of each edge of a long-edged hull.

        With the edge's start at the origin the cross products step finely
        enough that a margin one ulp off flips verdicts here.
        """
        hull0 = _CONTAINS_HULLS["random-long-edges"]
        for i in range(len(hull0)):
            v = hull0 - hull0[i]
            e = v[(i + 1) % len(v)]
            q0 = tol * np.array([e[1], -e[0]]) / np.hypot(*e)
            hull = Hull(2, v)
            for k0 in range(-4, 5):
                for k1 in range(-4, 5):
                    q = np.array([_ulp_steps(q0[0], k0), _ulp_steps(q0[1], k1)])
                    assert hull_contains(hull, q, tol) == hull_contains_oracle(v, q, tol)

    def test_edge_points_and_vertices_inside_at_zero_tol(self):
        hull = Hull(2, _CONTAINS_HULLS["square-side-2"])
        for p in ([1.0, 0.0], [2.0, 1.5], [0.0, 2.0], [2.0, 2.0], [0.0, 0.0]):
            assert hull_contains(hull, p, 0.0)
        assert not hull_contains(hull, [1.0, -1e-300], 0.0)


class TestDisplacementHull:
    def test_rotation_hull_is_a_point(self):
        hull = displacement_hull(TorusMapLift.rotation([GOLDEN]))
        assert hull.diameter() < 1e-15
        assert hull_contains(hull, [GOLDEN], tol=1e-15)

    def test_sine_map_interval(self):
        eps = 0.01
        f = TorusMapLift(np.array([GOLDEN]), (sin_field(eps),))
        hull = displacement_hull(f, resolution=101)
        lo, hi = float(hull.vertices.min()), float(hull.vertices.max())
        assert lo >= GOLDEN - eps - 1e-15 and hi <= GOLDEN + eps + 1e-15
        # a 101-point grid resolves the extrema to second order
        assert hi == pytest.approx(GOLDEN + eps, abs=1e-3 * eps)
        assert lo == pytest.approx(GOLDEN - eps, abs=1e-3 * eps)

    @pytest.mark.parametrize("resolution", [0, -1])
    def test_resolution_below_one_is_refused(self, resolution):
        with pytest.raises(ValueError, match=f"resolution must be at least 1, got {resolution}"):
            displacement_hull(TorusMapLift.rotation([GOLDEN]), resolution)

    def test_2d_axis_extremes(self):
        e1, e2 = 0.02, 0.03
        u1 = PeriodicField.from_entries(2, 1, [((1, 0), -0.5j * e1)])
        u2 = PeriodicField.from_entries(2, 1, [((0, 1), -0.5j * e2)])
        f = TorusMapLift(np.array(PAIR_2D), (u1, u2))
        hull = displacement_hull(f, resolution=64)
        alpha = np.array(PAIR_2D)
        tol = 1e-4
        for corner in ([e1, 0], [-e1, 0], [0, e2], [0, -e2]):
            assert hull_contains(hull, alpha + 0.999 * np.array(corner), tol=tol)


def _oracle_average(f: TorusMapLift, x0: np.ndarray, n_iter: int) -> np.ndarray:
    """Sequential orbit reduced mod 1 at every iterate, with a running sum of displacements."""
    x, total = x0 % 1.0, np.zeros(f.dim)
    for _ in range(n_iter):
        disp = f.rho + np.array([eval_oracle(c, x) for c in f.displacement])
        total += disp
        x = (x + disp) % 1.0
    return total / n_iter


class TestBirkhoff:
    def test_rotation_average_is_exact(self):
        f = TorusMapLift.rotation([GOLDEN])
        avg = birkhoff_rotation(f, [0.2], 137)
        assert avg[0] == pytest.approx(GOLDEN, abs=1e-13)

    def test_rotation_average_2d(self):
        f = TorusMapLift.rotation(PAIR_2D)
        avg = birkhoff_rotation(f, [0.1, 0.9], 100)
        assert np.allclose(avg, PAIR_2D, atol=1e-13)

    def test_average_inside_displacement_range(self):
        eps = 0.05
        f = TorusMapLift(np.array([GOLDEN]), (sin_field(eps),))
        avg = birkhoff_rotation(f, [0.31], 500)
        assert GOLDEN - eps <= avg[0] <= GOLDEN + eps

    def test_conjugated_rotation_telescopes(self):
        h = TorusMapLift(np.zeros(1), (sin_field(0.01),))
        f = conjugate(h, TorusMapLift.rotation([GOLDEN]), target_degree=12)
        n = 400
        avg = birkhoff_rotation(f, [0.42], n)
        # the average differs from alpha by a boundary term of size 2|h - id| / n
        assert abs(avg[0] - GOLDEN) <= 2 * 0.011 / n + 1e-6

    def test_input_validation(self):
        f = TorusMapLift.rotation([GOLDEN])
        with pytest.raises(ValueError, match="iterate"):
            birkhoff_rotation(f, [0.1], 0)
        with pytest.raises(ValueError, match="single point"):
            birkhoff_rotation(f, [0.1, 0.2], 10)

    def test_batch_matches_single(self):
        f = TorusMapLift(np.array([GOLDEN]), (sin_field(0.03),))
        starts = np.array([[0.1], [0.37], [0.82]])
        batch = _birkhoff_batch(f, starts, 50)
        for i, x0 in enumerate(starts):
            single = birkhoff_rotation(f, x0, 50)
            assert np.array_equal(batch[i], single)

    def test_batch_matches_single_2d(self):
        u = (seeded_field(2, 2, 0.01, seed=91), seeded_field(2, 2, 0.01, seed=92))
        f = TorusMapLift(np.array(PAIR_2D), u)
        starts = np.array([[0.1, 0.5], [0.9, 0.2]])
        batch = _birkhoff_batch(f, starts, 40)
        for i, x0 in enumerate(starts):
            assert np.array_equal(batch[i], birkhoff_rotation(f, x0, 40))

    def test_batch_matches_single_on_random_maps(self):
        # a point's orbit does not depend on the other points in its batch
        rng = np.random.default_rng(98)
        for seed in range(20):
            u = (seeded_field(2, 2, 0.01, seed=200 + seed), seeded_field(2, 2, 0.01, seed=300 + seed))
            f = TorusMapLift(rng.random(2), u)
            starts = rng.random((16, 2))
            batch = _birkhoff_batch(f, starts, 25)
            for x0, avg in zip(starts, batch):
                assert np.array_equal(avg, birkhoff_rotation(f, x0, 25))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_batch_matches_oracle_orbits(self, dim):
        u = tuple(seeded_field(dim, 3, 0.01, seed=93 + i) for i in range(dim))
        f = TorusMapLift(np.array([GOLDEN] if dim == 1 else PAIR_2D), u)
        starts = np.array([[0.1, 0.5], [0.9, 0.2], [0.33, 0.71]])[:, :dim]
        for x0, avg in zip(starts, _birkhoff_batch(f, starts, 30)):
            assert np.max(np.abs(avg - _oracle_average(f, x0, 30))) < 1e-14


def _recorded_orbit(monkeypatch) -> tuple:
    """Copies of every orbit point and displacement `_birkhoff_batch` computes, in order.

    Its loop calls `np.vecmat` once per iterate at the orbit points and
    `np.matvec` once into their displacements; both are wrapped here.
    """
    points, seen = [], []
    vecmat, matvec = np.vecmat, np.matvec

    def record_points(x, k, out):
        points.append(x.copy())
        return vecmat(x, k, out)

    def record_displacements(w, unit_floats, out):
        result = matvec(w, unit_floats, out)
        seen.append(out.copy())
        return result

    monkeypatch.setattr(np, "vecmat", record_points)
    monkeypatch.setattr(np, "matvec", record_displacements)
    return points, seen


class TestLiftAverage:
    """The average is read off the lift, with the orbits reduced every `_WRAP_EVERY` iterates."""

    @pytest.mark.parametrize("n_iter", [1, _WRAP_EVERY - 1, _WRAP_EVERY, _WRAP_EVERY + 1, 2 * _WRAP_EVERY + 1])
    @pytest.mark.parametrize("rho", [(GOLDEN,), (-GOLDEN,), PAIR_2D, (-0.7, 0.2)])
    def test_matches_sequential_oracle(self, rho, n_iter):
        dim = len(rho)
        u = tuple(seeded_field(dim, 3, 0.02, seed=150 + i) for i in range(dim))
        f = TorusMapLift(np.array(rho), u)
        starts = np.array([[0.1, 0.5], [0.93, 0.02], [0.33, 0.71]])[:, :dim]
        for x0, avg in zip(starts, _birkhoff_batch(f, starts, n_iter)):
            assert np.max(np.abs(avg - _oracle_average(f, x0, n_iter))) < 1e-14

    @pytest.mark.parametrize("rho", [PAIR_2D, (-0.7, 0.2)])
    def test_average_equals_sum_of_realized_displacements(self, rho, monkeypatch):
        # a running sum grows to n |rho| and rounds there; the lift rounds once
        u = (seeded_field(2, 2, 0.01, seed=160), seeded_field(2, 2, 0.01, seed=161))
        f = TorusMapLift(np.array(rho), u)
        starts = np.random.default_rng(162).random((16, 2))
        n = 10_000
        _, seen = _recorded_orbit(monkeypatch)
        avg = _birkhoff_batch(f, starts, n)
        assert len(seen) == n
        disp = np.stack(seen)
        for i in range(len(starts)):
            for j in range(2):
                assert abs(avg[i, j] - math.fsum(disp[:, i, j]) / n) < 1e-15

    @pytest.mark.parametrize("rho", [(GOLDEN,), (-2.3,), PAIR_2D, (-0.7, 0.2)])
    def test_rigid_rotation_displacement_is_rho(self, rho, monkeypatch):
        # the exp(0) = 1 column carries the mean bit for bit
        f = TorusMapLift(np.array(rho), tuple(PeriodicField.zeros(len(rho), 3) for _ in rho))
        starts = np.random.default_rng(163).random((5, len(rho)))
        _, seen = _recorded_orbit(monkeypatch)
        _birkhoff_batch(f, starts, 3 * _WRAP_EVERY + 2)
        assert len(seen) == 3 * _WRAP_EVERY + 2
        assert all(np.array_equal(d, np.broadcast_to(f.rho, d.shape)) for d in seen)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_orbit_displacements_match_mode_sum(self, dim, monkeypatch):
        # the loop issues `_mode_sum`'s calls itself, so an iterate keeps its bits
        u = tuple(seeded_field(dim, 3, 0.02, seed=170 + i) for i in range(dim))
        f = TorusMapLift(np.array([GOLDEN] if dim == 1 else PAIR_2D), u)
        starts = np.random.default_rng(172).random((16, dim))
        n_iter = 2 * _WRAP_EVERY + 3
        points, seen = _recorded_orbit(monkeypatch)
        _birkhoff_batch(f, starts, n_iter)
        monkeypatch.undo()
        assert len(points) == len(seen) == n_iter
        modes = _modes(f.displacement, f.rho)
        scratch = _mode_scratch(modes, len(starts))
        for x, disp in zip(points, seen):
            assert bits(disp) == bits(_mode_sum(modes, x, scratch, np.empty_like(x)))
        for i in range(n_iter - 1):
            step = points[i] + seen[i]
            if (i + 1) % _WRAP_EVERY == 0:  # a wrap: the orbit left [0, 1) and is reduced into it
                assert step.max() > 1.0
                step %= 1.0
            assert bits(points[i + 1]) == bits(step)

    @pytest.mark.parametrize("n_iter", [1, _WRAP_EVERY, _WRAP_EVERY + 1, 10_000])
    def test_rigid_rotation_average_is_exactly_rho(self, n_iter):
        # dyadic rho and starts: every orbit point is exact, and so is the average
        rho = np.array([0.375, -0.625])
        starts = np.stack(np.meshgrid(np.arange(8) / 8, np.arange(4) / 4), axis=-1).reshape(-1, 2)
        avg = _birkhoff_batch(TorusMapLift.rotation(rho), starts, n_iter)
        assert np.array_equal(avg, np.broadcast_to(rho, avg.shape))


class TestModeLockedMap:
    """x -> x + 1/2 + 0.6 sin(2 pi x) has orbits with rotation numbers 0 and 1."""

    def setup_method(self):
        self.f = TorusMapLift(np.array([0.5]), (sin_field(0.6),))
        # roots of 0.5 + 0.6 sin(2 pi x) = 0 and = 1
        self.x_zero = 0.5 + math.asin(5.0 / 6.0) / (2 * math.pi)
        self.x_one = 0.5 - math.asin(5.0 / 6.0) / (2 * math.pi)

    def test_fixed_point_averages(self):
        avg0 = birkhoff_rotation(self.f, [self.x_zero], 100)
        avg1 = birkhoff_rotation(self.f, [self.x_one], 100)
        assert avg0[0] == pytest.approx(0.0, abs=1e-12)
        assert avg1[0] == pytest.approx(1.0, abs=1e-12)

    def test_extreme_averages_span_unit_interval(self):
        pts = np.array([[0.0], [1.0]])
        hull = convex_hull(pts)
        assert hull.diameter() == pytest.approx(1.0)

    def test_grid_estimate_sees_spread(self):
        data = rotation_set_estimate(self.f, n_samples=32, n_iter=1000)
        assert data.rotation_hull.diameter() > 0.05
        assert data.displacement_hull.diameter() == pytest.approx(1.2, abs=1e-3)

    def test_samples_inside_displacement_hull(self):
        data = rotation_set_estimate(self.f, n_samples=16, n_iter=300)
        for sample in data.samples:
            assert hull_contains(data.displacement_hull, sample, tol=1e-9)


class TestRotationSetEstimate:
    def test_rotation_map_hull_degenerate(self):
        data = rotation_set_estimate(TorusMapLift.rotation([GOLDEN]), n_samples=8, n_iter=50)
        assert data.rotation_hull.diameter() < 1e-12
        assert np.allclose(data.samples, GOLDEN, atol=1e-13)

    def test_random_maps_averages_in_displacement_hull(self):
        for seed in (93, 94, 95):
            u = (seeded_field(1, 3, 0.02, seed=seed),)
            f = TorusMapLift(np.array([GOLDEN]), u)
            data = rotation_set_estimate(f, n_samples=12, n_iter=400)
            for sample in data.samples:
                assert hull_contains(data.displacement_hull, sample, tol=1e-6)

    def test_random_maps_2d(self):
        u = (seeded_field(2, 2, 0.015, seed=96), seeded_field(2, 2, 0.015, seed=97))
        f = TorusMapLift(np.array(PAIR_2D), u)
        data = rotation_set_estimate(f, n_samples=9, n_iter=300)
        assert data.samples.shape == (9, 2)
        for sample in data.samples:
            assert hull_contains(data.displacement_hull, sample, tol=1e-4)

    def test_n_iter_validation(self):
        with pytest.raises(ValueError, match="iterate"):
            rotation_set_estimate(TorusMapLift.rotation([0.1]), n_iter=0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n_samples", [0, -2])
    def test_n_samples_validation(self, dim, n_samples):
        with pytest.raises(ValueError, match="sample"):
            rotation_set_estimate(TorusMapLift.rotation([0.1, 0.2][:dim]), n_samples=n_samples)
