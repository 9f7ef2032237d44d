"""Rotation-number estimates and displacement hulls."""

import math

import numpy as np
import pytest

from kamconj import (
    PeriodicField,
    TorusMapLift,
    birkhoff_rotation,
    conjugate,
    convex_hull,
    displacement_hull,
    hull_contains,
    rotation_set_estimate,
)
from kamconj.rotation import _birkhoff_batch

from conftest import GOLDEN, PAIR_2D, eval_oracle, seeded_field


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

    def test_batch_matches_oracle_orbits_2d(self):
        u = (seeded_field(2, 3, 0.01, seed=93), seeded_field(2, 3, 0.01, seed=94))
        f = TorusMapLift(np.array(PAIR_2D), u)
        starts = np.array([[0.1, 0.5], [0.9, 0.2], [0.33, 0.71]])
        for x0, avg in zip(starts, _birkhoff_batch(f, starts, 30)):
            x, total = x0.copy(), np.zeros(2)
            for _ in range(30):
                disp = f.rho + np.array([eval_oracle(c, x) for c in u])
                total += disp
                x = (x + disp) % 1.0
            assert np.max(np.abs(avg - total / 30)) < 1e-14


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
