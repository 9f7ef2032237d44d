"""Single improvement step: precondition, corrector, drift validation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamconj import (
    KamError,
    NonFinite,
    PeriodicField,
    SmallnessViolated,
    StepConfig,
    TorusMapLift,
    conjugate,
    deviation_norm,
    convex_hull,
    hull_contains,
    rebase,
    step,
)
from kamconj import kamstep, spectral
from kamconj.spectral import _composition_defect

from conftest import GOLDEN, SHIFTS, check_grids, outcome, seeded_field


def perturbed_rotation(alpha, eps: float, seed: int, degree: int = 3) -> TorusMapLift:
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    d = alpha.size
    fields = tuple(seeded_field(d, degree, eps, seed=seed + i) for i in range(d))
    return TorusMapLift(alpha, fields)


class TestStep:
    def test_pure_rotation_is_fixed_point(self, golden_vector):
        f = TorusMapLift.rotation([GOLDEN])
        f_next, phi, diag = step(f, golden_vector, 8)
        assert deviation_norm(f_next, [GOLDEN]) < 1e-15
        assert all(np.all(c.coeffs == 0) for c in phi.displacement)
        assert diag.drift_norm < 1e-15
        assert diag.eps0_before == 0.0

    def test_smallness_precondition(self, golden_vector):
        f = perturbed_rotation([GOLDEN], 1e-3, seed=70)
        # gamma * N^(2tau+d+2) * eps0 = 3 * 8^5 * 1e-3 which is about 98
        with pytest.raises(SmallnessViolated, match="cutoff"):
            step(f, golden_vector, 8, StepConfig(smallness_c=1.0))
        # a desk-scale constant admits the same map
        step(f, golden_vector, 8, StepConfig(smallness_c=1e-8))

    def test_huge_tau_margin_reads_inf(self, golden_vector):
        # 8^803 passes the float maximum: the margin reads inf, not an OverflowError
        vec = dataclasses.replace(golden_vector, tau=400.0)
        f = perturbed_rotation([GOLDEN], 1e-3, seed=70)
        with pytest.raises(SmallnessViolated, match=r"= inf >= 1 at cutoff 8"):
            step(f, vec, 8)
        # a rigid rotation still steps, with margin 0
        _, _, diag = step(TorusMapLift.rotation([GOLDEN]), vec, 8)
        assert diag.smallness_margin == 0.0

    def test_quadratic_improvement_sweep(self, golden_vector):
        cfg = StepConfig(smallness_c=1e-8)
        for eps in (1e-3, 1e-4, 1e-5):
            f = perturbed_rotation([GOLDEN], eps, seed=71)
            f_next, _, diag = step(f, golden_vector, 12, cfg)
            after = deviation_norm(rebase(f_next, [GOLDEN]), [GOLDEN])
            assert after < 50.0 * eps * eps

    def test_step_2d(self, pair_vector):
        f = perturbed_rotation(pair_vector.alpha, 1e-3, seed=72, degree=2)
        f_next, phi, diag = step(f, pair_vector, 8, StepConfig(smallness_c=1e-12))
        after = deviation_norm(rebase(f_next, pair_vector.alpha), pair_vector.alpha)
        assert after < 1e-4
        assert diag.posteriori_ok and diag.hull_ok

    # sup |f_next(phi(x)) - phi(f(x))|, zero for an exact pushforward; a run
    # checks it only through the inverse's pointwise defect and the final verification
    def test_conjugacy_residual_small(self, golden_vector):
        f = perturbed_rotation([GOLDEN], 1e-3, seed=73)
        f_next, phi, _ = step(f, golden_vector, 12, StepConfig(smallness_c=1e-8))
        assert _composition_defect(f_next, phi, phi, f) < 1e-9

    def test_conjugacy_residual_small_2d(self, pair_vector, monkeypatch):
        inverting, chain = [], spectral._chain

        def recorded(maps, target, invert=False):
            if invert:
                inverting.append(maps)
            return chain(maps, target, invert)

        monkeypatch.setattr(spectral, "_chain", recorded)
        f = perturbed_rotation(pair_vector.alpha, 1e-3, seed=72, degree=2)
        f_next, phi, _ = step(f, pair_vector, 8, StepConfig(smallness_c=1e-12))
        # the step builds no inverse field: its one inverting chain is the pushforward
        assert [tuple(map(id, maps)) for maps in inverting] == [(id(phi), id(f), id(phi))]
        assert _composition_defect(f_next, phi, phi, f) < 1e-9

    def test_diagnostics_fields(self, golden_vector):
        f = perturbed_rotation([GOLDEN], 1e-3, seed=74)
        f_next, phi, diag = step(f, golden_vector, 12, StepConfig(smallness_c=1e-8))
        assert diag.cutoff == 12
        assert diag.eps0_before == pytest.approx(1e-3, rel=1e-6)
        assert diag.eps0_after < diag.eps0_before
        assert diag.corrector_norm0 > 0.0
        # the bound is c_post times the deviation from the drifted rotation, bit for bit
        assert diag.drift_bound == 2.0 * deviation_norm(f_next, f_next.rho, 0)

    def test_diagnostics_fields_2d(self, pair_vector):
        f = perturbed_rotation(pair_vector.alpha, 1e-3, seed=72, degree=2)
        f_next, _, diag = step(f, pair_vector, 8, StepConfig(smallness_c=1e-12))
        assert diag.eps0_before == deviation_norm(rebase(f, pair_vector.alpha), pair_vector.alpha, 0)
        assert diag.drift_bound == 2.0 * deviation_norm(f_next, f_next.rho, 0)
        assert diag.eps0_after == deviation_norm(f_next, pair_vector.alpha, 0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_post_checks_share_one_value_grid(self, dim, golden_vector, pair_vector, monkeypatch):
        """After the pushforward, each component of the stepped map is transformed once."""
        vec = golden_vector if dim == 1 else pair_vector
        f = perturbed_rotation(vec.alpha, 1e-3, seed=73, degree=2)
        calls, pushed = [], []
        value_grid, push = spectral.value_grid, kamstep.conjugate

        def recorded_grid(u, m=None):
            if pushed:
                calls.append(u)
            return value_grid(u, m)

        def recorded_push(*args, **kwargs):
            out = push(*args, **kwargs)
            pushed.append(out)
            return out

        monkeypatch.setattr(spectral, "value_grid", recorded_grid)
        monkeypatch.setattr(kamstep, "conjugate", recorded_push)
        f_next, _, diag = step(f, vec, 8, StepConfig(smallness_c=1e-12))
        assert [id(u) for u in calls] == [id(u) for u in f_next.displacement]
        assert diag.eps0_after == deviation_norm(f_next, vec.alpha, 0)
        assert diag.drift_bound == 2.0 * deviation_norm(f_next, f_next.rho, 0)

    def test_step_reports_only_what_a_run_reads(self):
        import kamconj

        assert [fld.name for fld in dataclasses.fields(StepConfig)] == [
            "smallness_c", "c_post", "target_degree", "drift_tol_abs",
        ]
        with pytest.raises(TypeError):
            StepConfig(s_report=(0.0,))
        names = {fld.name for fld in dataclasses.fields(kamconj.StepDiagnostics)}
        assert not names & {"eps_s_before", "eps_s_after", "eps0_after_drifted"}
        for name in ("error_model_constants", "InsufficientData"):
            assert not hasattr(kamconj, name)

    def test_rho_rebased_into_window(self, golden_vector):
        f = TorusMapLift(np.array([GOLDEN + 3.0]), (seeded_field(1, 3, 1e-4, seed=75),))
        f_next, _, _ = step(f, golden_vector, 12, StepConfig(smallness_c=1e-8))
        assert abs(f_next.rho[0] - GOLDEN) < 0.5

    def test_target_degree_controls_band(self, golden_vector):
        f = perturbed_rotation([GOLDEN], 1e-4, seed=76)
        f_next, _, _ = step(
            f, golden_vector, 12, StepConfig(smallness_c=1e-8, target_degree=20)
        )
        assert f_next.degree == 20


def _posteriori_report(f, vec, c_post=2.0, tol_abs=0.0):
    """The step's drift and hull checks on a map: rebase, then `_drift_check`."""
    f = rebase(f, vec.alpha)
    return kamstep._drift_check(f, vec, StepConfig(c_post=c_post, drift_tol_abs=tol_abs))


class TestPosteriori:
    def test_exact_conjugate_passes(self, golden_vector):
        h = TorusMapLift(np.zeros(1), (seeded_field(1, 3, 0.01, seed=77),))
        f = conjugate(h, TorusMapLift.rotation([GOLDEN]), target_degree=12)
        report = _posteriori_report(f, golden_vector)
        assert report["posteriori_ok"] and report["hull_ok"]
        assert report["drift_norm"] <= report["drift_bound"]

    def test_drifted_rotation_fails(self, golden_vector):
        f = TorusMapLift.rotation([GOLDEN + 0.01])
        report = _posteriori_report(f, golden_vector)
        assert not report["posteriori_ok"]
        assert report["drift_norm"] == pytest.approx(0.01, abs=1e-12)

    def test_drift_dominating_deviation_fails_hull(self, golden_vector):
        # displacement amplitude far below the drift: hull misses zero
        f = TorusMapLift(
            np.array([GOLDEN + 1e-4]),
            (PeriodicField.from_entries(1, 1, [((1,), -0.5e-6j)]),),
        )
        report = _posteriori_report(f, golden_vector)
        assert not report["hull_ok"]

    def test_tol_abs_loosens_drift_check(self, golden_vector):
        f = TorusMapLift.rotation([GOLDEN + 1e-8])
        assert not _posteriori_report(f, golden_vector)["posteriori_ok"]
        assert _posteriori_report(f, golden_vector, tol_abs=1e-7)["posteriori_ok"]

    def test_report_drift_vector(self, pair_vector):
        delta = np.array([2e-3, -1e-3])
        f = TorusMapLift.rotation(pair_vector.alpha + delta)
        report = _posteriori_report(f, pair_vector)
        assert np.allclose(report["drift"], delta, atol=1e-12)
        assert report["drift_norm"] == pytest.approx(float(np.linalg.norm(delta)), rel=1e-9)

    def test_non_finite_map_raises(self, golden_vector):
        # finite coefficients whose grid values overflow to inf - inf = nan
        u = PeriodicField.from_entries(1, 8, [((k,), 4e307) for k in range(1, 9)])
        f = TorusMapLift(np.array([GOLDEN]), (u,))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite, match="finite"):
            _posteriori_report(f, golden_vector)
        assert issubclass(NonFinite, KamError)

    def test_no_public_second_path(self):
        # a step runs these checks on values it has sampled, and a pushforward
        # solves its inverse pointwise, so neither is exported on its own
        import kamconj

        for name in ("posteriori_check", "PosterioriReport", "invert_near_identity"):
            assert not hasattr(kamconj, name)
            assert name not in kamstep.__all__ + spectral.__all__


def _full_hull_verdict(points, tol) -> bool:
    return hull_contains(convex_hull(points), np.zeros(points.shape[1]), tol)


_HULL_TOLS = st.sampled_from([1e-13, 1e-11, 1e-9, 1e-6])
_COORD = st.one_of(st.integers(-2, 2).map(float), st.floats(-1.0, 1.0))


def _grids(points) -> tuple:
    """The columns of an (n, 2) point array as the two check grids of a step."""
    return points[:, 0].copy(), points[:, 1].copy()


class TestQuadrantAccept:
    """The step's hull test accepts a point in each open quadrant without building the hull."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40), _HULL_TOLS)
    def test_matches_full_hull(self, points, tol):
        pts = np.array(points, dtype=float)
        assert kamstep._origin_in_hull(_grids(pts), (0.0, 0.0), tol) == _full_hull_verdict(pts, tol)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 2.0 * math.pi),
        st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
        st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=30),
        _HULL_TOLS,
    )
    def test_matches_full_hull_near_an_edge(self, angle, offset, points, tol):
        # a hull edge on the line at signed distance offset * tol from the origin,
        # every point on the far side of it, turned by the angle
        local = np.array([[-0.5, 0.0], [0.5, 0.0]] + points) + [0.0, offset * tol]
        turn = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        pts = local @ turn.T
        assert kamstep._origin_in_hull(_grids(pts), (0.0, 0.0), tol) == _full_hull_verdict(pts, tol)

    def test_each_quadrant_is_needed(self):
        def verdict(pts):
            return kamstep._origin_in_hull(_grids(pts), (0.0, 0.0), 1e-13)

        corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        assert verdict(corners)
        for i in range(4):
            # the rest, plus the missing corner moved onto an axis: the hull decides
            for moved in (corners[i] * [1.0, 0.0], corners[i] * [0.0, 1.0], -corners[i]):
                pts = np.vstack([np.delete(corners, i, axis=0), moved])
                assert verdict(pts) == _full_hull_verdict(pts, 1e-13)
        assert not verdict(corners + [2.5, 0.0])
        # three quadrants filled, the origin below the edge from (-1, -0.1) to (3, 1)
        assert not verdict(np.array([[3.0, 1.0], [-1.0, 1.0], [-1.0, -0.1]]))

    def test_non_finite_points_still_raise(self):
        corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [np.nan, 0.5]])
        with pytest.raises(NonFinite):
            kamstep._origin_in_hull(_grids(corners), (0.0, 0.0), 1e-13)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40),
        st.tuples(_COORD, _COORD),
        _HULL_TOLS,
    )
    def test_drift_moves_the_points(self, points, drift, tol):
        pts = np.array(points, dtype=float)
        moved = pts + np.array(drift)
        assert kamstep._origin_in_hull(_grids(pts), drift, tol) == _full_hull_verdict(moved, tol)

    @settings(max_examples=300, deadline=None)
    @given(_HULL_TOLS, st.data())
    def test_1d_matches_full_hull(self, tol, data):
        # points within 2 tol of 0 once drifted, among points anywhere, with a nonzero drift
        drift = data.draw(st.one_of(_COORD, st.floats(-2.0, 2.0).map(lambda t: t * tol)))
        near = st.floats(-2.0, 2.0).map(lambda t: t * tol - drift)
        pts = np.array(data.draw(st.lists(st.one_of(_COORD, near), min_size=1, max_size=40)))
        moved = (pts + drift)[:, None]
        assert kamstep._origin_in_hull((pts,), (drift,), tol) == _full_hull_verdict(moved, tol)

    def test_1d_step_builds_no_hull(self, golden_vector, monkeypatch):
        def refuse(points):
            raise AssertionError("hull built")

        monkeypatch.setattr(kamstep, "convex_hull", refuse)
        f = perturbed_rotation(golden_vector.alpha, 1e-3, seed=72, degree=2)
        _, _, diag = step(f, golden_vector, 8, StepConfig(smallness_c=1e-12))
        assert diag.hull_ok

    def test_2d_step_builds_no_hull(self, pair_vector, monkeypatch):
        def refuse(points):
            raise AssertionError("hull built")

        monkeypatch.setattr(kamstep, "convex_hull", refuse)
        f = perturbed_rotation(pair_vector.alpha, 1e-3, seed=72, degree=2)
        _, _, diag = step(f, pair_vector, 8, StepConfig(smallness_c=1e-12))
        assert diag.hull_ok


def _parent_origin_in_hull(points, tol) -> bool:
    """The hull test as it read the stacked points before it read the check grids."""
    if points.shape[1] == 2 and np.all(np.isfinite(points)):
        x, y = points[:, 0], points[:, 1]
        right, up = x > 0, y > 0
        left, down = x < 0, y < 0
        if all(np.any(a & b) for a, b in ((right, up), (left, up), (left, down), (right, down))):
            return True
    return hull_contains(convex_hull(points), np.zeros(points.shape[1]), tol)


class TestCopyFreeChecks:
    """The step's checks read sups and signs off the grids without a shifted copy, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2), st.sampled_from([(5,), (3, 4)]), st.data())
    def test_sup_with_shifts(self, dim, shape, data):
        grids = data.draw(check_grids(dim, shape))
        shifts = data.draw(st.lists(SHIFTS, min_size=dim, max_size=dim))
        want = outcome(lambda: float(np.max([np.max(np.abs(g + a)) for g, a in zip(grids, shifts)])))
        assert outcome(kamstep._sup, grids, shifts) == want
        assert outcome(kamstep._sup, iter(grids), np.array(shifts)) == want
        want = outcome(lambda: float(np.max([np.max(np.abs(g)) for g in grids])))
        assert outcome(kamstep._sup, grids) == want
        assert outcome(kamstep._sup, iter(grids)) == want

    @settings(max_examples=300, deadline=None)
    @given(check_grids(2, (12,)), st.tuples(SHIFTS, SHIFTS), _HULL_TOLS)
    def test_quadrant_verdict_on_grids(self, grids, drift, tol):
        with np.errstate(all="ignore"):
            points = np.stack([a + v.ravel() for v, a in zip(grids, drift)], axis=1)
        want = outcome(_parent_origin_in_hull, points, tol)
        assert outcome(kamstep._origin_in_hull, grids, drift, tol) == want

    def test_overflowing_point_takes_the_full_hull(self):
        # every quadrant holds a point, but 1.7e308 + 1e308 overflows: the finite
        # test reads the drifted extremes, and the full hull refuses the points
        x = np.array([-1.7e308, -1.7e308, 1.0, 1.0, 1.7e308])
        y = np.array([1.0, -1.0, 1.0, -1.0, 0.0])
        drift = (1e308, 0.0)
        with np.errstate(over="ignore"):
            points = np.stack([x + drift[0], y + drift[1]], axis=1)
        assert outcome(_parent_origin_in_hull, points, 1e-13) is NonFinite
        assert outcome(kamstep._origin_in_hull, (x, y), drift, 1e-13) is NonFinite
