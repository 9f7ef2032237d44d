"""Field arithmetic, evaluation, norms, and map composition."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamconj import (
    NoConvergence,
    NonFinite,
    NotContractive,
    PeriodicField,
    TorusMapLift,
    compose,
    conjugate,
    cs_norm,
    deviation_norm,
    eval_at_points,
    make_test_map,
    rebase,
    sampling_grid,
    truncate,
    value_grid,
)
from kamconj import spectral
from kamconj.spectral import _composition_defect, _eval_displaced, _grid, _round4

from conftest import (
    GOLDEN,
    PAIR_2D,
    SHIFTS,
    bits,
    check_grids,
    entries_oracle,
    eval_oracle,
    outcome,
    seeded_field,
)


def sin_field(eps: float, k: int = 1) -> PeriodicField:
    """eps * sin(2 pi k x) as a spectral field."""
    return PeriodicField.from_entries(1, abs(k), [((k,), -0.5j * eps)])


def cos_field(eps: float, k: int = 1) -> PeriodicField:
    return PeriodicField.from_entries(1, abs(k), [((k,), 0.5 * eps)])


def _from_grid(values: np.ndarray, degree: int) -> PeriodicField:
    """The field of the given degree whose samples on a square grid that resolves it are `values`."""
    return spectral._project(np.fft.fftn(values) / values.size, degree)


class TestConstruction:
    def test_zeros_and_constant(self):
        z = PeriodicField.zeros(2, 3)
        assert z.dim == 2 and z.degree == 3 and z.mean() == 0.0
        c = PeriodicField.zeros(1) + 2.5
        assert c.mean() == 2.5 and c.degree == 0 and c.coeffs.tolist() == [2.5 + 0j]

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: PeriodicField(1, 1.5, np.zeros(4)), "degree must be a nonnegative integer, got 1.5"),
            (lambda: PeriodicField(1, True, np.zeros(3)), "degree must be a nonnegative integer, got True"),
            (lambda: PeriodicField(1, -1, np.zeros(0)), "degree must be a nonnegative integer, got -1"),
            (lambda: PeriodicField(3, 0, np.zeros((1, 1, 1))), "only dimensions 1 and 2 are supported"),
            (lambda: PeriodicField.zeros(3, 1), "only dimensions 1 and 2 are supported"),
            (lambda: PeriodicField.zeros(1.0), "only dimensions 1 and 2 are supported"),
            (lambda: PeriodicField.zeros(1, -1), "degree must be a nonnegative integer, got -1"),
            (lambda: PeriodicField.zeros(2, 2.0), "degree must be a nonnegative integer, got 2.0"),
            (lambda: PeriodicField.from_entries(1, -1, []), "degree must be a nonnegative integer, got -1"),
            (lambda: PeriodicField.from_entries(3, 1, []), "only dimensions 1 and 2 are supported"),
            (lambda: PeriodicField.from_spectrum(2, 1.5, [], []), "degree must be a nonnegative integer, got 1.5"),
        ],
        ids=["init-float", "init-bool", "init-negative", "init-3d", "zeros-3d", "zeros-float-dim",
             "zeros-negative", "zeros-float", "entries-negative", "entries-3d", "spectrum-float"],
    )
    def test_dim_and_degree_checked_by_every_constructor(self, build, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            build()

    @pytest.mark.parametrize("k", [(1.5,), (1.9999,), (np.nan,), (np.inf,), (1e300,)])
    def test_from_entries_refuses_a_non_integral_frequency(self, k):
        # 1.5 was truncated to k = 1
        with pytest.raises(ValueError, match=r"^frequency component .* is not an integer$"):
            PeriodicField.from_entries(1, 2, [(k, 1.0)])

    # numpy reads a bool beside an int or a float as a number: (True, 1) once set the value at (1, 1)
    @pytest.mark.parametrize("k", [(True,), ("1",), (True, 1), (1.0, True), (1, "1")])
    def test_from_entries_refuses_a_frequency_that_is_not_a_number(self, k):
        with pytest.raises(ValueError, match=f"^frequencies must be integer tuples matching dimension {len(k)}$"):
            PeriodicField.from_entries(len(k), 2, [(k, 1.0)])

    def test_from_entries_reads_integral_floats(self):
        f = PeriodicField.from_entries(2, 2, [((1.0, -1.0), 0.5), ((0, 2), 0.25j)])
        g = PeriodicField.from_entries(2, 2, [((1, -1), 0.5), ((0, 2), 0.25j)])
        assert f.coeffs.tobytes() == g.coeffs.tobytes()

    def test_rejects_non_hermitian_box(self):
        box = np.zeros(3, dtype=complex)
        box[2] = 1.0 + 0.0j  # k=1 entry with no conjugate mirror at k=-1
        with pytest.raises(ValueError, match="Hermitian"):
            PeriodicField(1, 1, box)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        box = np.zeros(3, dtype=complex)
        box[0] = box[2] = bad
        with pytest.raises(ValueError, match="finite"):
            PeriodicField(1, 1, box)
        with pytest.raises(ValueError, match="finite"):
            PeriodicField.from_entries(2, 1, [((1, 0), complex(0.1, bad))])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            PeriodicField(1, 2, np.zeros(3, dtype=complex))

    def test_symmetrizes_near_the_float_maximum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = PeriodicField.from_entries(1, 1, [(1, 1e308)])
        assert f.coeffs.tolist() == [1e308, 0.0, 1e308]

    def test_corner_modes_outside_l1_ball_are_dropped(self):
        box = np.zeros((5, 5), dtype=complex)
        box[0, 0] = 1.0  # k = (-2, -2), l1 norm 4 > degree 2
        box[4, 4] = 1.0
        f = PeriodicField(2, 2, box)
        assert f.coefficient((2, 2)) == 0.0

    def test_from_entries_fills_conjugate_mirror(self):
        f = PeriodicField.from_entries(1, 2, [((1,), 1.0 + 2.0j)])
        assert f.coefficient((-1,)) == 1.0 - 2.0j

    def test_from_entries_explicit_mirror_conflict(self):
        entries = [((1,), 1.0 + 2.0j), ((-1,), 5.0 + 0.0j)]
        with pytest.raises(ValueError, match="Hermitian"):
            PeriodicField.from_entries(1, 1, entries)

    def test_from_entries_rejects_out_of_ball(self):
        with pytest.raises(ValueError, match="ball"):
            PeriodicField.from_entries(2, 2, [((2, 1), 1.0)])

    @pytest.mark.parametrize(
        "dim, entries",
        [
            (1, [(1, 0.5 + 1j), (3, -0.25j), (1, 2.0 - 1j), (0, 0.75)]),  # scalar keys, a duplicate
            (1, [((2,), 0.3 + 0.1j), ((-2,), 0.3 - 0.1j), ((-1,), complex(-0.0, 0.5))]),
            (1, [(2, 0.5j), ((1,), 0.25), (-2, -0.5j)]),  # scalar and tuple keys mixed
            (2, [((1, -1), 1j), ((0, 2), 0.5), ((-1, 1), -2j), ((1, -1), 2j), ((2, 1), 0.25)]),
            (2, []),
        ],
    )
    def test_from_entries_matches_entry_loop(self, dim, entries):
        def from_entries_oracle(dim, degree, entries):
            box = np.zeros((2 * degree + 1,) * dim, dtype=complex)
            given = {}
            for k, val in entries:
                k = (int(k),) if np.isscalar(k) else tuple(int(x) for x in k)
                box[tuple(x + degree for x in k)] = complex(val)
                given[k] = complex(val)
            for k, val in given.items():
                mk = tuple(-x for x in k)
                if mk not in given:
                    box[tuple(x + degree for x in mk)] = np.conj(val)
            return PeriodicField(dim, degree, box)

        got = PeriodicField.from_entries(dim, 3, iter(entries))
        assert got.coeffs.tobytes() == from_entries_oracle(dim, 3, entries).coeffs.tobytes()

    def test_from_entries_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match=r"frequency \(1,\) does not match dimension 2"):
            PeriodicField.from_entries(2, 2, [(1, 1.0)])
        with pytest.raises(ValueError, match="dimension 1"):
            PeriodicField.from_entries(1, 2, [((1, 0), 1.0)])
        with pytest.raises(ValueError, match="ball"):
            PeriodicField.from_entries(2, 2, [((2 ** 62, 2 ** 62), 1.0)])

    def test_entries_lexicographic(self):
        f = PeriodicField.from_entries(1, 2, [((2,), 1.0j), ((1,), 0.5)])
        ks = [k for k, _ in f.entries()]
        assert ks == [(-2,), (-1,), (1,), (2,)]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_entries_match_box_walk(self, dim):
        c = seeded_field(dim, 6, 0.1, seed=12).coeffs.copy()
        for k, v in [(1, 0.0), (2, 0.25), (3, 0.5j)]:  # zeroed, real, imaginary pairs
            c[(6 + k,) * dim], c[(6 - k,) * dim] = v, np.conj(v)
        c[(6,) * dim] = -0.0
        f = PeriodicField(dim, 6, c)
        got = f.entries()
        assert got == entries_oracle(f)
        assert all(type(x) is int for k, _ in got for x in k)
        assert all(type(v) is complex for _, v in got)
        assert PeriodicField.zeros(dim).entries() == []


class TestArithmetic:
    def test_add_sub_neg_scale(self):
        f = sin_field(0.3)
        g = cos_field(0.4)
        h = 2.0 * (f + g) - f
        x = 0.137
        expected = 2 * (0.3 * math.sin(2 * math.pi * x) + 0.4 * math.cos(2 * math.pi * x))
        expected -= 0.3 * math.sin(2 * math.pi * x)
        assert eval_at_points(h, x) == pytest.approx(expected, abs=1e-14)
        assert eval_at_points(-f, x) == pytest.approx(-eval_at_points(f, x), abs=1e-15)

    def test_scalar_addition_shifts_mean(self):
        f = sin_field(0.1) + 2.0
        assert f.mean() == 2.0

    def test_mixed_degree_addition_embeds(self):
        f = sin_field(1.0, k=1) + sin_field(1.0, k=3)
        assert f.degree == 3
        assert f.coefficient((1,)) == -0.5j and f.coefficient((3,)) == -0.5j

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            sin_field(1.0) + PeriodicField.zeros(2, 1)

    def test_complex_scalar_rejected(self):
        with pytest.raises(ValueError, match="real"):
            sin_field(1.0) * (1.0 + 1.0j)

    @pytest.mark.parametrize("op", [lambda f: f + 2j, lambda f: 0.5j + f, lambda f: f - (1.0 + 1.0j)])
    def test_complex_scalar_addition_rejected(self, op):
        f = sin_field(1.0)
        with pytest.raises(ValueError, match="real"):
            op(f)
        assert (f + (2.0 + 0.0j)).mean() == 2.0


    @pytest.mark.parametrize("text", ["1", b"1", np.str_("2")], ids=["str", "bytes", "np.str_"])
    @pytest.mark.parametrize(
        "op",
        [lambda f, t: f + t, lambda f, t: t + f, lambda f, t: f - t, lambda f, t: f * t, lambda f, t: t * f],
        ids=["add", "radd", "sub", "mul", "rmul"],
    )
    def test_text_is_not_a_number(self, op, text):
        with pytest.raises(TypeError):
            op(sin_field(1.0), text)


class TestEvaluation:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_refused(self, dim, bad):
        f = seeded_field(dim, 3, 0.1, seed=9)
        lift = TorusMapLift(np.zeros(dim), (f,) * dim)
        point = bad if dim == 1 else np.array([[0.1, 0.2], [bad, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any phase is taken
            with pytest.raises(NonFinite, match="^evaluation points must be finite$"):
                eval_at_points(f, point)
            with pytest.raises(NonFinite, match="^evaluation points must be finite$"):
                lift(point)

    def test_value_grid_matches_oracle_1d(self):
        f = seeded_field(1, 5, 1.0, seed=7)
        m = 24
        grid = value_grid(f, m)
        for i in [0, 5, 13, 23]:
            assert grid[i] == pytest.approx(eval_oracle(f, [i / m]), abs=1e-12)

    def test_value_grid_matches_oracle_2d(self):
        f = seeded_field(2, 3, 1.0, seed=8)
        m = 16
        grid = value_grid(f, m)
        for i, j in [(0, 0), (3, 11), (15, 2)]:
            assert grid[i, j] == pytest.approx(eval_oracle(f, [i / m, j / m]), abs=1e-12)

    # (field degree, box degree, grid points); the field has a mean, the box is zero past the field
    WHOLE_GRIDS = {
        "small-degree-odd-grid": (2, 2, 257),
        "small-degree-large-grid": (2, 2, 1028),
        "grid-of-2-live-plus-1": (6, 6, 13),
        "box-past-live-coarse": (6, 20, 13),
        "box-past-live-fine": (6, 20, 30),
    }

    @pytest.mark.parametrize("case", list(WHOLE_GRIDS))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_value_grid_matches_oracle_on_whole_grids(self, dim, case):
        degree, box, m = self.WHOLE_GRIDS[case]
        small = seeded_field(dim, degree, 1.0, seed=90 + degree) + 0.3
        f = PeriodicField(dim, box, small._embed(box))
        grid = value_grid(f, m)
        assert grid.shape == (m,) * dim
        idx = np.arange(0, m, 7 if dim == 2 and m > 300 else 1)  # every 7th row and column of 1028^2
        x = np.meshgrid(*(idx / m,) * dim, indexing="ij")
        assert np.max(np.abs(grid[np.ix_(*(idx,) * dim)] - eval_oracle(f, x))) < 1e-13

    @pytest.mark.parametrize("dim", [1, 2])
    def test_value_grid_adds_a_constant_exactly(self, dim):
        f = seeded_field(dim, 5, 1.0, seed=96)
        for c in (0.3, -1e-7, 12.5):
            assert np.array_equal(value_grid(f + c, 24), value_grid(f, 24) + c)

    def test_value_grid_peak_memory(self):
        # the largest check grid of criterion 4's run; 50.7 MB is the peak of a
        # complex inverse FFT over the whole grid
        f = seeded_field(2, 24, 1.0, seed=97)
        tracemalloc.start()
        try:
            value_grid(f, 1028)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6

    def test_value_grid_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="coarse"):
            value_grid(sin_field(1.0, k=4), 8)

    def test_eval_at_points_scalar_and_batch(self):
        f = sin_field(0.25)
        assert eval_at_points(f, 0.25) == pytest.approx(0.25, abs=1e-15)
        out = eval_at_points(f, [0.0, 0.25, 0.5])
        assert np.allclose(out, [0.0, 0.25, 0.0], atol=1e-15)

    def test_eval_at_points_2d_shape(self):
        f = seeded_field(2, 2, 1.0, seed=9)
        pts = np.array([[0.1, 0.2], [0.3, 0.4]])
        out = eval_at_points(f, pts)
        assert out.shape == (2,)
        assert out[1] == pytest.approx(eval_oracle(f, [0.3, 0.4]), abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_eval_at_points_matches_oracle_across_blocks(self, dim, monkeypatch):
        f = seeded_field(dim, 4, 0.3, seed=12) + 0.7
        width = spectral._modes((f,), (f.mean(),))[1].shape[1]
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 10 * width)  # blocks of 6 points
        x = np.random.default_rng(13).random((17, dim))
        vals = eval_at_points(f, x if dim == 2 else x[:, 0])
        assert vals.shape == (17,)
        for v, p in zip(vals, x):
            assert abs(v - eval_oracle(f, p)) < 1e-13

    def test_field_from_grid_round_trip(self):
        f = seeded_field(2, 4, 0.7, seed=10)
        g = _from_grid(value_grid(f, 32), 4)
        assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-13

    def test_sampling_grid_values(self):
        assert sampling_grid(0) == 16
        assert sampling_grid(3) == 16
        assert sampling_grid(5) == 24
        assert sampling_grid(5) % 4 == 0

    def test_shift_matches_pointwise(self):
        f = seeded_field(1, 4, 1.0, seed=11)
        g = f.shift([0.3])
        assert eval_at_points(g, 0.11) == pytest.approx(eval_oracle(f, [0.41]), abs=1e-12)

    def test_derivative_of_sine(self):
        f = sin_field(0.5)
        df = f.derivative(1)
        x = 0.21
        assert eval_at_points(df, x) == pytest.approx(
            0.5 * 2 * math.pi * math.cos(2 * math.pi * x), abs=1e-12
        )

    def test_derivative_order_validation(self):
        with pytest.raises(ValueError, match="1D"):
            seeded_field(2, 2, 1.0, seed=1).derivative(1)
        with pytest.raises(ValueError, match="order"):
            sin_field(1.0).derivative((-1,))


def _batch_fields(dim: int) -> tuple:
    return tuple(seeded_field(dim, 4, 0.02, seed=40 + 2 * dim + i) + 0.1 * (i + 1) for i in range(dim))


class TestPointwiseEvaluator:
    """`_mode_sum` and what it backs give a point the same bits in any batch."""

    POINTS = 1000

    def _points(self, dim: int) -> np.ndarray:
        return np.random.default_rng(41 + dim).random((self.POINTS, dim)) * 3.0 - 1.0

    @pytest.mark.parametrize("batch", [2, 16, 1000])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_mode_sum_bits_do_not_depend_on_the_batch(self, dim, batch):
        fields = _batch_fields(dim)
        modes = spectral._modes(fields, [u.mean() for u in fields])
        x = self._points(dim)

        def run(pts):
            out = np.empty((len(pts), len(fields)))
            return spectral._mode_sum(modes, pts, spectral._mode_scratch(modes, len(pts)), out)

        single = np.concatenate([run(x[i:i + 1]) for i in range(len(x))])
        batched = np.concatenate([run(x[lo:lo + batch]) for lo in range(0, len(x), batch)])
        assert bits(batched) == bits(single)

    @pytest.mark.parametrize("blocks", [False, True])
    @pytest.mark.parametrize("batch", [2, 16, 1000])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_eval_and_call_bits_do_not_depend_on_the_batch(self, dim, batch, blocks, monkeypatch):
        f = TorusMapLift(np.array([0.3, -1.2][:dim]), _batch_fields(dim))
        u = f.displacement[0] + 0.4
        x = self._points(dim)
        pts = x if dim == 2 else x[:, 0]
        single_u = np.array([eval_at_points(u, p) for p in pts])
        single_f = np.stack([f(p) for p in pts])
        if blocks:  # a few points per `_values` block
            width = spectral._modes(f.displacement, f.rho)[1].shape[1]
            monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 10 * width)
        batches = [pts[lo:lo + batch] for lo in range(0, len(pts), batch)]
        assert bits(np.concatenate([eval_at_points(u, b) for b in batches])) == bits(single_u)
        assert bits(np.concatenate([f(b) for b in batches])) == bits(single_f)

    @pytest.mark.parametrize("rho", [(GOLDEN,), (-2.3,), PAIR_2D, (-0.7, 0.2)])
    def test_rigid_rotation_gives_rho_exactly(self, rho):
        f = TorusMapLift.rotation(rho)
        modes = spectral._modes(f.displacement, f.rho)
        assert modes[0].shape == (len(rho), 0)
        x = np.random.default_rng(43).random((50, len(rho)))
        out = spectral._mode_sum(modes, x, spectral._mode_scratch(modes, len(x)), np.empty_like(x))
        assert np.array_equal(out, np.broadcast_to(f.rho, x.shape))
        pts = x if len(rho) == 2 else x[:, 0]
        assert np.array_equal(f(pts), (x + f.rho).reshape(pts.shape))


class TestTruncation:
    def setup_method(self):
        # f = 3 + cos(2 pi x) + cos(6 pi x)
        self.f = PeriodicField.from_entries(
            1, 3, [((0,), 3.0), ((1,), 0.5), ((3,), 0.5)]
        )

    def test_inhomogeneous_keeps_low_block(self):
        low = truncate(self.f, 2)
        assert low.degree == 2
        assert low.mean() == 3.0
        assert low.coefficient((1,)) == 0.5
        assert low.coefficient((3,)) == 0.0

    def test_homogeneous_drops_mean(self):
        hom = truncate(self.f, 2, mode="homogeneous")
        assert hom.mean() == 0.0
        assert hom.coefficient((1,)) == 0.5

    def test_tail_is_exact_complement(self):
        low = truncate(self.f, 2)
        tail = truncate(self.f, 2, mode="tail")
        back = low + tail
        assert np.array_equal(back.coeffs, self.f.coeffs)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            truncate(self.f, -1)
        with pytest.raises(ValueError, match="mode"):
            truncate(self.f, 1, mode="middle")


class TestNorms:
    def test_sup_norm_of_sine_exact(self):
        # the 4x oversampled grid hits the extrema of sin exactly
        f = sin_field(0.02)
        assert cs_norm(f, 0) == pytest.approx(0.02, abs=1e-17)

    def test_c1_norm_of_sine(self):
        f = sin_field(0.02)
        assert cs_norm(f, 1) == pytest.approx(0.02 * 2 * math.pi, rel=1e-12)

    def test_fourier_upper_bounds_grid(self):
        f = seeded_field(2, 4, 1.0, seed=12)
        for s in (0, 1, 2):
            assert cs_norm(f, s, method="fourier") >= cs_norm(f, s) - 1e-12

    def test_fourier_accepts_fractional_grid_does_not(self):
        f = sin_field(1.0)
        val = cs_norm(f, 1.5, method="fourier")
        assert val == pytest.approx(0.5 * (2 * math.pi) ** 1.5 * 2, rel=1e-12)
        with pytest.raises(ValueError, match="integer"):
            cs_norm(f, 1.5)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cs_norm(sin_field(1.0), -1)

    @pytest.mark.parametrize("method", ["grid", "fourier"])
    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_s_not_finite_rejected(self, s, method):
        f = sin_field(1.0)
        with pytest.raises(ValueError, match="s must be nonnegative and finite"):
            cs_norm(f, s, method)
        with pytest.raises(ValueError, match="s must be nonnegative and finite"):
            deviation_norm(TorusMapLift(np.array([0.1]), (f,)), [0.1], s, method)

    def test_grid_norm_past_the_float_maximum(self):
        # the derivative's coefficient 4e307 * 4 pi overflows, and so does its sup
        f = PeriodicField.from_entries(1, 2, [(2, 4e307)])
        assert cs_norm(f, 0) == 8e307
        assert cs_norm(f, 1) == math.inf

    def test_fourier_past_the_float_range_of_the_weights(self):
        # the weight at the zeroed corners overflows; the norm itself does not
        f = PeriodicField.from_entries(2, 108, [((1, 1), 0.01)])
        assert cs_norm(f, 120, "fourier") == pytest.approx(0.02 * (4 * math.pi) ** 120, rel=1e-12)
        assert cs_norm(f, 400, "fourier") == math.inf
        assert cs_norm(PeriodicField.zeros(2, 3), 120, "fourier") == 0.0

    def test_overflowing_grid_reads_inf(self):
        # finite coefficients whose grid values overflow to inf - inf = nan; the sup, 6.4e308, is past the maximum
        f = PeriodicField.from_entries(1, 8, [((k,), 4e307) for k in range(1, 9)])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(value_grid(f, sampling_grid(f.degree))).any()
        assert cs_norm(f, 0) == math.inf
        assert deviation_norm(TorusMapLift(np.array([0.25]), (f,)), [0.25]) == math.inf

    @pytest.mark.parametrize("dim", [1, 2])
    def test_derivative_transform_overflow_reads_inf(self, dim):
        # the derivative's coefficients are finite, but its transform overflows to nan
        ks = [(k,) if dim == 1 else (k, 0) for k in range(1, 9)]
        u = PeriodicField.from_entries(dim, 8, [(k, 2e306) for k in ks])
        assert cs_norm(u, 0) == 3.2e307
        assert cs_norm(u, 1) == math.inf

    @pytest.mark.parametrize("dim", [1, 2])
    def test_overflow_reread_keeps_the_bits(self, dim, monkeypatch):
        # a field past the re-read threshold, its direct reads forced to nan: the re-reads give their bits
        u = seeded_field(dim, 3, 1e303, seed=7)
        assert cs_norm(u, 0, "fourier") > 2.0 ** 1000
        norms = [lambda: cs_norm(u, 0), lambda: cs_norm(u, 1), TorusMapLift(np.zeros(dim), (u,) * dim).jacobian_sup]
        want = [norm() for norm in norms]
        sup, reads = spectral._sup, []

        def direct_read_nan(grids):
            reads.append(grids)
            return math.nan if len(reads) % 2 else sup(grids)

        monkeypatch.setattr(spectral, "_sup", direct_read_nan)
        assert [norm() for norm in norms] == want and len(reads) == 6


def _oracle_map(f: TorusMapLift, x: np.ndarray) -> np.ndarray:
    return x + f.rho + np.array([eval_oracle(u, x) for u in f.displacement])


def _dense_composition_defect(a, b, c, d) -> float:
    """Naive oracle for `_composition_defect`: both sides walked on the box grid and read there.

    No tail test and no band-limited read: every checked point is a walked point.
    """
    m = sampling_grid(max(a.degree, b.degree, c.degree, d.degree, 1))
    (left, lrho), (right, rrho) = spectral._walk((b, a), m), spectral._walk((d, c), m)
    for x, y in zip(left, right):
        x -= y
    return spectral._sup(left, lrho - rrho)


def _walked_defect(maps) -> tuple:
    """(`_composition_defect` of the maps, the grid of each `_walk` it made)."""
    walks, walk = [], spectral._walk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_walk", lambda ms, m, invert=False: walks.append(m) or walk(ms, m, invert))
        return _composition_defect(*maps), walks


def _boxed_maps(dim: int, degree: int, box: int, amplitude: float) -> tuple:
    """Four maps of slowly decaying degree-`degree` components, each held in a box of `box`."""
    fields = [seeded_field(dim, degree, amplitude, seed, decay=0.05) for seed in range(40, 40 + 4 * dim)]
    fields = [PeriodicField(dim, box, u._embed(box)) for u in fields]
    return tuple(
        TorusMapLift(0.1 * (i + 1) * np.arange(1, dim + 1), tuple(fields[dim * i:dim * (i + 1)])) for i in range(4)
    )


class TestCompositionDefect:
    @pytest.mark.parametrize("rigid_right", [False, True])
    def test_matches_oracle_on_the_grid_2d(self, rigid_right):
        rng = np.random.default_rng(17)

        def random_map(seed, degree):
            u = tuple(seeded_field(2, degree, 0.01, seed=seed + i) for i in range(2))
            return TorusMapLift(rng.random(2), u)

        a, b = random_map(60, 3), random_map(62, 2)
        if rigid_right:  # rotations on the right are not sampled
            c, d = TorusMapLift.rotation(PAIR_2D), TorusMapLift.rotation(np.zeros(2))
        else:
            c, d = random_map(64, 2), random_map(66, 3)
        m = sampling_grid(3)
        worst = 0.0
        for i in range(m):
            for j in range(m):
                x = np.array([i, j]) / m
                defect = _oracle_map(a, _oracle_map(b, x)) - _oracle_map(c, _oracle_map(d, x))
                worst = max(worst, float(np.max(np.abs(defect))))
        assert _composition_defect(a, b, c, d) == pytest.approx(worst, abs=1e-13)


    def test_band_read_matches_dense_walk_on_a_criterion_4_composition(self):
        # like criterion 4's verification: the inverse of a degree-2 change of variables of
        # C0 size 0.01, held in a box of 48, against the rotation it conjugates at degree 16
        h = TorusMapLift(np.zeros(2), (seeded_field(2, 2, 0.01, 44), seeded_field(2, 2, 0.01, 45)))
        rotation = TorusMapLift.rotation(PAIR_2D)
        f = conjugate(h, rotation, target_degree=16)
        composed = spectral._chain((h,), 48, invert=True)
        maps = (composed, f, rotation, composed)
        want = _dense_composition_defect(*maps)
        got, walks = _walked_defect(maps)
        # one grid, both sides, well below the 196-point box grid
        assert len(walks) == 2 and walks[0] == walks[1] < sampling_grid(48)
        assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("dim, degree, box", [(1, 4, 48), (2, 3, 24)])
    def test_slow_shells_double_below_the_box_grid(self, dim, degree, box):
        maps = _boxed_maps(dim, degree, box, 0.04 if dim == 1 else 0.02)
        want = _dense_composition_defect(*maps)
        got, walks = _walked_defect(maps)
        grids = walks[::2]
        assert walks[1::2] == grids and len(grids) >= 3
        assert all(2 * m == n for m, n in zip(grids, grids[1:])) and grids[-1] < sampling_grid(box)
        assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("dim", [1, 2])
    def test_walk_that_reaches_the_box_grid_reads_it_directly(self, dim):
        maps = _boxed_maps(dim, 3, 3, 0.05 if dim == 1 else 0.02)
        want = _dense_composition_defect(*maps)
        got, walks = _walked_defect(maps)
        assert walks[-1] == sampling_grid(3) and len(walks) > 2
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("right, want", [("steep", "nan"), ("identity", "inf")])
    def test_values_that_are_not_finite_are_read_on_the_box_grid(self, right, want):
        # 2 * 0.9e308 overflows on every grid: against itself the defect is inf - inf = nan,
        # against the identity it is inf; neither passes a tail test, so no band hides it
        steep = PeriodicField.from_entries(2, 1, [((1, 0), 0.9e308)])
        h, ident = TorusMapLift(np.zeros(2), (PeriodicField.zeros(2, 1), steep)), TorusMapLift.rotation(np.zeros(2))
        with np.errstate(over="ignore", invalid="ignore"):
            got, walks = _walked_defect((h, ident, ident, h if right == "steep" else ident))
        assert walks == [4, 4, 8, 8, 16, 16] and repr(got) == want


class TestTorusMapLift:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rho(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TorusMapLift(np.array([0.1, bad]), (PeriodicField.zeros(2),) * 2)

    def test_constant_displacement_folds_into_rho(self):
        u = sin_field(0.1) + 0.25
        f = TorusMapLift(np.array([0.5]), (u,))
        assert f.rho[0] == pytest.approx(0.75)
        assert f.displacement[0].mean() == 0.0

    def test_rotation_and_identity(self):
        r = TorusMapLift.rotation([GOLDEN])
        assert r.degree == 0
        assert r(0.2) == pytest.approx(0.2 + GOLDEN)
        e = TorusMapLift.rotation(np.zeros(2))
        assert np.allclose(e(np.array([0.3, 0.4])), [0.3, 0.4])

    def test_call_matches_displacement(self):
        f = TorusMapLift(np.array([0.1]), (sin_field(0.05),))
        x = 0.3
        assert f(x) == pytest.approx(0.3 + 0.1 + 0.05 * math.sin(2 * math.pi * 0.3), abs=1e-14)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_call_matches_oracle_across_blocks(self, dim, monkeypatch):
        u = tuple(seeded_field(dim, 4, 0.02, seed=14 + i) + 0.1 for i in range(dim))
        f = TorusMapLift(np.array([0.3, -1.2][:dim]), u)
        width = spectral._modes(f.displacement, f.rho)[1].shape[1]
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 10 * width)  # blocks of 6 points
        x = np.random.default_rng(15).random((17, dim))
        got = f(x) if dim == 2 else f(x[:, 0])[:, None]
        for y, p in zip(got, x):
            assert np.max(np.abs(y - _oracle_map(f, p))) < 1e-13

    def test_jacobian_sup_of_sine(self):
        f = TorusMapLift(np.array([0.0]), (sin_field(0.02),))
        assert f.jacobian_sup() == pytest.approx(0.02 * 2 * math.pi, rel=1e-12)

    def test_rebase_brings_rho_near_alpha(self):
        f = TorusMapLift(np.array([GOLDEN + 2.0]), (sin_field(0.01),))
        g = rebase(f, [GOLDEN])
        assert g.rho[0] == pytest.approx(GOLDEN, abs=1e-12)
        h = rebase(g, [GOLDEN])
        assert h is g

    def test_rebase_dimension_check(self):
        with pytest.raises(ValueError, match="alpha does not match the map dimension"):
            rebase(TorusMapLift.rotation([2.3, 1.1]), [0.3])

    def test_deviation_norm_includes_rho_offset(self):
        f = TorusMapLift(np.array([GOLDEN + 0.003]), (sin_field(0.001),))
        dev = deviation_norm(f, [GOLDEN])
        assert dev == pytest.approx(0.004, abs=1e-12)

    def test_deviation_norm_dimension_check(self):
        f = TorusMapLift.rotation([0.1])
        with pytest.raises(ValueError, match="dimension"):
            deviation_norm(f, [0.1, 0.2])


class TestCompose:
    def test_rotations_compose_exactly(self):
        a = TorusMapLift.rotation([0.3])
        b = TorusMapLift.rotation([0.4])
        c = compose(a, b)
        assert c.rho[0] == pytest.approx(0.7, abs=1e-15)
        assert c.degree == 0

    def test_rotation_after_map_adds_translation(self):
        f = TorusMapLift(np.array([0.1]), (sin_field(0.05),))
        g = compose(TorusMapLift.rotation([0.25]), f)
        assert g.rho[0] == pytest.approx(0.35, abs=1e-13)
        x = np.linspace(0, 1, 7, endpoint=False)
        assert np.allclose(g(x), f(x) + 0.25, atol=1e-13)

    def test_map_after_rotation_shifts_argument(self):
        f = TorusMapLift(np.array([0.1]), (sin_field(0.05),))
        g = compose(f, TorusMapLift.rotation([0.25]))
        x = np.linspace(0, 1, 7, endpoint=False)
        assert np.allclose(g(x), f(x + 0.25), atol=1e-13)

    def test_pointwise_oracle_small_amplitude(self):
        f = TorusMapLift(np.array([0.2]), (sin_field(0.01),))
        g = TorusMapLift(np.array([0.3]), (cos_field(0.02),))
        h = spectral._chain((f, g), 24)
        for x in [0.0, 0.17, 0.52, 0.9]:
            assert h(x) == pytest.approx(g(f(x)), abs=1e-12)

    def test_pointwise_oracle_2d(self):
        u = (seeded_field(2, 2, 0.01, seed=20), seeded_field(2, 2, 0.01, seed=21))
        v = (seeded_field(2, 2, 0.015, seed=22), seeded_field(2, 2, 0.015, seed=23))
        f = TorusMapLift(np.array([0.1, 0.2]), u)
        g = TorusMapLift(np.array([0.3, 0.4]), v)
        h = spectral._chain((f, g), 20)
        pt = np.array([0.37, 0.81])
        assert np.allclose(h(pt), g(f(pt)), atol=1e-11)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            compose(TorusMapLift.rotation(np.zeros(1)), TorusMapLift.rotation(np.zeros(2)))


def _tail_reads(monkeypatch) -> list:
    """(grid size, largest coefficient beyond the target) of each tail `_chain` reads."""
    seen = []
    beyond = spectral._beyond

    def record(spec, degree):
        top = beyond(spec, degree)
        seen.append((spec.shape[0], top))
        return top

    monkeypatch.setattr(spectral, "_beyond", record)
    return seen


def _oracle_chain(maps, target: int) -> TorusMapLift:
    """maps[0] then each later map by `eval_oracle` on the oversample-4 grid, projected at `target`."""
    dim, m = maps[0].dim, sampling_grid(target)
    x = np.stack(np.meshgrid(*[np.arange(m) / m] * dim, indexing="ij")).reshape(dim, -1)
    y = x
    for p in maps:
        y = y + p.rho[:, None] + np.array([eval_oracle(u, y) for u in p.displacement])
    rho = sum(p.rho for p in maps)
    vals = y - x - rho[:, None]
    return TorusMapLift(rho, tuple(_from_grid(v.reshape((m,) * dim), target) for v in vals))


class TestChainGrid:
    """The map chain starts at oversample 2 and doubles while its tail is not negligible."""

    def test_slow_tail_doubles_and_matches_oversample_4_oracle(self, monkeypatch):
        slow = [seeded_field(2, 3, 0.02, seed, decay=0.05) for seed in (40, 41, 42, 43)]
        f = TorusMapLift(np.array([0.1, 0.2]), tuple(slow[:2]))
        g = TorusMapLift(np.array([0.3, 0.4]), tuple(slow[2:]))
        target = 6
        seen = _tail_reads(monkeypatch)
        h = spectral._chain((f, g), target)
        start, m = _round4(2 * (target + 1)), _grid(target, (f, g))
        assert start < m
        assert seen[0][0] == start and seen[0][1] > spectral._CHAIN_TAIL
        want = _oracle_chain((f, g), target)
        assert m == sampling_grid(target)
        assert np.max(np.abs(h.rho - want.rho)) <= 1e-15
        for a, b in zip(h.displacement, want.displacement):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-15

    def test_fast_tail_stays_on_oversample_2_grid(self, monkeypatch):
        # like the criterion-4 change of variables: degree 2, C0 size 0.01
        h = TorusMapLift(np.zeros(2), (seeded_field(2, 2, 0.01, 44), seeded_field(2, 2, 0.01, 45)))
        rotation = TorusMapLift.rotation(PAIR_2D)
        seen = _tail_reads(monkeypatch)
        small = conjugate(h, rotation, target_degree=24)
        # a degree-2 component shows no decay (its shell 0 is empty): the walk
        # starts on the grid that samples the target twice over
        assert all(u._reach == math.inf for u in h.displacement)
        start = _round4(2 * (24 + 1))
        assert [m for m, _ in seen] == [start, start] and start < _grid(24, (h,))
        assert all(top <= spectral._CHAIN_TAIL for _, top in seen)
        monkeypatch.setattr(spectral, "_CHAIN_TAIL", -1.0)  # always widen: the oversample-4 grid
        wide = conjugate(h, rotation, target_degree=24)
        assert np.array_equal(small.rho, wide.rho)
        for a, b in zip(small.displacement, wide.displacement):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-15


def _geometric(dim: int, degree: int, ratio: float) -> PeriodicField:
    """The field with c_k = ratio^|k|_1 for 0 < |k|_1 <= degree."""
    if dim == 1:
        return PeriodicField.from_entries(1, degree, [((k,), ratio ** k) for k in range(1, degree + 1)])
    half = [(k1, k2) for k1 in range(degree + 1) for k2 in range(-degree, degree + 1)
            if 0 < k1 + abs(k2) <= degree and (k1 > 0 or k2 > 0)]
    return PeriodicField.from_entries(2, degree, [(k, ratio ** (k[0] + abs(k[1]))) for k in half])


class TestChainStart:
    """The chain starts on the grid that samples its maps' spectral reach twice over."""

    def test_reach_of_a_geometric_spectrum(self, monkeypatch):
        # the shells fall by 0.3 each, and 0.3^31 is the first power at or below the tail
        assert 0.3 ** 31 <= spectral._CHAIN_TAIL < 0.3 ** 30
        assert _geometric(1, 10, 0.3)._reach == _geometric(2, 6, 0.3)._reach == 31
        # below degree 4 the rate is read against shell 0, here a mean of 1
        with_mean = PeriodicField.from_entries(1, 3, [((k,), 0.3 ** k) for k in range(4)])
        assert with_mean._reach == 31
        # scaled by 1e-3 the decay reaches the tail 6 shells sooner
        phi = TorusMapLift(np.zeros(1), (_geometric(1, 10, 0.3) * 1e-3,))
        assert phi.displacement[0]._reach == 25
        seen = _tail_reads(monkeypatch)
        conjugate(phi, TorusMapLift.rotation([GOLDEN]), target_degree=48)
        assert seen[0][0] == _round4(2 * (25 + 1 + 1))
        # a live shell already at or below the tail is the reach
        tiny = PeriodicField.from_entries(1, 6, [((1,), 0.01), ((6,), 0.5 * spectral._CHAIN_TAIL)])
        assert tiny._reach == 6
        assert PeriodicField.zeros(2, 5)._reach == 0

    def test_no_visible_decay_reaches_the_target(self, monkeypatch):
        flat = PeriodicField.from_entries(1, 8, [((k,), 5e-4) for k in range(1, 9)])
        rising = _geometric(1, 8, 1.1) * 1e-4
        short = sin_field(0.01, k=3)  # shell 0, the mean, is empty
        assert flat._reach == rising._reach == short._reach == math.inf
        for u in (flat, rising, short):
            seen = _tail_reads(monkeypatch)
            conjugate(TorusMapLift(np.zeros(1), (u,)), TorusMapLift.rotation([GOLDEN]), target_degree=40)
            assert seen[0][0] == _round4(2 * (40 + 1))
            monkeypatch.undo()

    def test_decayed_chain_is_accepted_on_its_first_grid(self, monkeypatch):
        # like criterion 4's step-2 pushforward: a degree-12 corrector and map of
        # C0 size 1e-3 whose shells fall by e^-1.5, pushed forward at target 48
        fields = [seeded_field(2, 12, 1e-3, seed, decay=1.5) for seed in (90, 91, 92, 93)]
        phi = TorusMapLift(np.zeros(2), tuple(fields[:2]))
        f = TorusMapLift(np.array(PAIR_2D), tuple(fields[2:]))
        target = 48
        reach = max(u._reach for u in fields)
        start = _round4(2 * (reach + 1 + 1))
        assert start < _round4(2 * (target + 1))  # the target's start, which the reach undercuts
        seen = _tail_reads(monkeypatch)
        small = conjugate(phi, f, target_degree=target)
        assert [m for m, _ in seen] == [start, start]
        assert all(top <= spectral._CHAIN_TAIL for _, top in seen)
        # the same chain on the `_grid` ceiling (every reach is cached by now, so
        # the negative tail never enters a logarithm)
        monkeypatch.setattr(spectral, "_CHAIN_TAIL", -1.0)
        wide = conjugate(phi, f, target_degree=target)
        assert np.max(np.abs(small.rho - wide.rho)) <= 1e-15
        for a, b in zip(small.displacement, wide.displacement):
            assert a.live_degree < target
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-15

    def test_truncated_change_of_variables_starts_at_the_target(self, monkeypatch):
        # the 1D set-up of `make_test_map`: a degree-3 change of variables
        # pushes the rotation forward at target 16
        seen = _tail_reads(monkeypatch)
        make_test_map("conjugate", {"amplitude": 0.01}, [GOLDEN], seed=3)
        assert seen[0][0] == _round4(2 * (16 + 1))

    def test_jacobian_gate_runs_once_per_chain(self, monkeypatch):
        gates, walks = [], []
        jacobian_sup, walk = TorusMapLift.jacobian_sup, spectral._walk
        monkeypatch.setattr(TorusMapLift, "jacobian_sup", lambda p: gates.append(p) or jacobian_sup(p))
        monkeypatch.setattr(spectral, "_walk", lambda maps, m, invert=False: walks.append(m) or walk(maps, m, invert))
        phi = TorusMapLift(np.array([0.0]), (sin_field(0.04) + cos_field(0.005, k=3),))
        conjugate(phi, TorusMapLift.rotation([GOLDEN]), target_degree=16)
        assert len(walks) > 1 and gates == [phi]  # the walk doubled; the gate ran once
        gates.clear()
        walks.clear()
        steep = TorusMapLift(np.array([0.0]), (sin_field(0.1),))
        with pytest.raises(NotContractive, match="displacement Jacobian reaches 1/2; refusing to invert"):
            conjugate(steep, TorusMapLift.rotation([GOLDEN]))
        assert gates == [steep] and walks == []


def _inverse(phi: TorusMapLift) -> TorusMapLift:
    """phi's inverse as a map: the inverted `_chain` of phi alone, each component cut to its live shell."""
    psi = spectral._chain((phi,), max(4 * max(phi.live_degree, 4), 64), invert=True)
    return TorusMapLift(psi.rho, tuple(truncate(u, u.live_degree) for u in psi.displacement))


def _chain_cases() -> dict:
    """name: (maps of the chain, target, whether the live band falls short of the target)."""
    slow = [seeded_field(2, 3, 0.02, seed, decay=0.05) for seed in (40, 41, 42, 43)]
    # like the criterion-4 change of variables: degree 2, C0 size 0.01
    h = TorusMapLift(np.zeros(2), (seeded_field(2, 2, 0.01, 44), seeded_field(2, 2, 0.01, 45)))
    return {
        "slow": ((TorusMapLift(np.array([0.1, 0.2]), tuple(slow[:2])),
                  TorusMapLift(np.array([0.3, 0.4]), tuple(slow[2:]))), 6, False),
        "fast": ((_inverse(h), TorusMapLift.rotation(PAIR_2D), h), 24, True),
        "1d-wide": ((TorusMapLift(np.array([0.1]), (sin_field(0.05),)),
                     TorusMapLift(np.array([0.3]), (cos_field(0.04),))), 24, True),
    }


class TestLiveShell:
    """A map keeps its box at the nominal band; the kernels read only its live shell."""

    @pytest.mark.parametrize("case", ["slow", "fast", "1d-wide"])
    def test_chain_matches_oracle(self, case):
        maps, target, trimmed = _chain_cases()[case]
        got = spectral._chain(maps, target)
        want = _oracle_chain(maps, target)
        assert np.max(np.abs(got.rho - want.rho)) <= 1e-15
        if case == "1d-wide":  # a composition is not band-limited at the sum of its degrees
            assert got.live_degree > sum(p.degree for p in maps)
        for a, b in zip(got.displacement, want.displacement):
            assert a.degree == target and (a.live_degree < target) == trimmed
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-15
            past = spectral._l1_radii(a.dim, target) > a.live_degree
            assert np.all(a.coeffs[past] == 0)
            assert np.max(np.abs(b.coeffs[past]), initial=0.0) <= spectral._CHAIN_TAIL

    @pytest.mark.parametrize("dim", [1, 2])
    def test_kernels_read_only_the_live_shell(self, dim):
        small = seeded_field(dim, 5, 1.0, seed=70)
        big = PeriodicField(dim, 40, small._embed(40))
        assert (big.degree, big.live_degree, small.live_degree) == (40, 5, 5)
        m, shift = 16, np.array([0.3, -0.1][:dim])
        for v in (_displacement(dim, m, 0.01, 71), _displacement(dim, m, 0.0, None)):
            (a,) = _eval_displaced((big,), shift, v, m)
            (b,) = _eval_displaced((small,), shift, v, m)
            assert np.array_equal(a, b)
        for m in (11, 16, sampling_grid(40)):
            assert np.array_equal(value_grid(big, m), value_grid(small, m))
        assert np.array_equal(value_grid(big), value_grid(small, sampling_grid(40)))
        with pytest.raises(ValueError, match="too coarse"):
            value_grid(big, 10)
        # a live-24 field in its own box and in boxes that a grid does and does
        # not resolve, up to criterion 4's final check grid, sign of zero included
        live = seeded_field(dim, 24, 1.0, seed=72)
        for m in (196, 1028):
            want = bits(value_grid(live, m))
            for box in (48, 256):
                assert bits(value_grid(PeriodicField(dim, box, live._embed(box)), m)) == want


def _oracle_inverse(f: TorusMapLift, y: np.ndarray) -> np.ndarray:
    """The x with f(x) = y, by the plain fixed-point iteration x <- y - rho - u(x) on `eval_oracle`."""
    x = y - f.rho
    for _ in range(200):
        nxt = y - f.rho - np.array([eval_oracle(u, x) for u in f.displacement])
        if np.array_equal(nxt, x):
            break
        x = nxt
    return x


# correctors whose inverses need more than one round: (rho, displacement)
_INVERT_CASES = {
    "1d": (np.array([0.3]), (sin_field(0.04) + cos_field(0.005, k=3),)),
    "2d": (np.array([0.1, -0.2]), (seeded_field(2, 3, 0.02, 32), seeded_field(2, 3, 0.02, 33))),
}


class TestInvert:
    def test_inverse_of_sine_perturbation(self):
        phi = TorusMapLift(np.array([0.0]), (sin_field(0.05),))
        psi = _inverse(phi)
        x = np.linspace(0, 1, 13, endpoint=False)
        assert np.max(np.abs(phi(psi(x)) - x)) < 1e-11
        assert np.max(np.abs(psi(phi(x)) - x)) < 1e-11

    def test_inverse_undoes_translation(self):
        phi = TorusMapLift(np.array([0.3]), (sin_field(0.05),))
        psi = _inverse(phi)
        assert psi.rho[0] == pytest.approx(-0.3)
        assert psi(phi(0.21)) == pytest.approx(0.21, abs=1e-11)

    def test_not_contractive_on_steep_displacement(self):
        # jacobian sup 2*pi*0.1 is just above the 1/2 contraction gate
        phi = TorusMapLift(np.array([0.0]), (sin_field(0.1),))
        with pytest.raises(NotContractive):
            _inverse(phi)

    def test_nan_defect_is_no_convergence(self, monkeypatch):
        # a nan defect is not within the tolerance
        monkeypatch.setattr(spectral, "_sup", lambda grids: math.nan)
        phi = TorusMapLift(np.array([0.0]), (sin_field(0.05),))
        with pytest.raises(NoConvergence, match="^inverse defect nan above tolerance"):
            spectral._inverse_values(phi, 16)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nan_jacobian_is_not_contractive(self, dim):
        # finite coefficients whose derivative's transform overflows: the Jacobian
        # reads inf, as cs_norm(u, 1) does, where its raw grids sum to nan
        ks = [(k,) if dim == 1 else (k, 0) for k in range(1, 9)]
        u = PeriodicField.from_entries(dim, 8, [(k, 2e306) for k in ks])
        change = TorusMapLift(np.zeros(dim), (u,) * dim)
        with np.errstate(over="ignore", invalid="ignore"):
            assert change.jacobian_sup() == math.inf == cs_norm(u, 1)
            with pytest.raises(NotContractive):
                conjugate(change, TorusMapLift.rotation(np.full(dim, 0.3)), 16)

    def test_no_convergence_when_degree_capped(self, monkeypatch):
        # a tolerance below roundoff: the sweeps stop at their floor with the defect above it
        monkeypatch.setattr(spectral, "_INVERT_TOL", 1e-300)
        phi = TorusMapLift(np.array([0.0]), (sin_field(0.07),))
        with pytest.raises(NoConvergence, match="inverse defect .* above tolerance") as info:
            _inverse(phi)
        assert float(str(info.value).split()[2]) > spectral._INVERT_TOL

    def test_sweeps_stop_when_the_defect_fails_to_halve(self, monkeypatch):
        # Jacobian 2 pi 0.1 = 0.63, past the gate: the sweeps contract by about 0.61
        # a sweep, which the certificate does not cover, so they stop at the first
        defects = []
        sup = spectral._sup
        monkeypatch.setattr(spectral, "_sup", lambda grids: defects.append(sup(grids)) or defects[-1])
        phi = TorusMapLift(np.array([0.0]), (sin_field(0.1),))
        with pytest.raises(NoConvergence, match="inverse defect .* above tolerance"):
            spectral._inverse_values(phi, 16)
        ratios = [b / a for a, b in zip(defects, defects[1:])]
        assert all(r < 0.5 for r in ratios[:-1]) and ratios[-1] >= 0.5

    @pytest.mark.parametrize("case", ["1d", "2d", "zero-1d", "zero-2d"])
    def test_first_sweep_is_the_grid_transform(self, case, monkeypatch):
        # the kernel never sees w = 0: the first sweep is value_grid, and a zero
        # corrector's inverse makes no displaced evaluation at all
        zero, dim = case.startswith("zero"), int(case[-2])
        phi = TorusMapLift(np.full(dim, 0.3), (PeriodicField.zeros(dim, 3),) * dim) if zero else \
            TorusMapLift(*_INVERT_CASES[case])
        calls = []
        kernel = spectral._eval_displaced
        monkeypatch.setattr(spectral, "_eval_displaced", lambda *a: calls.append(a[2]) or kernel(*a))
        w = spectral._inverse_values(phi, 12)
        assert all(any(np.any(v) for v in vs) for vs in calls)
        assert bool(calls) != zero
        assert not zero or not any(np.any(a) for a in w)

    def test_inverse_2d(self):
        u = (seeded_field(2, 2, 0.02, seed=30), seeded_field(2, 2, 0.02, seed=31))
        phi = TorusMapLift(np.array([0.1, -0.2]), u)
        psi = _inverse(phi)
        pts = np.array([[0.1, 0.9], [0.44, 0.27], [0.71, 0.05]])
        assert np.max(np.abs(phi(psi(pts)) - pts)) < 1e-11

    @pytest.mark.parametrize("case", sorted(_INVERT_CASES))
    def test_matches_naive_inverse_off_grid(self, case):
        rho, u = _INVERT_CASES[case]
        phi = TorusMapLift(rho, u)
        psi = _inverse(phi)
        rng = np.random.default_rng(34)
        for y in rng.random((5, phi.dim)):
            assert np.max(np.abs(_oracle_map(psi, y) - _oracle_inverse(phi, y))) <= 1e-12
        # both composition residuals, on the sampling grid of the larger box
        ident = TorusMapLift.rotation(np.zeros(phi.dim))
        assert _composition_defect(phi, psi, ident, ident) <= spectral._INVERT_TOL
        assert _composition_defect(psi, phi, ident, ident) <= spectral._INVERT_TOL

    @pytest.mark.parametrize("case", sorted(_INVERT_CASES))
    def test_no_dead_shells(self, case):
        psi = _inverse(TorusMapLift(*_INVERT_CASES[case]))
        for u in psi.displacement:
            outer = np.abs(u.coeffs[spectral._l1_radii(u.dim, u.degree) == u.degree])
            assert np.max(outer) > spectral._CHAIN_TAIL

    @pytest.mark.parametrize("case", sorted(_INVERT_CASES))
    def test_inverse_values_meet_the_tolerance_on_the_grid(self, case):
        phi = TorusMapLift(*_INVERT_CASES[case])
        m = 12
        w = spectral._inverse_values(phi, m)
        y = np.stack(np.meshgrid(*[np.arange(m) / m] * phi.dim, indexing="ij")).reshape(phi.dim, -1)
        x = y - phi.rho[:, None] + np.stack([a.ravel() for a in w])
        # the pointwise certificate: phi(x) = y at every grid point
        defect = x + phi.rho[:, None] + np.array([eval_oracle(u, x) for u in phi.displacement]) - y
        assert np.max(np.abs(defect)) <= spectral._INVERT_TOL
        for j in range(0, y.shape[1], 7):
            assert np.max(np.abs(x[:, j] - _oracle_inverse(phi, y[:, j]))) <= spectral._INVERT_TOL


class TestConjugate:
    def test_identity_conjugation_is_noop(self):
        f = TorusMapLift(np.array([GOLDEN]), (sin_field(0.02),))
        g = conjugate(TorusMapLift.rotation(np.zeros(1)), f)
        assert g.rho[0] == pytest.approx(f.rho[0], abs=1e-13)
        x = np.linspace(0, 1, 9, endpoint=False)
        assert np.allclose(g(x), f(x), atol=1e-12)

    def test_translation_conjugation_exact(self):
        f = TorusMapLift(np.array([GOLDEN]), (sin_field(0.02),))
        t = TorusMapLift.rotation([0.37])
        g = conjugate(t, f)
        x = np.linspace(0, 1, 9, endpoint=False)
        assert np.allclose(g(x), f(x - 0.37) + 0.37, atol=1e-12)

    @pytest.mark.parametrize("case, target", [("1d", 48), ("2d", 40)])
    def test_matches_naive_pushforward_off_grid(self, case, target):
        phi = TorusMapLift(*_INVERT_CASES[case])
        d = phi.dim
        rho = np.array([GOLDEN] if d == 1 else PAIR_2D)
        f = TorusMapLift(rho, tuple(seeded_field(d, 2, 0.01, seed=80 + i) for i in range(d)))
        g = conjugate(phi, f, target_degree=target)
        for y in np.random.default_rng(35).random((5, d)):
            want = _oracle_map(phi, _oracle_map(f, _oracle_inverse(phi, y)))
            assert np.max(np.abs(_oracle_map(g, y) - want)) <= 1e-12

    def test_refuses_what_the_inverse_refuses(self, monkeypatch):
        f = TorusMapLift(np.array([GOLDEN]), (sin_field(0.02),))
        with pytest.raises(NotContractive):
            conjugate(TorusMapLift(np.array([0.0]), (sin_field(0.1),)), f)
        monkeypatch.setattr(spectral, "_INVERT_TOL", 1e-300)
        with pytest.raises(NoConvergence, match="inverse defect"):
            conjugate(TorusMapLift(np.array([0.0]), (sin_field(0.07),)), f)

    def test_round_trip_recovers_rotation(self):
        h = TorusMapLift(np.array([0.0]), (sin_field(0.01),))
        f = conjugate(h, TorusMapLift.rotation([GOLDEN]), target_degree=12)
        psi = _inverse(h)
        back = conjugate(psi, f, target_degree=24)
        assert back.rho[0] == pytest.approx(GOLDEN, abs=1e-10)
        assert deviation_norm(back, [GOLDEN]) < 1e-9


def _floats_per_point(fields) -> int:
    """Floats of scratch the 2D displaced kernel holds a point: every field's Re and Im rows, and the basis."""
    deg = max(u.live_degree for u in fields)
    return 2 * (deg + 1) * len(fields) + 2 * deg + 1


def _displacement(dim: int, m: int, size: float, seed: int | None) -> tuple:
    """Constant displacement `size` (seed None), or `size` times Gaussian noise."""
    if seed is None:
        return tuple(np.full((m,) * dim, size) for _ in range(dim))
    rng = np.random.default_rng(seed)
    return tuple(size * rng.standard_normal((m,) * dim) for _ in range(dim))


class TestDisplacedEvaluation:
    # (dim, degree, field seed, grid points, shift, displacement size, noise seed)
    CASES = {
        "1d-small": (1, 6, 40, sampling_grid(6), [0.3], 0.004, None),
        "2d-small": (2, 4, 41, sampling_grid(4), [0.1, 0.2], 0.005, 42),
        "2d-large": (2, 4, 44, sampling_grid(4), [0.1, 0.2], 0.3, 45),
        "1d-unresolved": (1, 10, 46, 12, [0.7], 0.01, 47),
        "2d-unresolved": (2, 6, 48, 8, [0.25, 0.6], 0.02, 49),
        "2d-unresolved-zero": (2, 6, 50, 8, [0.25, 0.6], 0.0, None),
        "1d-zero": (1, 6, 51, sampling_grid(6), [0.3], 0.0, None),
        "2d-zero": (2, 4, 52, sampling_grid(4), [0.1, 0.2], 0.0, None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_oracle(self, case):
        dim, degree, seed, m, shift, size, noise = self.CASES[case]
        f = seeded_field(dim, degree, 1.0, seed=seed)
        v = _displacement(dim, m, size, noise)
        (out,) = _eval_displaced((f,), np.array(shift), v, m)
        assert out.shape == (m,) * dim
        for idx in np.ndindex(out.shape):
            x = [j / m + shift[i] + v[i][idx] for i, j in enumerate(idx)]
            assert abs(out[idx] - eval_oracle(f, x)) < 1e-13

    def test_direct_matches_oracle_at_large_displacement(self):
        f = seeded_field(1, 3, 1.0, seed=43)
        m = 16
        v = (np.full((m,), 0.3),)  # 2*pi*degree*|v| is near 6
        (out,) = _eval_displaced((f,), np.array([0.0]), v, m)
        for i in [0, 4, 9]:
            assert out[i] == pytest.approx(eval_oracle(f, [i / m + 0.3]), abs=1e-12)

    @staticmethod
    def _fields(dim: int) -> tuple:
        """Three fields of unequal degree on one torus, the last of degree 0."""
        return (
            seeded_field(dim, 5, 1.0, seed=60) + 0.4,
            seeded_field(dim, 3, 0.5, seed=61),
            PeriodicField.zeros(dim) + (-0.7),
        )

    @pytest.mark.parametrize("size", [0.02, 0.0], ids=["displaced", "zero"])
    @pytest.mark.parametrize("dim, blocks", [(1, False), (2, False), (2, True)], ids=["1d", "2d", "2d-blocks"])
    def test_fields_match_oracle(self, dim, blocks, size, monkeypatch):
        fields = self._fields(dim)
        m = 16
        if blocks:  # blocks of 3 rows of 16, the last one short (256 = 5 * 48 + 16)
            monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 3 * m * _floats_per_point(fields))
        shift = [0.15, -0.35][:dim]
        v = _displacement(dim, m, size, 62 if size else None)
        out = _eval_displaced(fields, np.array(shift), v, m)
        assert len(out) == len(fields)
        for f, vals in zip(fields, out):
            assert vals.shape == (m,) * dim
            for idx in np.ndindex(vals.shape):
                x = [j / m + shift[i] + v[i][idx] for i, j in enumerate(idx)]
                assert abs(vals[idx] - eval_oracle(f, x)) < 1e-13

    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_field_matches_its_own_call(self, dim):
        fields = self._fields(dim)[:2]
        m = 24
        v = _displacement(dim, m, 0.01, 63)
        shift = np.array([0.3, 0.1][:dim])
        both = _eval_displaced(fields, shift, v, m)
        for f, vals in zip(fields, both):
            (alone,) = _eval_displaced((f,), shift, v, m)
            assert np.max(np.abs(vals - alone)) < 1e-15

    # 2D half-ball modes of radius 3: k1 = 0 with k2 > 0, and k1 > 0 with k2 of either sign
    HALF_BALL = [(k1, k2) for k1 in range(4) for k2 in range(-3, 4)
                 if 0 < abs(k1) + abs(k2) <= 3 and (k1 > 0 or k2 > 0)]

    @pytest.mark.parametrize("blocks", [False, True], ids=["one-block", "short-last-block"])
    @pytest.mark.parametrize("k", HALF_BALL, ids=str)
    def test_real_basis_folds_each_mode(self, k, blocks, monkeypatch):
        """One mode and its mirror: 2|c| cos(2 pi k.x + arg c) at every displaced point."""
        c = 0.1 * np.exp(1j * (0.7 + 0.9 * (4 * k[0] + k[1])))
        f = PeriodicField.from_entries(2, 3, [(k, c)])
        m = 16
        if blocks:  # blocks of 3 rows of 16, the last one short (256 = 5 * 48 + 16)
            monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 3 * m * _floats_per_point((f,)))
        shift = np.array([0.15, -0.35])
        v = _displacement(2, m, 0.02, 98)
        (out,) = _eval_displaced((f,), shift, v, m)
        ax = np.arange(m) / m
        x1 = ax[:, None] + shift[0] + v[0]
        x2 = ax[None, :] + shift[1] + v[1]
        phase = np.mod(k[0] * x1 + k[1] * x2, 1.0)
        want = 2.0 * abs(c) * np.cos(2.0 * np.pi * phase + np.angle(c))
        assert np.max(np.abs(out - want)) < 1e-15

    @staticmethod
    def _live_25_map() -> tuple:
        """A two-component map at live degree 25 in a box of 48, as the 2D reference run's."""
        box = PeriodicField.zeros(2, 48)
        return tuple(seeded_field(2, 25, 0.01, seed=64 + i) + box for i in range(2))

    def test_two_fields_peak_memory(self):
        # the largest ref-2d grid at degree 48; 35.8 MB is the peak of a complex
        # Vandermonde block contracted in blocks of 2^20 entries, and 8.1 MB that
        # of blocks sized by the basis alone
        fields = tuple(seeded_field(2, 48, 0.01, seed=64 + i) for i in range(2))
        m = 196
        v = _displacement(2, m, 1e-4, 66)
        tracemalloc.start()
        try:
            _eval_displaced(fields, np.array([0.2, 0.7]), v, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_powers_share_the_rows_buffer(self):
        # the largest ref-2d grid: a block of 17 rows (3,332 points) holds the
        # basis (51 floats a point) and the rows (104), where the powers of the
        # inner phase (50 more) live until the product writes the rows; the peak
        # read 10.0 MB with a powers buffer of their own and blocks sized by the
        # basis alone, 7.9 MB sharing the rows, 5.1 MB with blocks sized by both
        fields = self._live_25_map()
        m = 196
        v = _displacement(2, m, 1e-4, 66)
        tracemalloc.start()
        try:
            _eval_displaced(fields, np.array([0.2, 0.7]), v, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("m", [58, 196])
    def test_blocks_are_whole_rows_within_the_budget(self, m, monkeypatch):
        """One product per block, each of as many whole grid rows as the budget holds."""
        fields = self._live_25_map()
        columns, matmul = [], np.matmul

        def spy(a, b, **kw):
            columns.append(b.shape[1])
            return matmul(a, b, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        _eval_displaced(fields, np.array([0.2, 0.7]), _displacement(2, m, 1e-4, 66), m)
        rows = spectral._BLOCK_ENTRIES // (_floats_per_point(fields) * m)  # 155 floats a point
        if m == 58:  # every chain-walk grid of the reference runs is one block
            assert rows >= m and columns == [m * m]
        else:  # 17 rows a block: 11 full blocks and one of 9 rows
            assert rows == 17
            assert columns == [rows * m] * (m // rows) + [(m % rows) * m]

    def test_blocks_change_values_only_at_roundoff(self, monkeypatch):
        # a point's bits can depend on its block, through the product's tail
        # columns; one block and twelve agree to a few ulps of the coefficients' l1 sum
        fields = self._live_25_map()
        m = 196
        v = _displacement(2, m, 1e-4, 66)
        blocks = np.stack(_eval_displaced(fields, np.array([0.2, 0.7]), v, m))
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", _floats_per_point(fields) * m * m)
        whole = np.stack(_eval_displaced(fields, np.array([0.2, 0.7]), v, m))
        l1 = max(float(np.sum(np.abs(u.coeffs))) for u in fields)
        assert np.max(np.abs(blocks - whole)) <= 4 * np.finfo(float).eps * l1


# positive frequencies only; the negative half is the forced conjugate mirror
small_fields = st.integers(min_value=1, max_value=3).flatmap(
    lambda deg: st.dictionaries(
        st.integers(min_value=1, max_value=deg),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        max_size=3,
    ).map(
        lambda pairs: PeriodicField.from_entries(
            1, deg, [((k,), v) for k, v in pairs.items()]
        )
    )
)


@settings(max_examples=40, deadline=None)
@given(small_fields)
def test_truncation_split_reassembles(f):
    low = truncate(f, 1)
    tail = truncate(f, 1, mode="tail")
    back = low + tail
    assert np.array_equal(back.coeffs, f.coeffs)


@settings(max_examples=40, deadline=None)
@given(small_fields, st.floats(min_value=-1.0, max_value=1.0))
def test_shift_round_trip(f, delta):
    g = f.shift([delta]).shift([-delta])
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12 * max(1.0, np.max(np.abs(f.coeffs)))


@settings(max_examples=40, deadline=None)
@given(small_fields)
def test_fourier_norm_dominates_grid_norm(f):
    assert cs_norm(f, 0, method="fourier") >= cs_norm(f, 0) - 1e-12


@settings(max_examples=30, deadline=None)
@given(small_fields)
def test_grid_projection_round_trip(f):
    g = _from_grid(value_grid(f), f.degree)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-10 * max(1.0, np.max(np.abs(f.coeffs)))


def _canonical_field(dim: int, degree: int, pairs) -> PeriodicField:
    entries = {}
    for k, v in pairs:
        k = tuple(k)
        if 0 < sum(abs(x) for x in k) <= degree:
            entries[max(k, tuple(-x for x in k))] = v
    return PeriodicField.from_entries(dim, degree, entries.items())


lattice_fields = st.tuples(st.sampled_from([1, 2]), st.integers(min_value=1, max_value=40)).flatmap(
    lambda dd: st.lists(
        st.tuples(
            st.lists(st.integers(-dd[1], dd[1]), min_size=dd[0], max_size=dd[0]),
            st.complex_numbers(min_magnitude=1e-12, max_magnitude=1e3, allow_nan=False),
        ),
        max_size=5,
    ).map(lambda pairs: _canonical_field(dd[0], dd[1], pairs))
)


@settings(max_examples=80, deadline=None)
@given(lattice_fields, st.floats(min_value=0.0, max_value=400.0))
def test_fourier_norm_matches_direct_formula(f, s):
    nz = f.coeffs != 0
    radii = np.abs(np.indices(f.coeffs.shape) - f.degree).sum(axis=0)[nz]
    with np.errstate(over="ignore"):
        direct = float(np.sum(np.maximum(1.0, 2.0 * np.pi * radii) ** s * np.abs(f.coeffs[nz])))
    if math.isfinite(direct):
        assert cs_norm(f, s, "fourier") == pytest.approx(direct, rel=1e-12, abs=0.0)


def _field_in_box(dim: int, degree: int, live: int, mean: float, pairs) -> PeriodicField:
    """A field in the box of `degree` whose entries lie on the l1 shells up to `live`."""
    entries = {(0,) * dim: mean}
    for k, v in pairs:
        if 0 < sum(abs(x) for x in k) <= live:
            entries[max(k, tuple(-x for x in k))] = v
    return PeriodicField.from_entries(dim, degree, entries.items())


# no subnormal part, and none from the products below: halving one is not exact
_part = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
_away_from_zero = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-9)


def _boxed_fields(dim: int):
    return st.integers(0, 12).flatmap(
        lambda deg: st.builds(
            _field_in_box,
            st.just(dim),
            st.just(deg),
            st.integers(0, deg),
            _part,
            st.lists(
                st.tuples(st.lists(st.integers(-deg, deg), min_size=dim, max_size=dim).map(tuple),
                          st.builds(complex, _part, _part)),
                max_size=16,
            ),
        )
    )


def _assert_as_validated(g: PeriodicField) -> None:
    """g's coefficients are read-only and those the public constructor makes of the same box.

    Bit for bit up to the sign of a zero, which the constructor's
    symmetrization may flip; adding +0 makes every zero positive.
    """
    assert not g.coeffs.flags.writeable
    want = PeriodicField(g.dim, g.degree, g.coeffs)
    assert (g.coeffs + 0j).tobytes() == (want.coeffs + 0j).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(_boxed_fields(d), _boxed_fields(d))),
    st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) >= 1e-6),
    st.lists(_away_from_zero, min_size=2, max_size=2),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 13),
)
def test_exact_operations_build_validated_fields(fg, scalar, delta, order, cutoff):
    f, g = fg
    order = order[:1] if f.dim == 1 else order
    cutoff %= f.degree + 2
    for h in (-f, f * scalar, scalar * f, f + scalar, f - scalar, f + g, f - g,
              f.shift(delta[:f.dim]), f.derivative(order), PeriodicField.zeros(f.dim, f.degree)):
        _assert_as_validated(h)
    for mode in ("inhomogeneous", "homogeneous", "tail"):
        _assert_as_validated(truncate(f, cutoff, mode))
    m = sampling_grid(f.degree)
    spec = np.fft.fftn(value_grid(f, m)) / m ** f.dim
    _assert_as_validated(spectral._project(spec, f.degree, f.degree + 3))


def test_exact_operations_raise_on_overflow():
    f = PeriodicField.from_entries(1, 2, [(2, 1e308)])
    g = PeriodicField.from_entries(2, 2, [((1, 1), 1e308)])
    with np.errstate(over="ignore"):
        for overflow in (lambda: f.derivative(1), lambda: g.derivative((1, 0)), lambda: 2.0 * f,
                         lambda: g * -4.0, lambda: f + f, lambda: g - (-g), lambda: (f + 1e308) + 1e308):
            with pytest.raises(NonFinite):
                overflow()
    # in 1D: test_grid_norm_past_the_float_maximum
    assert cs_norm(PeriodicField.from_entries(2, 2, [((1, 1), 4e307)]), 1) == math.inf


def _serve(mp, name: str, results) -> None:
    """Make spectral.<name> hand out the results in turn, grids as fresh copies."""
    queue = iter(results)

    def serve(*args, **kwargs):
        r = next(queue)
        return r.copy() if isinstance(r, np.ndarray) else (tuple(g.copy() for g in r[0]), r[1])

    mp.setattr(spectral, name, serve)


def _parent_jacobian_sup(grids, dim: int) -> float:
    """jacobian_sup's reduction as it read when it kept a running maximum grid."""
    parts = iter(grids)
    worst = None
    for _ in range(dim):
        row = np.zeros(grids[0].shape)
        for _ in range(dim):
            row = row + np.abs(next(parts))
        worst = row if worst is None else np.maximum(worst, row)
    return float(np.max(worst))


class TestCopyFreeSups:
    """The grid norms and the composition defect read each sup off a grid's extremes, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2), st.data())
    def test_cs_norm_grid(self, dim, data):
        grids = data.draw(check_grids(dim + 1, (3,) * dim))  # orders |sigma| <= 1
        want = outcome(lambda: float(np.max([np.max(np.abs(g)) for g in grids])))
        with pytest.MonkeyPatch.context() as mp:
            _serve(mp, "value_grid", grids)
            assert outcome(cs_norm, PeriodicField.zeros(dim, 1), 1) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2), st.data())
    def test_jacobian_sup(self, dim, data):
        grids = data.draw(check_grids(dim * dim, (3,) * dim))
        want = outcome(_parent_jacobian_sup, grids, dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "sampling_grid", lambda degree: 3)
            _serve(mp, "value_grid", grids)
            assert outcome(TorusMapLift.rotation(np.zeros(dim)).jacobian_sup) == want

    def test_sup_keeps_a_nan_in_either_place(self):
        zero, nan = np.array([-0.0, 1.0, -math.inf]), np.array([0.5, math.nan])
        for grids in ((zero, nan), (nan, zero)):
            assert repr(spectral._sup(grids)) == "nan"
        assert repr(spectral._sup((np.array([-0.0, -0.0]),))) == "0.0"
        assert repr(spectral._sup((zero,), (0.5,))) == "inf"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2), st.data())
    def test_composition_defect(self, dim, data):
        left, right = data.draw(check_grids(dim, (5,))), data.draw(check_grids(dim, (5,)))
        lrho, rrho = (np.array(data.draw(st.lists(SHIFTS, min_size=dim, max_size=dim))) for _ in "lr")
        want = outcome(lambda: float(np.max(
            [np.max(np.abs((x - y) + (p - q))) for x, y, p, q in zip(left, right, lrho, rrho)]
        )))
        # degree-0 maps: the walks start on grid 4 and double up to the 16-point box grid;
        # below it the left side's Nyquist mode fails the tail test, and at it the drawn
        # pair is read directly
        f = TorusMapLift.rotation(np.zeros(dim))
        asked, served = [], []

        def walk(maps, m, invert=False):
            if not served:  # the left side on grid m: queue both sides
                asked.append(m)
                if m == sampling_grid(1):
                    served.extend([(left, lrho), (right, rrho)])
                else:
                    nyquist = (-1.0) ** np.arange(m).reshape((m,) + (1,) * (dim - 1)) * np.ones((m,) * dim)
                    served.extend([((nyquist,) * dim, np.zeros(dim)), ((0.0 * nyquist,) * dim, np.zeros(dim))])
            grids, rho = served.pop(0)
            return tuple(g.copy() for g in grids), rho

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_walk", walk)
            assert outcome(_composition_defect, f, f, f, f) == want
        assert asked == [4, 8, 16] and not served
