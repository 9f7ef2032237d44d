"""Solver for the linearized conjugacy equation, mode by mode."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamconj import (
    CohomologyResidualError,
    DCViolation,
    DiophantineVector,
    DivisorTooSmall,
    NonFinite,
    PeriodicField,
    cs_norm,
    eval_at_points,
    growth_ratios,
    solve,
    truncate,
    verified_vector,
)
from kamconj import spectral
from kamconj.cohomology import _divisors

from conftest import GOLDEN, seeded_field


def test_half_rotation_closed_form():
    # alpha = 1/2: divisor at k=1 is e^(i pi) - 1 = -2, so phi_1 = f_1 / 2
    vec = dataclasses.replace(
        DiophantineVector(np.array([0.5]), gamma=2.0, tau=1.0), verified_up_to=1
    )
    f = PeriodicField.from_entries(1, 1, [((1,), 0.3 + 0.1j)])
    sol = solve(f, vec, 1)
    assert sol.corrector.coefficient((1,)) == pytest.approx((0.3 + 0.1j) / 2, abs=1e-15)
    assert sol.min_divisor == pytest.approx(2.0, rel=1e-15)
    assert sol.residual < 1e-15


def test_golden_single_mode_closed_form(golden_vector):
    f = PeriodicField.from_entries(1, 1, [((1,), 1.0 + 0.0j)])
    sol = solve(f, golden_vector, 1)
    expected = -1.0 / (np.exp(2j * np.pi * GOLDEN) - 1.0)
    assert sol.corrector.coefficient((1,)) == pytest.approx(expected, rel=1e-14)


def test_solution_satisfies_difference_equation(golden_vector):
    f = seeded_field(1, 8, 1.0, seed=50)
    sol = solve(f, golden_vector, 8)
    phi = sol.corrector
    xs = np.linspace(0, 1, 17, endpoint=False)
    lhs = eval_at_points(phi, xs + GOLDEN) - eval_at_points(phi, xs)
    rhs = -eval_at_points(f, xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_solution_satisfies_difference_equation_2d(pair_vector):
    f = seeded_field(2, 5, 1.0, seed=51)
    sol = solve(f, pair_vector, 5)
    phi = sol.corrector
    pts = np.random.default_rng(0).random((20, 2))
    alpha = np.asarray(pair_vector.alpha)
    lhs = eval_at_points(phi, pts + alpha) - eval_at_points(phi, pts)
    rhs = -eval_at_points(f, pts)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_linearity(golden_vector):
    f = seeded_field(1, 6, 1.0, seed=52)
    g = seeded_field(1, 6, 0.5, seed=53)
    a = solve(f + g, golden_vector, 6).corrector
    b = solve(f, golden_vector, 6).corrector + solve(g, golden_vector, 6).corrector
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13


def test_corrector_is_zero_mean(golden_vector):
    f = seeded_field(1, 6, 1.0, seed=54)
    assert solve(f, golden_vector, 6).corrector.mean() == 0.0


def test_mean_of_input_ignored(golden_vector):
    f = seeded_field(1, 4, 1.0, seed=55)
    shifted = f + 3.7
    a = solve(f, golden_vector, 4).corrector
    b = solve(shifted, golden_vector, 4).corrector
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-15


def test_cutoff_restricts_band(golden_vector):
    f = seeded_field(1, 8, 1.0, seed=56)
    sol = solve(f, golden_vector, 3)
    assert sol.corrector.degree == 3


def test_shift_equivariance(golden_vector):
    # solving for a translated field equals translating the solution
    f = seeded_field(1, 5, 1.0, seed=57)
    delta = [0.29]
    a = solve(f.shift(delta), golden_vector, 5).corrector
    b = solve(f, golden_vector, 5).corrector.shift(delta)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13


def test_requires_verified_range(golden_vector):
    f = seeded_field(1, 8, 1.0, seed=58)
    fresh = DiophantineVector(golden_vector.alpha, golden_vector.gamma, golden_vector.tau)
    with pytest.raises(DCViolation, match="verified"):
        solve(f, fresh, 8)
    narrow = dataclasses.replace(fresh, verified_up_to=4)
    with pytest.raises(DCViolation):
        solve(f, narrow, 8)
    # the effective band is min(cutoff, degree), so a low cutoff is fine
    solve(f, dataclasses.replace(fresh, verified_up_to=4), 4)


def test_dimension_mismatch(golden_vector):
    with pytest.raises(ValueError, match="dimension"):
        solve(seeded_field(2, 2, 1.0, seed=59), golden_vector, 2)


def test_divisor_floor():
    # k=1 gives |e^(2 pi i 1e-15) - 1| ~ 6e-15, below the 1e-14 floor
    vec = dataclasses.replace(
        DiophantineVector(np.array([1e-15]), gamma=1.0, tau=1.0), verified_up_to=4
    )
    f = PeriodicField.from_entries(1, 1, [((1,), 1.0)])
    with pytest.raises(DivisorTooSmall, match="k="):
        solve(f, vec, 1)


def _flat_field(size: float) -> PeriodicField:
    return PeriodicField.from_entries(1, 8, [((k,), size) for k in range(1, 9)])


@pytest.mark.parametrize("size", [1e200, 1e307])
def test_huge_finite_field_solves(golden_vector, size):
    # the residual's roundoff is as large as the residual itself here, and
    # is not Hermitian; the field's grid sup (16 * size) is still finite
    sol = solve(_flat_field(size), golden_vector, 8)
    unit = solve(_flat_field(1.0), golden_vector, 8)
    assert sol.residual <= 1e-10 * cs_norm(_flat_field(size), 0)
    assert np.allclose(sol.corrector.coeffs, size * unit.corrector.coeffs, rtol=1e-14, atol=0.0)


def test_overflowing_field_ends_classified(golden_vector):
    # grid values 16 * 4e307 pass the float maximum: a classified error, not a bare ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises((NonFinite, CohomologyResidualError)):
            solve(_flat_field(4e307), golden_vector, 8)


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_samples_no_grid(monkeypatch, golden_vector, pair_vector, dim):
    f = seeded_field(dim, 8, 1.0, seed=61)
    calls = []
    value_grid = spectral.value_grid
    monkeypatch.setattr(spectral, "value_grid", lambda g, m=None: calls.append(g) or value_grid(g, m))
    solve(f, golden_vector if dim == 1 else pair_vector, 8)
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=999),
    st.floats(min_value=-30, max_value=30),
)
def test_coefficient_check_is_never_looser(golden_vector, pair_vector, dim, live, pad, cutoff, seed, log_size):
    """The l1 residual bounds the old check's grid sup, and the scale stays below the field's grid sup.

    So `solve` refuses every field that a check of the symmetrized residual's
    grid sup against the field's grid sup refused; `pad` puts the live shell
    below the box.
    """
    vec = golden_vector if dim == 1 else pair_vector
    size = 10.0**log_size
    small = seeded_field(dim, live, size, seed=seed, decay=0.3)
    f = PeriodicField(dim, live + pad, small._embed(live + pad)) + 0.5 * size
    sol = solve(f, vec, cutoff)
    rhs = truncate(f, cutoff, mode="homogeneous")
    res = sol.corrector.coeffs * _divisors(vec, rhs.degree) + rhs.coeffs
    symmetrized = PeriodicField(dim, rhs.degree, 0.5 * res + 0.5 * np.conj(np.flip(res)))
    assert sol.residual >= cs_norm(symmetrized, 0)
    assert sol.scale <= cs_norm(f, 0)


@pytest.mark.parametrize("dim, degree", [(1, 2048), (2, 256)])
def test_flat_spectrum_on_the_largest_box(golden_vector, pair_vector, dim, degree):
    # random phases of modulus one on every mode of the largest box a run allows
    vec = verified_vector(GOLDEN, 1.0, degree, 3.0) if dim == 1 else pair_vector
    n = 2 * degree + 1
    c = np.exp(2j * np.pi * np.random.default_rng(62).random((n,) * dim))
    sol = solve(PeriodicField(dim, degree, c + np.conj(np.flip(c))), vec, degree)
    assert sol.residual / sol.scale < 1e-12


def test_growth_ratios_shape_and_envelope(golden_vector):
    f = seeded_field(1, 32, 1.0, seed=60, decay=0.2)
    rows = growth_ratios(f, golden_vector, [8, 16, 32], [0, 1])
    assert [r[0] for r in rows] == [8, 16, 32]
    base = cs_norm(f, 0)
    for cutoff, cells in rows:
        assert [s for s, _, _ in cells] == [0, 1]
        for s, value, ratio in cells:
            envelope = golden_vector.gamma * cutoff ** (s + golden_vector.tau + 0.5) * base
            assert ratio == pytest.approx(value / envelope, rel=1e-12)
            assert ratio < 10.0


def test_growth_ratios_past_the_float_maximum(golden_vector):
    # 8^(400 + 0.5) overflows a float: the envelope reads inf and the ratio 0
    f = seeded_field(1, 8, 1e-3, seed=60)
    vec = dataclasses.replace(golden_vector, tau=400.0)
    [(cutoff, [(s, value, ratio)])] = growth_ratios(f, vec, [8], [0])
    assert (cutoff, s, ratio) == (8, 0, 0.0) and value > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=-2, max_value=2))
def test_single_mode_solution_explicit(k, re):
    vec = verified_vector([GOLDEN], 1.0, 8, 3.0)
    f = PeriodicField.from_entries(1, k, [((k,), complex(re, 0.5))])
    sol = solve(f, vec, k)
    div = np.exp(2j * np.pi * ((k * GOLDEN) % 1.0)) - 1.0
    assert sol.corrector.coefficient((k,)) == pytest.approx(-complex(re, 0.5) / div, rel=1e-13)
