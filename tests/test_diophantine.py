"""Small-divisor bound checks against explicit enumeration."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kamconj import DCViolation, DegenerateVector, DiophantineVector, verified_vector
from kamconj import diophantine
from kamconj.cli import main
from kamconj.cohomology import _divisors
from kamconj.diophantine import _ball, _fit, _worst

from conftest import GOLDEN, PAIR_2D, dc_oracle

# worst-case ratios over |k|_1 <= 256, frozen from the enumeration oracle
GOLDEN_WORST_RATIO = 0.3819660112501051
GOLDEN_BEST_GAMMA = 2.6180339887498953
PAIR_BEST_GAMMA = 16.936066824240672
PAIR_WORST_K = (5, 4)


def _meshgrid_ball(dim, radius):
    """The canonical half ball as masked down from the full (2R+1)^2 box."""
    if dim == 1:
        return np.arange(1, radius + 1)[:, None]
    ax = np.arange(-radius, radius + 1)
    k1, k2 = np.meshgrid(ax, ax, indexing="ij")
    k = np.stack([k1.ravel(), k2.ravel()], axis=1)
    norms = np.abs(k).sum(axis=1)
    canonical = (k[:, 0] > 0) | ((k[:, 0] == 0) & (k[:, 1] > 0))
    return k[(norms >= 1) & (norms <= radius) & canonical]


@pytest.mark.parametrize("dim", [1, 2])
def test_ball_matches_meshgrid_oracle(dim):
    for radius in [*range(1, 65), 256]:
        got, expected = _ball(dim, radius), _meshgrid_ball(dim, radius)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_ball_needs_a_positive_radius():
    # make_test_map skips the draw at degree 0 instead of asking for this ball
    with pytest.raises(ValueError, match="radius"):
        _ball(2, 0)


class TestConstruction:
    def test_alpha_reduced_mod_one(self):
        vec = DiophantineVector(np.array([1.0 + GOLDEN]), gamma=3.0, tau=1.0)
        assert vec.alpha[0] == pytest.approx(GOLDEN)

    def test_dimension_limit(self):
        with pytest.raises(ValueError, match="dimensions"):
            DiophantineVector(np.array([0.1, 0.2, 0.3]), gamma=1.0, tau=1.0)

    def test_positive_constants_required(self):
        with pytest.raises(ValueError, match=r"^gamma must be positive and finite, got -1.0$"):
            DiophantineVector(np.array([GOLDEN]), gamma=-1.0, tau=1.0)
        with pytest.raises(ValueError, match=r"^tau must be positive and finite, got 0.0$"):
            DiophantineVector(np.array([GOLDEN]), gamma=1.0, tau=0.0)
        with pytest.raises(ValueError, match=r"^tau must be positive and finite, got nan$"):
            DiophantineVector(np.array([GOLDEN]), gamma=-1.0, tau=math.nan)  # tau first

    @pytest.mark.parametrize("gamma, tau", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
    def test_finite_constants_required(self, gamma, tau):
        # an infinite gamma or tau makes the claim hold vacuously; the bad one is named
        name, value = ("gamma", gamma) if tau == 1.0 else ("tau", tau)
        with pytest.raises(ValueError, match=rf"^{name} must be positive and finite, got {value}$"):
            DiophantineVector(np.array([GOLDEN]), gamma=gamma, tau=tau)


class TestSmallDivisor:
    """The solver's divisors e^(2 pi i k.alpha) - 1, read off the box of `cohomology._divisors`."""

    def test_matches_explicit_formula(self):
        # the chord 2 |sin(pi t)|, t = k.alpha mod 1
        vec = DiophantineVector(np.array([GOLDEN]), gamma=3.0, tau=1.0)
        box = np.abs(_divisors(vec, 13))
        for k in (1, 2, 5, 13):
            expected = 2.0 * abs(math.sin(math.pi * ((k * GOLDEN) % 1.0)))
            assert box[k + 13] == pytest.approx(expected, rel=1e-14)

    def test_chord_dominates_four_times_distance(self):
        # |e^(2 pi i t) - 1| >= 4 dist(t, Z) for all t
        vec = DiophantineVector(np.array(PAIR_2D), gamma=17.0, tau=2.0)
        box = np.abs(_divisors(vec, 6))
        for k1 in range(-6, 7):
            for k2 in range(-6, 7):
                if (k1, k2) == (0, 0):
                    continue
                t = (k1 * PAIR_2D[0] + k2 * PAIR_2D[1]) % 1.0
                dist = min(t, 1.0 - t)
                assert box[k1 + 6, k2 + 6] >= 4.0 * dist - 1e-15

    def test_zero_at_resonance(self):
        vec = DiophantineVector(np.array([0.5]), gamma=10.0, tau=1.0)
        assert abs(_divisors(vec, 2)[2 + 2]) == pytest.approx(0.0, abs=1e-15)


def _pass(vec: DiophantineVector, radius: int) -> tuple:
    """(worst_k, worst_ratio) of one pass over the ball for the vector's alpha and tau."""
    return _worst(vec.alpha, vec.tau, radius)


class TestVerification:
    def test_golden_worst_ratio_frozen(self):
        vec = verified_vector([GOLDEN], 1.0, 256, 3.0)
        assert vec.verified_up_to == 256
        assert _pass(vec, 256)[1] == pytest.approx(GOLDEN_WORST_RATIO, rel=1e-14)

    def test_golden_matches_enumeration_oracle(self):
        worst, worst_k = dc_oracle([GOLDEN], 1.0, 128)
        vec = DiophantineVector(np.array([GOLDEN]), gamma=3.0, tau=1.0)
        k, ratio = _pass(vec, 128)
        assert ratio == pytest.approx(worst, rel=1e-14)
        assert k == worst_k

    def test_pair_matches_enumeration_oracle(self):
        worst, worst_k = dc_oracle(PAIR_2D, 2.0, 40)
        vec = DiophantineVector(np.array(PAIR_2D), gamma=17.0, tau=2.0)
        k, ratio = _pass(vec, 40)
        assert ratio == pytest.approx(worst, rel=1e-14)
        assert k == worst_k

    def test_too_small_gamma_fails(self):
        with pytest.raises(DCViolation):
            verified_vector([GOLDEN], 1.0, 256, 2.0)

    def test_verified_stamps_range(self):
        assert verified_vector([GOLDEN], 1.0, 64, 3.0).verified_up_to == 64
        # a radius below 1 is refused with a given gamma as without one
        for gamma in (3.0, None):
            with pytest.raises(ValueError, match="^radius must be at least 1$"):
                verified_vector([GOLDEN], 1.0, 0, gamma)

    def test_verified_raises_on_violation(self):
        with pytest.raises(DCViolation, match="k="):
            verified_vector([GOLDEN], 1.0, 256, 2.0)

    def test_worst_ratio_monotone_in_radius(self):
        vec = DiophantineVector(np.array(PAIR_2D), gamma=17.0, tau=2.0)
        ratios = [_pass(vec, r)[1] for r in (8, 16, 32, 64, 128)]
        assert all(b <= a + 1e-15 for a, b in zip(ratios, ratios[1:]))


class TestBestGamma:
    """The smallest admissible gamma, as `_fit` reads it off one pass."""

    def test_golden_frozen_value(self):
        assert _fit([GOLDEN], 1.0, 256)[0] == pytest.approx(GOLDEN_BEST_GAMMA, rel=1e-14)

    def test_pair_frozen_value(self):
        assert _fit(PAIR_2D, 2.0, 256)[0] == pytest.approx(PAIR_BEST_GAMMA, rel=1e-14)
        _, worst_k = dc_oracle(PAIR_2D, 2.0, 256)
        assert worst_k == PAIR_WORST_K

    def test_sharpness(self):
        # the fitted gamma validates, a slightly smaller one does not
        g = _fit([GOLDEN], 1.0, 128)[0]
        verified_vector([GOLDEN], 1.0, 128, g * (1 + 1e-9))
        with pytest.raises(DCViolation):
            verified_vector([GOLDEN], 1.0, 128, g * (1 - 1e-9))

    def test_degenerate_vector_raises(self):
        with pytest.raises(DegenerateVector, match="resonance"):
            verified_vector([0.5], 1.0, 8)

    def test_near_resonance_raises(self):
        with pytest.raises(DegenerateVector):
            verified_vector([0.25 + 1e-16], 1.0, 8)


class TestVerifiedVector:
    @pytest.mark.parametrize("alpha, tau", [([GOLDEN], 1.0), (PAIR_2D, 2.0)])
    def test_auto_gamma_is_best_gamma_raised_past_roundoff(self, alpha, tau):
        vec = verified_vector(alpha, tau, 128)
        assert vec.gamma == _fit(alpha, tau, 128)[0] * (1.0 + 1e-12)
        assert vec.verified_up_to == 128

    def test_explicit_gamma_is_verified(self):
        assert verified_vector([GOLDEN], 1.0, 64, 3.0).gamma == 3.0
        with pytest.raises(DCViolation):
            verified_vector([GOLDEN], 1.0, 64, 2.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=1, max_value=24),
)
def test_verify_matches_oracle_random_alpha(alpha, radius):
    worst, worst_k = dc_oracle([alpha], 1.0, radius)
    k, ratio = _pass(DiophantineVector(np.array([alpha]), gamma=1.0, tau=1.0), radius)
    assert ratio == pytest.approx(worst, rel=1e-12, abs=1e-15)
    assert k == worst_k


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=1, max_value=10),
)
# a BLAS matrix-vector product put k.alpha one bit off here, 3.7e-12 of the ratio
@example(0.7789984073527905, 0.3262472352849394, 7)
def test_verify_matches_oracle_random_pair(a1, a2, radius):
    worst, worst_k = dc_oracle([a1, a2], 2.0, radius)
    k, ratio = _pass(DiophantineVector(np.array([a1, a2]), gamma=1.0, tau=2.0), radius)
    assert ratio == pytest.approx(worst, rel=1e-12, abs=1e-15)
    assert k == worst_k


# (alpha, tau, radius) for the one-pass checks: golden and the pair, and the random pair's example
ONE_PASS_CASES = (
    [([GOLDEN], 1.0, r) for r in (8, 64, 256, 2048)]
    + [(PAIR_2D, 2.0, r) for r in (8, 48, 256)]
    + [((0.7789984073527905, 0.3262472352849394), 2.0, 7)]
)


def _two_pass(alpha, tau, radius):
    """The fitted vector and its worst mode, enumerating the ball once to fit and once to verify."""
    vec = DiophantineVector(alpha, _fit(alpha, tau, radius)[0] * (1.0 + 1e-12), tau)
    return vec, _pass(vec, radius)


def _message(call):
    with pytest.raises((DCViolation, DegenerateVector)) as info:
        call()
    return type(info.value), str(info.value)


@pytest.fixture
def worst_calls(monkeypatch):
    calls = []
    worst = diophantine._worst
    monkeypatch.setattr(diophantine, "_worst", lambda *a: calls.append(a) or worst(*a))
    return calls


class TestOnePass:
    @pytest.mark.parametrize("alpha, tau, radius", ONE_PASS_CASES)
    def test_matches_two_pass_oracle(self, alpha, tau, radius):
        oracle, (worst_k, worst_ratio) = _two_pass(alpha, tau, radius)
        vec = verified_vector(alpha, tau, radius)
        assert vec.gamma.hex() == oracle.gamma.hex() and vec.verified_up_to == radius
        _, worst = _fit(alpha, tau, radius)
        assert worst == (worst_k, worst_ratio) and worst_ratio >= 1.0 / oracle.gamma
        # a claim just under the fitted gamma fails, naming the oracle's worst mode
        low = oracle.gamma * (1.0 - 1e-9)
        expected = f"dist(k.alpha, Z) * |k|^tau = {worst_ratio:.6e} at k={worst_k}, below 1/gamma = {1.0 / low:.6e}"
        assert _message(lambda: verified_vector(alpha, tau, radius, low)) == (DCViolation, expected)

    @pytest.mark.parametrize("alpha, tau, radius", [(PAIR_2D, 2.0, 48), (PAIR_2D, 2.0, 256), ([GOLDEN], 1.0, 2048)])
    def test_fitted_gamma_bits_frozen(self, alpha, tau, radius):
        expected = {2.0: "0x1.0efa2134d0e99p+4", 1.0: "0x1.4f1bbcdcc115dp+1"}[tau]
        assert verified_vector(alpha, tau, radius).gamma.hex() == expected

    @pytest.mark.parametrize("alpha, tau", [([0.5], 1.0), ((0.5, 0.25), 2.0), ([0.25 + 1e-16], 1.0)])
    def test_resonance_message_matches_oracle(self, alpha, tau):
        # the first resonant mode of the canonical half ball, in its order
        k = {(0.5,): (2,), (0.5, 0.25): (0, 4), (0.25 + 1e-16,): (4,)}[tuple(alpha)]
        expected = f"resonance at k={k}: k.alpha is an integer to roundoff"
        assert _message(lambda: verified_vector(alpha, tau, 8)) == (DegenerateVector, expected)
        assert _message(lambda: _fit(alpha, tau, 8)) == (DegenerateVector, expected)

    @pytest.mark.parametrize("gamma", [None, 3.0])
    def test_one_enumeration_per_verified_vector(self, gamma, worst_calls):
        verified_vector([GOLDEN], 1.0, 64, gamma)
        assert len(worst_calls) == 1

    @pytest.mark.parametrize("claim", [None, 17.0, 2.0])
    def test_one_enumeration_per_dc_check(self, claim, worst_calls, capsys):
        flags = [] if claim is None else ["--gamma", str(claim)]
        code = main(["dc-check", "--alpha", "sqrt2-1,sqrt3-1", "--tau", "2", "--K", "32", *flags])
        assert len(worst_calls) == 1
        gamma, _ = _fit(PAIR_2D, 2.0, 32)
        worst_k, worst_ratio = _pass(DiophantineVector(PAIR_2D, gamma, 2.0), 32)
        expected = [f"worst-case gamma over |k|_1 <= 32: {gamma!r}", f"worst mode: k={worst_k}"]
        if claim is not None:
            state = "holds" if worst_ratio >= 1.0 / claim else "FAILS"
            expected.append(f"claim gamma={claim}: {state} (worst ratio {worst_ratio!r} at k={worst_k})")
        assert capsys.readouterr().out.splitlines() == expected
        assert code == (0 if claim in (None, 17.0) else 3)


class TestNonFiniteAlpha:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: _fit([math.nan], 1.0, 8),
            lambda: _fit([math.inf, 0.3], 2.0, 8),
            lambda: DiophantineVector([math.nan], 5.0, 1.0),
            lambda: verified_vector([math.inf], 1.0, 8),
            lambda: verified_vector([0.3, -math.inf], 2.0, 8, 5.0),
        ],
        ids=["best_gamma-nan", "best_gamma-inf", "vector-nan", "verified_vector-inf", "given-gamma"],
    )
    def test_refused_by_name(self, call):
        # once: a nan gamma, a report with worst_ratio=nan, or an error that blamed gamma
        with pytest.raises(ValueError, match=r"^alpha components must be finite, got \[.*(nan|inf)"):
            call()


class TestOverflowAndTau:
    @pytest.mark.parametrize("alpha, k", [([0.5], (2,)), ((0.5, 0.25), (0, 4))])
    def test_resonance_behind_an_overflow_is_named(self, alpha, k):
        # |k|_1^2000 = inf there: the resonance reads ratio 0, not 0 * inf = nan
        with pytest.raises(DegenerateVector, match=rf"^resonance at k={re.escape(str(k))}"):
            verified_vector(alpha, 2000.0, 8)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("alpha", [[0.3], [0.5]])
    def test_tau_refused_by_name_before_the_pass(self, alpha, tau, monkeypatch):
        monkeypatch.setattr(diophantine, "_ball", lambda *a: pytest.fail("the ball was enumerated"))
        with pytest.raises(ValueError, match=rf"^tau must be positive and finite, got {tau}$"):
            verified_vector(alpha, tau, 8)

