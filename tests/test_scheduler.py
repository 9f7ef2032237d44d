"""Exponent bookkeeping: feasibility, cutoff schedules, induction replay."""

import dataclasses
import math

import numpy as np
import pytest

from kamconj import (
    EmptyWindow,
    InfeasibleParams,
    check_inductive_inequalities,
    derive_constants,
    envelopes,
    find_min_start,
    mu_window,
    omega0_bound,
    replay_induction,
    schedule_cutoffs,
    validate,
)

CRITERION_7_GRID = [
    (sigma, lam, nu)
    for sigma in np.linspace(0.03, 0.97, 22)
    for lam in np.linspace(0.15, 7.85, 22)
    for nu in np.linspace(0.1, 3.9, 22)
]


class TestValidate:
    def test_default_ratios_pass(self):
        ok, bad = validate(0.5, 3.0, 2.0)
        assert ok and bad == []

    def test_each_constraint_named(self):
        assert "sigma_in_unit_interval" in validate(1.5, 3.0, 2.0)[1]
        # lambda + nu = 1.9 is no row of its own: the decay row, which implies lambda + nu > 2.9, refuses it
        ok, bad = validate(0.9, 1.0, 0.9)
        assert not ok and "decay_outruns_refinement" in bad
        assert "decay_outruns_refinement" in validate(0.8, 1.2, 2.0)[1]
        assert "growth_absorbs_tail" in validate(0.2, 3.0, 2.0)[1]

    def test_validate_implies_window_small_scan(self):
        # over a coarse grid, every validated triple admits a nonempty window
        for sigma in np.linspace(0.1, 0.9, 9):
            for lam in np.linspace(1.2, 6.0, 9):
                for nu in np.linspace(0.6, 4.0, 9):
                    if validate(sigma, lam, nu)[0]:
                        lo, hi = mu_window(sigma, lam, nu)
                        assert lo < hi

    def test_window_does_not_imply_validate(self):
        # nonempty window with a failed standing constraint: one-way implication
        sigma, lam, nu = 0.2, 5.9, 0.9
        assert not validate(sigma, lam, nu)[0]
        lo, hi = mu_window(sigma, lam, nu)
        assert lo < hi


class TestMuWindow:
    def test_default_window_exact(self):
        assert mu_window(0.5, 3.0, 2.0) == (7.0, 8.0)

    def test_empty_window_raises(self):
        with pytest.raises(EmptyWindow, match="lower bound"):
            mu_window(0.1, 1.02, 0.6)

    def test_bits_and_verdicts_match_the_written_out_rules(self):
        # criterion 7's grid; the window's three lower terms and one upper term, and
        # validate's four standing constraints, each written out as before the one table
        for sigma, lam, nu in CRITERION_7_GRID:
            lo = max((1.0 + sigma) * lam + nu + 0.5, 1.0 + sigma * lam + nu, 1.0 + sigma * nu + lam)
            hi = 2.0 * lam + (1.0 + sigma) * nu - 1.0
            if lo < hi:
                got = mu_window(sigma, lam, nu)
                assert got[0].hex() == lo.hex() and got[1].hex() == hi.hex()
            else:
                with pytest.raises(EmptyWindow):
                    mu_window(sigma, lam, nu)
            standing = 0.0 < sigma < 1.0 and lam + nu > 2.0 and (1.0 - sigma) * lam > 1.0 and sigma * nu > 0.5
            assert validate(sigma, lam, nu)[0] == standing


class TestOmega0:
    def test_default_value_exact(self):
        assert omega0_bound(0.5, 3.0) == pytest.approx(1.25 / 6.75, abs=1e-12)

    def test_positive_on_defaults(self):
        assert omega0_bound(0.5, 3.0) > 0.0

    def test_shrinks_toward_decay_limit(self):
        # as sigma approaches (lambda-1)/lambda the weight allowance vanishes
        lam = 3.0
        values = [omega0_bound(s, lam) for s in (0.5, 0.6, 0.66, 0.6666)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert omega0_bound(2.0 / 3.0, lam) == pytest.approx(0.0, abs=1e-10)


class TestDeriveConstants:
    def test_default_exponents(self):
        p = derive_constants()
        assert (p.a, p.gamma0, p.s0, p.b) == (8.0, 24.0, 60.0, 16.0)
        assert p.omega0_max == pytest.approx(1.25 / 6.75, abs=1e-12)

    def test_low_dimension_exponent(self):
        p = derive_constants(tau=1.0, d=1)
        assert p.a == 5.0
        assert p.gamma0 == 15.0

    def test_infeasible_ratios_rejected(self):
        with pytest.raises(InfeasibleParams, match="constraints"):
            derive_constants(sigma=0.2, lambda_=3.0)

    @pytest.mark.parametrize("start", [1, 0, -4])
    def test_start_below_two_rejected(self, start):
        # N1 = 1 gives log N1 = 0: a schedule that never grows
        with pytest.raises(ValueError, match="start cutoff must be at least 2"):
            derive_constants(start_cutoff=start)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan])
    def test_tau_must_be_positive_and_finite(self, tau):
        # a nan tau gave nan exponents that every inductive inequality read as ok
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            derive_constants(tau=tau)

    def test_mu_outside_window_rejected(self):
        with pytest.raises(InfeasibleParams, match="window"):
            derive_constants(mu=8.5)
        with pytest.raises(InfeasibleParams, match="window"):
            derive_constants(mu=7.0)


class TestSchedule:
    def test_geometric_growth_from_eight(self):
        assert schedule_cutoffs(8, 0.5, 4, 2 ** 20) == [8, 23, 108, 1117]

    def test_growth_from_ten(self):
        assert schedule_cutoffs(10, 0.5, 3, 2 ** 20) == [10, 32, 178]

    def test_sigma_zero_is_constant(self):
        assert schedule_cutoffs(12, 0.0, 4, 2 ** 20) == [12, 12, 12, 12]

    def test_exact_powers_snap_to_integer(self):
        # 4^(3/2) = 8 exactly; no ceiling bump
        assert schedule_cutoffs(4, 0.5, 2, 2 ** 20) == [4, 8]

    def test_overflow_guard(self):
        # 10^(2^4) passes the cap: it reads as the cap, and the list ends there
        assert schedule_cutoffs(10, 1.0, 8, 2 ** 20) == [10, 100, 10000, 1048576]

    def test_schedule_stops_below_cap(self):
        # a run reuses the last cutoff for every step past the list's end
        assert schedule_cutoffs(8, 0.5, 13, 256) == [8, 23, 108, 256]
        # a cutoff that lands on the cap ends the list as well
        assert schedule_cutoffs(4, 1.0, 5, 256) == [4, 16, 256]

    def test_long_schedule_does_not_overflow(self):
        # 8^(1.5^40) is far past the float range; the log form never builds it
        assert schedule_cutoffs(8, 0.5, 41, 2048) == [8, 23, 108, 1117, 2048]

    def test_huge_count_returns_at_the_cap(self):
        # the list's length is set by the cap, not by the count
        assert schedule_cutoffs(8, 0.5, 2 ** 62, 256) == [8, 23, 108, 256]

    def test_start_above_the_cap_reads_the_cap(self):
        assert schedule_cutoffs(8, 0.5, 5, 4) == [4]

    def test_start_validation(self):
        with pytest.raises(ValueError, match="start"):
            schedule_cutoffs(1, 0.5, 3, 2 ** 20)

    def test_empty_schedule_allowed_negative_rejected(self):
        assert schedule_cutoffs(8, 0.5, 0, 2 ** 20) == []
        with pytest.raises(ValueError, match="schedule length must be at least 0, got -2"):
            schedule_cutoffs(8, 0.5, -2, 2 ** 20)

    def test_schedule_overflow_is_gone(self):
        # no cutoff list raises at its cap any more, so the error type left the package
        with pytest.raises(ImportError):
            from kamconj import ScheduleOverflow  # noqa: F401


class TestInductiveInequalities:
    def test_default_margins_frozen(self):
        p = derive_constants()
        rows = check_inductive_inequalities(p)
        expected = {
            "decay_outruns_refinement": 0.5,
            "quadratic_gain": 0.5,
            "corrector_loss": 3.0,
            "mu_ceiling": 0.5,
            "growth_absorbs_tail": 0.5,
            "cross_margin": 2.5,
        }
        assert list(rows) == list(expected)
        for name, margin in expected.items():
            assert rows[name]["margin"] == pytest.approx(margin, abs=1e-12)
            assert rows[name]["ok"]

    def test_rows_match_the_written_out_left_sides(self):
        # a mu row's left side is its bound plus mu's distance past its threshold
        for mu in (7.0, 7.25, 7.5, 7.9, 8.0):
            s, l, m, n = 0.5, 3.0, mu, 2.0
            rows = check_inductive_inequalities(dataclasses.replace(derive_constants(), mu=mu))
            expected = {
                "decay_outruns_refinement": ((1.0 - s) * l, 1.0),
                "quadratic_gain": (m - (1.0 + s) * l - n, 0.5),
                "corrector_loss": (m - s * l - n, 1.0),
                "mu_ceiling": (2.0 * l + (1.0 + s) * n - m, 1.0),
                "growth_absorbs_tail": (s * n, 0.5),
                "cross_margin": (m - s * n - l, 1.0),
            }
            for name, (lhs, bound) in expected.items():
                row = rows[name]
                assert row["lhs"] == pytest.approx(lhs, abs=1e-14) and row["bound"] == bound
                assert row["margin"] == pytest.approx(lhs - bound, abs=1e-14) and row["ok"] == (lhs > bound)

    def test_window_edges_lose_a_margin(self):
        p = derive_constants()
        at_floor = check_inductive_inequalities(dataclasses.replace(p, mu=7.0))
        assert not at_floor["quadratic_gain"]["ok"]
        at_ceiling = check_inductive_inequalities(dataclasses.replace(p, mu=8.0))
        assert not at_ceiling["mu_ceiling"]["ok"]


class TestEnvelopes:
    def test_first_step_values(self):
        p = dataclasses.replace(derive_constants(), start_cutoff=10)
        e0, es, e_improved = envelopes(p, 1)
        assert e0 == pytest.approx(1e-24, rel=1e-12)
        assert es == pytest.approx(1e16, rel=1e-12)
        w = p.omega0_max / 2.0
        assert e_improved == pytest.approx(10.0 ** (-(1.0 + w) * 24.0), rel=1e-12)

    def test_explicit_omega0(self):
        p = derive_constants()
        _, _, e_improved = envelopes(p, 1, omega0=0.1)
        assert e_improved == pytest.approx(8.0 ** (-1.1 * 24.0), rel=1e-12)
        with pytest.raises(ValueError, match="positive"):
            envelopes(p, 1, omega0=0.0)

    def test_monotone_along_schedule(self):
        p = derive_constants()
        rows = [envelopes(p, n) for n in range(1, 8)]
        for (a0, a1, a2), (b0, b1, b2) in zip(rows, rows[1:]):
            assert b0 < a0 and b1 > a1 and b2 < a2

    def test_improved_below_base(self):
        p = derive_constants()
        for n in range(1, 10):
            e0, _, better = envelopes(p, n)
            assert better <= e0

    def test_underflow_clamps_to_zero(self):
        p = derive_constants()
        e0, _, _ = envelopes(p, 40)
        assert e0 == 0.0

    def test_schedule_past_the_float_maximum_clamps(self):
        # 1.5^1999 overflows a float; every envelope still clamps
        assert envelopes(derive_constants(tau=1.0, d=1), 2000) == (0.0, math.inf, 0.0)


class TestReplay:
    def test_default_replay_holds_fifty_steps(self):
        p = derive_constants(start_cutoff=2)
        report = replay_induction(p)
        assert report.ok
        assert report.steps == 50
        assert report.first_violation is None

    def test_first_step_margins_frozen(self):
        p = derive_constants(start_cutoff=2)
        report = replay_induction(p, n_steps=1)
        assert report.margins_low[0] == pytest.approx(2.048669420625643, rel=1e-12)
        assert report.margins_high[0] == pytest.approx(2.079441511877512, rel=1e-12)

    def test_margins_grow(self):
        p = derive_constants(start_cutoff=2)
        report = replay_induction(p, n_steps=20)
        assert report.margins_low[-1] > report.margins_low[0]
        assert report.margins_high[-1] > report.margins_high[0]

    def test_growth_cross_term_breaks_first_step(self):
        p = derive_constants(start_cutoff=2)
        report = replay_induction(p, include_growth_cross_term=True)
        assert not report.ok
        assert report.first_violation == 1

    def test_large_prefactor_fails(self):
        p = derive_constants(start_cutoff=2)
        assert replay_induction(p, prefactor=1e6).ok is False

    def test_explicit_start_overrides(self):
        p = derive_constants(start_cutoff=8)
        assert replay_induction(p, start=2).ok

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_needs_a_step(self, n_steps):
        with pytest.raises(ValueError, match="at least one step"):
            replay_induction(derive_constants(), n_steps=n_steps)

    def test_last_finite_step_holds(self):
        report = replay_induction(derive_constants(), n_steps=1739)
        assert report.ok and report.steps == 1739
        assert all(math.isfinite(m) and m > 0.0 for m in report.margins_low[-1:] + report.margins_high[-1:])

    @pytest.mark.parametrize("start, step", [(8, 1740), (2, 1743)])
    def test_margins_past_the_float_range_raise(self, start, step):
        # the schedule's log passes the float maximum there: the margins read inf and nan,
        # which show no lost envelope and must not read as a held one either
        with pytest.raises(ValueError, match=f"replay margins at step {step} are past the float range"):
            replay_induction(derive_constants(), n_steps=2000, start=start)


def test_find_min_start_default():
    p = derive_constants()
    assert find_min_start(p) == 2


def test_find_min_start_infeasible():
    p = derive_constants()
    bad = dataclasses.replace(p, gamma0=1.0, s0=500.0)
    with pytest.raises(InfeasibleParams):
        find_min_start(bad, limit=64)
