"""Parameter bookkeeping for the quadratic iteration schedule.

The cutoff sequence is N_(n+1) = N_n^(1+sigma).  Exponent budgets are
expressed as multiples of the smallness exponent a = 2*tau + d + 2:
the target decay is gamma0 = lambda*a, the controlled high norm sits at
s0 = mu*a, and its allowed growth rate is b = nu*a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diophantine import _power
from .errors import EmptyWindow, InfeasibleParams

__all__ = [
    "SchedulerParams",
    "validate",
    "mu_window",
    "omega0_bound",
    "derive_constants",
    "schedule_cutoffs",
    "check_inductive_inequalities",
    "envelopes",
    "replay_induction",
    "ReplayReport",
    "find_min_start",
]

DEFAULTS = {"sigma": 0.5, "lambda_": 3.0, "nu": 2.0, "start_cutoff": 8}


@dataclass(frozen=True)
class SchedulerParams:
    sigma: float
    lambda_: float
    mu: float
    nu: float
    tau: float
    d: int
    a: float
    gamma0: float
    s0: float
    b: float
    omega0_max: float
    start_cutoff: int = DEFAULTS["start_cutoff"]


# Each exponent inequality once, as name: (bound c, side, f(sigma, lambda, nu, c)): a side-0 row
# reads f > c; on side 1 (-1), f is mu's threshold from below (above), in `mu_window`'s bit order.
# The side-0 rows imply lambda + nu > 2.9 and lambda + sigma*nu > 1, once rows of their own.
_ROWS = {
    "decay_outruns_refinement": (1.0, 0, lambda s, l, n, c: (1.0 - s) * l),
    "quadratic_gain": (0.5, 1, lambda s, l, n, c: (1.0 + s) * l + n + c),
    "corrector_loss": (1.0, 1, lambda s, l, n, c: c + s * l + n),
    "mu_ceiling": (1.0, -1, lambda s, l, n, c: 2.0 * l + (1.0 + s) * n - c),
    "growth_absorbs_tail": (0.5, 0, lambda s, l, n, c: s * n),
    "cross_margin": (1.0, 1, lambda s, l, n, c: c + s * n + l),
}


def validate(sigma: float, lambda_: float, nu: float) -> tuple:
    """Standing constraints on the exponent ratios; returns (ok, violated names)."""
    bad = [] if 0.0 < sigma < 1.0 else ["sigma_in_unit_interval"]
    bad += [name for name, (c, side, f) in _ROWS.items() if side == 0 and not f(sigma, lambda_, nu, c) > c]
    return (not bad, bad)


def mu_window(sigma: float, lambda_: float, nu: float) -> tuple:
    """Open interval of admissible mu; raises EmptyWindow when none exists."""
    lo = max(f(sigma, lambda_, nu, c) for c, side, f in _ROWS.values() if side == 1)
    hi = min(f(sigma, lambda_, nu, c) for c, side, f in _ROWS.values() if side == -1)
    if not (lo < hi):
        raise EmptyWindow(f"no admissible mu: lower bound {lo} meets upper bound {hi}")
    return (lo, hi)


def omega0_bound(sigma: float, lambda_: float) -> float:
    """Upper limit for the normalized smallness weight at the first cutoff."""
    return (2.0 * lambda_ - sigma - 2.0 - lambda_ * sigma * (1.0 + sigma)) / (
        lambda_ * (1.0 + sigma) ** 2
    )


def derive_constants(
    sigma: float = DEFAULTS["sigma"],
    lambda_: float = DEFAULTS["lambda_"],
    mu: float | None = None,
    nu: float = DEFAULTS["nu"],
    tau: float = 2.0,
    d: int = 2,
    start_cutoff: int = DEFAULTS["start_cutoff"],
) -> SchedulerParams:
    """Resolve exponent ratios into absolute exponents, enforcing feasibility."""
    if start_cutoff < 2:
        raise ValueError("start cutoff must be at least 2")
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    ok, bad = validate(sigma, lambda_, nu)
    if not ok:
        raise InfeasibleParams("constraints violated: " + ", ".join(bad))
    lo, hi = mu_window(sigma, lambda_, nu)
    if not math.isfinite(hi):  # lo < hi, and every lower threshold is positive, so lo is finite too
        raise InfeasibleParams(f"mu window ({lo}, {hi}) is past the float range")
    # absent: the window's middle, 7.5 at the defaults; halved apart, so it stays finite
    mu = 0.5 * lo + 0.5 * hi if mu is None else mu
    if not (lo < mu < hi):
        raise InfeasibleParams(f"mu={mu} outside the admissible window ({lo}, {hi})")
    a = 2.0 * tau + d + 2.0
    exponents = {"a": a, "gamma0": lambda_ * a, "s0": mu * a, "b": nu * a}
    for name, value in exponents.items():
        if not math.isfinite(value):
            raise InfeasibleParams(f"{name}={value} is past the float range")
    return SchedulerParams(
        sigma=sigma,
        lambda_=lambda_,
        mu=mu,
        nu=nu,
        tau=float(tau),
        d=int(d),
        **exponents,
        omega0_max=omega0_bound(sigma, lambda_),
        start_cutoff=int(start_cutoff),
    )


def _log_cutoff(start: int, sigma: float, n: int) -> float:
    """log N_n = (1+sigma)^(n-1) * log N_1, inf past the float range."""
    return _power(1.0 + sigma, n - 1) * math.log(start)


def _cutoff(start: int, sigma: float, n: int, cap: int) -> int:
    """The snapped N_n = start^((1+sigma)^(n-1)), at most `cap`.

    Evaluated in logs from the start value, so integer snapping of earlier
    terms does not compound and large exponents do not overflow.  Values a
    hair below an integer (from float rounding) snap to it; anything else
    rounds up.  With sigma >= 0 the cutoffs never decrease in n.
    """
    # held just past the cap, where exp could overflow; any value past the cap reads as the cap
    v = math.exp(min(_log_cutoff(start, sigma, n), math.log(cap) + 1.0))
    r = round(v)
    return min(cap, int(r) if abs(v - r) < 1e-6 * max(1.0, r) else int(math.ceil(v)))


def schedule_cutoffs(start: int, sigma: float, count: int, cap: int) -> list:
    """`_cutoff` for n = 1..count, in a list that ends at the first cutoff reaching `cap`.

    That last cutoff takes the cap's value; a run reuses it for every later step.
    """
    if start < 2:
        raise ValueError("start cutoff must be at least 2")
    if count < 0:
        raise ValueError(f"schedule length must be at least 0, got {count}")
    out = []
    for n in range(1, count + 1):
        out.append(_cutoff(start, sigma, n, cap))
        if out[-1] == cap:
            break
    return out


def check_inductive_inequalities(p: SchedulerParams) -> dict:
    """Margins of the per-step exponent inequalities behind the envelope proof.

    Each row maps a name to (lhs, bound, margin, ok) with margin = lhs - bound;
    a row on mu reads lhs as its bound plus mu's distance past its threshold.
    """
    out = {}
    for name, (c, side, f) in _ROWS.items():
        t = f(p.sigma, p.lambda_, p.nu, c)
        lhs = t if side == 0 else c + side * (p.mu - t)
        out[name] = {"lhs": lhs, "bound": c, "margin": lhs - c, "ok": lhs > c}
    return out


def envelopes(p: SchedulerParams, n: int, omega0: float | None = None) -> tuple:
    """Claimed bounds at step n: (low-norm, high-norm, improved low-norm).

    The low-norm envelope is N_n^(-gamma0), the high-norm envelope is N_n^b,
    and the improved low-norm envelope is N_n^(-(1+omega0)*gamma0) with omega0
    defaulting to half its admissible maximum.  Out-of-range values clamp to
    0.0 and inf respectively.
    """
    w = p.omega0_max / 2.0 if omega0 is None else float(omega0)
    if w <= 0:
        raise ValueError("omega0 must be positive")
    ln_n = _log_cutoff(p.start_cutoff, p.sigma, n)

    def clamp(logv: float) -> float:
        if logv < -745.0:
            return 0.0
        return math.inf if logv > 709.0 else math.exp(logv)

    return (
        clamp(-p.gamma0 * ln_n),
        clamp(p.b * ln_n),
        clamp(-(1.0 + w) * p.gamma0 * ln_n),
    )


def _logsumexp(terms) -> float:
    top = max(terms)
    if top == -math.inf:
        return top
    return top + math.log(sum(math.exp(t - top) for t in terms))


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    steps: int
    first_violation: int | None
    margins_low: tuple
    margins_high: tuple


def replay_induction(
    p: SchedulerParams,
    n_steps: int = 50,
    start: int | None = None,
    prefactor: float = 1.0,
    include_growth_cross_term: bool = False,
) -> ReplayReport:
    """Iterate the two-norm error recursion in log space against the envelopes.

    Starting from values sitting exactly on the envelopes at the first cutoff
    (all model constants set to one; `prefactor` scales the starting values),
    each step applies

        low'  = N^a low^2 + N^(a/2) low^2 + N^(a/2-s0) high + N^(a-s0) low*high
        high' = N^(s0+a) low^2 + N^(a/2) low*high + N^(a/2) high

    and checks the results against the envelopes at N^(1+sigma).  Margins are
    the log-gaps (positive means the claim holds with room); a margin that is
    not finite raises ValueError, naming its step.  The flag
    `include_growth_cross_term` adds N^(s0+a) low*high to the high-norm row;
    that term is incompatible with the admissible window for every parameter
    choice, so the default replay omits it.
    """
    N1 = p.start_cutoff if start is None else int(start)
    if N1 < 2:
        raise ValueError("start cutoff must be at least 2")
    if prefactor <= 0:
        raise ValueError("prefactor must be positive")
    if n_steps < 1:
        raise ValueError(f"replay needs at least one step, got {n_steps}")
    lw = math.log(prefactor)
    ln = math.log(N1)
    lx = lw - p.gamma0 * ln
    ly = lw + p.b * ln
    margins_low, margins_high = [], []
    first_violation = None
    for step in range(1, n_steps + 1):
        terms_x = [
            p.a * ln + 2.0 * lx,
            0.5 * p.a * ln + 2.0 * lx,
            (0.5 * p.a - p.s0) * ln + ly,
            (p.a - p.s0) * ln + lx + ly,
        ]
        terms_y = [
            (p.s0 + p.a) * ln + 2.0 * lx,
            0.5 * p.a * ln + lx + ly,
            0.5 * p.a * ln + ly,
        ]
        if include_growth_cross_term:
            terms_y.append((p.s0 + p.a) * ln + lx + ly)
        lx2 = _logsumexp(terms_x)
        ly2 = _logsumexp(terms_y)
        ln2 = (1.0 + p.sigma) * ln
        m_lo = -p.gamma0 * ln2 - lx2
        m_hi = p.b * ln2 - ly2
        # a nan margin passes any `< 0` test, and past the float range the recursion shows
        # neither a held nor a lost envelope, so a margin that is not finite stops the replay
        if not (math.isfinite(m_lo) and math.isfinite(m_hi)):
            raise ValueError(f"replay margins at step {step} are past the float range: ({m_lo}, {m_hi})")
        margins_low.append(m_lo)
        margins_high.append(m_hi)
        if m_lo < 0.0 or m_hi < 0.0:
            first_violation = step
            break
        lx, ly, ln = lx2, ly2, ln2
    return ReplayReport(
        ok=first_violation is None, steps=len(margins_low), first_violation=first_violation,
        margins_low=tuple(margins_low), margins_high=tuple(margins_high),
    )


def find_min_start(p: SchedulerParams, n_steps: int = 50, limit: int = 4096) -> int:
    """Smallest integer start cutoff whose replay stays under the envelopes."""
    for n1 in range(2, limit + 1):
        if replay_induction(p, n_steps=n_steps, start=n1).ok:
            return n1
    raise InfeasibleParams(f"no start cutoff up to {limit} sustains the envelopes")
