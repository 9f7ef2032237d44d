"""End-to-end iteration driver: configs, test-map generators, the scheme loop.

A run verifies the rotation vector over the needed frequency range, then
repeats improvement steps along the quadratic cutoff schedule until the
deviation from the target rotation passes below the stop tolerance, recording
one trace row per attempted step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import io as kio
from .diophantine import DiophantineVector, _ball, verified_vector
from .errors import (
    ConfigError,
    KamError,
    OutOfRegime,
    ResidualTooLarge,
    SmallnessViolated,
)
from .kamstep import StepConfig, step
from .scheduler import DEFAULTS, SchedulerParams, _snapped_cutoffs, derive_constants, envelopes
from .spectral import (
    PeriodicField,
    TorusMapLift,
    _chain,
    _composition_defect,
    conjugate,
    deviation_norm,
    rebase,
)

__all__ = [
    "RunStatus",
    "EXIT_CODES",
    "ExperimentConfig",
    "RunResult",
    "run_scheme",
    "make_test_map",
    "compose_chain",
    "conjugacy_verification",
    "NAMED_ALPHAS",
]

NAMED_ALPHAS = {
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "sqrt2-1": math.sqrt(2.0) - 1.0,
    "sqrt3-1": math.sqrt(3.0) - 1.0,
}

_DEFAULT_MAX_DEGREE = {1: 2048, 2: 256}


class RunStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max-iters"
    DIVERGED = "diverged"
    DRIFT_OBSTRUCTION = "drift-obstruction"


EXIT_CODES = {
    RunStatus.CONVERGED: 0,
    RunStatus.MAX_ITERS: 2,
    RunStatus.DIVERGED: 3,
    RunStatus.DRIFT_OBSTRUCTION: 4,
}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _read(d: dict, key: str, default, kind, where: str = ""):
    """d[key] (default when absent) converted by `kind`; a failed conversion names the key."""
    try:
        return kind(d.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config document: {exc} in {where}{key}") from None


def _resolve_component(x) -> float:
    if isinstance(x, str):
        if x not in NAMED_ALPHAS:
            raise ConfigError(f"unknown rotation tag {x!r}; use one of {sorted(NAMED_ALPHAS)}")
        return NAMED_ALPHAS[x]
    try:
        return float(x)
    except (TypeError, ValueError):
        raise ConfigError("alpha components must be numbers or tags") from None


def _resolve_alpha(spec) -> np.ndarray:
    if isinstance(spec, (str, int, float)):
        spec = [spec]
    try:
        arr = np.array([_resolve_component(x) for x in spec])
    except TypeError:
        raise ConfigError("alpha must be a tag, a number, or a list of those") from None
    if arr.size not in (1, 2):
        raise ConfigError("alpha must have one or two components")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("alpha must be finite")
    return arr


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run configuration; build from a plain dict with `from_dict`."""

    alpha: np.ndarray
    tau: float
    gamma: float | None  # None means: fit the smallest verified value
    dc_radius: int | None
    sigma: float
    lambda_: float
    mu: float
    nu: float
    start_cutoff: int
    initial_map: dict
    eps_stop: float
    max_iters: int
    residual_tol: float | None
    seed: int
    smallness_c: float
    c_post: float
    drift_tol_abs: float
    max_degree: int
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        # a value that fails to convert names its key (`_read`); anything else
        # that fails on a malformed document still ends as ConfigError
        with kio._invalid("config"):
            allowed = {
                "alpha", "tau", "gamma", "dc_radius", "scheduler", "initial_map",
                "tolerances", "seed", "smallness_c", "c_post", "drift_tol_abs",
                "max_degree", "output",
            }
            _reject_unknown(raw, allowed, "config")
            for key in ("alpha", "initial_map", "seed"):
                if key not in raw:
                    raise ConfigError(f"missing required key {key!r}")
            alpha = _resolve_alpha(raw["alpha"])
            dim = alpha.size
            tau = _read(raw, "tau", 1.0 if dim == 1 else 2.0, float)

            gamma_raw = raw.get("gamma", "auto")
            if gamma_raw == "auto":
                gamma = None
            else:
                gamma = _read(raw, "gamma", None, float)
                if gamma <= 0:
                    raise ConfigError("gamma must be positive")

            sched = raw.get("scheduler", "default")
            if sched == "default":
                sched = {}
            if not isinstance(sched, dict):
                raise ConfigError("scheduler must be 'default' or an object")
            _reject_unknown(sched, {"sigma", "lambda", "mu", "nu", "start_cutoff"}, "scheduler")
            sigma = _read(sched, "sigma", DEFAULTS["sigma"], float, "scheduler.")
            lambda_ = _read(sched, "lambda", DEFAULTS["lambda_"], float, "scheduler.")
            nu = _read(sched, "nu", DEFAULTS["nu"], float, "scheduler.")
            mu = _read(sched, "mu", DEFAULTS["mu"], float, "scheduler.")
            start_cutoff = _read(sched, "start_cutoff", DEFAULTS["start_cutoff"], int, "scheduler.")

            imap = raw["initial_map"]
            if not isinstance(imap, dict):
                raise ConfigError("initial_map must be an object")
            if "file" in imap:
                _reject_unknown(imap, {"file"}, "initial_map")
            else:
                _reject_unknown(imap, {"kind", "params"}, "initial_map")
                if "kind" not in imap:
                    raise ConfigError("initial_map needs 'file' or 'kind'")
                if not isinstance(imap.get("params", {}), dict):
                    raise ConfigError("initial_map params must be an object")

            tol = raw.get("tolerances", {})
            if not isinstance(tol, dict):
                raise ConfigError("tolerances must be an object")
            _reject_unknown(tol, {"eps_stop", "max_iters", "residual_tol"}, "tolerances")
            eps_stop = _read(tol, "eps_stop", 1e-9, float, "tolerances.")
            max_iters = _read(tol, "max_iters", 12, int, "tolerances.")
            residual_tol = tol.get("residual_tol")
            if residual_tol is not None:
                residual_tol = _read(tol, "residual_tol", None, float, "tolerances.")

            output = raw.get("output", {})
            if not isinstance(output, dict):
                raise ConfigError("output must be an object")
            _reject_unknown(output, {"trace", "chain", "final_map"}, "output")

            dc_radius = None if raw.get("dc_radius") is None else _read(raw, "dc_radius", None, int)
            max_degree = _read(raw, "max_degree", _DEFAULT_MAX_DEGREE[dim], int)
            for name, value, low in (
                ("max_iters", max_iters, 0), ("start_cutoff", start_cutoff, 2),
                ("max_degree", max_degree, 1), ("dc_radius", dc_radius, 1),
            ):
                if value is not None and value < low:
                    raise ConfigError(f"{name} must be at least {low}, got {value}")
            if not tau > 0:
                raise ConfigError("tau must be positive")

            return cls(
                alpha=alpha,
                tau=tau,
                gamma=gamma,
                dc_radius=dc_radius,
                sigma=sigma,
                lambda_=lambda_,
                mu=mu,
                nu=nu,
                start_cutoff=start_cutoff,
                initial_map=imap,
                eps_stop=eps_stop,
                max_iters=max_iters,
                residual_tol=residual_tol,
                seed=_read(raw, "seed", None, int),
                smallness_c=_read(raw, "smallness_c", 1.0, float),
                c_post=_read(raw, "c_post", 2.0, float),
                drift_tol_abs=_read(raw, "drift_tol_abs", 0.0, float),
                max_degree=max_degree,
                output=output,
            )


def _random_field(dim: int, degree: int, amplitude: float, decay: float, rng) -> PeriodicField:
    if degree < 0:
        raise ConfigError(f"degree must be at least 0, got {degree}")
    entries = []
    for k in _ball(dim, degree) if degree > 0 else ():  # degree 0: no modes to draw
        scale = amplitude * math.exp(-decay * int(np.abs(k).sum()))
        re, im = rng.standard_normal(2)
        entries.append((k, 0.5 * scale * complex(re, im)))
    return PeriodicField.from_entries(dim, degree, entries)


def _modes_field(dim: int, modes) -> PeriodicField:
    entries = []
    for mode in modes:
        if not isinstance(mode, (list, tuple)) or len(mode) != 3:
            raise ConfigError(f"each mode is [k, re, im], got {mode!r}")
        k, re, im = mode
        k = (int(k),) if np.isscalar(k) else tuple(int(x) for x in k)
        entries.append((k, complex(float(re), float(im))))
    degree = max(sum(abs(x) for x in k) for k, _ in entries)
    return PeriodicField.from_entries(dim, degree, entries)


def make_test_map(kind: str, params: dict, alpha, seed: int) -> TorusMapLift:
    """Deterministic families of starting maps.

    "conjugate" pulls the rigid rotation back by a random small change of
    variables (an exact conjugate up to a far-out spectral tail); "drifted"
    additionally offsets the translation part; "single-mode" places given
    coefficients on top of the rotation; "random-decay" adds random
    exponentially decaying displacement components.  Maps whose displacement
    Jacobian reaches 1/2 are rejected as out of regime.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    dim = alpha.size
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    if kind in ("conjugate", "drifted"):
        allowed = {"degree", "amplitude", "decay", "target_degree", "delta"}
        _reject_unknown(params, allowed, f"params for {kind!r}")
        degree = int(params.get("degree", 3))
        amplitude = float(params.get("amplitude", 0.02))
        decay = float(params.get("decay", 1.0))
        target = int(params.get("target_degree", max(16, 4 * degree)))
        fields = tuple(_random_field(dim, degree, amplitude, decay, rng) for _ in range(dim))
        change = TorusMapLift(np.zeros(dim), fields)
        if change.jacobian_sup() >= 0.5:
            raise OutOfRegime("generated change of variables is too steep; lower the amplitude")
        f = conjugate(change, TorusMapLift.rotation(alpha), target_degree=target)
        if kind == "drifted":
            delta = np.atleast_1d(np.asarray(params.get("delta", [0.0] * dim), dtype=float))
            if delta.size != dim:
                raise ConfigError("delta must match the dimension")
            if not np.all(np.isfinite(delta)):
                raise ConfigError("delta must be finite")
            f = TorusMapLift(f.rho + delta, f.displacement)
    elif kind == "single-mode":
        _reject_unknown(params, {"modes"}, "params for 'single-mode'")
        if "modes" not in params:
            raise ConfigError("single-mode needs 'modes'")
        modes = params["modes"]
        per_comp = modes if dim == 2 else [modes]
        if len(per_comp) != dim:
            raise ConfigError("need one mode list per component")
        fields = tuple(_modes_field(dim, m) for m in per_comp)
        deg = max(u.degree for u in fields)
        fields = tuple(
            PeriodicField(dim, deg, u._embed(deg)) for u in fields
        )
        f = TorusMapLift(alpha.copy(), fields)
    elif kind == "random-decay":
        _reject_unknown(params, {"degree", "amplitude", "decay"}, "params for 'random-decay'")
        degree = int(params.get("degree", 4))
        amplitude = float(params.get("amplitude", 0.01))
        decay = float(params.get("decay", 1.0))
        fields = tuple(_random_field(dim, degree, amplitude, decay, rng) for _ in range(dim))
        f = TorusMapLift(alpha.copy(), fields)
    else:
        raise ConfigError(f"unknown test map kind {kind!r}")
    if f.jacobian_sup() >= 0.5:
        raise OutOfRegime("map is outside the perturbative regime (Jacobian deviation >= 1/2)")
    return f


def compose_chain(chain, max_degree: int | None = None) -> TorusMapLift:
    """Compose corrector maps in order: chain[0] acts first, later ones on top.

    One pointwise walk on one grid, projected once at the sum of the degrees
    capped at `max_degree`; `conjugacy_verification` judges the clipped result.
    """
    if not chain:
        raise ValueError("empty chain")
    if len(chain) == 1:
        return chain[0]
    target = sum(phi.degree for phi in chain)
    return _chain(tuple(chain), target if max_degree is None else min(target, int(max_degree)))


def conjugacy_verification(h: TorusMapLift, f: TorusMapLift, alpha) -> float:
    """Sup norm of h(f(x)) - h(x) - alpha over a sampling grid.

    Zero exactly when h carries f to the rigid rotation by alpha.
    """
    return _composition_defect(h, f, TorusMapLift.rotation(alpha), h)


@dataclass(frozen=True, eq=False)
class RunResult:
    status: RunStatus
    exit_code: int
    n_steps: int
    trace: list
    final_eps0: float
    final_map: TorusMapLift
    vector: DiophantineVector
    params: SchedulerParams
    chain: list
    composed: TorusMapLift | None
    diagnostics: list
    verification_residual: float | None
    messages: list


def _load_initial_map(config: ExperimentConfig) -> TorusMapLift:
    if "file" in config.initial_map:
        f = kio.load_map(config.initial_map["file"])
    else:
        f = make_test_map(
            config.initial_map["kind"],
            config.initial_map.get("params", {}),
            config.alpha,
            config.seed,
        )
    if f.dim != config.alpha.size:
        raise ConfigError("initial map dimension does not match alpha")
    return f


def run_scheme(config: ExperimentConfig) -> RunResult:
    """Drive the iteration to convergence or a classified failure.

    Trace rows carry the pre-step deviations, the step outcome, and the
    scheduled envelopes; a rejected step contributes a row with accepted=0.
    A step that fails smallness is retried at halved cutoffs, never below the
    last accepted one, and its row carries the cutoff finally used.
    """
    dim = config.alpha.size
    params = derive_constants(
        sigma=config.sigma,
        lambda_=config.lambda_,
        mu=config.mu,
        nu=config.nu,
        tau=config.tau,
        d=dim,
        start_cutoff=config.start_cutoff,
    )
    count = config.max_iters + 1
    cutoffs = list(_snapped_cutoffs(config.start_cutoff, config.sigma, count, config.max_degree))
    cutoffs += [config.max_degree] * (count - len(cutoffs))
    dc_radius = config.dc_radius if config.dc_radius is not None else max(cutoffs)
    vec = verified_vector(config.alpha, config.tau, dc_radius, config.gamma)

    f = rebase(_load_initial_map(config), vec.alpha)
    first_map = f
    trace, chain, diagnostics, messages = [], [], [], []
    status = None
    n = 0
    floor = 2  # smallness retries stop at the last accepted cutoff, 2 before any
    # the deviation of the current f; an accepted step reports that of its successor
    eps0 = deviation_norm(f, vec.alpha, 0)
    while n < config.max_iters:
        if eps0 <= config.eps_stop:
            status = RunStatus.CONVERGED
            break
        n += 1
        eps_s0 = deviation_norm(f, vec.alpha, params.s0, "fourier")
        env0, env_s, _ = envelopes(params, n)
        cutoff, target = cutoffs[n - 1], cutoffs[n]
        step_cfg = StepConfig(
            smallness_c=config.smallness_c,
            c_post=config.c_post,
            target_degree=target,
            drift_tol_abs=config.drift_tol_abs,
        )
        used = cutoff
        try:
            while True:
                try:
                    f_next, phi, diag = step(f, vec, used, step_cfg)
                    break
                except SmallnessViolated:
                    lower = max(floor, used // 2)
                    if lower >= used:
                        raise
                    used = lower
                    messages.append(f"step {n}: retrying at cutoff {used}")
        except KamError as exc:
            messages.append(f"step {n}: {exc}")
            trace.append((n, used, eps0, eps_s0, 0.0, 0.0, env0, env_s, 0.0, 0))
            status = RunStatus.DIVERGED
            break
        trace.append(
            (
                n, used, eps0, eps_s0, diag.drift_norm, diag.drift_bound,
                env0, env_s, diag.corrector_norm0, 1,
            )
        )
        chain.append(phi)
        diagnostics.append(diag)
        f, eps0, floor = f_next, diag.eps0_after, used
        if eps0 > config.eps_stop and not (diag.posteriori_ok and diag.hull_ok):
            messages.append(
                f"step {n}: drift {diag.drift_norm:.3e} fails its bound "
                f"{diag.drift_bound:.3e} (hull_ok={diag.hull_ok})"
            )
            status = RunStatus.DRIFT_OBSTRUCTION
            break

    if status is None:
        status = RunStatus.CONVERGED if eps0 <= config.eps_stop else RunStatus.MAX_ITERS

    composed = None
    residual = None
    failure = None
    if status is RunStatus.CONVERGED and chain:
        composed = compose_chain(chain, config.max_degree)
        residual = conjugacy_verification(composed, first_map, vec.alpha)
        tol = 10.0 * config.eps_stop if config.residual_tol is None else config.residual_tol
        if residual > tol:
            failure = f"composed conjugacy residual {residual:.3e} exceeds {tol:.3e}"

    result = RunResult(
        status=status,
        exit_code=EXIT_CODES[status],
        n_steps=len(chain),
        trace=trace,
        final_eps0=eps0,
        final_map=f,
        vector=vec,
        params=params,
        chain=chain,
        composed=composed,
        diagnostics=diagnostics,
        verification_residual=residual,
        messages=messages,
    )
    _write_outputs(result, config)
    if failure is not None:
        raise ResidualTooLarge(failure)
    return result


def _write_outputs(result: RunResult, config: ExperimentConfig) -> None:
    paths = config.output
    if "trace" in paths:
        kio.trace_to_csv(result.trace, paths["trace"])
    if "chain" in paths:
        kio.save_chain(result.chain, result.vector.alpha, paths["chain"], result.composed)
    if "final_map" in paths:
        kio.save_map(result.final_map, paths["final_map"])
