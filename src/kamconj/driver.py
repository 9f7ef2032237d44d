"""End-to-end iteration driver: configs, test-map generators, the scheme loop.

A run verifies the rotation vector over the needed frequency range, then
repeats improvement steps along the quadratic cutoff schedule until the
deviation from the target rotation passes below the stop tolerance, recording
one trace row per attempted step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import io as kio
from .diophantine import DiophantineVector, _ball, verified_vector
from .errors import (
    ConfigError,
    KamError,
    NotContractive,
    OutOfRegime,
    ResidualTooLarge,
    SmallnessViolated,
)
from .kamstep import StepConfig, step
from .scheduler import DEFAULTS, SchedulerParams, _cutoff, derive_constants, envelopes
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
    "CONFIG_KEYS",
]

NAMED_ALPHAS = {
    "golden": (math.sqrt(5.0) - 1.0) / 2.0,
    "sqrt2-1": math.sqrt(2.0) - 1.0,
    "sqrt3-1": math.sqrt(3.0) - 1.0,
}

# One row per scalar key: (section, key) -> (kind, default, lower bound, strict);
# a strict bound is 0. A default keyed by dimension is picked by alpha's size;
# None means absent (gamma: fit the smallest verified value, dc_radius: the
# largest scheduled cutoff, mu: the middle of its window, residual_tol:
# 10 * eps_stop). Generator params take the defaults of their kind (`_GENERATORS`).
CONFIG_KEYS = {
    ("", "tau"): (float, {1: 1.0, 2: 2.0}, 0, True),
    ("", "gamma"): (float, None, 0, True),
    ("", "dc_radius"): (int, None, 1, False),
    ("", "seed"): (int, None, 0, False),
    ("", "smallness_c"): (float, StepConfig.smallness_c, 0, True),
    ("", "c_post"): (float, StepConfig.c_post, 0, False),
    ("", "drift_tol_abs"): (float, StepConfig.drift_tol_abs, 0, False),
    ("", "max_degree"): (int, {1: 2048, 2: 256}, 1, False),
    ("scheduler", "sigma"): (float, DEFAULTS["sigma"], None, False),
    ("scheduler", "lambda"): (float, DEFAULTS["lambda_"], None, False),
    ("scheduler", "mu"): (float, None, None, False),
    ("scheduler", "nu"): (float, DEFAULTS["nu"], None, False),
    ("scheduler", "start_cutoff"): (int, DEFAULTS["start_cutoff"], 2, False),
    ("tolerances", "eps_stop"): (float, 1e-9, 0, False),
    ("tolerances", "max_iters"): (int, 12, 0, False),
    ("tolerances", "residual_tol"): (float, None, 0, False),
    ("initial_map.params", "degree"): (int, None, 0, False),
    ("initial_map.params", "amplitude"): (float, None, None, False),
    ("initial_map.params", "decay"): (float, None, None, False),
    ("initial_map.params", "target_degree"): (int, None, 0, False),
}

# each generator's params with their defaults; target_degree None is max(16, 4 * degree)
_CONJUGATE = {"degree": 3, "amplitude": 0.02, "decay": 1.0, "target_degree": None}
_GENERATORS = {
    "conjugate": _CONJUGATE,
    "drifted": {**_CONJUGATE, "delta": None},
    "single-mode": {"modes": None},
    "random-decay": {"degree": 4, "amplitude": 0.01, "decay": 1.0},
}


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


def _number(kind, value):
    """value as an int or a finite float; bools and non-integral floats are refused."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    value = kind(value)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _read(d: dict, section: str, key: str, default):
    """d[key] converted and bounded by its CONFIG_KEYS row, `default` when absent or null."""
    kind, _, low, strict = CONFIG_KEYS[section, key]
    path = f"{section}.{key}" if section else key
    if d.get(key) is None:
        return default
    try:
        value = _number(kind, d[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config document: {exc} in {path}") from None
    if low is not None and (value <= low if strict else value < low):
        need = "positive" if strict else f"at least {low}"
        raise ConfigError(f"{key} must be {need}, got {value} in {path}")
    return value


def _object(d: dict, key: str, allowed: set) -> dict:
    """d[key] ({} when absent) as an object that holds only `allowed` keys."""
    value = d.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    _reject_unknown(value, allowed, key)
    return value


def _resolve_component(x) -> float:
    if isinstance(x, str):
        if x not in NAMED_ALPHAS:
            raise ConfigError(f"unknown rotation tag {x!r}; use one of {sorted(NAMED_ALPHAS)}")
        return NAMED_ALPHAS[x]
    try:
        return _number(float, x)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"alpha components must be finite numbers or tags, got {x!r}") from None


def _resolve_alpha(spec) -> np.ndarray:
    if isinstance(spec, (str, int, float)):
        spec = [spec]
    try:
        arr = np.array([_resolve_component(x) for x in spec])
    except TypeError:
        raise ConfigError("alpha must be a tag, a number, or a list of those") from None
    if arr.size not in (1, 2):
        raise ConfigError("alpha must have one or two components")
    return arr


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run configuration; build from a plain dict with `from_dict`."""

    alpha: np.ndarray
    gamma: float | None  # None means: fit the smallest verified value
    dc_radius: int | None
    params: SchedulerParams  # from tau and the scheduler section, by `derive_constants`
    step: StepConfig  # `run_scheme` sets each step's target_degree
    initial_map: dict
    eps_stop: float
    max_iters: int
    residual_tol: float | None
    seed: int
    max_degree: int
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        # a value that fails to convert names its key (`_read`); anything else
        # that fails on a malformed document still ends as ConfigError
        with kio._invalid("config"):
            keys = {name: {k for s, k in CONFIG_KEYS if s == name} for name in ("", "scheduler", "tolerances")}
            keys[""] |= {"alpha", "scheduler", "initial_map", "tolerances", "output"}
            _reject_unknown(raw, keys[""], "config")
            for key in ("alpha", "initial_map", "seed"):
                if raw.get(key) is None:
                    raise ConfigError(f"missing required key {key!r}")
            alpha = _resolve_alpha(raw["alpha"])
            # gamma "auto" and scheduler "default" read as absent
            absent = (("gamma", "auto"), ("scheduler", "default"))
            root = {k: v for k, v in raw.items() if (k, v) not in absent}
            docs = {name: _object(root, name, keys[name]) if name else root for name in keys}
            values = {}
            for (section, key), (_, default, _, _) in CONFIG_KEYS.items():
                if section in docs:
                    if isinstance(default, dict):  # by dimension
                        default = default[alpha.size]
                    name = "lambda_" if key == "lambda" else key
                    values[name] = _read(docs[section], section, key, default)

            imap = raw["initial_map"]
            stored = isinstance(imap, dict) and "file" in imap
            _object(raw, "initial_map", {"file"} if stored else {"kind", "params"})
            if not stored:
                if "kind" not in imap:
                    raise ConfigError("initial_map needs 'file' or 'kind'")
                # a bad generator param fails here, not inside the run
                _generator_params(imap["kind"], imap.get("params", {}), alpha.size)
            output = _object(raw, "output", {"trace", "chain", "final_map"})
            for key, path in output.items():
                if not (isinstance(path, str) and path):
                    raise ConfigError(f"output paths must be non-empty strings, got {path!r} in output.{key}")
            sched = {k: values.pop(k) for k in ("tau", "sigma", "lambda_", "mu", "nu", "start_cutoff")}
            step = {k: values.pop(k) for k in ("smallness_c", "c_post", "drift_tol_abs")}
            # infeasible exponents fail here, with the scheduler's own error
            values.update(params=derive_constants(d=alpha.size, **sched), step=StepConfig(**step))
            return cls(alpha=alpha, initial_map=imap, output=output, **values)


def _random_field(dim: int, degree: int, amplitude: float, decay: float, rng) -> PeriodicField:
    entries = []
    for k in _ball(dim, degree) if degree > 0 else ():  # degree 0: no modes to draw
        scale = amplitude * math.exp(-decay * int(np.abs(k).sum()))
        re, im = rng.standard_normal(2)
        entries.append((k, 0.5 * scale * complex(re, im)))
    return PeriodicField.from_entries(dim, degree, entries)


def _read_modes(modes, dim: int) -> tuple:
    """single-mode's [k, re, im] lists, one per component, as fields of one degree."""
    per_comp = modes if dim == 2 else [modes]
    lists = isinstance(modes, (list, tuple)) and all(isinstance(c, (list, tuple)) and c for c in per_comp)
    if not lists or len(per_comp) != dim:
        raise ConfigError("single-mode needs one nonempty mode list per component in initial_map.params.modes")
    comps = []
    for comp in per_comp:
        comps.append([])
        for mode in comp:
            try:
                k, re, im = mode
                k = tuple(_number(int, x) for x in (k if isinstance(k, (list, tuple)) else [k]))
                comps[-1].append((k, complex(_number(float, re), _number(float, im))))
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"each mode is [k, re, im], got {mode!r} in initial_map.params.modes") from None
    degree = max(sum(map(abs, k)) for entries in comps for k, _ in entries)
    return tuple(PeriodicField.from_entries(dim, degree, entries) for entries in comps)


def _generator_params(kind: str, params, dim: int) -> dict:
    """A generator's params, read and bounded, with its kind's defaults filled in."""
    if kind not in _GENERATORS:
        raise ConfigError(f"unknown test map kind {kind!r}")
    if not isinstance(params, dict):
        raise ConfigError("initial_map params must be an object")
    defaults = _GENERATORS[kind]
    _reject_unknown(params, set(defaults), f"params for {kind!r}")
    out = {
        key: _read(params, "initial_map.params", key, default)
        for key, default in defaults.items() if ("initial_map.params", key) in CONFIG_KEYS
    }
    if "target_degree" in out and out["target_degree"] is None:
        out["target_degree"] = max(16, 4 * out["degree"])
    if kind == "drifted":
        delta = params.get("delta", [0.0] * dim)
        try:
            out["delta"] = np.array([_number(float, x) for x in np.atleast_1d(delta).tolist()])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid config document: {exc} in initial_map.params.delta") from None
        if out["delta"].size != dim:
            raise ConfigError("delta must match the dimension in initial_map.params.delta")
    if kind == "single-mode":
        out["modes"] = _read_modes(params.get("modes"), dim)
    return out


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
    p = _generator_params(kind, params or {}, dim)
    rng = np.random.default_rng(_read({"seed": seed}, "", "seed", None))
    if kind == "single-mode":
        f = TorusMapLift(alpha.copy(), p["modes"])
    else:
        fields = tuple(_random_field(dim, p["degree"], p["amplitude"], p["decay"], rng) for _ in range(dim))
        if kind == "random-decay":
            f = TorusMapLift(alpha.copy(), fields)
        else:
            change = TorusMapLift(np.zeros(dim), fields)
            try:  # conjugate refuses a change whose Jacobian reaches 1/2
                f = conjugate(change, TorusMapLift.rotation(alpha), target_degree=p["target_degree"])
            except NotContractive:
                raise OutOfRegime("generated change of variables is too steep; lower the amplitude") from None
            if kind == "drifted":
                f = TorusMapLift(f.rho + p["delta"], f.displacement)
    if not f.jacobian_sup() < 0.5:  # not (< 1/2): a nan Jacobian is out of regime too
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
    """Sup norm of h(f(x)) - h(x) - alpha over the sampling grid of the maps' largest degree.

    Zero exactly when h carries f to the rigid rotation by alpha.  Both sides
    are walked on the grid their band needs (`_composition_defect`), and the
    box grid's points are the ones checked.
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
    params = config.params

    def cutoff(n: int) -> int:  # the schedule's n-th entry, at most the degree cap
        return _cutoff(params.start_cutoff, params.sigma, n, config.max_degree)

    # sigma > 0, so the schedule never decreases: its last entry a run can reach is its largest
    dc_radius = config.dc_radius if config.dc_radius is not None else cutoff(config.max_iters + 1)
    vec = verified_vector(config.alpha, params.tau, dc_radius, config.gamma)

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
        env0, env_s = envelopes(params, n)
        step_cfg = replace(config.step, target_degree=cutoff(n + 1))
        used = cutoff(n)
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
        if not residual <= tol:  # not (<=): a nan residual fails too
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
