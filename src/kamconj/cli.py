"""Command line interface.

Exit codes: 0 success/converged, 1 usage or input errors, 2 iteration budget
exhausted, 3 divergence or a failed claimed bound, 4 drift obstruction.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import io as kio
from .cohomology import solve
from .diophantine import DiophantineVector, _fit, _holds, verified_vector
from .driver import (
    CONFIG_KEYS,
    ExperimentConfig,
    _resolve_alpha,
    make_test_map,
    run_scheme,
)
from .errors import ConfigError, KamError, ResidualTooLarge
from .rotation import rotation_set_estimate
from .scheduler import (
    DEFAULTS,
    check_inductive_inequalities,
    derive_constants,
    mu_window,
    replay_induction,
    schedule_cutoffs,
    validate,
)
from .spectral import TorusMapLift, cs_norm

__all__ = ["main"]

# the generator params that `make-map` takes as flags; `make_test_map` reads them
_PARAM_KEYS = [key for section, key in CONFIG_KEYS if section == "initial_map.params"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_alpha(text: str) -> np.ndarray:
    """Comma-separated components, each a decimal value or a rotation tag."""
    pieces = []
    for piece in text.split(","):
        try:
            pieces.append(float(piece))
        except ValueError:
            pieces.append(piece.strip())
    return _resolve_alpha(pieces)


def _floats(text: str) -> list:
    """Comma-separated decimal values, as --delta takes them."""
    try:
        return [float(piece) for piece in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _build_parser() -> _Parser:
    p = _Parser(prog="kamconj", description="Conjugate near-rotation torus maps to rigid rotations.")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="drive the iteration from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--trace", help="override trace CSV path")
    run.add_argument("--chain", help="override chain JSON path")
    run.add_argument("--final-map", help="override final map JSON path")
    run.add_argument("--quiet", action="store_true")

    par = sub.add_parser("params", help="inspect scheduler parameters")
    par.add_argument("--sigma", type=float, default=DEFAULTS["sigma"])
    par.add_argument("--lambda", dest="lambda_", type=float, default=DEFAULTS["lambda_"])
    par.add_argument("--mu", type=float, default=None)
    par.add_argument("--nu", type=float, default=DEFAULTS["nu"])
    par.add_argument("--tau", type=float, help="default: a run's tau at this dimension")
    par.add_argument("--dim", type=int, choices=(1, 2), default=2)
    par.add_argument("--start-cutoff", "--N1", dest="start_cutoff", type=int, default=DEFAULTS["start_cutoff"])
    par.add_argument("--replay", type=int, default=0, help="replay the envelope recursion this many steps")
    par.add_argument(
        "--schedule", type=int, default=0,
        help="print up to this many cutoffs a run steps at, ending at --dim's default max_degree",
    )

    dc = sub.add_parser("dc-check", help="verify a small-divisor lower bound")
    dc.add_argument("--alpha", required=True)
    dc.add_argument("--tau", type=float, required=True)
    dc.add_argument("--radius", "--K", dest="radius", type=int, required=True)
    dc.add_argument("--gamma", type=float, default=None)

    coh = sub.add_parser("cohomology", help="solve the linearized conjugacy equation")
    coh.add_argument("--map", dest="map_path", required=True)
    coh.add_argument("--alpha", required=True)
    coh.add_argument("--tau", type=float, required=True)
    coh.add_argument("--gamma", default="auto")
    coh.add_argument("--cutoff", type=int, required=True)
    coh.add_argument("--out", help="write the corrector map as a map JSON")

    rot = sub.add_parser("rotation", help="estimate the rotation set of a map")
    rot.add_argument("--map", dest="map_path", required=True)
    rot.add_argument("--samples", type=int, default=32)
    rot.add_argument("--iters", type=int, default=1000)
    rot.add_argument("--resolution", type=int, default=None)
    rot.add_argument("--hull-out", help="write rotation hull vertices as CSV")

    mk = sub.add_parser("make-map", help="generate a test map")
    mk.add_argument("--kind", required=True)
    mk.add_argument("--alpha", required=True)
    # each number flag is read from text as its CONFIG_KEYS row's kind: make_test_map gets no strings
    mk.add_argument("--seed", type=CONFIG_KEYS["", "seed"][0], required=True)
    mk.add_argument("--out", required=True)
    for key in _PARAM_KEYS:
        mk.add_argument("--" + key.replace("_", "-"), type=CONFIG_KEYS["initial_map.params", key][0])
    mk.add_argument("--delta", type=_floats, help="comma-separated translation offset")
    mk.add_argument("--modes", help="mode list as JSON")
    return p


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    overrides = {"trace": args.trace, "chain": args.chain, "final_map": args.final_map}
    output = {**config.output, **{key: value for key, value in overrides.items() if value}}
    config = dataclasses.replace(config, output=output)
    result = run_scheme(config)
    if not args.quiet:
        for row in result.trace:
            n, cutoff, eps0, eps_s0, drift, bound, env0, env_s, phi0, acc = row
            flag = "ok" if acc else "rejected"
            print(
                f"step {n}: N={cutoff} eps0={eps0:.6e} drift={drift:.3e} "
                f"bound={bound:.3e} corrector={phi0:.3e} [{flag}]"
            )
        for message in result.messages:
            print(message)
        print(f"status: {result.status.value} after {result.n_steps} accepted steps")
        print(f"final eps0: {result.final_eps0:.6e}")
        if result.verification_residual is not None:
            print(f"conjugacy residual: {result.verification_residual:.6e}")
    return result.exit_code


def _cmd_params(args) -> int:
    ok, bad = validate(args.sigma, args.lambda_, args.nu)
    if not ok:
        print("infeasible:", ", ".join(bad))
        return 3
    # mu, tau and both counts are checked before the report starts; tau and
    # the schedule's cap are a run's defaults at this dimension
    tau, cap = (CONFIG_KEYS["", key][1][args.dim] for key in ("tau", "max_degree"))
    params = derive_constants(
        sigma=args.sigma, lambda_=args.lambda_, mu=args.mu, nu=args.nu,
        tau=tau if args.tau is None else args.tau, d=args.dim, start_cutoff=args.start_cutoff,
    )
    schedule = schedule_cutoffs(args.start_cutoff, args.sigma, args.schedule, cap)
    rep = replay_induction(params, n_steps=args.replay) if args.replay else None
    lo, hi = mu_window(args.sigma, args.lambda_, args.nu)
    print(f"mu window: ({lo:.6g}, {hi:.6g}); using mu={params.mu:.6g}")
    print(f"omega0 bound: {params.omega0_max:.12g}")
    print(f"exponents: a={params.a:.6g} gamma0={params.gamma0:.6g} s0={params.s0:.6g} b={params.b:.6g}")
    for name, row in check_inductive_inequalities(params).items():
        state = "ok" if row["ok"] else "VIOLATED"
        print(f"  {name}: lhs={row['lhs']:.6g} bound={row['bound']:.6g} margin={row['margin']:.6g} [{state}]")
    if schedule:
        print("schedule:", schedule)
    if rep is not None:
        print(
            f"replay: ok={rep.ok} steps={rep.steps} "
            f"final margins=({rep.margins_low[-1]:.3g}, {rep.margins_high[-1]:.3g})"
        )
        if not rep.ok:
            print(f"  envelope lost at step {rep.first_violation}")
            return 3
    return 0


def _cmd_dc_check(args) -> int:
    alpha = _parse_alpha(args.alpha)
    claim = None if args.gamma is None else DiophantineVector(alpha, args.gamma, args.tau)
    gamma, worst = _fit(alpha, args.tau, args.radius)  # the one pass: gamma, worst mode and verdict
    DiophantineVector(alpha, gamma, args.tau)  # refuses a tau, or a fitted gamma, that a run refuses
    print(f"worst-case gamma over |k|_1 <= {args.radius}: {gamma!r}")
    print(f"worst mode: k={worst[0]}")
    if claim is None:
        return 0
    ok = _holds(claim, worst)
    state = "holds" if ok else "FAILS"
    print(f"claim gamma={args.gamma}: {state} (worst ratio {worst[1]!r} at k={worst[0]})")
    return 0 if ok else 3


def _cmd_cohomology(args) -> int:
    f = kio.load_map(args.map_path)
    alpha = _parse_alpha(args.alpha)
    if alpha.size != f.dim:
        raise ConfigError("alpha dimension does not match the map")
    try:
        gamma = None if args.gamma == "auto" else float(args.gamma)
    except ValueError as exc:
        raise ConfigError(f"{exc} in --gamma") from None
    # solve reads only the band min(cutoff, degree); the first shell is kept so
    # that a rotation map still gets a gamma, and a cutoff below 1 is still refused
    vec = verified_vector(alpha, args.tau, min(args.cutoff, max(f.degree, 1)), gamma)
    correctors = []
    for i, u in enumerate(f.displacement):
        sol = solve(u, vec, args.cutoff)
        correctors.append(sol.corrector)
        print(
            f"component {i}: |phi|_0={cs_norm(sol.corrector, 0):.6e} "
            f"residual={sol.residual / sol.scale:.3e} min divisor={sol.min_divisor:.6e}"
        )
    if args.out:
        phi = TorusMapLift(np.zeros(f.dim), tuple(correctors))
        kio.save_map(phi, args.out)
    return 0


def _cmd_rotation(args) -> int:
    if min(args.samples, args.iters) < 1:
        raise ConfigError(f"--samples and --iters must be at least 1, got {args.samples} and {args.iters}")
    if args.resolution is not None and args.resolution < 1:
        raise ConfigError(f"--resolution must be at least 1, got {args.resolution}")
    f = kio.load_map(args.map_path)
    data = rotation_set_estimate(
        f, n_samples=args.samples, n_iter=args.iters, grid_resolution=args.resolution
    )
    np.set_printoptions(precision=15)
    print(f"rotation hull vertices:\n{data.rotation_hull.vertices}")
    print(f"rotation hull diameter: {data.rotation_hull.diameter():.6e}")
    print(f"displacement hull diameter: {data.displacement_hull.diameter():.6e}")
    if args.hull_out:
        kio.hull_to_csv(data.rotation_hull, args.hull_out)
    return 0


def _cmd_make_map(args) -> int:
    params = {key: getattr(args, key) for key in (*_PARAM_KEYS, "delta") if getattr(args, key) is not None}
    if args.modes is not None:
        params["modes"] = json.loads(args.modes)
    alpha = _parse_alpha(args.alpha)
    f = make_test_map(args.kind, params, alpha, args.seed)
    kio.save_map(f, args.out)
    print(f"wrote {args.kind} map (dim {f.dim}, degree {f.degree}) to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "params": _cmd_params,
    "dc-check": _cmd_dc_check,
    "cohomology": _cmd_cohomology,
    "rotation": _cmd_rotation,
    "make-map": _cmd_make_map,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ResidualTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # ValueError covers malformed JSON and out-of-range arguments
    except (KamError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
