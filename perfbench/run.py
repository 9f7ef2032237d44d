"""kamconj benchmark: one workload per call, end-to-end or traced per-layer metrics.

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed):

    python3 perfbench/run.py --workload ref-2d --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics: ``run_cost_p50`` (a run's wall
time in units of a calibration block timed during it, see ``hostspeed.py``),
``peak_rss_mb`` and ``setup_s``.  ``--trace 1`` runs the first half of the
inputs twice each, untraced and traced in alternating order, after one untraced
warm-up run, and prints the per-layer metrics (see ``perfbench/README.md``).
Every metric is printed by name with its unit, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Result files go to ``.perfbench-work/results/``.

The command starts fresh interpreters: some that only set up (import plus input
generation), and the worker, which sets up once more and then runs the
workload, so its peak memory is its own.  ``setup_s`` is the median of all
set-ups: at least three, and more, up to nine, while the set-up-only ones have
cost less than ``SETUP_BUDGET_S`` together, so a cheap set-up gets more samples.
Work per call is fixed: ``--seconds`` divided by the workload's
``seconds_per_input`` gives the number of inputs, so the same seed always
measures the same inputs.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here, before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ref-2d", "sweep-1d", "rotation-2d")
SETUP_SAMPLES = (3, 9)  # fewest and most set-ups per untraced call, the worker's included
SETUP_BUDGET_S = 2.0
CALL_TIMEOUT_S = 170.0
WORK_ROOT = ".perfbench-work"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _parse(argv):
    p = argparse.ArgumentParser(description="kamconj benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--max-degree", type=int, default=None,
        help="ref-2d degree cap (default 48); 256 reproduces the 97-second reference run "
        "and lifts the call timeout",
    )
    p.add_argument("--role", choices=("main", "setup", "worker"), default="main", help=argparse.SUPPRESS)
    p.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- worker side ------------------------------------------------------------


def _setup(args):
    """Import the package from src/ and generate the inputs; returns (workload, inputs)."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import kamconj

    if not os.path.abspath(kamconj.__file__).startswith(src + os.sep):
        raise SystemExit(f"kamconj imported from {kamconj.__file__}, not from {src}")
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.get(args.workload, args.max_degree)
    count = max(1, round(args.seconds / wl.seconds_per_input))
    indices = range(args.seed * count, (args.seed + 1) * count)
    os.makedirs(args.workdir, exist_ok=True)
    return wl, wl.make_inputs(indices, args.workdir)


def _timed(wl, inp, outdir):
    start = time.perf_counter()
    try:
        result, error = wl.run(inp, outdir), None
    except Exception as exc:  # a failed run is counted, never fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


def _traced(tracer, wl, inp, outdir):
    tracer.install()
    try:
        return _timed(wl, inp, outdir)
    finally:
        tracer.uninstall()


def _judge(wl, inp, result, error):
    import workloads

    if error is not None:
        return workloads.Outcome(True, note=error)
    try:
        return wl.check(inp, result)
    except Exception as exc:  # e.g. written outputs that no longer reload
        return workloads.Outcome(True, wrong=True, note=f"check raised {type(exc).__name__}: {exc}")


def _worker(args):
    wl, inputs = _setup(args)
    setup_s = time.perf_counter() - _T0
    if args.role == "setup":
        return {"setup_s": setup_s}

    import resource

    from hostspeed import HostSampler
    from tracer import Tracer

    outdir = os.path.join(args.workdir, "out")
    os.makedirs(outdir, exist_ok=True)
    records = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        plain_dir = os.path.join(args.workdir, "out-untraced")
        os.makedirs(plain_dir, exist_ok=True)
        # The first run of a process is slower (memory first touched); without this
        # warm-up trace.overhead_s would measure cold start, not tracing.
        _timed(wl, inputs[0], plain_dir)
        for n, inp in enumerate(inputs[: max(1, len(inputs) // 2)]):
            tracer.run = n
            # Alternate which twin goes first, so that order effects cancel in
            # trace.overhead_s instead of falling into it.
            if n % 2 == 0:
                plain_s, plain, plain_err = _timed(wl, inp, plain_dir)
                secs, result, error = _traced(tracer, wl, inp, outdir)
            else:
                secs, result, error = _traced(tracer, wl, inp, outdir)
                plain_s, plain, plain_err = _timed(wl, inp, plain_dir)
            # The run-level figures judge the untraced twin; the traced one must match it.
            outcome = _judge(wl, inp, plain, plain_err)
            if (error or wl.fingerprint(result)) != (plain_err or wl.fingerprint(plain)):
                outcome.failed = outcome.wrong = True
                outcome.note += "; traced result differs from the untraced one"
            records.append({"index": inp["index"], "seconds": secs, "untraced_s": plain_s,
                            "outcome": outcome})
    else:
        sampler = HostSampler()
        sampler.start()
        try:
            for inp in inputs:
                busy, begin = sampler.busy(), time.perf_counter()
                wall, result, error = _timed(wl, inp, outdir)
                block_s = sampler.block_s(begin, begin + wall)
                secs = wall - (sampler.busy() - busy)  # the samples' own time is not the run's
                records.append({"index": inp["index"], "seconds": secs, "block_s": block_s,
                                "outcome": _judge(wl, inp, result, error)})
        finally:
            sampler.stop()

    plain_times = [r.get("untraced_s", r["seconds"]) for r in records]
    ok = [r for r in records if not r["outcome"].failed]
    digits = [r["outcome"].digits for r in records if r["outcome"].digits is not None]
    summary = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "correct": not any(r["outcome"].wrong for r in records),
        "runs": [
            {"index": r["index"], "seconds": r["seconds"], "untraced_s": r.get("untraced_s"),
             "block_s": r.get("block_s"),
             "failed": r["outcome"].failed, "wrong": r["outcome"].wrong, "note": r["outcome"].note}
            for r in records
        ],
    }
    wall_clock = {
        "run_s_p50": (statistics.median(plain_times), "s"),
        "runs_per_s": (len(ok) / sum(plain_times), "1/s"),
    }
    if tracer is None:
        # A run with no sample in its window (one C call blocked the signal
        # throughout) is costed at the call's median block time.
        blocks = [r["block_s"] for r in records if r["block_s"]]
        typical = statistics.median(blocks)
        summary["metrics"] = {
            "run_cost_p50": (statistics.median(r["seconds"] / (r["block_s"] or typical) for r in records),
                             "blocks"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        }
        # Raw wall-clock figures are recorded and printed, but not on the result
        # line: on a shared host they spread wider than any useful bound.
        summary["wall_clock"] = dict(wall_clock, block_ms_p50=(typical * 1e3, "ms"))
    else:
        metrics = tracer.metrics(len(records))
        metrics.update(wall_clock)
        overhead = [r["seconds"] - r["untraced_s"] for r in records]
        metrics["trace.overhead_s"] = (statistics.fmean(overhead), "s")
        metrics["fail_frac"] = (summary["failed"] / len(records), "ratio")
        metrics["verify_digits"] = (min(digits) if digits else 0.0, "digits")
        p90 = (
            statistics.quantiles(plain_times, n=10, method="inclusive")[-1]
            if len(plain_times) > 1 else plain_times[0]
        )
        metrics["run_s_p90"] = (p90, "s")
        summary["metrics"] = metrics
        summary["untraced_names"] = tracer.missing
        summary["spans"] = len(tracer.spans)
        tracer.write_spans(os.path.join(args.workdir, "spans.csv"))
    return summary


# -- launcher side ----------------------------------------------------------


def _environment():
    env = {
        "cpu_model": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if hasattr(os, "sched_getaffinity"):
        env["nproc"] = len(os.sched_getaffinity(0))
    try:
        import numpy as np

        env["numpy"] = np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the record is informative only
        env.setdefault("numpy", "unknown")
        env["blas"] = f"unknown ({type(exc).__name__})"
    env["git_commit"] = "unknown (not a git checkout)"
    if os.path.exists(".git"):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def _call(args, role, workdir, timeout):
    cmd = [
        sys.executable, os.path.abspath(__file__), "--role", role, "--workdir", workdir,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.max_degree is not None:
        cmd += ["--max-degree", str(args.max_degree)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{role} process exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _main(args):
    if not os.path.isfile(os.path.join("src", "kamconj", "__init__.py")):
        raise SystemExit("no kamconj sources under ./src: run from the root of a kamconj checkout")
    started = time.monotonic()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    results_dir = os.path.join(WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    call_dir = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")

    def remaining():
        if args.max_degree is not None:
            return None
        return max(1.0, CALL_TIMEOUT_S - (time.monotonic() - started))

    try:
        setups = []
        fewest, most = (1, 1) if args.trace else SETUP_SAMPLES
        while len(setups) < most - 1 and (len(setups) < fewest - 1 or sum(setups) < SETUP_BUDGET_S):
            workdir = os.path.join(call_dir, f"setup{len(setups)}")
            setups.append(_call(args, "setup", workdir, remaining())["setup_s"])
        summary = _call(args, "worker", os.path.join(call_dir, "worker"), remaining())
        spans = os.path.join(call_dir, "worker", "spans.csv")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(results_dir, f"{tag}-spans.csv"))
    finally:
        shutil.rmtree(call_dir, ignore_errors=True)

    setups.append(summary["setup_s"])
    metrics = summary["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    env = _environment()
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples=setups, environment=env)
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    n = summary["attempted"]
    print(f"workload {args.workload} seed {args.seed}: {n} runs, {summary['failed']} failed, "
          f"correct={summary['correct']}")
    for r in summary["runs"]:
        if r["failed"]:
            print(f"  input {r['index']} failed: {r['note']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in summary.get("wall_clock", {}).items():
        print(f"  (wall clock, not gated) {name} = {value:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": n,
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    args = _parse(argv)
    if args.seconds <= 0 or args.seed < 0:
        raise SystemExit("--seconds must be positive and --seed nonnegative")
    if args.max_degree is not None and args.workload != "ref-2d":
        raise SystemExit("--max-degree applies to ref-2d only")
    if args.role == "main":
        _main(args)
    else:
        print(json.dumps(_worker(args)))


if __name__ == "__main__":
    main()
