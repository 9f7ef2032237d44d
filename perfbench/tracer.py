"""Per-layer tracing of kamconj from outside the package.

`Tracer.install` replaces every binding of each traced function in every
loaded ``kamconj`` module namespace, so calls made inside the package (for
example ``kamstep`` calling ``conjugate``, or ``TorusMapLift`` calling
``value_grid``) are caught without editing the package.  `uninstall` puts the
original objects back, so untraced runs in the same process pay nothing.

Two kinds of instrumentation:

* layer spans (`LAYER_SPANS`) record name, start, end and parent.  A span's
  self time is its duration minus the time covered by the layer spans directly
  beneath it.
* kernel counters (`KERNELS`) count calls, time and work of hot functions.
  They are not spans, so their time is never subtracted from any self time.

A name that no longer exists in the package is skipped and reported with zero
calls, so the tracer keeps working when a later version deletes or renames a
traced function.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYER_SPANS = (
    "driver.run_scheme",
    "driver.compose_chain",
    "driver.conjugacy_verification",
    "driver.make_test_map",
    "kamstep.step",
    "kamstep.posteriori_check",
    "spectral.conjugate",
    "spectral.invert_near_identity",
    "spectral.compose",
    "spectral.deviation_norm",
    "cohomology.solve",
    "diophantine.verified",
    "diophantine.best_gamma",
    "rotation.rotation_set_estimate",
    "rotation.displacement_hull",
    "rotation.convex_hull",
    "rotation.hull_contains",
    "io.load_map",
    "io.save_map",
    "io.save_chain",
    "io.trace_to_csv",
)

PACKAGE = "kamconj"

KERNELS = ("spectral.value_grid", "spectral.field_from_grid")

# Counter name -> unit; every counter is reported per traced run.
COUNTERS = {
    "spectral.value_grid.calls": "count",
    "spectral.value_grid.total_s": "s",
    "spectral.value_grid.points": "count",
    "spectral.field_from_grid.calls": "count",
    "spectral.field_from_grid.total_s": "s",
    "spectral.PeriodicField.constructed": "count",
    "rotation.convex_hull.points": "count",
    "kamstep.step.accepted": "count",
    "io.bytes_written": "B",
}

_WRITERS = ("io.save_map", "io.save_chain", "io.trace_to_csv")


def _package_modules() -> list:
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Spans and counters for one benchmark process, kept in memory."""

    def __init__(self):
        self.spans = []  # (run, span id, parent id or -1, name, start, end)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counters = defaultdict(float)
        self.missing = []
        self.run = -1
        self._stack = []  # [span id, time covered by child spans]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original object)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {m.__name__: m for m in _package_modules()}
        self.missing = []
        for qual in LAYER_SPANS + KERNELS:
            mod_name, attr = qual.rsplit(".", 1)
            owner = modules.get(f"{PACKAGE}.{mod_name}")
            orig = getattr(owner, attr, None) if owner is not None else None
            if not callable(orig):
                self.missing.append(qual)
                continue
            wrapper = self._kernel(qual, orig) if qual in KERNELS else self._span(qual, orig)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        field_cls = getattr(modules.get(f"{PACKAGE}.spectral"), "PeriodicField", None)
        post_init = getattr(field_cls, "__post_init__", None)
        if post_init is None:
            self.missing.append("spectral.PeriodicField.__post_init__")
        else:
            counters = self.counters

            @functools.wraps(post_init)
            def counted(obj, *args, **kwargs):
                counters["spectral.PeriodicField.constructed"] += 1
                return post_init(obj, *args, **kwargs)

            self._patches.append((field_cls, "__post_init__", post_init))
            field_cls.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, qual: str, fn):
        tracer = self
        stat = self.stats[qual]
        after = _after_hook(qual, fn, self.counters)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                tracer.spans.append(
                    (tracer.run, frame[0], -1 if parent is None else parent[0], qual, start, end)
                )
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _kernel(self, qual: str, fn):
        counters = self.counters
        calls, total, points = f"{qual}.calls", f"{qual}.total_s", f"{qual}.points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            counters[total] += time.perf_counter() - start
            counters[calls] += 1
            if qual == "spectral.value_grid":
                counters[points] += out.size  # sum of m**d over calls
            return out

        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self, runs: int) -> dict:
        """Per-run means of every span statistic and counter, with units."""
        runs = max(1, int(runs))
        out = {}
        for qual in LAYER_SPANS:
            calls, total, self_s = self.stats[qual]
            out[f"{qual}.calls"] = (calls / runs, "count")
            out[f"{qual}.total_s"] = (total / runs, "s")
            out[f"{qual}.self_s"] = (self_s / runs, "s")
        for name, unit in COUNTERS.items():
            out[name] = (self.counters.get(name, 0.0) / runs, unit)
        calls = self.stats["kamstep.step"][0]
        accepted = self.counters.get("kamstep.step.accepted", 0.0)
        out["kamstep.step.accept_ratio"] = (accepted / calls if calls else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("run", "span", "parent", "name", "start_s", "end_s"))
            w.writerows(sorted(self.spans, key=lambda s: (s[0], s[4])))


def _after_hook(qual: str, fn, counters):
    """Counter updates that need a span's arguments or a successful return."""
    if qual == "kamstep.step":
        def after(args, kwargs, out):
            counters["kamstep.step.accepted"] += 1
        return after
    if qual == "rotation.convex_hull" or qual in _WRITERS:
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            return None
        if qual == "rotation.convex_hull":
            def after(args, kwargs, out):
                pts = sig.bind(*args, **kwargs).arguments.get("points")
                counters["rotation.convex_hull.points"] += len(pts) if pts is not None else 0
            return after

        def after(args, kwargs, out):
            path = sig.bind(*args, **kwargs).arguments.get("path")
            if path is not None and os.path.exists(path):
                counters["io.bytes_written"] += os.path.getsize(path)
        return after
    return None
