#!/usr/bin/env python3
"""Scan the exponent-ratio box and report where the scheme parameters close.

For each (sigma, lambda, nu) triple on a grid the script checks the standing
constraints, and where they hold derives the exponent constants and the
admissible window for the quadratic-loss weight.  Optionally writes the full
grid to CSV for plotting.

    python3 scripts/feasible_region_scan.py --resolution 40 --csv region.csv
"""

import argparse
import csv
import sys

import numpy as np

from kamconj import EmptyWindow, derive_constants, mu_window, omega0_bound, validate


def scan(resolution: int):
    sigmas = np.linspace(0.02, 0.98, resolution)
    lambdas = np.linspace(1.05, 8.0, resolution)
    nus = np.linspace(0.55, 4.0, resolution)
    rows = []
    for sigma in sigmas:
        for lam in lambdas:
            for nu in nus:
                ok, _ = validate(sigma, lam, nu)
                row = {"sigma": sigma, "lambda": lam, "nu": nu, "ok": int(ok),
                       "mu_lo": "", "mu_hi": "", "omega0_max": ""}
                if ok:
                    try:
                        lo, hi = mu_window(sigma, lam, nu)
                    except EmptyWindow:
                        row["ok"] = 0
                    else:
                        row["mu_lo"] = lo
                        row["mu_hi"] = hi
                        row["omega0_max"] = omega0_bound(sigma, lam)
                rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolution", type=int, default=30)
    parser.add_argument("--csv", type=str, default=None)
    args = parser.parse_args(argv)
    if args.resolution < 1:
        parser.error("--resolution must be at least 1")

    rows = scan(args.resolution)
    feasible = [r for r in rows if r["ok"]]
    print(f"grid: {len(rows)} triples, feasible: {len(feasible)} "
          f"({100.0 * len(feasible) / len(rows):.1f}%)")

    if feasible:
        widest = max(feasible, key=lambda r: r["mu_hi"] - r["mu_lo"])
        print(f"widest weight window: ({widest['mu_lo']:.3f}, {widest['mu_hi']:.3f}) "
              f"at sigma={widest['sigma']:.3f} lambda={widest['lambda']:.3f} "
              f"nu={widest['nu']:.3f}")

    p = derive_constants()
    print(f"reference point: a={p.a:g} gamma0={p.gamma0:g} s0={p.s0:g} b={p.b:g}, "
          f"weight window {mu_window(0.5, 3.0, 2.0)}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
