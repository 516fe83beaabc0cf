#!/usr/bin/env python3
"""Concave-convex experiment: sweep mu below the threshold, certify each run,
and tabulate energy, residuals, and the admissibility window."""

import argparse
import json
from pathlib import Path

import hintcvx as hx
from hintcvx.principle import run_problem


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=201, help="grid points")
    ap.add_argument("--p", type=float, default=4.0)
    ap.add_argument("--q", type=float, default=1.5)
    ap.add_argument("--C1", type=float, default=1.0)
    ap.add_argument("--fractions", type=float, nargs="+", default=[0.1, 0.25, 0.5, 0.75, 0.9],
                    help="mu as fractions of mu_star")
    ap.add_argument("--out", default="results/concave_convex")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    star = hx.mu_star(args.C1, args.p, args.q)
    print(f"mu_star(C1={args.C1}, p={args.p}, q={args.q}) = {star:.6f}")

    grid = hx.RadialGrid(n=args.n, dim=1)
    rows = []
    for frac in args.fractions:
        mu = frac * star
        spec = hx.ProblemSpec(family="concave-convex", grid=grid, p=args.p, q=args.q,
                              mu=mu, C1=args.C1)
        cert, report = run_problem(spec)
        # above mu_star the window is empty and no run is made
        r1, r2 = cert.window or (None, None)
        rows.append({
            "mu_fraction": frac,
            "mu": mu,
            "r": cert.problem["r"],
            "window_r1": r1,
            "window_r2": r2,
            "verdict": cert.verdict,
            "detail": cert.detail,
            "energy": cert.energy,
            "vi_residual": cert.vi_residual,
            "strong_residual": cert.strong_residual,
            "u0_h2": cert.u0_h2_norm,
            "iterations": report.iterations,
        })
        if cert.window is None:
            print(f"  mu = {frac:.2f} mu*: {cert.verdict} ({cert.detail})")
        else:
            print(f"  mu = {frac:.2f} mu*: {cert.verdict}, I = {cert.energy:+.3e}, "
                  f"r = {cert.problem['r']:.4f}, iters = {report.iterations}")

    with open(out / "sweep.json", "w") as fh:
        json.dump(rows, fh, indent=2)
    print(f"wrote {out / 'sweep.json'}")


if __name__ == "__main__":
    main()
