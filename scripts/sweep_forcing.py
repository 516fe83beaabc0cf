#!/usr/bin/env python3
"""Probe the certified forcing-amplitude threshold as the constraint radius
varies; writes a plot-ready CSV of (r, lambda_hat, evaluations), the last
column being the number of pipeline runs each probe took."""

import argparse
import csv
from pathlib import Path

import numpy as np

import hintcvx as hx
from hintcvx.principle import forcing_threshold_probe


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=101)
    ap.add_argument("--p", type=float, default=4.0)
    ap.add_argument("--radii", type=float, nargs="+", default=[0.05, 0.1, 0.2, 0.35, 0.5, 0.7])
    ap.add_argument("--out", default="results/forcing_sweep.csv")
    args = ap.parse_args()

    grid = hx.RadialGrid(n=args.n, dim=1)
    f_dir = hx.GridFunction(grid, np.sin(np.pi * grid.nodes), hx.NEUMANN_ZERO)
    template = hx.ProblemSpec(family="nonhomogeneous", grid=grid, p=args.p, f=f_dir)
    cfg = hx.SolverConfig()

    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "lambda_hat", "evaluations"])
        for r in args.radii:
            evaluations = []
            lam = forcing_threshold_probe(template, r, cfg, trace_out=evaluations)
            writer.writerow([r, repr(lam), len(evaluations)])
            print(f"r = {r:.3f}: lambda_hat = {lam:.6f} ({len(evaluations)} runs)")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
