#!/usr/bin/env python3
"""Mountain-pass experiment on the radial Neumann problem: certify the
increasing positive profile for a family of increasing weights a(r) = 1 + s r."""

import argparse
from pathlib import Path

import hintcvx as hx
from hintcvx.principle import run_problem


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=201)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--p", type=float, default=4.0)
    ap.add_argument("--slopes", type=float, nargs="+", default=[0.0, 0.5, 1.0, 2.0])
    ap.add_argument("--out", default="results/neumann_radial")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = hx.RadialGrid(n=args.n, dim=args.dim)

    for slope in args.slopes:
        a = hx.GridFunction(grid, 1.0 + slope * grid.nodes, hx.NEUMANN_ZERO)
        spec = hx.ProblemSpec(family="neumann-radial", grid=grid, p=args.p, a=a)
        cert, report = run_problem(spec)
        tag = f"slope{slope:g}"
        if cert.u0 is not None:
            cert.u0.to_csv(out / f"profile_{tag}.csv")
        print(f"a(r) = 1 + {slope:g} r: {cert.verdict}, c = {cert.mountain_pass_value:.6f}, "
              f"range [{cert.u0.values.min():.4f}, {cert.u0.values.max():.4f}], "
              f"mono defect = {cert.monotonicity_defect:.1e}, iters = {report.iterations}")
    print(f"profiles in {out}/")


if __name__ == "__main__":
    main()
