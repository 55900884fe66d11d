#!/usr/bin/env python3
"""Reflection of a mollified pulse off the dynamical boundary.

Evolves the exact mollified solution with the FDTD engine and writes the
boundary trace next to the closed form 2 c^-1 exp(-t/c) theta(t); prints
the sup residual."""

import argparse
from pathlib import Path

import numpy as np

from wentzell.cli import write_csv
from wentzell.core import Grid1D, PhysicalParams, Strip
from wentzell.evolve import explicit_solution, fdtd_run, make_fdtd_state, \
    reflection_cauchy_data


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--eps", type=float, default=0.02)
    ap.add_argument("--h", type=float, default=1 / 2048)
    ap.add_argument("--length", type=float, default=2.5, help="domain length")
    ap.add_argument("--t0", type=float, default=-0.5)
    ap.add_argument("--T", type=float, default=2.0)
    ap.add_argument("--out", default="reflection_trace.csv")
    args = ap.parse_args()

    L = args.length
    grid = Grid1D(-L / 2, L / 2, int(round(L / args.h)))
    p = PhysicalParams(c=args.c, mu=0.0, geometry=Strip(L / 2))
    data = reflection_cauchy_data(grid, t0=args.t0, eps=args.eps, c=args.c)
    state = make_fdtd_state(data, p, cfl=0.5)
    n_steps = int(round((args.T - args.t0) / state.dt))
    state = fdtd_run(state, n_steps)
    t = args.t0 + np.arange(1, n_steps + 1) * state.dt
    _, exact = explicit_solution(t, 0.0, args.eps, args.c)
    trace = state.bdy_trace[:, 0]
    resid = np.abs(trace - exact)
    sup = float(resid.max(initial=0.0))

    write_csv(Path(args.out), {"c": args.c, "eps": args.eps, "h": args.h},
              ["t", "phi_bdy_fdtd", "phi_bdy_exact", "residual"],
              np.column_stack([t, trace, exact, resid])[::8])
    print(f"sup residual {sup:.4e} (scale 2/c = {2 / args.c:.3g}); trace -> {args.out}")


if __name__ == "__main__":
    main()
