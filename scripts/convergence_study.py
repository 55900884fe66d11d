#!/usr/bin/env python3
"""Grid-refinement study: FDTD against the exact spectral propagator.

Prints the weighted-L2 error at t = 2S (CFL 0.5, as in acceptance criterion 4)
for a sequence of resolutions and the observed convergence orders (expected: 2)."""

import argparse

import numpy as np

from wentzell.acceptance import fdtd_vs_spectral_error
from wentzell.core import PhysicalParams, Strip
from wentzell.modes import build_table


def run(S, c, mu, M, levels):
    p = PhysicalParams(c=c, mu=mu, geometry=Strip(S))
    table = build_table(M, p)
    m = np.arange(M + 1.0)
    a = 0.5 / (1 + m) ** 2
    b = 0.3 / (1 + m) ** 2
    return [fdtd_vs_spectral_error(n, p, table, a, b, T=2 * S) for n in levels]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--S", type=float, default=1.0)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--modes", type=int, default=10)
    ap.add_argument("--levels", type=int, nargs="+",
                    default=[128, 256, 512, 1024, 2048])
    args = ap.parse_args()
    errs = run(args.S, args.c, args.mu, args.modes, args.levels)
    print(f"{'n':>6}  {'h':>12}  {'L2 error':>12}  {'order':>6}")
    for i, (n, e) in enumerate(zip(args.levels, errs)):
        order = ""
        if i > 0:
            order = f"{np.log2(errs[i - 1] / e):6.3f}"
        print(f"{n:>6}  {2 * args.S / n:>12.6g}  {e:>12.4e}  {order:>6}")


if __name__ == "__main__":
    main()
