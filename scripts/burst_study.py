#!/usr/bin/env python3
"""Holographic image of the reference bump observable and its echo train.

Writes f'(t) to CSV and prints the detected burst arrivals (expected near
+-1, +-3, +-5: direct wavefront plus one and two boundary reflections) and
their envelope heights.  Optionally reports the sensitivity of the image to a
small regulator mass replacing mu = 0."""

import argparse
from pathlib import Path

import numpy as np

from wentzell.cli import write_csv
from wentzell.holo import Fig2Config, fig2_reproduce, regulator_sensitivity


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threshold", type=float, default=0.1,
                    help="burst detection level relative to the global max")
    ap.add_argument("--t-span", type=float, default=12.0)
    ap.add_argument("--mu-reg", type=float, default=None,
                    help="run the regulator-mass sensitivity check")
    ap.add_argument("--out", default="fig2_fprime.csv")
    args = ap.parse_args()

    cfg = Fig2Config(t_span=args.t_span, burst_threshold=args.threshold)
    image, burst = fig2_reproduce(cfg)
    write_csv(Path(args.out), image.metadata, ["t", "fprime"],
              np.column_stack([image.t_grid, image.fprime]))
    print(f"f'(t) -> {args.out}")
    print(f"{'arrival':>9}  {'peak at':>9}  {'height':>10}")
    for c, pt, h in zip(burst.centers, burst.peak_times, burst.heights):
        print(f"{c:>9.3f}  {pt:>9.3f}  {h:>10.4e}")
    if args.mu_reg is not None:
        sens = regulator_sensitivity(cfg, args.mu_reg)
        print(f"regulator sensitivity (mu_reg={args.mu_reg} vs {args.mu_reg / 2}): "
              f"{sens:.3e} relative")


if __name__ == "__main__":
    main()
