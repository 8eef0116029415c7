#!/usr/bin/env python3
"""Cubic-error scaling of the measurement-implemented squeezer.

For each shear strength the protocol's channel is compared against the
first-order target diag(1 - k^2, 1 + k^2); the residual shrinks as k^3 and
the off-line squeezer with matching gate strength r = k^2 stays within the
same cubic error.
"""

import argparse
import math

import numpy as np

import cvcluster as cv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--kappas", type=float, nargs="+", default=[0.025, 0.05, 0.1, 0.2]
    )
    parser.add_argument("--squeezing-db", type=float, default=100.0)
    args = parser.parse_args()

    r = cv.db_to_squeezing_r(args.squeezing_db)
    vac = cv.vacuum_state(1)
    print(f"{'kappa':>8} {'deviation':>12} {'dev/k^3':>10} {'offline gap':>12} {'var(x_out)':>11}")
    for kappa in args.kappas:
        cluster = cv.squeezer_four_step(kappa, r, vac)
        offline = cv.offline_squeezer(vac, r, kappa**2)
        gap = np.linalg.norm(cluster.channel.S - offline.channel.S, ord="fro")
        var_x = cluster.check("output_var_x").value
        print(
            f"{kappa:8.3f} {cluster.deviation:12.3e} "
            f"{cluster.deviation / kappa**3:10.4f} {gap:12.3e} {var_x:11.6f}"
        )
    print(f"\nsqueezing target per segment: r = kappa^2 "
          f"(e.g. kappa=0.2 -> e^(-r) = {math.exp(-0.04):.5f})")


if __name__ == "__main__":
    main()
