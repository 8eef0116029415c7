#!/usr/bin/env python3
"""Teleportation fidelity and chain noise versus resource squeezing.

Prints the vacuum-input fidelity of the off-line teleporter next to the
closed form 1/(1 + e^{-2r}), and the accumulated noise of a plain
propagation chain of the given length.
"""

import argparse

import cvcluster as cv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", type=float, nargs="+", default=[0, 3, 6, 10, 15, 20])
    parser.add_argument("--chain-nodes", type=int, default=5)
    args = parser.parse_args()

    vac = cv.vacuum_state(1)
    print(f"{'dB':>6} {'fidelity':>10} {'closed form':>12} {'chain trace(N)':>15}")
    for db in args.db:
        r = cv.db_to_squeezing_r(db)
        teleport = cv.offline_teleport(vac, r)
        chain = cv.identity_chain(args.chain_nodes, r, vac)
        closed = 1.0 / (1.0 + 10 ** (-db / 10))
        print(
            f"{db:6.1f} {teleport.fidelity:10.6f} {closed:12.6f} "
            f"{chain.noise_trace:15.6f}"
        )


if __name__ == "__main__":
    main()
