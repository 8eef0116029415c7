"""Black-box channel tomography, a test oracle.

The library reads every protocol's channel off its affine map. These tools
take the other route: they see a corrected protocol only as a runner from
(input state, seed) to output state, and reconstruct (S, N, d) from probe
runs, so the tests can hold the affine-map readout against them.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

import cvcluster as cv

ProtocolRunner = Callable[[cv.GaussianState, int], cv.GaussianState]

_PROBE_SEEDS = (20_24, 97)
_DETERMINISM_TOL = 1e-6


class NonDeterministicChannelError(RuntimeError):
    """The corrected protocol output varied with the seed; no channel exists."""


def _state_distance(a: cv.GaussianState, b: cv.GaussianState) -> float:
    return max(
        float(np.max(np.abs(a.mean - b.mean))),
        float(np.max(np.abs(a.cov - b.cov))),
    )


def channel_tomography(protocol: ProtocolRunner) -> cv.GaussianChannel:
    """Reconstruct (S, N, d) of a corrected single-mode protocol from its
    outputs alone.

    Three mean probes (vacuum, coherent(1,0), coherent(0,1)) determine the
    affine mean map; the vacuum output covariance then gives
    N = cov_out - S (I/4) S^T. Refuses with NonDeterministicChannelError if
    two differently seeded runs disagree, since the channel is only defined
    for outcome-independent (corrected Clifford) protocols.
    """
    out_a = protocol(cv.vacuum_state(1), _PROBE_SEEDS[0])
    out_b = protocol(cv.vacuum_state(1), _PROBE_SEEDS[1])
    dev = _state_distance(out_a, out_b)
    if dev > _DETERMINISM_TOL:
        raise NonDeterministicChannelError(
            f"corrected outputs differ by {dev:.3e} across seeds"
        )
    d = out_a.mean
    out_x = protocol(cv.coherent_state(1.0, 0.0), _PROBE_SEEDS[0])
    out_p = protocol(cv.coherent_state(0.0, 1.0), _PROBE_SEEDS[0])
    S = np.column_stack([out_x.mean - d, out_p.mean - d])
    N = out_a.cov - cv.VACUUM_VARIANCE * S @ S.T
    return cv.GaussianChannel(S=S, N=0.5 * (N + N.T), d=d)


def outcome_independence_check(
    run: Callable[[int], cv.GaussianState], seeds: Iterable[int]
) -> float:
    """Max distance between corrected outputs across seeds (means and covs)."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    reference = run(seeds[0])
    return max(_state_distance(run(s), reference) for s in seeds[1:]) if len(seeds) > 1 else 0.0
