"""The measurement picture of a corrected protocol, a test route.

The library reads every channel off an outcome-free affine map and never
corrects a drawn outcome on a state. These helpers take the picture of a
single run instead: ``apply_correction`` undoes the byproduct frame that
``engine.run_protocol`` returns with its uncorrected output, and
``dual_step`` runs the dual elementary circuit with one drawn outcome and
returns the output that still carries its byproduct. The tests hold the
library's channels against outputs corrected outcome by outcome.
``independent_probe_deviation`` runs ``checks.measurement_picture_deviation``
with k + 1 probes that each measure the whole chain from the assembled
state, with no shared prefix.
"""

from __future__ import annotations

import math

import numpy as np

import cvcluster as cv
from cvcluster import checks, engine
from cvcluster.phase_space import _generator


def apply_correction(state: cv.GaussianState, frame: cv.ByproductFrame) -> cv.GaussianState:
    """Undo the pending byproduct: displace the (single-mode) state by (-u, -v)."""
    if state.n_modes != 1:
        raise ValueError("apply_correction expects a single-mode state")
    return cv.GaussianState(state.mean - np.array([frame.u, frame.v]), state.cov)


def dual_step(
    input_state: cv.GaussianState, r: float, seed: int
) -> tuple[cv.GaussianState, cv.RecordColumns]:
    """The dual elementary circuit: x-squeezed ancilla, e^{2i p(x)p} coupling,
    x detection on the input mode, its outcome drawn with the integer ``seed``.

    Exact map: with ancilla quadratures (x_a, p_a) and measured value t of
    the post-gate input position x - p_a, the output mode carries

        x_out = x_a - p,   p_out = x - t,

    i.e. the Fourier action with byproduct Z(-t) and the e^{-2r}/4 ancilla
    noise landing in the x quadrature. This equals the primal kappa = 0 step
    conjugated by Fourier gates on both modes (the coupling gates satisfy
    that conjugation identity exactly at the symplectic level).

    Returns the output with its byproduct and the record of t.
    """
    if input_state.n_modes != 1:
        raise ValueError("input must be a single-mode state")
    S = cv.controlled_z_pp()
    # over (x, p, x_a, p_a): the output is mode 1 and t reads x of mode 0;
    # the corrected p row absorbs +1 times it, undoing Z(-t)
    measured = S[0]
    corrected_rows = S[2:4] + np.outer([0.0, 1.0], measured)
    channel, _ = cv.affine_channel(
        corrected_rows[:, :2], corrected_rows[:, 3:], corrected_rows[:, 2:3], r
    )
    var_anti, var_squeezed = engine.resource_variances(r)
    # t is Gaussian: its row's image of the product state's moments
    mean = measured[:2] @ input_state.mean
    var = measured[:2] @ input_state.cov @ measured[:2]
    var += measured[2] ** 2 * var_squeezed + measured[3] ** 2 * var_anti
    t = float(mean + math.sqrt(var) * _generator(seed).standard_normal())
    corrected = channel.apply(input_state)
    output = cv.GaussianState(corrected.mean + np.array([0.0, -t]), corrected.cov)
    return output, cv.RecordColumns((0,), (0,), (0.0,), (-math.pi / 2,), (t,), (t,))


def independent_probe_deviation(
    steps: list[cv.StepPlan], r: float, state_in: cv.GaussianState
) -> float:
    """``checks.measurement_picture_deviation`` with the zero probe and the k
    unit probes run independently: k(k+1) ``homodyne`` calls."""
    kappas = [step.kappa for step in steps]
    k = len(kappas)
    assembled = cv.attach_input(state_in, cv.linear_cluster(k, r))
    means = []
    for outcomes in np.vstack([np.zeros(k), np.eye(k)]).tolist():
        state, frame = assembled, cv.ByproductFrame()
        for s, kappa in zip(outcomes, kappas):
            state = cv.homodyne(state, 0, kappa, 1.0, forced=s)[1]
            frame = checks.update_frame(frame, s, kappa)
        means.append(state.mean - np.array([frame.u, frame.v]))
    a, G = means[0], np.column_stack(means[1:]) - means[0][:, None]
    C = np.zeros((k, 2 * k + 2))
    for j, kappa in enumerate(kappas):
        C[j, 2 * j : 2 * j + 2] = kappa, 1.0
    mean = a + G @ (C @ assembled.mean)
    cov = state.cov + G @ (C @ assembled.cov @ C.T) @ G.T
    expected = engine.chain_channel(steps, r)[0].apply(state_in)
    scale = float(np.max(np.abs(expected.cov)))
    deviations = [np.max(np.abs(mean - expected.mean)), np.max(np.abs(cov - expected.cov)) / scale]
    return float(np.max(deviations))
