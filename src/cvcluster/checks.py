"""Self-contained invariant and identity checks backing the `verify` command.

Each check returns a ProtocolCheck with the measured value, so the table the
CLI prints doubles as a numerical record (in particular the cubic-scaling
ratios). The measurement-picture row holds ``chain_channel`` to
the paper's one-way computation: ``cluster``'s squeezed vacua joined by one
CZ layer, the input attached by one more CZ, measured node by node with
``homodyne`` and corrected with ``update_frame``, which is bound here at
import so that a change to ``engine`` alone shows as a disagreement. The
protocol rows copy the verdict and value of a vacuum-input report's own
named check, so their thresholds and closed forms live in ``protocols``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import algebra, protocols
from .protocols import ProtocolCheck
from .phase_space import (
    GaussianState,
    beamsplitter_5050,
    controlled_z,
    controlled_z_pp,
    embed_symplectic,
    fourier,
    homodyne,
    uncertainty_defect,
    p_shear,
    rotation,
    shear,
    squeezer,
    symplectic_defect,
    vacuum_state,
    IDEAL_SQUEEZING_R,
)
from .cluster import attach_input, linear_cluster
from .engine import chain_channel, update_frame


def symplectic_condition_checks() -> list[ProtocolCheck]:
    gates = [controlled_z(), controlled_z_pp(), fourier(), rotation(0.7), shear(0.3)]
    gates += [p_shear(0.3), squeezer(0.5), beamsplitter_5050()]
    worst = float(np.max([symplectic_defect(g) for g in gates]))  # a NaN fails
    return [ProtocolCheck("symplectic_condition_all_gates", worst <= 1e-12, worst)]


def gate_identity_checks() -> list[ProtocolCheck]:
    F = fourier()
    results = []
    dev = float(np.max(np.abs(rotation(math.pi / 2) - F)))
    results.append(ProtocolCheck("rotation_half_pi_equals_fourier", dev <= 1e-12, dev))
    dev = float(np.max(np.abs(F @ shear(0.4) @ np.linalg.inv(F) - p_shear(0.4))))
    results.append(ProtocolCheck("fourier_conjugates_shear_to_p_shear", dev <= 1e-12, dev))
    FF = embed_symplectic(F, [0], 2) @ embed_symplectic(F, [1], 2)
    conj = FF @ controlled_z() @ np.linalg.inv(FF)
    dev = float(np.max(np.abs(conj - controlled_z_pp())))
    results.append(ProtocolCheck("fourier_pair_conjugates_cz_to_cz_pp", dev <= 1e-12, dev))
    cz = controlled_z()
    for mode in (0, 1):
        emb = embed_symplectic(shear(0.7), [mode], 2)
        dev = float(np.max(np.abs(cz @ emb - emb @ cz)))
        results.append(
            ProtocolCheck(f"cz_commutes_with_shear_on_mode_{mode}", dev == 0.0, dev)
        )
    return results


def cubic_identity_checks() -> list[ProtocolCheck]:
    worst = low_degree = Fraction(0)
    grid = [Fraction(v, 2) for v in (-2, -1, 0, 1, 2)]
    for kappa in grid:
        for s1 in grid:
            c0, *low = algebra.verify_cubic_feedforward(kappa, s1)
            phase = kappa * s1**3
            if c0 != phase:
                worst = max(worst, abs(c0 - phase))
            if any(low):
                low_degree = max(low_degree, *map(abs, low))
    return [
        ProtocolCheck("cubic_feedforward_constant_is_phase", worst == 0, float(worst)),
        ProtocolCheck(
            "cubic_feedforward_degrees_1_to_3_vanish", low_degree == 0, float(low_degree)
        ),
    ]


def _cubic_ratio_checks(name: str, residual: dict[float, float]) -> list[ProtocolCheck]:
    """The rows ``name``_at_kappa for kappa 0.025, 0.05 and 0.1: a residual of
    O(kappa^3) has residual(2 kappa) / residual(kappa) near 8, held to [7, 9]."""
    rows = []
    for kappa in (0.025, 0.05, 0.1):
        # doubling a float is exact, so 2 * kappa is a key of ``residual``
        ratio = residual[2 * kappa] / residual[kappa]
        rows.append(ProtocolCheck(f"{name}_at_{kappa:g}", 7.0 <= ratio <= 9.0, ratio))
    return rows


def bch_checks() -> list[ProtocolCheck]:
    residual = {kappa: algebra.bch_squeezer_residual(kappa) for kappa in (0.025, 0.05, 0.1, 0.2)}
    return [
        ProtocolCheck("bch_residual_small_at_0.1", residual[0.1] <= 1e-2, residual[0.1]),
        *_cubic_ratio_checks("bch_cubic_scaling_ratio", residual),
    ]


def squeezer_matrix_checks() -> list[ProtocolCheck]:
    matrix = {kappa: algebra.squeezer_protocol_matrix(kappa) for kappa in (0.025, 0.05, 0.1, 0.2)}
    det_err = abs(float(np.linalg.det(matrix[0.2])) - 1.0)
    dev = {
        k: float(np.linalg.norm(m - np.diag([1 - k**2, 1 + k**2]), "fro"))
        for k, m in matrix.items()
    }
    return [
        ProtocolCheck("four_step_matrix_det_one", det_err <= 1e-12, det_err),
        *_cubic_ratio_checks("four_step_deviation_ratio", dev),
    ]


def measurement_picture_deviation(kappas: list[float], r: float, state_in: GaussianState) -> float:
    """How far ``chain_channel(kappas, r)`` sends ``state_in`` from the paper's
    measurement picture of the same chain.

    The input is attached to a linear cluster, and each probe measures
    p + kappa_j x_j of the head mode with ``homodyne`` at forced outcomes
    s_j and folds them into the frame with ``update_frame``. The corrected
    conditional mean is affine in s, a + G s, so the zero probe and the
    k unit probes give a and G. Unit probe e_i starts from the zero probe's
    state and frame after its first i steps, which it would repeat exactly,
    so the k + 1 probes take k + k(k+1)/2 ``homodyne`` calls. The
    conditional covariance Sigma_c is the same for every outcome. The
    outcomes C q, C the rows p_j + kappa_j x_j of the assembled state (mean
    mu, covariance V), then give the output by the law of total covariance:
    mean a + G C mu and covariance Sigma_c + G C V C^T G^T. The value is the
    worst of the mean's absolute deviation and the covariance's deviation
    relative to its largest entry; a NaN anywhere makes it NaN.
    """
    k = len(kappas)
    assembled = attach_input(state_in, linear_cluster(k, r))

    def measure(probe, s, kappa):
        state, frame = probe
        state = homodyne(state, 0, kappa, 1.0, forced=s)[1]
        return state, update_frame(frame, s, kappa)

    zero = [(assembled, (0.0, 0.0))]
    for kappa in kappas:
        zero.append(measure(zero[-1], 0.0, kappa))
    ends = [zero[-1]]
    for i, kappa in enumerate(kappas):
        probe = measure(zero[i], 1.0, kappa)
        for later in kappas[i + 1 :]:
            probe = measure(probe, 0.0, later)
        ends.append(probe)
    means = [state.mean - np.array(frame) for state, frame in ends]
    a, G = means[0], np.column_stack(means[1:]) - means[0][:, None]
    C = np.zeros((k, 2 * k + 2))
    for j, kappa in enumerate(kappas):
        C[j, 2 * j : 2 * j + 2] = kappa, 1.0
    mean = a + G @ (C @ assembled.mean)
    # the last probe's covariance is Sigma_c: it does not depend on the outcomes
    cov = ends[-1][0].cov + G @ (C @ assembled.cov @ C.T) @ G.T
    expected = chain_channel(kappas, r)[0].apply(state_in)
    scale = float(np.max(np.abs(expected.cov)))
    deviations = [np.max(np.abs(mean - expected.mean)), np.max(np.abs(cov - expected.cov)) / scale]
    return float(np.max(deviations))


def measurement_picture_checks() -> list[ProtocolCheck]:
    """``measurement_picture_deviation`` on the four-step squeezer at kappa
    0.2 and a four-step chain of mixed kappas at 10 dB, for one fixed
    non-vacuum input; a NaN fails the row."""
    r = protocols.db_to_squeezing_r(10.0)
    state_in = GaussianState(np.array([0.3, -0.2]), np.array([[0.4, 0.1], [0.1, 0.3]]))
    chains = (protocols.squeezer_steps(0.2), [0.4, 0.0, -0.7, 1.1])
    worst = float(np.max([measurement_picture_deviation(kappas, r, state_in) for kappas in chains]))
    return [ProtocolCheck("chain_matches_measurement_picture", worst <= 1e-10, worst)]


def outcome_independence_checks() -> list[ProtocolCheck]:
    """Each row the named check of a vacuum-input report, as the report holds it."""
    vac, ideal, rows = vacuum_state(1), IDEAL_SQUEEZING_R, []
    for name, build in (
        ("outcome_independent_identity_chain", lambda r: protocols.identity_chain(5, r, vac)),
        ("outcome_independent_squeezer", lambda r: protocols.squeezer_four_step(0.2, r, vac)),
    ):
        for limit, r in (("ideal", ideal), ("10db", protocols.db_to_squeezing_r(10.0))):
            rows.append((f"{name}_{limit}", build(r).check("outcome_independent")))
    for name, rescale in (
        ("outcome_independent_offline_squeezer_corrected", True),
        ("offline_squeezer_unscaled_control_detects_dependence", False),
    ):
        report = protocols.offline_squeezer(vac, ideal, 0.04, rescale_correction=rescale)
        own = "outcome_independent" if rescale else "outcome_dependence_detected"
        rows.append((name, report.check(own)))
    return [ProtocolCheck(name, check.passed, check.value) for name, check in rows]


def uncertainty_checks() -> list[ProtocolCheck]:
    worst = 0.0
    for n, r in ((1, 0.0), (3, 1.0), (5, protocols.db_to_squeezing_r(10.0)), (4, IDEAL_SQUEEZING_R)):
        cluster = linear_cluster(n, r)
        worst = max(worst, uncertainty_defect(cluster))
        worst = max(worst, uncertainty_defect(attach_input(vacuum_state(1), cluster)))
    for kappas in ([0.0] * 4, protocols.squeezer_steps(0.2)):
        out = chain_channel(kappas, protocols.db_to_squeezing_r(10.0))[0].apply(vacuum_state(1))
        worst = max(worst, uncertainty_defect(out))
    return [ProtocolCheck("uncertainty_relation_protocol_states", worst <= 1e-12, worst)]


def teleport_fidelity_checks() -> list[ProtocolCheck]:
    """The vacuum-input reports' closed-form fidelity checks at e^{-2r} = 1,
    0.5 and 0.1: the largest value, passing only if all three pass."""
    own = [
        protocols.offline_teleport(vacuum_state(1), -0.5 * math.log(eps)).check(
            "vacuum_fidelity_matches_closed_form"
        )
        for eps in (1.0, 0.5, 0.1)
    ]
    passed, worst = all(c.passed for c in own), max(c.value for c in own)
    return [ProtocolCheck("teleport_fidelity_closed_form", passed, worst)]


def run_all_checks() -> list[ProtocolCheck]:
    results = []
    results += symplectic_condition_checks()
    results += gate_identity_checks()
    results += cubic_identity_checks()
    results += bch_checks()
    results += squeezer_matrix_checks()
    results += measurement_picture_checks()
    results += outcome_independence_checks()
    results += uncertainty_checks()
    results += teleport_fidelity_checks()
    return results
