"""Self-contained invariant and identity checks backing the `verify` command.

Each check returns a ProtocolCheck with the measured value, so the table the
CLI prints doubles as a numerical record (in particular the cubic-scaling
ratios). Gate constructors are injectable so a deliberately corrupted gate
can be shown to fail.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import algebra, protocols
from .protocols import ProtocolCheck
from .phase_space import (
    GaussianState,
    Quadrature,
    SymplecticGate,
    VACUUM_VARIANCE,
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
    transform_moments,
    vacuum_state,
    IDEAL_SQUEEZING_R,
)
from .cluster import ClusterSpec, attach_input, linear_cluster
from .engine import StepPlan, apply_correction, chain_channel, run_protocol

ORACLE_STATES, ORACLE_SEED = 100, 12345  # the random states the homodyne oracle check conditions


def default_gates() -> dict[str, SymplecticGate]:
    return {
        "controlled_z": controlled_z(),
        "controlled_z_pp": controlled_z_pp(),
        "fourier": fourier(),
        "rotation(0.7)": rotation(0.7),
        "shear(0.3)": shear(0.3),
        "p_shear(0.3)": p_shear(0.3),
        "squeezer(0.5)": squeezer(0.5),
        "beamsplitter_5050": beamsplitter_5050(),
    }


def symplectic_condition_checks(
    gates: dict[str, SymplecticGate] | None = None,
) -> list[ProtocolCheck]:
    gates = default_gates() if gates is None else gates
    worst = max(symplectic_defect(g.S) for g in gates.values())
    return [ProtocolCheck("symplectic_condition_all_gates", worst <= 1e-12, worst)]


def gate_identity_checks(fourier_gate: SymplecticGate | None = None) -> list[ProtocolCheck]:
    F = (fourier_gate or fourier()).S
    results = []
    dev = float(np.max(np.abs(rotation(math.pi / 2).S - F)))
    results.append(ProtocolCheck("rotation_half_pi_equals_fourier", dev <= 1e-12, dev))
    dev = float(np.max(np.abs(F @ shear(0.4).S @ np.linalg.inv(F) - p_shear(0.4).S)))
    results.append(ProtocolCheck("fourier_conjugates_shear_to_p_shear", dev <= 1e-12, dev))
    FF = np.zeros((4, 4))
    FF[:2, :2] = F
    FF[2:, 2:] = F
    conj = FF @ controlled_z().S @ np.linalg.inv(FF)
    dev = float(np.max(np.abs(conj - controlled_z_pp().S)))
    results.append(ProtocolCheck("fourier_pair_conjugates_cz_to_cz_pp", dev <= 1e-12, dev))
    cz = controlled_z().S
    for mode in (0, 1):
        emb = np.eye(4)
        emb[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = shear(0.7).S
        dev = float(np.max(np.abs(cz @ emb - emb @ cz)))
        results.append(
            ProtocolCheck(f"cz_commutes_with_shear_on_mode_{mode}", dev == 0.0, dev)
        )
    return results


def cubic_identity_checks() -> list[ProtocolCheck]:
    worst = Fraction(0)
    low_degree = Fraction(0)
    grid = [Fraction(v, 2) for v in (-2, -1, 0, 1, 2)]
    for kappa in grid:
        for s1 in grid:
            residual = algebra.verify_cubic_feedforward(kappa, s1)
            worst = max(worst, abs(residual.coefficient(0) - kappa * s1**3))
            for deg in (1, 2, 3):
                low_degree = max(low_degree, abs(residual.coefficient(deg)))
    return [
        ProtocolCheck("cubic_feedforward_constant_is_phase", worst == 0, float(worst)),
        ProtocolCheck(
            "cubic_feedforward_degrees_1_to_3_vanish", low_degree == 0, float(low_degree)
        ),
    ]


def bch_checks() -> list[ProtocolCheck]:
    results = [
        ProtocolCheck(
            "bch_residual_small_at_0.1",
            algebra.bch_squeezer_residual(0.1) <= 1e-2,
            algebra.bch_squeezer_residual(0.1),
        )
    ]
    for kappa in (0.025, 0.05, 0.1):
        ratio = algebra.bch_squeezer_residual(2 * kappa) / algebra.bch_squeezer_residual(kappa)
        results.append(
            ProtocolCheck(f"bch_cubic_scaling_ratio_at_{kappa:g}", 7.0 <= ratio <= 9.0, ratio)
        )
    return results


def squeezer_matrix_checks() -> list[ProtocolCheck]:
    results = []
    det_err = abs(float(np.linalg.det(algebra.squeezer_protocol_matrix(0.2))) - 1.0)
    results.append(ProtocolCheck("four_step_matrix_det_one", det_err <= 1e-12, det_err))
    for kappa in (0.025, 0.05, 0.1):
        dev = lambda k: float(
            np.linalg.norm(
                algebra.squeezer_protocol_matrix(k) - np.diag([1 - k**2, 1 + k**2]), "fro"
            )
        )
        ratio = dev(2 * kappa) / dev(kappa)
        results.append(
            ProtocolCheck(
                f"four_step_deviation_ratio_at_{kappa:g}", 7.0 <= ratio <= 9.0, ratio
            )
        )
    return results


def _random_state(rng: np.random.Generator, n_modes: int) -> GaussianState:
    """A random displaced Gaussian state: 3 n_modes random gates on the vacuum.

    The moments stay arrays through the gates (``embed_symplectic`` then
    ``transform_moments``, as ``apply_gate`` does), and one ``GaussianState``
    is made at the end; the floats are those of the ``apply_gate`` route.
    """
    mean, cov = np.zeros(2 * n_modes), VACUUM_VARIANCE * np.eye(2 * n_modes)
    for _ in range(3 * n_modes):
        mode = int(rng.integers(n_modes))
        kind = int(rng.integers(4))
        if kind == 0:
            gate, modes = rotation(rng.uniform(-math.pi, math.pi)), [mode]
        elif kind == 1:
            gate, modes = squeezer(rng.uniform(-1.0, 1.0)), [mode]
        elif kind == 2:
            gate, modes = shear(rng.uniform(-1.5, 1.5)), [mode]
        elif n_modes > 1:
            other = int(rng.integers(n_modes - 1))
            other = other if other < mode else other + 1
            gate, modes = controlled_z(), [mode, other]
        else:
            continue
        mean, cov = transform_moments(mean, cov, embed_symplectic(gate.S, modes, n_modes))
    return GaussianState(mean + rng.normal(0.0, 1.0, size=2 * n_modes), cov)


def _oracle_condition(
    state: GaussianState, c: np.ndarray, outcome: float
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force joint-Gaussian conditioning through the precision matrix.

    Completes c to a basis, inverts the full transformed covariance, and
    reads the conditional moments of the complementary coordinates from the
    precision blocks; an independent route from the Schur-complement update.
    """
    n = c.size
    basis = [c / np.linalg.norm(c)]
    for e in np.eye(n):
        w = e - sum(np.dot(e, b) * b for b in basis)
        if np.linalg.norm(w) > 1e-9:
            basis.append(w / np.linalg.norm(w))
    L = np.vstack(basis)  # row 0 is the measured direction
    mu_t = L @ state.mean
    cov_t = L @ state.cov @ L.T
    lam = np.linalg.inv(cov_t)
    lam_rr = lam[1:, 1:]
    lam_r0 = lam[1:, 0]
    scaled_outcome = outcome / np.linalg.norm(c)
    cov_cond = np.linalg.inv(lam_rr)
    mu_cond = mu_t[1:] - cov_cond @ lam_r0 * (scaled_outcome - mu_t[0])
    # back to the original coordinates; the measured direction is pinned at
    # the outcome and contributes nothing to the conditional covariance
    inv_L = np.linalg.inv(L)
    mu_full = inv_L @ np.concatenate([[scaled_outcome], mu_cond])
    back = inv_L[:, 1:]
    return mu_full, back @ cov_cond @ back.T


def homodyne_oracle_checks() -> list[ProtocolCheck]:
    rng = np.random.Generator(np.random.PCG64(ORACLE_SEED))
    worst = 0.0
    for _ in range(ORACLE_STATES):
        n_modes = int(rng.integers(2, 5))
        state = _random_state(rng, n_modes)
        mode = int(rng.integers(n_modes))
        angle = rng.uniform(0.0, 2 * math.pi)
        quad = Quadrature(mode, math.cos(angle), math.sin(angle))
        outcome = float(rng.normal(0.0, 1.0))
        _, conditioned = homodyne(state, quad, forced=outcome)
        c = np.zeros(2 * n_modes)
        c[2 * mode], c[2 * mode + 1] = quad.c_x, quad.c_p
        mu_full, cov_full = _oracle_condition(state, c, outcome)
        keep = [k for k in range(2 * n_modes) if k not in (2 * mode, 2 * mode + 1)]
        worst = max(
            worst,
            float(np.max(np.abs(conditioned.mean - mu_full[keep]))),
            float(np.max(np.abs(conditioned.cov - cov_full[np.ix_(keep, keep)]))),
        )
    return [ProtocolCheck("homodyne_matches_conditioning_oracle", worst <= 1e-10, worst)]


def outcome_independence_checks() -> list[ProtocolCheck]:
    ten_db = protocols.db_to_squeezing_r(10.0)
    squeezer_steps = [StepPlan(0.2), StepPlan(0.2), StepPlan(-0.2), StepPlan(-0.2)]
    results = []
    for name, steps, r in (
        ("identity_chain_ideal", [StepPlan(0.0)] * 4, IDEAL_SQUEEZING_R),
        ("identity_chain_10db", [StepPlan(0.0)] * 4, ten_db),
        ("squeezer_ideal", squeezer_steps, IDEAL_SQUEEZING_R),
        ("squeezer_10db", squeezer_steps, ten_db),
    ):
        _, leak = chain_channel(steps, r)
        results.append(ProtocolCheck(f"outcome_independent_{name}", leak <= 1e-9, leak))
    vac = vacuum_state(1)
    for name, rescale, limit in (
        ("offline_squeezer_corrected", True, None),
        ("offline_squeezer_unscaled_control", False, 1e-3),
    ):
        report = protocols.offline_squeezer(
            vac, IDEAL_SQUEEZING_R, 0.04, rescale_correction=rescale
        )
        if rescale:
            dev = report.check("outcome_independent").value
            results.append(ProtocolCheck(f"outcome_independent_{name}", dev <= 1e-9, dev))
        else:
            dev = report.check("outcome_dependence_detected").value
            results.append(ProtocolCheck(f"{name}_detects_dependence", dev > limit, dev))
    return results


def uncertainty_checks() -> list[ProtocolCheck]:
    worst = 0.0
    for n, r in ((1, 0.0), (3, 1.0), (5, protocols.db_to_squeezing_r(10.0)), (4, IDEAL_SQUEEZING_R)):
        cluster = linear_cluster(ClusterSpec(n, r))
        worst = max(worst, uncertainty_defect(cluster))
        worst = max(worst, uncertainty_defect(attach_input(vacuum_state(1), cluster)))
    for steps in ([StepPlan(0.0)] * 4, [StepPlan(0.2), StepPlan(0.2), StepPlan(-0.2), StepPlan(-0.2)]):
        out, _, frame = run_protocol(vacuum_state(1), steps, protocols.db_to_squeezing_r(10.0), 3)
        worst = max(worst, uncertainty_defect(out))
        worst = max(worst, uncertainty_defect(apply_correction(out, frame)))
    return [ProtocolCheck("uncertainty_relation_protocol_states", worst <= 1e-12, worst)]


def teleport_fidelity_checks() -> list[ProtocolCheck]:
    worst = 0.0
    for eps in (1.0, 0.5, 0.1):
        r = -0.5 * math.log(eps)
        report = protocols.offline_teleport(vacuum_state(1), r)
        expected = 1.0 / (1.0 + eps)
        worst = max(worst, abs(report.fidelity - expected))
    return [ProtocolCheck("teleport_fidelity_closed_form", worst <= 1e-6, worst)]


def run_all_checks() -> list[ProtocolCheck]:
    results = []
    results += symplectic_condition_checks()
    results += gate_identity_checks()
    results += cubic_identity_checks()
    results += bch_checks()
    results += squeezer_matrix_checks()
    results += homodyne_oracle_checks()
    results += outcome_independence_checks()
    results += uncertainty_checks()
    results += teleport_fidelity_checks()
    return results
