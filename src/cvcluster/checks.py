"""Self-contained invariant and identity checks backing the `verify` command.

Each check returns a ProtocolCheck with the measured value, so the table the
CLI prints doubles as a numerical record (in particular the cubic-scaling
ratios). Gate constructors are injectable so a deliberately corrupted gate
can be shown to fail. The homodyne check conditions random states with
``homodyne`` and with an independent precision-matrix oracle that works in
the measured mode's own frame; its states are drawn in whole-array calls
(``_draw_states``) and built per mode-count stack (``_build_states``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from . import algebra, protocols
from .protocols import ProtocolCheck
from .phase_space import (
    GaussianState,
    Quadrature,
    SymplecticGate,
    VACUUM_VARIANCE,
    _generator,
    beamsplitter_5050,
    controlled_z,
    controlled_z_pp,
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
from .cluster import ClusterSpec, attach_input, linear_cluster
from .engine import StepPlan, chain_channel

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


StateDraws = namedtuple(
    "StateDraws", "n_modes mode kind theta r shear partner displacement measured angle outcome"
)


def _draw_states(rng: np.random.Generator, n_modes: np.ndarray) -> StateDraws:
    """B random states, state b of N = ``n_modes[b]`` modes, each with one
    homodyne measurement, drawn in whole-array calls in this order: for each
    of the 3 max N gate slots of every state, its mode (uniform over the N),
    its kind (0 rotation, 1 squeezer, 2 shear, 3 controlled_z), a rotation
    theta ~ U(-pi, pi), a squeezer r ~ U(-1, 1), a shear ~ U(-1.5, 1.5) and
    a CZ partner (uniform over the other N - 1 modes), one (B, 3 max N) call
    each; then the displacement ~ N(0, 1), (B, 2 max N); then per state the
    measured mode, the quadrature angle ~ U(0, 2 pi) and the outcome ~ N(0, 1).

    A state applies its first 3N slots in order, each the gate of its kind;
    a controlled_z on a 1-mode state is an identity slot. A state uses the
    first 2N entries of its displacement.
    """
    n = np.asarray(n_modes)
    shape = (n.size, 3 * int(n.max()))
    mode = rng.integers(0, n[:, None], size=shape)
    kind = rng.integers(4, size=shape)
    theta, r, shear = (rng.uniform(-high, high, size=shape) for high in (math.pi, 1.0, 1.5))
    other = rng.integers(0, np.maximum(n - 1, 1)[:, None], size=shape)
    partner = other + (other >= mode)
    displacement = rng.normal(0.0, 1.0, size=(n.size, 2 * int(n.max())))
    measured = rng.integers(0, n)
    angle = rng.uniform(0.0, 2 * math.pi, size=n.size)
    outcome = rng.normal(0.0, 1.0, size=n.size)
    return StateDraws(
        n, mode, kind, theta, r, shear, partner, displacement, measured, angle, outcome
    )


def _build_states(draws: StateDraws, index: np.ndarray) -> list[GaussianState]:
    """The states ``index`` of ``draws``, which share a mode count N, in one stack.

    Each kind's gate entries, computed with the ``phase_space`` constructors'
    own formulas, go into a (B, 3N, 2N, 2N) stack of identities through that
    kind's mask of the first 3N slots. Gate slot t of every state is then
    one stacked ``S cov S^T`` with the symmetrization of ``apply_gate``, so
    each state gets the floats of its own ``apply_gate`` route; an identity
    slot is an exact no-op. The gates leave the mean exactly zero, so it is
    the displacement.
    """
    n_modes = int(draws.n_modes[index[0]])
    dim, slots = 2 * n_modes, 3 * n_modes
    kind, x = draws.kind[index, :slots], 2 * draws.mode[index, :slots]
    S = np.tile(np.eye(dim), (len(index), slots, 1, 1))
    b, t = np.nonzero(kind == 0)  # rotation
    theta, xr = draws.theta[index[b], t].tolist(), x[b, t]
    cos, sin = [math.cos(v) for v in theta], [math.sin(v) for v in theta]
    S[b, t, xr, xr] = S[b, t, xr + 1, xr + 1] = cos
    S[b, t, xr, xr + 1], S[b, t, xr + 1, xr] = np.negative(sin), sin
    b, t = np.nonzero(kind == 1)  # squeezer
    r, xs = draws.r[index[b], t].tolist(), x[b, t]
    S[b, t, xs, xs] = [math.exp(-v) for v in r]
    S[b, t, xs + 1, xs + 1] = [math.exp(v) for v in r]
    b, t = np.nonzero(kind == 2)  # shear
    S[b, t, x[b, t] + 1, x[b, t]] = draws.shear[index[b], t]
    b, t = np.nonzero((kind == 3) & (n_modes > 1))  # controlled_z on (mode, partner)
    y = 2 * draws.partner[index[b], t]
    S[b, t, x[b, t] + 1, y] = S[b, t, y + 1, x[b, t]] = 1.0
    cov = np.tile(VACUUM_VARIANCE * np.eye(dim), (len(index), 1, 1))
    for t in range(slots):
        cov = S[:, t] @ cov @ S[:, t].transpose(0, 2, 1)
        cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    return [GaussianState(shift, c) for shift, c in zip(draws.displacement[index, :dim], cov)]


def _oracle_condition(
    states: list[GaussianState], quads: list[Quadrature], outcomes: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force joint-Gaussian conditioning through the precision matrix,
    for B states of one mode count: an independent route from ``homodyne``'s
    Schur-complement update.

    Each state goes into the measured mode's own frame, orthonormal to
    rounding: row 0 of the map is c / |c| on the measured mode, row 1 its
    complement (-c_p, c_x) / |c|, and the other rows are every other
    quadrature, unchanged and in order. The transformed covariance is
    inverted, the conditional moments of rows 1.. are read from the
    precision blocks with row 0 pinned at outcome / |c|, and the complement
    row is dropped. Returns the other modes' means (B, 2N-2) and covariances
    (B, 2N-2, 2N-2), in ``homodyne``'s order.
    """
    dim = 2 * states[0].n_modes
    b = np.arange(len(states))
    x = 2 * np.array([quad.mode for quad in quads])
    norm = np.array([math.hypot(quad.c_x, quad.c_p) for quad in quads])
    u_x = np.array([quad.c_x for quad in quads]) / norm
    u_p = np.array([quad.c_p for quad in quads]) / norm
    L = np.zeros((len(states), dim, dim))
    L[b, 0, x], L[b, 0, x + 1], L[b, 1, x], L[b, 1, x + 1] = u_x, u_p, -u_p, u_x
    others = np.arange(dim - 2) + 2 * (np.arange(dim - 2) >= x[:, None])
    L[b[:, None], np.arange(2, dim), others] = 1.0
    mu_t = (L @ np.array([state.mean for state in states])[:, :, None])[:, :, 0]
    lam = np.linalg.inv(L @ np.array([state.cov for state in states]) @ L.transpose(0, 2, 1))
    cov_cond = np.linalg.inv(lam[:, 1:, 1:])
    residual = np.array(outcomes) / norm - mu_t[:, 0]
    pull = (cov_cond @ lam[:, 1:, :1])[:, :, 0] * residual[:, None]
    return (mu_t[:, 1:] - pull)[:, 1:], cov_cond[:, 1:, 1:]


def _oracle_stacks() -> Iterator[tuple[list[GaussianState], list[Quadrature], list[float]]]:
    """The homodyne oracle check's states, quadratures and forced outcomes,
    one stack per mode count in ascending order.

    The mode counts, N in {2, 3, 4}, are drawn first, in one call, and then
    the rest of every state (``_draw_states``); the states are built per
    mode-count stack (``_build_states``).
    """
    rng = _generator(ORACLE_SEED)
    draws = _draw_states(rng, rng.integers(2, 5, size=ORACLE_STATES))
    for n_modes in sorted(set(draws.n_modes.tolist())):
        index = np.flatnonzero(draws.n_modes == n_modes)
        measured, angle = draws.measured[index].tolist(), draws.angle[index].tolist()
        quads = [Quadrature(m, math.cos(a), math.sin(a)) for m, a in zip(measured, angle)]
        yield _build_states(draws, index), quads, draws.outcome[index].tolist()


def homodyne_oracle_checks() -> list[ProtocolCheck]:
    """``homodyne`` on ORACLE_STATES random states against ``_oracle_condition``.

    The states (``_oracle_stacks``) and the oracle are evaluated per
    mode-count stack; ``homodyne``, the function under test, runs once per
    state.
    """
    worst = 0.0
    for states, quads, outcomes in _oracle_stacks():
        mean, cov = _oracle_condition(states, quads, outcomes)
        conditioned = [
            homodyne(state, quad, forced=outcome)[1]
            for state, quad, outcome in zip(states, quads, outcomes)
        ]
        mean_dev = np.array([rest.mean for rest in conditioned]) - mean
        cov_dev = np.array([rest.cov for rest in conditioned]) - cov
        worst = max(worst, float(np.max(np.abs(mean_dev))), float(np.max(np.abs(cov_dev))))
    return [ProtocolCheck("homodyne_matches_conditioning_oracle", worst <= 1e-10, worst)]


def outcome_independence_checks() -> list[ProtocolCheck]:
    ten_db = protocols.db_to_squeezing_r(10.0)
    squeezer_steps = protocols.squeezer_steps(0.2)
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
    for steps in ([StepPlan(0.0)] * 4, protocols.squeezer_steps(0.2)):
        out = chain_channel(steps, protocols.db_to_squeezing_r(10.0))[0].apply(vacuum_state(1))
        worst = max(worst, uncertainty_defect(out))
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
