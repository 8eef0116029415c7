"""Canned experiments, each returning a structured report.

Cluster protocols run the measurement engine on a linear chain; the off-line
protocols teleport through a (possibly gate-modified) two-mode squeezed
resource. Every corrected protocol is an affine map of its initial product
state; each report reads its channel off that map, and carries the
deviation from the protocol's target matrix, the accumulated noise, and
named pass/fail checks; a channel whose S, N or deviation is not finite,
which a long or strongly sheared chain can reach, is refused with
``OverflowError``, and a finite channel that carries the input state to a
non-finite fidelity, outcome record or reported output variance with its
subclass ``InputOverflowError``. The channel does not depend on the homodyne
outcomes, so a report draws its outcome records the first time its
``records`` are read: a report read only for its channel, such as a sweep
point's, draws none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import algebra
from .phase_space import (
    VACUUM_VARIANCE,
    GaussianState,
    beamsplitter_5050,
    embed_symplectic,
    fourier,
    overlap_fidelity,
    purity,
    squeezer,
    vacuum_state,
)
from .engine import (
    GaussianChannel,
    MeasurementRecord,
    StepPlan,
    _chain_records,
    _sample_or_force,
    _teleportation,
    chain_channel,
)

INDEPENDENCE_TOL = 1e-9
DEPENDENCE_MIN = 1e-3
NOISE_PSD_TOL = 1e-10
ROUNDING_TOL = 64 * np.finfo(float).eps

# config-style protocol parameters and their defaults (the CLI's too)
PARAMETER_DEFAULTS = {
    "squeezing_db": 100.0,
    "kappa": 0.2,
    "n_nodes": 5,
    "segments": 1,
    "r_gate": 0.04,
}


def _bound(absolute: float, scale: float) -> float:
    """An absolute check bound, no tighter than the rounding of a quantity of
    size ``scale``: |N|max for a noise matrix, k |target|max for a matrix
    that a k-step chain multiplies up (each step's rounding is carried to the
    end), |target|max for a matrix formed in one step."""
    return max(absolute, ROUNDING_TOL * scale)


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


class InputOverflowError(OverflowError):
    """The channel is finite, but the input state's image under it overflows
    double precision."""


def _require_finite(values: Iterable[float], what: str) -> None:
    """Refuse input-dependent report values that overflowed."""
    if not all(map(math.isfinite, values)):
        raise InputOverflowError(
            f"the input state overflows double precision through the channel: {what} is not finite"
        )


def db_to_squeezing_r(db: float) -> float:
    """s dB of squeezing corresponds to e^{-2r} = 10^{-s/10}."""
    if db < 0:
        raise ValueError("squeezing_db must be >= 0")
    return db * math.log(10.0) / 20.0


@dataclass(frozen=True)
class ProtocolCheck:
    name: str
    passed: bool
    value: float | None = None


Records = tuple[tuple[MeasurementRecord, ...], ...]  # one tuple per trial


@dataclass(frozen=True)
class ProtocolReport:
    name: str
    parameters: dict
    channel: GaussianChannel
    target_S: np.ndarray
    deviation: float
    noise_trace: float
    fidelity: float | None
    checks: tuple[ProtocolCheck, ...]
    # a picklable zero-argument draw of the records, called at most once
    draw_records: Callable[[], Records] = field(compare=False, repr=False)

    @cached_property
    def records(self) -> Records:
        """One tuple of measurement records per trial, drawn when first read."""
        records = self.draw_records()
        outcomes = (
            v for trial in records for r in trial for v in (r.raw_outcome, r.rescaled_outcome)
        )
        _require_finite(outcomes, "an outcome record")
        return records

    def check(self, name: str) -> ProtocolCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": dict(self.parameters),
            "channel": {
                "S": [float(v) for v in self.channel.S.ravel()],
                "N": [
                    float(self.channel.N[0, 0]),
                    float(self.channel.N[0, 1]),
                    float(self.channel.N[1, 1]),
                ],
                "d": [float(v) for v in self.channel.d],
            },
            "target_S": [float(v) for v in np.asarray(self.target_S).ravel()],
            "deviation": float(self.deviation),
            "noise_trace": float(self.noise_trace),
            "fidelity": None if self.fidelity is None else float(self.fidelity),
            "records": [
                {
                    "trial": t,
                    "step_index": r.step_index,
                    "mode": r.mode,
                    "kappa": r.kappa,
                    "theta": r.theta,
                    "raw_outcome": r.raw_outcome,
                    "rescaled_outcome": r.rescaled_outcome,
                }
                for t, trial in enumerate(self.records)
                for r in trial
            ],
            "checks": [
                {
                    "name": c.name,
                    "passed": bool(c.passed),
                    "value": None if c.value is None else float(c.value),
                }
                for c in self.checks
            ],
        }


def _fidelity_to_ideal(
    target_S: np.ndarray, input_state: GaussianState, channel: GaussianChannel
) -> float | None:
    ideal_cov = target_S @ input_state.cov @ target_S.T
    ideal = GaussianState(target_S @ input_state.mean, 0.5 * (ideal_cov + ideal_cov.T))
    # a target too ill-conditioned for double precision leaves the ideal
    # covariance numerically singular, and its purity unresolved
    if not np.linalg.det(ideal.cov) > 0 or abs(purity(ideal) - 1.0) > 1e-9:
        return None
    return overlap_fidelity(ideal, channel.apply(input_state))


def _report(
    name: str,
    parameters: dict,
    channel: GaussianChannel,
    independence: ProtocolCheck,
    checks: Sequence[ProtocolCheck],
    target_S: np.ndarray,
    input_state: GaussianState,
    draw_records: Callable[[], Records],
    fidelity_reference_S: np.ndarray | None = None,
) -> ProtocolReport:
    deviation = float(np.linalg.norm(channel.S - target_S, ord="fro"))
    if not (np.isfinite([*channel.S.ravel(), *channel.N.ravel(), deviation]).all()):
        raise OverflowError("the channel overflows double precision: S, N or deviation not finite")
    # fidelity needs a pure reference, so it is taken against a symplectic
    # matrix even when the protocol's comparison target is an approximation
    reference = target_S if fidelity_reference_S is None else fidelity_reference_S
    lam_min = float(np.linalg.eigvalsh(channel.N)[0])
    psd_ok = lam_min >= -_bound(NOISE_PSD_TOL, _max_abs(channel.N))
    fidelity = _fidelity_to_ideal(reference, input_state, channel)
    if fidelity is not None:
        _require_finite([fidelity], "the fidelity")
    return ProtocolReport(
        name=name,
        parameters=parameters,
        channel=channel,
        target_S=np.array(target_S, dtype=float),
        deviation=deviation,
        noise_trace=float(np.trace(channel.N)),
        fidelity=fidelity,
        checks=(independence, ProtocolCheck("channel_noise_psd", psd_ok, lam_min), *checks),
        draw_records=draw_records,
    )


def _outcome_independent(leak: float) -> ProtocolCheck:
    return ProtocolCheck("outcome_independent", leak <= INDEPENDENCE_TOL, leak)


def _trial_seeds(seed: int, trials: int) -> range:
    """The outcome seeds of a report's trials: trial t draws with seed + t."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return range(seed, seed + trials)


def _chain_trials(
    input_state: GaussianState, steps: Sequence[StepPlan], r: float, seeds: range
) -> Records:
    """Each trial's chain records; the trial with seed s draws with s."""
    return tuple(tuple(_chain_records(input_state, steps, r, s)) for s in seeds)


def _chain_run(
    steps: Sequence[StepPlan], r: float, input_state: GaussianState, seed: int, trials: int
) -> tuple[GaussianChannel, float, Callable[[], Records]]:
    """Channel, leak and the per-trial record draw of a cluster chain."""
    if input_state.n_modes != 1:
        raise ValueError("input must be a single-mode state")
    channel, leak = chain_channel(steps, r)
    return channel, leak, partial(_chain_trials, input_state, steps, r, _trial_seeds(seed, trials))


def identity_chain(
    n_nodes: int, r: float, input_state: GaussianState, seed: int = 0, trials: int = 1
) -> ProtocolReport:
    """Propagate the input through an n-mode chain with plain p detections.

    ``n_nodes`` counts the input mode plus the cluster nodes, so the run
    makes n_nodes - 1 steps and the target is the (n_nodes - 1)-fold Fourier.
    """
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    steps = [StepPlan(0.0)] * (n_nodes - 1)
    channel, leak, draw_records = _chain_run(steps, r, input_state, seed, trials)
    expected_trace = (n_nodes - 1) * math.exp(-2 * r) * VACUUM_VARIANCE
    err = abs(float(np.trace(channel.N)) - expected_trace)
    return _report(
        "identity_chain",
        {"n_nodes": n_nodes, "squeezing_r": r, "seed": seed},
        channel,
        _outcome_independent(leak),
        [ProtocolCheck("noise_trace_matches_step_budget", err <= 1e-9, err)],
        np.linalg.matrix_power(fourier().S, n_nodes - 1),
        input_state,
        draw_records,
    )


def squeezer_four_step(
    kappa: float, r: float, input_state: GaussianState, seed: int = 0, trials: int = 1
) -> ProtocolReport:
    """Measurement-implemented squeezer on a five-mode chain.

    Four steps with shear parameters (kappa, kappa, -kappa, -kappa) realize
    diag(1 - kappa^2, 1 + kappa^2) up to O(kappa^3); the channel is also
    compared against the exact four-step product matrix.
    """
    steps = [StepPlan(kappa), StepPlan(kappa), StepPlan(-kappa), StepPlan(-kappa)]
    channel, leak, draw_records = _chain_run(steps, r, input_state, seed, trials)
    target = np.diag([1.0 - kappa**2, 1.0 + kappa**2])
    exact = algebra.squeezer_protocol_matrix(kappa)
    exact_dev = float(np.linalg.norm(channel.S - exact, ord="fro"))
    exact_ok = exact_dev <= _bound(1e-6, len(steps) * _max_abs(exact))
    target_dev = float(np.linalg.norm(channel.S - target, ord="fro"))
    out = channel.apply(input_state)
    checks = [
        ProtocolCheck("matches_exact_four_step_matrix", exact_ok, exact_dev),
        ProtocolCheck(
            "within_cubic_error_of_target",
            target_dev <= 2.0 * abs(kappa) ** 3 + 1e-12,
            target_dev,
        ),
        ProtocolCheck("output_var_x", True, float(out.cov[0, 0])),
        ProtocolCheck("output_var_p", True, float(out.cov[1, 1])),
    ]
    report = _report(
        "squeezer_four_step",
        {"kappa": kappa, "squeezing_r": r, "seed": seed},
        channel,
        _outcome_independent(leak),
        checks,
        target,
        input_state,
        draw_records,
        fidelity_reference_S=exact,
    )
    # after _report, which refuses an overflowing channel first
    _require_finite(out.cov.diagonal().tolist(), "the output variance")
    return report


def repeated_squeezer(
    segments: int,
    kappa: float,
    r: float,
    input_state: GaussianState,
    seed: int = 0,
    trials: int = 1,
) -> ProtocolReport:
    """Repeat the four-step squeezer pattern to accumulate squeezing."""
    if segments < 1:
        raise ValueError("segments must be >= 1")
    pattern = [StepPlan(kappa), StepPlan(kappa), StepPlan(-kappa), StepPlan(-kappa)]
    steps = pattern * segments
    channel, leak, draw_records = _chain_run(steps, r, input_state, seed, trials)
    target = np.linalg.matrix_power(algebra.squeezer_protocol_matrix(kappa), segments)
    dev = float(np.linalg.norm(channel.S - target, ord="fro"))
    ok = dev <= _bound(1e-6, len(steps) * _max_abs(target))
    return _report(
        "repeated_squeezer",
        {"segments": segments, "kappa": kappa, "squeezing_r": r, "seed": seed},
        channel,
        _outcome_independent(leak),
        [ProtocolCheck("matches_exact_segment_power", ok, dev)],
        target,
        input_state,
        draw_records,
    )


# ---------------------------------------------------------------------------
# off-line teleportation schemes
#
# The resource is prepared first (beamsplitter on oppositely squeezed vacua,
# then the off-line gate on its second half); teleportation combines the
# input with resource mode 1 at a second beamsplitter, reads u = x_in - x_1
# and v = p_in + p_1 off the two output ports (each reading carries a
# sqrt(2) beamsplitter factor), and corrects mode 2 by gain (u, v). The
# engine evaluates the corrected output, as for chains, at the
# Weyl-Heisenberg level from the factored initial moments.


def _offline_trials(mean: np.ndarray, cov: np.ndarray, seeds: range) -> Records:
    """Each trial's records, u from the x port and v from the p port, drawn
    from the measured values' law; the trial with seed s draws with s."""
    half = 1.0 / math.sqrt(2.0)
    draws = (_sample_or_force(mean, cov, s, 2).tolist() for s in seeds)
    return tuple(
        (
            MeasurementRecord(0, 1, 0.0, -math.pi / 2, u * half, u),
            MeasurementRecord(1, 0, 0.0, 0.0, v * half, v),
        )
        for u, v in draws
    )


def _offline_run(
    input_state: GaussianState,
    r: float,
    gate_S: np.ndarray,
    gain: np.ndarray,
    seed: int,
    trials: int,
) -> tuple[GaussianChannel, float, Callable[[], Records]]:
    """Channel, leak and the per-trial record draw of teleportation through
    the resource modified by ``gate_S``, corrected by ``gain`` times (u, v)."""
    seeds = _trial_seeds(seed, trials)
    bs = beamsplitter_5050().S
    S_big = (
        embed_symplectic(bs, [0, 1], 3)
        @ embed_symplectic(gate_S, [2], 3)
        @ embed_symplectic(bs, [1, 2], 3)
    )
    uv_rows = math.sqrt(2.0) * np.vstack([S_big[2], S_big[1]])  # u = sqrt2 x_1', v = sqrt2 p_0'
    # of the resource columns (x_1, p_1, x_2, p_2), x_1 and p_2 are anti-squeezed
    channel, leak, mean, cov = _teleportation(
        input_state, r, S_big[4:6], uv_rows, gain, [2, 5], [3, 4]
    )
    return channel, leak, partial(_offline_trials, mean, cov, seeds)


def offline_teleport(
    input_state: GaussianState, r: float, seed: int = 0, trials: int = 1
) -> ProtocolReport:
    """Unity-gain teleportation through the two-mode squeezed resource.

    The corrected output reproduces the input with e^{-2r}/2 of added noise
    per quadrature; the vacuum-input fidelity is 1/(1 + e^{-2r}).
    """
    identity = np.eye(2)
    channel, leak, draw_records = _offline_run(input_state, r, identity, identity, seed, trials)
    eps = math.exp(-2 * r)
    noise_err = _max_abs(channel.N - 0.5 * eps * np.eye(2))
    noise_ok = noise_err <= _bound(1e-9, _max_abs(channel.N))
    checks = [ProtocolCheck("noise_is_isotropic_teleportation_noise", noise_ok, noise_err)]
    is_vacuum = (
        np.allclose(input_state.mean, 0.0)
        and np.allclose(input_state.cov, VACUUM_VARIANCE * np.eye(2))
    )
    if is_vacuum:
        fid = overlap_fidelity(input_state, channel.apply(input_state))
        fid_err = abs(fid - 1.0 / (1.0 + eps))
        checks.append(
            ProtocolCheck("vacuum_fidelity_matches_closed_form", fid_err <= 1e-6, fid_err)
        )
    return _report(
        "offline_teleport",
        {"squeezing_r": r, "seed": seed},
        channel,
        _outcome_independent(leak),
        checks,
        identity,
        input_state,
        draw_records,
    )


def offline_squeezer(
    input_state: GaussianState,
    r: float,
    r_gate: float,
    seed: int = 0,
    rescale_correction: bool = True,
    trials: int = 1,
) -> ProtocolReport:
    """Teleportation-based squeezer: the gate is applied to the resource
    off-line, and the feedforward displacements are rescaled by
    (e^{-r_gate}, e^{+r_gate}).

    With ``rescale_correction=False`` the plain teleportation displacements
    are applied instead; the run is then outcome dependent, which the
    report's checks flag as the expected behavior of this negative control.
    Its channel is then the outcome-averaged one.
    """
    # the gate maps the byproduct X(-u)Z(-v) to the displacement with
    # coefficients gate (u, v): the gate is also the gain and the target
    gate = squeezer(r_gate).S
    gain = gate if rescale_correction else np.eye(2)
    channel, leak, draw_records = _offline_run(input_state, r, gate, gain, seed, trials)
    if rescale_correction:
        independence = _outcome_independent(leak)
    else:
        independence = ProtocolCheck("outcome_dependence_detected", leak > DEPENDENCE_MIN, leak)
    target_dev = float(np.linalg.norm(channel.S - gate, ord="fro"))
    target_ok = target_dev <= _bound(1e-6, _max_abs(gate))
    noise_oracle = (
        0.5
        * math.exp(-2 * r)
        * np.diag([math.exp(-2 * r_gate), math.exp(2 * r_gate)])
    )
    noise_err = _max_abs(channel.N - noise_oracle)
    noise_ok = noise_err <= _bound(1e-9, _max_abs(channel.N))
    checks = [
        ProtocolCheck("channel_matches_target_squeezer", target_ok, target_dev),
        ProtocolCheck("noise_is_squeezed_teleportation_noise", noise_ok, noise_err),
    ]
    return _report(
        "offline_squeezer",
        {
            "r_resource": r,
            "r_gate": r_gate,
            "seed": seed,
            "rescale_correction": rescale_correction,
        },
        channel,
        independence,
        checks,
        gate,
        input_state,
        draw_records,
    )


# ---------------------------------------------------------------------------
# protocol table and sweeps

# protocol id -> (builder, the PARAMETER_DEFAULTS names it reads besides the
# squeezing, which every protocol reads)
PROTOCOLS = {
    "identity_chain": (identity_chain, ("n_nodes",)),
    "squeezer_four_step": (squeezer_four_step, ("kappa",)),
    "repeated_squeezer": (repeated_squeezer, ("segments", "kappa")),
    "offline_teleport": (offline_teleport, ()),
    "offline_squeezer": (offline_squeezer, ("r_gate",)),
}


def run_named_protocol(
    protocol_id: str, params: dict, seed: int = 0, trials: int = 1
) -> ProtocolReport:
    """Run a protocol by name with config-style parameters.

    ``params`` gives the resource squeezing as ``squeezing_db`` (converted
    here, once); missing parameters take their ``PARAMETER_DEFAULTS`` value,
    and ``input_state`` defaults to the vacuum. Trial t's records are drawn
    with ``seed + t`` when the report's ``records`` are first read.
    """
    if protocol_id not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol_id!r}; known: {', '.join(PROTOCOLS)}")
    builder, names = PROTOCOLS[protocol_id]
    params = {**PARAMETER_DEFAULTS, **params}
    r = db_to_squeezing_r(float(params["squeezing_db"]))
    input_state = params.get("input_state") or vacuum_state(1)
    args = {name: type(PARAMETER_DEFAULTS[name])(params[name]) for name in names}
    return builder(r=r, input_state=input_state, seed=seed, trials=trials, **args)


def sweep(protocol_id: str, base_params: dict, param: str, values: Sequence) -> list[dict]:
    """Run a protocol over a one-parameter grid; one summary row per point.

    A row holds only quantities of its point's channel, which does not
    depend on the outcomes, so no point draws records and a sweep takes no
    seed.
    """
    if len(values) == 0:
        raise ValueError("sweep values must be nonempty")
    rows = []
    for i, value in enumerate(values):
        params = dict(base_params)
        params[param] = value
        report = run_named_protocol(protocol_id, params)
        rows.append(
            {
                "index": i,
                "param": param,
                "value": value,
                "deviation": report.deviation,
                "noise_trace": report.noise_trace,
                "fidelity": report.fidelity,
                "checks_passed": report.all_passed(),
            }
        )
    return rows
