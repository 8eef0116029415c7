"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the test outcomes.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import cvcluster as cv
from cvcluster import checks, cli
from conftest import condition_on_functional_oracle, random_gaussian_state
from explicit_states import modified_resource
from measurement_picture import apply_correction

IDEAL = cv.IDEAL_SQUEEZING_R
TEN_DB_R = math.log(10.0) / 2.0
VAC = cv.vacuum_state(1)


def report_line(index, passed, text):
    print(f"[acceptance {index:02d}] {'PASS' if passed else 'FAIL'}: {text}")
    assert passed, text


def test_01_four_step_squeezer_channel():
    kappa = 0.2
    report = cv.squeezer_four_step(kappa, IDEAL, VAC)
    entrywise = np.max(
        np.abs(report.channel.S - np.array([[0.9616, 0.008], [0.008, 1.04]]))
    )
    frob = np.linalg.norm(report.channel.S - np.diag([0.96, 1.04]), ord="fro")
    report_line(
        1,
        entrywise <= 1e-6 and frob <= 2 * kappa**3,
        f"four-step squeezer S entrywise err {entrywise:.2e} <= 1e-6, "
        f"||S - diag(0.96, 1.04)||_F = {frob:.6f} <= {2 * kappa**3}",
    )


def test_02_cubic_scaling_of_squeezer_error():
    kappas = [0.025, 0.05, 0.1, 0.2]
    deviations = {k: cv.squeezer_four_step(k, IDEAL, VAC).deviation for k in kappas}
    normalized = [deviations[k] / k**3 for k in kappas]
    spread = (max(normalized) - min(normalized)) / min(normalized)
    ratios = [deviations[2 * k] / deviations[k] for k in (0.025, 0.05, 0.1)]
    report_line(
        2,
        spread <= 0.15 and all(7.0 <= r <= 9.0 for r in ratios),
        f"deviation/kappa^3 spread {spread:.3%} <= 15%, "
        f"doubling ratios {[f'{r:.3f}' for r in ratios]} within [7, 9]",
    )


def test_03_outcome_independence_all_protocols():
    worst = {}
    for r_label, r in (("10dB", TEN_DB_R), ("ideal", IDEAL)):
        reports = [
            cv.identity_chain(5, r, VAC),
            cv.squeezer_four_step(0.2, r, VAC),
            cv.repeated_squeezer(2, 0.1, r, VAC),
            cv.offline_teleport(VAC, r),
            cv.offline_squeezer(VAC, r, 0.04),
        ]
        for report in reports:
            worst[f"{report.name}@{r_label}"] = report.check("outcome_independent").value
    report_line(
        3,
        all(v <= 1e-9 for v in worst.values()),
        "corrected-output weight on anti-squeezed resource quadratures per protocol: "
        + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()),
    )


def test_04_finite_squeezing_noise_budget():
    chain = cv.identity_chain(5, TEN_DB_R, VAC)
    trace_err = abs(chain.noise_trace - 0.1)
    single = cv.identity_chain(2, TEN_DB_R, VAC)
    single_err = np.max(np.abs(single.channel.N - np.diag([0.0, 0.025])))
    report_line(
        4,
        trace_err <= 1e-9 and single_err <= 1e-9,
        f"identity_chain(5, 10dB) trace(N) err {trace_err:.2e} <= 1e-9, "
        f"single step N err {single_err:.2e} <= 1e-9",
    )


def test_05_teleportation_fidelity():
    errors = {}
    for eps, expected in ((1.0, 0.5), (0.5, 2.0 / 3.0), (0.1, 1.0 / 1.1)):
        r = -0.5 * math.log(eps)
        errors[eps] = abs(cv.offline_teleport(VAC, r).fidelity - expected)
    report_line(
        5,
        all(err <= 1e-6 for err in errors.values()),
        "vacuum teleport fidelity vs 1/(1+e^{-2r}): "
        + ", ".join(f"e^-2r={eps}: err {err:.1e}" for eps, err in errors.items()),
    )


def test_06_offline_squeezer_correction_scaling():
    r_gate = 0.04
    scaled = cv.offline_squeezer(VAC, IDEAL, r_gate)
    target = np.diag([math.exp(-r_gate), math.exp(r_gate)])
    channel_err = np.max(np.abs(scaled.channel.S - target))
    indep = scaled.check("outcome_independent").value
    control = cv.offline_squeezer(VAC, IDEAL, r_gate, rescale_correction=False)
    dependence = control.check("outcome_dependence_detected").value
    report_line(
        6,
        channel_err <= 1e-6 and indep <= 1e-9 and dependence > 1e-3,
        f"rescaled corrections: S err {channel_err:.2e} <= 1e-6, independence "
        f"{indep:.1e} <= 1e-9; unscaled control dependence {dependence:.2e} > 1e-3",
    )


def test_07_cubic_feedforward_identity():
    grid = [Fraction(v, 2) for v in (-2, -1, 0, 1, 2)]
    exact = True
    for kappa in grid:
        for s1 in grid:
            exact &= cv.verify_cubic_feedforward(kappa, s1) == (kappa * s1**3, 0, 0, 0)
    report_line(
        7,
        exact,
        "cubic feedforward residual equals the constant kappa s1^3 exactly "
        "(rational arithmetic, 5x5 grid), degree-1..3 coefficients exactly zero",
    )


def test_08_bch_identity_scaling():
    value = cv.bch_squeezer_residual(0.1)
    ratios = [
        cv.bch_squeezer_residual(2 * k) / cv.bch_squeezer_residual(k)
        for k in (0.025, 0.05, 0.1)
    ]
    report_line(
        8,
        value <= 1e-2 and all(7.0 <= r <= 9.0 for r in ratios),
        f"BCH residual {value:.2e} <= 1e-2 at kappa=0.1, doubling ratios "
        f"{[f'{r:.3f}' for r in ratios]} within [7, 9]",
    )


def test_09_homodyne_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(4242))
    worst = 0.0
    for _ in range(100):
        n_modes = int(rng.integers(2, 5))
        state = random_gaussian_state(int(rng.integers(2**31)), n_modes)
        mode = int(rng.integers(n_modes))
        angle = float(rng.uniform(0, 2 * math.pi))
        quad = (mode, math.cos(angle), math.sin(angle))
        outcome = float(rng.normal())
        _, conditioned = cv.homodyne(state, *quad, forced=outcome)
        _, expected = condition_on_functional_oracle(state, *quad, outcome)
        worst = max(
            worst,
            float(np.max(np.abs(conditioned.mean - expected.mean))),
            float(np.max(np.abs(conditioned.cov - expected.cov))),
        )
    report_line(
        9,
        worst <= 1e-10,
        f"homodyne vs dense joint-Gaussian conditioning on 100 random "
        f"2-4 mode states: max deviation {worst:.2e} <= 1e-10",
    )


def test_10_symplectic_and_uncertainty_suite():
    gate_defect = max(
        cv.symplectic_defect(g)
        for g in (
            cv.controlled_z(),
            cv.controlled_z_pp(),
            cv.fourier(),
            cv.rotation(0.9),
            cv.shear(1.7),
            cv.p_shear(-0.8),
            cv.squeezer(1.1),
            cv.beamsplitter_5050(),
        )
    )
    worst_defect = 0.0
    for r in (TEN_DB_R, IDEAL):
        cluster = cv.linear_cluster(4, r)
        attached = cv.attach_input(VAC, cluster)
        steps = [cv.StepPlan(0.2), cv.StepPlan(0.2), cv.StepPlan(-0.2), cv.StepPlan(-0.2)]
        out, _, frame = cv.run_protocol(VAC, steps, r, 5)
        resource = modified_resource(r, cv.squeezer(0.04))
        teleport_pre = cv.apply_gate(
            cv.tensor(VAC, resource), cv.beamsplitter_5050(), [0, 1]
        )
        for state in (
            cluster,
            attached,
            out,
            apply_correction(out, frame),
            resource,
            teleport_pre,
        ):
            worst_defect = max(worst_defect, cv.uncertainty_defect(state))
    report_line(
        10,
        gate_defect <= 1e-12 and worst_defect <= 1e-12,
        f"max |SJS^T - J| = {gate_defect:.2e} <= 1e-12 over all gate "
        f"constructors; max normalized uncertainty defect {worst_defect:.2e} "
        f"over protocol states",
    )


def test_11_cli_determinism(tmp_path):
    config = {
        "protocol": "squeezer_four_step",
        "squeezing_db": 50.0,
        "kappa": 0.2,
        "input": {"kind": "vacuum"},
        "seed": 7,
        "trials": 3,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["run", str(cfg_path), "--output", str(out1), "--quiet"]) == 0
    assert cli.main(["run", str(cfg_path), "--output", str(out2), "--quiet"]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report_line(
        11,
        identical,
        "identical config + seed produce byte-identical result documents "
        f"({len(out1.read_bytes())} bytes)",
    )
