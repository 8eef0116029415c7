"""Every report's facts against the 60-digit reference of ``reference.py``.

A report reads its deviation, tr N, the smaller eigenvalue of N (the value
of ``channel_noise_psd``), the output's moments and its fidelity off the
channel in closed-form 2x2 float arithmetic. Each must lie within the
reference's a-priori bound, over the golden configs, the benchmark decks of
``protocol_mix`` and ``long_chain`` at seeds 1-3, the off-line squeezer's
negative control (whose S is not its fidelity reference, so that the two
means differ) and the null-fidelity grid of ``repeated_squeezer``; where the independent route through
``GaussianState`` and ``phase_space.overlap_fidelity`` resolves a fidelity,
its value must lie within the same bound. Each check must hold a Python bool
and a Python float or None: the run document writes them as they are held.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import cvcluster as cv
from cvcluster import algebra, cli, protocols
from reference import report_facts

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CONFIGS = sorted((ROOT / "tests" / "data" / "golden").glob("*.config.json"))


def _decks():
    spec = importlib.util.spec_from_file_location("decks", ROOT / "perfbench" / "decks.py")
    decks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(decks)
    return decks


def _fidelity_reference(report) -> np.ndarray:
    """The pure reference R whose ideal output the fidelity is taken against."""
    if report.name == "squeezer_four_step":
        return algebra.squeezer_protocol_matrix(report.parameters["kappa"])
    return report.target_S


def _route_fidelity(report, state):
    """The fidelity through ``GaussianState``, ``purity`` and ``overlap_fidelity``,
    with the report's purity gate, or None where that gate leaves it null."""
    R = _fidelity_reference(report)
    ideal_cov = R @ state.cov @ R.T
    ideal = cv.GaussianState(R @ state.mean, 0.5 * (ideal_cov + ideal_cov.T))
    if not np.linalg.det(ideal.cov) > 0 or abs(cv.purity(ideal) - 1.0) > 1e-9:
        return None
    return cv.overlap_fidelity(ideal, report.channel.apply(state))


def assert_facts_meet_reference(report, state) -> None:
    """Each fact of ``report`` within its reference bound, and the fidelity
    through ``_route_fidelity`` where that resolves it."""
    S, N, d = (a.tolist() for a in (report.channel.S, report.channel.N, report.channel.d))
    mean, cov = state.mean.tolist(), state.cov.tolist()
    facts = report_facts(S, N, d, report.target_S.tolist(), _fidelity_reference(report).tolist(),
                         mean, cov)
    got = {
        "deviation": report.deviation,
        "noise_trace": report.noise_trace,
        "lambda_min": report.check("channel_noise_psd").value,
        **protocols._image(S, mean, cov, N, d)._asdict(),
    }
    if report.name == "squeezer_four_step":
        assert report.check("output_var_x").value == got["var_x"]
        assert report.check("output_var_p").value == got["var_p"]
    if report.fidelity is not None:
        got["fidelity"] = report.fidelity
    for name, value in got.items():
        assert facts[name].holds(value), (report.name, name, value, facts[name])
    route = _route_fidelity(report, state)
    if route is not None:
        assert facts["fidelity"].holds(route), (report.name, "route fidelity", route)
    assert report.noise_trace == N[0][0] + N[1][1]
    # the run document writes each check as it is held: a numpy bool is not JSON
    for check in report.checks:
        assert type(check.passed) is bool and type(check.value) in (float, type(None)), check


def _config_reports(raw: dict):
    """Each report a run or sweep config builds, with its input state."""
    cfg = cli.ExperimentConfig.from_dict(raw)
    params = {**cfg.params, "input_state": cfg.input_state}
    points = [{}] if cfg.sweep is None else [{cfg.sweep["param"]: v} for v in cfg.sweep["values"]]
    return [(protocols.run_named_protocol(cfg.protocol, {**params, **point}), cfg.input_state)
            for point in points]


@pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=lambda c: c.name.removesuffix(".config.json"))
def test_golden_reports_meet_the_reference(config):
    for report, state in _config_reports(json.loads(config.read_text())):
        assert_facts_meet_reference(report, state)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["protocol_mix", "long_chain"])
def test_deck_reports_meet_the_reference(workload, seed):
    for entry in _decks().make_deck(workload, seed):
        for report, state in _config_reports(entry["config"]):
            assert_facts_meet_reference(report, state)


@pytest.mark.parametrize("r_gate", [0.04, 0.5, 2.0])
def test_negative_control_reports_meet_the_reference(r_gate):
    # the unscaled correction leaves S away from the gate, so the two means differ
    # and the fidelity's exponent q is not zero
    # a rotated squeezed input gives the covariances an off-diagonal entry
    rotated = cv.apply_gate(cv.squeezed_vacuum(0.5, "x"), cv.rotation(0.3), [0]).cov
    inputs = [(re, im, cov) for re, im in [(0.0, 0.0), (0.7, -1.2), (-3.0, 2.5)]
              for cov in (0.25 * np.eye(2), rotated)]
    for db, (re, im, cov) in itertools.product([0.0, 10.0, 100.0], inputs):
        state = cv.GaussianState(np.array([re, im]), cov)
        report = cv.offline_squeezer(state, cv.db_to_squeezing_r(db), r_gate, rescale_correction=False)
        assert report.fidelity is not None
        assert_facts_meet_reference(report, state)


GRID_INPUTS = {
    "vacuum": cv.vacuum_state(1),
    "coherent": cv.coherent_state(0.4, -1.2),
    "squeezed": cv.squeezed_vacuum(0.7, "x"),
}
GRID_DB = (0.0, 10.0, 50.0, 100.0)
# the (kappa, segments, input) points of the grid whose fidelity is null at every
# dB: the purity of the ideal output R V R^T, R the segment power, is not
# resolved to 1e-9 once the cancellation in its determinant, about eps |R|^4 |V|^2,
# reaches that (the dB changes S and N, not R or V). 80 of the 432 points; the
# route through numpy's det also left kappa 0.7 with 10 segments (every input)
# and kappa 1 with 5 segments (squeezed input) null, 96 points: those sit at the
# gate's edge with kappa 0.5 and 20 segments, where rounding decides
NULL_FIDELITY = {
    *itertools.product([0.5], [20], ["vacuum", "coherent"]),
    *itertools.product([0.5], [50], GRID_INPUTS),
    *itertools.product([0.7], [20, 50], GRID_INPUTS),
    *itertools.product([1.0], [10, 20, 50], GRID_INPUTS),
}


@pytest.mark.parametrize("segments", [1, 2, 5, 10, 20, 50])
@pytest.mark.parametrize("kappa", [0.1, 0.2, 0.3, 0.5, 0.7, 1.0])
def test_null_fidelity_grid(kappa, segments):
    for kind, state in GRID_INPUTS.items():
        for db in GRID_DB:
            report = cv.repeated_squeezer(segments, kappa, cv.db_to_squeezing_r(db), state)
            assert (report.fidelity is None) == ((kappa, segments, kind) in NULL_FIDELITY)
            assert_facts_meet_reference(report, state)
