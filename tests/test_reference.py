"""Every report's facts against the 60-digit reference of ``reference.py``.

A report reads its deviation, tr N, the smaller eigenvalue of N (the value
of ``channel_noise_psd``) and its fidelity off the channel in closed-form 2x2
float arithmetic, the fidelity from the input's image (``protocols._image``),
whose moments are held to the reference too. Each must lie within the
reference's a-priori bound, over the golden configs, the benchmark decks of
``protocol_mix`` and ``long_chain`` at seeds 1-3, the off-line squeezer's
negative control (whose S is not its fidelity reference, so that the two
means differ) and the null-fidelity grid of ``repeated_squeezer``; where the
independent route through ``GaussianState`` and the tests' own
``state_oracles.overlap_fidelity`` resolves a fidelity, its value must lie
within the same bound. Each check must hold a Python bool and a Python float
or None: the run document writes them as they are held.

The S and N of every chain those configs read, and of random chains, must
lie within the bound of ``reference.chain_channel_reference``, a 60-digit
forward fold of the per-step channels.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cvcluster as cv
from cvcluster import algebra, cli, engine, protocols
from cvcluster.engine import resource_variances  # unpatched: the reference's own variance
from conftest import patch_squeezed_variance
from reference import chain_channel_reference, report_facts
from state_oracles import overlap_fidelity, purity

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
    (a, b), (_, c) = ideal.cov.tolist()
    if not a * c - b * b > 0 or abs(purity(ideal) - 1.0) > 1e-9:
        return None
    return overlap_fidelity(ideal, report.channel.apply(state))


def _report_facts(report, state) -> dict:
    """``report_facts`` of the report's own floats; its channel displaces nothing."""
    S, N = report.channel.S.tolist(), report.channel.N.tolist()
    R = _fidelity_reference(report).tolist()
    return report_facts(S, N, (0.0, 0.0), report.target_S.tolist(), R, state.mean.tolist(),
                        state.cov.tolist())


def assert_facts_meet_reference(report, state) -> None:
    """Each fact of ``report`` within its reference bound, and the fidelity
    through ``_route_fidelity`` where that resolves it."""
    S, N = report.channel.S.tolist(), report.channel.N.tolist()
    mean, cov = state.mean.tolist(), state.cov.tolist()
    facts = _report_facts(report, state)
    got = {
        "deviation": report.deviation,
        "noise_trace": report.noise_trace,
        "lambda_min": report.check("channel_noise_psd").value,
        **protocols._image(S, mean, cov, N)._asdict(),
    }
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


def _assert_fidelity_meets_the_reference(report, state) -> None:
    """Only the fidelity: at these edges of double precision an output variance is not
    finite (at 0 dB), and the route through ``GaussianChannel.apply`` and
    ``overlap_fidelity`` can give 0.0."""
    fact = _report_facts(report, state)["fidelity"]
    assert fact.holds(report.fidelity), (report.fidelity, fact)


@pytest.mark.parametrize("n_nodes", [350, 400, 1000, 1998])
def test_identity_chain_fidelity_past_an_overflowing_det_meets_the_reference(n_nodes):
    # an ideal p variance of e^709/4, near 2^1021, beside a noise that grows with the
    # chain: det T passes the largest float from 400 nodes, the fidelity does not
    state = cv.squeezed_vacuum(354.5, "p")
    report = cv.identity_chain(n_nodes, cv.db_to_squeezing_r(10.0), state)
    _assert_fidelity_meets_the_reference(report, state)


@pytest.mark.parametrize("db", [0.0, 10.0, 100.0])
@pytest.mark.parametrize("r_gate", [354.73, -354.73, 354.89, -354.89])
def test_offline_squeezer_fidelity_near_the_r_gate_limit_meets_the_reference(r_gate, db):
    # the ideal variances e^{+-2 r_gate}/4 lie near 2^1021 and 2^-1026, a subnormal
    state = cv.vacuum_state(1)
    report = cv.offline_squeezer(state, cv.db_to_squeezing_r(db), r_gate)
    _assert_fidelity_meets_the_reference(report, state)


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


CHAIN_PROTOCOLS = ("identity_chain", "squeezer_four_step", "repeated_squeezer")
GOLDEN_CHAIN_CONFIGS = [c for c in GOLDEN_CONFIGS
                        if json.loads(c.read_text())["protocol"] in CHAIN_PROTOCOLS]


def _config_chains(monkeypatch, raw: dict) -> list:
    """(kappas, r, channel) of each chain that the reports of a config read."""
    chains, chain_channel = [], protocols.chain_channel

    def spy(steps, r):
        channel, leak = chain_channel(steps, r)
        chains.append((list(steps), r, channel))
        return channel, leak

    with monkeypatch.context() as patched:
        patched.setattr(protocols, "chain_channel", spy)
        _config_reports(raw)
    return chains


def _chain_misses(kappas, r, channel) -> list:
    """The entries of the channel's S and N outside the chain reference's bound."""
    S, N = chain_channel_reference(kappas, resource_variances(r)[1])
    return [(name, i, j, float(got[i, j]))
            for name, got, facts in (("S", channel.S, S), ("N", channel.N, N))
            for i in range(2) for j in range(2) if not facts[i][j].holds(float(got[i, j]))]


@pytest.mark.parametrize("config", GOLDEN_CHAIN_CONFIGS,
                         ids=lambda c: c.name.removesuffix(".config.json"))
def test_golden_chains_meet_the_chain_reference(monkeypatch, config):
    chains = _config_chains(monkeypatch, json.loads(config.read_text()))
    assert chains
    for kappas, r, channel in chains:
        assert _chain_misses(kappas, r, channel) == [], (len(kappas), r)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["protocol_mix", "long_chain"])
def test_deck_chains_meet_the_chain_reference(monkeypatch, workload, seed):
    decks = _decks()
    for entry in decks.make_deck(workload, seed) + decks.known_misses(workload, seed):
        for kappas, r, channel in _config_chains(monkeypatch, entry["config"]):
            assert _chain_misses(kappas, r, channel) == [], (entry, len(kappas))


# the bound assumes no product underflows, so |kappa| is 0 or at least 1e-100
NORMAL_KAPPA = st.floats(-1.0, 1.0).filter(lambda kappa: kappa == 0 or abs(kappa) >= 1e-100)


@settings(max_examples=60, deadline=None)
@given(
    kappas=st.integers(1, 300).flatmap(lambda k: st.lists(
        st.one_of(NORMAL_KAPPA, st.sampled_from([0.0, -0.0, 1.0, -1.0])), min_size=k, max_size=k
    )),
    db=st.floats(0.0, 300.0),
)
@example(kappas=[0.0], db=0.0)
@example(kappas=[1.0, -1.0] * 150, db=300.0)
def test_chain_channel_meets_the_chain_reference(kappas, db):
    r = cv.db_to_squeezing_r(db)
    channel, _ = engine.chain_channel(kappas, r)
    assert _chain_misses(kappas, r, channel) == []


def test_doubled_squeezed_variance_misses_the_chain_reference(monkeypatch):
    # the reference reads the unpatched variance, so every golden chain's N moves off it
    patch_squeezed_variance(monkeypatch, 2.0)
    for config in GOLDEN_CHAIN_CONFIGS:
        for kappas, r, channel in _config_chains(monkeypatch, json.loads(config.read_text())):
            assert ("N", 1, 1) in [miss[:3] for miss in _chain_misses(kappas, r, channel)]
