"""Every config the schema accepts gives a document or a clean refusal.

Configs are drawn from the schema's own rules, ``protocols.PARAMETERS`` (each
value passes its rule and largest value) and ``cli._INPUT_KEYS``, weighted
toward the edges where a channel or an input leaves double precision: dB up
to 3082, |kappa| up to 1e200, ``r_gate`` within 0.5 of its limit +-354.89,
coherent amplitudes up to 1.7e308 and squeezed inputs up to the same limit,
and integer input numbers past the largest float.
Each goes through ``cli.main`` as ``run`` or ``sweep``, with every warning
an error. It must exit 0 and write a document, or exit 2, write nothing and
print one error line that names a field of the config, ``input`` or
``sweep.*``; never exit 1. A channel-overflow line must name a parameter the
protocol reads. A run document's fidelity must lie within the bound of
``reference.report_facts``, taken from the document's own floats, wherever
that first-order bound is below its value.

By default chains have at most ``DEFAULT_MAX_STEPS`` steps and a run at most
3 trials, which keeps the test to a few seconds. ``CVCLUSTER_FUZZ=full``
opens the full 10^5-step and 10^5-record range and draws more configs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from cvcluster import algebra, cli, protocols
from reference import report_facts

FULL = os.environ.get("CVCLUSTER_FUZZ") == "full"
DEFAULT_MAX_STEPS = 2000
MAX_STEPS = protocols.MAX_CHAIN_STEPS if FULL else DEFAULT_MAX_STEPS
R_LIMIT = 354.891356446692  # the largest |r| with e^{2|r|} finite


def _signed(magnitudes):
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(lambda t: t[0] * t[1])


def _log_uniform(low: float, high: float):
    """Magnitudes 10^e for e uniform in [low, high], of either sign."""
    return _signed(st.floats(low, high).map(lambda e: 10.0**e))


def _accepted(name: str):
    def accepted(value) -> bool:
        try:
            protocols.checked_parameter(name, value)
        except protocols.ConfigError:
            return False
        return True

    return accepted


_near_r_limit = _signed(st.floats(R_LIMIT - 0.5, R_LIMIT + 0.5))
_VALUES = {
    "squeezing_db": st.floats(0.0, 120.0) | st.floats(3000.0, 3083.0),
    "kappa": st.floats(-2.0, 2.0) | _log_uniform(-3.0, 200.0),
    "n_nodes": st.integers(2, 10) | st.integers(2, MAX_STEPS + 1),
    "segments": st.integers(1, 4) | st.integers(1, MAX_STEPS // 4),
    "r_gate": st.floats(-1.0, 1.0) | _near_r_limit,
    "seed": st.integers(0, 2**64),
    "trials": st.integers(1, 3) | st.integers(1, protocols.MAX_RECORDS + 1 if FULL else 3),
}
VALUES = {name: values.filter(_accepted(name)) for name, values in _VALUES.items()}
# JSON integer literals that no float holds: |n| from 2^1024 to 10^400
_past_float = st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
_INPUT_VALUES = {
    "re": st.floats(-3.0, 3.0) | _log_uniform(-3.0, 308.25) | _past_float,
    "im": st.floats(-3.0, 3.0) | _log_uniform(-3.0, 308.25) | _past_float,
    "r": (st.floats(-3.0, 3.0) | _near_r_limit).filter(lambda r: abs(r) <= R_LIMIT) | _past_float,
    "axis": st.sampled_from(["x", "p"]),
}
INPUTS = st.one_of(
    [
        st.fixed_dictionaries({"kind": st.just(kind), **{key: _INPUT_VALUES[key] for key in keys}})
        for kind, keys in cli._INPUT_KEYS.items()
    ]
)


@st.composite
def configs(draw) -> tuple[str, dict]:
    """A command and its config: the parameters the protocol reads always,
    the others, ``input``, ``seed`` and ``trials`` sometimes."""
    protocol = draw(st.sampled_from(list(protocols.PROTOCOLS)))
    reads = protocols.protocol_parameters(protocol)
    config = {"protocol": protocol, **{name: draw(VALUES[name]) for name in reads}}
    config.update(draw(st.fixed_dictionaries({}, optional={**VALUES, "input": INPUTS})))
    command = draw(st.sampled_from(["run", "sweep"]))
    if command == "sweep":
        param = draw(st.sampled_from(reads))
        values = draw(st.lists(VALUES[param], min_size=1, max_size=3))
        config["sweep"] = {"param": param, "values": values}
    return command, config


def _outcome(command: str, config: dict) -> tuple[int, str, str | None]:
    """The exit code, stderr and written text of ``cvcluster command config``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w") as f:
            json.dump(config, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, path, "--output", out, "--quiet"])
        written = None
        if os.path.exists(out):
            with open(out) as f:
                written = f.read()
    return code, err.getvalue(), written


def _assert_fidelity_meets_the_reference(doc: dict, config: dict) -> None:
    """The run document's fidelity within ``report_facts``' bound, where that bound
    is below its value. Elsewhere the first-order bound does not hold: an input mean
    near 1e238 turns a last-bit difference of S from the reference into an exponent q
    near 1e443, so the floats taken as exact give 0 where the rounded means agree."""
    if doc["fidelity"] is None:
        return
    state = cli.build_input_state(config.get("input", {"kind": "vacuum"}))
    (a, b, c), S, target = doc["channel"]["N"], doc["channel"]["S"], doc["target_S"]
    target = [target[:2], target[2:]]
    R = target  # the fidelity's pure reference: the target but for the four-step squeezer
    if doc["name"] == "squeezer_four_step":
        R = algebra.squeezer_protocol_matrix(doc["parameters"]["kappa"]).tolist()
    fact = report_facts([S[:2], S[2:]], [[a, b], [b, c]], doc["channel"]["d"], target, R,
                        state.mean.tolist(), state.cov.tolist()).get("fidelity")
    if fact is not None and fact.bound < fact.value:
        assert fact.holds(doc["fidelity"]), (doc["fidelity"], fact)


def test_every_parameter_is_drawn():
    assert set(VALUES) == set(protocols.PARAMETERS)


# det T passes the largest float while the fidelity, 3.5e-155, does not
OVERFLOWING_DET = {"protocol": "identity_chain", "n_nodes": 400, "squeezing_db": 10.0,
                   "input": {"kind": "squeezed", "r": 354.5, "axis": "p"}}


@pytest.mark.filterwarnings("error")
@given(configs())
@example(("run", OVERFLOWING_DET))
@example(("run", {"protocol": "offline_teleport",
                  "input": {"kind": "coherent", "re": 10**400, "im": 0}}))
@example(("sweep", {"protocol": "identity_chain", "sweep": {"param": "n_nodes", "values": [3]},
                    "input": {"kind": "squeezed", "r": -(10**400), "axis": "x"}}))
@settings(max_examples=2000 if FULL else 120, deadline=None)
def test_accepted_config_gives_a_document_or_a_clean_refusal(drawn):
    command, config = drawn
    code, err, written = _outcome(command, config)
    assert code in (0, 2), err
    if code == 0:
        assert err == "" and written is not None
        if command == "run":
            doc = json.loads(written)
            assert doc["name"] == config["protocol"]
            _assert_fidelity_meets_the_reference(doc, config)
        else:
            assert len(written.splitlines()) == 1 + len(config["sweep"]["values"])
        return
    assert written is None
    line, = err.splitlines()
    named = re.fullmatch(r"error: field '([^']+)': .+", line)
    assert named, line
    field = named[1]
    assert field in config or field == "input" or field.startswith("sweep."), line
    if "the channel overflows" in line:
        assert field in protocols.protocol_parameters(config["protocol"]), line
