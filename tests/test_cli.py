import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cvcluster as cv
from cvcluster import checks, cli, protocols
from conftest import benchmark_decks, run_document, step_noise_oracle
from measurement_picture import independent_probe_deviation
from reference import report_facts

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_RUNS = sorted(
    p for p in (Path(__file__).resolve().parent / "data" / "golden").glob("run_*.json")
    if not p.name.endswith(".config.json")
)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE_RUN = {
    "protocol": "squeezer_four_step",
    "squeezing_db": 50.0,
    "kappa": 0.2,
    "input": {"kind": "vacuum"},
    "seed": 7,
    "trials": 2,
}


class TestConfigParsing:
    @pytest.mark.parametrize("source", ["golden", "protocol_mix"])
    def test_checked_config_is_the_config_a_document_echoes(self, source):
        # the golden run documents, and the run documents of the protocol_mix deck at seed 1
        if source == "golden":
            docs = [json.loads(p.read_text()) for p in GOLDEN_RUNS]
        else:
            deck = benchmark_decks().make_deck("protocol_mix", 1)
            docs = [json.loads(run_document(entry["config"])) for entry in deck]
        assert len(docs) == (5 if source == "golden" else 39)
        for doc in docs:
            cfg, _ = cli.checked_config(doc["config"])
            assert cfg == doc["config"]
            assert _reference_json(cfg) == _reference_json(doc["config"])

    def test_unknown_protocol_names_field(self):
        with pytest.raises(cli.ConfigError, match="protocol"):
            cli.checked_config({"protocol": "warp_drive"})

    def test_missing_protocol(self):
        with pytest.raises(cli.ConfigError, match="protocol"):
            cli.checked_config({"seed": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(cli.ConfigError, match="wibble"):
            cli.checked_config({"protocol": "offline_teleport", "wibble": 1})

    def test_empty_sweep_values_rejected(self):
        with pytest.raises(cli.ConfigError, match="sweep.values"):
            cli.checked_config(
                {
                    "protocol": "offline_teleport",
                    "sweep": {"param": "squeezing_db", "values": []},
                }
            )

    def test_negative_squeezing_rejected(self):
        with pytest.raises(cli.ConfigError, match="squeezing_db"):
            cli.checked_config(
                {"protocol": "offline_teleport", "squeezing_db": -3}
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("squeezing_db", "inf"),
            ("squeezing_db", "nan"),
            ("squeezing_db", 1e9),
            ("r_gate", "inf"),
            ("r_gate", -1e3),
        ],
    )
    def test_nonfinite_or_overflowing_squeezing_rejected(self, field, value):
        with pytest.raises(cli.ConfigError, match=field):
            cli.checked_config({"protocol": "offline_squeezer", field: value})

    def test_largest_representable_squeezing_accepted(self):
        cfg, _ = cli.checked_config(
            {"protocol": "identity_chain", "squeezing_db": 3000.0, "r_gate": -300.0}
        )
        assert (cfg["squeezing_db"], cfg["r_gate"]) == (3000.0, -300.0)

    @pytest.mark.parametrize(
        "param, values, bad_index",
        [
            ("n_nodes", [1], 0),
            ("squeezing_db", [10, -1], 1),
            ("squeezing_db", ["inf"], 0),
            ("kappa", [0.1, "x"], 1),
            ("r_gate", [float("nan")], 0),
            ("n_nodes", [3.9, 4], 0),
            ("segments", [1, True], 1),
            ("kappa", [True], 0),
        ],
    )
    def test_sweep_values_go_through_field_validators(self, param, values, bad_index):
        with pytest.raises(cli.ConfigError, match=rf"sweep\.values\[{bad_index}\]"):
            cli.checked_config(
                {"protocol": "identity_chain", "sweep": {"param": param, "values": values}}
            )

    @pytest.mark.parametrize("field", sorted(protocols.PARAMETERS))
    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected_in_every_scalar_field(self, field, value):
        # a boolean is not a number here, although Python casts it to 0 or 1
        with pytest.raises(cli.ConfigError, match=rf"{field}.*boolean"):
            cli.checked_config({"protocol": "repeated_squeezer", field: value})

    @pytest.mark.parametrize("field", sorted(protocols.PARAMETERS))
    @pytest.mark.parametrize("value", [" 3 ", "1_0", "inf"])
    def test_strings_rejected_in_every_scalar_field(self, field, value):
        # int() and float() would parse these, "1_0" as 10
        cast = protocols.PARAMETERS[field].cast.__name__
        message = f"field '{field}': expected {cast}, got a string"
        with pytest.raises(cli.ConfigError) as refused:
            cli.checked_config({"protocol": "repeated_squeezer", field: value})
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "field, value", [("n_nodes", 5.7), ("segments", 1.5), ("seed", 2.5), ("trials", 2.9)]
    )
    def test_non_integral_float_rejected_in_integer_fields(self, field, value):
        with pytest.raises(cli.ConfigError, match=rf"{field}.*integer"):
            cli.checked_config({"protocol": "identity_chain", field: value})

    def test_integral_float_accepted_in_integer_fields(self):
        cfg, _ = cli.checked_config(
            {"protocol": "identity_chain", "n_nodes": 4.0, "segments": 2.0, "seed": 3.0, "trials": 2.0}
        )
        values = (cfg["n_nodes"], cfg["segments"], cfg["seed"], cfg["trials"])
        assert values == (4, 2, 3, 2)
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_input_state_is_built_once_per_config(self, monkeypatch, command):
        calls = []
        original = cli.build_input_state

        def spy(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(cli, "build_input_state", spy)
        spec = {"kind": "coherent", "re": 0.5, "im": -1.0}
        payload = {**BASE_RUN, "input": spec, "sweep": {"param": "kappa", "values": [0.1, 0.3]}}
        cfg, input_state = cli.checked_config(payload)
        assert calls == [spec]  # validated eagerly
        build = cli._run_output if command == "run" else cli._sweep_output
        build(cfg, input_state, quiet=True)
        assert calls == [spec]
        assert set(cfg) == set(cli._CONFIG_FIELDS)

    def test_each_config_has_its_own_default_input(self):
        first, _ = cli.checked_config({"protocol": "identity_chain"})
        first["input"]["kind"] = "coherent"
        second, _ = cli.checked_config({"protocol": "identity_chain"})
        assert second["input"] == cli._CONFIG_FIELDS["input"] == {"kind": "vacuum"}

    def test_nonfinite_input_rejected(self):
        with pytest.raises(cli.ConfigError, match="input"):
            cli.build_input_state({"kind": "coherent", "re": "nan", "im": 0.0})
        with pytest.raises(cli.ConfigError, match="input"):
            cli.build_input_state({"kind": "squeezed", "r": 1e9, "axis": "x"})

    def test_csv_refuses_infinity(self):
        with pytest.raises(ValueError):
            cli.emit_csv([{"value": float("inf")}])

    def test_input_kinds(self):
        state = cli.build_input_state({"kind": "coherent", "re": 0.5, "im": -1.0})
        assert np.array_equal(state.mean, [0.5, -1.0])
        state = cli.build_input_state({"kind": "squeezed", "r": 0.3, "axis": "x"})
        assert state.cov[0, 0] == pytest.approx(math.exp(-0.6) / 4)
        with pytest.raises(cli.ConfigError, match="input"):
            cli.build_input_state({"kind": "thermal"})


class TestRunCommand:
    def test_writes_expected_channel(self, tmp_path):
        cfg = write_config(tmp_path, "run.json", BASE_RUN)
        out = tmp_path / "result.json"
        assert cli.main(["run", cfg, "--output", str(out), "--quiet"]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        np.testing.assert_allclose(
            np.array(doc["channel"]["S"]).reshape(2, 2),
            [[0.9616, 0.008], [0.008, 1.04]],
            atol=1e-6,
        )
        assert len(doc["records"]) == 2 * 4  # trials x steps
        assert [rec["trial"] for rec in doc["records"]] == [0] * 4 + [1] * 4

    def test_byte_identical_for_same_config_and_seed(self, tmp_path):
        cfg = write_config(tmp_path, "run.json", BASE_RUN)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["run", cfg, "--output", str(out1), "--quiet"]) == 0
        assert cli.main(["run", cfg, "--output", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_records_not_channel(self, tmp_path):
        cfg = write_config(tmp_path, "run.json", BASE_RUN)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["run", cfg, "--output", str(out1), "--quiet"])
        cli.main(["run", cfg, "--output", str(out2), "--seed", "123", "--quiet"])
        doc1, doc2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert doc1["records"] != doc2["records"]
        assert doc1["channel"] == doc2["channel"]

    def test_document_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, "run.json", BASE_RUN)
        out = tmp_path / "result.json"
        cli.main(["run", cfg, "--output", str(out), "--quiet"])
        text = out.read_text()
        assert _reference_json(json.loads(text)) == text

    def test_missing_config_file(self, capsys):
        assert cli.main(["run", "/nonexistent/cfg.json", "--quiet"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_protocol_exit_code_and_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"protocol": "warp_drive"})
        assert cli.main(["run", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "protocol" in err and "warp_drive" in err

    def test_infinite_squeezing_exits_2_without_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "inf.json", {"protocol": "identity_chain", "squeezing_db": "inf"}
        )
        out = tmp_path / "result.json"
        assert cli.main(["run", cfg, "--output", str(out), "--quiet"]) == 2
        assert "squeezing_db" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integral_trials_exits_2_without_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "trials.json", {**BASE_RUN, "trials": 2.9})
        out = tmp_path / "result.json"
        assert cli.main(["run", cfg, "--output", str(out), "--quiet"]) == 2
        assert "trials" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("seed", ["-1", "-123456"])
    def test_negative_seed_override_exits_2_naming_the_flag(self, tmp_path, capsys, command, seed):
        payload = {**BASE_RUN, "sweep": {"param": "kappa", "values": [0.1]}}
        cfg = write_config(tmp_path, "run.json", payload)
        out = tmp_path / "result"
        assert cli.main([command, cfg, "--output", str(out), "--seed", seed, "--quiet"]) == 2
        assert "'--seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["run", str(path), "--quiet"]) == 2
        assert "JSON" in capsys.readouterr().err


def _reference_json(doc) -> str:
    """The document text as json's own indented encoder writes it."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


# output paths that name a file: non-ASCII characters, escapes, a lone surrogate
# that the file system's encoding carries and the text of the envelope's records
# slot, which the config echoes before that slot; the refused ones are
# TestCommandErrors' subject
_PATHS = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\x00"),
                 min_size=1, max_size=10) | st.sampled_from(
    ['"', "\\", "\n\t", "é", "\u2028", "\udc80", "𝜅", '"records": null']
)
_AMPLITUDES = st.floats(-3.0, 3.0) | st.floats(-1e100, 1e100) | st.integers(-3, 3)
_INPUTS = st.one_of(
    st.just({"kind": "vacuum"}),
    st.fixed_dictionaries({"kind": st.just("coherent"), "re": _AMPLITUDES, "im": _AMPLITUDES}),
    st.fixed_dictionaries({"kind": st.just("squeezed"),
                           "r": st.floats(0.0, 2.0) | st.integers(0, 2),
                           "axis": st.sampled_from(["x", "p"])}),
)
# run configs over every protocol and input kind, echoing any accepted output_path
# or a null one, and a sweep block, which a run echoes but does not read
_RUN_CONFIGS = st.fixed_dictionaries(
    {
        "protocol": st.sampled_from(sorted(protocols.PROTOCOLS)),
        "seed": st.integers(0, 2**64),
        "trials": st.integers(1, 3),
        "input": _INPUTS,
    },
    optional={
        "squeezing_db": st.floats(0.0, 120.0),
        "kappa": st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 5e-324]),
        "n_nodes": st.integers(2, 9),
        "segments": st.integers(1, 3),
        "r_gate": st.floats(-3.0, 3.0),
        "output_path": st.none() | _PATHS,
        "sweep": st.fixed_dictionaries({
            "param": st.just("squeezing_db"),
            "values": st.lists(st.integers(0, 120) | st.floats(0.0, 120.0), min_size=1, max_size=3),
        }),
    },
)


class TestJsonWriter:
    """A run document is json.dumps's text, though ``cli`` writes it from
    templates."""

    @given(_RUN_CONFIGS)
    # an output variance past the largest float: the fidelity is null
    @example({"protocol": "squeezer_four_step", "squeezing_db": 0, "kappa": 10, "seed": 0,
              "trials": 1, "input": {"kind": "squeezed", "r": 350, "axis": "x"}})
    @example({"protocol": "squeezer_four_step", "kappa": -0.0, "seed": 0, "trials": 1,
              "input": {"kind": "vacuum"}})
    @settings(max_examples=60, deadline=None)
    def test_run_document_is_what_json_dumps_writes(self, payload):
        cfg, input_state = cli.checked_config(payload)
        text, _ = cli._run_output(cfg, input_state, quiet=True)
        doc = json.loads(text)
        assert text == _reference_json(doc)
        assert doc["config"]["output_path"] == payload.get("output_path")
        # the spliced records hold the report's values, not a rounding of them
        params = cli._protocol_params(cfg, input_state)
        report = cv.run_named_protocol(cfg["protocol"], params, cfg["seed"], cfg["trials"])
        keys = ("trial", "step_index", "mode", "kappa", "theta", "raw_outcome", "rescaled_outcome")
        assert [tuple(record[key] for key in keys) for record in doc["records"]] == [
            (t, *event) for t, trial in enumerate(report.record_columns) for event in zip(*trial)
        ]

    @given(
        _RUN_CONFIGS,
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.sampled_from(["raw_outcome", "rescaled_outcome"]),
        st.integers(0, 2),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_non_finite_record_anywhere_is_refused_before_any_text(
        self, payload, value, column, trial, index
    ):
        cfg, input_state = cli.checked_config(payload)
        params = cli._protocol_params(cfg, input_state)
        report = cv.run_named_protocol(cfg["protocol"], params, cfg["seed"], cfg["trials"])
        table = list(report.record_columns)
        trial %= len(table)
        events = list(getattr(table[trial], column))
        events[index % len(events)] = value
        table[trial] = table[trial]._replace(**{column: tuple(events)})
        broken = dataclasses.replace(report, draw_records=lambda: tuple(table))
        emitted = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocols, "run_named_protocol", lambda *args, **kwargs: broken)
            mp.setattr(cli, "_leaf", emitted.append)
            with pytest.raises(cv.InputOverflowError, match="an outcome record is not finite"):
                cli._run_output(cfg, input_state, quiet=True)
        assert emitted == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_slot_raises_what_json_dumps_raises(self, value):
        # every float slot of the document but the records, one at a time: the
        # report's facts and the config's floats, down to input and sweep
        payload = {"protocol": "offline_squeezer", "kappa": 0.3, "seed": 3,
                   "input": {"kind": "coherent", "re": 0.5, "im": 1},
                   "sweep": {"param": "r_gate", "values": [0.1, 2]}}
        cfg, input_state = cli.checked_config(payload)
        report = cv.run_named_protocol(cfg["protocol"], cli._protocol_params(cfg, input_state),
                                       cfg["seed"], cfg["trials"])
        table = report.record_columns
        doc = json.loads(cli._run_output(cfg, input_state, quiet=True)[0])

        def paths(node, path=()):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, child in items:
                if isinstance(child, (dict, list)):
                    yield from paths(child, (*path, key))
                elif isinstance(child, float):
                    yield (*path, key)

        def replaced(node, path):  # a copy of node, the leaf at path set to value
            key, *rest = path
            copy = dict(node) if isinstance(node, dict) else list(node)
            copy[key] = replaced(node[key], rest) if rest else value
            return copy

        def broken(path):  # the report and config whose document has value at path
            field, *rest = path
            if field == "config":
                return report, replaced(cfg, rest)
            if field == "channel":
                name, k = rest
                matrix = getattr(report.channel, name).copy()
                matrix[[(0, 0), (0, 1), (1, 1)][k] if name == "N" else divmod(k, 2)] = value
                changed = {"channel": dataclasses.replace(report.channel, **{name: matrix})}
            elif field == "target_S":
                target = report.target_S.copy()
                target[divmod(rest[0], 2)] = value
                changed = {"target_S": target}
            elif field == "checks":
                checks = list(report.checks)
                checks[rest[0]] = checks[rest[0]]._replace(value=value)
                changed = {"checks": tuple(checks)}
            elif field == "parameters":
                changed = {"parameters": replaced(dict(report.parameters), rest)}
            else:
                changed = {field: value}
            return dataclasses.replace(report, draw_records=lambda: table, **changed), cfg

        slots = [path for path in paths(doc)
                 if path[0] != "records" and path[:2] != ("channel", "d")]
        assert len(slots) == 25  # 11 channel and target, 3 facts, 4 checks, 2 parameters, 5 config
        for path in slots:
            with pytest.raises(ValueError) as expected:
                _reference_json(replaced(doc, path))
            changed_report, changed_cfg = broken(path)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(protocols, "run_named_protocol", lambda *args, **kwargs: changed_report)
                with pytest.raises(ValueError) as raised:
                    cli._run_output(changed_cfg, input_state, quiet=True)
            assert str(raised.value) == str(expected.value) == (
                f"Out of range float values are not JSON compliant: {value!r}"
            ), path

    def test_long_run_document_is_pinned(self):
        # 250 segments, 2 trials: 2000 records; the length and hash are those
        # of the text that json.dumps writes for this document
        payload = {"protocol": "repeated_squeezer", "segments": 250, "trials": 2, "seed": 7}
        text = run_document(payload)
        assert len(text) == 436245
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4715ab5942df4aebc2daadd2664edb7e12ca6d59db7283194f5d52c8de39b679"
        )


class TestCommandErrors:
    PAYLOAD = {**BASE_RUN, "sweep": {"param": "kappa", "values": [0.1, 0.2]}}

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_config_not_utf8_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(self.PAYLOAD).encode("utf-16-le"))
        out = tmp_path / "out"
        assert cli.main([command, str(path), "--output", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: config is not valid UTF-8: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "payload, error",
        [
            ([{"protocol": "identity_chain"}], "config root must be a JSON object"),
            ({"wibble": 1}, "unknown config field 'wibble'"),
            ({"schema_version": 2}, "missing required field 'protocol'"),
            ({"protocol": "nope", "schema_version": 2}, "field 'schema_version': must be 1, got 2"),
            ({"squeezing_db": -1, "protocol": "nope"},
             "field 'protocol': unknown protocol 'nope'; known: identity_chain, "
             "squeezer_four_step, repeated_squeezer, offline_teleport, offline_squeezer"),
            ({"protocol": "identity_chain", "kappa": "x", "squeezing_db": -1},
             "field 'squeezing_db': must be finite and >= 0, with e^{2r} finite"),
            ({"protocol": "identity_chain", "n_nodes": 1, "kappa": True},
             "field 'kappa': expected float, got a boolean"),
            ({"protocol": "identity_chain", "segments": 0, "n_nodes": 1},
             "field 'n_nodes': must be >= 2"),
            ({"protocol": "identity_chain", "r_gate": "x", "segments": 0},
             "field 'segments': must be >= 1"),
            ({"protocol": "identity_chain", "seed": -5, "r_gate": "x"},
             "field 'r_gate': expected float, got a string"),
            ({"protocol": "identity_chain", "trials": 0, "seed": -5},
             "field 'seed': must be a non-negative integer"),
            ({"protocol": "identity_chain", "input": None, "trials": 0},
             "field 'trials': must be >= 1"),
            ({"protocol": "identity_chain", "output_path": 3, "input": {"kind": "thermal"}},
             "field 'input.kind': unknown kind 'thermal'"),
            ({"protocol": "identity_chain", "sweep": 5, "output_path": 3},
             "field 'output_path': expected a string"),
            ({"protocol": "identity_chain", "sweep": 5, "output_path": ""},
             "field 'output_path': expected a nonempty path"),
            ({"protocol": "identity_chain", "sweep": 5, "output_path": "\x00"},
             "field 'output_path': not a valid file path"),
            ({"protocol": "identity_chain", "sweep": {"param": "kappa", "values": []}},
             "field 'sweep.values': must be a nonempty list"),
            ({"protocol": "identity_chain"}, "field '--seed': must be a non-negative integer"),
            ({"protocol": "identity_chain", "seed": 3}, "--output: expected a nonempty path"),
        ],
        ids=["root", "unknown_field", "missing_protocol", "schema_version", "unknown_protocol",
             "squeezing_db", "kappa", "n_nodes", "segments", "r_gate", "seed", "trials", "input",
             "output_path", "output_path_empty", "output_path_nul", "sweep", "--seed", "--output"],
    )
    def test_first_fault_in_check_order_is_the_one_refused(
        self, tmp_path, monkeypatch, capsys, command, payload, error
    ):
        # each config breaks its own step and the next one (its key written first);
        # --seed -1, the step after every config check, breaks the last, and
        # --output "", the step after --seed, breaks the one after it. The
        # --output case keeps the config's seed, and so reaches that step
        monkeypatch.chdir(tmp_path)
        seed = [] if error.startswith("--output") else ["--seed", "-1"]
        code, _ = main_on(tmp_path, command, payload, *seed, "--output", "")
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]  # no default output either

    @pytest.mark.parametrize("via", ["--output", "output_path"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unwritable_output_exits_1_with_one_error_line(self, tmp_path, capsys, command, via):
        target = tmp_path / "missing" / "dir" / "x.out"
        payload = dict(self.PAYLOAD)
        argv = [command, "--quiet"]
        if via == "--output":
            argv += ["--output", str(target)]
        else:
            payload["output_path"] = str(target)
        argv.insert(1, write_config(tmp_path, "cfg.json", payload))
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {target}: No such file or directory\n"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("param", [["kappa"], {"kappa": 0.1}])
    def test_sweep_param_not_a_string_exits_2(self, tmp_path, capsys, param):
        payload = {**BASE_RUN, "sweep": {"param": param, "values": [0.1, 0.2]}}
        code, out = main_on(tmp_path, "sweep", payload)
        captured = capsys.readouterr()
        assert (code, captured.out, out.exists()) == (2, "", False)
        assert captured.err.startswith("error: field 'sweep.param': ")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    # a lone surrogate is a str that UTF-8 cannot carry
    @pytest.mark.parametrize("output", ["a\x00b", "\ud800x"], ids=["embedded_nul", "surrogate"])
    def test_output_flag_that_names_no_file_exits_2_before_any_report(
        self, tmp_path, monkeypatch, capsys, command, output
    ):
        # the config's output_path rule, under the flag's name; both used to
        # raise out of main once the report was built
        def refuse(*args, **kwargs):
            raise AssertionError("a report was built")

        monkeypatch.setattr(protocols, "run_named_protocol", refuse)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "cfg.json", self.PAYLOAD)
        assert cli.main([command, cfg, "--output", output, "--quiet"]) == 2
        assert capsys.readouterr() == ("", "error: --output: not a valid file path\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"kind": "coherent", "re": 0.5, "im": True}, "im"),
            ({"kind": "coherent", "re": False, "im": 0.0}, "re"),
            ({"kind": "squeezed", "r": True, "axis": "x"}, "r"),
            ({"kind": "squeezed", "r": 0.5, "axis": "p", "angle": 0.3}, "angle"),
            ({"kind": "coherent", "re": 0.5, "im": 0.0, "r": 0.2}, "r"),
            ({"kind": "vacuum", "re": 1.0}, "re"),
        ],
    )
    def test_input_boolean_or_unread_key_exits_2(self, tmp_path, capsys, spec, key):
        payload = {"protocol": "identity_chain", "input": spec}
        out = tmp_path / "result.json"
        argv = ["run", write_config(tmp_path, "cfg.json", payload), "--output", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: field 'input.{key}': ")
        assert not out.exists()



class TestSweepCommand:
    def test_fidelity_sweep_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {
                "protocol": "offline_teleport",
                "seed": 3,
                "sweep": {"param": "squeezing_db", "values": [0, 3, 10]},
            },
        )
        out = tmp_path / "table.csv"
        assert cli.main(["sweep", cfg, "--output", str(out), "--quiet"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,param,value,deviation,noise_trace,fidelity,checks_passed"
        fidelities = [float(line.split(",")[5]) for line in lines[1:]]
        expected = [1.0 / (1.0 + 10 ** (-db / 10)) for db in (0, 3, 10)]
        np.testing.assert_allclose(fidelities, expected, atol=1e-6)

    def test_noise_sweep_is_linear(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {
                "protocol": "identity_chain",
                "squeezing_db": 10.0,
                "seed": 0,
                "sweep": {"param": "n_nodes", "values": [2, 3, 4, 5]},
            },
        )
        out = tmp_path / "table.csv"
        assert cli.main(["sweep", cfg, "--output", str(out), "--quiet"]) == 0
        traces = [float(line.split(",")[4]) for line in out.read_text().strip().splitlines()[1:]]
        np.testing.assert_allclose(traces, [0.025, 0.05, 0.075, 0.1], atol=1e-9)

    def test_sweep_deterministic_bytes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {
                "protocol": "offline_teleport",
                "seed": 5,
                "sweep": {"param": "squeezing_db", "values": [0, 10]},
            },
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["sweep", cfg, "--output", str(out1), "--quiet"])
        cli.main(["sweep", cfg, "--output", str(out2), "--quiet"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_rows_do_not_depend_on_the_seed(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {
                "protocol": "repeated_squeezer",
                "squeezing_db": 10.0,
                "input": {"kind": "coherent", "re": 0.7, "im": -0.3},
                "sweep": {"param": "segments", "values": [1, 4]},
            },
        )
        out1, out999 = tmp_path / "1.csv", tmp_path / "999.csv"
        assert cli.main(["sweep", cfg, "--seed", "1", "--output", str(out1), "--quiet"]) == 0
        assert cli.main(["sweep", cfg, "--seed", "999", "--output", str(out999), "--quiet"]) == 0
        assert out1.read_bytes() == out999.read_bytes()

    @pytest.mark.parametrize(
        "param, values",
        [
            ("n_nodes", [1]),
            ("squeezing_db", [10, -1]),
            ("squeezing_db", ["inf"]),
            ("kappa", ["x"]),
            ("n_nodes", [3.9, 4]),
            ("kappa", [True]),
        ],
    )
    def test_invalid_sweep_value_exits_2_without_output(self, tmp_path, capsys, param, values):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {"protocol": "identity_chain", "sweep": {"param": param, "values": values}},
        )
        out = tmp_path / "table.csv"
        assert cli.main(["sweep", cfg, "--output", str(out), "--quiet"]) == 2
        assert "sweep.values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "protocol, param, values",
        [
            ("identity_chain", "kappa", [0.1, 0.5]),
            ("offline_teleport", "r_gate", [0.04, 0.3]),
            ("offline_squeezer", "segments", [1, 2]),
            ("squeezer_four_step", "n_nodes", [3, 4]),
        ],
    )
    def test_sweep_over_a_parameter_the_protocol_does_not_read_exits_2(
        self, tmp_path, capsys, protocol, param, values
    ):
        # every row would be the same point: refused rather than written
        payload = {"protocol": protocol, "sweep": {"param": param, "values": values}}
        code, out = main_on(tmp_path, "sweep", payload)
        err = capsys.readouterr().err
        assert (code, out.exists()) == (2, False)
        assert err == f"error: field 'sweep.param': protocol {protocol!r} does not read {param!r}\n"

    def test_sweep_value_cells_echo_the_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {
                "protocol": "identity_chain",
                "squeezing_db": 10.0,
                "sweep": {"param": "n_nodes", "values": [2, 4.0]},
            },
        )
        out = tmp_path / "table.csv"
        assert cli.main(["sweep", cfg, "--output", str(out), "--quiet"]) == 0
        cells = [line.split(",")[2] for line in out.read_text().strip().splitlines()[1:]]
        assert cells == ["2", "4.0"]

    def test_sweep_value_that_is_a_string_is_refused(self, tmp_path, capsys):
        sweep = {"param": "n_nodes", "values": [2, "3", 4.0]}
        code, out = main_on(tmp_path, "sweep", {"protocol": "identity_chain", "sweep": sweep})
        assert (code, out.exists()) == (2, False)
        assert capsys.readouterr().err == (
            "error: field 'sweep.values[1]': expected int, got a string\n"
        )

    def test_sweep_requires_sweep_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "nosweep.json", {"protocol": "offline_teleport"})
        assert cli.main(["sweep", cfg, "--quiet"]) == 2
        assert "sweep" in capsys.readouterr().err


class TestParser:
    def test_main_builds_no_parser_after_import(self, tmp_path, monkeypatch):
        created = []
        original = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            created.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        payload = {**BASE_RUN, "sweep": {"param": "kappa", "values": [0.1, 0.2]}}
        cfg = write_config(tmp_path, "run.json", payload)
        for command in ("run", "sweep", "run"):
            out = tmp_path / f"{command}.out"
            assert cli.main([command, cfg, "--output", str(out), "--quiet"]) == 0
        assert created == []


    # the tokens of argv that the pre-pass reads, and of spellings only argparse reads
    TOKENS = ["run", "sweep", "verify", "c.json", "out", "--quiet", "--seed", "--output",
              "--seed=4", "--out", "--q", "-h", "--", "-3", "", "1e3", "\u0663", "7"]

    @staticmethod
    def parsed(argv):
        """``_PARSER.parse_args(argv)``, or None where argparse exits."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli._PARSER.parse_args(argv)
            except SystemExit:
                return None

    @given(st.lists(st.sampled_from(TOKENS), max_size=7))
    @settings(max_examples=400, deadline=None)
    def test_pre_pass_gives_argparses_answer_or_none(self, argv):
        plain = cli._plain_args(argv)
        assert plain is None or plain == self.parsed(argv)

    @pytest.mark.parametrize("argv", [
        ["run", "c.json", "--output", "out", "--quiet"],
        ["sweep", "c.json", "--output", "out", "--quiet"],
        ["run", "c.json", "--seed", "11", "--output", "out", "--quiet"],
        ["sweep", "c.json", "--output", "out", "--quiet", "--seed", "11"],
        ["verify", "--quiet"],
        ["verify"],
    ])
    def test_benchmark_argv_takes_the_pre_pass(self, argv):
        plain = cli._plain_args(argv)
        assert plain is not None and plain == cli._PARSER.parse_args(argv)

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_spellings_only_argparse_reads_give_the_same_run(
        self, tmp_path, capsys, command, quiet
    ):
        payload = {**BASE_RUN, "sweep": {"param": "kappa", "values": [0.1, 0.2]}}
        cfg = write_config(tmp_path, "run.json", payload)
        out = tmp_path / "out"
        plain = [command, cfg, "--seed", "11", "--output", str(out), *quiet]
        spellings = [[command, cfg, "--seed=11", "--out", str(out), *quiet],
                     [command, *quiet, "--output", str(out), "--seed", "11", cfg]]
        assert cli._plain_args(spellings[0]) is None
        results = []
        for argv in (plain, *spellings):
            code = cli.main(argv)
            results.append((code, capsys.readouterr(), out.read_bytes()))
            out.unlink()
        assert results[0][0] == 0
        assert results[1:] == [results[0]] * 2


class TestVerifySuite:
    def test_all_checks_pass_on_fresh_build(self):
        results = checks.run_all_checks()
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_injected_fourier_sign_error_is_caught(self, monkeypatch):
        broken = np.array([[0.0, 1.0], [1.0, 0.0]])
        monkeypatch.setattr(checks, "fourier", lambda: broken)
        symplectic = checks.symplectic_condition_checks()
        composition = checks.gate_identity_checks()
        assert not all(r.passed for r in symplectic)
        assert not all(r.passed for r in composition)

    @pytest.mark.parametrize("constructor", ["controlled_z", "beamsplitter_5050"])
    def test_nan_gate_fails_the_symplectic_row(self, monkeypatch, constructor):
        # Python's max keeps a NaN only where it comes first: the first gate and the last
        nan_gate = np.array([[math.nan, 0.0], [0.0, 1.0]])
        monkeypatch.setattr(checks, constructor, lambda: nan_gate)
        [row] = checks.symplectic_condition_checks()
        assert not row.passed and math.isnan(row.value)



# chains for the measurement picture beyond the two that verify runs
PICTURE_CHAINS = {
    "identity": [0.0] * 3,
    "squeezer": protocols.squeezer_steps(0.5),
    "mixed": [0.4, 0.0, -0.7, 1.1],
    "one_step": [-1.5],
}


PICTURE_INPUTS = [
    cv.vacuum_state(1),
    cv.GaussianState(np.array([1.0, -2.0]), 0.75 * np.eye(2)),
    cv.GaussianState(np.array([0.3, -0.2]), np.array([[0.4, 0.1], [0.1, 0.3]])),
]
PICTURE_DB = (0.0, 3.0, 10.0, 20.0)


def _cluster_edge_changed(edge, forward, backward):
    """``linear_cluster`` whose CZ on nodes (i, i + 1), ``edge`` -1 the last,
    adds ``forward`` x_{i+1} to p_i and ``backward`` x_i to p_{i+1}, not 1 and 1."""
    original = checks.linear_cluster

    def mutated(n_nodes, squeezing_r):
        i = range(n_nodes - 1)[edge]
        # x-to-p couplings compose by adding, so this gate moves the 1s to the new weights
        S = np.eye(4)
        S[1, 2], S[3, 0] = forward - 1.0, backward - 1.0
        return cv.apply_gate(original(n_nodes, squeezing_r), S, [i, i + 1])

    return lambda mp: mp.setattr(checks, "linear_cluster", mutated)


CLUSTER_MUTATIONS = {
    "last_edge_dropped": _cluster_edge_changed(-1, 0.0, 0.0),
    "first_edge_sign_flipped": _cluster_edge_changed(0, -1.0, -1.0),
    "one_coupling_sign_flipped": _cluster_edge_changed(1, -1.0, 1.0),
}


class TestMeasurementPicture:
    @pytest.mark.parametrize("kappas", PICTURE_CHAINS.values(), ids=PICTURE_CHAINS.keys())
    def test_chain_channel_matches_the_picture(self, kappas):
        for db in PICTURE_DB:
            r = protocols.db_to_squeezing_r(db)
            for state in PICTURE_INPUTS:
                assert checks.measurement_picture_deviation(kappas, r, state) <= 1e-10, (db, state)

    @pytest.mark.parametrize("kappas", PICTURE_CHAINS.values(), ids=PICTURE_CHAINS.keys())
    def test_shared_prefix_equals_independent_probes(self, kappas):
        for db in PICTURE_DB:
            r = protocols.db_to_squeezing_r(db)
            for state in PICTURE_INPUTS:
                shared = checks.measurement_picture_deviation(kappas, r, state)
                assert shared == independent_probe_deviation(kappas, r, state), (db, state)

    @pytest.mark.parametrize("name", CLUSTER_MUTATIONS)
    def test_a_wrong_cz_layer_fails_the_row(self, monkeypatch, name):
        assert checks.measurement_picture_checks()[0].passed
        CLUSTER_MUTATIONS[name](monkeypatch)
        assert not checks.measurement_picture_checks()[0].passed

    def test_nan_frame_fails_the_row(self, monkeypatch):
        monkeypatch.setattr(checks, "update_frame", lambda frame, s, kappa: (math.nan, math.nan))
        (row,) = checks.measurement_picture_checks()
        assert not row.passed and math.isnan(row.value)


class TestSchemaVersion:
    @pytest.mark.parametrize("version", [2, 0, "banana", "1", None, True, False])
    def test_other_versions_exit_2_naming_the_field(self, tmp_path, capsys, version):
        cfg = write_config(
            tmp_path, "v.json", {"schema_version": version, "protocol": "offline_teleport"}
        )
        out = tmp_path / "result.json"
        assert cli.main(["run", cfg, "--output", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: field 'schema_version': ")
        assert not out.exists()

    @pytest.mark.parametrize("payload", [{}, {"schema_version": 1}])
    def test_version_1_or_none_given_is_accepted(self, payload):
        cfg, _ = cli.checked_config({**payload, "protocol": "offline_teleport"})
        assert cfg["schema_version"] == cli.SCHEMA_VERSION == 1


def main_on(tmp_path, command, payload, *flags):
    """Run ``command`` on a config; return its exit code and its output path."""
    out = tmp_path / "out"
    argv = [command, write_config(tmp_path, "c.json", payload), "--output", str(out), *flags]
    return cli.main(argv), out


OVERFLOWING = {
    "kappa_1e200": {"protocol": "repeated_squeezer", "kappa": 1e200},
    "kappa_1_1000_segments": {"protocol": "repeated_squeezer", "kappa": 1.0, "segments": 1000},
    "kappa_1_400_segments": {"protocol": "repeated_squeezer", "kappa": 1.0, "segments": 400},
    "four_step_kappa_1e100": {"protocol": "squeezer_four_step", "kappa": 1e100},
    # kappa**2 in Python floats would raise OverflowError before the channel's check
    "four_step_kappa_1e200": {"protocol": "squeezer_four_step", "kappa": 1e200},
    # S and N are finite here, but the deviation from the target is not
    "four_step_kappa_1e39_0db": {"protocol": "squeezer_four_step", "kappa": 1e39, "squeezing_db": 0.0},
}


# warnings are errors: no numpy warning may come before a refusal
@pytest.mark.filterwarnings("error")
class TestChannelOverflow:
    """A channel whose S or N leaves double precision is a config error naming
    ``kappa`` for a chain and ``r_gate`` for the off-line squeezer."""

    @pytest.mark.parametrize("name", OVERFLOWING)
    def test_run_exits_2_naming_kappa_without_output(self, tmp_path, capsys, name):
        code, out = main_on(tmp_path, "run", {"squeezing_db": 10.0, **OVERFLOWING[name]})
        captured = capsys.readouterr()
        assert (code, captured.out, out.exists()) == (2, "", False)
        assert captured.err.splitlines()[-1].startswith("error: field 'kappa': ")

    def test_sweep_exits_2_naming_kappa_without_output(self, tmp_path, capsys):
        payload = {
            "protocol": "repeated_squeezer",
            "squeezing_db": 10.0,
            "kappa": 1.0,
            "sweep": {"param": "segments", "values": [10, 1000]},
        }
        code, out = main_on(tmp_path, "sweep", payload)
        captured = capsys.readouterr()
        assert (code, captured.out, out.exists()) == (2, "", False)
        assert captured.err.splitlines()[-1].startswith("error: field 'kappa': ")

    def test_overflow_that_no_rule_refused_exits_1(self, tmp_path, capsys, monkeypatch):
        def overflowing(**_):
            raise OverflowError("math range error")

        monkeypatch.setattr(protocols, "offline_teleport", overflowing)
        code, out = main_on(tmp_path, "run", {"protocol": "offline_teleport"})
        assert (code, capsys.readouterr().err) == (1, "error: OverflowError: math range error\n")
        assert not out.exists()

    def test_large_but_finite_channel_gives_a_document(self, tmp_path):
        payload = {**OVERFLOWING["kappa_1_400_segments"], "squeezing_db": 10.0, "segments": 300}
        code, out = main_on(tmp_path, "run", payload, "--quiet")
        assert code == 0
        S = np.array(json.loads(out.read_text())["channel"]["S"])
        assert np.isfinite(S).all() and np.max(np.abs(S)) > 1e125


# configs whose channel is finite, but whose input state it carries beyond
# double precision
INPUT_OVERFLOWING = {
    "four_step_coherent_1e308": {
        "protocol": "squeezer_four_step", "squeezing_db": 0.0, "kappa": 1.0,
        "input": {"kind": "coherent", "re": 1e308, "im": 1e308},
    },
    "offline_squeezer_coherent_1e300": {
        "protocol": "offline_squeezer", "r_gate": 354.0,
        "input": {"kind": "coherent", "re": 1e300, "im": 1e300},
    },
    # the fidelity is finite here, but the first outcome, p + kappa x of the
    # input plus resource noise, is not
    "four_step_first_record": {
        "protocol": "squeezer_four_step", "squeezing_db": 10.0, "kappa": 0.2,
        "input": {"kind": "coherent", "re": 1.7e308, "im": 1.6e308},
    },
}

# the output's p variance passes the largest float, but no number a document writes does
FOUR_STEP_OUTPUT_VARIANCE_PAST_THE_LARGEST_FLOAT = {
    "protocol": "squeezer_four_step", "squeezing_db": 0.0, "kappa": 10.0,
    "input": {"kind": "squeezed", "r": 350.0, "axis": "x"},
}


# warnings are errors: no numpy warning may come before a refusal
@pytest.mark.filterwarnings("error")
class TestInputOverflow:
    """An input state that a finite channel carries beyond double precision
    is a config error naming the input, not the channel's kappa, and no
    numpy warning comes before it."""

    @pytest.mark.parametrize("name", INPUT_OVERFLOWING)
    def test_run_exits_2_naming_input_without_output(self, tmp_path, capsys, name):
        code, out = main_on(tmp_path, "run", INPUT_OVERFLOWING[name])
        captured = capsys.readouterr()
        assert (code, captured.out, out.exists()) == (2, "", False)
        assert captured.err.startswith("error: field 'input': ")
        assert "kappa" not in captured.err

    def test_sweep_exits_2_naming_input_without_output(self, tmp_path, capsys):
        payload = {
            **INPUT_OVERFLOWING["four_step_coherent_1e308"],
            "sweep": {"param": "kappa", "values": [0.5, 1]},
        }
        code, out = main_on(tmp_path, "sweep", payload)
        captured = capsys.readouterr()
        assert (code, captured.out, out.exists()) == (2, "", False)
        assert captured.err.startswith("error: field 'input': ")
        assert "kappa" not in captured.err

    def test_library_refuses_when_the_records_are_read(self):
        payload = INPUT_OVERFLOWING["four_step_first_record"]
        cfg, input_state = cli.checked_config(payload)
        report = cv.run_named_protocol(cfg["protocol"], cli._protocol_params(cfg, input_state))
        assert math.isfinite(report.fidelity)
        with pytest.raises(cv.InputOverflowError) as refused:
            report.record_columns
        assert str(refused.value) == (
            "field 'input': the input state overflows double precision "
            "through the channel: an outcome record is not finite"
        )

    def test_large_but_finite_input_gives_a_document(self, tmp_path):
        payload = {**INPUT_OVERFLOWING["four_step_coherent_1e308"], "kappa": 0.2}
        code, out = main_on(tmp_path, "run", payload, "--quiet")
        assert code == 0
        assert math.isfinite(json.loads(out.read_text())["fidelity"])

    def test_an_output_variance_past_the_largest_float_gives_a_document(self, tmp_path, capsys):
        # no number of the document is not finite: the fidelity is null (its reference's
        # ideal output is not resolved as pure), and at kappa 10 the cubic check fails
        code, out = main_on(
            tmp_path, "run", FOUR_STEP_OUTPUT_VARIANCE_PAST_THE_LARGEST_FLOAT, "--quiet"
        )
        assert (code, capsys.readouterr().err) == (0, "")
        doc = json.loads(out.read_text(), parse_constant=pytest.fail)  # Infinity or NaN fails
        assert doc["fidelity"] is None
        passed = {check["name"]: check["passed"] for check in doc["checks"]}
        assert passed == {
            "outcome_independent": True,
            "channel_noise_psd": True,
            "matches_exact_matrix": True,
            "noise_matches_oracle": True,
            "within_cubic_error_of_target": False,
        }


@pytest.mark.parametrize(
    "payload, error",
    [
        (
            OVERFLOWING["kappa_1e200"],
            "error: field 'kappa': the channel overflows double precision: "
            "S, N or deviation not finite\n",
        ),
        (
            INPUT_OVERFLOWING["four_step_coherent_1e308"],
            "error: field 'input': the input state overflows double precision "
            "through the channel: the fidelity is not finite\n",
        ),
        (
            # refused when the records are drawn, after the builder has returned
            INPUT_OVERFLOWING["four_step_first_record"],
            "error: field 'input': the input state overflows double precision "
            "through the channel: an outcome record is not finite\n",
        ),
    ],
    ids=["kappa", "input", "input_record"],
)
def test_overflow_refusal_prints_one_line(tmp_path, payload, error):
    """The whole stderr of the console command: numpy's overflow warnings
    would print before the error line."""
    result, out = _console_run(tmp_path, payload)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", error)
    assert not out.exists()


def _console_run(tmp_path, payload):
    """``cvcluster run`` on a config in a fresh interpreter, warnings at their
    defaults; the finished process and the output path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    argv = ["run", write_config(tmp_path, "c.json", payload), "--output", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "cvcluster", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return result, out


# |r_gate| from about 354.55 up to the rule's limit: the off-line squeezer's
# weights W carry e^{|r_gate|}, so W W^T passes the largest float while its
# noise (e^{-2r}/2) e^{2|r_gate|} does not
R_GATE_BAND = [354.55, 354.8, 354.89, -354.8]
BAND_INPUTS = {
    "vacuum": {"kind": "vacuum"},
    "coherent": {"kind": "coherent", "re": 0.3, "im": -0.8},
    "squeezed": {"kind": "squeezed", "r": 0.5, "axis": "p"},
}


@pytest.mark.filterwarnings("error")
class TestOfflineSqueezerNearTheRGateLimit:
    @pytest.mark.parametrize("kind", BAND_INPUTS)
    @pytest.mark.parametrize("r_gate", R_GATE_BAND)
    def test_run_writes_a_correct_document(self, tmp_path, capsys, r_gate, kind):
        payload = {
            "protocol": "offline_squeezer", "r_gate": r_gate, "input": BAND_INPUTS[kind], "trials": 2,
        }
        code, out = main_on(tmp_path, "run", payload, "--quiet")
        assert (code, capsys.readouterr().err) == (0, "")
        doc = json.loads(out.read_text())
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == []
        assert len(doc["records"]) == 4
        # the large noise entry, N_pp for a positive r_gate and N_xx for a negative one
        r = cv.db_to_squeezing_r(protocols.PARAMETER_DEFAULTS["squeezing_db"])
        expected = 0.5 * math.exp(-2 * r) * math.exp(2 * abs(r_gate))
        large = doc["channel"]["N"][2 if r_gate > 0 else 0]
        assert abs(large - expected) <= 4 * np.finfo(float).eps * expected


# the fidelity's band: at low squeezing, the output's p variance (x for a negative
# r_gate), and so that entry of the covariance sum T, passes the largest float
# while the fidelity does not
FIDELITY_BAND = [(0.0, 354.7), (0.0, 354.89), (0.0, -354.89), (0.5, 354.75), (1.0, 354.8)]


def _sweep_rows(text: str) -> list[dict]:
    header, *rows = (line.split(",") for line in text.splitlines())
    return [dict(zip(header, row)) for row in rows]


@pytest.mark.filterwarnings("error")
class TestOfflineFidelityNearTheRGateLimit:
    @pytest.mark.parametrize("kind", ["vacuum", "coherent"])
    @pytest.mark.parametrize("db, r_gate", FIDELITY_BAND)
    def test_run_writes_the_fidelity(self, tmp_path, capsys, db, r_gate, kind):
        payload = {
            "protocol": "offline_squeezer", "squeezing_db": db, "r_gate": r_gate,
            "input": BAND_INPUTS[kind],
        }
        code, out = main_on(tmp_path, "run", payload, "--quiet")
        assert (code, capsys.readouterr().err) == (0, "")
        doc = json.loads(out.read_text())
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == []
        state = cli.build_input_state(BAND_INPUTS[kind])
        (a, b, c), S, target = doc["channel"]["N"], doc["channel"]["S"], doc["target_S"]
        target = [target[:2], target[2:]]  # the gate, also the fidelity's reference
        facts = report_facts([S[:2], S[2:]], [[a, b], [b, c]], doc["channel"]["d"], target, target,
                             state.mean.tolist(), state.cov.tolist())
        assert facts["fidelity"].holds(doc["fidelity"])
        # a coherent output is the ideal one plus noise (e^{-2r}/2) diag(e^{-2 r_gate},
        # e^{2 r_gate}): its fidelity is 1 / (1 + e^{-2r}) for any gate, 0.5 at 0 dB
        closed_form = 1.0 / (1.0 + math.exp(-2.0 * cv.db_to_squeezing_r(db)))
        assert abs(doc["fidelity"] - closed_form) <= 4 * np.finfo(float).eps

    def test_sweep_writes_the_fidelity(self, tmp_path, capsys):
        values = [r_gate for db, r_gate in FIDELITY_BAND if db == 0.0]
        payload = {
            "protocol": "offline_squeezer", "squeezing_db": 0.0,
            "sweep": {"param": "r_gate", "values": values},
        }
        code, out = main_on(tmp_path, "sweep", payload, "--quiet")
        assert (code, capsys.readouterr().err) == (0, "")
        rows = _sweep_rows(out.read_text())
        assert [row["checks_passed"] for row in rows] == ["true"] * len(values)
        assert all(abs(float(row["fidelity"]) - 0.5) <= 4 * np.finfo(float).eps for row in rows)


# repeated_squeezer chains whose plain W W^T overflows while N does not: their
# noise is read through engine._scaled_noise, up to N of about 1e33 and 5e306
SCALED_NOISE_CHAINS = [(400, 3000.0), (380, 100.0)]


@pytest.mark.filterwarnings("error")
class TestChainNoiseBeyondThePlainProduct:
    @pytest.mark.parametrize("segments, db", SCALED_NOISE_CHAINS)
    def test_run_writes_the_oracles_noise(self, tmp_path, capsys, segments, db):
        payload = {"protocol": "repeated_squeezer", "kappa": 1.0, "segments": segments,
                   "squeezing_db": db}
        code, out = main_on(tmp_path, "run", payload, "--quiet")
        assert (code, capsys.readouterr().err) == (0, "")
        doc = json.loads(out.read_text())
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == []
        _, N = step_noise_oracle([1.0, 1.0, -1.0, -1.0] * segments, cv.db_to_squeezing_r(db))
        scale = np.max(np.abs(N))
        assert scale > 1e30
        got = np.array(doc["channel"]["N"])
        assert np.max(np.abs(got - [N[0, 0], N[0, 1], N[1, 1]])) <= 1e-12 * scale

    def test_sweep_writes_the_oracles_noise_trace(self, tmp_path, capsys):
        for segments, db in SCALED_NOISE_CHAINS:
            payload = {"protocol": "repeated_squeezer", "kappa": 1.0, "squeezing_db": db,
                       "sweep": {"param": "segments", "values": [segments]}}
            code, out = main_on(tmp_path, "sweep", payload, "--quiet")
            assert (code, capsys.readouterr().err) == (0, "")
            (row,) = _sweep_rows(out.read_text())
            _, N = step_noise_oracle([1.0, 1.0, -1.0, -1.0] * segments, cv.db_to_squeezing_r(db))
            assert row["checks_passed"] == "true"
            assert abs(float(row["noise_trace"]) - np.trace(N)) <= 1e-12 * abs(np.trace(N))


def test_importing_the_cli_loads_every_layer():
    # the benchmark's tracer wraps each layer's module right after this import
    layers = ["cli", "protocols", "engine", "checks", "phase_space", "cluster", "algebra"]
    code = (
        "import sys; import cvcluster.cli; "
        f"print([m for m in {layers!r} if 'cvcluster.' + m not in sys.modules])"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


PUBLIC_NAMES = """
    DegenerateMeasurementError GaussianChannel GaussianState IDEAL_SQUEEZING_R
    InputOverflowError ProtocolCheck ProtocolReport RecordColumns StepPlan VACUUM_VARIANCE
    affine_channel algebra apply_gate attach_input bch_squeezer_residual beamsplitter_5050
    chain_channel chain_records cluster coherent_state controlled_z controlled_z_pp
    db_to_squeezing_r embed_symplectic engine fourier fourier_shear_step homodyne identity_chain
    linear_cluster measurement_basis offline_squeezer offline_teleport p_shear phase_space
    protocol_parameters protocols repeated_squeezer rotation run_named_protocol run_protocol
    shear squeezed_vacuum squeezer squeezer_four_step squeezer_protocol_matrix sweep
    symplectic_defect symplectic_form tensor uncertainty_defect update_frame vacuum_state
    verify_cubic_feedforward
""".split()


def test_the_package_defines_three_dataclasses():
    # the values that hold arrays; every other record is a NamedTuple or a dict
    modules = [m for name, m in sys.modules.items() if name.startswith("cvcluster.")]
    defined = {
        name for m in modules for name, value in vars(m).items()
        if dataclasses.is_dataclass(value) and value.__module__ == m.__name__
    }
    assert defined == {"GaussianState", "GaussianChannel", "ProtocolReport"}
    assert issubclass(cv.StepPlan, tuple) and cv.StepPlan(0.2) == (0.2,)


def test_public_names_are_pinned():
    # adding or removing a name of the package's API is a change to this list
    assert len(PUBLIC_NAMES) == 54
    assert sorted(cv.__all__) == PUBLIC_NAMES


class TestSizeBounds:
    """Chain length and run-document size are bounded before anything is built."""

    @pytest.fixture(autouse=True)
    def nothing_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused config reached the protocols")

        for name in protocols.PROTOCOLS:
            monkeypatch.setattr(protocols, name, refuse)

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("run", {"protocol": "identity_chain", "n_nodes": 10**11}, "n_nodes"),
            ("run", {"protocol": "repeated_squeezer", "segments": 10**6}, "segments"),
            ("run", {"protocol": "offline_teleport", "trials": 10**9}, "trials"),
            ("run", {"protocol": "identity_chain", "n_nodes": 11, "trials": 10**4 + 1}, "trials"),
            (
                "sweep",
                {"protocol": "identity_chain", "sweep": {"param": "n_nodes", "values": [3, 10**11]}},
                "sweep.values[1]",
            ),
            (
                "sweep",
                {"protocol": "repeated_squeezer", "sweep": {"param": "segments", "values": [10**6]}},
                "sweep.values[0]",
            ),
        ],
    )
    def test_oversized_config_exits_2_naming_the_field(
        self, tmp_path, capsys, command, payload, field
    ):
        code, out = main_on(tmp_path, command, payload)
        assert (code, out.exists()) == (2, False)
        assert capsys.readouterr().err.startswith(f"error: field {field!r}: ")

    @pytest.mark.parametrize(
        "field, largest",
        [("n_nodes", protocols.MAX_CHAIN_STEPS + 1), ("segments", protocols.MAX_CHAIN_STEPS // 4)],
    )
    def test_chain_bound_is_max_chain_steps(self, field, largest):
        cfg, _ = cli.checked_config({"protocol": "identity_chain", field: largest})
        assert cfg[field] == largest
        with pytest.raises(cli.ConfigError, match=field):
            cli.checked_config({"protocol": "identity_chain", field: largest + 1})

    def test_record_bound_is_max_records(self):
        # 10 steps a trial: 10^4 trials fill the document exactly
        cfg, input_state = cli.checked_config(
            {"protocol": "identity_chain", "n_nodes": 11, "trials": protocols.MAX_RECORDS // 10}
        )
        with pytest.raises(AssertionError, match="reached the protocols"):
            cli._run_output(cfg, input_state, quiet=True)
        cfg["trials"] += 1
        with pytest.raises(cli.ConfigError, match="trials"):
            cli._run_output(cfg, input_state, quiet=True)


@pytest.mark.parametrize("protocol", sorted(cv.protocols.PROTOCOLS))
def test_records_per_trial_counts_the_document_records(protocol):
    # at 1-3 trials, the records block is json.dumps's text of one dict per
    # record, built from the report's columns: a numpy float in a column would show
    for trials in (1, 2, 3):
        cfg, input_state = cli.checked_config(
            {"protocol": protocol, "n_nodes": 4, "segments": 2, "trials": trials}
        )
        text, _ = cli._run_output(cfg, input_state, quiet=True)
        report = cv.run_named_protocol(
            cfg["protocol"], cli._protocol_params(cfg, input_state), seed=cfg["seed"],
            trials=cfg["trials"],
        )
        records = [
            {"trial": t, "step_index": step_index, "mode": mode, "kappa": kappa, "theta": theta,
             "raw_outcome": raw, "rescaled_outcome": rescaled}
            for t, trial in enumerate(report.record_columns)
            for step_index, mode, kappa, theta, raw, rescaled in zip(*trial)
        ]
        assert len(records) == protocols.document_records(cfg["protocol"], cfg, cfg["trials"])
        assert text == _reference_json({**json.loads(text), "records": records})
