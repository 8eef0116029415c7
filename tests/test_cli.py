import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cvcluster as cv
from cvcluster import checks, cli, protocols
from conftest import step_noise_oracle
from measurement_picture import independent_probe_deviation
from reference import report_facts

SRC = Path(__file__).resolve().parents[1] / "src"


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
    def test_round_trip(self):
        cfg = cli.ExperimentConfig.from_dict(BASE_RUN)
        again = cli.ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg.to_dict() == again.to_dict()

    def test_unknown_protocol_names_field(self):
        with pytest.raises(cli.ConfigError, match="protocol"):
            cli.ExperimentConfig.from_dict({"protocol": "warp_drive"})

    def test_missing_protocol(self):
        with pytest.raises(cli.ConfigError, match="protocol"):
            cli.ExperimentConfig.from_dict({"seed": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(cli.ConfigError, match="wibble"):
            cli.ExperimentConfig.from_dict({"protocol": "offline_teleport", "wibble": 1})

    def test_empty_sweep_values_rejected(self):
        with pytest.raises(cli.ConfigError, match="sweep.values"):
            cli.ExperimentConfig.from_dict(
                {
                    "protocol": "offline_teleport",
                    "sweep": {"param": "squeezing_db", "values": []},
                }
            )

    def test_negative_squeezing_rejected(self):
        with pytest.raises(cli.ConfigError, match="squeezing_db"):
            cli.ExperimentConfig.from_dict(
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
            cli.ExperimentConfig.from_dict({"protocol": "offline_squeezer", field: value})

    def test_largest_representable_squeezing_accepted(self):
        cfg = cli.ExperimentConfig.from_dict(
            {"protocol": "identity_chain", "squeezing_db": 3000.0, "r_gate": -300.0}
        )
        assert (cfg.params["squeezing_db"], cfg.params["r_gate"]) == (3000.0, -300.0)

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
            cli.ExperimentConfig.from_dict(
                {"protocol": "identity_chain", "sweep": {"param": param, "values": values}}
            )

    @pytest.mark.parametrize("field", sorted(protocols.PARAMETERS))
    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected_in_every_scalar_field(self, field, value):
        # a boolean is not a number here, although Python casts it to 0 or 1
        with pytest.raises(cli.ConfigError, match=rf"{field}.*boolean"):
            cli.ExperimentConfig.from_dict({"protocol": "repeated_squeezer", field: value})

    @pytest.mark.parametrize("field", sorted(protocols.PARAMETERS))
    @pytest.mark.parametrize("value", [" 3 ", "1_0", "inf"])
    def test_strings_rejected_in_every_scalar_field(self, field, value):
        # int() and float() would parse these, "1_0" as 10
        cast = protocols.PARAMETERS[field].cast.__name__
        message = f"field '{field}': expected {cast}, got a string"
        with pytest.raises(cli.ConfigError) as refused:
            cli.ExperimentConfig.from_dict({"protocol": "repeated_squeezer", field: value})
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "field, value", [("n_nodes", 5.7), ("segments", 1.5), ("seed", 2.5), ("trials", 2.9)]
    )
    def test_non_integral_float_rejected_in_integer_fields(self, field, value):
        with pytest.raises(cli.ConfigError, match=rf"{field}.*integer"):
            cli.ExperimentConfig.from_dict({"protocol": "identity_chain", field: value})

    def test_integral_float_accepted_in_integer_fields(self):
        cfg = cli.ExperimentConfig.from_dict(
            {"protocol": "identity_chain", "n_nodes": 4.0, "segments": 2.0, "seed": 3.0, "trials": 2.0}
        )
        values = (cfg.params["n_nodes"], cfg.params["segments"], cfg.seed, cfg.trials)
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
        cfg = cli.ExperimentConfig.from_dict(payload)
        assert calls == [spec]  # validated eagerly
        cli.run_document(cfg) if command == "run" else cli._sweep_output(cfg, quiet=True)
        assert calls == [spec]
        assert set(cfg.to_dict()) == set(cli._KNOWN_FIELDS)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(cli.ConfigError, match="input"):
            cli.build_input_state({"kind": "coherent", "re": "nan", "im": 0.0})
        with pytest.raises(cli.ConfigError, match="input"):
            cli.build_input_state({"kind": "squeezed", "r": 1e9, "axis": "x"})

    def test_emitters_refuse_nan(self):
        with pytest.raises(ValueError):
            cli.emit_json({"value": float("nan")})
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
        assert cli.emit_json(json.loads(text)) == text

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


# strings with non-ASCII characters, escapes, a lone surrogate and the text of
# the envelope's records slot, which the config echoes before that slot
_STRINGS = st.text(max_size=10) | st.sampled_from(
    ['"', "\\", "\n\t\x00", "é", "\u2028", "\ud800", "𝜅", "", cli._RECORDS_SLOT]
)
_AMPLITUDES = st.floats(-3.0, 3.0) | st.floats(-1e100, 1e100)
_INPUTS = st.one_of(
    st.just({"kind": "vacuum"}),
    st.fixed_dictionaries({"kind": st.just("coherent"), "re": _AMPLITUDES, "im": _AMPLITUDES}),
    st.fixed_dictionaries(
        {"kind": st.just("squeezed"), "r": st.floats(0.0, 2.0), "axis": st.sampled_from(["x", "p"])}
    ),
)
# run configs over every protocol and input kind, echoing any output_path string
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
        "output_path": _STRINGS,
    },
)


class TestJsonWriter:
    """A run document is json.dumps's text, though ``cli`` writes the records
    itself and splices them into the envelope's slot."""

    @given(_RUN_CONFIGS)
    @settings(max_examples=60, deadline=None)
    def test_run_document_is_what_json_dumps_writes(self, payload):
        cfg = cli.ExperimentConfig.from_dict(payload)
        text = cli.run_document(cfg)
        doc = json.loads(text)
        assert text == _reference_json(doc)
        assert doc["config"]["output_path"] == payload.get("output_path")
        # the spliced records hold the report's values, not a rounding of them
        params = cli._protocol_params(cfg)
        report = cv.run_named_protocol(cfg.protocol, params, cfg.seed, cfg.trials)
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
        cfg = cli.ExperimentConfig.from_dict(payload)
        params = cli._protocol_params(cfg)
        report = cv.run_named_protocol(cfg.protocol, params, cfg.seed, cfg.trials)
        table = list(report.record_columns)
        trial %= len(table)
        events = list(getattr(table[trial], column))
        events[index % len(events)] = value
        table[trial] = table[trial]._replace(**{column: tuple(events)})
        broken = dataclasses.replace(report, draw_records=lambda: tuple(table))
        emitted = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocols, "run_named_protocol", lambda *args, **kwargs: broken)
            mp.setattr(cli, "emit_json", lambda doc: emitted.append(doc))
            with pytest.raises(cv.InputOverflowError, match="an outcome record is not finite"):
                cli.run_document(cfg)
        assert emitted == []

    def test_long_run_document_is_pinned(self):
        # 250 segments, 2 trials: 2000 records; the length and hash are those
        # of the text that json.dumps writes for this document
        cfg = cli.ExperimentConfig.from_dict(
            {"protocol": "repeated_squeezer", "segments": 250, "trials": 2, "seed": 7}
        )
        text = cli.run_document(cfg)
        assert len(text) == 436142
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7cd950f1399133a1e4aa4a00ad96168ca4d6e51a6415c6db862d24af0051c5b6"
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

    def test_unread_sweep_key_exits_2(self, tmp_path, capsys):
        payload = {**BASE_RUN, "sweep": {"param": "kappa", "values": [0.1], "step": 0.1}}
        code, out = main_on(tmp_path, "sweep", payload)
        captured = capsys.readouterr()
        assert (code, captured.out, out.exists()) == (2, "", False)
        assert captured.err == "error: field 'sweep.step': a sweep does not read it\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("path", [["a"], 3, {"a": "b"}])
    def test_non_string_output_path_exits_2(self, tmp_path, monkeypatch, capsys, command, path):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "cfg.json", {**self.PAYLOAD, "output_path": path})
        assert cli.main([command, cfg, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: field 'output_path': expected a string\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

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

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"kind": "coherent", "re": "1_0", "im": 0.0}, "re"),
            ({"kind": "coherent", "re": 0.5, "im": " 2 "}, "im"),
            ({"kind": "squeezed", "r": "0.5", "axis": "x"}, "r"),
        ],
    )
    def test_input_number_given_as_a_string_exits_2(self, tmp_path, capsys, spec, key):
        # float() would parse these, "1_0" as a coherent amplitude of 10
        code, out = main_on(tmp_path, "run", {"protocol": "identity_chain", "input": spec})
        assert (code, out.exists()) == (2, False)
        error = f"error: field 'input.{key}': expected a number, got a string\n"
        assert capsys.readouterr() == ("", error)

    @pytest.mark.parametrize(
        "payload, error",
        [
            ([], "config root must be a JSON object"),
            ({**BASE_RUN, "sweep": 5}, "field 'sweep': expected {param, values}"),
            ({**BASE_RUN, "input": 5}, "field 'input': expected an object with a 'kind'"),
            ({**BASE_RUN, "input": {"kind": "coherent", "re": 0.5}},
             "field 'input': coherent input needs 'im'"),
            ({**BASE_RUN, "input": {"kind": "coherent", "re": None, "im": 0.0}},
             "field 'input': coherent re and im must be numbers"),
            ({**BASE_RUN, "input": {"kind": "coherent", "re": math.inf, "im": 0.0}},
             "field 'input': coherent re and im must be finite"),
            ({**BASE_RUN, "input": {"kind": "squeezed", "r": 0.5}},
             "field 'input': squeezed input needs 'axis'"),
            ({"protocol": "offline_teleport", "input": {"kind": "coherent", "re": 10**400, "im": 0}},
             "field 'input': coherent re and im must be finite"),
            ({**BASE_RUN, "input": {"kind": "coherent", "re": 0.5, "im": -(10**400)}},
             "field 'input': coherent re and im must be finite"),
            ({**BASE_RUN, "input": {"kind": "squeezed", "r": 10**400, "axis": "x"}},
             "field 'input': squeezed r must be finite, with e^{2|r|} finite"),
            ({**BASE_RUN, "input": {"kind": "squeezed", "r": -(10**400), "axis": "p"}},
             "field 'input': squeezed r must be finite, with e^{2|r|} finite"),
        ],
        ids=["root_list", "sweep_number", "input_number", "coherent_no_im", "coherent_re_null",
             "coherent_re_infinity", "squeezed_no_axis", "coherent_re_integer_past_float",
             "coherent_im_integer_past_float", "squeezed_r_integer_past_float",
             "squeezed_negative_r_integer_past_float"],
    )
    def test_config_shape_refusal_exits_2_with_its_line(self, tmp_path, capsys, payload, error):
        # json.dumps writes math.inf as the JavaScript literal Infinity, which json.loads reads,
        # and an int as an integer literal, which json.loads reads as an int past any float
        code, out = main_on(tmp_path, "run", payload)
        assert (code, out.exists()) == (2, False)
        assert capsys.readouterr() == ("", f"error: {error}\n")


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

    def test_verify_command_exit_code(self, capsys):
        assert cli.main(["verify", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_verify_output_includes_scaling_ratios(self, capsys):
        cli.main(["verify"])
        out = capsys.readouterr().out
        assert "bch_cubic_scaling_ratio_at_0.1" in out
        assert "four_step_deviation_ratio_at_0.1" in out



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
        cfg = cli.ExperimentConfig.from_dict({**payload, "protocol": "offline_teleport"})
        assert cfg.to_dict()["schema_version"] == cli.SCHEMA_VERSION == 1


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

        monkeypatch.setitem(protocols.PROTOCOLS, "offline_teleport", (overflowing, ()))
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
        cfg = cli.ExperimentConfig.from_dict(payload)
        report = cv.run_named_protocol(cfg.protocol, cli._protocol_params(cfg))
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
            "matches_exact_four_step_matrix": True,
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

    def test_console_run_at_the_limit_prints_no_error(self, tmp_path):
        result, out = _console_run(tmp_path, {"protocol": "offline_squeezer", "r_gate": 354.89})
        assert (result.returncode, result.stderr) == (0, "")
        assert all(check["passed"] for check in json.loads(out.read_text())["checks"])


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

    def test_console_run_at_the_limit_prints_no_error(self, tmp_path):
        payload = {"protocol": "offline_squeezer", "squeezing_db": 0, "r_gate": 354.89}
        result, out = _console_run(tmp_path, payload)
        assert (result.returncode, result.stderr) == (0, "")
        doc = json.loads(out.read_text())
        assert all(check["passed"] for check in doc["checks"])
        assert abs(doc["fidelity"] - 0.5) <= 1e-12


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

        for name, (_, reads) in list(protocols.PROTOCOLS.items()):
            monkeypatch.setitem(protocols.PROTOCOLS, name, (refuse, reads))

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
        cfg = cli.ExperimentConfig.from_dict({"protocol": "identity_chain", field: largest})
        assert cfg.params[field] == largest
        with pytest.raises(cli.ConfigError, match=field):
            cli.ExperimentConfig.from_dict({"protocol": "identity_chain", field: largest + 1})

    def test_record_bound_is_max_records(self):
        # 10 steps a trial: 10^4 trials fill the document exactly
        cfg = cli.ExperimentConfig.from_dict(
            {"protocol": "identity_chain", "n_nodes": 11, "trials": protocols.MAX_RECORDS // 10}
        )
        with pytest.raises(AssertionError, match="reached the protocols"):
            cli.run_document(cfg)
        cfg.trials += 1
        with pytest.raises(cli.ConfigError, match="trials"):
            cli.run_document(cfg)


@pytest.mark.parametrize("protocol", sorted(cv.protocols.PROTOCOLS))
def test_records_per_trial_counts_the_document_records(protocol):
    # at 1-3 trials, the records block is json.dumps's text of one dict per
    # record, built from the report's columns: a numpy float in a column would show
    for trials in (1, 2, 3):
        cfg = cli.ExperimentConfig.from_dict(
            {"protocol": protocol, "n_nodes": 4, "segments": 2, "trials": trials}
        )
        text = cli.run_document(cfg)
        report = cv.run_named_protocol(
            cfg.protocol, cli._protocol_params(cfg), seed=cfg.seed, trials=cfg.trials
        )
        records = [
            {"trial": t, "step_index": step_index, "mode": mode, "kappa": kappa, "theta": theta,
             "raw_outcome": raw, "rescaled_outcome": rescaled}
            for t, trial in enumerate(report.record_columns)
            for step_index, mode, kappa, theta, raw, rescaled in zip(*trial)
        ]
        assert len(records) == protocols.document_records(cfg.protocol, cfg.params, cfg.trials)
        assert text == _reference_json({**json.loads(text), "records": records})
