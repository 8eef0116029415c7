"""Configuration-driven runner.

Commands: ``run <config>`` executes one protocol and writes a JSON result
document, ``sweep <config>`` runs a one-parameter grid and writes a CSV
table, ``verify`` runs the invariant and identity suite and prints a
pass/fail table.

Configs and result documents are JSON with a ``schema_version`` field.
The protocol name, numeric fields, the sweep grid, a run's record count and
an overflowing channel or input are refused by the library's own rules in
``protocols`` with ``ConfigError`` naming the field; this module checks only
the config's shape and its input, and keeps no copy of those rules.
Floats are serialized with Python's shortest round-trip repr, so identical
config + seed produce byte-identical documents and parsing a document and
re-emitting it is the identity; printed summaries quote values to 12
significant digits. A run document's text is byte for byte that of
``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``, and each
byte has one writer: ``emit_json`` (that call) writes the envelope, every
fact but the records, taken here from the report's own fields, with
``"records": null``, and ``_records_text`` writes the records, one template
per record straight from the report's columns, into that place. A sweep's
CSV is the rows of ``protocols.sweep`` as they are, the header from their
keys. Randomness comes from numpy's PCG64 generator
seeded from the config (CLI --seed overrides), which is stable across
platforms.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import checks, protocols
from .phase_space import GaussianState, coherent_state, squeezed_vacuum, vacuum_state
from .protocols import ConfigError

SCHEMA_VERSION = 1


# input kind -> the keys besides "kind" that it reads
_INPUT_KEYS = {"vacuum": (), "coherent": ("re", "im"), "squeezed": ("r", "axis")}
_KNOWN_FIELDS = {
    "schema_version", "protocol", *protocols.PARAMETERS, "input", "sweep", "output_path",
}


@dataclass
class ExperimentConfig:
    protocol: str
    params: dict = field(default_factory=lambda: dict(protocols.PARAMETER_DEFAULTS))
    input: dict = field(default_factory=lambda: {"kind": "vacuum"})
    seed: int = protocols.PARAMETERS["seed"].default
    trials: int = protocols.PARAMETERS["trials"].default
    sweep: dict | None = None
    output_path: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        for key in raw:
            if key not in _KNOWN_FIELDS:
                raise ConfigError(f"unknown config field {key!r}")
        if "protocol" not in raw:
            raise ConfigError("missing required field 'protocol'")
        version = raw.get("schema_version", SCHEMA_VERSION)
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise ConfigError(f"field 'schema_version': must be {SCHEMA_VERSION}, got {version!r}")
        cfg = cls(protocol=str(raw["protocol"]))
        protocols.protocol_parameters(cfg.protocol)  # refuses an unknown protocol
        checked = {name: protocols.checked_parameter(name, raw[name])
                   for name in protocols.PARAMETERS if name in raw}
        cfg.seed, cfg.trials = checked.pop("seed", cfg.seed), checked.pop("trials", cfg.trials)
        cfg.params.update(checked)
        if "input" in raw:
            cfg.input = raw["input"]
            cfg.input_state  # validate eagerly
        if "output_path" in raw and raw["output_path"] is not None:
            if not isinstance(raw["output_path"], str):
                raise ConfigError("field 'output_path': expected a string")
            cfg.output_path = raw["output_path"]
        if "sweep" in raw and raw["sweep"] is not None:
            sweep = raw["sweep"]
            if not isinstance(sweep, dict) or "param" not in sweep or "values" not in sweep:
                raise ConfigError("field 'sweep': expected {param, values}")
            for key in sweep:
                if key not in ("param", "values"):
                    raise ConfigError(f"field 'sweep.{key}': a sweep does not read it")
            protocols.checked_sweep(cfg.protocol, sweep["param"], sweep["values"])
            # the raw values are kept: they are echoed verbatim in the CSV
            cfg.sweep = {"param": sweep["param"], "values": list(sweep["values"])}
        return cfg

    @cached_property
    def input_state(self) -> GaussianState:
        """The state ``input`` describes, built (and validated) at the first
        read and kept: ``from_dict`` sets ``input`` before reading it."""
        return build_input_state(self.input)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "protocol": self.protocol,
            **self.params,
            "input": self.input,
            "seed": int(self.seed),
            "trials": int(self.trials),
            "sweep": self.sweep,
            "output_path": self.output_path,
        }


def build_input_state(spec: dict) -> GaussianState:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("field 'input': expected an object with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _INPUT_KEYS:
        raise ConfigError(f"field 'input.kind': unknown kind {kind!r}")
    for key, value in spec.items():
        if key != "kind" and key not in _INPUT_KEYS[kind]:
            raise ConfigError(f"field 'input.{key}': a {kind} input does not read it")
        if isinstance(value, (bool, str)) and key in ("re", "im", "r"):
            got = "a boolean" if isinstance(value, bool) else "a string"
            raise ConfigError(f"field 'input.{key}': expected a number, got {got}")
    if kind == "vacuum":
        return vacuum_state(1)
    if kind == "coherent":
        try:
            re, im = float(spec["re"]), float(spec["im"])
        except KeyError as missing:
            raise ConfigError(f"field 'input': coherent input needs {missing}")
        except OverflowError:  # an integer past the largest float
            re = im = math.inf
        except (TypeError, ValueError):
            raise ConfigError("field 'input': coherent re and im must be numbers")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ConfigError("field 'input': coherent re and im must be finite")
        return coherent_state(re, im)
    try:  # squeezed
        r = float(spec["r"])
        if not protocols._finite_squeezing(r):
            raise ValueError("squeezed r must be finite, with e^{2|r|} finite")
        return squeezed_vacuum(r, str(spec["axis"]))
    except KeyError as missing:
        raise ConfigError(f"field 'input': squeezed input needs {missing}")
    except OverflowError:  # an integer past the largest float
        raise ConfigError("field 'input': squeezed r must be finite, with e^{2|r|} finite")
    except (TypeError, ValueError) as bad:
        raise ConfigError(f"field 'input': {bad}")


def _protocol_params(cfg: ExperimentConfig) -> dict:
    return {**cfg.params, "input_state": cfg.input_state}


def run_document(cfg: ExperimentConfig) -> str:
    """The text of one result document."""
    return _run_output(cfg, quiet=True)[0]


def emit_json(doc: dict) -> str:
    """The document's text; a NaN or an infinity anywhere raises ``ValueError``."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


# one record as json.dumps writes it in a run document, its keys sorted
_RECORD = (
    "    {\n"
    '      "kappa": %r,\n'
    '      "mode": %r,\n'
    '      "raw_outcome": %r,\n'
    '      "rescaled_outcome": %r,\n'
    '      "step_index": %r,\n'
    '      "theta": %r,\n'
    '      "trial": %r\n'
    "    }"
)
# the envelope's placeholder for the records: every '"' inside a JSON string is
# escaped, so this text occurs once, as the top-level key
_RECORDS_SLOT = '"records": null'


def _records_text(table: protocols.RecordTable) -> str:
    """The document's ``records`` list, written from the report's columns of
    Python ints and floats; every run holds at least one record."""
    records = [
        _RECORD % (kappa, mode, raw, rescaled, step_index, theta, t)
        for t, trial in enumerate(table)
        for step_index, mode, kappa, theta, raw, rescaled in zip(*trial)
    ]
    return "[\n" + ",\n".join(records) + "\n  ]"


def emit_csv(rows: list[dict]) -> str:
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} in a CSV cell")
            return repr(v)
        return str(v)

    lines = [",".join(rows[0])]
    lines += [",".join(cell(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _sig12(v) -> str:
    return "None" if v is None else format(v, ".12g")


def _load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as bad:
        raise ConfigError(f"config is not valid UTF-8: {bad}")
    except json.JSONDecodeError as bad:
        raise ConfigError(f"config is not valid JSON: {bad}")
    cfg = ExperimentConfig.from_dict(raw)
    # a seed override changes the experiment and is echoed in the document;
    # --output only redirects the write and must not perturb the bytes
    if seed_override is not None:
        cfg.seed = protocols.checked_parameter("seed", seed_override, "--seed")
    return cfg


def _summary(label: str, values: dict) -> str:
    quoted = (f"{key}={_sig12(values[key])}" for key in ("deviation", "noise_trace", "fidelity"))
    return f"{label}: {' '.join(quoted)}"


def _run_output(cfg: ExperimentConfig, quiet: bool) -> tuple[str, list[str]]:
    """The run document's text and, unless ``quiet``, its summary line: the
    report of cfg.trials seeded trials, whose channel and checks are built
    once, with the config echoed. Trials that would overfill it are refused by
    ``run_named_protocol`` before anything is built, and a non-finite outcome
    when the records are read, before any text is written."""
    report = protocols.run_named_protocol(
        cfg.protocol, _protocol_params(cfg), seed=cfg.seed, trials=cfg.trials
    )
    records = _records_text(report.record_columns)
    (n_xx, n_xp), (_, n_pp) = report.channel.N.tolist()
    envelope = {
        "schema_version": SCHEMA_VERSION, "config": cfg.to_dict(),
        "name": report.name, "parameters": report.parameters,
        "channel": {"S": report.channel.S.ravel().tolist(), "N": [n_xx, n_xp, n_pp],
                    "d": [0.0, 0.0]},
        "target_S": report.target_S.ravel().tolist(), "fidelity": report.fidelity,
        "deviation": report.deviation, "noise_trace": report.noise_trace,
        "checks": [{"name": c.name, "passed": c.passed, "value": c.value} for c in report.checks],
        "records": None,
    }
    text = emit_json(envelope).replace(_RECORDS_SLOT, '"records": ' + records, 1)
    return text, [] if quiet else [_summary(cfg.protocol, envelope)]


def _sweep_output(cfg: ExperimentConfig, quiet: bool) -> tuple[str, list[str]]:
    """The sweep CSV's text and, unless ``quiet``, one summary line per row."""
    if cfg.sweep is None:
        raise ConfigError("field 'sweep': required for the sweep command")
    rows = protocols.sweep(cfg.protocol, _protocol_params(cfg), **cfg.sweep)
    summary = [] if quiet else [_summary(f"{row['param']}={row['value']}", row) for row in rows]
    return emit_csv(rows), summary


def cmd_write(path: str, seed: int | None, output: str | None, quiet: bool, build,
              default_output: str) -> int:
    """Load a config, build its output text and, unless ``quiet``, its summary
    lines with ``build``, write the text and print the summary."""
    try:
        cfg = _load_config(path, seed)
        text, summary = build(cfg, quiet)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a failure that no rule refused
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    out_path = output or cfg.output_path or default_output
    try:
        Path(out_path).write_text(text)
    except OSError as err:  # the text is finished: print one error line instead
        print(f"error: cannot write {out_path}: {err.strerror or err}", file=sys.stderr)
        return 1
    if not quiet:
        print("\n".join([*summary, f"wrote {out_path}"]))
    return 0


def cmd_verify(quiet: bool) -> int:
    results = checks.run_all_checks()
    width = max(len(r.name) for r in results)
    failures = sum(not r.passed for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not quiet or not r.passed:
            print(f"{r.name:<{width}}  {status}  {_sig12(r.value)}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvcluster",
        description="Gaussian cluster-computation protocol runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one protocol from a config file")
    run_p.add_argument("config")
    sweep_p = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    sweep_p.add_argument("config")
    for p in (run_p, sweep_p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--output", default=None, help="override the output path")
        p.add_argument("--quiet", action="store_true")
    verify_p = sub.add_parser("verify", help="run the invariant and identity suite")
    verify_p.add_argument("--quiet", action="store_true")
    return parser


# command -> (builder of its output text and summary lines, default output file)
_OUTPUTS = {"run": (_run_output, "result.json"), "sweep": (_sweep_output, "sweep.csv")}
_PARSER = _build_parser()  # built once per process: parse_args keeps no state


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.quiet)
    build, default_output = _OUTPUTS[args.command]
    return cmd_write(args.config, args.seed, args.output, args.quiet, build, default_output)


if __name__ == "__main__":
    raise SystemExit(main())
