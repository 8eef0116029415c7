"""Configuration-driven runner.

Commands: ``run <config>`` executes one protocol and writes a JSON result
document, ``sweep <config>`` runs a one-parameter grid and writes a CSV
table, ``verify`` runs the invariant and identity suite and prints a
pass/fail table.

Configs and result documents are JSON with a ``schema_version`` field.
Floats are serialized with Python's shortest round-trip repr, so identical
config + seed produce byte-identical documents and parsing a document and
re-emitting it is the identity; printed summaries quote values to 12
significant digits. Randomness comes from numpy's PCG64 generator seeded
from the config (CLI --seed overrides), which is stable across platforms.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks, protocols
from .phase_space import GaussianState, coherent_state, squeezed_vacuum, vacuum_state

SCHEMA_VERSION = 1
# the longest chain a config may ask for, and the most records a run
# document may hold; either bound keeps a document within a few hundred MB
MAX_CHAIN_STEPS = 10**5
MAX_RECORDS = 10**5


class ConfigError(ValueError):
    """A config file failed schema validation; the message names the field."""


def _finite_squeezing(r: float) -> bool:
    """True if e^{2r} and e^{-2r} are both finite floats."""
    try:
        return math.isfinite(math.exp(2 * abs(r)))
    except OverflowError:
        return False


# field -> (caster, condition on the cast value, message if it fails)
_SCALAR_FIELDS = {
    "squeezing_db": (
        float,
        lambda v: v >= 0 and _finite_squeezing(protocols.db_to_squeezing_r(v)),
        "must be finite and >= 0, with e^{2r} finite",
    ),
    "kappa": (float, math.isfinite, "must be finite"),
    "n_nodes": (int, lambda v: v >= 2, "must be >= 2"),
    "segments": (int, lambda v: v >= 1, "must be >= 1"),
    "r_gate": (float, _finite_squeezing, "must be finite, with e^{2|r_gate|} finite"),
    "seed": (int, lambda v: v >= 0, "must be a non-negative integer"),
    "trials": (int, lambda v: v >= 1, "must be >= 1"),
}
# field -> its largest value: a chain of MAX_CHAIN_STEPS steps
_MAX_VALUES = {"n_nodes": MAX_CHAIN_STEPS + 1, "segments": MAX_CHAIN_STEPS // 4}
_DEFAULTS = protocols.PARAMETER_DEFAULTS
_KNOWN_FIELDS = {
    "schema_version", "protocol", *_DEFAULTS, "input", "seed", "trials", "sweep", "output_path",
}


def _checked_scalar(name: str, raw, label: str | None = None):
    """Cast a raw config value for field ``name`` and check its condition.

    Booleans are refused rather than read as 0 or 1, and an integer field
    refuses a float with a fractional part rather than truncating it."""
    caster, cond, what = _SCALAR_FIELDS[name]
    label = label or name
    if isinstance(raw, bool):
        raise ConfigError(f"field {label!r}: expected {caster.__name__}, got a boolean")
    try:
        value = caster(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field {label!r}: expected {caster.__name__}")
    if caster is int and isinstance(raw, float) and value != raw:
        raise ConfigError(f"field {label!r}: expected an integer, got {raw!r}")
    if not cond(value):
        raise ConfigError(f"field {label!r}: {what}")
    if value > _MAX_VALUES.get(name, value):
        bound = f"must be <= {_MAX_VALUES[name]}, a chain of at most {MAX_CHAIN_STEPS} steps"
        raise ConfigError(f"field {label!r}: {bound}")
    return value


@dataclass
class ExperimentConfig:
    protocol: str
    squeezing_db: float = _DEFAULTS["squeezing_db"]
    kappa: float = _DEFAULTS["kappa"]
    n_nodes: int = _DEFAULTS["n_nodes"]
    segments: int = _DEFAULTS["segments"]
    r_gate: float = _DEFAULTS["r_gate"]
    input: dict = field(default_factory=lambda: {"kind": "vacuum"})
    seed: int = 0
    trials: int = 1
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
        if cfg.protocol not in protocols.PROTOCOLS:
            raise ConfigError(
                f"field 'protocol': unknown protocol {cfg.protocol!r}; "
                f"known: {', '.join(protocols.PROTOCOLS)}"
            )
        for name in _SCALAR_FIELDS:
            if name in raw:
                setattr(cfg, name, _checked_scalar(name, raw[name]))
        if "input" in raw:
            cfg.input = raw["input"]
            build_input_state(cfg.input)  # validate eagerly
        if "output_path" in raw and raw["output_path"] is not None:
            cfg.output_path = str(raw["output_path"])
        if "sweep" in raw and raw["sweep"] is not None:
            sweep = raw["sweep"]
            if not isinstance(sweep, dict) or "param" not in sweep or "values" not in sweep:
                raise ConfigError("field 'sweep': expected {param, values}")
            if not isinstance(sweep["values"], list) or len(sweep["values"]) == 0:
                raise ConfigError("field 'sweep.values': must be a nonempty list")
            if sweep["param"] not in _DEFAULTS:
                raise ConfigError(f"field 'sweep.param': cannot sweep {sweep['param']!r}")
            # the raw values are kept: they are echoed verbatim in the CSV
            for i, value in enumerate(sweep["values"]):
                _checked_scalar(sweep["param"], value, f"sweep.values[{i}]")
            cfg.sweep = {"param": str(sweep["param"]), "values": list(sweep["values"])}
        return cfg

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "protocol": self.protocol,
            **{name: type(default)(getattr(self, name)) for name, default in _DEFAULTS.items()},
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
    if kind == "vacuum":
        return vacuum_state(1)
    if kind == "coherent":
        try:
            re, im = float(spec["re"]), float(spec["im"])
        except KeyError as missing:
            raise ConfigError(f"field 'input': coherent input needs {missing}")
        except (TypeError, ValueError):
            raise ConfigError("field 'input': coherent re and im must be numbers")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ConfigError("field 'input': coherent re and im must be finite")
        return coherent_state(re, im)
    if kind == "squeezed":
        try:
            r = float(spec["r"])
            if not _finite_squeezing(r):
                raise ValueError("squeezed r must be finite, with e^{2|r|} finite")
            return squeezed_vacuum(r, str(spec["axis"]))
        except KeyError as missing:
            raise ConfigError(f"field 'input': squeezed input needs {missing}")
        except (TypeError, ValueError) as bad:
            raise ConfigError(f"field 'input': {bad}")
    raise ConfigError(f"field 'input.kind': unknown kind {kind!r}")


def _protocol_params(cfg: ExperimentConfig) -> dict:
    params = {name: getattr(cfg, name) for name in _DEFAULTS}
    params["input_state"] = build_input_state(cfg.input)
    return params


def _records_per_trial(cfg: ExperimentConfig) -> int:
    """One record per chain step; the off-line protocols read two ports."""
    chains = {"identity_chain": cfg.n_nodes - 1, "squeezer_four_step": 4,
              "repeated_squeezer": 4 * cfg.segments}
    return chains.get(cfg.protocol, 2)


def run_document(cfg: ExperimentConfig) -> dict:
    """One result document: the report of cfg.trials seeded trials, whose
    channel and checks are built once, with the config echoed."""
    records = cfg.trials * _records_per_trial(cfg)
    if records > MAX_RECORDS:
        raise ConfigError(
            f"field 'trials': {cfg.trials} trials write {records} records, "
            f"more than the {MAX_RECORDS} a run document may hold"
        )
    report = protocols.run_named_protocol(
        cfg.protocol, _protocol_params(cfg), seed=cfg.seed, trials=cfg.trials
    )
    return {"schema_version": SCHEMA_VERSION, "config": cfg.to_dict(), **report.to_dict()}


def sweep_table(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """The sweep's CSV header and cells, in the order of its rows' keys."""
    if cfg.sweep is None:
        raise ConfigError("field 'sweep': required for the sweep command")
    params = _protocol_params(cfg)
    rows = protocols.sweep(cfg.protocol, params, cfg.sweep["param"], cfg.sweep["values"])
    return list(rows[0]), [list(row.values()) for row in rows]


def emit_json(doc: dict) -> str:
    # NaN and infinity are not JSON; refuse them rather than write them
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_result(text: str) -> dict:
    return json.loads(text)


def emit_csv(header: list[str], rows: list[list]) -> str:
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

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
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
        cfg.seed = _checked_scalar("seed", seed_override, "--seed")
    return cfg


def _summary(label: str, values: dict) -> str:
    quoted = (f"{key}={_sig12(values[key])}" for key in ("deviation", "noise_trace", "fidelity"))
    return f"{label}: {' '.join(quoted)}"


def _run_output(cfg: ExperimentConfig) -> tuple[str, list[str]]:
    """The run document's text and its summary line."""
    doc = run_document(cfg)
    return emit_json(doc), [_summary(cfg.protocol, doc)]


def _sweep_output(cfg: ExperimentConfig) -> tuple[str, list[str]]:
    """The sweep CSV's text and one summary line per row."""
    header, rows = sweep_table(cfg)
    return emit_csv(header, rows), [_summary(f"{r[1]}={r[2]}", dict(zip(header, r))) for r in rows]


def cmd_write(path: str, seed: int | None, output: str | None, quiet: bool, build,
              default_output: str) -> int:
    """Load a config, build its output text and summary lines with ``build``,
    write the text and print the summary."""
    try:
        cfg = _load_config(path, seed)
        # the finite checks refuse an overflow, so numpy's warnings of it add nothing
        try:
            with np.errstate(all="ignore"):
                text, summary = build(cfg)
        except protocols.InputOverflowError as err:
            raise ConfigError(f"field 'input': {err}") from err
        except OverflowError as err:  # the report refuses a channel beyond double precision
            raise ConfigError(f"field 'kappa': {err}") from err
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failure, e.g. a degenerate measurement
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
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
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
