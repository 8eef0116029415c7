"""Configuration-driven runner.

Commands: ``run <config>`` executes one protocol and writes a JSON result
document, ``sweep <config>`` runs a one-parameter grid and writes a CSV
table, ``verify`` runs the invariant and identity suite and prints a
pass/fail table.

Configs and result documents are JSON with a ``schema_version`` field.
``checked_config`` parses a config into the dict that a run document echoes
under ``"config"``, every field present. The protocol name, numeric fields,
the sweep grid, a run's record count and an overflowing channel or input are
refused by the library's rules in ``protocols`` with ``ConfigError`` naming
the field; this module checks only the config's shape, its input and its
output path, which must name a file, as ``--output`` must (``_checked_path``).
Floats are serialized with Python's shortest round-trip repr, so identical
config + seed produce byte-identical documents and parsing a document and
re-emitting it is the identity; printed summaries quote values to 12
significant digits. A run document's text is byte for byte what
``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)`` writes, and
the tests hold it to that call, but this module writes it from fixed
templates: ``_DOCUMENT`` for the envelope, with a slot for each of the
report's facts and the config's fields, one per check and one per record,
each leaf written as json writes it; a NaN or an infinity raises json's
``ValueError``. A sweep's CSV is the rows of ``protocols.sweep`` as they
are, the header from their keys. Randomness comes from numpy's PCG64
generator seeded from the config (CLI --seed overrides), which is stable
across platforms. ``main`` reads an argv that is a command followed only by
exact tokens without argparse, which reads every other argv and alone
writes usage, help and error text.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import checks, protocols
from .phase_space import GaussianState, coherent_state, squeezed_vacuum, vacuum_state
from .protocols import ConfigError, json_kind

SCHEMA_VERSION = 1


# input kind -> the keys besides "kind" that it reads
_INPUT_KEYS = {"vacuum": (), "coherent": ("re", "im"), "squeezed": ("r", "axis")}
# config field -> its default: a checked config is a copy of this dict with the
# config's own values, every field present, and a run document echoes it
_CONFIG_FIELDS = {
    "schema_version": SCHEMA_VERSION, "protocol": None,
    **{name: parameter.default for name, parameter in protocols.PARAMETERS.items()},
    "input": {"kind": "vacuum"}, "sweep": None, "output_path": None,
}


def checked_config(raw) -> tuple[dict, GaussianState]:
    """The config ``raw`` describes, as the dict a run document echoes under
    ``"config"``, and the input state it describes, built once here. The
    first field that breaks a rule is refused with ``ConfigError``."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
    if "protocol" not in raw:
        raise ConfigError("missing required field 'protocol'")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"field 'schema_version': must be {SCHEMA_VERSION}, got {version!r}")
    if not isinstance(raw["protocol"], str):
        raise ConfigError(f"field 'protocol': expected a string, got {json_kind(raw['protocol'])}")
    cfg = {**_CONFIG_FIELDS, "protocol": raw["protocol"]}
    protocols.protocol_parameters(cfg["protocol"])  # refuses an unknown protocol
    cfg.update((name, protocols.checked_parameter(name, raw[name]))
               for name in protocols.PARAMETERS if name in raw)
    cfg["input"] = raw["input"] if "input" in raw else dict(cfg["input"])  # a dict per config
    input_state = build_input_state(cfg["input"])
    if "output_path" in raw and raw["output_path"] is not None:
        cfg["output_path"] = _checked_path(raw["output_path"], "field 'output_path'")
    if "sweep" in raw and raw["sweep"] is not None:
        sweep = raw["sweep"]
        if not isinstance(sweep, dict) or "param" not in sweep or "values" not in sweep:
            raise ConfigError("field 'sweep': expected {param, values}")
        for key in sweep:
            if key not in ("param", "values"):
                raise ConfigError(f"field 'sweep.{key}': a sweep does not read it")
        protocols.checked_sweep(cfg["protocol"], sweep["param"], sweep["values"])
        # the raw values are kept: they are echoed verbatim in the CSV
        cfg["sweep"] = {"param": sweep["param"], "values": list(sweep["values"])}
    return cfg, input_state


def _checked_path(path, label: str) -> str:
    """``path`` if it names a file, else a ``ConfigError`` naming ``label``."""
    if not isinstance(path, str):
        raise ConfigError(f"{label}: expected a string")
    if not path:
        raise ConfigError(f"{label}: expected a nonempty path")
    try:  # a file name holds no NUL, and the file system's encoding must carry it
        valid = "\0" not in path and os.fsencode(path)
    except UnicodeEncodeError:  # a lone surrogate, for one
        valid = False
    if not valid:
        raise ConfigError(f"{label}: not a valid file path")
    return path


def build_input_state(spec: dict) -> GaussianState:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("field 'input': expected an object with a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str):
        raise ConfigError(f"field 'input.kind': expected a string, got {json_kind(kind)}")
    if kind not in _INPUT_KEYS:
        raise ConfigError(f"field 'input.kind': unknown kind {kind!r}")
    for key, value in spec.items():
        if key != "kind" and key not in _INPUT_KEYS[kind]:
            raise ConfigError(f"field 'input.{key}': a {kind} input does not read it")
        if isinstance(value, (bool, str)) and key in ("re", "im", "r"):
            raise ConfigError(f"field 'input.{key}': expected a number, got {json_kind(value)}")
        if key == "axis" and not isinstance(value, str):
            raise ConfigError(f"field 'input.axis': expected a string, got {json_kind(value)}")
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
        return squeezed_vacuum(r, spec["axis"])
    except KeyError as missing:
        raise ConfigError(f"field 'input': squeezed input needs {missing}")
    except OverflowError:  # an integer past the largest float
        raise ConfigError("field 'input': squeezed r must be finite, with e^{2|r|} finite")
    except (TypeError, ValueError) as bad:
        raise ConfigError(f"field 'input': {bad}")


def _protocol_params(cfg: dict, input_state: GaussianState) -> dict:
    return {**{n: cfg[n] for n in protocols.PARAMETER_DEFAULTS}, "input_state": input_state}


def _leaf(value) -> str:
    """A string, number, bool or None as json.dumps writes it; a NaN or an
    infinity raises json's ``ValueError``."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    return "true" if value is True else "false" if value is False else int.__repr__(value)


def _object(obj: dict, indent: str) -> str:
    """A nonempty dict of scalars and nonempty lists of scalars as json.dumps
    writes it at ``indent``, its keys sorted: the values whose keys vary."""
    inner = indent + "  "
    items = (
        f"{inner}{_leaf(key)}: " + (
            f"[\n{inner}  " + f",\n{inner}  ".join(map(_leaf, value)) + f"\n{inner}]"
            if isinstance(value, list) else _leaf(value)
        )
        for key, value in sorted(obj.items())
    )
    return "{\n" + ",\n".join(items) + f"\n{indent}}}"


# a run document as json.dumps writes it, with a "%s" slot for each fact but
# the constant d and schema_version; json.dumps writes the template itself, so
# the slots come in the document's order: the channel's N (3) and S (4), the
# checks, the config's fields in sorted order, deviation, fidelity, name,
# noise_trace, parameters, records and target_S (4)
_DOCUMENT = json.dumps({
    "channel": {"N": ["%s"] * 3, "S": ["%s"] * 4, "d": [0.0, 0.0]},
    "checks": "%s", "config": dict.fromkeys(_CONFIG_FIELDS, "%s"),
    **dict.fromkeys(["deviation", "fidelity", "name", "noise_trace", "parameters"], "%s"),
    "records": "%s", "schema_version": SCHEMA_VERSION, "target_S": ["%s"] * 4,
}, sort_keys=True, indent=2).replace('"%s"', "%s") + "\n"
_CONFIG_KEYS = sorted(_CONFIG_FIELDS)
_CHECK = '    {\n      "name": %s,\n      "passed": %s,\n      "value": %s\n    }'
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


def _load_config(path: str, seed_override: int | None) -> tuple[dict, GaussianState]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as bad:
        raise ConfigError(f"config is not valid UTF-8: {bad}")
    # JSONDecodeError is a ValueError, as is an integer past int's digit limit;
    # RecursionError: nested too deep
    except (ValueError, RecursionError) as bad:
        raise ConfigError(f"config is not valid JSON: {bad}")
    cfg, input_state = checked_config(raw)
    # a seed override changes the experiment and is echoed in the document;
    # --output only redirects the write and must not perturb the bytes
    if seed_override is not None:
        cfg["seed"] = protocols.checked_parameter("seed", seed_override, "--seed")
    return cfg, input_state


def _summary(label: str, values: dict) -> str:
    quoted = (f"{key}={_sig12(values[key])}" for key in ("deviation", "noise_trace", "fidelity"))
    return f"{label}: {' '.join(quoted)}"


def _run_output(cfg: dict, input_state: GaussianState, quiet: bool) -> tuple[str, list[str]]:
    """The run document's text and, unless ``quiet``, its summary line: the
    report of the config's seeded trials, whose channel and checks are built
    once, with the config echoed. Trials that would overfill it are refused by
    ``run_named_protocol`` before anything is built, and a non-finite outcome
    when the records are read, before any text is written; any other NaN or
    infinity raises json's ``ValueError`` before the text is returned."""
    report = protocols.run_named_protocol(
        cfg["protocol"], _protocol_params(cfg, input_state), seed=cfg["seed"], trials=cfg["trials"]
    )
    records = _records_text(report.record_columns)
    (n_xx, n_xp), (_, n_pp) = report.channel.N.tolist()
    checks = (_CHECK % (_leaf(c.name), _leaf(c.passed), _leaf(c.value)) for c in report.checks)
    config = (_object(v, "    ") if isinstance(v, dict) else _leaf(v)
              for v in map(cfg.__getitem__, _CONFIG_KEYS))
    text = _DOCUMENT % (  # each slot's text in turn, as json.dumps meets them
        *map(_leaf, (n_xx, n_xp, n_pp, *report.channel.S.ravel().tolist())),
        "[\n" + ",\n".join(checks) + "\n  ]", *config,
        *map(_leaf, (report.deviation, report.fidelity, report.name, report.noise_trace)),
        _object(report.parameters, "  "), records, *map(_leaf, report.target_S.ravel().tolist()),
    )
    return text, [] if quiet else [_summary(cfg["protocol"], vars(report))]


def _sweep_output(cfg: dict, input_state: GaussianState, quiet: bool) -> tuple[str, list[str]]:
    """The sweep CSV's text and, unless ``quiet``, one summary line per row."""
    if cfg["sweep"] is None:
        raise ConfigError("field 'sweep': required for the sweep command")
    rows = protocols.sweep(cfg["protocol"], _protocol_params(cfg, input_state), **cfg["sweep"])
    summary = [] if quiet else [_summary(f"{row['param']}={row['value']}", row) for row in rows]
    return emit_csv(rows), summary


def cmd_write(path: str, seed: int | None, output: str | None, quiet: bool, build,
              default_output: str) -> int:
    """Load a config, build its output text and, unless ``quiet``, its summary
    lines with ``build``, write the text and print the summary."""
    try:
        cfg, input_state = _load_config(path, seed)
        if output is not None:  # after every config check and --seed, before any report
            _checked_path(output, "--output")
        text, summary = build(cfg, input_state, quiet)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a failure that no rule refused
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    out_path = output or cfg["output_path"] or default_output
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


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``_PARSER.parse_args(argv)`` returns, read without argparse
    when argv is a command followed only by exact tokens: for run and sweep, one
    config path and any of --quiet, --seed V and --output V, where no path or V
    starts with "-" and int reads --seed's V; for verify, --quiet. None for any
    other argv, whose usage, help and errors only argparse writes."""
    command, *tokens = argv or [None]
    if command not in ("run", "sweep", "verify"):
        return None
    args = {"command": command, "quiet": False}
    if command != "verify":
        args.update(config=None, seed=None, output=None)
    tokens = iter(tokens)
    for token in tokens:
        if token == "--quiet":
            args["quiet"] = True
        elif command == "verify":
            return None
        elif token in ("--seed", "--output"):
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                args[token[2:]] = int(value) if token == "--seed" else value
            except ValueError:
                return None
        elif args["config"] is None and not token.startswith("-"):
            args["config"] = token
        else:
            return None
    if command != "verify" and args["config"] is None:
        return None
    return argparse.Namespace(**args)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or _PARSER.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.quiet)
    build, default_output = _OUTPUTS[args.command]
    return cmd_write(args.config, args.seed, args.output, args.quiet, build, default_output)


if __name__ == "__main__":
    raise SystemExit(main())
