"""Run the console corpus, ``tests/data/console.json``, through an entry point.

Each entry is one console case of ``cvcluster``: an argv, the config it
reads, and what the run must give. Tier-1 runs every entry through
``cli.main`` in-process (``tests/test_console_corpus.py``); CI runs every
entry through the installed console script::

    python tests/console_corpus.py cvcluster
    python tests/console_corpus.py --kernel-free cvcluster

or, without an installed script, ``PYTHONPATH=$PWD/src python
tests/console_corpus.py python -m cvcluster``. It prints one line per
failed expectation and exits 1 if there is any. ``--kernel-free`` runs only
the entries marked ``"kernel_free"``, whose output no BLAS kernel decides:
under OpenBLAS's ``Prescott`` and ``Sandybridge`` kernels the
``repeated_squeezer`` goldens differ in their last bits.

Besides the entries of the file, ``load_entries`` states three for each
golden config ``tests/data/golden/<name>.config.json``: ``golden_<name>``
runs it to ``--output`` with ``--quiet``; ``golden_<name>_summary`` runs it
without, to its default file, and prints ``<name>.stdout``; for a ``run``,
``golden_<name>_echoed_config`` runs the config its document echoes. Each
writes the golden ``<name>.json`` (``.csv`` for a ``sweep``).

An entry runs in a new directory of its own: ``{config}`` in its argv is a
file there holding the entry's config, ``{output}`` a path there that does
not exist yet, and the working directory a fresh, empty subdirectory. Its
fields:

- ``name``, unique; ``why``, optional, the reason for the case; ``argv``,
  the words after the command;
- ``config``, one of ``{"text": ...}``, the config's text; ``{"path": ...}``,
  a file of the repository, passed as it is; ``{"echo": ...}``, the config
  echoed by a run document of the repository, as ``json.dumps`` writes it;
- ``exit``, the exit code;
- ``stdout``: absent, nothing; a string, the exact text; ``{"golden": path}``,
  the bytes of a repository file; or line rules, any of ``lines`` (the
  number of newlines), ``last`` (the last line), ``matches`` (regex -> the
  number of lines it matches) and ``absent`` (texts no line holds);
- ``stderr``: absent, nothing; a list, its exact lines; or ``{"first_line": ...}``;
- ``output``: absent, no file is written; otherwise the file at ``{output}``,
  or the one named by ``"file"`` in the working directory, held by one of
  ``golden`` (a repository path), ``sha256``, or ``facts`` of its JSON (see
  ``FACTS``);
- ``kernel_free``, true for the entries CI also runs under each pinned kernel.

Besides these, a run may leave nothing in its directory but the config and
the output it expects: no other file, and no directory. Texts in
``argv``, a config's text and ``stderr`` may name a value in braces:
``{config}`` and ``{output}``, the generated configs of ``GENERATED``, and
``{int_digit_limit}``, the text of the error this Python raises for an
integer literal past its digit limit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "console.json"

# name -> a config text too large to state in the corpus
GENERATED = {
    "nesting_1e5": "[" * 10**5 + "]" * 10**5,  # past json.loads's recursion limit
    "integer_5001_digits": "1" + "0" * 5000,  # past int's 4300-digit limit
    "integer_1e400": str(10**400),  # an integer past the largest float
}


def _int_digit_limit() -> str:
    """The error this Python raises for an integer literal past its digit limit."""
    try:
        int(GENERATED["integer_5001_digits"])
    except ValueError as err:
        return str(err)
    return "(none: this Python reads integers of any length)"


# the values an entry's texts may name in braces, besides {config} and {output}
NAMED = {**GENERATED, "int_digit_limit": _int_digit_limit()}


class Outcome(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes


EntryPoint = Callable[[list, Path], Outcome]  # argv, working directory -> outcome


def in_process(argv: list, cwd: Path) -> Outcome:
    """``cli.main(argv)`` in ``cwd``, its streams captured and every warning an error."""
    from cvcluster import cli

    out, err, previous = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = cli.main(argv)
                except SystemExit as exited:  # argparse's usage errors
                    code = exited.code
    finally:
        os.chdir(previous)
    return Outcome(code, out.getvalue().encode(), err.getvalue().encode())


def console(command: list) -> EntryPoint:
    """An entry point that runs ``command`` followed by the argv as a process."""
    def run(argv: list, cwd: Path) -> Outcome:
        done = subprocess.run([*command, *argv], cwd=cwd, capture_output=True, timeout=600)
        return Outcome(done.returncode, done.stdout, done.stderr)

    return run


def _golden_entries(config: Path) -> list:
    name = config.name.removesuffix(".config.json")
    command = name.split("_", 1)[0]
    document = f"tests/data/golden/{name}" + (".csv" if command == "sweep" else ".json")
    quiet = {"argv": [command, "{config}", "--output", "{output}", "--quiet"], "exit": 0,
             "output": {"golden": document}}
    entries = [
        {"name": f"golden_{name}", "config": {"path": f"tests/data/golden/{config.name}"},
         **quiet},
        {"name": f"golden_{name}_summary", "argv": [command, "{config}"], "exit": 0,
         "config": {"path": f"tests/data/golden/{config.name}"},
         "stdout": {"golden": f"tests/data/golden/{name}.stdout"},
         "output": {"file": "sweep.csv" if command == "sweep" else "result.json",
                    "golden": document}},
    ]
    if command == "run":
        entries.append({"name": f"golden_{name}_echoed_config", "config": {"echo": document},
                        **quiet})
    return entries


def load_entries(kernel_free: bool = False) -> list:
    """The goldens' entries, then those of the corpus file; with ``kernel_free``,
    only the file's entries so marked."""
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]
    if kernel_free:
        return [e for e in entries if e.get("kernel_free")]
    goldens = sorted((ROOT / "tests" / "data" / "golden").glob("*.config.json"))
    return [*(e for config in goldens for e in _golden_entries(config)), *entries]


def _expand(text: str, values: dict) -> str:
    for name, value in values.items():
        text = text.replace("{" + name + "}", value)
    return text


def _config_text(config: dict, values: dict) -> str:
    if "text" in config:
        return _expand(config["text"], values)
    doc = json.loads((ROOT / config["echo"]).read_text(encoding="utf-8"))
    return json.dumps(doc["config"]) + "\n"


def _json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _fidelity(doc, expected) -> str | None:
    got = doc["fidelity"]
    if expected is None:
        return None if got is None else f"{got!r}, expected null"
    if got is None:
        return f"null, expected {expected['value']!r}"
    tol = expected["abs"] if "abs" in expected else expected["rel"] * abs(expected["value"])
    return None if abs(got - expected["value"]) <= tol else f"{got!r}, expected {expected}"


def _failed(doc) -> list:
    return [check["name"] for check in doc["checks"] if not check["passed"]]


# fact name -> its verdict on the document's text and JSON for the stated value:
# None if it holds, else what was seen
FACTS = {
    "fidelity": lambda text, doc, want: _fidelity(doc, want),
    "all_checks_passed": lambda text, doc, want: (
        None if doc["checks"] and not _failed(doc) else f"failed {_failed(doc)}"),
    "no_check_prefix": lambda text, doc, want: next(
        (f"check {c['name']!r}" for c in doc["checks"] if c["name"].startswith(want)), None),
    "records": lambda text, doc, want: (
        None if len(doc["records"]) == want else f"{len(doc['records'])} records"),
    "finite_S_N": lambda text, doc, want: (
        None if all(map(math.isfinite, doc["channel"]["S"] + doc["channel"]["N"]))
        else f"S, N = {doc['channel']['S']}, {doc['channel']['N']}"),
    "canonical": lambda text, doc, want: (
        None if text == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
        else "the text is not what json.dumps writes"),
}


def _stdout(rule, got: bytes) -> list:
    """(field, what was seen) for each broken stdout rule."""
    if isinstance(rule, str) or "golden" in rule:
        want = rule.encode() if isinstance(rule, str) else (ROOT / rule["golden"]).read_bytes()
        return [] if got == want else [("stdout", repr(got.decode(errors="replace")))]
    text = got.decode(errors="replace")
    lines = text.split("\n")[:-1] if text.endswith("\n") else text.split("\n")
    seen = {
        "lines": text.count("\n"),
        "last": lines[-1] if lines else None,
        "matches": {regex: sum(bool(re.search(regex, line)) for line in lines)
                    for regex in rule.get("matches", {})},
        "absent": [name for name in rule.get("absent", []) if name in text],
    }
    want = {**rule, "absent": []}
    return [(f"stdout.{key}", repr(seen[key])) for key in rule if seen[key] != want[key]]


def _output(rule: dict, path: Path) -> list:
    """(field, what was seen) for each broken expectation of the output file."""
    if not path.is_file():
        return [("output", f"{path.name} not written")]
    data = path.read_bytes()
    if "golden" in rule:
        return [] if data == (ROOT / rule["golden"]).read_bytes() else [("output.golden", "differs")]
    if "sha256" in rule:
        digest = hashlib.sha256(data).hexdigest()
        return [] if digest == rule["sha256"] else [("output.sha256", digest)]
    text = data.decode()
    doc = _json(text)
    seen = ((name, FACTS[name](text, doc, want)) for name, want in rule["facts"].items())
    return [(f"output.facts.{name}", got) for name, got in seen if got is not None]


def run_entry(entry: dict, run: EntryPoint, workdir: Path) -> list:
    """Run ``entry`` through ``run`` in ``workdir``, a new directory; one line
    ``"<name>: <field>: <what was seen>"`` per broken expectation."""
    cwd = workdir / "cwd"
    cwd.mkdir(parents=True)
    values = {"config": str(workdir / "config.json"), "output": str(workdir / "output"), **NAMED}
    config, files = entry.get("config"), []
    if config is not None and "path" in config:
        values["config"] = str(ROOT / config["path"])
    elif config is not None:
        (workdir / "config.json").write_text(_config_text(config, values), encoding="utf-8")
        files.append("config.json")
    result = run([_expand(word, values) for word in entry["argv"]], cwd)

    failures = [] if result.code == entry["exit"] else [("exit", result.code)]
    failures += _stdout(entry.get("stdout", ""), result.stdout)
    stderr, err = entry.get("stderr", []), result.stderr.decode(errors="replace")
    if isinstance(stderr, dict):
        if err.split("\n")[0] != stderr["first_line"]:
            failures.append(("stderr.first_line", repr(err.split("\n")[0])))
    elif err != "".join(_expand(line, values) + "\n" for line in stderr):
        failures.append(("stderr", repr(err)))
    if "output" in entry:
        name = entry["output"].get("file")
        files.append(f"cwd/{name}" if name else "output")
        failures += _output(entry["output"], cwd / name if name else workdir / "output")
    left = sorted(p.relative_to(workdir).as_posix() for p in workdir.rglob("*") if p != cwd)
    if left != sorted(files):
        failures.append(("files", f"{left}, expected {sorted(files)}"))
    return [f"{entry['name']}: {field}: {seen}" for field, seen in failures]


def main(argv: list) -> int:
    kernel_free = argv[:1] == ["--kernel-free"]
    command = argv[1:] if kernel_free else argv
    if not command:
        print("usage: console_corpus.py [--kernel-free] COMMAND...", file=sys.stderr)
        return 2
    entries = load_entries(kernel_free)
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        for entry in entries:
            failures += run_entry(entry, console(command), Path(scratch) / entry["name"])
    print("\n".join([*failures, f"{len(entries)} entries, {len(failures)} failures"]))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
