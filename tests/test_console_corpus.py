"""The console corpus through ``cli.main``, and a runner that can fail.

``tests/data/console.json`` states each console case of ``cvcluster`` once,
and ``console_corpus`` runs it. Here every entry runs in-process; CI runs
the same entries through the installed console script.
"""

import copy
import os
import sys

import pytest

import console_corpus
from console_corpus import in_process, run_entry

ENTRIES = console_corpus.load_entries()
BY_NAME = {entry["name"]: entry for entry in ENTRIES}


def test_entry_names_are_unique():
    assert len(BY_NAME) == len(ENTRIES)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry["name"])
def test_entry_through_cli_main(tmp_path, entry):
    assert run_entry(entry, in_process, tmp_path / "entry") == []


def test_kernel_free_entries_through_the_console(monkeypatch, capsys):
    # the runner's command line, as CI runs it under each pinned BLAS kernel
    src = str(console_corpus.ROOT / "src")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")])))
    assert console_corpus.main(["--kernel-free", sys.executable, "-m", "cvcluster"]) == 0
    assert capsys.readouterr().out == "2 entries, 0 failures\n"


def _set(path, value):
    """Set the entry field at ``path``, a tuple of keys."""
    def change(entry):
        node = entry
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return change


def _leaves_a_directory(entry):
    """The entry unchanged, run through ``cli.main`` with an empty directory left behind."""
    def run(argv, cwd):
        (cwd / "left").mkdir()
        return in_process(argv, cwd)

    return run


# entry -> a change that breaks one of its expectations, or returns an entry
# point that breaks one, and the field the failure names
BROKEN = {
    "exit": ("verify_quiet", _set(("exit",), 1), "exit"),
    "stderr_line": (
        "refused_unknown_protocol",
        _set(("stderr", 0), "error: field 'protocol': unknown protocol 'nope'"), "stderr",
    ),
    "stdout_rule": ("verify_table", _set(("stdout", "lines"), 25), "stdout.lines"),
    "stdout_absent": (
        "verify_table", _set(("stdout", "absent"), ["teleport_fidelity_closed_form"]),
        "stdout.absent",
    ),
    "golden_path": (
        "golden_run_identity_chain",
        _set(("output", "golden"), "tests/data/golden/run_offline_teleport.json"),
        "output.golden",
    ),
    "sha256": ("offline_squeezed_input", _set(("output", "sha256"), "0" * 64), "output.sha256"),
    "fact_beyond_tolerance": (
        "r_gate_limit_0db", _set(("output", "facts", "fidelity", "value"), 0.5 + 2e-12),
        "output.facts.fidelity",
    ),
    "written_where_none_is_expected": (
        "refused_output_flag_empty", _set(("argv",), ["run", "{config}"]), "files",
    ),
    "directory_left_behind": ("refused_output_flag_empty", _leaves_a_directory, "files"),
}


@pytest.mark.parametrize("broken", BROKEN)
def test_a_wrong_expectation_fails_naming_the_entry_and_field(tmp_path, broken):
    name, change, field = BROKEN[broken]
    entry = copy.deepcopy(BY_NAME[name])
    assert run_entry(entry, in_process, tmp_path / "right") == []
    failures = run_entry(entry, change(entry) or in_process, tmp_path / "wrong")
    assert any(failure.startswith(f"{name}: {field}: ") for failure in failures), failures
