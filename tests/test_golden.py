"""The CLI reproduces committed documents byte for byte.

``tests/data/golden`` holds, beside the config that produced each, one
``run`` document per protocol (three trials, a coherent input, 10 dB) and
two ``sweep`` CSVs: ``squeezer_four_step`` (4 steps per point) and
``repeated_squeezer`` at 50 dB (64 and 128 steps per point). The run
documents and the first CSV were written before each document's report was
built once for all its trials, and before the protocol table replaced the
per-protocol dispatch; the second CSV before reports drew their records
only when read. They pin those changes to the bytes.
"""

from pathlib import Path

import pytest

from cvcluster import cli, protocols

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
CONFIGS = sorted(GOLDEN.glob("*.config.json"))


def _name(config: Path) -> str:
    return config.name.removesuffix(".config.json")


def test_every_protocol_has_a_golden_run():
    runs = {_name(c).removeprefix("run_") for c in CONFIGS if _name(c).startswith("run_")}
    assert runs == set(protocols.PROTOCOLS)
    assert any(_name(c).startswith("sweep_") for c in CONFIGS)


@pytest.mark.parametrize("config", CONFIGS, ids=_name)
def test_cli_reproduces_golden_output(tmp_path, config):
    command = _name(config).split("_", 1)[0]
    expected = GOLDEN / (_name(config) + (".csv" if command == "sweep" else ".json"))
    out = tmp_path / expected.name
    assert cli.main([command, str(config), "--output", str(out), "--quiet"]) == 0
    assert out.read_bytes() == expected.read_bytes()
