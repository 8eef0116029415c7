"""The CLI reproduces committed documents byte for byte.

``tests/data/golden`` holds, beside the config that produced each, one
``run`` document per protocol (three trials, a coherent input, 10 dB) and
two ``sweep`` CSVs: ``squeezer_four_step`` (4 steps per point) and
``repeated_squeezer`` at 50 dB (64 and 128 steps per point). The run
documents and the first CSV were written before each document's report was
built once for all its trials, and before the protocol table replaced the
per-protocol dispatch; the second CSV before reports drew their records
only when read. They pin those changes to the bytes. Beside each config,
``.stdout`` holds the summary the command printed (without ``--quiet``,
writing to its default file) before ``run`` and ``sweep`` shared one command
path.

The console corpus (``tests/console_corpus.py``) makes the byte checks: it
runs each golden config to ``--output``, and without ``--quiet`` to its
default file in a fresh directory, and each run document's echoed config
again.
"""

from pathlib import Path

from cvcluster import protocols

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
NAMES = sorted(c.name.removesuffix(".config.json") for c in GOLDEN.glob("*.config.json"))


def test_every_protocol_has_a_golden_run():
    runs = {name.removeprefix("run_") for name in NAMES if name.startswith("run_")}
    assert runs == set(protocols.PROTOCOLS)
    assert any(name.startswith("sweep_") for name in NAMES)

