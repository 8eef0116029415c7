"""The experiment scripts in scripts/ and the README's library sketch run
end to end against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

from cvcluster import protocols

ROOT = Path(__file__).resolve().parents[1]


def run_python(args: list[str]) -> list[list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return [line.split() for line in result.stdout.splitlines()]


def run_script(name: str) -> list[list[str]]:
    return run_python([str(ROOT / "scripts" / name)])


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert sketch.startswith("import cvcluster")
    assert run_python(["-c", sketch])


def test_readme_used_by_column_matches_protocol_table():
    # a config-table row reads | `field` | meaning | used by |
    rows = re.findall(r"^\| `(\w+)` \| .* \| ([^|]*) \|$", (ROOT / "README.md").read_text(), re.M)
    used_by = dict(rows)
    every = set(protocols.PROTOCOLS)
    for name in protocols.PARAMETER_DEFAULTS:
        cell = used_by[name].strip()
        listed = every if cell == "all" else {p.strip().strip("`") for p in cell.split(",")}
        if name == "squeezing_db":  # every protocol reads the resource squeezing
            expected = every
        else:
            expected = {pid for pid, names in protocols.PROTOCOLS.items() if name in names}
        assert listed == expected, name


def test_squeezer_scaling_shows_cubic_error():
    rows = run_script("squeezer_scaling.py")
    table = rows[1:5]
    assert [float(row[0]) for row in table] == [0.025, 0.05, 0.1, 0.2]
    # deviation / kappa^3 is the same constant at every shear strength
    normalized = [float(row[2]) for row in table]
    assert max(normalized) / min(normalized) < 1.05


def test_teleport_fidelity_matches_closed_form():
    rows = run_script("teleport_fidelity.py")
    table = rows[1:]
    assert len(table) == 6
    for db, fidelity, closed, _ in table:
        assert fidelity == closed, db
