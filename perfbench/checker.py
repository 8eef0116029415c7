"""Independent correctness oracle for the documents the CLI writes.

Nothing here imports cvcluster: the reference channels come from closed
forms and from a plain 2x2 recursion, so a defect shared by the program's
own checks cannot hide in the reference.

* Cluster chains: S <- A_j S and N <- A_j N A_j^T + diag(0, e^{-2r}/4) with
  A_j = F D(kappa_j) = [[-kappa_j, -1], [1, 0]], starting from S = I, N = 0.
* Off-line protocols: S is the gate, N = (e^{-2r}/2) diag(e^{-2 r_g},
  e^{2 r_g}) (r_g = 0 for teleportation).
* d = 0 for every protocol (the resources have zero mean).

Tolerances are relative to the scale of the quantity. S and d may differ
from the reference by TOL_S times max(1, max|S_ref|). N may differ by
TOL_N times max|N_ref| plus NOISE_ULPS units of float64 rounding at the scale
of the vacuum-probe output covariance S_ref S_ref^T / 4, because N is a
difference of two covariances of that scale. The bounds are not widened for
any protocol or squeezing level.

Each check function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys

TOL_S = 1e-9
TOL_N = 1e-6
NOISE_ULPS = 64
FLOAT_EPS = sys.float_info.epsilon

SWEEP_HEADER = ["index", "param", "value", "deviation", "noise_trace", "fidelity", "checks_passed"]
_VERIFY_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def _matmul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def _transpose(a):
    return [[a[0][0], a[1][0]], [a[0][1], a[1][1]]]


def cluster_steps(config: dict) -> list[float]:
    """Shear parameters of the chain a cluster config describes."""
    protocol = config["protocol"]
    if protocol == "identity_chain":
        return [0.0] * (int(config.get("n_nodes", 5)) - 1)
    kappa = float(config.get("kappa", 0.2))
    pattern = [kappa, kappa, -kappa, -kappa]
    if protocol == "squeezer_four_step":
        return pattern
    if protocol == "repeated_squeezer":
        return pattern * int(config.get("segments", 1))
    raise ValueError(f"{protocol!r} is not a cluster protocol")


def reference_channel(config: dict):
    """(S, N) the config's protocol should produce, as nested 2x2 lists."""
    eps = 10.0 ** (-float(config.get("squeezing_db", 100.0)) / 10.0)  # e^{-2r}
    protocol = config["protocol"]
    if protocol in ("offline_teleport", "offline_squeezer"):
        r_gate = float(config.get("r_gate", 0.04)) if protocol == "offline_squeezer" else 0.0
        S = [[math.exp(-r_gate), 0.0], [0.0, math.exp(r_gate)]]
        N = [[0.5 * eps * math.exp(-2 * r_gate), 0.0], [0.0, 0.5 * eps * math.exp(2 * r_gate)]]
        return S, N
    S = [[1.0, 0.0], [0.0, 1.0]]
    N = [[0.0, 0.0], [0.0, 0.0]]
    for kappa in cluster_steps(config):
        A = [[-kappa, -1.0], [1.0, 0.0]]
        S = _matmul(A, S)
        N = _matmul(_matmul(A, N), _transpose(A))
        N[1][1] += 0.25 * eps
    return S, N


def _max_abs(values) -> float:
    return max(abs(v) for v in values)


def tolerance_s(S_ref) -> float:
    return TOL_S * max(1.0, _max_abs(S_ref[0] + S_ref[1]))


def tolerance_n(S_ref, N_ref) -> float:
    probe_cov = _matmul(S_ref, _transpose(S_ref))
    rounding = NOISE_ULPS * FLOAT_EPS * 0.25 * _max_abs(probe_cov[0] + probe_cov[1])
    return TOL_N * _max_abs(N_ref[0] + N_ref[1]) + rounding


def _close(name: str, got, want, tol: float) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: expected {len(want)} entries, got {len(got)}"]
    err = max(abs(float(g) - w) for g, w in zip(got, want))
    if not err <= tol:  # also catches NaN
        return [f"{name}: error {err:.3e} > tolerance {tol:.3e}"]
    return []


def check_run(config: dict, text: str) -> list[str]:
    """Validate a ``run`` result document against the oracle."""
    try:
        doc = json.loads(text)
        channel = doc["channel"]
        checks = doc["checks"]
        records = doc["records"]
        echoed = doc["config"]["protocol"]
    except (ValueError, KeyError, TypeError) as bad:
        return [f"malformed document: {type(bad).__name__}: {bad}"]
    problems = []
    if echoed != config["protocol"]:
        problems.append(f"config echo names {echoed!r}")
    S_ref, N_ref = reference_channel(config)
    tol_s = tolerance_s(S_ref)
    problems += _close("S", channel.get("S", []), S_ref[0] + S_ref[1], tol_s)
    problems += _close("d", channel.get("d", []), [0.0, 0.0], tol_s)
    problems += _close(
        "N", channel.get("N", []), [N_ref[0][0], N_ref[0][1], N_ref[1][1]], tolerance_n(S_ref, N_ref)
    )
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    if failed or not checks:
        problems.append(f"checks not passed: {failed or 'none present'}")
    if config["protocol"] in ("offline_teleport", "offline_squeezer"):
        per_trial = 2
    else:
        per_trial = len(cluster_steps(config))
    expected_records = per_trial * int(config.get("trials", 1))
    if len(records) != expected_records:
        problems.append(f"{len(records)} records, expected {expected_records}")
    return problems


def check_sweep(config: dict, text: str) -> list[str]:
    """Validate a ``sweep`` CSV table: one row per grid point, in order."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"bad header: {rows[0] if rows else None}"]
    rows = rows[1:]
    param = config["sweep"]["param"]
    values = config["sweep"]["values"]
    if len(rows) != len(values):
        return [f"{len(rows)} rows, expected {len(values)}"]
    problems = []
    for i, (row, value) in enumerate(zip(rows, values)):
        if len(row) != len(SWEEP_HEADER):
            problems.append(f"row {i}: {len(row)} cells")
            continue
        index, name, cell, deviation, noise_trace, fidelity, passed = row
        if index != str(i) or name != param or cell != str(value):
            problems.append(f"row {i}: labelled ({index}, {name}, {cell})")
            continue
        point = dict(config, **{param: value})
        S_ref, N_ref = reference_channel(point)
        # identity_chain targets F^k and repeated_squeezer the exact segment
        # power; the recursion gives both, so the deviation must vanish
        problems += _close(f"row {i} deviation", [deviation], [0.0], tolerance_s(S_ref))
        problems += _close(
            f"row {i} noise_trace",
            [noise_trace],
            [N_ref[0][0] + N_ref[1][1]],
            2.0 * tolerance_n(S_ref, N_ref),
        )
        if fidelity and not 0.0 <= float(fidelity) <= 1.0 + 1e-9:
            problems.append(f"row {i}: fidelity {fidelity}")
        if passed != "true":
            problems.append(f"row {i}: checks_passed={passed}")
    return problems


def check_verify(exit_code: int, stdout: str) -> list[str]:
    """``verify --quiet`` must exit 0 and report every check passed."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    lines = stdout.strip().splitlines()
    match = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
    if match is None:
        return problems + ["no 'N/M checks passed' summary line"]
    passed, total = int(match.group(1)), int(match.group(2))
    if total == 0 or passed != total:
        problems.append(f"{passed}/{total} checks passed")
    if any("FAIL" in line for line in lines[:-1]):
        problems.append("a FAIL line was printed")
    return problems


def check_output(entry: dict, exit_code: int, output: str, stdout: str) -> list[str]:
    """Verdict for one op of a deck entry: its exit code and what it wrote."""
    if entry["command"] == "verify":
        return check_verify(exit_code, stdout)
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        if entry["command"] == "run":
            return check_run(entry["config"], output)
        return check_sweep(entry["config"], output)
    except ValueError as bad:  # a cell or field that is not a number
        return [f"malformed output: {bad}"]


_NOISE_MISS = re.compile(r"^(N|row \d+ noise_trace): error ")


def only_noise_misses(problems: list[str]) -> bool:
    """True if every problem is N, or a sweep row's noise trace, outside its
    tolerance: the documented baseline miss of the cluster squeezers at
    100 dB (ROADMAP item 3). A crash, a wrong S or d, a false check or a
    wrong record count is not such a miss."""
    return all(_NOISE_MISS.match(problem) for problem in problems)


# ---------------------------------------------------------------------------
# self-test: deliberately corrupted outputs must each count as failed


def _edit_document(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _scale_noise(doc):
    doc["channel"]["N"] = [2.0 * v for v in doc["channel"]["N"]]


def _perturb_s(doc):
    doc["channel"]["S"][0] += 1e-6


def _flip_check(doc):
    doc["checks"][0]["passed"] = False


def _fail_one_verify_check(stdout: str) -> str:
    lines = stdout.strip().splitlines()
    passed, total = map(int, _VERIFY_SUMMARY.match(lines[-1]).groups())
    return "\n".join(lines[:-1] + [f"{passed - 1}/{total} checks passed"]) + "\n"


# name -> (kind of output, corruption of its text)
CORRUPTIONS = {
    "noise_scaled_x2": ("run", lambda text: _edit_document(text, _scale_noise)),
    "S_perturbed_1e-6": ("run", lambda text: _edit_document(text, _perturb_s)),
    "check_flipped_false": ("run", lambda text: _edit_document(text, _flip_check)),
    "csv_row_dropped": ("sweep", lambda text: "".join(text.splitlines(keepends=True)[:-1])),
    "verify_one_check_failed": ("verify", _fail_one_verify_check),
}

SELF_TEST_RUN = {
    "protocol": "squeezer_four_step",
    "squeezing_db": 10.0,
    "kappa": 0.2,
    "trials": 2,
}
SELF_TEST_SWEEP = {
    "protocol": "identity_chain",
    "squeezing_db": 50.0,
    "sweep": {"param": "n_nodes", "values": [3, 5, 9]},
}


def synthetic_outputs() -> dict:
    """Outputs the oracle accepts, built from the oracle itself."""
    S, N = reference_channel(SELF_TEST_RUN)
    records = [{"step_index": j} for j in range(4)] * SELF_TEST_RUN["trials"]
    document = {
        "config": {"protocol": SELF_TEST_RUN["protocol"]},
        "channel": {"S": S[0] + S[1], "N": [N[0][0], N[0][1], N[1][1]], "d": [0.0, 0.0]},
        "checks": [{"name": "synthetic", "passed": True, "value": 0.0}],
        "records": records,
    }
    lines = [",".join(SWEEP_HEADER)]
    for i, n_nodes in enumerate(SELF_TEST_SWEEP["sweep"]["values"]):
        _, N = reference_channel(dict(SELF_TEST_SWEEP, n_nodes=n_nodes))
        lines.append(f"{i},n_nodes,{n_nodes},0.0,{N[0][0] + N[1][1]!r},,true")
    return {
        "run": (SELF_TEST_RUN, json.dumps(document)),
        "sweep": (SELF_TEST_SWEEP, "\n".join(lines) + "\n"),
        "verify": "25/25 checks passed\n",
    }


def _problems(kind: str, sample) -> list[str]:
    if kind == "verify":
        return check_verify(0, sample)
    config, text = sample
    return check_run(config, text) if kind == "run" else check_sweep(config, text)


def self_test(outputs: dict) -> dict[str, bool]:
    """Case -> whether the checker judged it right.

    ``outputs`` maps "run", "sweep" and "verify" to good outputs, as
    ``synthetic_outputs`` gives them; each must pass, and each corruption of
    them must fail.
    """
    results = {f"good_{kind}": not _problems(kind, sample) for kind, sample in outputs.items()}
    for name, (kind, corrupt) in CORRUPTIONS.items():
        sample = outputs[kind]
        bad = corrupt(sample) if kind == "verify" else (sample[0], corrupt(sample[1]))
        results[name] = bool(_problems(kind, bad))
    return results
