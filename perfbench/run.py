"""cvcluster benchmark: run one workload and print its metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload protocol_mix --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced workload process of ``--seconds / 2`` each and prints
the per-layer metrics, with the tracing overhead. ``--seconds`` sets a
fixed number of passes over the deck (``passes``), so a faster program runs
the same ops. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The full record of the run
(machine, every metric, failure reasons, known misses, set-up samples) is
written to .bench_out/<workload>-seed<seed>-trace<0|1>.json, and the spans
of a traced run next to it. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import checker
import decks
from spans import LAYERS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9  # timed fresh-interpreter set-ups per run, after one untimed
BLAS_THREADS = 1  # steadier than nproc threads on a shared machine
CHILD_TIMEOUT_S = 150
CLUSTER_REPORTS = ("identity_chain", "squeezer_four_step", "repeated_squeezer")
# one pass over each deck at the baseline, in seconds at reference speed
BASELINE_PASS_S = {"protocol_mix": 0.47, "long_chain": 10.2, "verify": 0.113}
MIN_PASSES = 2  # every entry is rerun for the determinism check


def passes(workload: str, seconds: float) -> int:
    """Whole passes over the deck that take about `seconds` at the baseline.

    The count depends on the workload and `seconds` only, never on how fast
    the program is, so every commit runs the same ops and op_tail_ms sits at
    the same percentile.
    """
    return max(MIN_PASSES, round(seconds / BASELINE_PASS_S[workload]))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # a fixed string-hash seed takes one source of speed differences
    # between processes out; the documents do not depend on it
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: Path, workdir: Path, workload: str, seed: int, *extra: str) -> str:
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--root", str(root), "--workdir", str(workdir),
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    done = subprocess.run(
        command, cwd=root, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def setup_seconds(root: Path, workdir: Path, workload: str, seed: int) -> list[tuple[float, float]]:
    """(CPU seconds, speed) per fresh interpreter, from its start until
    cvcluster is imported and the inputs are written; speed is reference
    speed over machine speed while cvcluster was imported."""
    samples = []
    for _ in range(SETUP_RUNS + 1):
        cpu, speed = map(float, run_child(root, workdir, workload, seed, "--setup-only").split())
        samples.append((cpu, speed))
    return samples[1:]  # the first also writes bytecode caches


def loop_run(root: Path, workdir: Path, workload: str, seed: int, seconds: float, *extra: str) -> dict:
    out = workdir / "loop.json"
    count = passes(workload, seconds)
    run_child(root, workdir, workload, seed, "--passes", str(count), "--out", str(out), *extra)
    return json.loads(out.read_text())


def latency_summary(latencies_s: list[float]) -> dict:
    """Median, and the highest percentile with at least 10 samples beyond it."""
    latencies = sorted(t * 1e3 for t in latencies_s)
    n = len(latencies)
    tail = n - 11 if n >= 11 else n - 1
    return {
        "p50_ms": statistics.median(latencies),
        "tail_ms": latencies[tail],
        "tail_percentile": 100.0 * (tail + 1) / n,
        "samples_beyond_tail": n - 1 - tail,
        "samples": n,
    }


def failure_summary(deck: list[dict], ops: list[dict]) -> list[dict]:
    """Failed ops grouped by deck entry, with the first reason."""
    counts = Counter(op["entry"] for op in ops if op["problems"])
    first = {}
    for op in ops:
        if op["problems"]:
            first.setdefault(op["entry"], op["problems"][0])
    return [
        {"entry": entry, "failed_ops": count, "config": deck[entry]["config"], "reason": first[entry]}
        for entry, count in sorted(counts.items())
    ]


def end_to_end(run: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    latencies = [op["scaled_s"] for op in run["ops"]]
    latency = latency_summary(latencies)
    setup_s = statistics.median(cpu * speed for cpu, speed in setup)
    metrics = {
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": latency["p50_ms"], "unit": "ms"},
        "op_tail_ms": {"value": latency["tail_ms"], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    wall = latency_summary([op["latency_s"] for op in run["ops"]])
    latency["wall_clock"] = {
        "ops_per_s": len(run["ops"]) / run["loop_wall_s"],
        "op_p50_ms": wall["p50_ms"],
        "op_tail_ms": wall["tail_ms"],
        "setup_cpu_s": statistics.median(cpu for cpu, _ in setup),
        "speed": _scaled_total(run) / sum(op["cpu_s"] for op in run["ops"]),
    }
    return metrics, latency


def _scaled_total(run: dict) -> float:
    return sum(op["scaled_s"] for op in run["ops"])


def per_layer(untraced: dict, traced: dict) -> dict:
    ops = len(traced["ops"])
    calls = traced["spans"]["calls"]
    self_ns = traced["spans"]["self_ns"]
    # span times are rescaled to reference speed like the ops they sit in
    ms_per_ns = 1e-6 * _scaled_total(traced) / sum(op["latency_s"] for op in traced["ops"])
    metrics = {}
    for layer in LAYERS:
        names = [name for name in calls if name.startswith(layer + ".")]
        metrics[f"{layer}.calls_per_op"] = (sum(calls[n] for n in names) / ops, "count")
        metrics[f"{layer}.self_ms_per_op"] = (sum(self_ns.get(n, 0) for n in names) * ms_per_ns / ops, "ms")
    runs = calls.get("engine.run_protocol", 0)
    reports = sum(calls.get(f"protocols.{name}", 0) for name in CLUSTER_REPORTS)
    probe = untraced["k_probe"]
    metrics.update({
        "engine.run_protocol.calls_per_op": (runs / ops, "count"),
        "engine.useful_run_ratio": (reports / runs if runs else 0.0, "ratio"),
        "engine.run_protocol.k_exponent": (probe["k_exponent"], "exponent"),
        "engine.run_protocol.k_fit_max": (max(probe["k_fitted"]), "steps"),
        "phase_space.embed_symplectic.calls_per_op": (calls.get("phase_space.embed_symplectic", 0) / ops, "count"),
        "phase_space.homodyne.calls_per_op": (calls.get("phase_space.homodyne", 0) / ops, "count"),
        "phase_space.apply_gate.calls_per_op": (calls.get("phase_space.apply_gate", 0) / ops, "count"),
        "cli.bytes_out_per_op": (statistics.fmean(op["bytes_out"] for op in traced["ops"]), "bytes"),
        "trace.overhead_frac": (
            1.0 - (ops / _scaled_total(traced)) / (len(untraced["ops"]) / _scaled_total(untraced)),
            "ratio",
        ),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_record(root: Path) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level and size and (kind or "").strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cvcluster benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(decks.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cvcluster" / "__init__.py").is_file():
        print(f"error: no cvcluster sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    outdir = root / ".bench_out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=outdir))
    try:
        deck = decks.make_deck(args.workload, args.seed)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_record(root)}
        if args.trace:
            spans_path = outdir / f"{stem}.spans.jsonl.gz"
            untraced = loop_run(root, workdir, args.workload, args.seed, args.seconds / 2, "--k-probe")
            traced = loop_run(root, workdir, args.workload, args.seed, args.seconds / 2,
                              "--trace", str(spans_path))
            leaked = {entry for entry, sha in traced["reference_sha"].items()
                      if untraced["reference_sha"].get(entry) != sha}
            for op in traced["ops"]:
                if str(op["entry"]) in leaked:
                    op["problems"].append("traced output differs from the untraced run")
            ops = untraced["ops"] + traced["ops"]
            known = untraced["known_misses"]
            metrics = per_layer(untraced, traced)
            record["k_probe"] = untraced["k_probe"]
            record["spans_file"] = str(spans_path.relative_to(root))
        else:
            setup = setup_seconds(root, workdir, args.workload, args.seed)
            run = loop_run(root, workdir, args.workload, args.seed, args.seconds)
            ops = run["ops"]
            known = run["known_misses"]
            metrics, record["latency"] = end_to_end(run, setup)
            record["setup_samples"] = [{"cpu_s": c, "speed": v} for c, v in setup]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op["problems"])
    known_failed = sum(1 for miss in known if miss["problems"])
    # correct: no timed op failed, and each known miss is at most its
    # documented miss of N
    correct = failed == 0 and all(checker.only_noise_misses(miss["problems"]) for miss in known)
    record.update({"attempted": len(ops), "failed": failed, "correct": correct, "metrics": metrics,
                   "failures": failure_summary(deck, ops), "known_misses": known})
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"passes={passes(args.workload, args.seconds / 2 if args.trace else args.seconds)}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    if "latency" in record:
        lat = record["latency"]
        print(f"# op_tail_ms is p{lat['tail_percentile']:.2f}: "
              f"{lat['samples_beyond_tail']} of {lat['samples']} ops beyond it")
        print(f"# times are at reference speed; wall clock: {json.dumps(lat['wall_clock'])}")
    if args.trace:
        print(f"# k_exponent fitted at k = {record['k_probe']['k_fitted']}")
    print(f"# failed_frac {failed / len(ops)!r} ({failed} failed of {len(ops)} attempted)")
    for failure in record["failures"]:
        print(f"#   entry {failure['entry']}: {failure['failed_ops']} failed: {failure['reason']}")
    if known:
        print(f"# known misses, run once outside the timed loop (100 dB cluster squeezers, "
              f"ROADMAP item 3): {known_failed} failed of {len(known)} attempted")
        for miss in known:
            if miss["problems"]:
                print(f"#   {miss['config']['protocol']}: {miss['problems'][0]}")
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# record written to {(outdir / f'{stem}.json').relative_to(root)}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
