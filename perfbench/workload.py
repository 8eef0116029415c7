"""One workload process: set up, warm up, run the closed loop, report.

Started by run.py in a fresh interpreter, from the root of a source
checkout. With ``--setup-only`` it stops after importing cvcluster and
writing the deck's configs, and prints the process's CPU time so far and
the speed while it imported cvcluster. Otherwise it runs the workload's
known misses once, untimed, then the deck as a closed loop with one client
for ``--passes`` whole passes, then validates each distinct output once and
writes its measurements as JSON to ``--out``.

Times are CPU times of the main thread at reference speed, so another
process sharing the CPU does not count. On a shared machine other tenants
also make this process run up to 2x slower, switching within a second and
drifting over minutes, so one op's time varies by 1.7x. A SpeedMonitor
thread times a small fixed calibration kernel every 10 ms while the loop
runs, with the process pinned to one CPU so that the kernel shares the op's
CPU. Each op's CPU time is multiplied by the mean speed during the op,
REFERENCE_KERNEL_S over each kernel time; the product is steady to a few
per cent.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checker
import decks
from spans import ROOT, Tracer

# k_exponent probe: fixed chain lengths; each length gets up to PROBE_SECONDS
# of repeated calls, and no longer chain is tried once one call has taken
# more than PROBE_CALL_BUDGET_S
PROBE_KS = (16, 32, 64, 128)
PROBE_SECONDS = 0.3
PROBE_MIN_CALLS = 3
PROBE_CALL_BUDGET_S = 1.0

REFERENCE_KERNEL_S = 1e-4
SAMPLE_PERIOD_S = 0.01
MIN_SAMPLES = 3
_ROTATION = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
_SMALL_MATRIX = np.kron(np.eye(2), _ROTATION)
_DENSE_MATRIX = np.kron(np.eye(64), _ROTATION)


def small_kernel() -> float:
    """CPU seconds of 50 products of a 4x4 rotation, each read back into
    Python: interpreter and small-matrix overhead. The first numpy call,
    which pays for caches the op thread left cold, is not timed."""
    x = np.eye(4)
    total = 0.0
    start = time.thread_time()
    for _ in range(50):
        x = _SMALL_MATRIX @ x
        total += float(x[0, 0])
    return time.thread_time() - start


def dense_kernel() -> float:
    """CPU seconds of one product of 128x128 matrices: dense BLAS work."""
    start = time.thread_time()
    _DENSE_MATRIX @ _DENSE_MATRIX
    return time.thread_time() - start


def calibration_kernel() -> float:
    """Geometric mean of the two kernels' CPU seconds.

    The program's ops mix interpreter overhead with dense products, and
    other tenants slow the two kinds of work by different amounts. On the
    reference machine, op CPU times followed the small kernel's with a
    log-log slope of 0.7 to 0.8 and the dense kernel's with 1.1 to 1.4, but
    their geometric mean's with 0.9 to 1.1, and left the smallest residual.
    """
    return math.sqrt(small_kernel() * dense_kernel())


class SpeedMonitor:
    """Times the calibration kernel every SAMPLE_PERIOD_S in a thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self.samples.append(self.sample())

    def sample(self) -> tuple[float, float]:
        """(wall clock at start, CPU seconds) of one kernel call."""
        return time.perf_counter(), calibration_kernel()

    def __enter__(self) -> "SpeedMonitor":
        # the kernel must run on the CPU the ops run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """Factor that turns CPU time spent between start and end into time
        at reference speed.

        Uses the samples taken in the interval, widened around it until it
        holds at least MIN_SAMPLES.
        """
        pad = 0.0
        while True:
            lo = bisect.bisect_left(self.samples, start - pad, key=lambda s: s[0])
            hi = bisect.bisect_right(self.samples, end + pad, key=lambda s: s[0])
            if hi - lo >= MIN_SAMPLES or (lo == 0 and hi == len(self.samples)):
                break
            pad = max(2 * pad, SAMPLE_PERIOD_S)
        window = self.samples[lo:hi] or [self.sample()]
        # the mean of the speeds, not of the kernel times: samples are evenly
        # spread in time, and time at speed v does v units of work
        return statistics.fmean(REFERENCE_KERNEL_S / seconds for _, seconds in window)


def import_cvcluster(root: Path):
    """Import cvcluster from the checkout's src/, never from elsewhere."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import cvcluster.cli

    if Path(cvcluster.__file__).resolve().parent != (src / "cvcluster").resolve():
        raise ImportError(f"cvcluster imported from {cvcluster.__file__}, not {src}")
    return cvcluster.cli


def write_configs(deck: list[dict], workdir: Path, prefix: str = "") -> list[list[str]]:
    """Write each entry's config and return its CLI argv."""
    argvs = []
    for i, entry in enumerate(deck):
        if entry["command"] == "verify":
            argvs.append(["verify", "--quiet"])
            continue
        config = workdir / f"{prefix}config-{i}.json"
        config.write_text(json.dumps(entry["config"]))
        output = workdir / f"{prefix}out-{i}"
        argvs.append([entry["command"], str(config), "--output", str(output), "--quiet"])
    return argvs


def call_cli(cli, argv: list[str], tracer: Tracer | None = None) -> tuple[int, str | None, str, str]:
    """(exit code, error, output file text, stdout) of one CLI call."""
    output = Path(argv[3]) if len(argv) > 3 else None
    if output is not None and output.exists():
        output.unlink()
    stdout = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(stdout):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.span(ROOT, cli.main, argv)
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        code, error = -1, f"{type(exc).__name__}: {exc}"
    text = output.read_text() if output is not None and output.exists() else ""
    return code, error, text, stdout.getvalue()


def known_miss_verdicts(cli, entries: list[dict], workdir: Path) -> list[dict]:
    """Run each known-miss entry once and check it against the oracle."""
    verdicts = []
    for entry, argv in zip(entries, write_configs(entries, workdir, "known-")):
        code, error, text, printed = call_cli(cli, argv)
        problems = checker.check_output(entry, code, text, printed) + ([error] if error else [])
        verdicts.append({"config": entry["config"], "problems": problems})
    return verdicts


class Loop:
    def __init__(self, cli, deck, argvs, monitor: SpeedMonitor):
        self.cli = cli
        self.monitor = monitor
        self.deck = deck
        self.argvs = argvs
        self.tracer: Tracer | None = None
        self.reference_sha: dict[int, str] = {}
        self.outputs: dict[tuple[int, str], tuple[int, str, str]] = {}
        self.ops: list[dict] = []

    def op(self, index: int) -> dict:
        start = time.perf_counter()
        start_cpu = time.thread_time()
        code, error, text, printed = call_cli(self.cli, self.argvs[index], self.tracer)
        cpu = time.thread_time() - start_cpu
        end = time.perf_counter()
        sha = hashlib.sha256(f"{code}\n{printed}\n{text}".encode()).hexdigest()
        self.reference_sha.setdefault(index, sha)
        if (index, sha) not in self.outputs:
            self.outputs[(index, sha)] = (code, text, printed)
        result = {
            "entry": index,
            "start_s": start,
            "end_s": end,
            "latency_s": end - start,
            "cpu_s": cpu,
            "sha": sha,
            "bytes_out": len(text.encode()) + len(printed.encode()),
        }
        if error is not None:
            result["error"] = error
        return result

    def run(self, passes: int) -> float:
        """Run the deck `passes` times in order; return the loop's wall time."""
        start = time.perf_counter()
        for _ in range(passes):
            for index in range(len(self.deck)):
                op = self.op(index)
                op["scaled_s"] = op["cpu_s"] * self.monitor.speed(op["start_s"], op["end_s"])
                self.ops.append(op)
        return time.perf_counter() - start

    def verdicts(self) -> None:
        """Mark each op failed if its output breaks the oracle or determinism."""
        problems = {
            key: checker.check_output(self.deck[key[0]], *value)
            for key, value in self.outputs.items()
        }
        for op in self.ops:
            reasons = list(problems[(op["entry"], op["sha"])])
            if op["sha"] != self.reference_sha[op["entry"]]:
                reasons.append("output differs from the first run of the same config and seed")
            if "error" in op:
                reasons.append(op.pop("error"))
            op["problems"] = reasons


def k_exponent_probe(monitor: SpeedMonitor) -> dict:
    """Slope of log time against log k for direct run_protocol calls, with
    each call's time at reference speed."""
    from cvcluster import engine, phase_space

    vacuum = phase_space.vacuum_state(1)
    r = 10.0 * math.log(10.0) / 20.0
    points = []
    for k in PROBE_KS:
        steps = [engine.StepPlan(0.2 if j % 4 < 2 else -0.2) for j in range(k)]
        times = []
        spent = time.perf_counter()
        while len(times) < PROBE_MIN_CALLS or time.perf_counter() - spent < PROBE_SECONDS:
            start, start_cpu = time.perf_counter(), time.thread_time()
            engine.run_protocol(vacuum, steps, r, 7)
            cpu = time.thread_time() - start_cpu
            times.append(cpu * monitor.speed(start, time.perf_counter()))
            if times[-1] > PROBE_CALL_BUDGET_S:
                break
        points.append((k, statistics.median(times)))
        if max(times) > PROBE_CALL_BUDGET_S:
            break
    if len(points) < 2:
        return {"k_fitted": [k for k, _ in points], "k_exponent": None, "seconds": points}
    xs = [math.log(k) for k, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return {"k_fitted": [k for k, _ in points], "k_exponent": slope, "seconds": points}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(decks.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", default=None, help="write spans to this JSONL file")
    parser.add_argument("--k-probe", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with SpeedMonitor() as monitor:
        start = time.perf_counter()
        cli = import_cvcluster(Path(args.root))
        deck = decks.make_deck(args.workload, args.seed)
        argvs = write_configs(deck, Path(args.workdir))
        if args.setup_only:
            # CPU time of the whole process so far; the speed while cvcluster
            # was imported stands for the whole set-up
            usage = resource.getrusage(resource.RUSAGE_SELF)
            print(usage.ru_utime + usage.ru_stime, monitor.speed(start, time.perf_counter()))
            return 0

        loop = Loop(cli, deck, argvs, monitor)
        loop.op(0)  # warm-up, untimed; its output is the reference for entry 0
        known = known_miss_verdicts(cli, decks.known_misses(args.workload, args.seed), Path(args.workdir))
        if args.trace:
            loop.tracer = Tracer()
            loop.tracer.install()
        wall = loop.run(args.passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = k_exponent_probe(monitor) if args.k_probe else None
    loop.verdicts()
    report = {
        "deck_size": len(deck),
        "loop_wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "ops": loop.ops,
        "known_misses": known,
        "speed_samples": len(monitor.samples),
        "reference_sha": {str(k): v for k, v in sorted(loop.reference_sha.items())},
    }
    if args.trace:
        report["spans"] = loop.tracer.summary()
        loop.tracer.write(args.trace)
    if probe is not None:
        report["k_probe"] = probe
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
