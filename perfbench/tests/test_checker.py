"""The checker must accept real outputs and count every corruption as failed."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import checker
import decks
import run
from conftest import BENCH, ROOT
from cvcluster import cli


def _cli(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue()


@pytest.fixture(scope="module")
def real_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    outputs = {}
    for command, config in (("run", checker.SELF_TEST_RUN), ("sweep", checker.SELF_TEST_SWEEP)):
        path = tmp / f"{command}.json"
        path.write_text(json.dumps(config))
        code, _ = _cli([command, str(path), "--output", str(tmp / command), "--quiet"])
        assert code == 0
        outputs[command] = (config, (tmp / command).read_text())
    code, stdout = _cli(["verify", "--quiet"])
    assert code == 0
    outputs["verify"] = stdout
    return outputs


@pytest.mark.parametrize("source", ["synthetic", "real"])
def test_good_outputs_pass_and_every_corruption_fails(source, real_outputs):
    outputs = checker.synthetic_outputs() if source == "synthetic" else real_outputs
    results = checker.self_test(outputs)
    assert set(results) == {"good_run", "good_sweep", "good_verify", *checker.CORRUPTIONS}
    assert all(results.values()), results


def test_only_noise_misses_pass_as_the_documented_miss():
    assert checker.only_noise_misses([])
    assert checker.only_noise_misses(["N: error 1.1e-12 > tolerance 3.9e-15"])
    assert checker.only_noise_misses(["row 1 noise_trace: error 5.9e-13 > tolerance 1.0e-13"])
    for other in ("S: error 1e-06 > tolerance 1e-09", "checks not passed: ['x']",
                  "exit code -1", "2 records, expected 4", "row 0 deviation: error 1 > tolerance 1e-9"):
        assert not checker.only_noise_misses(["N: error 1e-12 > tolerance 1e-15", other])


def test_verify_nonzero_exit_fails():
    assert checker.check_verify(1, "25/25 checks passed\n")
    assert checker.check_verify(0, "")


def test_oracle_recursion_gives_the_step_noise_budget():
    # each plain step rotates by F and adds e^{-2r}/4 to p, so k steps leave
    # a noise trace of k e^{-2r}/4; at 10 dB e^{-2r} = 0.1
    S, N = checker.reference_channel({"protocol": "identity_chain", "n_nodes": 9, "squeezing_db": 10.0})
    assert S == [[1.0, 0.0], [0.0, 1.0]]  # F^8 = I
    assert N[0][0] + N[1][1] == pytest.approx(8 * 0.25 * 0.1, rel=1e-12)


@pytest.mark.parametrize("workload", sorted(decks.WORKLOADS))
def test_decks_repeat_per_seed_and_keep_the_cost_mix(workload):
    def cost_mix(deck):
        return Counter(
            json.dumps(
                {k: v for k, v in (e["config"] or {}).items() if k in ("protocol", "n_nodes", "segments", "trials", "sweep")},
                sort_keys=True,
            )
            for e in deck
        )

    assert decks.make_deck(workload, 3) == decks.make_deck(workload, 3)
    assert cost_mix(decks.make_deck(workload, 3)) == cost_mix(decks.make_deck(workload, 4))
    assert decks.known_misses(workload, 3) == decks.known_misses(workload, 3)


@pytest.mark.parametrize("workload", sorted(decks.WORKLOADS))
def test_known_misses_are_the_100_db_cluster_squeezers_and_only_they(workload):
    def squeezer_at_100_db(entry):
        config = entry["config"] or {}
        return config.get("protocol") in decks.CLUSTER_SQUEEZERS and config.get("squeezing_db") == 100.0

    assert not any(squeezer_at_100_db(e) for e in decks.make_deck(workload, 3))
    assert all(squeezer_at_100_db(e) for e in decks.known_misses(workload, 3))


def test_protocol_mix_sizes():
    deck = decks.make_deck("protocol_mix", 5)
    assert len(deck) == 39
    for entry in deck:
        config = entry["config"]
        if config["protocol"] not in ("offline_teleport", "offline_squeezer"):
            assert len(checker.cluster_steps(config)) <= 9
        assert 1 <= config["trials"] <= 3


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    return result


def _metric_names(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def test_untraced_run_reports_every_end_to_end_metric():
    result = _bench("verify", 0)
    assert set(result["metrics"]) == _metric_names("end_to_end")
    assert result["failed"] == 0


def test_traced_run_reports_every_layer_metric():
    result = _bench("protocol_mix", 1)
    assert set(result["metrics"]) == _metric_names("per_layer")
    assert result["failed"] == 0
    # the known misses ran once, outside the timed loop, and missed only N
    record = json.loads((ROOT / ".bench_out" / "protocol_mix-seed2-trace1.json").read_text())
    assert len(record["known_misses"]) == 6
    for miss in record["known_misses"]:
        assert checker.only_noise_misses(miss["problems"])


def test_pass_counts_depend_only_on_workload_and_seconds():
    # the README's pass table at run_seconds = 12
    assert [run.passes(w, 12) for w in ("protocol_mix", "long_chain", "verify")] == [26, 2, 106]
    assert run.passes("long_chain", 6) == run.MIN_PASSES
