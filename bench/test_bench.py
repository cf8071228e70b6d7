"""Tests of the benchmark itself: tiny smoke runs, output checks, tracing.

The smoke runs use a one-input pool and one set-up repetition so that the
whole file stays within a few seconds per workload.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
from tracer import Tracer, patched
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_spec_names_the_workloads_defined():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def tiny_run(workload, tmp_path, trace, cli=None):
    workload = dataclasses.replace(workload, pool=1)
    return run.run_workload(cli or run.load_cli(), workload, seed=3, seconds=0,
                            trace=trace, workdir=tmp_path, min_ops=1, setup_reps=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_reports_every_per_layer_metric(name, tmp_path):
    report, result = tiny_run(WORKLOADS[name], tmp_path, trace=1)
    assert result["correct"], report["failures"]
    assert result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == PER_LAYER
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    assert report["self_time_share"]["layers"]["cli"] > 0
    assert math.isclose(sum(report["self_time_share"]["spans"].values()), 1.0)


def test_smoke_run_prints_end_to_end_metrics_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify_d4",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert set(result["metrics"]) == END_TO_END
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_d4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


class PerturbedFrameCli:
    """Runs the real command, then nudges one entry of the written frame."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, argv):
        code = self.cli.run(argv)
        if argv[0] == "triangularize":
            path = argv[argv.index("--output") + 1]
            with open(path) as fh:
                output = json.load(fh)
            output["frame"]["U"][0] += 1e-6
            with open(path, "w") as fh:
                json.dump(output, fh)
        return code


def test_perturbed_frame_counts_as_failed(tmp_path):
    cli = PerturbedFrameCli(run.load_cli())
    report, result = tiny_run(WORKLOADS["triangularize_n64"], tmp_path, 0, cli)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert report["failed_frac"] == 1.0
    assert any("orthogonal" in f for f in report["failures"])
    assert any("recomputed" in f for f in report["failures"])


class ExitTwoCli:
    def run(self, argv):
        return 2


def test_nonzero_exit_counts_as_failed(tmp_path):
    runner = run.Runner(ExitTwoCli(), WORKLOADS["tensor_d8"], 1, tmp_path)
    runner.op(0)
    assert runner.failures == [(0, "op 0 ended with 2")]
    assert runner.problems == 0


def test_checks_reject_corrupted_outputs():
    assert checks.non_finite({"a": [1.0, {"b": float("nan")}]})
    assert not checks.non_finite({"a": [1.0, {"b": 2}]})
    verify = {"errors": 1, "trials": 4, "records": [{}] * 4,
              "fractions": dict.fromkeys("abcde", 1.0) | {"e": 0.75}}
    reasons = checks.check_verify(verify, {}, trials=4)
    assert len(reasons) == 2
    assert checks.check_tensor({"component_error": 0.2, "component_bound": 0.1}, {})
    assert not checks.check_tensor({"component_error": 0.1, "component_bound": 0.1}, {})


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 41))
    value, percentile = run.tail(samples)
    assert value == 30 and percentile == 75.0
    assert sum(s > value for s in samples) == 10
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def child():
        time.sleep(0.05)

    def parent():
        time.sleep(0.01)
        tracer.span("b.child", child)

    tracer.span("a.parent", parent)
    assert 0.01 <= tracer.self_s["a.parent"] < 0.04
    assert tracer.self_s["b.child"] >= 0.05
    assert tracer.calls["a.parent", "b.child"] == 1


def test_patched_wraps_every_name_callers_use_and_restores():
    run.load_cli()
    from jointtri import bounds, harness, linalg, triangularize

    loss, skew_exp, log = triangularize.loss, linalg.skew_exp, linalg.orthogonal_log
    with patched(Tracer()):
        assert bounds.loss is triangularize.loss is not loss
        assert triangularize.skew_exp is linalg.skew_exp is not skew_exp
        assert harness.orthogonal_log.__wrapped__ is log
    assert bounds.loss is triangularize.loss is loss
    assert triangularize.skew_exp is skew_exp and harness.orthogonal_log is log
