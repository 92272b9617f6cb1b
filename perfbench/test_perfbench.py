"""Self-test of the benchmark at tiny scale.

    python -m pytest perfbench -q

Each workload runs shrunk (``--scale tiny``) through the same command
the benchmark uses, once per trace mode.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SEED = 7
NAMES = [workload.name for workload in WORKLOADS]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, trace: int) -> dict:
    completed = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                      "--trace", str(trace), "--scale", "tiny")
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = tiny(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert {name: result["metrics"][name]["unit"] for name in result["metrics"]} == {
        name: unit for name, unit, _better, _bound in END_TO_END
    }
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_traced_run_emits_every_layer_metric_and_accounts_for_its_root(workload):
    result = tiny(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {name: result["metrics"][name]["unit"] for name in result["metrics"]} == {
        name: unit for name, unit, _better in PER_LAYER
    }
    path = os.path.join(HERE, "out", f"result-{workload}-trace1-seed{SEED}.json")
    with open(path, encoding="utf-8") as handle:
        traced = [e for e in json.load(handle)["experiments"] if e["mode"] == "traced"][0]
    self_times = [value for name, value in traced["layers"].items() if name.endswith(".self_s")]
    assert all(value >= 0.0 for value in self_times)
    # Self times telescope to the root span, measured here from outside it.
    assert sum(self_times) == pytest.approx(traced["run_s"], rel=0.03)


def test_nested_calls_are_not_counted_twice():
    recorder = layers.Recorder()

    def inner():
        return sum(range(20000))

    def middle():
        return inner() + inner()

    def outer():
        return middle() + inner()

    inner = recorder.wrap("dag", "test.inner", inner)
    middle = recorder.wrap("dag", "test.middle", middle)
    outer = recorder.wrap("node", "test.outer", outer)
    with recorder.root():
        outer()
    assert recorder.layer_stats("dag")[0] == 4
    assert recorder.layer_stats("node")[0] == 1
    total = sum(recorder.layer_self)
    assert total == pytest.approx(recorder.root_s, rel=1e-9)
    # The node layer's self time excludes the dag time nested inside it.
    assert recorder.layer_stats("node")[1] < recorder.function_stats("test.outer")[1] / 2
    # Outside a root, wrapped functions pass straight through.
    outer()
    assert recorder.layer_stats("node")[0] == 1


def test_benchmark_json_matches_the_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["command"] == ["python3", "perfbench/run.py"]
    assert document["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in document["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert [tuple(m.values()) for m in document["end_to_end"]] == list(END_TO_END)
    assert [tuple(m.values()) for m in document["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
