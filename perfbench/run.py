#!/usr/bin/env python3
"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload fig1-peak --seed 1 --seconds 30 --trace 0

Each experiment runs in a fresh single-threaded child process
(``experiment.py``); this process only schedules them, checks their
outputs and aggregates.

``--trace 0`` repeats the workload's experiment, with the same seed,
until ``--seconds`` have passed (at least twice), and prints the
end-to-end metrics: host-time figures are medians over the experiments,
scaled to a reference host speed (:data:`REFERENCE_S`); simulated-time
figures come from the first experiment and must repeat exactly in every
other.  ``--trace 1`` runs the experiment once untraced and
once traced (every layer wrapped, see ``layers.py``), checks that both
order the same vertices, and prints the per-layer metrics; on a
workload with a socket pass it also runs the socket backend against its
lockstep oracle.

The last stdout line is one JSON object: ``correct``, ``attempted``
(experiments run), ``failed`` (experiments that failed a check or
crashed) and ``metrics`` (name -> value and unit).  Span samples and a
full result document go to ``perfbench/out/``.  ``--scale tiny``
shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import END_TO_END, PER_LAYER, WORKLOADS_BY_NAME  # noqa: E402

# Wall-clock budget of one invocation (the benchmark must end within 180 s).
RUN_LIMIT_S = 170.0
# Host times are reported at the speed at which ``experiment.reference_s``
# takes this long: an experiment's wall times are scaled by REFERENCE_S
# over the reference times that bracket it (its own, measured as its
# process starts, and the next experiment's).  The host's raw speed
# drifts by tens of percent over minutes; the reference drifts with it.
REFERENCE_S = 0.25
# Simulated-time figures that must repeat exactly across experiments.
SIM_FIGURES = ("ordered", "digest", "throughput_tps", "latency_p50_s", "latency_p999_s",
               "tx_failed_share", "validators_behind", "latency_samples")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


class Session:
    """Runs child experiments and records which of them failed."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        # Attempt numbers of the experiments that failed, for any reason.
        self.failed: set = set()
        self.problems: List[str] = []
        self.experiments: List[Dict[str, Any]] = []

    def child(self, mode: str, spans_path: str = "") -> Optional[Dict[str, Any]]:
        """Run one experiment; ``None`` if it crashed or ran out of time."""
        request = {
            "workload": self.args.workload, "seed": self.args.seed,
            "scale": self.args.scale, "mode": mode, "spans_path": spans_path,
        }
        self.attempted += 1
        try:
            completed = subprocess.run(
                [sys.executable, os.path.join(HERE, "experiment.py"), json.dumps(request)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            self.fail(self.attempted, f"{mode} experiment ran past the {RUN_LIMIT_S:.0f}s budget")
            return None
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr)
            self.fail(self.attempted, f"{mode} experiment exited with code {completed.returncode}")
            return None
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        report.update(mode=mode, attempt=self.attempted)
        self.experiments.append(report)
        failed_checks = [name for name, ok in report["checks"].items() if not ok]
        if failed_checks:
            self.fail(self.attempted, f"{mode} experiment failed {', '.join(failed_checks)}")
        return report

    def fail(self, attempt: int, problem: str) -> None:
        """Count experiment number ``attempt`` as failed."""
        self.failed.add(attempt)
        self.problems.append(problem)


def _same(first: Dict[str, Any], other: Dict[str, Any], keys) -> List[str]:
    return [key for key in keys if first.get(key) != other.get(key)]


def end_to_end(session: Session) -> Dict[str, float]:
    args = session.args
    started = time.perf_counter()
    runs: List[Dict[str, Any]] = []
    while True:
        report = session.child("plain")
        if report is not None:
            if runs:
                differing = _same(runs[0], report, SIM_FIGURES)
                if differing:
                    session.fail(report["attempt"], f"repeated experiment differs in {', '.join(differing)}")
            runs.append(report)
        elapsed = time.perf_counter() - started
        if session.attempted >= 2 and elapsed >= args.seconds:
            break
    if not runs:
        return {}
    first = runs[0]
    for index, run in enumerate(runs):
        bracket = [other["reference_s"] for other in runs[index:index + 2]]
        run["host_scale"] = REFERENCE_S / statistics.mean(bracket)
    metrics = {
        "tx_per_host_s": statistics.median(
            run["committed"] / (run["run_s"] * run["host_scale"]) for run in runs),
        "vertices_per_host_s": statistics.median(
            run["ordered"] / (run["run_s"] * run["host_scale"]) for run in runs),
        "setup_s": statistics.median(
            setup * run["host_scale"] for run in runs for setup in run["setups_s"]),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "throughput_tps": first["throughput_tps"],
        "latency_p50_s": first["latency_p50_s"],
        "latency_p999_s": first["latency_p999_s"],
        "tx_failed_share": first["tx_failed_share"],
    }
    print(f"{args.workload}: {len(runs)} experiments, seed {args.seed}")
    print(
        f"  open loop in simulated time at {first['input_load_tps']:.0f} tx/s; "
        "latency is timed from each transaction's scheduled submission, so "
        "generator lateness is 0 s by construction"
    )
    print(
        "  host times scaled to the reference speed by a median factor of "
        f"{statistics.median(run['host_scale'] for run in runs):.3f}; unscaled: "
        f"{statistics.median(run['committed'] / run['run_s'] for run in runs):.1f} tx/s, "
        f"{statistics.median(run['ordered'] / run['run_s'] for run in runs):.2f} vertices/s"
    )
    print(
        f"  latency samples {first['latency_samples']} "
        f"({first['latency_beyond_p999']} beyond p99.9); validators behind "
        f"{first['validators_behind']} (frontier round {first['frontier']})"
    )
    return metrics


def per_layer(session: Session) -> Dict[str, float]:
    args = session.args
    workload = WORKLOADS_BY_NAME[args.workload]
    plain = session.child("plain")
    traced = session.child(
        "traced", os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    )
    if plain is None or traced is None:
        return {}
    differing = _same(plain, traced, SIM_FIGURES)
    if differing:
        session.fail(traced["attempt"], f"traced experiment differs from untraced in {', '.join(differing)}")
    metrics = dict(traced["layers"])
    metrics["node.validators_behind"] = traced["validators_behind"]
    metrics["trace.overhead_share"] = traced["run_s"] / plain["run_s"] - 1.0
    for name in ("netexec.codec_calls", "netexec.codec_s", "netexec.bytes_encoded",
                 "netexec.transport_self_s"):
        metrics[name] = 0
    if workload.net_pass:
        net = session.child("net", os.path.join(OUT, f"spans-{args.workload}-net.jsonl"))
        if net is None:
            return {}
        metrics.update(net["layers"])
    print(f"{args.workload}: traced run, seed {args.seed}; trace overhead "
          f"{metrics['trace.overhead_share']:.1%}, {traced['spans']} spans sampled")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "sim", "runner.py")):
        sys.stderr.write(f"perfbench: no program source under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    session = Session(args)
    if args.trace:
        values, table = per_layer(session), PER_LAYER
    else:
        values, table = end_to_end(session), END_TO_END
    if not values:
        for problem in session.problems:
            sys.stderr.write(f"perfbench: {problem}\n")
        return 1
    metrics = {}
    for row in table:
        name, unit = row[0], row[1]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:40s} {values[name]!r:>24} {unit}")
    for problem in session.problems:
        print(f"  CHECK FAILED: {problem}")
    document = os.path.join(
        OUT, f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    )
    with open(document, "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "metrics": metrics, "problems": session.problems,
                   "experiments": session.experiments}, handle, indent=1)
    print(json.dumps({
        "correct": not session.failed,
        "attempted": session.attempted,
        "failed": len(session.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
