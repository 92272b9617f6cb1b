"""One experiment of one workload, in a fresh process.

Run by ``run.py`` as ``python3 perfbench/experiment.py '<json request>'``;
prints one JSON object on its last stdout line.  A fresh process per
experiment keeps process-wide caches (digest memo, intern tables, the
transaction id counter) and ``ru_maxrss`` from carrying over between
experiments or workloads.

Modes:

* ``plain`` — time the reference loop (:func:`reference_s`), build the
  deployment :data:`SETUPS` times (each build timed), run the last one
  built (timed), and report the end-to-end figures plus the output
  checks.
* ``traced`` — the same run with every layer wrapped (:mod:`layers`);
  reports per-layer calls, self times and counters, and writes a span
  sample.
* ``net`` — the socket backend: the lockstep oracle on the simulator,
  then a traced lockstep run over Unix sockets; reports the ``netexec``
  layer and whether both ordering digests agree.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import tempfile
import time
from heapq import heappop, heappush
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import NET_ROUNDS, NET_ROUNDS_TINY, WORKLOADS_BY_NAME, Workload  # noqa: E402

# Non-crashed validators more than this many rounds below the frontier
# count as behind.
BEHIND_ROUNDS = 2
# A sim run must keep at least this many latency samples beyond p99.9.
TAIL_SAMPLES = 10
# Deployments built per experiment (``setup_s`` is a median over them);
# the last one runs.
SETUPS = 10


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def key(self) -> int:
        return self.a ^ self.b


def reference_s(iterations: int = 100_000) -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed.

    Object, method, heap and dict churn, like the simulator's hot paths.
    Runs first in a fresh process, so nothing of the program affects it.
    """
    heap: list = []
    table: dict = {}
    total = 0
    gc.disable()
    start = time.perf_counter()
    for i in range(iterations):
        item = _Item(i, i * 7919 % 10007)
        heappush(heap, (item.b, i, item))
        table[i & 4095] = item
        if len(heap) > 512:
            total += heappop(heap)[2].key()
        total += len(table.get((i * 31) & 4095, ()).__class__.__name__)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def build_config(workload: Workload, scale: str):
    """The workload's ExperimentConfig and reseed time at ``scale``."""
    from repro.faults.partition import NetworkDisturbanceFault
    from repro.sim.experiment import ExperimentConfig

    fields, disturbance, reseed_at = workload.at_scale(scale)
    if disturbance is not None:
        fields["extra_faults"] = (NetworkDisturbanceFault(**disturbance),)
    return ExperimentConfig(**fields), reseed_at


def seed_network(runner, seed: int, at: float) -> None:
    """Hand the simulated network's random stream to the run seed at ``at``."""
    simulator = runner.simulator
    if at <= 0.0:
        simulator.rng.seed(seed)
    else:
        simulator.schedule_at(at, lambda: simulator.rng.seed(seed))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outputs(runner, result) -> Dict[str, Any]:
    """End-to-end figures and output checks of a finished sim run."""
    from repro.obs.consistency import check_run_consistency

    config = runner.config
    metrics = runner.metrics
    latency = metrics.latency
    samples = latency.samples
    p999 = latency.percentile(0.999)
    beyond = sum(1 for sample in samples if sample > p999)
    alive = [node for node in runner.nodes.values() if not node.crashed]
    frontier = max(node.current_round for node in alive)
    behind = sum(1 for node in alive if node.current_round < frontier - BEHIND_ROUNDS)
    violations = check_run_consistency(
        result.ordering_digests,
        result.ordering_checkpoints,
        validators=[node.id for node in alive],
    )
    throughput = result.throughput
    checks = {
        "prefix_consistent": not violations,
        "throughput_nonzero": throughput > 0.0,
        "tail_samples": beyond >= TAIL_SAMPLES,
    }
    ordered, digest = result.ordering_digests[config.observer]
    return {
        "ordered": ordered,
        "digest": digest,
        "input_load_tps": config.input_load_tps,
        "committed": round(metrics.commit_ratio() * metrics.submitted),
        "submitted": metrics.submitted,
        "throughput_tps": throughput,
        "latency_p50_s": latency.percentile(0.5),
        "latency_p999_s": p999,
        "latency_samples": latency.count,
        "latency_beyond_p999": beyond,
        "tx_failed_share": 1.0 - metrics.commit_ratio(),
        "validators_behind": behind,
        "frontier": frontier,
        "checks": checks,
        "violations": violations[:3],
    }


def run_sim(workload: Workload, seed: int, scale: str, traced: bool, spans_path: str) -> Dict[str, Any]:
    from repro.sim.runner import SimulationRunner

    recorder = None
    if traced:
        import layers

        recorder = layers.install(layers.Recorder())
        recorder.watch_pair(layers.CAUSAL_HISTORY, layers.FETCH_SERVER)
    config, reseed_at = build_config(workload, scale)
    setups = []
    for _ in range(SETUPS):
        # Free the previous deployment first, so peak_rss_mb sees one.
        runner = None
        gc.collect()
        start = time.perf_counter()
        runner = SimulationRunner(config)
        setups.append(time.perf_counter() - start)
    seed_network(runner, seed, reseed_at)
    start = time.perf_counter()
    if recorder is not None:
        with recorder.root():
            result = runner.run()
    else:
        result = runner.run()
    run_s = time.perf_counter() - start
    report = outputs(runner, result)
    report.update(setups_s=setups, run_s=run_s, peak_rss_mb=peak_rss_mb())
    if recorder is not None:
        report["layers"] = layer_metrics(recorder, runner, result)
        recorder.write_spans(spans_path)
        report["spans"] = len(recorder.spans)
    return report


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(recorder, runner, result) -> Dict[str, float]:
    import layers

    counters = result.counters["always"]
    report = result.report
    vertices = max(1, result.ordering_digests[runner.config.observer][0])
    metrics: Dict[str, float] = {}
    for layer in recorder.layers:
        calls, self_s = recorder.layer_stats(layer)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    events = runner.simulator.events_fired
    stats = runner.network.stats
    commits, committing = recorder.outcomes[layers.TRY_COMMIT]
    recovers, recovered = recorder.outcomes[layers.RECOVER]
    history_calls, history_s = recorder.pair(layers.CAUSAL_HISTORY, layers.FETCH_SERVER)
    quorum_hits = counters["memo.signer_quorum.hits"] + counters["memo.mask_quorum.hits"]
    quorum_misses = counters["memo.signer_quorum.misses"] + counters["memo.mask_quorum.misses"]
    metrics.update({
        "network.simulator.events": events,
        "network.simulator.events_per_vertex": events / vertices,
        "network.transport.messages_sent": stats.messages_sent,
        "network.transport.messages_dropped": stats.messages_dropped,
        "network.transport.messages_per_vertex": stats.messages_sent / vertices,
        "rbc.fetch_requests": counters["node.fetch_requests"],
        "rbc.recover_hit_ratio": _ratio(recovered, recovers),
        "dag.missing_parents_s": recorder.function_stats(
            "repro.dag.store.DagStore.missing_parents")[1],
        "dag.pending_peak": counters["dag.pending_peak"],
        "dag.causal_history_calls": history_calls,
        "dag.causal_history_s": history_s,
        "consensus.commit_yield": _ratio(committing, commits),
        "consensus.skipped_anchors": report.skipped_anchor_rounds,
        "core.schedule_changes": report.schedule_changes,
        "node.leader_timeouts": report.leader_timeouts,
        "workload.tx_submitted": runner.metrics.submitted,
        "committee.quorum_cache_hit_ratio": _ratio(quorum_hits, quorum_hits + quorum_misses),
        "crypto.digest_memo_hit_ratio": _ratio(
            counters["memo.broadcast_digest.hits"],
            counters["memo.broadcast_digest.hits"] + counters["memo.broadcast_digest.misses"],
        ),
        "trace.root_s": recorder.root_s,
    })
    return metrics


def run_net(workload: Workload, scale: str, spans_path: str) -> Dict[str, Any]:
    import layers
    from repro.netexec.lockstep import run_lockstep_experiment
    from repro.netexec.runner import run_net_experiment

    rounds = NET_ROUNDS_TINY if scale == "tiny" else NET_ROUNDS
    config = build_config(workload, scale)[0].with_overrides(
        input_load_tps=0.0, duration=rounds, extra_faults=()
    )
    oracle = run_lockstep_experiment(config)
    # The socket directory goes inside the checkout, under a short
    # relative path: a Unix socket path holds at most 107 bytes.
    os.chdir(os.path.dirname(spans_path))
    tempfile.tempdir = os.curdir
    recorder = layers.install(layers.Recorder())
    start = time.perf_counter()
    with recorder.root(event_root=True):
        result = run_net_experiment(config)
    run_s = time.perf_counter() - start
    recorder.write_spans(spans_path)
    encoded_bytes = recorder.outcomes[layers.ENCODE_FRAME][1]
    codec_calls, codec_s = recorder.layer_stats("netexec.codec")
    observer = config.observer
    return {
        "ordered": result.ordering_digests[observer][0],
        "digest": result.ordering_digests[observer][1],
        "checks": {"net_equals_lockstep_oracle": (
            result.ordering_digests[observer] == oracle.ordering_digests[observer]
        )},
        "run_s": run_s,
        "layers": {
            "netexec.codec_calls": codec_calls,
            "netexec.codec_s": codec_s,
            "netexec.bytes_encoded": encoded_bytes,
            "netexec.transport_self_s": recorder.layer_stats("netexec.transport")[1],
        },
    }


def main() -> None:
    request = json.loads(sys.argv[1])
    workload = WORKLOADS_BY_NAME[request["workload"]]
    mode = request["mode"]
    reference = reference_s() if mode == "plain" else None
    if mode == "net":
        report = run_net(workload, request["scale"], request["spans_path"])
    else:
        report = run_sim(
            workload, request["seed"], request["scale"], mode == "traced",
            request["spans_path"],
        )
    report["reference_s"] = reference
    print(json.dumps(report))


if __name__ == "__main__":
    main()
