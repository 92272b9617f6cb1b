"""Per-layer span tracing by wrapping the program's functions from outside.

:func:`install` replaces each layer's entry points (its public functions
plus the callbacks through which the event loop and the transport enter
the layer) with timing wrappers.  Classes are patched before the
deployment is built, so bound methods captured at construction are the
wrapped ones; module functions are replaced in every ``repro`` module
that imported them by name.

A span's self time is its duration minus the durations of the spans it
directly contains, so self times over all spans telescope to the root
span's duration: nothing is counted twice, however layers nest.  Spans
record only while a root is open (:meth:`Recorder.root`); calls outside
it (deployment set-up, result reading) pass straight through.

Spans opened directly under the event loop (``Simulator.run``) start a
new *event*: every span nested under one of them carries its event id.
A bounded sample of full spans (every ``stride``-th event, at most
``max_spans``) is kept for export.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_perf = time.perf_counter

# Root-span layer: the runner glue around the event loop (fault and
# load scheduling, result assembly).
ROOT_LAYER = "sim"

# layer -> ((dotted owner, attribute names), ...).  An owner is a class
# (patched in its own ``__dict__`` only, so overrides are wrapped where
# they are defined) or a module (its functions are replaced everywhere
# they were imported by name).
LAYER_TARGETS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "network.simulator": (
        ("repro.network.simulator.Simulator", ("run", "schedule", "schedule_at", "cancel")),
    ),
    "network.transport": (
        ("repro.network.transport.Network", ("send", "broadcast", "scatter", "multicast")),
        ("repro.network.transport", ("_deliver_message",)),
    ),
    "rbc": (
        ("repro.rbc.base.BroadcastProtocol", ("has_delivered", "_deliver")),
        ("repro.rbc.certified.CertifiedBroadcast", (
            "broadcast", "make_propose", "handle_message", "recover_certificate",
            "ack_count", "is_certified", "_handle_propose", "_handle_ack",
            "_handle_certificate", "_handle_certificate_batch",
            "_handle_piggybacked_propose",
        )),
    ),
    "dag": (
        ("repro.dag.store.DagStore", (
            "add", "missing_parents", "causal_history", "reachable_sources", "path",
            "reconsider_pending", "garbage_collect", "vertices_at", "has_quorum_at",
            "drain_dirty_anchor_rounds",
        )),
        ("repro.dag.vertex", ("make_vertex", "genesis_vertices", "check_edge_quorum")),
    ),
    "consensus": (
        ("repro.consensus.bullshark.BullsharkConsensus", (
            "process_vertex", "try_commit", "fast_forward", "garbage_collect",
        )),
    ),
    "core": (
        ("repro.core.manager.ScheduleManager", (
            "leader_for_round", "schedule_for_round", "on_vertex_ordered",
            "on_anchor_committed", "on_anchor_skipped",
        )),
        ("repro.core.manager.HammerHeadScheduleManager", (
            "on_vertex_ordered", "on_anchor_committed", "on_anchor_skipped",
        )),
        ("repro.core.scoring.ScoringRule", (
            "on_vote", "on_expected_vote", "on_anchor_committed", "on_anchor_skipped",
            "on_vertex_in_committed_subdag", "prepare_epoch_scores",
        )),
        ("repro.core.scoring.HammerHeadScoring", ("on_vote",)),
        ("repro.core.schedule_change", ("compute_next_schedule",)),
    ),
    "node": (
        ("repro.node.validator.ValidatorNode", (
            "start", "submit_transaction", "_on_network_message", "_enter_round",
            "_maybe_advance", "_on_broadcast_delivery", "_on_vertex_inserted",
            "_request_missing", "_handle_fetch_request", "_handle_fetch_response_message",
        )),
        ("repro.netexec.lockstep.LockstepNode", ("_enter_round", "_maybe_advance")),
    ),
    "workload": (
        ("repro.workload.generator.LoadGenerator", ("start", "_deliver_next")),
    ),
    "metrics": (
        ("repro.metrics.collector.MetricsCollector", (
            "on_transaction_submitted", "on_vertex_ordered", "throughput", "commit_ratio",
        )),
        ("repro.metrics.leader_stats.LeaderUtilizationStats", ("record_commit", "finalize_skips")),
    ),
    "committee": (
        ("repro.committee.committee.Committee", (
            "has_quorum", "has_validity", "stake", "edge_quorum_verdict",
        )),
        ("repro.committee.stake.StakeVector", (
            "stake_of_unique", "signer_tuple_has_quorum", "mask_stake", "mask_has_quorum",
            "mask_meets_validity",
        )),
    ),
    "crypto": (
        ("repro.crypto.hashing", ("digest_of", "vertex_digest", "digest_hex")),
        ("repro.crypto.hashing.DigestMemo", ("get", "put")),
        ("repro.crypto.signatures", ("sign", "verify", "aggregate", "verify_aggregate")),
    ),
    "netexec.codec": (
        ("repro.netexec.codec", ("encode", "encode_frame", "decode", "decode_frames")),
    ),
    "netexec.transport": (
        ("repro.netexec.transport.AsyncioTransport", (
            "send", "broadcast", "multicast", "_dispatch",
        )),
    ),
}

# Entry point of the event loop: spans opened directly inside it start a
# new simulator event.
LOOP_FUNCTION = "repro.network.simulator.Simulator.run"
# Functions whose own (inclusive) time or outcome is reported.
FETCH_SERVER = "repro.node.validator.ValidatorNode._handle_fetch_request"
CAUSAL_HISTORY = "repro.dag.store.DagStore.causal_history"
TRY_COMMIT = "repro.consensus.bullshark.BullsharkConsensus.try_commit"
RECOVER = "repro.rbc.certified.CertifiedBroadcast.recover_certificate"
ENCODE_FRAME = "repro.netexec.codec.encode_frame"
# function -> what its result adds to ``Recorder.outcomes[function][1]``:
# committing try_commit calls, healed certificates, encoded bytes.
OUTCOME_OF = {TRY_COMMIT: bool, RECOVER: bool, ENCODE_FRAME: len}


class Recorder:
    """Aggregates per-layer calls and self time; samples full spans."""

    def __init__(self, stride: int = 50, max_spans: int = 20000) -> None:
        self.layers: List[str] = [ROOT_LAYER] + list(LAYER_TARGETS)
        self.layer_calls = [0] * len(self.layers)
        self.layer_self = [0.0] * len(self.layers)
        self.functions: List[str] = []
        self.function_calls: List[int] = []
        self.function_time: List[float] = []
        # (function, parent function) -> [calls, inclusive seconds], for
        # the few pairs a metric needs (see :meth:`watch_pair`).
        self.pairs: Dict[Tuple[int, int], List[float]] = {}
        self.outcomes: Dict[str, List[int]] = {}
        self.stack: List[list] = []
        self.loop_frame: Optional[list] = None
        self.next_span = 0
        self.event = 0
        self.stride = stride
        self.max_spans = max_spans
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.root_s = 0.0

    # -- wrapping ------------------------------------------------------------

    def _function_index(self, qualified: str) -> int:
        self.functions.append(qualified)
        self.function_calls.append(0)
        self.function_time.append(0.0)
        return len(self.functions) - 1

    def wrap(self, layer: str, qualified: str, func: Callable) -> Callable:
        layer_index = self.layers.index(layer)
        index = self._function_index(qualified)
        is_loop = qualified == LOOP_FUNCTION
        outcome_of = OUTCOME_OF.get(qualified)
        outcome = self.outcomes.setdefault(qualified, [0, 0]) if outcome_of else None
        layer_calls = self.layer_calls
        layer_self = self.layer_self
        function_calls = self.function_calls
        function_time = self.function_time
        pairs = self.pairs
        spans = self.spans
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder.stack
            if not stack:
                return func(*args, **kwargs)
            parent = stack[-1]
            recorder.next_span += 1
            span = recorder.next_span
            if parent is recorder.loop_frame:
                recorder.event += 1
                event = recorder.event
            else:
                event = parent[2]
            frame = [0.0, span, event, index]
            stack.append(frame)
            if is_loop:
                recorder.loop_frame = frame
            start = _perf()
            try:
                result = func(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                if is_loop:
                    recorder.loop_frame = None
                duration = end - start
                layer_self[layer_index] += duration - frame[0]
                layer_calls[layer_index] += 1
                function_calls[index] += 1
                function_time[index] += duration
                parent[0] += duration
                if pairs:
                    pair = pairs.get((index, parent[3]))
                    if pair is not None:
                        pair[0] += 1
                        pair[1] += duration
                if event % recorder.stride == 0 and len(spans) < recorder.max_spans:
                    spans.append((span, parent[1], recorder.functions[index], start, end, event))
            if outcome is not None:
                outcome[0] += 1
                outcome[1] += int(outcome_of(result))
            return result

        return functools.wraps(func)(wrapper)

    def watch_pair(self, function: str, parent: str) -> None:
        """Also account ``function`` calls made directly from ``parent``."""
        self.pairs[(self.functions.index(function), self.functions.index(parent))] = [0, 0.0]

    def pair(self, function: str, parent: str) -> Tuple[int, float]:
        calls, seconds = self.pairs[(self.functions.index(function), self.functions.index(parent))]
        return int(calls), seconds

    def function_stats(self, qualified: str) -> Tuple[int, float]:
        index = self.functions.index(qualified)
        return self.function_calls[index], self.function_time[index]

    def layer_stats(self, layer: str) -> Tuple[int, float]:
        index = self.layers.index(layer)
        return self.layer_calls[index], self.layer_self[index]

    # -- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def root(self, event_root: bool = False) -> Iterator[None]:
        """Open the root span; ``event_root`` makes its direct children events."""
        self.next_span += 1
        frame = [0.0, self.next_span, 0, -1]
        self.stack.append(frame)
        if event_root:
            self.loop_frame = frame
        start = _perf()
        try:
            yield
        finally:
            end = _perf()
            self.stack.pop()
            self.loop_frame = None
            duration = end - start
            self.root_s += duration
            root_index = self.layers.index(ROOT_LAYER)
            self.layer_self[root_index] += duration - frame[0]
            self.layer_calls[root_index] += 1
            self.spans.append((frame[1], 0, ROOT_LAYER, start, end, 0))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span, parent, name, start, end, event in self.spans:
                handle.write(json.dumps({
                    "id": span, "parent": parent, "name": name,
                    "start": start, "end": end, "event": event,
                }) + "\n")


def _resolve(dotted: str) -> Tuple[Any, bool]:
    """Import ``dotted`` as a module, or as ``module.Class``."""
    import importlib

    try:
        return importlib.import_module(dotted), True
    except ImportError:
        module_name, _, attribute = dotted.rpartition(".")
        return getattr(importlib.import_module(module_name), attribute), False


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attribute, value in list(namespace.items()):
            if value is original:
                namespace[attribute] = replacement


def install(recorder: Recorder) -> Recorder:
    """Wrap every layer's entry points with ``recorder``, for this process's life."""
    # Import the whole stack first, so every by-name import of a wrapped
    # module function already exists when it is replaced.
    import repro.netexec.runner  # noqa: F401
    import repro.sim.runner  # noqa: F401

    for layer, targets in LAYER_TARGETS.items():
        for dotted, names in targets:
            owner, is_module = _resolve(dotted)
            for name in names:
                qualified = f"{dotted}.{name}"
                if is_module:
                    original = getattr(owner, name)
                    _replace_everywhere(original, recorder.wrap(layer, qualified, original))
                    continue
                raw = owner.__dict__[name]
                if isinstance(raw, staticmethod):
                    wrapped: Any = staticmethod(recorder.wrap(layer, qualified, raw.__func__))
                else:
                    wrapped = recorder.wrap(layer, qualified, raw)
                setattr(owner, name, wrapped)
    return recorder
