"""Run one experiment over real sockets: the lockstep runner on a socket network.

:class:`NetLockstepRunner` is the
:class:`~repro.netexec.lockstep.LockstepSimulationRunner` with two
things swapped:

* **the network** — an :class:`~repro.netexec.transport.AsyncioTransport`
  over Unix domain sockets (or local TCP), timed by a
  :class:`~repro.netexec.clock.MonotonicScheduler` on the event loop's
  monotonic clock;
* **the run loop** — start the transport and the nodes, wait for
  quiescence, shut down.

The committee, node config, schedule managers, observability, counters
and result assembly are inherited, so every
:class:`~repro.sim.experiment.ExperimentConfig` field means the same on
both backends.  Because lockstep makes the committed order a pure
function of the plan, the result's ordering digests must be
byte-identical to the oracle's; the CI ``cross-backend-smoke`` job
enforces exactly that via ``python -m repro.scenarios diff``.

The run ends on **quiescence**: every alive validator has reached the
plan's final round and the transport has stopped delivering.  A run
that fails to quiesce inside ``runtime_limit`` (a stuck transport, a
dead task) raises :class:`~repro.errors.ReproError` with the per-node
round positions, rather than hanging CI.

Wall-clock reads here are diagnostics only (trace stamps, quiescence
timing); the module is DET002-allowlisted and outside the purity
closure.
"""

from __future__ import annotations

import asyncio
import tempfile

from repro.errors import ReproError
from repro.netexec.clock import MonotonicScheduler
from repro.netexec.lockstep import LockstepSimulationRunner, check_lockstep_quiescence
from repro.netexec.transport import AsyncioTransport
from repro.sim.experiment import ExperimentConfig, ExperimentResult

DEFAULT_RUNTIME_LIMIT = 120.0

# Consecutive idle polls (no new deliveries, all alive nodes at the
# final round) before the run is declared quiescent.
_QUIESCENT_POLLS = 5
_POLL_INTERVAL = 0.05


def run_net_experiment(
    config: ExperimentConfig,
    family: str = "uds",
    runtime_limit: float = DEFAULT_RUNTIME_LIMIT,
) -> ExperimentResult:
    """Run ``config`` in lockstep mode over real sockets."""
    with tempfile.TemporaryDirectory(prefix="repro-netexec-") as socket_dir:
        return asyncio.run(_run(config, socket_dir, family, runtime_limit))


async def _run(
    config: ExperimentConfig, socket_dir: str, family: str, runtime_limit: float
) -> ExperimentResult:
    # Built inside the event loop: the transport's scheduler reads its clock.
    return await NetLockstepRunner(config, socket_dir, family, runtime_limit).run()


class NetLockstepRunner(LockstepSimulationRunner):
    """The lockstep runner with real sockets for a network."""

    def __init__(
        self,
        config: ExperimentConfig,
        socket_dir: str,
        family: str = "uds",
        runtime_limit: float = DEFAULT_RUNTIME_LIMIT,
    ) -> None:
        self.socket_dir = socket_dir
        self.family = family
        self.runtime_limit = runtime_limit
        super().__init__(config)

    def _build_network(self) -> AsyncioTransport:
        scheduler = MonotonicScheduler(asyncio.get_running_loop(), seed=self.config.seed)
        return AsyncioTransport(scheduler, socket_dir=self.socket_dir, family=self.family)

    async def run(self) -> ExperimentResult:
        await self.network.start()
        for _validator, node in sorted(self.nodes.items()):
            node.start()
        with self._event_loop_phase():
            await self._wait_quiescent()
        await self.network.shutdown()
        check_lockstep_quiescence(self.plan, self.nodes)
        return self._build_result()

    async def _wait_quiescent(self) -> None:
        transport = self.network
        deadline = self.simulator.now + self.runtime_limit
        last_delivered = -1
        idle_polls = 0
        while True:
            await asyncio.sleep(_POLL_INTERVAL)
            if transport.handler_errors:
                raise ReproError(
                    "net backend handler failure: "
                    f"{transport.handler_errors[0]!r} (see transport.events)"
                )
            if self.simulator.now >= deadline:
                positions = {
                    validator: (node.current_round, node.crashed)
                    for validator, node in sorted(self.nodes.items())
                }
                raise ReproError(
                    f"net backend did not quiesce within {self.runtime_limit:.0f}s; "
                    f"target round {self.plan.max_round}, positions {positions}, "
                    f"last transport events: {transport.events[-5:]}"
                )
            alive_done = all(
                node.crashed or node.current_round >= self.plan.max_round
                for node in self.nodes.values()
            )
            if not alive_done:
                idle_polls = 0
                continue
            delivered = transport.stats.messages_delivered
            if delivered != last_delivered:
                last_delivered = delivered
                idle_polls = 0
                continue
            idle_polls += 1
            if idle_polls >= _QUIESCENT_POLLS:
                return
