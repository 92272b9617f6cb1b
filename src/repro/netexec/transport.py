"""AsyncioTransport: the `Network` interface over real sockets.

One process, one event loop, one listening socket per validator (Unix
domain sockets by default, local TCP optionally) and one outbound
connection per ordered validator pair.  The transport implements the
exact surface :class:`~repro.node.validator.ValidatorNode` consumes
from :class:`~repro.network.transport.Network` — ``register``/``send``/
``broadcast``/``scatter``/``multicast``/``set_crashed``/``is_crashed``/
``stats``/``node_ids``/``region_of``/``install_observability`` plus the
``.simulator`` timing facade — so the full validator stack runs over
sockets unmodified.

Mechanics:

* **Framing** — every message crosses the wire as a length-prefixed
  canonical frame (``repro/netexec/codec.py``).  The first frame on a
  connection is a :class:`~repro.netexec.codec.Hello` naming the
  sender.  A truncated, oversized, or garbage frame raises at the codec
  boundary and the reader closes the connection with a logged reason
  (``transport.events``) — no hang, no crash.
* **Backpressure** — each outbound link holds a bounded frame queue
  drained by a writer task (``write`` + ``drain``).  A full queue sheds
  the frame and counts it (``stats.messages_dropped``); the protocol's
  synchronizer repairs the loss.  The default capacity is far above
  anything smoke-scale traffic reaches, so the bound is an overload
  valve, not a steady-state drop source.
* **Connection retry with deadline** — outbound connects retry with
  exponential backoff until ``connect_deadline``; the terminal failure
  is an :class:`OSError` carrying the peer's errno and address, which
  ``repro.cliutil.run_guarded`` surfaces verbatim.
* **Crash semantics** — ``set_crashed`` mirrors the simulator: frames
  already queued are in flight and still drain to their destinations
  (drain-then-close), new sends from the crashed validator are refused
  at the source, and inbound traffic to it is counted as dropped.  The
  listening socket closes so no new connections reach a dead validator.
* **Fault hook** — ``drop_filter`` is a synchronous predicate applied
  at the send boundary, the seam where loss/partition fault windows
  plug into the socket backend.

Wall-clock and socket reads are confined to this module, ``clock``, and
``runner`` — all three are DET002-allowlisted and sit outside the
digest purity closure.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.netexec.clock import MonotonicScheduler
from repro.netexec.codec import (
    CodecError,
    FrameError,
    Hello,
    MAX_FRAME_BYTES,
    _HEADER,
    decode,
    encode_frame,
)
from repro.network.transport import NetworkStats
from repro.types import Region, ValidatorId

# Frames per outbound link before the transport starts shedding.  Sized
# as an overload valve: smoke-scale runs peak at a few hundred queued
# frames per link, two orders of magnitude below the bound.
DEFAULT_LINK_CAPACITY = 10_000

DEFAULT_CONNECT_DEADLINE = 5.0

_EOF = object()
_CLOSE = object()


async def read_frame(reader: asyncio.StreamReader) -> Any:
    """Read one length-prefixed frame; ``_EOF`` on clean end-of-stream.

    Raises :class:`FrameError` for truncated headers/bodies and
    out-of-bounds lengths, :class:`CodecError` for garbage bodies — the
    caller closes the connection with the reason.
    """
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return _EOF
        raise FrameError(
            f"connection closed mid-header ({len(error.partial)}/4 bytes)"
        ) from error
    (length,) = _HEADER.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} outside (0, {MAX_FRAME_BYTES}]")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError(
            f"connection closed mid-frame ({len(error.partial)}/{length} bytes)"
        ) from error
    return decode(body)


class PeerLink:
    """One outbound connection: bounded frame queue + writer task."""

    def __init__(
        self,
        owner: ValidatorId,
        peer: ValidatorId,
        connect: Callable[[], "asyncio.Future"],
        capacity: int,
        on_event: Callable[[str], None],
    ) -> None:
        self.owner = owner
        self.peer = peer
        self._connect = connect
        self._on_event = on_event
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=capacity)
        self.frames_sent = 0
        self.frames_dropped = 0
        self.closing = False
        self.task: Optional[asyncio.Task] = None
        self.connected: Optional[asyncio.Future] = None

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self.connected = loop.create_future()
        self.task = loop.create_task(
            self._run(), name=f"netexec-link-{self.owner}-{self.peer}"
        )

    def send_frame(self, frame: bytes) -> bool:
        """Enqueue without blocking; ``False`` means the frame was shed."""
        if self.closing:
            self.frames_dropped += 1
            return False
        try:
            self.queue.put_nowait(frame)
        except asyncio.QueueFull:
            self.frames_dropped += 1
            self._on_event(
                f"link {self.owner}->{self.peer}: send queue full "
                f"({self.queue.maxsize} frames), shedding"
            )
            return False
        return True

    async def _run(self) -> None:
        try:
            reader, writer = await self._connect()
        except OSError as error:
            self.closing = True
            if not self.connected.done():
                self.connected.set_exception(error)
            return
        try:
            writer.write(encode_frame(Hello(self.owner)))
            await writer.drain()
            if not self.connected.done():
                self.connected.set_result(True)
            while True:
                frame = await self.queue.get()
                if frame is _CLOSE:
                    break
                writer.write(frame)
                await writer.drain()
                self.frames_sent += 1
        except (ConnectionError, OSError) as error:
            self.closing = True
            self._on_event(f"link {self.owner}->{self.peer} failed: {error}")
        finally:
            self.closing = True
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def close(self) -> None:
        """Drain-then-close: frames already queued still go out first."""
        if self.task is None:
            return
        if not self.closing:
            self.closing = True
            try:
                self.queue.put_nowait(_CLOSE)
            except asyncio.QueueFull:
                self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, OSError):
            pass


class _Endpoint:
    __slots__ = ("node_id", "region", "handler", "crashed", "server", "address")

    def __init__(self, node_id: ValidatorId, region: Region, handler) -> None:
        self.node_id = node_id
        self.region = region
        self.handler = handler
        self.crashed = False
        self.server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Any] = None


class AsyncioTransport:
    """The socket-backed `Network`.  See the module docstring."""

    def __init__(
        self,
        scheduler: MonotonicScheduler,
        socket_dir: str,
        family: str = "uds",
        connect_deadline: float = DEFAULT_CONNECT_DEADLINE,
        link_capacity: int = DEFAULT_LINK_CAPACITY,
    ) -> None:
        if family not in ("uds", "tcp"):
            raise NetworkError(f"unknown transport family {family!r} (uds or tcp)")
        self.simulator = scheduler
        self.stats = NetworkStats()
        self.family = family
        self.socket_dir = socket_dir
        self.connect_deadline = connect_deadline
        self.link_capacity = link_capacity
        # Loss/partition seam: a predicate over (sender, recipient,
        # encoded frame); return True to drop at the socket boundary.
        self.drop_filter: Optional[Callable[[ValidatorId, ValidatorId, bytes], bool]] = None
        # Human-readable transport events (connection closes, sheds) and
        # handler exceptions (fatal: surfaced by the runner).
        self.events: List[str] = []
        self.handler_errors: List[BaseException] = []
        self.tracer = None
        self._endpoints: Dict[ValidatorId, _Endpoint] = {}
        self._links: Dict[Tuple[ValidatorId, ValidatorId], PeerLink] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._crash_closers: List[asyncio.Task] = []

    # -- registration (mirrors Network.register) ---------------------------------

    def register(self, node_id: ValidatorId, region: Region, handler) -> None:
        if node_id in self._endpoints:
            raise NetworkError(f"node {node_id} is already registered")
        self._endpoints[node_id] = _Endpoint(node_id, region, handler)

    @property
    def node_ids(self) -> Tuple[ValidatorId, ...]:
        return tuple(sorted(self._endpoints))

    def region_of(self, node_id: ValidatorId) -> Region:
        return self._endpoints[node_id].region

    def install_observability(self, tracer, registry: Optional[Any] = None) -> None:
        self.tracer = tracer

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Bind every listener, then connect every ordered pair."""
        self._loop = asyncio.get_running_loop()
        for node_id, endpoint in sorted(self._endpoints.items()):
            if self.family == "uds":
                endpoint.address = f"{self.socket_dir}/validator-{node_id}.sock"
                endpoint.server = await asyncio.start_unix_server(
                    self._make_connection_handler(endpoint), path=endpoint.address
                )
            else:
                endpoint.server = await asyncio.start_server(
                    self._make_connection_handler(endpoint), host="127.0.0.1", port=0
                )
                endpoint.address = endpoint.server.sockets[0].getsockname()[:2]
        for sender in self.node_ids:
            for recipient in self.node_ids:
                if sender == recipient:
                    continue
                link = PeerLink(
                    owner=sender,
                    peer=recipient,
                    connect=self._make_connector(recipient),
                    capacity=self.link_capacity,
                    on_event=self._note,
                )
                link.start(self._loop)
                self._links[(sender, recipient)] = link
        await asyncio.gather(*(link.connected for link in self._links.values()))

    def _make_connector(self, recipient: ValidatorId):
        async def connect():
            return await self._connect_with_deadline(recipient)

        return connect

    async def _connect_with_deadline(self, recipient: ValidatorId):
        deadline = self.simulator.now + self.connect_deadline
        delay = 0.02
        endpoint = self._endpoints[recipient]
        while True:
            try:
                if self.family == "uds":
                    return await asyncio.open_unix_connection(endpoint.address)
                host, port = endpoint.address
                return await asyncio.open_connection(host, port)
            except OSError as error:
                if self.simulator.now >= deadline:
                    # Re-raise with errno and address intact so the CLI
                    # guard can print an actionable connection failure.
                    raise OSError(
                        error.errno,
                        f"cannot connect to validator {recipient} within "
                        f"{self.connect_deadline:.1f}s: {error.strerror or error}",
                        str(endpoint.address),
                    ) from error
                await asyncio.sleep(delay)
                delay = min(delay * 2, 0.25)

    def _make_connection_handler(self, endpoint: _Endpoint):
        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            peer: Optional[ValidatorId] = None
            try:
                hello = await read_frame(reader)
                if hello is _EOF:
                    return
                if not isinstance(hello, Hello):
                    raise FrameError(
                        f"expected a hello frame, got {type(hello).__name__}"
                    )
                peer = hello.node_id
                while True:
                    message = await read_frame(reader)
                    if message is _EOF:
                        return
                    self._dispatch(peer, endpoint, message)
            except (FrameError, CodecError) as error:
                origin = "unidentified peer" if peer is None else f"validator {peer}"
                self._note(
                    f"validator {endpoint.node_id}: closing connection from "
                    f"{origin}: {error}"
                )
            except (ConnectionError, OSError) as error:
                self._note(
                    f"validator {endpoint.node_id}: connection error: {error}"
                )
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        return handle

    async def shutdown(self) -> None:
        """Graceful stop: drain links, close writers, close listeners."""
        await asyncio.gather(*(link.close() for link in self._links.values()))
        if self._crash_closers:
            await asyncio.gather(*self._crash_closers, return_exceptions=True)
        for endpoint in self._endpoints.values():
            if endpoint.server is not None:
                endpoint.server.close()
                try:
                    await asyncio.wait_for(endpoint.server.wait_closed(), timeout=5.0)
                except (asyncio.TimeoutError, OSError):
                    pass

    # -- message flow -------------------------------------------------------------

    def send(self, sender: ValidatorId, recipient: ValidatorId, message: Any) -> None:
        frame = encode_frame(message)
        self._send_encoded(sender, recipient, frame)

    def broadcast(self, sender: ValidatorId, message: Any, include_self: bool = True) -> None:
        self.stats.broadcasts += 1
        frame = encode_frame(message)
        for recipient in self.node_ids:
            if recipient == sender and not include_self:
                continue
            self._send_encoded(sender, recipient, frame)

    def scatter(self, sender: ValidatorId, envelopes) -> None:
        """Per-recipient envelopes, accounted like one broadcast (see ``Network.scatter``)."""
        self.stats.broadcasts += 1
        for recipient, message in envelopes:
            self._send_encoded(sender, recipient, encode_frame(message))

    def multicast(self, sender: ValidatorId, recipients, message: Any) -> None:
        frame = encode_frame(message)
        for recipient in recipients:
            self._send_encoded(sender, recipient, frame)

    def _send_encoded(self, sender: ValidatorId, recipient: ValidatorId, frame: bytes) -> None:
        self.stats.messages_sent += 1
        if self._endpoints[sender].crashed:
            self.stats.messages_dropped += 1
            return
        if self.drop_filter is not None and self.drop_filter(sender, recipient, frame):
            self.stats.messages_dropped += 1
            self.stats.loss_drops += 1
            return
        if recipient == sender:
            # Self-delivery skips the socket but not the codec: the
            # local copy is decoded from the same frame a remote peer
            # would receive, so encodability bugs cannot hide locally.
            message = decode(frame[4:])
            endpoint = self._endpoints[sender]
            self._loop.call_soon(self._dispatch, sender, endpoint, message)
            return
        link = self._links[(sender, recipient)]
        if not link.send_frame(frame):
            self.stats.messages_dropped += 1

    def _dispatch(self, sender: ValidatorId, endpoint: _Endpoint, message: Any) -> None:
        if endpoint.crashed:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        try:
            endpoint.handler(sender, message)
        except Exception as error:  # noqa: BLE001 - surfaced by the runner
            self.handler_errors.append(error)
            self._note(
                f"validator {endpoint.node_id}: handler raised "
                f"{type(error).__name__}: {error}"
            )

    # -- crash semantics ----------------------------------------------------------

    def set_crashed(self, node_id: ValidatorId, crashed: bool = True) -> None:
        endpoint = self._endpoints[node_id]
        endpoint.crashed = crashed
        if not crashed or self._loop is None:
            return
        # Drain-then-close every outbound link: frames queued before the
        # crash are in flight (the simulator delivers those too); the
        # listener closes so no new connection reaches a dead validator.
        if endpoint.server is not None:
            endpoint.server.close()
        for (sender, _recipient), link in self._links.items():
            if sender == node_id and not link.closing:
                self._crash_closers.append(self._loop.create_task(link.close()))

    def is_crashed(self, node_id: ValidatorId) -> bool:
        return self._endpoints[node_id].crashed

    # -- diagnostics --------------------------------------------------------------

    def _note(self, event: str) -> None:
        self.events.append(event)
