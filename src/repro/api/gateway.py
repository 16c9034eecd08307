"""JSON-lines socket gateway: the Platform API over a real wire.

The gateway is the remote-access deployment shape the paper promises: an
access server in the cloud, experimenters anywhere.  The framing is
deliberately primitive — one JSON envelope per line, UTF-8,
``\\n``-terminated — so any language with a socket and a JSON parser can
drive the platform.

* :class:`ApiGateway` — server side.  A single-threaded ``selectors``
  event loop owns every socket: the listener, a wakeup pipe, and all
  accepted connections (optionally wrapped in TLS — the paper mandates
  HTTPS-only access — with the handshake driven non-blocking on the same
  loop).  The loop reads non-blocking sockets into per-connection buffers,
  splits newline-framed request lines incrementally, and hands them to a
  small worker pool for router dispatch, so one slow operation can never
  stall the loop or the other connections.  A malformed JSON line gets a
  well-formed ``request.invalid`` error envelope back rather than a
  dropped connection, so client bugs stay debuggable.
* :class:`JsonLinesTransport` — the matching client
  :class:`~repro.api.client.Transport`.  Connects lazily, reconnects once
  per call after a broken connection, raises
  :class:`~repro.api.errors.TransportApiError` (code ``transport.failed``)
  when the gateway cannot be reached, and supports request *pipelining*
  via :meth:`JsonLinesTransport.send_many`.

**Pipelining.**  A connection may have many requests in flight: the loop
queues complete lines as they arrive and a per-connection worker task
executes them strictly in arrival order, queueing the responses back in
the same order — so responses always match the request sequence and
per-connection semantics are identical to the serial gateway.  Concurrency
happens *across* connections: read-only operations (see
:meth:`~repro.api.router.ApiRouter.is_read_only`) run without the
exclusive router lock, while mutating operations still serialize through
:attr:`ApiGateway.router_lock`.  A read that collides with a concurrent
mutation (e.g. an iteration hitting a resized dict) surfaces as a
``server.internal`` error envelope; the gateway retries it once under the
exclusive lock, so clients only ever observe consistent results.  A
connection that floods more than :data:`ApiGateway.MAX_PIPELINE_DEPTH`
unanswered requests has its reads paused until the backlog drains —
genuine TCP back-pressure instead of unbounded buffering.

**Parked requests.**  A long-poll (``agent.poll`` with ``wait_s``) that
finds no work is parked by the router as a registered request, not on a
thread: the worker that dispatched it returns to the pool, the connection
keeps its place in the response order (requests pipelined behind it wait,
as they always did), and the response is queued when the router completes
the poll — after a mutation that announced work (re-checked as
:attr:`ApiGateway.router_lock` is released), at its deadline (the selector
loop's timeout is the nearest one), or on cancel (connection close,
:meth:`ApiGateway.stop`, shard drain).  Any number of agents may wait; none
of them occupies a worker.

**Streaming (API v2).**  Responses and server pushes share one connection:
each connection hands the router a ``push`` callable that enqueues
:class:`~repro.api.schemas.ApiPush` frames onto a *bounded* per-connection
queue flushed by the event loop whenever the socket is writable; frames
are serialized whole, so a push never interleaves mid-line with a
response.  Back-pressure: the simulation thread that published the event
only ever enqueues — a stalled consumer fills the queue and the oldest
event frames are dropped (``end`` frames survive), with the loss surfaced
as a ``dropped`` counter on the next delivered frame of that subscription.
The client transport demultiplexes by the ``kind: "push"`` discriminator,
buffering push frames per subscription while a response is awaited.  When
a connection dies — or :meth:`ApiGateway.stop` runs — every subscription
it owned is cancelled on the router, so a blocked ``job.watch`` reader can
never hang shutdown and the event bus never writes to a dead socket.

**TLS.**  Pass an ``ssl.SSLContext`` (see
:func:`repro.accessserver.certificates.server_tls_context`) to serve the
paper's HTTPS-only rule for real; the handshake runs non-blocking on the
loop (``do_handshake_on_connect=False``, resumed on readiness events,
reaped after :data:`ApiGateway.TLS_HANDSHAKE_TIMEOUT_S`).
``assume_https=False`` additionally makes the router treat plaintext
connections as insecure, which the HTTPS-only
:class:`~repro.accessserver.auth.UserRegistry` then rejects at
authentication time.  The default (``assume_https=True``) keeps plaintext
loopback gateways — tests, local tooling — working as the stand-in for a
terminated TLS connection.

Threading model: one daemon loop thread owns all sockets; router dispatch
runs on a small daemon worker pool.  Mutating requests across all
connections are serialized through the router lock — matching the single
simulated clock they all share — while read-only requests run
concurrently.
"""

from __future__ import annotations

import json
import selectors
import socket
import ssl
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Optional, Tuple

from repro.api.errors import TransportApiError, ValidationApiError
from repro.api.schemas import API_VERSION, PUSH_KIND, ApiResponse
from repro.api.client import Transport
from repro.obs import component_logger

#: Error code the gateway treats as a torn optimistic read worth retrying
#: under the exclusive router lock (see the module docstring).
_RETRY_UNDER_LOCK_CODES = frozenset({"server.internal"})

#: Connection lifecycle states (loop-thread owned).
_STATE_TLS = "tls"
_STATE_OPEN = "open"
_STATE_CLOSED = "closed"

_RECV_CHUNK = 65536


class _Connection:
    """One accepted gateway connection, owned by the event loop.

    The loop thread owns the socket, the read buffer, the outgoing byte
    buffer and all selector state.  Two queues cross threads (guarded by
    ``_lock``): complete request lines waiting for a worker, and finished
    response bytes waiting for the loop to write.  Server pushes go
    through :meth:`push_frame`: a *bounded* queue of frames drained by the
    loop only when the socket can actually take bytes, so a slow or
    stalled consumer can never block the simulation thread that published
    the event.  **Slow-consumer policy** (documented in DESIGN.md):
    terminal ``job.watch`` ``end`` frames are never dropped — they bypass
    the bound entirely (at most one per subscription, so the excess is
    bounded too) and watchers always observe completion.  An *event*
    frame pushed at a full queue evicts the oldest queued event frame,
    or — when only end frames are queued — is itself the drop.  The loss
    is surfaced as a ``dropped`` counter on the next frame delivered for
    that subscription; under the usual evict-oldest path that counter
    equals the frame's ``seq`` gap (in the all-ends edge the dropped
    frame was the newest, so the counter may precede its gap).

    Frames already serialized into the outgoing buffer (the loop takes
    one push at a time, only while the buffer is drained) are committed —
    exactly like the byte the old pump thread was blocked writing.
    """

    def __init__(
        self,
        sock: socket.socket,
        push_queue_limit: int = 256,
        secure: bool = True,
        state: str = _STATE_OPEN,
    ) -> None:
        if push_queue_limit < 1:
            raise ValueError("push_queue_limit must be at least 1")
        self.sock = sock
        self.secure = secure
        self.state = state
        self.handshake_deadline: Optional[float] = None
        self.registered = False
        self.mask = 0
        # -- loop-thread only ------------------------------------------------
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.read_paused = False
        # -- cross-thread (guarded by _lock) ---------------------------------
        self._lock = threading.Lock()
        self._closed = False
        self._requests: deque = deque()  # raw request lines awaiting a worker
        self._responses: deque = deque()  # encoded response bytes, in order
        self._worker_active = False
        self._push_limit = push_queue_limit
        self._push_queue: deque = deque()
        self._push_dropped: dict = {}  # subscription_id -> drops not yet surfaced
        self._loop_notify = None  # set when adopted by a gateway loop
        self.drop_counter = None  # optional metrics counter, set by the gateway

    # -- push back-pressure (any thread) -------------------------------------
    def push_frame(self, frame: dict) -> None:
        """Enqueue one push frame; never blocks on the socket.

        Raises ``OSError`` once the connection is closed (or the loop hit
        a dead socket) so the router's subscription bridge tears the
        subscription down.
        """
        with self._lock:
            if self._closed:
                raise OSError("connection closed")
            if (
                frame.get("frame") != "end"
                and len(self._push_queue) >= self._push_limit
                and not self._evict_event()
            ):
                # Only end frames queued (nothing evictable) and the
                # newcomer is an ordinary event: the newcomer is the drop.
                self._count_drop(frame)
                return
            self._push_queue.append(frame)
        if self._loop_notify is not None:
            self._loop_notify(self)

    def _count_drop(self, frame: dict) -> None:
        subscription_id = frame.get("subscription_id", 0)
        self._push_dropped[subscription_id] = (
            self._push_dropped.get(subscription_id, 0) + 1
        )
        if self.drop_counter is not None:
            self.drop_counter.inc()

    def push_queue_depth(self) -> int:
        with self._lock:
            return len(self._push_queue)

    def _evict_event(self) -> bool:
        """Evict the oldest queued *event* frame (lock held, queue full).

        End frames are never victims — a watcher must never lose its
        completion frame.  Returns ``False`` when only end frames are
        queued, in which case the caller drops the incoming event instead.
        """
        for index, frame in enumerate(self._push_queue):
            if frame.get("frame") != "end":
                self._count_drop(frame)
                del self._push_queue[index]
                return True
        return False

    def pop_push(self) -> Optional[dict]:
        """Dequeue the next push frame, folding in surfaced drop counters."""
        with self._lock:
            if not self._push_queue:
                return None
            frame = self._push_queue.popleft()
            dropped = self._push_dropped.pop(frame.get("subscription_id", 0), 0)
        if dropped:
            frame = dict(frame)
            frame["dropped"] = dropped
        return frame

    # -- request/response queues ---------------------------------------------
    def queue_requests(self, items) -> int:
        """Loop thread: append parsed request items; returns backlog size."""
        with self._lock:
            self._requests.extend(items)
            return len(self._requests)

    def claim_worker(self) -> bool:
        """Whether the caller should start a worker task (at most one runs)."""
        with self._lock:
            if self._worker_active or not self._requests:
                return False
            self._worker_active = True
            return True

    def idle_for_inline(self) -> bool:
        """Loop thread: True when no worker is active and nothing is queued,
        so fresh requests may be answered inline without reordering."""
        with self._lock:
            return (
                not self._worker_active and not self._requests and not self._closed
            )

    def next_request_batch(self, limit: int) -> Optional[list]:
        """Worker thread: next chunk of lines to execute (in arrival order),
        or ``None`` when drained (the active-worker claim is released
        atomically with the check).  Handing out a chunk rather than one
        line at a time lets the worker answer a pipelined burst with a
        single response write and a single loop wakeup — on one core the
        per-response wakeup ping-pong otherwise dominates the batch."""
        with self._lock:
            if not self._requests or self._closed:
                self._worker_active = False
                return None
            batch = []
            while self._requests and len(batch) < limit:
                batch.append(self._requests.popleft())
            return batch

    def unread_requests(self, items) -> None:
        """Worker thread: put the unexecuted tail of a batch back, in order."""
        with self._lock:
            if not self._closed:
                self._requests.extendleft(reversed(items))

    def resume_after_park(self) -> bool:
        """Any thread, once a parked request has been answered: true when
        requests queued behind it and the caller must start a worker for
        them (the claim is kept); otherwise the claim is released."""
        with self._lock:
            if self._requests and not self._closed:
                return True
            self._worker_active = False
            return False

    def queue_response(self, data: bytes) -> None:
        """Any thread: hand encoded response bytes back to the loop."""
        with self._lock:
            if self._closed:
                return
            self._responses.append(data)
        if self._loop_notify is not None:
            self._loop_notify(self)

    def drain_responses_into_outbuf(self) -> None:
        with self._lock:
            while self._responses:
                self.outbuf += self._responses.popleft()

    def backlog(self) -> int:
        with self._lock:
            return len(self._requests)

    def has_pushes(self) -> bool:
        with self._lock:
            return bool(self._push_queue)

    # -- teardown -------------------------------------------------------------
    def mark_closed(self) -> None:
        with self._lock:
            self._closed = True
            self._push_queue.clear()
            self._requests.clear()
            self._responses.clear()

    def shutdown(self) -> None:
        """Unblock the peer's reads (EOF) ahead of the loop's close."""
        self.mark_closed()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # peer already gone

    def close(self) -> None:
        self.mark_closed()
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


class _RouterLock:
    """``ApiGateway.router_lock``: a mutex whose release ends a mutation burst.

    Whatever mutates the access server under a gateway holds this lock — a
    mutating request, a host loop's tick — so its release is the one moment
    the state is both changed and whole again.  ``after_burst`` (the
    router's ``recheck_parked_polls``) runs there, still under the lock, on
    the thread that did the mutating: parked polls are re-checked at most
    once per burst, and a burst that announced no work pays a flag test.
    """

    def __init__(self, after_burst) -> None:
        self._lock = threading.Lock()
        self._after_burst = after_burst
        self.acquire = self._lock.acquire
        self.locked = self._lock.locked

    def release(self) -> None:
        try:
            self._after_burst()
        finally:
            self._lock.release()

    def __enter__(self) -> bool:
        return self._lock.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class ApiGateway:
    """Serve an :class:`~repro.api.router.ApiRouter` over newline-delimited JSON.

    Parameters
    ----------
    router:
        The operation router; shared state (subscriptions) lives there.
    host / port:
        Bind address; port 0 picks a free one.
    tls_context:
        Server-side ``ssl.SSLContext``; when set every accepted connection
        is wrapped before the first byte is read (handshake driven
        non-blocking on the loop), and connections count as secure for the
        HTTPS-only rule.
    assume_https:
        How plaintext connections are presented to the router: ``True``
        (default) treats them as a terminated-TLS stand-in — the historical
        behaviour; ``False`` reports them insecure, so an HTTPS-only user
        registry refuses authentication over them.
    push_queue_limit:
        Bound of the per-connection push queue (slow-consumer
        back-pressure).  A consumer that cannot keep up loses its *oldest*
        queued event frames; the loss is surfaced as a ``dropped`` counter
        on the next frame it does receive.
    worker_threads:
        Size of the dispatch pool.  Requests from one connection always
        execute serially in arrival order; the pool bounds how many
        *connections* execute concurrently.
    """

    #: Longest a TLS handshake may take before the connection is dropped.
    TLS_HANDSHAKE_TIMEOUT_S = 10.0

    #: Unanswered requests one connection may pipeline before its reads
    #: are paused (resumed once the backlog halves).
    MAX_PIPELINE_DEPTH = 1024

    #: Largest all-read-only burst the loop thread answers inline; bigger
    #: bursts go to the worker pool so one connection cannot starve others.
    INLINE_BATCH_MAX = 256

    def __init__(
        self,
        router,
        host: str = "127.0.0.1",
        port: int = 0,
        tls_context: Optional[ssl.SSLContext] = None,
        assume_https: bool = True,
        push_queue_limit: int = 256,
        worker_threads: int = 4,
    ) -> None:
        # Validate here, not per accepted connection: a bad limit must
        # fail the operator at startup, not kill live connections.
        if push_queue_limit < 1:
            raise ValueError("push_queue_limit must be at least 1")
        if worker_threads < 1:
            raise ValueError("worker_threads must be at least 1")
        self._router = router
        self._host = host
        self._requested_port = port
        self._tls_context = tls_context
        self._assume_https = assume_https
        self._push_queue_limit = push_queue_limit
        self._worker_threads = worker_threads
        self._listener: Optional[socket.socket] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._router_lock = _RouterLock(
            getattr(router, "recheck_parked_polls", lambda: None)
        )
        self._dirty_lock = threading.Lock()
        self._dirty: set = set()
        self._adoptions: deque = deque()
        self._connections: set = set()  # loop thread only (post-start)
        self._running = False
        self._log = component_logger("repro.api.gateway")
        # Telemetry rides on the access server's registry when the router is
        # wired to one; a router-less gateway (tests) runs dark.
        self._obs = getattr(getattr(router, "server", None), "obs", None)
        self._init_metrics()

    def _init_metrics(self) -> None:
        obs = self._obs
        if obs is None:
            self._m_push_drops = None
            return
        registry = obs.registry
        self._m_conns_total = registry.counter(
            "gateway_connections_total", "Connections accepted since start."
        ).labels()
        self._g_conns_open = registry.gauge(
            "gateway_connections_open", "Currently established connections."
        ).labels()
        handshakes = registry.counter(
            "gateway_tls_handshakes_total",
            "Completed TLS handshakes by outcome.",
            labelnames=("outcome",),
        )
        self._m_handshake_ok = handshakes.labels(outcome="ok")
        self._m_handshake_failed = handshakes.labels(outcome="failed")
        self._m_handshake_reaps = registry.counter(
            "gateway_tls_handshake_reaps_total",
            "Connections dropped for exceeding the TLS handshake deadline.",
        ).labels()
        requests = registry.counter(
            "gateway_requests_total",
            "Request lines dispatched, by execution mode.",
            labelnames=("mode",),
        )
        self._m_requests_inline = requests.labels(mode="inline")
        self._m_requests_worker = requests.labels(mode="worker")
        batches = registry.histogram(
            "gateway_batch_seconds",
            "Wall time answering one request batch, by execution mode.",
            labelnames=("mode",),
        )
        self._m_batch_inline = batches.labels(mode="inline")
        self._m_batch_worker = batches.labels(mode="worker")
        self._g_backlog = registry.gauge(
            "gateway_pipeline_backlog",
            "Unanswered pipelined requests on the most recently serviced connection.",
        ).labels()
        self._m_read_pauses = registry.counter(
            "gateway_read_pauses_total",
            "Times a connection's reads were paused for pipeline back-pressure.",
        ).labels()
        self._m_push_drops = registry.counter(
            "gateway_push_drops_total",
            "Push frames dropped by slow-consumer back-pressure.",
        ).labels()
        self._g_push_depth = registry.gauge(
            "gateway_push_queue_depth", "Queued push frames across connections."
        ).labels()
        registry.add_collect_hook(self._collect_gateway_gauges)

    def _collect_gateway_gauges(self) -> None:
        depth = 0
        try:
            for connection in list(self._connections):
                depth += connection.push_queue_depth()
        except RuntimeError:  # set mutated mid-scrape; next scrape catches up
            pass
        self._g_push_depth.set(float(depth))
        self._g_conns_open.set(float(len(self._connections)))

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; only meaningful after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("gateway is not started")
        return self._listener.getsockname()[:2]

    @property
    def running(self) -> bool:
        return self._running

    @property
    def tls_enabled(self) -> bool:
        return self._tls_context is not None

    @property
    def router_lock(self) -> _RouterLock:
        """The lock serializing *mutating* requests through the router.

        Anything that mutates the access server *outside* a gateway request
        — e.g. a host loop driving ``run_queue()`` while remote clients
        submit — must hold this lock for each mutation burst, or a request
        landing mid-dispatch races the single-threaded simulation state.
        Read-only operations run without it (see the module docstring).
        Releasing it is also what re-checks parked ``agent.poll`` requests
        against the work the burst announced (:class:`_RouterLock`).
        """
        return self._router_lock

    def start(self) -> Tuple[str, int]:
        """Bind, listen and serve on the loop thread; returns the address."""
        if self._running:
            return self.address
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "listener")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wakeup")
        self._pool = ThreadPoolExecutor(
            max_workers=self._worker_threads,
            thread_name_prefix="batterylab-gw-worker",
        )
        self._running = True
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="batterylab-gateway-loop", daemon=True
        )
        self._loop_thread.start()
        return self.address

    def stop(self) -> None:
        """Stop serving: no new connections, established connections dropped.

        Active streaming subscriptions are cancelled *first*, so a client
        blocked in a ``job.watch`` read cannot keep the event bus pushing
        into sockets that are about to close, and the blocked reader itself
        is unblocked by the connection shutdown (EOF) — stop() never waits
        on a watcher.
        """
        self._running = False
        if hasattr(self._router, "close_all_subscriptions"):
            self._router.close_all_subscriptions()
        self._wake()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=2.0)
            self._loop_thread = None
        if self._pool is not None:
            # Workers mid-handler finish on their own time; their response
            # bytes land on closed connections and are discarded.
            self._pool.shutdown(wait=False)
            self._pool = None
        self._listener = None

    def __enter__(self) -> "ApiGateway":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- loop plumbing -------------------------------------------------------
    def _wake(self) -> None:
        wake_w = self._wake_w
        if wake_w is None:
            return
        try:
            wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # a pending wake byte already does the job / loop gone

    def _notify(self, connection: _Connection) -> None:
        """Any thread: mark a connection as needing loop service."""
        with self._dirty_lock:
            self._dirty.add(connection)
        self._wake()

    def _adopt_socket(
        self,
        sock: socket.socket,
        push_queue_limit: Optional[int] = None,
        secure: bool = True,
    ) -> _Connection:
        """Hand an already-connected socket to the loop (tests, tooling)."""
        connection = _Connection(
            sock,
            push_queue_limit=push_queue_limit or self._push_queue_limit,
            secure=secure,
        )
        connection._loop_notify = self._notify
        connection.drop_counter = self._m_push_drops
        self._adoptions.append(connection)
        self._wake()
        return connection

    def _run_loop(self) -> None:
        selector = self._selector
        expire_polls = getattr(self._router, "expire_parked_polls", lambda: None)
        while self._running:
            timeout = 0.5 if any(
                c.state == _STATE_TLS for c in self._connections
            ) else None
            # Parked polls have no timer of their own: answer the ones now
            # due, and sleep no longer than the nearest remaining deadline.
            next_deadline = expire_polls()
            if next_deadline is not None and (timeout is None or next_deadline < timeout):
                timeout = next_deadline
            try:
                events = selector.select(timeout)
            except OSError:  # pragma: no cover - selector torn down
                break
            if not self._running:
                break
            for key, mask in events:
                data = key.data
                if data == "listener":
                    self._accept_ready()
                elif data == "wakeup":
                    self._drain_wakeup()
                else:
                    self._service_events(data, mask)
            self._process_adoptions()
            self._process_dirty()
            self._reap_handshakes()
        self._shutdown_loop()

    def _drain_wakeup(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:  # pragma: no cover
            pass

    def _process_adoptions(self) -> None:
        while self._adoptions:
            connection = self._adoptions.popleft()
            try:
                connection.sock.setblocking(False)
            except OSError:
                connection.close()
                continue
            self._register(connection, selectors.EVENT_READ)
            self._connections.add(connection)
            self._flush(connection)

    def _process_dirty(self) -> None:
        with self._dirty_lock:
            if not self._dirty:
                return
            dirty = list(self._dirty)
            self._dirty.clear()
        for connection in dirty:
            if connection.state == _STATE_OPEN and connection.registered:
                self._flush(connection)
                self._maybe_resume_reads(connection)

    def _register(self, connection: _Connection, mask: int) -> None:
        try:
            self._selector.register(connection.sock, mask, connection)
        except (KeyError, ValueError, OSError):
            connection.close()
            return
        connection.registered = True
        connection.mask = mask

    def _set_mask(self, connection: _Connection, mask: int) -> None:
        if not connection.registered or connection.mask == mask:
            return
        try:
            self._selector.modify(connection.sock, mask, connection)
            connection.mask = mask
        except (KeyError, ValueError, OSError):
            self._teardown(connection)

    # -- accepting -----------------------------------------------------------
    def _accept_ready(self) -> None:
        while True:
            try:
                raw, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed under us
            if not self._running:
                try:
                    raw.close()
                except OSError:  # pragma: no cover
                    pass
                return
            raw.setblocking(False)
            try:
                raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP listener substitutes
                pass
            secure = self.tls_enabled or self._assume_https
            if self._tls_context is not None:
                try:
                    sock = self._tls_context.wrap_socket(
                        raw, server_side=True, do_handshake_on_connect=False
                    )
                except (OSError, ssl.SSLError):
                    try:
                        raw.close()
                    except OSError:  # pragma: no cover
                        pass
                    continue
                connection = _Connection(
                    sock,
                    push_queue_limit=self._push_queue_limit,
                    secure=secure,
                    state=_STATE_TLS,
                )
                connection.handshake_deadline = (
                    time.monotonic() + self.TLS_HANDSHAKE_TIMEOUT_S
                )
            else:
                connection = _Connection(
                    raw, push_queue_limit=self._push_queue_limit, secure=secure
                )
            connection._loop_notify = self._notify
            connection.drop_counter = self._m_push_drops
            self._register(connection, selectors.EVENT_READ)
            if connection.registered:
                self._connections.add(connection)
                if self._obs is not None:
                    self._m_conns_total.inc()

    # -- TLS handshake -------------------------------------------------------
    def _continue_handshake(self, connection: _Connection) -> None:
        try:
            connection.sock.do_handshake()
        except ssl.SSLWantReadError:
            self._set_mask(connection, selectors.EVENT_READ)
            return
        except ssl.SSLWantWriteError:
            self._set_mask(connection, selectors.EVENT_WRITE)
            return
        except (OSError, ssl.SSLError):
            # Failed handshake (plaintext probe, bad cipher): the peer
            # never reached the API; just drop the connection.
            if self._obs is not None:
                self._m_handshake_failed.inc()
            self._teardown(connection, silent=True)
            return
        connection.state = _STATE_OPEN
        connection.handshake_deadline = None
        if self._obs is not None:
            self._m_handshake_ok.inc()
        self._set_mask(connection, selectors.EVENT_READ)

    def _reap_handshakes(self) -> None:
        deadline_now = None
        for connection in list(self._connections):
            if connection.state != _STATE_TLS:
                continue
            if deadline_now is None:
                deadline_now = time.monotonic()
            if (
                connection.handshake_deadline is not None
                and deadline_now >= connection.handshake_deadline
            ):
                if self._obs is not None:
                    self._m_handshake_reaps.inc()
                self._log.warning("TLS handshake timed out; connection reaped")
                self._teardown(connection, silent=True)

    # -- per-connection events ----------------------------------------------
    def _service_events(self, connection: _Connection, mask: int) -> None:
        if connection.state == _STATE_CLOSED:
            return
        if connection.state == _STATE_TLS:
            self._continue_handshake(connection)
            return
        if mask & selectors.EVENT_READ:
            self._on_readable(connection)
        if connection.state == _STATE_OPEN and mask & selectors.EVENT_WRITE:
            self._flush(connection)

    def _on_readable(self, connection: _Connection) -> None:
        while True:
            try:
                chunk = connection.sock.recv(_RECV_CHUNK)
            except (ssl.SSLWantReadError, ssl.SSLWantWriteError):
                break
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._teardown(connection)
                return
            if not chunk:
                self._teardown(connection)
                return
            connection.inbuf += chunk
            if len(chunk) < _RECV_CHUNK and not isinstance(
                connection.sock, ssl.SSLSocket
            ):
                break
        self._consume_lines(connection)

    def _consume_lines(self, connection: _Connection) -> None:
        buf = connection.inbuf
        end = buf.rfind(b"\n")
        if end < 0:
            return
        lines = [line for line in bytes(buf[: end + 1]).split(b"\n") if line.strip()]
        del buf[: end + 1]
        if not lines:
            return
        # Requests parse on the loop thread, once; workers receive parsed
        # ``(request, error_response)`` items.
        items = [self._parse_line(line) for line in lines]
        obs_on = self._obs is not None and self._obs.registry.enabled
        if self._inline_eligible(items) and connection.idle_for_inline():
            # All-read-only burst on an idle connection: answer inline and
            # skip the loop<->worker handoff entirely.  On one core the GIL
            # handoff latency, not the dispatch, dominates a pipelined
            # batch — this is the gateway's hot path.  Telemetry here is
            # per-batch (one observe + one inc), not per-request, to keep
            # the overhead budget.
            batch_t0 = time.perf_counter()
            out = bytearray()
            for request, _ in items:
                response = self._dispatch(
                    request, connection, connection.secure, read_only=True
                )
                out += json.dumps(response).encode("utf-8")
                out += b"\n"
            # Loop-owned buffers: append directly, no queue lock or wakeup.
            connection.drain_responses_into_outbuf()
            connection.outbuf += out
            if obs_on:
                self._m_requests_inline.inc(float(len(items)))
                self._m_batch_inline.observe(time.perf_counter() - batch_t0)
            self._flush(connection)
            return
        backlog = connection.queue_requests(items)
        if obs_on:
            self._g_backlog.set(float(backlog))
        if backlog >= self.MAX_PIPELINE_DEPTH and not connection.read_paused:
            connection.read_paused = True
            if obs_on:
                self._m_read_pauses.inc()
            self._log.warning(
                "pipeline backlog %d reached; pausing reads", backlog
            )
            self._set_mask(connection, connection.mask & ~selectors.EVENT_READ)
        if connection.claim_worker():
            self._pool.submit(self._drain_requests, connection)

    def _inline_eligible(self, items) -> bool:
        """A burst may run on the loop thread iff every request is read-only
        (dispatched lock-free, so the loop cannot block behind a slow
        mutating op), none of it can *park* (a long-poll such as
        ``agent.poll`` holds its connection's place in the response order,
        which is the worker path's business), and the burst is small
        enough not to starve other connections."""
        if len(items) > self.INLINE_BATCH_MAX:
            return False
        is_read_only = getattr(self._router, "is_read_only", None)
        if is_read_only is None:
            return False
        is_blocking = getattr(self._router, "is_blocking", None)
        return all(
            error is None
            and is_read_only(request.get("op"))
            and not (is_blocking is not None and is_blocking(request.get("op")))
            for request, error in items
        )

    def _maybe_resume_reads(self, connection: _Connection) -> None:
        if (
            connection.read_paused
            and connection.backlog() < self.MAX_PIPELINE_DEPTH // 2
        ):
            connection.read_paused = False
            self._set_mask(connection, connection.mask | selectors.EVENT_READ)

    # -- writing -------------------------------------------------------------
    def _flush(self, connection: _Connection) -> None:
        connection.drain_responses_into_outbuf()
        if not self._try_send(connection):
            return
        # Pushes are serialized one frame at a time, only while the buffer
        # is drained — anything still queued stays evictable under the
        # back-pressure bound.
        while not connection.outbuf:
            frame = connection.pop_push()
            if frame is None:
                break
            connection.outbuf += json.dumps(frame).encode("utf-8") + b"\n"
            if not self._try_send(connection):
                return
        want_write = bool(connection.outbuf)
        mask = connection.mask
        new_mask = mask | selectors.EVENT_WRITE if want_write else mask & ~selectors.EVENT_WRITE
        self._set_mask(connection, new_mask)

    def _try_send(self, connection: _Connection) -> bool:
        """Write as much of the outgoing buffer as the socket takes.

        Returns ``False`` when the connection died (and was torn down).
        """
        outbuf = connection.outbuf
        while outbuf:
            try:
                sent = connection.sock.send(outbuf)
            except (ssl.SSLWantWriteError, ssl.SSLWantReadError):
                break
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._teardown(connection)
                return False
            if sent <= 0:
                break
            del outbuf[:sent]
        return True

    # -- dispatch (worker threads) -------------------------------------------
    #: Request lines one worker pass answers with a single response write.
    WORKER_BATCH = 128

    def _drain_requests(self, connection: _Connection) -> None:
        obs_on = self._obs is not None and self._obs.registry.enabled
        may_park = getattr(self._router, "is_blocking", lambda op: False)
        while True:
            batch = connection.next_request_batch(self.WORKER_BATCH)
            if batch is None:
                return
            batch_t0 = time.perf_counter()
            out = bytearray()
            for index, (request, error) in enumerate(batch):
                if error is not None:
                    response = error
                elif may_park(request.get("op")):
                    # From here the request's completion — on any thread,
                    # possibly before the dispatch returns — owns this
                    # connection's pipeline, so the batch ends with it:
                    # answers so far go out, the rest goes back in line.
                    connection.unread_requests(batch[index + 1 :])
                    del batch[index + 1 :]
                    if out:
                        connection.queue_response(bytes(out))
                        out = bytearray()
                    response = self._dispatch_parking(request, connection)
                    if response is None:
                        break
                else:
                    response = self._dispatch(request, connection, connection.secure)
                out += json.dumps(response).encode("utf-8")
                out += b"\n"
            if obs_on:
                self._m_requests_worker.inc(float(len(batch)))
                self._m_batch_worker.observe(time.perf_counter() - batch_t0)
            if response is None:
                # Parked, and no thread waits with it: this worker is free,
                # and the loop learns there is a new deadline to sleep to.
                self._wake()
                return
            connection.queue_response(bytes(out))

    def _complete_parked(self, connection: _Connection, response: dict) -> None:
        """Any thread: a parked request's answer, then the requests behind it."""
        connection.queue_response(json.dumps(response).encode("utf-8") + b"\n")
        pool = self._pool
        if connection.resume_after_park() and pool is not None:
            try:
                pool.submit(self._drain_requests, connection)
            except RuntimeError:  # stop() shut the pool down under us
                pass

    def _parse_line(self, line: bytes):
        """Loop thread: parse one request line into ``(request, None)`` or
        ``(None, error_response)`` for malformed input."""
        try:
            request = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
            error = ValidationApiError(f"request line is not valid JSON: {exc}")
            return None, ApiResponse(
                ok=False, version=API_VERSION, request_id=0, error=error.to_wire()
            ).to_wire()
        if not isinstance(request, dict):
            error = ValidationApiError("request line must be a JSON object")
            return None, ApiResponse(
                ok=False, version=API_VERSION, request_id=0, error=error.to_wire()
            ).to_wire()
        return request, None

    def _dispatch(
        self,
        request: dict,
        connection: _Connection,
        secure: bool,
        read_only: Optional[bool] = None,
    ) -> dict:
        router = self._router
        if read_only is None:
            checker = getattr(router, "is_read_only", None)
            read_only = bool(checker and checker(request.get("op")))
        if read_only and request.get("trace_id") is not None:
            # A client-traced read mints spans in the router, and span
            # records publish on the (single-threaded) event bus — run it
            # under the exclusive lock like a mutation so bus publishes
            # stay serialized.  Untraced reads keep the lock-free path.
            read_only = False
        if read_only:
            # Optimistic read: no lock, concurrent with mutating ops.  A
            # torn iteration surfaces as server.internal — retry once with
            # the exclusive lock for a consistent snapshot.
            response = router.handle(
                request, push=connection.push_frame, owner=connection, secure=secure
            )
            error = response.get("error")
            if (
                isinstance(error, dict)
                and error.get("code") in _RETRY_UNDER_LOCK_CODES
            ):
                with self._router_lock:
                    response = router.handle(
                        request,
                        push=connection.push_frame,
                        owner=connection,
                        secure=secure,
                    )
            return response
        with self._router_lock:
            obs = self._obs
            span = None
            if obs is not None and obs.tracer.enabled:
                span = obs.tracer.start_span(
                    "gateway.request",
                    trace_id=request.get("trace_id"),
                    op=request.get("op"),
                )
                # Thread the trace through the router so every downstream
                # span (router, job lifecycle) shares this trace ID.
                request = dict(request)
                request["trace_id"] = span.trace_id
            response = router.handle(
                request, push=connection.push_frame, owner=connection, secure=secure
            )
            if span is not None:
                obs.tracer.end_span(
                    span, status="ok" if response.get("ok") else "error"
                )
            return response

    def _dispatch_parking(
        self, request: dict, connection: _Connection
    ) -> Optional[dict]:
        """:meth:`_dispatch` for a request that may park: ``None`` when it
        did, and :meth:`_complete_parked` delivers the response later.

        Such requests are read-only, so the optimistic rule applies:
        lock-free first (unless client-traced), once more under the lock
        after a torn read.
        """
        deferred = getattr(self._router, "handle_deferred", None)
        if deferred is None:  # a router that cannot park blocks this worker
            return self._dispatch(request, connection, connection.secure)

        attempt = partial(
            deferred,
            request,
            partial(self._complete_parked, connection),
            push=connection.push_frame,
            owner=connection,
            secure=connection.secure,
        )
        if request.get("trace_id") is None:
            response = attempt()
            error = response.get("error") if response is not None else None
            if not (
                isinstance(error, dict)
                and error.get("code") in _RETRY_UNDER_LOCK_CODES
            ):
                return response
        with self._router_lock:
            return attempt()

    # -- teardown ------------------------------------------------------------
    def _teardown(self, connection: _Connection, silent: bool = False) -> None:
        if connection.state == _STATE_CLOSED:
            return
        connection.state = _STATE_CLOSED
        connection.mark_closed()
        if connection.registered:
            try:
                self._selector.unregister(connection.sock)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass
            connection.registered = False
        if not silent and hasattr(self._router, "cancel_owner"):
            # The connection's subscriptions die with it: the event bus
            # must never keep pushing into a socket that is gone.
            self._router.cancel_owner(connection)
        try:
            connection.sock.close()
        except OSError:  # pragma: no cover
            pass
        self._connections.discard(connection)

    def _shutdown_loop(self) -> None:
        for connection in list(self._connections):
            # shutdown() before close(): EOF unblocks peers mid-read, so a
            # blocked job.watch reader cannot hang on a vanished gateway.
            connection.shutdown()
            self._teardown(connection)
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is None:
                continue
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self._wake_r = None
        self._wake_w = None
        try:
            self._selector.close()
        except OSError:  # pragma: no cover
            pass
        self._selector = None


class JsonLinesTransport(Transport):
    """Client transport speaking the gateway's newline-delimited JSON.

    With ``tls_context`` set the connection is wrapped in TLS before any
    envelope travels; pair it with
    :func:`repro.accessserver.certificates.client_tls_context` to trust the
    platform's wildcard certificate.  ``server_hostname`` is what the
    certificate is checked against (defaults to the connect host — pass the
    vantage-point DNS name when connecting by IP).

    Push frames (``kind: "push"``) may arrive interleaved with responses;
    they are demultiplexed into per-subscription buffers.  ``recv_push``
    drains the buffer first and then *blocks* on the socket — this is a
    streaming-capable transport.

    :meth:`send_many` pipelines a batch of requests over the connection —
    one write, responses read back in request order — amortizing the
    per-request network round trip the serial :meth:`send` pays.
    """

    #: :meth:`send` transparently reconnects and *resends* once after a
    #: connection drop, so a request may reach the server twice.  Clients
    #: key mutating calls (see ``BatteryLabClient.submit_job``) off this.
    supports_reconnect = True

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        tls_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout_s = timeout_s
        self._tls_context = tls_context
        self._server_hostname = server_hostname or host
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._push_buffers: dict = {}

    def _connect(self) -> None:
        try:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout_s
            )
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover
                pass
            if self._tls_context is not None:
                sock = self._tls_context.wrap_socket(
                    sock, server_hostname=self._server_hostname
                )
        except (OSError, ssl.SSLError) as exc:
            raise TransportApiError(
                f"cannot reach gateway at {self._host}:{self._port}: {exc}",
                details={"host": self._host, "port": self._port},
            ) from None
        self._sock = sock
        self._reader = sock.makefile("rb")

    def _read_frame(self) -> Optional[dict]:
        """One parsed frame off the wire; ``None`` on orderly EOF."""
        line = self._reader.readline()
        if not line:
            return None
        try:
            frame = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TransportApiError(f"gateway sent an invalid frame: {exc}") from None
        if not isinstance(frame, dict):
            raise TransportApiError("gateway sent a non-object frame")
        return frame

    def _buffer_push(self, frame: dict) -> None:
        subscription_id = frame.get("subscription_id", 0)
        self._push_buffers.setdefault(subscription_id, []).append(frame)

    def send(self, request: dict) -> dict:
        try:
            frame = json.dumps(request).encode("utf-8") + b"\n"
        except (TypeError, ValueError) as exc:
            raise TransportApiError(f"request is not JSON-serializable: {exc}") from None
        # One transparent reconnect: a server-side idle close between calls
        # must not fail an otherwise healthy client.
        for attempt in (0, 1):
            if self._sock is None:
                self._connect()
            try:
                self._sock.sendall(frame)
                response = self._read_response()
                if response is not None:
                    return response
                self.close()  # orderly server EOF: reconnect once
            except OSError as exc:
                self.close()
                if attempt:
                    raise TransportApiError(
                        f"gateway connection failed: {exc}",
                        details={"host": self._host, "port": self._port},
                    ) from None
        raise TransportApiError(
            "gateway closed the connection without responding",
            details={"host": self._host, "port": self._port},
        )

    def send_many(self, requests) -> list:
        """Pipeline ``requests`` (wire dicts) and return their responses.

        All requests go out in one write; the gateway answers them in
        order.  Interleaved push frames are buffered exactly as in
        :meth:`send`.  One transparent reconnect is attempted if the
        connection fails before *any* response arrived; a failure
        mid-batch raises :class:`~repro.api.errors.TransportApiError`
        (callers retry whole batches — requests are not replayed
        piecemeal).
        """
        requests = list(requests)
        if not requests:
            return []
        try:
            blob = b"".join(
                json.dumps(request).encode("utf-8") + b"\n" for request in requests
            )
        except (TypeError, ValueError) as exc:
            raise TransportApiError(f"request is not JSON-serializable: {exc}") from None
        for attempt in (0, 1):
            if self._sock is None:
                self._connect()
            responses = []
            try:
                self._sock.sendall(blob)
                for _ in requests:
                    response = self._read_response()
                    if response is None:
                        raise TransportApiError(
                            "gateway closed the connection mid-batch",
                            details={"received": len(responses)},
                        )
                    responses.append(response)
                return responses
            except TransportApiError:
                self.close()
                raise
            except OSError as exc:
                self.close()
                if attempt or responses:
                    raise TransportApiError(
                        f"gateway connection failed: {exc}",
                        details={"host": self._host, "port": self._port},
                    ) from None
        raise TransportApiError(  # pragma: no cover - loop always returns/raises
            "gateway connection failed",
            details={"host": self._host, "port": self._port},
        )

    def _read_response(self) -> Optional[dict]:
        """Read until a response frame, buffering interleaved pushes."""
        while True:
            frame = self._read_frame()
            if frame is None:
                return None
            if frame.get("kind") == PUSH_KIND:
                self._buffer_push(frame)
                continue
            return frame

    def recv_push(
        self, subscription_id: int, timeout_s: Optional[float] = None
    ) -> Optional[dict]:
        buffered = self._push_buffers.get(subscription_id)
        if buffered:
            return buffered.pop(0)
        if self._sock is None or self._reader is None:
            raise TransportApiError(
                "no connection to receive pushes on; the subscription is gone"
            )
        previous_timeout = self._sock.gettimeout()
        # None means "wait as long as it takes" — override the connect
        # timeout the socket still carries, or a >30s-quiet watch would
        # spuriously fail.
        self._sock.settimeout(timeout_s)
        try:
            while True:
                frame = self._read_frame()
                if frame is None:
                    raise TransportApiError(
                        "gateway closed the connection while streaming"
                    )
                if frame.get("kind") != PUSH_KIND:
                    # A response with no request outstanding cannot happen
                    # from this (single-threaded) client; drop it.
                    continue
                if frame.get("subscription_id") == subscription_id:
                    return frame
                self._buffer_push(frame)
        except socket.timeout:
            raise TransportApiError(
                f"timed out after {timeout_s}s waiting for a push frame",
                details={"subscription_id": subscription_id},
            ) from None
        except OSError as exc:
            self.close()
            raise TransportApiError(f"gateway connection failed: {exc}") from None
        finally:
            if self._sock is not None:
                self._sock.settimeout(previous_timeout)

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:  # pragma: no cover
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None
        self._push_buffers.clear()
