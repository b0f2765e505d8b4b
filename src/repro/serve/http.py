"""Stdlib-only HTTP/JSON surface over the labeling service.

:class:`LabelServer` exposes a :class:`~repro.serve.daemon.LabelingService`
over a minimal HTTP/1.1 server built on :mod:`asyncio` — no third-party
web framework, matching the repository's no-new-dependencies rule.

Routes
------
``GET /health``
    Liveness/readiness summary (status, uptime, open feeds).
``GET /metrics``
    Ingest/query counters, per-feed queue depths and peaks,
    per-phase p95 latencies (window labeling, commit-to-queryable).
``GET /feeds``
    Per-feed status (state, packets in, windows labeled, queue).
``GET /labels``
    Query the live index: ``date``, ``taxonomy``, ``src``, ``dst``,
    ``t0``, ``t1``, ``limit`` filters; ``format=csv`` renders the
    day's full store through
    :func:`~repro.labeling.mawilab.labels_to_csv`, byte-identical to
    the offline ``repro label`` CSV for a fully ingested day.
``POST /feeds/<name>``
    Open a feed (JSON body: ``date``, ``window``, ``hop``,
    ``max_ring_packets``).  An option that is not valid (see
    :meth:`~repro.serve.daemon.LabelingService.feed_options`) gets a
    400 naming it, and no feed opens; a feed of that name that is
    still open gets a 409.
``POST /feeds/<name>/packets``
    Push a chunk: ``{"packets": [[time, src, dst, sport, dport,
    proto, size, tcp_flags, icmp_type], ...]}``.  A non-finite time,
    or a non-integral or out-of-range value in an integer column, is
    rejected with a 400 naming the row and column.  The push runs in an
    executor thread so feed backpressure (a full ring) blocks this
    HTTP request — and therefore the remote producer — instead of
    buffering unboundedly in the server.
``POST /feeds/<name>/close``
    Drain and close a feed; returns its final status.

Queries never touch the pipeline: ``/labels`` reads the
:class:`~repro.labeling.database.LiveLabelIndex` snapshot only.  A
request the server cannot parse (a malformed request line, a bad or
oversized ``Content-Length``) is answered 400 / 413 with a JSON error
body and counted in ``/metrics``' ``http.errors``; the connection then
closes.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.errors import LabelingError, ServeError
from repro.net.table import COLUMN_DTYPES, COLUMNS, PacketTable
from repro.serve.daemon import LabelingService

_MAX_REQUEST_BYTES = 64 * 1024 * 1024
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Accepted half-open range ``[low, high)`` of every integer column
#: (all but ``time``, the first), as floats; exact for these dtypes.
_INT_LOW = np.array(
    [np.iinfo(COLUMN_DTYPES[name]).min for name in COLUMNS[1:]], np.float64
)
_INT_HIGH = np.array(
    [np.iinfo(COLUMN_DTYPES[name]).max + 1 for name in COLUMNS[1:]],
    np.float64,
)


def table_to_rows(table: PacketTable) -> list[list[float]]:
    """Render a packet table as JSON-serializable rows (wire format)."""
    columns = [getattr(table, name).tolist() for name in COLUMNS]
    return [list(row) for row in zip(*columns)]


def rows_to_table(rows: list[list[float]]) -> PacketTable:
    """Parse the wire format back into a :class:`PacketTable`.

    Raises :class:`~repro.errors.ServeError` naming the first bad row
    and column rather than letting a value wrap into its column's
    dtype: times must be finite, and the integer columns integral and
    within their dtype's range.
    """
    if not rows:
        return PacketTable.empty()
    width = len(COLUMNS)
    for index, row in enumerate(rows):
        sized = isinstance(row, (list, tuple))
        if not sized or len(row) != width:
            got = len(row) if sized else type(row).__name__
            raise ServeError(
                f"packet row {index} needs {width} fields "
                f"({', '.join(COLUMNS)}); got {got}"
            )
    try:
        matrix = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ServeError(f"packet rows must hold numbers: {exc}") from None
    bad_time = ~np.isfinite(matrix[:, 0])
    if bad_time.any():
        index = int(np.flatnonzero(bad_time)[0])
        raise ServeError(
            f"packet row {index}: time {rows[index][0]!r} is not finite"
        )
    ints = matrix[:, 1:]
    bad = (ints != np.floor(ints)) | (ints < _INT_LOW) | (ints >= _INT_HIGH)
    if bad.any():
        index, column = (int(i) for i in np.argwhere(bad)[0])
        dtype = COLUMN_DTYPES[COLUMNS[column + 1]]
        raise ServeError(
            f"packet row {index}: {COLUMNS[column + 1]} "
            f"{rows[index][column + 1]!r} is not an integer in "
            f"[{np.iinfo(dtype).min}, {np.iinfo(dtype).max}]"
        )
    return PacketTable(
        **{name: matrix[:, i] for i, name in enumerate(COLUMNS)}
    )


def _query_param(params: dict, name: str) -> Optional[str]:
    values = params.get(name)
    return values[-1] if values else None


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _error_body(message: str) -> str:
    return json.dumps({"error": message}) + "\n"


class LabelServer:
    """Serve one :class:`LabelingService` over HTTP.

    ``port=0`` binds an ephemeral port; the bound port is available as
    :attr:`port` once :meth:`start` (or :meth:`start_background`)
    returns.  :meth:`serve_forever` blocks for CLI use;
    :meth:`start_background` runs the event loop on a daemon thread
    for tests and the bench harness.
    """

    def __init__(
        self,
        service: LabelingService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.requests = 0
        self.errors = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections on the running loop."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def serve_forever(self) -> None:
        """Run the server on this thread until cancelled (CLI mode)."""

        async def _run() -> None:
            await self.start()
            assert self._server is not None
            async with self._server:
                await self._server.serve_forever()

        try:
            asyncio.run(_run())
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass

    def start_background(self, timeout: float = 10.0) -> "LabelServer":
        """Run the event loop on a daemon thread; returns when bound."""

        def _run() -> None:
            asyncio.run(self._background_main())

        self._stop_event: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=_run, name="label-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServeError("HTTP server failed to start in time")
        return self

    async def _background_main(self) -> None:
        self._stop_event = asyncio.Event()
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._stop_event.wait()
        self._started.clear()

    def stop_background(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "LabelServer":
        return self.start_background()

    def __exit__(self, *exc) -> None:
        self.stop_background()

    # -- request handling ----------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HTTPError as exc:
                    # The stream can't be resynchronized after a head
                    # that didn't parse: answer, then close.
                    self.requests += 1
                    self.errors += 1
                    await self._respond(
                        writer,
                        exc.status,
                        _error_body(exc.message),
                        "application/json",
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                method, path, body, keep_alive = request
                self.requests += 1
                try:
                    status, payload, content_type = await self._route(
                        method, path, body
                    )
                except _HTTPError as exc:
                    self.errors += 1
                    status = exc.status
                    payload = _error_body(exc.message)
                    content_type = "application/json"
                except Exception as exc:  # noqa: BLE001 - server isolation
                    self.errors += 1
                    status = 500
                    payload = _error_body(f"{type(exc).__name__}: {exc}")
                    content_type = "application/json"
                await self._respond(
                    writer, status, payload, content_type, keep_alive
                )
                if not keep_alive:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One ``(method, path, body, keep_alive)``, or ``None`` at EOF.

        Raises :class:`_HTTPError` (400 / 413) for a head that does not
        parse; a client hanging up mid-request is a clean EOF.
        """
        try:
            request_line = await reader.readline()
            if not request_line:
                return None
            parts = request_line.decode("latin-1").strip().split(" ")
            if len(parts) != 3:
                raise _HTTPError(400, "malformed request line")
            method, path, version = parts
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                text = line.decode("latin-1").strip()
                if not text:
                    break
                name, _, value = text.partition(":")
                headers[name.strip().lower()] = value.strip()
            raw_length = headers.get("content-length", "0") or "0"
            try:
                length = int(raw_length)
            except ValueError:
                raise _HTTPError(
                    400, f"invalid Content-Length {raw_length[:32]!r}"
                ) from None
            if length < 0:
                raise _HTTPError(
                    400, f"negative Content-Length {raw_length[:32]!r}"
                )
            if length > _MAX_REQUEST_BYTES:
                raise _HTTPError(413, "request body too large")
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            return None
        except ValueError as exc:  # a line over the reader's buffer limit
            raise _HTTPError(400, f"request head line too long: {exc}") from None
        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and version == "HTTP/1.1"
        )
        return method.upper(), path, body, keep_alive

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: str,
        content_type: str,
        keep_alive: bool,
    ) -> None:
        data = payload.encode()
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        writer.write(head.encode() + data)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(self, method: str, target: str, body: bytes):
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        params = parse_qs(split.query)
        if method == "GET":
            if path == "/health":
                return self._json(self.service.health())
            if path == "/metrics":
                metrics = self.service.metrics()
                metrics["http"] = {
                    "requests": self.requests,
                    "errors": self.errors,
                }
                return self._json(metrics)
            if path == "/feeds":
                return self._json({"feeds": self.service.feeds_status()})
            if path == "/labels":
                return self._labels(params)
            raise _HTTPError(404, f"no route {path!r}")
        if method == "POST":
            segments = [s for s in path.split("/") if s]
            if len(segments) == 2 and segments[0] == "feeds":
                return self._open_feed(segments[1], body)
            if (
                len(segments) == 3
                and segments[0] == "feeds"
                and segments[2] == "packets"
            ):
                return await self._push_packets(segments[1], body)
            if (
                len(segments) == 3
                and segments[0] == "feeds"
                and segments[2] == "close"
            ):
                return await self._close_feed(segments[1])
            raise _HTTPError(404, f"no route {path!r}")
        raise _HTTPError(405, f"method {method} not supported")

    @staticmethod
    def _json(payload: dict, status: int = 200):
        return status, json.dumps(payload) + "\n", "application/json"

    @staticmethod
    def _body_json(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise _HTTPError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HTTPError(400, "JSON body must be an object")
        return payload

    def _labels(self, params: dict):
        from repro.errors import WarehouseError

        date = _query_param(params, "date")
        fmt = _query_param(params, "format") or "json"
        if fmt == "csv":
            if not date:
                raise _HTTPError(400, "format=csv requires date=")
            try:
                # Warehouse-first: a fully-ingested day renders from
                # its mmap columns, not the live index.
                return 200, self.service.labels_csv(date), "text/csv"
            except LabelingError as exc:
                raise _HTTPError(404, str(exc)) from exc
            except WarehouseError as exc:
                raise _HTTPError(500, str(exc)) from exc
        if fmt != "json":
            raise _HTTPError(400, f"unknown format {fmt!r}")

        def _float(name: str) -> Optional[float]:
            raw = _query_param(params, name)
            if raw is None:
                return None
            try:
                return float(raw)
            except ValueError as exc:
                raise _HTTPError(
                    400, f"{name}= must be a number, got {raw!r}"
                ) from exc

        def _int(name: str) -> Optional[int]:
            raw = _query_param(params, name)
            if raw is None:
                return None
            try:
                return int(raw)
            except ValueError as exc:
                raise _HTTPError(
                    400, f"{name}= must be an integer, got {raw!r}"
                ) from exc

        limit = _int("limit")
        try:
            rows = self.service.query_labels(
                date=date,
                taxonomy=_query_param(params, "taxonomy"),
                src=_query_param(params, "src"),
                dst=_query_param(params, "dst"),
                sport=_int("sport"),
                dport=_int("dport"),
                t0=_float("t0"),
                t1=_float("t1"),
                limit=limit,
            )
        except LabelingError as exc:
            raise _HTTPError(400, str(exc)) from exc
        except WarehouseError as exc:
            raise _HTTPError(400, str(exc)) from exc
        return self._json({"labels": rows, "count": len(rows)})

    def _open_feed(self, name: str, body: bytes):
        body_options = self._body_json(body)
        try:
            options = self.service.feed_options(
                name,
                **{
                    key: body_options.get(key)
                    for key in ("date", "window", "hop", "max_ring_packets")
                },
            )
        except ServeError as exc:
            raise _HTTPError(400, str(exc)) from exc
        try:
            feed = self.service.open_feed(name, **options)
        except ServeError as exc:
            raise _HTTPError(409, str(exc)) from exc
        return self._json(feed.status())

    async def _push_packets(self, name: str, body: bytes):
        payload = self._body_json(body)
        rows = payload.get("packets")
        if not isinstance(rows, list):
            raise _HTTPError(400, 'body must carry {"packets": [...]}')
        try:
            table = rows_to_table(rows)
        except (ServeError, ValueError) as exc:
            raise _HTTPError(400, str(exc)) from exc
        loop = asyncio.get_running_loop()
        try:
            # Executor hand-off: a full feed ring blocks this request
            # (backpressure reaches the remote producer) without
            # stalling the event loop for other clients.
            await loop.run_in_executor(
                None, lambda: self.service.push(name, table)
            )
        except ServeError as exc:
            raise _HTTPError(409, str(exc)) from exc
        return self._json({"accepted": len(table)})

    async def _close_feed(self, name: str):
        loop = asyncio.get_running_loop()
        try:
            status = await loop.run_in_executor(
                None, lambda: self.service.close_feed(name)
            )
        except ServeError as exc:
            raise _HTTPError(409, str(exc)) from exc
        return self._json(status)
