"""The serving layer: feeds, backpressure, HTTP surface, parity.

The daemon's contract, end to end: a fully ingested feed serves
``/labels`` byte-identical to the offline ``repro label`` CSV, a slow
consumer blocks its producer at the configured ring bound instead of
growing memory, queries never touch the pipeline, and shutdown drains
cleanly.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.labeling.mawilab import labels_to_csv
from repro.net.table import COLUMNS, PacketTable
from repro.serve import LabelServer, LabelingService
from repro.serve.daemon import _FeedRing, _p95
from repro.serve.http import _HTTPError, rows_to_table, table_to_rows
from repro.stream.window import chunk_table

DATE = "2004-06-01"


@pytest.fixture(scope="module")
def served(archive_day, pipeline_result):
    """One service with the shared archive day fully ingested, plus
    its HTTP server — the expensive boot shared by the read-only
    tests below."""
    service = LabelingService(window=archive_day.trace.duration * 2)
    service.open_feed("day", date=DATE)
    for chunk in chunk_table(archive_day.trace.table, 4096):
        service.push("day", chunk)
    service.close_feed("day")
    server = LabelServer(service).start_background()
    yield service, server, f"http://127.0.0.1:{server.port}"
    server.stop_background()
    service.shutdown()


@contextlib.contextmanager
def _urlopen(request, timeout: float):
    """``urlopen`` that closes the connection of an error response: the
    :class:`~urllib.error.HTTPError` it raises holds the body in memory."""
    try:
        response = urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        with exc:
            body = exc.read()
        raise urllib.error.HTTPError(
            exc.url, exc.code, exc.msg, exc.headers, io.BytesIO(body)
        ) from None
    with response:
        yield response


def _get(base: str, path: str):
    with _urlopen(base + path, timeout=30) as response:
        body = response.read().decode()
        if response.headers.get("Content-Type") == "text/csv":
            return body
        return json.loads(body)


def _post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with _urlopen(request, timeout=60) as response:
        return json.load(response)


class TestFeedRing:
    def test_bounded_push_blocks_until_popped(self):
        ring = _FeedRing(max_packets=100)
        ring.push(_packets(60))

        def producer():
            ring.push(_packets(60))  # 60 + 60 > 100: must block

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.1)
        assert thread.is_alive()  # still blocked
        assert ring.depth_packets == 60
        assert ring.pop() is not None
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert ring.peak_packets <= 100
        assert ring.pushes_blocked == 1
        assert ring.blocked_seconds > 0

    def test_oversized_chunk_admitted_into_empty_ring(self):
        ring = _FeedRing(max_packets=10)
        ring.push(_packets(50))  # would deadlock forever otherwise
        assert ring.depth_packets == 50
        assert ring.pop() is not None

    def test_push_timeout_raises(self):
        ring = _FeedRing(max_packets=10)
        ring.push(_packets(10))
        with pytest.raises(ServeError, match="timed out"):
            ring.push(_packets(5), timeout=0.05)

    def test_closed_ring_rejects_push_and_drains_pop(self):
        ring = _FeedRing(max_packets=100)
        ring.push(_packets(3))
        ring.close()
        with pytest.raises(ServeError, match="closed"):
            ring.push(_packets(1))
        assert len(ring.pop()) == 3
        assert ring.pop() is None

    def test_invalid_bound_rejected(self):
        with pytest.raises(ServeError):
            _FeedRing(max_packets=0)


def _packets(n: int) -> PacketTable:
    return PacketTable(
        time=np.arange(n, dtype=np.float64),
        src=np.full(n, 0x0A000001, np.uint32),
        dst=np.full(n, 0x0A000002, np.uint32),
        sport=np.full(n, 1234, np.uint16),
        dport=np.full(n, 80, np.uint16),
        proto=np.full(n, 6, np.uint8),
        size=np.full(n, 100, np.int64),
        tcp_flags=np.full(n, 16, np.uint8),
        icmp_type=np.zeros(n, np.uint8),
    )


class TestWireFormat:
    def test_rows_round_trip(self, archive_day):
        table = archive_day.trace.table
        restored = rows_to_table(table_to_rows(table))
        for name in COLUMNS:
            np.testing.assert_array_equal(
                getattr(restored, name), getattr(table, name)
            )

    def test_empty_rows(self):
        assert len(rows_to_table([])) == 0

    def test_ragged_rows_rejected(self):
        with pytest.raises(ServeError, match="fields"):
            rows_to_table([[0.0, 1, 2]])

    @pytest.mark.parametrize(
        ("column", "value"),
        [
            ("sport", 70000),
            ("src", -1),
            ("src", 2**33),
            ("sport", 1.7),
            ("time", float("nan")),
        ],
    )
    def test_value_that_would_wrap_is_rejected(self, column, value):
        """A value its column's dtype cannot hold is refused, naming
        the row and column, instead of wrapping (70000 -> 4464)."""
        good = [0.5, 10, 20, 1000, 80, 6, 60, 16, 0]
        bad = list(good)
        bad[COLUMNS.index(column)] = value
        with pytest.raises(ServeError, match=f"row 1: {column} "):
            rows_to_table([good, bad])


class TestParity:
    def test_served_csv_identical_to_offline_label(
        self, served, pipeline_result
    ):
        """The acceptance anchor: /labels for a fully ingested day is
        record-identical to the offline `repro label` CSV."""
        _, _, base = served
        offline = labels_to_csv(pipeline_result.labels)
        assert _get(base, f"/labels?date={DATE}&format=csv") == offline

    def test_index_store_matches_offline(self, served, pipeline_result):
        service, _, _ = served
        store = service.index.store_for(DATE)
        assert labels_to_csv(store.to_records()) == labels_to_csv(
            pipeline_result.labels
        )


class TestHTTP:
    def test_health(self, served):
        _, _, base = served
        health = _get(base, "/health")
        assert health["status"] == "ok"
        assert health["days_published"] == 1
        assert health["feeds_failed"] == []

    def test_metrics(self, served, archive_day):
        _, _, base = served
        metrics = _get(base, "/metrics")
        assert metrics["ingest"]["packets"] == len(archive_day.trace)
        assert metrics["ingest"]["windows"] >= 1
        assert metrics["latency"]["p95_commit_seconds"] > 0
        queue = metrics["queues"]["day"]
        assert queue["peak_packets"] <= queue["max_packets"]
        assert metrics["index"]["days"] == 1
        assert metrics["http"]["requests"] >= 1

    def test_feeds_listing(self, served, archive_day):
        _, _, base = served
        feeds = _get(base, "/feeds")["feeds"]
        assert [f["name"] for f in feeds] == ["day"]
        assert feeds[0]["state"] == "closed"
        assert feeds[0]["packets_in"] == len(archive_day.trace)

    def test_labels_json_filters(self, served, pipeline_result):
        _, _, base = served
        rows = _get(base, f"/labels?date={DATE}")["labels"]
        assert len(rows) == len(pipeline_result.labels)
        anomalous = _get(base, f"/labels?date={DATE}&taxonomy=anomalous")
        assert anomalous["count"] == len(pipeline_result.anomalous())
        limited = _get(base, f"/labels?date={DATE}&limit=2")
        assert limited["count"] == 2
        for path in (f"/labels?date={DATE}&limit=0", "/labels?limit=0"):
            assert _get(base, path) == {"labels": [], "count": 0}, path

    def test_negative_limit_400(self, served):
        _, _, base = served
        for path in (f"/labels?date={DATE}&limit=-1", "/labels?limit=-2"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base, path)
            assert excinfo.value.code == 400, path
            assert "limit=" in json.loads(excinfo.value.read())["error"]

    def test_labels_src_filter(self, served, pipeline_result):
        from repro.net.addresses import ip_to_str

        _, _, base = served
        record = next(
            r
            for r in pipeline_result.labels
            if any(rule.src is not None for rule in r.summary.rules)
        )
        src = next(
            rule.src for rule in record.summary.rules if rule.src is not None
        )
        rows = _get(base, f"/labels?date={DATE}&src={ip_to_str(src)}")
        assert rows["count"] >= 1
        assert any(
            row["community"] == record.community_id
            for row in rows["labels"]
        )

    def test_unknown_route_404(self, served):
        _, _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/nope")
        assert excinfo.value.code == 404

    def test_bad_query_400(self, served):
        _, _, base = served
        for path in (
            f"/labels?date={DATE}&format=yaml",
            f"/labels?date={DATE}&t0=abc",
            f"/labels?date={DATE}&taxonomy=bogus",
            "/labels?format=csv",
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base, path)
            assert excinfo.value.code == 400, path

    def test_csv_for_unknown_date_404(self, served):
        _, _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/labels?date=1999-01-01&format=csv")
        assert excinfo.value.code == 404

    def test_duplicate_feed_open_409(self, served):
        _, _, base = served
        _post(base, "/feeds/dup", {"date": "2004-06-09"})
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, "/feeds/dup", {})
            assert excinfo.value.code == 409
        finally:
            _post(base, "/feeds/dup/close", {})

    def test_push_to_unknown_feed_409(self, served):
        _, _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/feeds/ghost/packets", {"packets": []})
        assert excinfo.value.code == 409

    def test_out_of_range_packet_row_400(self, served):
        _, _, base = served
        _post(base, "/feeds/wrap", {"date": "2004-06-11"})
        try:
            row = [0.5, 10, 20, 70000, 80, 6, 60, 16, 0]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, "/feeds/wrap/packets", {"packets": [row]})
            assert excinfo.value.code == 400
            error = json.load(excinfo.value)["error"]
            assert "row 0: sport 70000" in error
        finally:
            _post(base, "/feeds/wrap/close", {})

    def test_http_ingest_round_trip(self, served, archive_day):
        """The full wire path labels identically to direct pushes."""
        service, _, base = served
        _post(base, "/feeds/wire", {"date": "2004-06-10"})
        for chunk in chunk_table(archive_day.trace.table, 8192):
            _post(
                base,
                "/feeds/wire/packets",
                {"packets": table_to_rows(chunk)},
            )
        status = _post(base, "/feeds/wire/close", {})
        assert status["state"] == "closed"
        assert labels_to_csv(
            service.index.store_for("2004-06-10").to_records()
        ) == labels_to_csv(service.index.store_for(DATE).to_records())


def _raw_exchange(port: int, data: bytes) -> bytes:
    """Send raw bytes, read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestRequestErrors:
    """Request heads that do not parse get a JSON 4xx, are counted,
    and close the connection; the server keeps serving."""

    @pytest.mark.parametrize(
        ("head", "status"),
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"POST /feeds/x/packets HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
            (b"POST /feeds/x/packets HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (
                b"POST /feeds/x/packets HTTP/1.1\r\n"
                b"Content-Length: 67108865\r\n\r\n",
                413,
            ),
        ],
        ids=["request-line", "non-numeric-length", "negative-length", "too-large"],
    )
    def test_unparsable_request_answered(self, served, head, status):
        _, server, base = served
        errors = server.errors
        response = _raw_exchange(server.port, head)
        status_line, _, rest = response.partition(b"\r\n")
        assert status_line.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in rest
        assert "error" in json.loads(rest.partition(b"\r\n\r\n")[2])
        assert server.errors == errors + 1
        assert _get(base, "/health")["status"] == "ok"


_REQUEST_LINES = st.one_of(
    st.binary(max_size=48),
    st.sampled_from(
        [
            b"GET /health HTTP/1.1\r\n",
            b"POST /feeds/a/packets HTTP/1.1\r\n",
            b"GET / HTTP/1.0\r\n",
        ]
    ),
)
_HEADER_LINES = st.one_of(
    st.binary(max_size=48).map(lambda raw: raw + b"\r\n"),
    st.text(max_size=12).map(lambda t: f"Content-Length: {t}\r\n".encode()),
    st.integers(-(2**40), 2**40).map(
        lambda n: f"Content-Length: {n}\r\n".encode()
    ),
)
_HEADS = st.builds(
    lambda line, headers, body: line + b"".join(headers) + b"\r\n" + body,
    _REQUEST_LINES,
    st.lists(_HEADER_LINES, max_size=4),
    st.binary(max_size=64),
)


@given(data=st.one_of(st.binary(max_size=256), _HEADS))
@settings(max_examples=300, deadline=None)
def test_request_head_fuzz(data):
    """Any bytes parse to a request, a 4xx, or a clean EOF — never
    another exception (a 64-byte reader limit reaches the over-long
    line path too)."""
    server = LabelServer(service=None)

    async def read():
        reader = asyncio.StreamReader(limit=64)
        reader.feed_data(data)
        reader.feed_eof()
        try:
            return await server._read_request(reader)
        except _HTTPError as exc:
            return exc

    outcome = asyncio.run(read())
    if isinstance(outcome, _HTTPError):
        assert 400 <= outcome.status < 500
    else:
        assert outcome is None or len(outcome) == 4


class TestBackpressure:
    def test_peak_ring_bounded_while_consumer_lags(self, archive_day):
        """The acceptance bound: a producer outrunning the labeler
        blocks at the configured ring size — the peak never exceeds
        the bound, and the producer demonstrably waited."""
        bound = 2048
        table = archive_day.trace.table
        with LabelingService(
            window=archive_day.trace.duration / 4,
            max_ring_packets=bound,
        ) as service:
            feed = service.open_feed("slow", date="2004-06-11")
            for chunk in chunk_table(table, 512):
                service.push("slow", chunk)
            service.close_feed("slow")
            status = feed.status()
        assert status["queue"]["peak_packets"] <= bound
        assert status["queue"]["pushes_blocked"] > 0
        assert status["queue"]["blocked_seconds"] > 0
        assert status["packets_in"] == len(table)


class TestServiceLifecycle:
    def test_shutdown_idempotent_and_terminal(self, archive_day):
        service = LabelingService(window=60.0)
        service.open_feed("f", date="2004-06-12")
        service.push("f", archive_day.trace.table)
        service.shutdown()
        service.shutdown()
        with pytest.raises(ServeError):
            service.open_feed("g")

    def test_unknown_feed_rejected(self):
        with LabelingService(window=60.0) as service:
            with pytest.raises(ServeError, match="unknown feed"):
                service.push("ghost", PacketTable.empty())

    def test_failed_feed_surfaces_on_close(self, archive_day):
        service = LabelingService(window=60.0)
        feed = service.open_feed("boom", date="2004-06-13")

        def exploding(*a, **k):
            raise RuntimeError("kaput")

        # Safe to patch: the consumer thread is parked in ring.pop()
        # until the first push, and _emit only fires per window.
        feed.pipeline._emit = exploding
        service.push("boom", archive_day.trace.table)
        with pytest.raises(ServeError, match="failed while labeling"):
            service.close_feed("boom")
        assert service.health()["status"] == "degraded"
        service.shutdown()

    def test_closed_feed_releases_its_pipeline(self, archive_day):
        """A closed feed drops its pipeline (window ring, live alarms,
        detector state) and keeps reporting what the pipeline measured:
        the ring peak and every window's latency."""
        import gc
        import weakref

        duration = archive_day.trace.duration
        with LabelingService(window=duration / 4, hop=duration / 8) as service:
            feed = service.open_feed("gone", date="2004-06-14")
            ring = feed.pipeline.ring
            latencies = feed.pipeline._latencies
            pipeline = weakref.ref(feed.pipeline)
            for chunk in chunk_table(archive_day.trace.table, 4096):
                service.push("gone", chunk)
            service.close_feed("gone")
            gc.collect()
            assert pipeline() is None
            server = LabelServer(service).start_background()
            try:
                base = f"http://127.0.0.1:{server.port}"
                (status,) = _get(base, "/feeds")["feeds"]
                metrics = _get(base, "/metrics")
            finally:
                server.stop_background()
        assert len(latencies) > 1
        assert status["ring_peak_packets"] == ring.peak_packets > 0
        assert metrics["queues"]["gone"]["ring_peak_packets"] == ring.peak_packets
        assert feed.window_latencies == latencies
        assert status["windows"] == len(latencies)
        assert metrics["latency"]["windows_measured"] == len(latencies)

    def test_close_feed_persists_day(self, tmp_path, archive_day):
        from repro.labeling.database import LabelDatabase

        with LabelingService(
            window=archive_day.trace.duration * 2,
            db_root=str(tmp_path / "db"),
        ) as service:
            service.open_feed("persist", date=DATE)
            service.push("persist", archive_day.trace.table)
            service.close_feed("persist")
        db = LabelDatabase(str(tmp_path / "db"))
        assert db.dates() == [DATE]
        assert db.load_day_records(DATE)


class TestP95:
    def test_p95_helper(self):
        assert _p95([]) == 0.0
        assert _p95([5.0]) == 5.0
        values = [float(i) for i in range(1, 101)]
        assert _p95(values) == 95.0


class TestServeCLI:
    def test_parser_wires_serve_command(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--feeds",
                "a:2004-06-01",
                "--feeds",
                "b",
                "--schedule",
                "60",
                "--db-root",
                "db",
                "--max-ring-packets",
                "1024",
            ]
        )
        assert args.port == 0
        assert args.feeds == ["a:2004-06-01", "b"]
        assert args.schedule == 60.0
        assert args.max_ring_packets == 1024
        assert args.func.__name__ == "_cmd_serve"

    def test_schedule_requires_db_root(self, capsys):
        from repro.cli import main

        assert main(["serve", "--schedule", "60"]) == 2
        assert "--db-root" in capsys.readouterr().err


# -- feed options and dates -------------------------------------------

#: Strings that are not YYYY-MM-DD calendar dates, two of them paths
#: that climb out of a database root.
_NOT_DATES = [
    "..-..-escaped",
    "../../../x",
    "2004-13-01",
    "2004-02-30",
    "2004-6-1",
    "2004-06-01/..",
    "2004-06-01\n",
    "２004-06-01",
    "",
]


def _files_outside(top, *roots):
    """Files under ``top`` that are not under one of ``roots``."""
    return [
        path
        for path in top.rglob("*")
        if path.is_file()
        and not any(root in path.parents for root in roots)
    ]


def _post_raw(base: str, path: str, body: bytes):
    """(status, JSON payload) of one POST, 4xx/5xx included."""
    request = urllib.request.Request(base + path, data=body, method="POST")
    try:
        with _urlopen(request, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


@pytest.fixture
def persisting(tmp_path):
    """A service that stores closed days in a database and a
    warehouse, both nested below ``tmp_path``, over HTTP."""
    db_root = tmp_path / "a" / "b" / "db"
    wh_root = tmp_path / "a" / "b" / "wh"
    service = LabelingService(
        window=60.0, db_root=str(db_root), warehouse_root=str(wh_root)
    )
    server = LabelServer(service).start_background()
    yield service, server, f"http://127.0.0.1:{server.port}", (db_root, wh_root)
    server.stop_background()
    service.shutdown()
    assert _files_outside(tmp_path, db_root, wh_root) == []


class TestDayPaths:
    @pytest.mark.parametrize("date", _NOT_DATES + [123, None])
    def test_day_relpath_rejects_non_dates(self, date):
        from repro.errors import LabelingError
        from repro.labeling.database import _day_relpath

        with pytest.raises(LabelingError):
            _day_relpath(date)

    def test_database_writes_only_dates(self, tmp_path):
        from repro.errors import LabelingError
        from repro.labeling.database import LabelDatabase

        root = tmp_path / "a" / "b" / "db"
        db = LabelDatabase(str(root))
        for date in _NOT_DATES:
            with pytest.raises(LabelingError):
                db.store_day_labels(date, [])
        db.store_day_labels("2004-02-29", [])
        assert db.dates() == ["2004-02-29"]
        assert _files_outside(tmp_path, root) == []

    def test_warehouse_writes_only_dates(self, tmp_path):
        from repro.errors import WarehouseError
        from repro.labeling.warehouse import Warehouse

        root = tmp_path / "a" / "b" / "wh"
        warehouse = Warehouse(root)
        warehouse.ensure_version("test")
        for date in _NOT_DATES:
            with pytest.raises(WarehouseError):
                warehouse.store_day(date, [])
        assert not list(tmp_path.rglob("*.seg"))
        warehouse.store_day("2004-02-29", [])
        assert warehouse.dates() == ["2004-02-29"]
        assert _files_outside(tmp_path, root) == []


#: (JSON body, field the 400 names) of feed opens that must fail.
_BAD_FEED_OPTIONS = [
    ({"window": "abc"}, "window"),
    ({"window": -5}, "window"),
    ({"window": 0}, "window"),
    ({"window": float("nan")}, "window"),
    ({"window": float("inf")}, "window"),
    ({"window": True}, "window"),
    ({"hop": [1]}, "hop"),
    ({"window": 10, "hop": 20}, "hop"),
    ({"hop": 61}, "hop"),
    ({"max_ring_packets": "x"}, "max_ring_packets"),
    ({"max_ring_packets": -1}, "max_ring_packets"),
    ({"max_ring_packets": 0}, "max_ring_packets"),
    ({"max_ring_packets": 1.5}, "max_ring_packets"),
    ({"max_ring_packets": True}, "max_ring_packets"),
    ({"date": 123}, "date"),
    ({"date": ["x"]}, "date"),
    ({"date": "..-..-escaped"}, "date"),
    ({"date": "../../../x"}, "date"),
]
_BAD_FEED_IDS = [
    ",".join(f"{key}={value!r}" for key, value in options.items())
    for options, _ in _BAD_FEED_OPTIONS
]


class TestFeedOptions:
    @pytest.mark.parametrize(
        ("options", "field"),
        _BAD_FEED_OPTIONS,
        ids=_BAD_FEED_IDS,
    )
    def test_http_answers_400_and_opens_nothing(self, persisting, options, field):
        service, server, base, _ = persisting
        body = {"date": "2004-06-14", **options}
        status, payload = _post_raw(base, "/feeds/bad", json.dumps(body).encode())
        assert status == 400
        assert field in payload["error"]
        assert _get(base, "/feeds")["feeds"] == []
        assert _get(base, "/health")["status"] == "ok"

    @pytest.mark.parametrize(
        ("options", "field"),
        _BAD_FEED_OPTIONS,
        ids=_BAD_FEED_IDS,
    )
    def test_service_raises(self, options, field):
        with LabelingService(window=60.0) as service:
            with pytest.raises(ServeError, match=field):
                service.open_feed("bad", **{"date": "2004-06-14", **options})
            assert service.feeds_status() == []

    def test_persisting_service_needs_a_date(self, persisting):
        service, _, base, _ = persisting
        with pytest.raises(ServeError, match="date"):
            service.open_feed("../../../x")
        status, payload = _post_raw(
            base, "/feeds/..-..-x", json.dumps({}).encode()
        )
        assert status == 400 and "date" in payload["error"]
        assert service.feeds_status() == []

    def test_name_is_the_date_when_it_is_one(self, persisting):
        service, _, base, (db_root, _) = persisting
        status, payload = _post_raw(base, "/feeds/2004-06-15", b"{}")
        assert status == 200 and payload["date"] == "2004-06-15"
        status, _ = _post_raw(base, "/feeds/2004-06-15/close", b"{}")
        assert status == 200
        from repro.labeling.database import LabelDatabase

        assert LabelDatabase(str(db_root)).dates() == ["2004-06-15"]

    def test_memory_only_service_keeps_any_name(self):
        with LabelingService(window=60.0) as service:
            assert service.open_feed("live").date == "live"


# -- fuzzing the feed routes with JSON bodies --------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)
_ODD = st.sampled_from([None, True, "x", [], {}, float("nan"), float("inf")])
_FEED_BODIES = _JSON | st.fixed_dictionaries(
    {},
    optional={
        "date": _JSON | st.sampled_from(["2004-06-16", "..-..-x", "2004-02-30"]),
        "window": _JSON | st.floats(0.5, 120.0),
        "hop": _JSON | st.floats(0.5, 120.0),
        "max_ring_packets": _JSON | st.integers(-2, 10**6),
    },
)
#: Rows keep finite times within one window, so an accepted chunk
#: never asks the sink feed to emit many windows.
_ROWS = st.tuples(
    st.floats(0.0, 50.0) | _ODD,
    *[st.integers(-1, 2**33) | st.floats(-2.0, 70000.0) | _ODD] * 4,
    st.sampled_from([1, 6, 17, 0, 2]) | _ODD,
    st.integers(-1, 1500) | _ODD,
    st.integers(0, 300) | _ODD,
    st.integers(0, 300) | _ODD,
).map(list)
_PACKET_BODIES = _JSON | st.fixed_dictionaries(
    {"packets": st.lists(_ROWS | _JSON, max_size=3) | _JSON}
)


@pytest.fixture(scope="module")
def fuzzed(tmp_path_factory):
    top = tmp_path_factory.mktemp("fuzz")
    roots = (top / "db", top / "wh")
    service = LabelingService(
        window=60.0, db_root=str(roots[0]), warehouse_root=str(roots[1])
    )
    service.open_feed("sink", date="2004-06-17")
    server = LabelServer(service).start_background()
    yield service, f"http://127.0.0.1:{server.port}"
    server.stop_background()
    service.shutdown(drain=False)
    assert _files_outside(top, *roots) == []


@given(
    name=st.sampled_from(["fuzz", "2004-06-18", "2004-02-30", "%2e%2e"]),
    options=_FEED_BODIES,
    packets=_PACKET_BODIES,
)
@settings(max_examples=80, deadline=None)
def test_feed_routes_fuzz(fuzzed, name, options, packets):
    """Any JSON body posted to a feed route gets a 2xx or a 4xx."""
    service, base = fuzzed
    status, _ = _post_raw(base, f"/feeds/{name}", json.dumps(options).encode())
    assert 200 <= status < 300 or 400 <= status < 500
    if status == 200:
        assert _post_raw(base, f"/feeds/{name}/close", b"{}")[0] == 200
    body = json.dumps(packets).encode()
    for feed in ("sink", "ghost"):
        status, _ = _post_raw(base, f"/feeds/{feed}/packets", body)
        assert 200 <= status < 300 or 400 <= status < 500
