#!/usr/bin/env python
"""CI smoke test for the labeling daemon.

Boots ``repro serve`` as a real subprocess, drives it the way an
operator would — open a feed over HTTP, POST a synthetic trace chunk
by chunk, poll ``/labels`` until the day is queryable — and then
checks the two properties a daemon must not lose:

* liveness: ``/health`` reports ``ok`` and ``/metrics`` counts the
  ingested windows — also right after the daemon answered a malformed
  request line, an out-of-range packet row and two feeds opened with
  bad options (a negative window, a date that climbs out of the
  database root) with four 400s;
* containment: the daemon stores the closed day in its database and
  warehouse roots (both under one temporary directory) and writes
  nothing else in that directory;
* clean death: SIGTERM terminates the process with the conventional
  signal status and leaves no ``/dev/shm`` segments behind.

Usage::

    python scripts/serve_smoke.py [--duration 12] [--timeout 120]

Exits non-zero with a diagnostic on any failed assertion.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
import time
import urllib.error
import urllib.request


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: nothing to leak-check
        return set()


def wait_for_port(stderr, deadline: float) -> int:
    """Parse the bound port from the daemon's startup line."""
    port: list[int] = []

    def _scan() -> None:
        for raw in stderr:
            line = raw.decode(errors="replace")
            sys.stderr.write(f"[serve] {line}")
            match = re.search(r"http://[\d.]+:(\d+)", line)
            if match and not port:
                port.append(int(match.group(1)))

    thread = threading.Thread(target=_scan, daemon=True)
    thread.start()
    while not port:
        if time.monotonic() > deadline:
            raise TimeoutError("daemon never printed its listen address")
        time.sleep(0.05)
    return port[0]


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.load(response)


def post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.load(response)


def raw_status(port: int, data: bytes) -> int:
    """Status code of the daemon's answer to raw request bytes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return int(response.split(b" ", 2)[1]) if response else 0


def post_status(base: str, path: str, payload: dict) -> int:
    try:
        post(base, path, payload)
    except urllib.error.HTTPError as exc:
        return exc.code
    return 200


def files_outside(top: Path, *roots: Path) -> list[Path]:
    """Files under ``top`` that are not under one of ``roots``."""
    return [
        path
        for path in top.rglob("*")
        if path.is_file() and not any(root in path.parents for root in roots)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=12.0)
    parser.add_argument("--timeout", type=float, default=180.0)
    args = parser.parse_args(argv)

    # Import lazily so --help works without the package installed.
    from repro.mawi.archive import SyntheticArchive
    from repro.serve.http import table_to_rows
    from repro.stream.window import chunk_table

    day = SyntheticArchive(seed=7, trace_duration=args.duration).day(
        "2004-06-01"
    )
    segments_before = shm_segments()
    deadline = time.monotonic() + args.timeout
    scratch = tempfile.TemporaryDirectory(prefix="serve-smoke-")
    top = Path(scratch.name)
    # Nested, so a path that climbs two levels still lands inside top.
    db_root, warehouse_root = top / "a" / "b" / "db", top / "a" / "b" / "wh"

    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--window",
            str(args.duration * 2),
            "--exit-after",
            str(args.timeout),
            "--db-root",
            str(db_root),
            "--warehouse-root",
            str(warehouse_root),
        ],
        stderr=subprocess.PIPE,
    )
    try:
        port = wait_for_port(process.stderr, deadline)
        base = f"http://127.0.0.1:{port}"

        while True:
            try:
                health = get(base, "/health")
                break
            except (urllib.error.URLError, ConnectionError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.1)
        assert health["status"] == "ok", health

        post(base, "/feeds/smoke", {"date": day.date})
        for chunk in chunk_table(day.trace.table, 4096):
            post(base, "/feeds/smoke/packets", {"packets": table_to_rows(chunk)})
        # Bad input is refused, not wrapped or dropped on the floor: a
        # sport of 70000 and a request line that does not parse.
        wrapped = [[0.5, 1, 2, 70000, 80, 6, 60, 16, 0]]
        bad_row = post_status(base, "/feeds/smoke/packets", {"packets": wrapped})
        assert bad_row == 400, f"out-of-range packet row got {bad_row}"
        bad_line = raw_status(port, b"NONSENSE\r\n\r\n")
        assert bad_line == 400, f"malformed request line got {bad_line}"
        with urllib.request.urlopen(base + "/health", timeout=30) as response:
            assert response.status == 200, response.status
        # Bad feed options are refused and open no feed.
        errors = get(base, "/metrics")["http"]["errors"]
        for name, options in (
            ("bad-window", {"date": day.date, "window": -5}),
            ("bad-date", {"date": "..-..-x"}),
        ):
            code = post_status(base, f"/feeds/{name}", options)
            assert code == 400, f"feed {name} got {code}"
        listed = {feed["name"] for feed in get(base, "/feeds")["feeds"]}
        assert listed == {"smoke"}, listed
        assert get(base, "/metrics")["http"]["errors"] == errors + 2
        with urllib.request.urlopen(base + "/health", timeout=30) as response:
            assert response.status == 200, response.status
        status = post(base, "/feeds/smoke/close", {})
        assert status["state"] == "closed", status
        assert status["packets_in"] == len(day.trace), status

        while True:
            labels = get(base, f"/labels?date={day.date}")
            if labels["count"] > 0:
                break
            if time.monotonic() > deadline:
                raise TimeoutError("labels never became queryable")
            time.sleep(0.1)
        print(f"queryable: {labels['count']} labels for {day.date}")

        metrics = get(base, "/metrics")
        assert metrics["ingest"]["windows"] >= 1, metrics
        assert metrics["ingest"]["packets"] == len(day.trace), metrics
        assert metrics["http"]["errors"] == 4, metrics
        health = get(base, "/health")
        assert health["status"] == "ok", health
        assert health["days_published"] == 1, health
        year, month, mday = day.date.split("-")
        day_file = db_root / year / month / f"{mday}_anomalous_suspicious.csv"
        assert day_file.is_file(), f"closed day not in the database: {day_file}"
        assert list(warehouse_root.rglob(f"{day.date}.labels.seg")), (
            "closed day not in the warehouse"
        )
        outside = files_outside(top, db_root, warehouse_root)
        assert not outside, f"daemon wrote outside its roots: {outside}"
    except BaseException:
        process.kill()
        process.wait()
        raise

    process.send_signal(signal.SIGTERM)
    returncode = process.wait(timeout=60)
    assert returncode == -signal.SIGTERM, (
        f"expected death by SIGTERM, got returncode {returncode}"
    )

    leaked = shm_segments() - segments_before
    assert not leaked, f"daemon leaked /dev/shm segments: {sorted(leaked)}"
    scratch.cleanup()

    print(
        "serve smoke OK: ingested, queried, refused bad input, stored the "
        "day inside its roots, SIGTERM'd cleanly, no leaks"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
