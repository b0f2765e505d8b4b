"""Shared-memory packet-table transport: zero-copy round-trips.

The satellite property: any :class:`PacketTable` — including empty
and single-packet tables — exported to a shared-memory segment and
attached *in a subprocess* equals the original, column for column.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Packet
from repro.net.table import COLUMNS, PacketTable
from repro.runner.shm import export_table, segment_bytes


def _packet(time, src, dst, sport, dport, proto, size, flags):
    if proto == PROTO_ICMP:
        sport = dport = 0
    return Packet(
        time=time,
        src=src,
        dst=dst,
        sport=sport,
        dport=dport,
        proto=proto,
        size=size,
        tcp_flags=flags if proto == PROTO_TCP else 0,
        icmp_type=8 if proto == PROTO_ICMP else 0,
    )


packets = st.builds(
    _packet,
    time=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    src=st.integers(0, 2**32 - 1),
    dst=st.integers(0, 2**32 - 1),
    sport=st.integers(0, 2**16 - 1),
    dport=st.integers(0, 2**16 - 1),
    proto=st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
    size=st.integers(1, 2**31),
    flags=st.integers(0, 255),
)

packet_lists = st.lists(packets, min_size=0, max_size=30)

_single = [
    Packet(
        time=1.5,
        src=1,
        dst=2,
        sport=3,
        dport=4,
        proto=PROTO_TCP,
        size=40,
        tcp_flags=2,
        icmp_type=0,
    )
]


def _columns_equal(a: PacketTable, b: PacketTable) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS
    )


def _attach_columns(handle) -> dict:
    """Pool worker: attach the segment and read every column out."""
    with handle.attach() as table:
        return {c: getattr(table, c).tolist() for c in COLUMNS}


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=1) as executor:
        yield executor


@given(packet_lists)
@example([])
@example(_single)
@settings(
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
def test_export_attach_in_subprocess_round_trips(pool, packet_list):
    table = PacketTable.from_packets(packet_list)
    handle = export_table(table)
    try:
        # In-process attach is already zero-copy...
        with handle.attach() as attached:
            assert _columns_equal(attached, table)
        # ...and a *different process* reads the same bytes back.
        remote = pool.submit(_attach_columns, handle).result(timeout=60)
        for column in COLUMNS:
            assert remote[column] == getattr(table, column).tolist(), column
    finally:
        handle.unlink()


def test_unlink_is_idempotent_and_frees_the_name():
    from multiprocessing import shared_memory

    handle = export_table(PacketTable.from_packets(_single))
    handle.unlink()
    handle.unlink()  # second unlink is a silent no-op
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=handle.name)


def test_segment_layout_is_eight_byte_aligned():
    assert segment_bytes(0) >= 1
    for n_rows in (1, 3, 7, 1000):
        assert segment_bytes(n_rows) % 8 == 0


def test_attach_is_zero_copy():
    """Attached columns are views over the mapped segment, not copies."""
    table = PacketTable.from_packets(_single * 5)
    handle = export_table(table)
    try:
        with handle.attach() as attached:
            for column in COLUMNS:
                assert not getattr(attached, column).flags.owndata
    finally:
        handle.unlink()


def test_handle_is_small_and_picklable():
    import pickle

    table = PacketTable.from_packets(_single * 1000)
    handle = export_table(table)
    try:
        payload = pickle.dumps(handle)
        # The point of the transport: the task pipe carries a name and
        # a row count, not megabytes of packet arrays.
        assert len(payload) < 512
        clone = pickle.loads(payload)
        with clone.attach() as attached:
            assert _columns_equal(attached, table)
    finally:
        handle.unlink()


def _attach_and_record_unregisters(conn) -> None:
    """Fork child: attach the handle the parent sends, report every
    resource-tracker unregister the attach sent."""
    from multiprocessing import resource_tracker

    calls = []
    resource_tracker.unregister = lambda name, rtype: calls.append(name)
    handle = conn.recv()
    handle.attach().close()
    conn.send(calls)


def test_fork_child_attach_sends_no_unregister():
    """A forked worker shares its parent's resource tracker, so the
    owner's registration is the only one: unregistering it on attach
    lets two workers unregister one segment, and the tracker prints a
    ``KeyError`` traceback for the second."""
    import multiprocessing
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    child = ctx.Process(
        target=_attach_and_record_unregisters, args=(child_conn,)
    )
    child.start()
    # Export after the fork: the segment is not in the child's copy of
    # this process's owned names.
    handle = export_table(PacketTable.from_packets(_single))
    try:
        parent_conn.send(handle)
        assert parent_conn.poll(60)
        assert parent_conn.recv() == []
    finally:
        child.join(60)
        handle.unlink()
    assert child.exitcode == 0
