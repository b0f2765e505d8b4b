"""Process-pool fan-out shared by the batch runner, sweeps and streams.

Two layers:

* :class:`WorkerPool` — a lazily spawned, *persistent*
  ``ProcessPoolExecutor`` wrapper.  The executor survives across
  ``map`` calls, so a session fanning out many shards (or a streaming
  pipeline fanning out every window) pays worker start-up once, and
  worker-side caches — module imports, the pinned
  :class:`~repro.runner.shm.SegmentRegistry` — stay warm between
  calls.  ``workers <= 1`` runs inline in the calling process — no
  fork, no pickling — which keeps tests debuggable and lets
  monkeypatched worker internals take effect.
* :func:`parallel_map` — the historical one-shot helper, now a thin
  wrapper that opens a temporary :class:`WorkerPool` for one call.

Both preserve input order in their results while firing progress
callbacks in completion order, so sharded results are deterministic
regardless of scheduling.  :meth:`WorkerPool.map_pipelined` adds the
overlap primitive the zero-copy transport needs: tasks are *produced
lazily* (the producing iterator performs the shared-memory export)
and at most ``in_flight`` of them exist at once, so the parent exports
shard ``i + k`` while workers still compute shards ``i..i + k - 1``
instead of serializing all exports up front.
"""

from __future__ import annotations

import os
import signal
import threading
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: ``progress(done, total, result)`` called after each item finishes.
ProgressCallback = Callable[[int, int, object], None]

#: Every live pool, so a dying daemon can stop all workers at once.
_live_pools: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()

#: Extra teardown callbacks (shared-memory arena unlinks, session
#: finalizers) run before the pools are stopped on a fatal signal.
#: Entries are ``weakref.finalize`` objects or plain callables; spent
#: finalizers are pruned on each run.
_signal_cleanups: list[Callable[[], None]] = []
_signal_lock = threading.Lock()
_installed_handlers: dict[int, object] = {}


def register_signal_cleanup(fn: Callable[[], None]) -> Callable[[], None]:
    """Register a teardown callback for :func:`install_signal_handlers`.

    ``fn`` should be idempotent (``weakref.finalize`` objects are
    ideal: they run at most once and report liveness).  Returns an
    unregister function.
    """
    with _signal_lock:
        _signal_cleanups.append(fn)

    def unregister() -> None:
        with _signal_lock:
            try:
                _signal_cleanups.remove(fn)
            except ValueError:
                pass

    return unregister


def shutdown_all_pools() -> None:
    """Stop every live :class:`WorkerPool` (idempotent)."""
    for pool in list(_live_pools):
        pool.shutdown()


def _run_signal_cleanup() -> None:
    """Run registered teardown, then stop all pools.

    Errors are swallowed: this runs on the way down from SIGTERM /
    SIGINT, where the only job left is not leaking workers or
    ``/dev/shm`` segments.
    """
    with _signal_lock:
        callbacks = list(_signal_cleanups)
        # Prune finalizers that already ran (their sessions closed).
        _signal_cleanups[:] = [
            fn
            for fn in _signal_cleanups
            if getattr(fn, "alive", True)
        ]
    for fn in callbacks:
        try:
            fn()
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass
    try:
        shutdown_all_pools()
    except Exception:  # noqa: BLE001 - teardown must not raise
        pass


def install_signal_handlers(
    signums: Sequence[int] = (signal.SIGTERM, signal.SIGINT),
) -> None:
    """Make SIGTERM/SIGINT stop workers and unlink shm before dying.

    A killed daemon must leave no orphan worker processes and no
    leaked ``/dev/shm`` segments; the default handlers give the
    parent's executors and arenas no chance to clean up.  The
    installed handler runs :func:`_run_signal_cleanup` and then
    *chains*: a previous Python-level handler is invoked (so
    ``KeyboardInterrupt`` semantics survive for SIGINT), otherwise the
    original disposition is restored and the signal re-raised so the
    process still dies with the conventional status.

    Idempotent; only callable from the main thread (a no-op
    otherwise, matching :mod:`signal` rules).
    """
    if threading.current_thread() is not threading.main_thread():
        return
    for signum in signums:
        if signum in _installed_handlers:
            continue

        def _handler(signum: int, frame) -> None:
            previous = _installed_handlers.get(signum, signal.SIG_DFL)
            _run_signal_cleanup()
            if callable(previous):
                previous(signum, frame)
            elif previous != signal.SIG_IGN:
                signal.signal(signum, signal.SIG_DFL)
                _installed_handlers.pop(signum, None)
                os.kill(os.getpid(), signum)

        _installed_handlers[signum] = signal.signal(signum, _handler)


def uninstall_signal_handlers() -> None:
    """Restore the pre-install handlers (test hygiene)."""
    for signum, previous in list(_installed_handlers.items()):
        signal.signal(signum, previous)  # type: ignore[arg-type]
        del _installed_handlers[signum]


class WorkerPool:
    """A reusable process pool with an inline serial mode.

    Parameters
    ----------
    workers:
        Pool size.  ``<= 1`` never spawns processes: ``submit`` runs
        the callable immediately in the caller and returns an
        already-resolved future, which preserves the historical
        serial-mode semantics (debuggability, monkeypatching).

    The underlying executor is created on first parallel use and kept
    until :meth:`shutdown` (the pool is also a context manager).  A
    worker dying mid-task breaks only the call it served: a broken
    executor is replaced on the next submission, so the next call
    respawns cleanly instead of failing.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        _live_pools.add(self)

    # -- lifecycle -----------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Whether tasks actually cross a process boundary."""
        return self.workers > 1

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def shutdown(self) -> None:
        """Stop the workers (idempotent; the pool respawns on reuse)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- execution -----------------------------------------------------

    def submit(self, fn: Callable[[T], R], item: T) -> Future:
        """Submit one task; inline mode resolves it synchronously."""
        if not self.parallel:
            future: Future = Future()
            try:
                future.set_result(fn(item))
            except BaseException as exc:  # noqa: BLE001 - mirrored to future
                future.set_exception(exc)
            return future
        try:
            return self._ensure_executor().submit(fn, item)
        except BrokenProcessPool:
            # A worker died during an earlier call; that call already
            # failed, so this one starts on fresh workers.
            self.shutdown()
            return self._ensure_executor().submit(fn, item)

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        progress: Optional[ProgressCallback] = None,
    ) -> list[R]:
        """Apply ``fn`` to every item; results in input order.

        ``fn`` must be a module-level callable and items picklable in
        parallel mode.  ``progress`` fires as items *complete* (any
        order).
        """
        return self.map_pipelined(
            fn, items, total=len(items), progress=progress
        )

    def map_pipelined(
        self,
        fn: Callable[[T], R],
        tasks: Iterable[T],
        total: Optional[int] = None,
        in_flight: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> list[R]:
        """Lazily-produced map with bounded concurrency (double buffer).

        ``tasks`` is consumed incrementally: the next task is pulled —
        and whatever expensive work its production entails (a
        shared-memory export, a trace generation) is performed — only
        when a submission slot frees up, overlapping production with
        worker compute.  At most ``in_flight`` tasks exist at once
        (default ``workers + 2``: one buffer filling while ``workers``
        drain).  Results come back in input order; ``total`` (when
        known) feeds the progress callback, else the count seen so far
        is reported.

        A task that raises inside ``fn`` propagates after in-flight
        work drains — matching ``ProcessPoolExecutor`` semantics — and
        a broken executor is discarded so the pool stays reusable.
        """
        iterator: Iterator[T] = iter(tasks)
        if not self.parallel:
            results: list[R] = []
            for item in iterator:
                results.append(fn(item))
                if progress is not None:
                    progress(
                        len(results),
                        total if total is not None else len(results),
                        results[-1],
                    )
            return results

        if in_flight is None:
            in_flight = self.workers + 2
        in_flight = max(in_flight, 1)
        slots: dict[Future, int] = {}
        results: dict[int, R] = {}
        submitted = 0
        done = 0
        exhausted = False
        try:
            while True:
                while not exhausted and len(slots) < in_flight:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    slots[self.submit(fn, item)] = submitted
                    submitted += 1
                if not slots:
                    break
                finished, _pending = wait(
                    set(slots), return_when=FIRST_COMPLETED
                )
                for future in finished:
                    index = slots.pop(future)
                    results[index] = future.result()
                    done += 1
                    if progress is not None:
                        progress(
                            done,
                            total if total is not None else done,
                            results[index],
                        )
        except BaseException:
            # Cancel the backlog so a failure is prompt; after a worker
            # death (BrokenProcessPool) the next call respawns.
            self.shutdown()
            raise
        return [results[i] for i in range(submitted)]


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> list[R]:
    """One-shot :meth:`WorkerPool.map` over a temporary pool.

    Kept for callers without a pool to persist (grid sweeps);
    anything issuing repeated maps should hold a
    :class:`WorkerPool` instead and amortize worker start-up.
    """
    items = list(items)
    if not items:
        return []
    with WorkerPool(workers=min(workers, len(items))) as pool:
        return pool.map(fn, items, progress=progress)
