"""Process-pool fan-out for simulation points.

The evaluation grid is embarrassingly parallel — hundreds of independent
:meth:`Pipeline.run` invocations — so :func:`run_points` fans pending
points out over a spawn-safe :class:`~concurrent.futures.ProcessPoolExecutor`
and streams ``(index, result, elapsed)`` tuples back as points complete.
At ``jobs=1`` (the default), or with at most one task to run, it
degrades to a plain serial loop with no pool, no pickling, and
identical results.

The dispatching process looks every point up in the persistent
:mod:`~repro.harness.cache` store first and serves the hits itself; only
the misses reach workers, which simulate them and populate the store
directly, so a point simulated by any worker is a disk hit for every
later process.

Job count resolution, in priority order: explicit ``jobs=`` argument,
:func:`set_default_jobs` (the CLI's ``--jobs``), ``$REPRO_JOBS``, then 1.
A non-positive count means "all cores".
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, \
    Tuple

from repro import envvars
from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline
from repro.core.stats import SimResult
from repro.harness.cache import get_store, point_digest
from repro.trace import generate

#: (config, benchmarks, length, seed, stop) — one simulation's inputs.
PointSpec = Tuple[CoreConfig, Tuple[str, ...], int, int, str]

# ----------------------------------------------------------------------
# per-process trace memo
# ----------------------------------------------------------------------

#: (name, length, seed) -> trace, LRU-bounded.  Traces are immutable
#: once generated (cursors live on ThreadContext), so one object safely
#: serves every point that names it.
_TRACE_MEMO: "OrderedDict[Tuple[str, int, int], object]" = OrderedDict()
_TRACE_MEMO_MAX = 64
_trace_memo_hits = 0
_trace_memo_misses = 0


def traces_for(benchmarks: Tuple[str, ...], length: int,
               seed: int) -> list:
    """The traces for one point, memoized per trace per process.

    A 50-config grid over one mix generates its traces once per worker
    instead of 50 times; repeated lookups return the *same* trace
    objects.
    """
    global _trace_memo_hits, _trace_memo_misses
    out = []
    for i, bench in enumerate(benchmarks):
        key = (bench, length, seed + i)
        trace = _TRACE_MEMO.get(key)
        if trace is None:
            _trace_memo_misses += 1
            trace = generate(bench, length, seed + i)
            _TRACE_MEMO[key] = trace
            if len(_TRACE_MEMO) > _TRACE_MEMO_MAX:
                _TRACE_MEMO.popitem(last=False)
        else:
            _trace_memo_hits += 1
            _TRACE_MEMO.move_to_end(key)
        out.append(trace)
    return out


def clear_trace_memo() -> None:
    """Drop every memoized trace and zero the hit/miss counters
    (invoked by :func:`repro.harness.runner.clear_cache`)."""
    global _trace_memo_hits, _trace_memo_misses
    _TRACE_MEMO.clear()
    _trace_memo_hits = _trace_memo_misses = 0


def trace_memo_stats() -> Dict[str, int]:
    """Live memo counters: ``entries``, ``hits``, ``misses``."""
    return {"entries": len(_TRACE_MEMO), "hits": _trace_memo_hits,
            "misses": _trace_memo_misses}

_default_jobs: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default job count (the CLI's ``--jobs``)."""
    global _default_jobs
    _default_jobs = jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a job count: argument, CLI default, ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        jobs = _default_jobs
    if jobs is None:
        env = (envvars.raw("REPRO_JOBS") or "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"bad REPRO_JOBS value {env!r}") from None
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Hard-kill a pool's worker processes.

    Used on interrupt/shutdown paths only: ``shutdown(cancel_futures=
    True)`` drops *pending* futures but still lets every in-flight point
    run to completion (and the executor's atexit hook joins the workers),
    which can stall exit for minutes.  Mid-simulation results are never
    checkpointed, so killing the workers loses nothing durable.
    """
    processes = getattr(pool, "_processes", None)
    for proc in list((processes or {}).values()):
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass


@contextlib.contextmanager
def interrupt_on_sigterm():
    """Convert SIGTERM into :class:`KeyboardInterrupt` while active.

    A campaign killed by a supervisor (``kill``, CI job cancellation,
    container stop) then takes the same graceful path as Ctrl-C: pending
    futures are cancelled, completed points stay checkpointed, and the
    CLI exits nonzero.  A no-op off the main thread or where SIGTERM is
    unavailable; the previous handler is restored on exit.
    """
    if not hasattr(signal, "SIGTERM") or \
            threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def lookup_point(spec: PointSpec
                 ) -> Tuple[Optional[str], Optional[SimResult]]:
    """Look one point up in the persistent store: ``(digest, result)``,
    with ``result`` ``None`` on a miss and both ``None`` when the store
    is off.  A miss's digest is what :func:`simulate_miss` stores the
    result under, so the point is looked up (and counted) only once."""
    store = get_store()
    if store is None:
        return None, None
    digest = point_digest(*spec)
    return digest, store.get(digest)


def simulate_miss(spec: PointSpec, digest: Optional[str]) -> SimResult:
    """Simulate a point already known to miss the store and persist the
    result under its digest (``None``: store off, nothing persisted)."""
    config, benchmarks, length, seed, stop = spec
    result = Pipeline(config, traces_for(benchmarks, length, seed)
                      ).run(stop=stop)
    store = get_store()
    if store is not None and digest is not None:
        # the point tuple rides along so the store can write the meta
        # sidecar and the warehouse row with full config columns.
        store.put(digest, result, point=spec)
    return result


def simulate_point(config: CoreConfig, benchmarks: Tuple[str, ...],
                   length: int, seed: int, stop: str) -> SimResult:
    """Run one simulation point through the persistent store.

    Checks the content-addressed disk store first, simulates on miss, and
    persists the result so any other process sharing the store dir hits.
    """
    spec = (config, benchmarks, length, seed, stop)
    digest, cached = lookup_point(spec)
    if cached is not None:
        return cached
    return simulate_miss(spec, digest)


def _run_task(spec: PointSpec, digest: Optional[str]
              ) -> Tuple[SimResult, float]:
    t0 = time.time()
    result = simulate_miss(spec, digest)
    return result, time.time() - t0


def run_points(specs: Iterable[PointSpec], jobs: Optional[int] = None
               ) -> Iterator[Tuple[int, SimResult, float]]:
    """Run every spec, yielding ``(index, result, elapsed_s)`` as each
    completes.

    This process looks every spec up in the persistent store first,
    once: hits are yielded straight away (elapsed = the read time) and
    only the misses are dispatched, so every point is read and counted
    in this process's :func:`~repro.harness.runner.cache_stats` exactly
    once.  Each miss is one task.  With more than one miss and
    ``jobs > 1`` the tasks run across a spawn-context process pool of at
    most one worker per task and arrive in completion order; otherwise
    they run serially in this process, so a fully warm grid spawns
    nothing.
    Either way every point is yielded exactly once, so callers can
    checkpoint incrementally; yields may leave spec order even at
    ``jobs = 1``.
    """
    specs = list(specs)
    misses: List[int] = []
    digests: Dict[int, Optional[str]] = {}
    for i, spec in enumerate(specs):
        t0 = time.time()
        digest, cached = lookup_point(spec)
        if cached is not None:
            yield i, cached, time.time() - t0
        else:
            misses.append(i)
            digests[i] = digest
    jobs = min(resolve_jobs(jobs), len(misses))
    with interrupt_on_sigterm():
        if jobs <= 1:
            for i in misses:
                result, elapsed = _run_task(specs[i], digests[i])
                yield i, result, elapsed
            return
        # spawn, not fork: workers re-import the package, so they are
        # safe regardless of parent threads and identical across
        # platforms.
        ctx = multiprocessing.get_context("spawn")
        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx)
        try:
            futures = {pool.submit(_run_task, specs[i], digests[i]): i
                       for i in misses}
            for future in as_completed(futures):
                result, elapsed = future.result()
                yield futures[future], result, elapsed
        except BaseException:
            # KeyboardInterrupt / SIGTERM / a consumer abandoning the
            # generator: kill in-flight workers (before shutdown() —
            # which nulls the process table), drop everything not yet
            # running, and return without draining the whole grid.
            # Already-yielded (checkpointed) points are preserved.
            terminate_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)


def map_points(specs: Sequence[PointSpec], jobs: Optional[int] = None
               ) -> list:
    """Like :func:`run_points` but returns results in *spec* order."""
    out: list = [None] * len(specs)
    for i, result, _ in run_points(specs, jobs=jobs):
        out[i] = result
    return out
