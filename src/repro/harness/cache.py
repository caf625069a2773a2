"""Persistent, content-addressed store for simulation results.

A :class:`ResultStore` maps a stable digest of one simulation point —
(configuration, benchmarks, length, seed, stop-mode) plus a
simulator-version salt — to a pickled :class:`~repro.core.stats.SimResult`
on disk.  Every process (serial runs, campaign workers, fresh
interpreters) shares the same store, so a full-scale reproduction only
ever simulates each point once per simulator version.

The store location is controlled by ``$REPRO_CACHE_DIR``:

* unset     — ``$XDG_CACHE_HOME/repro-sim`` (default ``~/.cache/repro-sim``);
* a path    — that directory;
* ``off`` / ``0`` / ``none`` / empty — persistent caching disabled.

The version salt hashes the simulator's own source (core, memory,
frontend, rename, trace, isa packages), so editing the timing model
invalidates stale entries without any manual bookkeeping.  Loading is
corruption-tolerant: an unreadable entry is deleted and counted, never
raised.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import envvars
from repro.core.config import CoreConfig
from repro.core.stats import SimResult

#: bump when the on-disk record layout changes incompatibly.
SCHEMA_VERSION = 2

#: everything a truncated or version-skewed pickle can raise on load:
#: I/O errors, short reads, bad opcodes/containers, and stale references
#: to renamed classes/modules.  Anything outside this set is a real bug
#: and must propagate.
CORRUPTION_ERRORS = (OSError, EOFError, ValueError, TypeError, KeyError,
                     IndexError, AttributeError, ImportError,
                     pickle.UnpicklingError, MemoryError)

#: packages whose source defines simulated behaviour (salt inputs).
_SALT_PACKAGES = ("core", "memory", "frontend", "rename", "trace", "isa")

_salt: Optional[str] = None


def simulator_salt() -> str:
    """Digest of the simulator's source files (computed once per process).

    Any change to the packages that define timing behaviour produces new
    digests, so stale results from an older simulator are never served.
    """
    global _salt
    if _salt is None:
        import repro
        root = Path(repro.__file__).parent
        h = hashlib.sha256()
        for pkg in _SALT_PACKAGES:
            for f in sorted((root / pkg).glob("*.py")):
                h.update(f.name.encode())
                h.update(f.read_bytes())
        _salt = h.hexdigest()[:16]
    return _salt


#: :class:`CoreConfig` fields that select an execution *mode* rather
#: than simulated behaviour — results are bit-identical whichever way
#: they are set, so they must never differentiate digests.  ``repro
#: check``'s DIG501 rule enforces that digest-scope code only reaches
#: config values through :func:`digest_config_dict`, which strips these.
MODE_FLAG_FIELDS: Tuple[str, ...] = ("sanitize",)


def digest_config_dict(config: CoreConfig) -> Dict[str, object]:
    """The digest view of a configuration: every field value,
    recursively, minus the :data:`MODE_FLAG_FIELDS`.

    This is the one sanctioned ``asdict`` call site in digest scope —
    a bare ``asdict(config)`` in a digest function would leak mode
    flags into the content address (and DIG501 flags it).
    """
    values = asdict(config)
    for field in MODE_FLAG_FIELDS:
        values.pop(field, None)
    return values


def point_digest(config: CoreConfig, benchmarks: Tuple[str, ...],
                 length: int, seed: int, stop: str) -> str:
    """Stable content digest of one simulation point.

    Built from the *values* of every behaviour-defining configuration
    field (recursively, including the cache hierarchy), so two
    structurally-equal configs digest identically across processes and
    interpreter runs.  Mode flags are excluded: a sanitized run must be
    a store hit for an unsanitized one and vice versa.
    """
    payload = json.dumps({
        "schema": SCHEMA_VERSION,
        "salt": simulator_salt(),
        "config": digest_config_dict(config),
        "benchmarks": list(benchmarks),
        "length": length,
        "seed": seed,
        "stop": stop,
    }, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


class GCResult(NamedTuple):
    """Outcome of one :meth:`ResultStore.gc` sweep.

    The evicted digest list is what keeps the warehouse index exact:
    :meth:`~repro.warehouse.index.Warehouse.delete` drops precisely
    these rows instead of forcing a full rebuild.
    """

    removed: int
    freed_bytes: int
    digests: List[str]


class ResultStore:
    """Content-addressed on-disk result store with hit/miss accounting.

    Beyond the blobs, the store maintains two pieces of derived state:

    * a ``<digest>.meta.json`` *point sidecar* per entry (written when
      the caller supplies the point, as :func:`simulate_point
      <repro.harness.executor.simulate_point>` does) recording the
      digest's pre-image — config fields via
      :func:`digest_config_dict`, benchmarks, length, seed, stop — so
      the warehouse can index config columns from a cold store;
    * the warehouse index itself (:mod:`repro.warehouse`), fed by an
      ingest hook on :meth:`put` and invalidated by :meth:`gc` /
      :meth:`clear`.  Index failures never propagate into simulation:
      they are counted in ``index_errors`` and the blob write stands.
    """

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.errors = 0    #: corrupt entries discarded on load
        self.evictions = 0  #: entries removed by :meth:`clear`
        self.index_errors = 0  #: warehouse ingest/invalidation failures
        self._warehouse = None
        self._warehouse_resolved = False

    def _path(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}.pkl"

    def _meta_path(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}.meta.json"

    def get(self, digest: str) -> Optional[SimResult]:
        """Load a result, or ``None`` on miss.  Corrupt entries are
        deleted and counted as misses."""
        path = self._path(digest)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except CORRUPTION_ERRORS:
            # Truncated write, version skew, bad pickle: drop the entry.
            # Occurrences are counted (``disk_errors`` in cache_stats()).
            self.errors += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if not isinstance(result, SimResult):
            self.errors += 1
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, digest: str, result: SimResult,
            point: Optional[Tuple] = None) -> None:
        """Atomically persist a result (concurrent writers are safe: the
        temp-file + rename sequence never exposes a partial entry).

        With *point* — the ``(config, benchmarks, length, seed, stop)``
        tuple the digest was computed from — a point sidecar is written
        next to the blob and the warehouse index row carries the full
        config columns; without it only blob-derivable columns are
        indexed.  Neither sidecar nor index touches the blob bytes or
        the digest.
        """
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        meta = None
        if point is not None:
            config, benchmarks, length, seed, stop = point
            meta = {"config": digest_config_dict(config),
                    "benchmarks": list(benchmarks),
                    "length": length, "seed": seed, "stop": stop}
            self._write_meta(digest, meta)
        self._ingest(digest, result, meta)

    def _write_meta(self, digest: str, meta: Dict[str, object]) -> None:
        """Atomically write the point sidecar (same discipline as the
        blob: never expose a partial file to a concurrent reader)."""
        path = self._meta_path(digest)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(meta, fh, sort_keys=True, default=str)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def meta(self, digest: str) -> Optional[Dict[str, object]]:
        """The point sidecar for *digest*, or ``None`` (pre-sidecar
        entry, or an unreadable sidecar — both tolerated)."""
        try:
            with self._meta_path(digest).open() as fh:
                meta = json.load(fh)
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) else None

    # -- warehouse index hooks ----------------------------------------------

    def warehouse(self):
        """This store's warehouse index handle (lazy; ``None`` when the
        warehouse is disabled or its database cannot be opened)."""
        if not self._warehouse_resolved:
            from repro import warehouse as _warehouse
            self._warehouse_resolved = True
            db = _warehouse.db_path_for(self.directory)
            if db is not None:
                try:
                    self._warehouse = _warehouse.Warehouse(db)
                except _warehouse.WAREHOUSE_ERRORS:
                    self.index_errors += 1
                    self._warehouse = None
        return self._warehouse

    def _ingest(self, digest: str, result: SimResult,
                meta: Optional[Dict[str, object]]) -> None:
        from repro import warehouse as _warehouse
        if not _warehouse.ingest_enabled():
            return
        wh = self.warehouse()
        if wh is None:
            return
        try:
            wh.ingest(digest, result, meta)
        except _warehouse.WAREHOUSE_ERRORS:
            # analytics must never break a simulation: count and move
            # on — `repro warehouse rebuild` restores the lost row.
            self.index_errors += 1

    def _invalidate(self, digests: List[str]) -> None:
        from repro import warehouse as _warehouse
        wh = self.warehouse()
        if wh is None:
            return
        try:
            wh.delete(digests)
        except _warehouse.WAREHOUSE_ERRORS:
            self.index_errors += 1

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every stored entry (and its sidecar); returns how many
        were removed.  The warehouse index is cleared with them."""
        removed = 0
        if self.directory.is_dir():
            for f in self.directory.glob("*/*.pkl"):
                try:
                    f.unlink()
                    removed += 1
                except OSError:
                    pass
            for f in self.directory.glob("*/*.meta.json"):
                try:
                    f.unlink()
                except OSError:
                    pass
        self.evictions += removed
        wh = self.warehouse()
        if wh is not None:
            from repro import warehouse as _warehouse
            try:
                wh.clear()
            except _warehouse.WAREHOUSE_ERRORS:
                self.index_errors += 1
        return removed

    def entries(self) -> List[Tuple[Path, int, float]]:
        """Every stored entry as ``(path, size_bytes, mtime)``, sorted by
        path for determinism.  Entries that vanish mid-scan (a concurrent
        ``gc`` or ``clear``) are skipped."""
        out: List[Tuple[Path, int, float]] = []
        if not self.directory.is_dir():
            return out
        for f in sorted(self.directory.glob("*/*.pkl")):
            try:
                st = f.stat()
            except OSError:
                continue
            out.append((f, st.st_size, st.st_mtime))
        return out

    def disk_stats(self) -> Dict[str, object]:
        """On-disk footprint of the blobs *and* the warehouse index:
        ``entries``/``bytes`` for the blobs, ``index_present``/
        ``index_rows``/``index_bytes`` for the sqlite index."""
        entries = self.entries()
        stats: Dict[str, object] = {
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "index_present": False,
            "index_rows": 0,
            "index_bytes": 0,
        }
        wh = self.warehouse()
        if wh is not None and wh.path.exists():
            from repro import warehouse as _warehouse
            try:
                stats["index_rows"] = wh.row_count()
                stats["index_bytes"] = wh.size_bytes()
                stats["index_present"] = True
            except _warehouse.WAREHOUSE_ERRORS:
                self.index_errors += 1
        return stats

    def gc(self, max_bytes: int) -> GCResult:
        """Evict least-recently-written entries until the store holds at
        most *max_bytes*.

        Returns a :class:`GCResult` — eviction count, freed bytes, and
        the exact digests removed (their warehouse rows are deleted in
        the same sweep, and sidecars go with their blobs).  Eviction
        order is oldest mtime first (ties broken by path), so hot
        recent results survive.
        """
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        removed = freed = 0
        digests: List[str] = []
        for path, size, _ in sorted(entries, key=lambda e: (e[2], str(e[0]))):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            try:
                self._meta_path(path.stem).unlink()
            except OSError:
                pass
            digests.append(path.stem)
            total -= size
            freed += size
            removed += 1
        self.evictions += removed
        if digests:
            self._invalidate(digests)
        return GCResult(removed, freed, digests)

    @property
    def stats(self) -> Dict[str, int]:
        return {"disk_hits": self.hits, "disk_misses": self.misses,
                "disk_errors": self.errors,
                "disk_evictions": self.evictions,
                "index_errors": self.index_errors}


# -- process-wide store handle ----------------------------------------------

_store: Optional[ResultStore] = None
_store_resolved = False


def store_dir() -> Optional[Path]:
    """Resolve the store directory from the environment (None = disabled)."""
    env = envvars.raw("REPRO_CACHE_DIR")
    if env is not None:
        if env.strip().lower() in envvars.OFF_VALUES:
            return None
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-sim"


def fleet_dir() -> Optional[Path]:
    """The fleet store root from ``$REPRO_FLEET_DIR`` (None = no fleet)."""
    env = envvars.raw("REPRO_FLEET_DIR")
    if env is None or env.strip().lower() in envvars.OFF_VALUES:
        return None
    return Path(env).expanduser()


def get_store() -> Optional[ResultStore]:
    """The process-wide store handle, or ``None`` when caching is off.

    When ``$REPRO_FLEET_DIR`` is set the handle is a
    :class:`repro.fleet.ShardedStore` (the digest-prefix-sharded fleet
    store, a drop-in for :class:`ResultStore`); otherwise the flat
    single-directory store.  Both selections are deployment knobs and
    never influence digests."""
    global _store, _store_resolved
    if not _store_resolved:
        fleet_root = fleet_dir()
        if fleet_root is not None:
            # imported only here: repro.fleet sits above the harness
            # layer and pulls in the service, which a local run never
            # needs.
            from repro.fleet.shards import ShardedStore
            _store = ShardedStore(fleet_root)
        else:
            directory = store_dir()
            _store = ResultStore(directory) if directory is not None \
                else None
        _store_resolved = True
    return _store


def reset_store() -> None:
    """Drop the process-wide handle so the next access re-reads the
    environment (tests repoint ``$REPRO_CACHE_DIR`` between runs)."""
    global _store, _store_resolved
    _store = None
    _store_resolved = False
