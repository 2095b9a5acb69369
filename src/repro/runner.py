"""Fault-tolerant parallel sweep engine with a content-addressed result cache.

Every figure in the paper's evaluation is a *sweep*: a set of
independent experiment cells (mix x design x config) whose results are
aggregated into one table. This module turns those cells into first-
class objects so they can be

* fanned out over a ``multiprocessing`` pool (worker count from
  ``jobs=``, the ``REPRO_JOBS`` environment variable, or
  ``os.cpu_count()``), and
* memoised in an on-disk, content-addressed cache: the key is the
  SHA-256 of the cell's canonicalised inputs plus a fingerprint of the
  package's source code, so re-running a figure only recomputes cells
  whose inputs (or the model itself) changed.

Determinism contract: a cell's value depends only on its inputs, never
on scheduling. ``SweepRunner.map`` therefore returns results in
submission order, and parallel, serial (``jobs=1``), and cache-warm
reruns are bit-identical (``tests/test_runner_equivalence.py`` enforces
this). Fault recovery preserves the contract: a retried cell recomputes
the same value, so runs that suffered crashes, timeouts, or corrupt
cache entries converge to the same results as clean runs
(``tests/test_fault_tolerant_runner.py``).

Failure handling (see :mod:`repro.errors` for the taxonomy):

* worker crashes — the pool is respawned and in-flight cells are
  re-dispatched; after ``RetryPolicy.max_pool_respawns`` unhealthy
  pools the runner degrades to serial in-process execution;
* per-cell timeouts — cells exceeding ``RetryPolicy.timeout_seconds``
  (or ``REPRO_CELL_TIMEOUT``) are retried with exponential backoff and
  raise :class:`~repro.errors.CellTimeout` when retries are exhausted;
* handler exceptions — bounded retries, then
  :class:`~repro.errors.CellFailed` carrying the worker traceback;
* cache corruption — every entry is wrapped in a checksum envelope;
  entries failing verification are quarantined (renamed
  ``*.pkl.corrupt``) and recomputed instead of crashing the sweep;
* checkpoint/resume — with a :class:`SweepCheckpoint` (or
  ``REPRO_CHECKPOINT``), completed cell keys are journaled so a killed
  sweep resumes from where it stopped, recomputing only unfinished
  cells.

Cache layout: ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-sweeps``),
one pickle per cell at ``<key[:2]>/<key>.pkl``. The cache is safe to
delete wholesale at any time (``repro bench --cold`` does exactly
that); entries are also invalidated implicitly whenever the package
source changes, because the code fingerprint is part of every key.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import multiprocessing
import os
import pathlib
import pickle
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from . import obs
from .config import Settings
from .errors import (
    CellCrashed,
    CellFailed,
    CellTimeout,
    ConfigError,
    SweepAborted,
)
from .faults import FaultPlan

__all__ = [
    "Cell",
    "CellStats",
    "ResultCache",
    "RetryPolicy",
    "SweepCheckpoint",
    "SweepRunner",
    "cell_key",
    "code_fingerprint",
    "default_cache_dir",
    "register_cell_kind",
    "resolve_jobs",
]

logger = logging.getLogger("repro.runner")


# --------------------------------------------------------------------------
# Worker-count resolution
# --------------------------------------------------------------------------


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``.

    Garbage values (non-integer, zero, negative) raise
    :class:`~repro.errors.ConfigError` with a message naming the source.
    The environment is read through :class:`repro.config.Settings`, the
    package's single ``REPRO_*`` parser.
    """
    if jobs is None:
        jobs = Settings.from_env().jobs
    if jobs is None:
        jobs = os.cpu_count() or 1
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigError(
            f"jobs must be an integer, got {type(jobs).__name__}"
        )
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


# --------------------------------------------------------------------------
# Cells and content-addressed keys
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One unit of sweep work: a registered ``kind`` plus its inputs.

    ``params`` must be JSON-canonicalisable (numbers, strings, bools,
    None, and nested lists/dicts thereof) — it *is* the cache identity,
    so anything that affects the result must be in it.
    """

    kind: str
    params: Mapping[str, Any]

    def canonical(self) -> str:
        """Canonical JSON encoding of the cell (stable across runs)."""
        return json.dumps(
            {"kind": self.kind, "params": _canonicalize(self.params)},
            sort_keys=True,
            separators=(",", ":"),
        )


def _canonicalize(value: Any) -> Any:
    """Reduce a value to a canonical JSON-encodable form."""
    if isinstance(value, Mapping):
        return {str(k): _canonicalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v) for v in value]
    if isinstance(value, float):
        # repr round-trips float64 exactly; json would too, but be
        # explicit so the key never depends on json float formatting.
        return float(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(
        f"cell param of type {type(value).__name__} is not canonical; "
        "pass plain numbers/strings/lists/dicts"
    )


_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """SHA-256 over the package's source files (cached per process).

    Including this in every cache key means a code change invalidates
    the whole cache — stale results can never leak across versions.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = pathlib.Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def cell_key(cell: Cell) -> str:
    """Content address of a cell: SHA-256(inputs + code version)."""
    digest = hashlib.sha256()
    digest.update(cell.canonical().encode())
    digest.update(code_fingerprint().encode())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# On-disk result cache
# --------------------------------------------------------------------------


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``."""
    env = Settings.from_env().cache_dir
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-sweeps"


#: Envelope header of every cache entry: magic + SHA-256 of the payload.
_CACHE_MAGIC = b"RPRC1\n"
_DIGEST_BYTES = hashlib.sha256().digest_size


class ResultCache:
    """Pickle-per-cell cache addressed by :func:`cell_key`.

    Writes are atomic (tempfile + ``os.replace`` on the same
    filesystem), so concurrent workers racing on the same cell at worst
    duplicate work — they never corrupt an entry or observe a partial
    one. Every entry carries a checksum envelope (magic + SHA-256 of
    the pickle bytes); an entry that fails verification — truncated
    write survived a crash, bit rot, a stray editor — is *quarantined*
    (renamed ``<key>.pkl.corrupt``) and reported as a miss, so the cell
    recomputes instead of the sweep crashing on ``pickle.load``.
    """

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = pathlib.Path(
            directory if directory is not None else default_cache_dir()
        )
        #: Corrupt entries detected (and quarantined) by this instance.
        self.corrupt_detected = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored ``{"value", "duration"}`` payload, or None.

        Corrupt entries are quarantined and treated as misses.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        header = len(_CACHE_MAGIC) + _DIGEST_BYTES
        payload = blob[header:]
        if (
            len(blob) < header
            or not blob.startswith(_CACHE_MAGIC)
            or hashlib.sha256(payload).digest()
            != blob[len(_CACHE_MAGIC) : header]
        ):
            self._quarantine(path, "checksum mismatch")
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            # A checksummed-but-unloadable entry means the *writer* put
            # garbage (e.g. an unpicklable class vanished); same remedy.
            self._quarantine(path, "unpickle failed")
            return None

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        """Move a corrupt entry aside so it is never read again."""
        self.corrupt_detected += 1
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = None
        obs.emit(
            "cache_corrupt",
            logger=logger,
            path=str(path),
            quarantined=str(quarantined) if quarantined else None,
            reason=reason,
        )

    def put(self, key: str, value: Any, duration: float) -> None:
        """Store a cell result atomically, inside a checksum envelope."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(
            {"value": value, "duration": float(duration)},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = _CACHE_MAGIC + hashlib.sha256(payload).digest() + payload
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        path = self._path(key)
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        if not self.directory.is_dir():
            return 0
        for path in self.directory.rglob("*.pkl"):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def size(self) -> int:
        """Number of entries currently stored."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.rglob("*.pkl"))

    def quarantined(self) -> List[pathlib.Path]:
        """Quarantined (corrupt) entries currently on disk."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.rglob("*.pkl.corrupt"))


# --------------------------------------------------------------------------
# Sweep checkpoints (crash-safe resume manifests)
# --------------------------------------------------------------------------


class SweepCheckpoint:
    """Append-only journal of completed cell keys.

    One JSON line per completed cell. Appends are flushed and fsynced so
    a SIGKILL loses at most the in-flight line; :meth:`load` tolerates a
    truncated final line (and any other garbage) by skipping it. The
    checkpoint is a *manifest*, not a value store — values come from the
    result cache, so a key listed here whose cache entry is missing or
    corrupt is simply recomputed.
    """

    def __init__(self, path: os.PathLike):
        self.path = pathlib.Path(path)

    def load(self) -> Set[str]:
        """Keys of cells recorded as completed (garbage lines skipped)."""
        keys: Set[str] = set()
        try:
            text = self.path.read_text()
        except OSError:
            return keys
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key = record["key"]
            except (ValueError, TypeError, KeyError):
                continue  # truncated/corrupt line: ignore, recompute
            if isinstance(key, str):
                keys.add(key)
        return keys

    def record(self, key: str) -> None:
        """Durably append one completed cell key."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"key": key}) + "\n"
        with open(self.path, "a") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def clear(self) -> None:
        """Forget all recorded progress."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


# --------------------------------------------------------------------------
# Cell-kind registry (handlers run inside workers, so module level)
# --------------------------------------------------------------------------


_CELL_KINDS: Dict[str, Callable[..., Any]] = {}


def register_cell_kind(
    kind: str,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a handler ``fn(**params) -> value`` for a cell kind."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        if kind in _CELL_KINDS and _CELL_KINDS[kind] is not fn:
            raise ValueError(f"cell kind {kind!r} already registered")
        _CELL_KINDS[kind] = fn
        return fn

    return decorate


def _handler_for(kind: str) -> Callable[..., Any]:
    if kind not in _CELL_KINDS:
        # Built-in handlers live in the experiment, attack, shard,
        # chaos, and validation modules; importing registers them all.
        from . import chaos  # noqa: F401
        from . import experiments  # noqa: F401
        from .model import validation  # noqa: F401
        from .sim import attack, shard  # noqa: F401
    try:
        return _CELL_KINDS[kind]
    except KeyError:
        raise KeyError(
            f"unknown cell kind {kind!r}; registered: "
            f"{sorted(_CELL_KINDS)}"
        ) from None


def compute_cell(cell: Cell) -> Any:
    """Run a cell's handler inline (no cache, no pool)."""
    return _handler_for(cell.kind)(**dict(cell.params))


#: Cache of the cell currently being evaluated (set by the worker), so
#: nested ``get_or_compute`` calls land in the same cache the runner
#: was configured with rather than the environment default.
_CURRENT_CACHE: Optional[ResultCache] = None


def get_or_compute(
    cell: Cell, cache: Optional[ResultCache] = None
) -> Any:
    """Cache-through evaluation of one cell (usable inside workers).

    Handlers that depend on other cells (e.g. a design run needing its
    Static baseline) call this so shared work is computed once and
    reused through the cache regardless of scheduling.
    """
    if cache is None:
        cache = _CURRENT_CACHE
    if cache is None:
        cache = ResultCache()
    key = cell_key(cell)
    hit = cache.get(key)
    if hit is not None:
        return hit["value"]
    start = time.process_time()
    value = compute_cell(cell)
    cache.put(key, value, time.process_time() - start)
    return value


# --------------------------------------------------------------------------
# Fault-aware cell evaluation (shared by workers and the serial path)
# --------------------------------------------------------------------------


class _SimulatedCrash(Exception):
    """Injected stand-in for a worker dying mid-cell."""


class _InjectedCellError(Exception):
    """Injected stand-in for a cell handler raising."""


def _corrupt_entry(cache: ResultCache, key: str) -> None:
    """Flip payload bytes of a cache entry (fault-injection only)."""
    path = cache._path(key)
    try:
        blob = bytearray(path.read_bytes())
    except OSError:
        return
    if len(blob) > len(_CACHE_MAGIC) + _DIGEST_BYTES:
        blob[-1] ^= 0xFF
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))


def _evaluate(
    cell: Cell,
    key: str,
    cache: ResultCache,
    plan: Optional[FaultPlan],
    attempt: int,
    in_worker: bool,
) -> Tuple[Any, bool, float, int]:
    """Evaluate one cell through the cache, injecting planned faults.

    Returns ``(value, was_cached, duration, corrupt_quarantined)``.
    Fault decisions hash ``(site, key, attempt)`` so they replay
    identically under any scheduling — see :mod:`repro.faults`.
    """
    global _CURRENT_CACHE
    if plan is not None and in_worker:
        if plan.fires("hard_crash", key, attempt):
            os._exit(13)  # a real abrupt death: no cleanup, no result
        if plan.fires("cell_stall", key, attempt):
            time.sleep(plan.stall_seconds)
    if plan is not None and plan.fires("worker_crash", key, attempt):
        raise _SimulatedCrash(f"injected crash for cell {key[:12]}")
    corrupt_before = cache.corrupt_detected
    hit = cache.get(key)
    if hit is not None:
        return (
            hit["value"],
            True,
            hit["duration"],
            cache.corrupt_detected - corrupt_before,
        )
    if plan is not None and plan.fires("cell_error", key, attempt):
        raise _InjectedCellError(f"injected error for cell {key[:12]}")
    previous = _CURRENT_CACHE
    _CURRENT_CACHE = cache
    try:
        # CPU time, not wall time: wall time inside a contended worker
        # counts the other workers' time slices, which would inflate
        # the serial estimate CellStats reports.
        start = time.process_time()
        value = compute_cell(cell)
        duration = time.process_time() - start
    finally:
        _CURRENT_CACHE = previous
    cache.put(key, value, duration)
    if plan is not None and plan.fires("cache_corrupt", key, attempt):
        # Corrupt the entry *after* the value is in hand: this run's
        # results stay correct, and the next read exercises quarantine.
        _corrupt_entry(cache, key)
    return value, False, duration, cache.corrupt_detected - corrupt_before


def _worker(
    task: Tuple[int, Cell, str, int, Optional[Dict[str, Any]], bool]
) -> Tuple[int, int, Tuple[Any, ...]]:
    """Evaluate one cell in a worker process.

    Returns ``(index, attempt, payload)`` where payload is one of
    ``("ok", value, was_cached, duration, quarantined, events)``,
    ``("crash", message)``, or ``("error", traceback_text)`` — failures
    travel as markers, never as raises, so the parent can apply its
    retry policy deterministically.

    ``events`` ships the worker's observability records (spans inside
    the cell — placer stages, model epochs — plus emitted events) back
    to the parent for one merged trace; it is ``None`` when the parent
    had collection disabled at dispatch time.
    """
    index, cell, cache_dir, attempt, plan_params, obs_enabled = task
    if obs_enabled:
        # Fork copied the parent's collected records into this process;
        # start clean so only this cell's records ship back.
        obs.begin_worker_capture()
    plan = FaultPlan.from_params(plan_params)
    cache = ResultCache(cache_dir)
    key = cell_key(cell)
    try:
        with obs.span(
            "sweep.cell", kind=cell.kind, attempt=attempt, index=index
        ):
            value, was_cached, duration, quarantined = _evaluate(
                cell, key, cache, plan, attempt, in_worker=True
            )
    except _SimulatedCrash as exc:
        return index, attempt, ("crash", str(exc))
    except Exception:
        return index, attempt, ("error", traceback.format_exc())
    events = obs.take_events() if obs_enabled else None
    return index, attempt, (
        "ok", value, was_cached, duration, quarantined, events
    )


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner reacts to failing cells and unhealthy pools."""

    #: Additional attempts after the first (0 = fail fast).
    retries: int = 2
    #: Base of the exponential backoff between attempts (seconds).
    backoff_seconds: float = 0.05
    #: Per-cell wall-clock budget; ``None`` = unbounded. Required for
    #: recovery from *hard* worker deaths (the task simply vanishes).
    timeout_seconds: Optional[float] = None
    #: Pool respawns tolerated before degrading to serial execution.
    max_pool_respawns: int = 2
    #: Parent poll tick while waiting on workers (seconds).
    poll_interval: float = 0.005

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ConfigError("backoff_seconds must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigError("timeout_seconds must be positive")
        if self.max_pool_respawns < 0:
            raise ConfigError("max_pool_respawns must be >= 0")
        if self.poll_interval <= 0:
            raise ConfigError("poll_interval must be positive")

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Default policy, honouring ``REPRO_CELL_TIMEOUT``.

        Parsed through :class:`repro.config.Settings` (garbage raises
        :class:`~repro.errors.ConfigError` naming the variable).
        """
        return cls(timeout_seconds=Settings.from_env().cell_timeout)

    def backoff_for(self, attempt: int) -> float:
        """Backoff before dispatching attempt ``attempt`` (1-based)."""
        return self.backoff_seconds * (2.0 ** max(attempt - 1, 0))


@dataclass
class CellStats:
    """What one or more ``map`` calls did (for ``repro bench``)."""

    cells: int = 0
    computed: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    #: Sum of per-cell compute durations — what a serial, cache-less
    #: run would have cost. ``serial_seconds / wall_seconds`` is the
    #: sweep's speedup versus that serial baseline.
    serial_seconds: float = 0.0
    #: Cell attempts beyond the first (crash/timeout/error recovery).
    retries: int = 0
    #: Corrupt cache entries quarantined while serving these cells.
    quarantined: int = 0
    #: Pool respawns forced by crashed or wedged workers.
    pool_respawns: int = 0
    #: Cells completed in degraded serial mode (unhealthy pool).
    degraded_cells: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cells served from the cache."""
        return self.cache_hits / self.cells if self.cells else 0.0

    @property
    def speedup_vs_serial(self) -> float:
        """Serial-estimate time over actual wall time."""
        if self.wall_seconds <= 0:
            return float("inf") if self.serial_seconds > 0 else 1.0
        return self.serial_seconds / self.wall_seconds

    def absorb(self, other: "CellStats") -> None:
        """Accumulate another stats record into this one, in place."""
        self.cells += other.cells
        self.computed += other.computed
        self.cache_hits += other.cache_hits
        self.wall_seconds += other.wall_seconds
        self.serial_seconds += other.serial_seconds
        self.retries += other.retries
        self.quarantined += other.quarantined
        self.pool_respawns += other.pool_respawns
        self.degraded_cells += other.degraded_cells

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (used by ``BENCH_sweeps.json``)."""
        return {
            "cells": self.cells,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "wall_seconds": self.wall_seconds,
            "serial_seconds_estimate": self.serial_seconds,
            "speedup_vs_serial": self.speedup_vs_serial,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "pool_respawns": self.pool_respawns,
            "degraded_cells": self.degraded_cells,
        }


#: When set (see :func:`collecting_stats`), every ``SweepRunner.map``
#: in this process also accumulates into this collector — how
#: ``repro bench`` observes sweeps run deep inside figure modules.
_ACTIVE_COLLECTOR: Optional[CellStats] = None


class _StatsScope:
    """Context manager installing a process-wide stats collector."""

    def __init__(self) -> None:
        self.stats = CellStats()

    def __enter__(self) -> CellStats:
        global _ACTIVE_COLLECTOR
        self._previous = _ACTIVE_COLLECTOR
        _ACTIVE_COLLECTOR = self.stats
        return self.stats

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE_COLLECTOR
        _ACTIVE_COLLECTOR = self._previous


def collecting_stats() -> _StatsScope:
    """Collect stats from every runner used inside the ``with`` block."""
    return _StatsScope()


class _CellState:
    """Book-keeping for one cell across attempts (parallel path)."""

    __slots__ = ("index", "cell", "key", "attempt", "deadline")

    def __init__(self, index: int, cell: Cell, key: str):
        self.index = index
        self.cell = cell
        self.key = key
        self.attempt = 0
        self.deadline: Optional[float] = None


class SweepRunner:
    """Fans cells out over a process pool, through the result cache.

    ``jobs=1`` (or a single cell) runs inline in the parent — the
    serial path and the parallel path execute the exact same per-cell
    code, which is what makes them bit-identical.

    ``policy`` governs retries/timeouts/pool respawns (default:
    :meth:`RetryPolicy.from_env`). ``checkpoint`` (or the
    ``REPRO_CHECKPOINT`` env var) journals completed cells for resume.
    ``fault_plan`` injects deterministic faults — used by the chaos
    tests and ``repro bench --suite faults``; leave ``None`` for
    production runs. ``abort_after`` simulates a mid-sweep kill after
    that many completions (testing hook for checkpoint/resume).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        fault_plan: Optional[FaultPlan] = None,
        abort_after: Optional[int] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.cache = cache if cache is not None else ResultCache()
        self.policy = policy if policy is not None else RetryPolicy.from_env()
        if checkpoint is None:
            env = Settings.from_env().checkpoint
            if env:
                checkpoint = SweepCheckpoint(env)
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        self.abort_after = abort_after
        #: Always ``None``: results travel through the pool pipe. Kept
        #: because external leak checks read it.
        self.last_arena_name: Optional[str] = None
        self.stats = CellStats()
        #: Structured degraded-mode events observed by this runner.
        self.events: List[Dict[str, Any]] = []

    # -- event plumbing ------------------------------------------------------

    def _event(self, event: str, **fields: Any) -> None:
        self.events.append(obs.emit(event, logger=logger, **fields))

    def _completed(self, key: str, completed_so_far: int, total: int) -> None:
        """Journal one completion; honour the simulated-kill hook."""
        if self.checkpoint is not None:
            self.checkpoint.record(key)
        if (
            self.abort_after is not None
            and completed_so_far >= self.abort_after
        ):
            raise SweepAborted(
                f"sweep aborted after {completed_so_far}/{total} cells "
                "(simulated kill)",
                completed=completed_so_far,
                total=total,
            )

    # -- public API ----------------------------------------------------------

    def map(self, cells: Sequence[Cell]) -> List[Any]:
        """Evaluate cells (parallel, cached); results in given order."""
        cells = list(cells)
        if not cells:
            return []
        start = time.perf_counter()
        keys = [cell_key(cell) for cell in cells]
        results: List[Any] = [None] * len(cells)
        batch = CellStats(cells=len(cells))
        pending = list(range(len(cells)))
        completed = 0

        # Resume: cells journaled as complete are served straight from
        # the cache without dispatching. A journaled key whose cache
        # entry is gone (or corrupt) falls through and recomputes.
        if self.checkpoint is not None:
            finished_keys = self.checkpoint.load()
            still_pending = []
            for i in pending:
                hit = None
                if keys[i] in finished_keys:
                    hit = self.cache.get(keys[i])
                if hit is not None:
                    results[i] = hit["value"]
                    batch.cache_hits += 1
                    batch.serial_seconds += hit["duration"]
                    completed += 1
                else:
                    still_pending.append(i)
            pending = still_pending

        try:
            with obs.span(
                "sweep.map", cells=len(cells), jobs=self.jobs
            ):
                if pending:
                    if self.jobs == 1 or len(pending) == 1:
                        self._map_serial(
                            cells, keys, pending, results, batch,
                            completed, degraded=False,
                        )
                    else:
                        self._map_parallel(
                            cells, keys, pending, results, batch,
                            completed,
                        )
        finally:
            batch.wall_seconds = time.perf_counter() - start
            self.stats.absorb(batch)
            if _ACTIVE_COLLECTOR is not None:
                _ACTIVE_COLLECTOR.absorb(batch)
            if obs.is_enabled():
                obs.counter_inc("runner.cells", batch.cells)
                obs.counter_inc("runner.computed", batch.computed)
                obs.counter_inc("runner.cache_hits", batch.cache_hits)
                obs.counter_inc("runner.retries", batch.retries)
                obs.counter_inc("runner.quarantined", batch.quarantined)
                obs.counter_inc(
                    "runner.pool_respawns", batch.pool_respawns
                )
                obs.counter_inc(
                    "runner.degraded_cells", batch.degraded_cells
                )
        return results

    # -- serial path ---------------------------------------------------------

    def _map_serial(
        self,
        cells: List[Cell],
        keys: List[str],
        pending: List[int],
        results: List[Any],
        batch: CellStats,
        completed: int,
        degraded: bool,
    ) -> None:
        """Evaluate ``pending`` inline, with the same retry semantics."""
        total = len(cells)
        for i in pending:
            value, was_cached, duration = self._run_inline(
                cells[i], keys[i], batch
            )
            results[i] = value
            if was_cached:
                batch.cache_hits += 1
            else:
                batch.computed += 1
            if degraded:
                batch.degraded_cells += 1
            batch.serial_seconds += duration
            completed += 1
            self._completed(keys[i], completed, total)

    def _run_inline(
        self, cell: Cell, key: str, batch: CellStats
    ) -> Tuple[Any, bool, float]:
        """One cell, in-process, applying the retry policy."""
        attempt = 0
        while True:
            try:
                with obs.span(
                    "sweep.cell", kind=cell.kind, attempt=attempt
                ):
                    value, was_cached, duration, quarantined = _evaluate(
                        cell, key, self.cache, self.fault_plan, attempt,
                        in_worker=False,
                    )
                batch.quarantined += quarantined
                return value, was_cached, duration
            except _SimulatedCrash as exc:
                failure: Tuple[type, str] = (CellCrashed, str(exc))
            except Exception:
                failure = (CellFailed, traceback.format_exc())
            attempt += 1
            batch.retries += 1
            self._event(
                "cell_retry",
                key=key[:16],
                kind=cell.kind,
                attempt=attempt,
                reason=failure[0].__name__,
            )
            if attempt > self.policy.retries:
                raise failure[0](
                    f"cell {cell.kind!r} failed after {attempt} "
                    f"attempt(s): {failure[1]}",
                    kind=cell.kind,
                    params=dict(cell.params),
                    key=key,
                    attempts=attempt,
                )
            time.sleep(self.policy.backoff_for(attempt))

    # -- parallel path -------------------------------------------------------

    def _spawn_pool(self, ctx, processes: int):
        return ctx.Pool(processes=processes)

    def _map_parallel(
        self,
        cells: List[Cell],
        keys: List[str],
        pending: List[int],
        results: List[Any],
        batch: CellStats,
        completed: int,
    ) -> None:
        policy = self.policy
        total = len(cells)
        plan_params = (
            self.fault_plan.as_params() if self.fault_plan else None
        )
        cache_dir = str(self.cache.directory)
        # fork shares the already-imported modules with workers;
        # fall back to the platform default elsewhere.
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context()
        processes = min(self.jobs, len(pending))
        states = {i: _CellState(i, cells[i], keys[i]) for i in pending}
        queue: deque = deque(pending)
        backoff_heap: List[Tuple[float, int]] = []  # (ready_at, index)
        inflight: Dict[int, Any] = {}  # index -> AsyncResult
        respawns = 0

        def finish(i: int, value: Any, was_cached: bool, duration: float,
                   quarantined: int) -> None:
            nonlocal completed
            results[i] = value
            if was_cached:
                batch.cache_hits += 1
            else:
                batch.computed += 1
            batch.serial_seconds += duration
            batch.quarantined += quarantined
            states.pop(i, None)
            completed += 1
            self._completed(keys[i], completed, total)

        def fail_or_retry(
            i: int, exc_type: type, detail: str, now: float
        ) -> None:
            state = states[i]
            state.attempt += 1
            batch.retries += 1
            self._event(
                "cell_retry",
                key=state.key[:16],
                kind=state.cell.kind,
                attempt=state.attempt,
                reason=exc_type.__name__,
            )
            if state.attempt > policy.retries:
                raise exc_type(
                    f"cell {state.cell.kind!r} failed after "
                    f"{state.attempt} attempt(s): {detail}",
                    kind=state.cell.kind,
                    params=dict(state.cell.params),
                    key=state.key,
                    attempts=state.attempt,
                )
            heapq.heappush(
                backoff_heap,
                (now + policy.backoff_for(state.attempt), i),
            )

        pool = None
        obs_on = obs.is_enabled()
        try:
            pool = self._spawn_pool(ctx, processes)
            while queue or inflight or backoff_heap:
                now = time.monotonic()
                while backoff_heap and backoff_heap[0][0] <= now:
                    queue.append(heapq.heappop(backoff_heap)[1])
                # Dispatch everything runnable.
                while queue:
                    i = queue.popleft()
                    state = states[i]
                    task = (
                        i, state.cell, cache_dir, state.attempt,
                        plan_params, obs_on,
                    )
                    inflight[i] = pool.apply_async(_worker, (task,))
                    state.deadline = (
                        now + policy.timeout_seconds
                        if policy.timeout_seconds is not None
                        else None
                    )
                ready = [
                    i for i, res in inflight.items() if res.ready()
                ]
                if not ready:
                    if not inflight:
                        # Only backed-off retries remain: sleep to them.
                        if backoff_heap:
                            time.sleep(
                                max(backoff_heap[0][0] - now, 0.0)
                                + 1e-4
                            )
                        continue
                    now = time.monotonic()
                    timed_out = [
                        i
                        for i, res in inflight.items()
                        if states[i].deadline is not None
                        and now > states[i].deadline
                    ]
                    if timed_out:
                        # A wedged (or vanished) worker still owns its
                        # pool slot: reclaim everything by respawning
                        # the pool and re-dispatching in-flight cells.
                        respawns += 1
                        batch.pool_respawns += 1
                        self._event(
                            "pool_respawn",
                            respawn=respawns,
                            timed_out=len(timed_out),
                            inflight=len(inflight),
                        )
                        pool.terminate()
                        pool.join()
                        pool = None
                        survivors = [
                            i for i in inflight if i not in timed_out
                        ]
                        inflight.clear()
                        for i in timed_out:
                            fail_or_retry(
                                i,
                                CellTimeout,
                                f"exceeded {policy.timeout_seconds}s",
                                now,
                            )
                        # Innocent in-flight cells lost their worker:
                        # re-dispatch at the same attempt (their fault
                        # decisions replay identically).
                        queue.extend(survivors)
                        if respawns > policy.max_pool_respawns:
                            self._event(
                                "degraded_serial",
                                respawns=respawns,
                                remaining=len(states),
                            )
                            remaining = sorted(states)
                            self._map_serial(
                                cells, keys, remaining, results,
                                batch, completed, degraded=True,
                            )
                            return
                        pool = self._spawn_pool(ctx, processes)
                        continue
                    time.sleep(policy.poll_interval)
                    continue
                for i in ready:
                    res = inflight.pop(i)
                    try:
                        _index, _attempt, payload = res.get()
                    except Exception as exc:  # unpicklable return etc.
                        payload = ("crash", repr(exc))
                    now = time.monotonic()
                    tag = payload[0]
                    if tag == "ok":
                        (_tag, value, was_cached, duration, quar,
                         events) = payload
                        if events:
                            obs.absorb_events(events)
                        finish(i, value, was_cached, duration, quar)
                    elif tag == "crash":
                        fail_or_retry(i, CellCrashed, payload[1], now)
                    else:
                        fail_or_retry(i, CellFailed, payload[1], now)
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
