"""Resilient sweep orchestration: shared pools, containment, checkpoints.

:func:`repro.analysis.sweep.run_sweep` executes a grid strictly serially,
and :func:`repro.analysis.parallel.run_cell_parallel` pays for a fresh
process pool per cell and aborts the whole cell when any single trial
raises.  This module is the production harness on top of both:

* **one persistent pool per sweep** — the :class:`SweepRunner` owns a
  ``multiprocessing`` pool that every cell of a grid shares, so a
  20-cell sweep forks workers once, not twenty times;
* **chunked scheduling, deterministic reassembly** — trials are dealt to
  workers in chunks via ``imap_unordered`` (fast workers are never idle
  behind slow ones) and reassembled into seed order afterwards, so the
  resulting cells are bitwise-identical to a serial :func:`run_sweep` of
  the same grid regardless of pool size (the differential suite proves
  this at the grid level);
* **per-trial error containment** — a trial that raises becomes a
  structured :class:`~repro.analysis.sweep.TrialFailure` on its cell
  (surfaced by ``CellResult.rate`` / ``failure_rate``); it never kills the
  worker, the pool, or the sweep;
* **checkpoint/resume** — with a checkpoint directory attached, every
  finished trial is appended (and flushed) to an on-disk JSONL store keyed
  by ``(trial, params, master_seed, stream, seed)``; an interrupted sweep
  resumes exactly where it stopped and re-running a completed sweep is a
  pure cache hit that never touches the pool;
* **supervision (optional)** — a
  :class:`~repro.analysis.supervise.SupervisionPolicy` adds a
  coordinator-side per-trial timeout watchdog,
  deterministic retry/backoff, pool self-healing after worker kills, and
  poison-trial quarantine on top of all of the above; with no policy the
  dispatch path below runs untouched (bitwise-identical to the original
  runner, by differential test).  A :class:`~repro.faults.chaos.ChaosPlan`
  can be armed inside the workers to prove the supervisor end to end.

Progress is reported through a :class:`~repro.obs.metrics.MetricsRegistry`
(counters ``sweep/trials_executed`` / ``sweep/trials_cached`` /
``sweep/trials_failed`` / ``sweep/cells_completed``) and an optional
per-trial ``progress`` callback.  See docs/api.md ("Measure at scale") and
the EXPERIMENTS.md appendix for the operational story.

Usage::

    from repro.analysis import SweepRunner, grid_product

    with SweepRunner(processes=8, checkpoint_dir="ckpt") as runner:
        sweep = runner.run_grid(
            "general", grid_product(n=[1 << 12], C=[8, 64], active=[41]),
            trials=500, master_seed=4,
        )
"""

from __future__ import annotations

import json
import os
import re
import time
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..faults import chaos as _chaos
from ..obs.metrics import MetricsRegistry
from ..sim import vec as _vec
from ..sim.rng import seed_sequence
from ..sim.serialize import checkpoint_record_from_dict, checkpoint_record_to_dict
from .parallel import (
    _BATCH_TRIAL_REGISTRY,
    _TRIAL_REGISTRY,
    ParallelProfile,
    _assemble_profile,
    _execute_profiled,
    _pool_context,
    _profiled_tasks,
    registered_trials,
    resolve_processes,
)
from .supervise import SupervisionPolicy, TrialSupervisor
from .sweep import CellResult, SweepResult, TrialFailure

#: A task as shipped to workers: (trial name, params, seed, slot index).
_Task = Tuple[str, Dict[str, Any], int, int]

#: A batch task: (trial name, params, seeds tuple, slot index tuple).  The
#: tuple-typed third/fourth members are what distinguish it from a plain
#: :data:`_Task` at dispatch boundaries.
_BatchTask = Tuple[str, Dict[str, Any], Tuple[int, ...], Tuple[int, ...]]

#: A worker reply: (slot index, "ok", metrics) or (slot index, "failed", info).
_Output = Tuple[int, str, Dict[str, Any]]

#: Progress callback: (trials done so far, total trials in this run).
ProgressFn = Callable[[int, int], None]

#: A trial's identity in the checkpoint store (see :func:`checkpoint_key`).
_Key = Tuple[str, str, int, int, int]


def canonical_params(params: Mapping[str, Any]) -> str:
    """The canonical JSON spelling of a cell's parameters.

    Key-order independent (``sort_keys``) and type-faithful the same way
    :meth:`SweepResult.cell` matching is: ``True``, ``1``, and ``1.0`` spell
    differently, so a flag axis can never alias a count axis in the store.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def checkpoint_key(
    trial: str, params: Mapping[str, Any], master_seed: int, stream: int, seed: int
) -> _Key:
    """The identity of one trial in the checkpoint store."""
    return (trial, canonical_params(params), int(master_seed), int(stream), int(seed))


def _attach_fallbacks(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp drained vec-fallback events onto a worker payload.

    The ``__vec_fallbacks__`` key rides the payload back across the process
    boundary and is popped by the coordinator into the
    ``sweep/vec_fallbacks`` metric before the record is checkpointed — the
    checkpoint schema never sees it.
    """
    events = _vec.drain_fallback_events()
    if events:
        payload["__vec_fallbacks__"] = events
    return payload


def _execute_contained(task: _Task) -> _Output:
    """Worker entry point with error containment.

    Never raises for a failing trial: the exception is flattened to plain
    data (type name, message, formatted traceback) so the pool and its
    siblings keep running.  ``KeyboardInterrupt`` still propagates — an
    operator's ctrl-C must stop the sweep, not become a failure record.
    """
    name, params, seed, index = task
    try:
        fn = _TRIAL_REGISTRY[name]
    except KeyError:
        return (
            index,
            "failed",
            {
                "error": "KeyError",
                "message": (
                    f"trial {name!r} not registered in the worker; ensure it is "
                    "registered at import time of its defining module"
                ),
                "traceback": "",
            },
        )
    try:
        return (index, "ok", _attach_fallbacks(dict(fn(seed, **params))))
    except Exception as error:
        return (
            index,
            "failed",
            _attach_fallbacks(
                {
                    "error": type(error).__name__,
                    "message": str(error),
                    "traceback": traceback.format_exc(),
                }
            ),
        )


def _execute_batch_contained(task: _BatchTask) -> List[_Output]:
    """Worker entry point for one batched chunk of a cell's replications.

    The batched companion may decline (``None``) or die; either way every
    seed falls back to :func:`_execute_contained`, which is bitwise
    identical per trial — batching is a dispatch optimization, never a
    semantics change.  A companion returning the wrong number of statuses
    is treated as a decline rather than trusted.
    """
    name, params, seeds, indices = task
    fn = _BATCH_TRIAL_REGISTRY.get(name)
    statuses: Optional[Sequence[Any]] = None
    if fn is not None:
        try:
            statuses = fn(list(seeds), **params)
        except Exception:
            statuses = None
    if statuses is not None and len(statuses) != len(seeds):
        statuses = None
    if statuses is None:
        return [
            _execute_contained((name, params, seed, index))
            for seed, index in zip(seeds, indices)
        ]
    outputs: List[_Output] = [
        (index, status, dict(payload))
        for (status, payload), index in zip(statuses, indices)
    ]
    _attach_fallbacks(outputs[0][2])
    return outputs


def _execute_any(task: Union[_Task, _BatchTask]) -> List[_Output]:
    """Uniform worker entry point: one output list per (batch or plain) task."""
    if isinstance(task[2], tuple):
        return _execute_batch_contained(task)  # type: ignore[arg-type]
    return [_execute_contained(task)]  # type: ignore[arg-type]


def _worker_initializer(chaos_dict: Optional[Dict[str, Any]]) -> None:
    """Pool-worker bootstrap: dedup vec-fallback warnings, arm chaos.

    Dedup scope is the worker's lifetime — one warning per (protocol,
    reason) per worker per sweep instead of one per trial.  Chaos arms
    from plain data so spawn-start workers (re-import, no inherited
    globals) behave exactly like fork workers; the coordinator never arms.
    """
    _vec.enable_fallback_dedup()
    if chaos_dict is not None:
        _chaos.initializer(chaos_dict)


def _parse_line(line: bytes) -> Optional[Tuple[_Key, Dict[str, Any]]]:
    """One store line as ``(identity, validated record)``; ``None`` if invalid."""
    try:
        record = checkpoint_record_from_dict(json.loads(line))
        key = checkpoint_key(
            record["trial"],
            record["params"],
            record["master_seed"],
            record["stream"],
            record["seed"],
        )
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    return key, record


@dataclass
class _FileIndex:
    """What :class:`CheckpointStore` has consumed of one store file.

    Only newline-terminated lines are consumed; ``offset`` is the byte just
    past the last of them, so the next scan resumes there.
    """

    identity: Tuple[int, int]  # (st_dev, st_ino) of the file it describes
    offset: int = 0
    records: Dict[_Key, Dict[str, Any]] = field(default_factory=dict)
    lines: int = 0  # non-blank consumed lines
    skipped: int = 0  # invalid consumed lines
    counted: int = 0  # invalid lines already on the skipped-lines metric


class CheckpointStore:
    """Append-only JSONL store of finished sweep trials.

    One file per ``(trial, master_seed)`` pair inside ``directory`` (so
    unrelated sweeps sharing a directory never contend), one record per
    line in the :mod:`repro.sim.serialize` checkpoint schema.  Records are
    flushed as they are appended, which makes the store kill-safe: a
    process death mid-write leaves at most one torn final line, which
    :meth:`load` skips and :meth:`open_writer` terminates before the next
    append, so it never swallows a later record.  Skips are *visible*:
    every invalid line counts once toward the
    ``sweep/checkpoint/skipped_lines`` metric, and the first damaged load
    of each file emits a single :class:`RuntimeWarning`.  Retried trials append
    superseding records; :meth:`compact` rewrites a file down to the
    surviving record per trial identity.

    The store indexes each file it reads: a later :meth:`load` parses only
    the lines appended since the previous one, so a grid that loads its
    file once per cell parses every line once, not once per cell.  The
    index starts over when the file is replaced or shrinks.
    """

    def __init__(self, directory: str, *, metrics: Optional[MetricsRegistry] = None):
        self.directory = directory
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        os.makedirs(directory, exist_ok=True)
        self._index: Dict[str, _FileIndex] = {}

    def path_for(self, trial: str, master_seed: int) -> str:
        """The JSONL file backing one ``(trial, master_seed)`` sweep."""
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", trial)
        return os.path.join(self.directory, f"{safe}-s{int(master_seed)}.jsonl")

    def _scan(
        self, path: str
    ) -> Tuple[_FileIndex, Mapping[_Key, Dict[str, Any]], int, int]:
        """Bring one file's index up to date and read the whole file off it.

        Returns the index and the file's surviving records by identity, its
        non-blank lines, and its invalid lines.  Later lines supersede
        earlier ones with the same identity (that is how retries and
        ``resume=False`` re-runs append their updates), and unparsable or
        structurally invalid lines are counted, not fatal.  An unterminated
        final line is parsed on every scan but never consumed: it may still
        be half-written.  Raises :class:`FileNotFoundError` for a missing
        file.
        """
        with open(path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            identity = (stat.st_dev, stat.st_ino)
            entry = self._index.get(path)
            if entry is None or entry.identity != identity or stat.st_size < entry.offset:
                entry = self._index[path] = _FileIndex(identity)
            handle.seek(entry.offset)
            tail = b""
            for line in handle:
                if not line.endswith(b"\n"):
                    tail = line
                    break
                entry.offset += len(line)
                if not line.strip():
                    continue
                entry.lines += 1
                parsed = _parse_line(line)
                if parsed is None:
                    entry.skipped += 1
                else:
                    entry.records[parsed[0]] = parsed[1]
        records: Mapping[_Key, Dict[str, Any]] = entry.records
        lines, skipped = entry.lines, entry.skipped
        if tail.strip():
            lines += 1
            parsed = _parse_line(tail)
            if parsed is None:
                skipped += 1
            else:
                records = {**entry.records, parsed[0]: parsed[1]}
        return entry, records, lines, skipped

    def load(self, trial: str, master_seed: int) -> Mapping[_Key, Dict[str, Any]]:
        """All valid records for one sweep, keyed by trial identity.

        Unparsable or structurally invalid lines (a torn tail write from a
        killed process, a foreign format version) are skipped, not fatal —
        the corresponding trials simply re-run.  Each skipped line counts
        once on the ``sweep/checkpoint/skipped_lines`` counter however often
        the file is loaded, and the first damaged load of a file warns, so
        silent corruption cannot masquerade as a short sweep.

        The result is a read-only view of the store's index, valid until
        the next :meth:`load` or :meth:`compact`.
        """
        path = self.path_for(trial, master_seed)
        try:
            entry, records, _, skipped = self._scan(path)
        except FileNotFoundError:
            self._index.pop(path, None)
            return {}
        if skipped > entry.counted:
            if not entry.counted:
                warnings.warn(
                    f"checkpoint store {path}: skipped {skipped} invalid line(s); "
                    "the affected trials will re-run (run compact() to drop them)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self.metrics.counter("sweep/checkpoint/skipped_lines").inc(
                skipped - entry.counted
            )
            entry.counted = skipped
        return MappingProxyType(records)

    def compact(self, trial: str, master_seed: int) -> Dict[str, int]:
        """Rewrite one sweep's file, dropping superseded and invalid lines.

        Keeps exactly the records :meth:`load` would surface (the last
        record per trial identity, in first-seen order) and atomically
        replaces the file, so a kill mid-compaction leaves the original
        intact.  Returns ``{"kept", "dropped_superseded", "dropped_invalid"}``.
        """
        path = self.path_for(trial, master_seed)
        try:
            _, records, lines, skipped = self._scan(path)
        except FileNotFoundError:
            return {"kept": 0, "dropped_superseded": 0, "dropped_invalid": 0}
        temp_path = path + ".compact.tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            for record in records.values():
                self.append(handle, record)
        os.replace(temp_path, path)
        del self._index[path]
        return {
            "kept": len(records),
            "dropped_superseded": lines - skipped - len(records),
            "dropped_invalid": skipped,
        }

    def open_writer(self, trial: str, master_seed: int) -> IO[str]:
        """An append-mode handle for one sweep's file.

        A file left ending mid-line (a torn write) gets a newline first, so
        the next record starts a line of its own instead of joining the
        torn one.
        """
        path = self.path_for(trial, master_seed)
        handle = open(path, "a", encoding="utf-8")
        if handle.tell():
            with open(path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                torn = probe.read(1) != b"\n"
            if torn:
                handle.write("\n")
                handle.flush()
        return handle

    @staticmethod
    def append(handle: IO[str], record: Mapping[str, Any]) -> None:
        """Write one record as a JSON line and flush it to the OS."""
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()


class SweepRunner:
    """Grid scheduler over one persistent process pool.

    Args:
        processes: pool size; must be ``>= 1`` when given.  ``None`` uses
            ``os.cpu_count()``, and an effective count of 1 (explicit,
            single CPU, or unknown CPU count) runs trials in-process with
            no pool at all.
        checkpoint_dir: directory for the JSONL checkpoint store; ``None``
            disables checkpointing.
        resume: when checkpointing, reuse records already in the store
            (the default).  ``False`` ignores — but does not delete — the
            store's prior contents.
        retry_failures: on resume, drop cached *failed* records so those
            trials re-run (completed trials stay cached).
        start_method: multiprocessing start method; ``None`` keeps the
            platform default.
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry` receiving
            the ``sweep/*`` progress counters; one is created when omitted.
        progress: optional callback invoked after every finished trial with
            ``(done, total)`` for the current :meth:`run_grid` /
            :meth:`run_cell` call (cached trials count as done).
        chunk_size: tasks per pool dispatch; ``None`` picks a size that
            keeps every worker busy without serializing the tail.
        supervision: a :class:`~repro.analysis.supervise.SupervisionPolicy`
            adding timeout watchdog / retry / self-healing / quarantine.
            ``None`` (and an inert policy) keeps the original dispatch
            path, bitwise-identical to a runner without supervision.
        chaos: a :class:`~repro.faults.chaos.ChaosPlan` armed inside pool
            workers (test harness; requires an active supervision policy —
            unsupervised chaos would just wedge or abort the sweep).
        vec_batch: dispatch whole chunks of a cell's replications as one
            batched task when the trial has a registered batched companion
            (see :func:`repro.analysis.parallel.register_batch_trial`).
            Results are bitwise identical to per-trial dispatch — the
            companion contract — so checkpoints, resume, retries, and
            supervision interchange freely; ineligible cells (wrong
            backend/draw mode, protocol not lowerable) silently fall back
            to per-trial execution inside the worker.
        vec_batch_size: replications per batched task; ``None`` splits a
            cell's pending trials one batch per worker (capped at 128 to
            bound the R×n buffers).

    Use as a context manager (or call :meth:`close`) so the pool is torn
    down deterministically.
    """

    def __init__(
        self,
        *,
        processes: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = True,
        retry_failures: bool = False,
        start_method: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[ProgressFn] = None,
        chunk_size: Optional[int] = None,
        supervision: Optional[SupervisionPolicy] = None,
        chaos: Optional[_chaos.ChaosPlan] = None,
        vec_batch: bool = False,
        vec_batch_size: Optional[int] = None,
    ):
        self.processes = resolve_processes(processes)
        self.resume = resume
        self.retry_failures = retry_failures
        self.start_method = start_method
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.checkpoint = (
            CheckpointStore(checkpoint_dir, metrics=self.metrics)
            if checkpoint_dir
            else None
        )
        self.progress = progress
        self.chunk_size = chunk_size
        self.supervision = supervision
        self.chaos = chaos
        self.vec_batch = vec_batch
        if vec_batch_size is not None and vec_batch_size < 1:
            raise ValueError(f"vec_batch_size must be >= 1, got {vec_batch_size}")
        self.vec_batch_size = vec_batch_size
        if chaos is not None and chaos.active:
            if supervision is None or not supervision.active:
                raise ValueError(
                    "an active chaos plan requires an active supervision "
                    "policy (set a timeout and/or max_attempts > 1)"
                )
        self._pool: Optional[Any] = None
        self._done = 0
        self._total = 0

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def close(self) -> None:
        """Tear the pool down (idempotent); the runner can be reused after."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _ensure_pool(self) -> Optional[Any]:
        if self.processes == 1:
            return None
        if self._pool is None:
            chaos_dict = (
                self.chaos.to_dict()
                if self.chaos is not None and self.chaos.active
                else None
            )
            self._pool = _pool_context(self.start_method).Pool(
                processes=self.processes,
                initializer=_worker_initializer,
                initargs=(chaos_dict,),
            )
        return self._pool

    def _respawn_pool(self) -> Optional[Any]:
        """Tear down and recreate the pool after a stall (self-healing).

        ``terminate`` is the only way to reap hung or killed workers —
        ``close``/``join`` would block behind the very chunk that stalled.
        The supervisor re-enqueues the unfinished work against the fresh
        pool; ``sweep/pool_restart`` counts the heals.
        """
        self.close()
        self.metrics.counter("sweep/pool_restart").inc()
        return self._ensure_pool()

    # ------------------------------------------------------------- execution

    def _chunk(self, pending: int) -> int:
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        # ~4 chunks per worker balances dispatch overhead against tail skew.
        return max(1, min(32, pending // (self.processes * 4) or 1))

    def _batch_chunk(self, pending: int) -> int:
        if self.vec_batch_size is not None:
            return self.vec_batch_size
        # One batch per worker wave; the cap bounds each batch's (R × n)
        # buffers regardless of how replication-heavy the cell is.
        return max(1, min(128, -(-pending // self.processes)))

    def _maybe_batch(self, tasks: List[_Task]) -> List[Union[_Task, _BatchTask]]:
        """Group a cell's pending trials into batched tasks when eligible.

        Grouping is purely a dispatch decision: the worker-side companion
        still declines ineligible cells (wrong backend, no NumPy, protocol
        not lowerable) and falls back to per-trial execution, so grouping
        eagerly costs nothing but a declined call.  Size-1 groups stay
        plain tasks.
        """
        if not self.vec_batch:
            return list(tasks)
        name = tasks[0][0]
        if name not in _BATCH_TRIAL_REGISTRY:
            return list(tasks)
        size = self._batch_chunk(len(tasks))
        grouped: List[Union[_Task, _BatchTask]] = []
        for start in range(0, len(tasks), size):
            group = tasks[start : start + size]
            if len(group) == 1:
                grouped.append(group[0])
            else:
                grouped.append(
                    (
                        name,
                        group[0][1],
                        tuple(task[2] for task in group),
                        tuple(task[3] for task in group),
                    )
                )
        return grouped

    @property
    def _supervised(self) -> bool:
        """Whether dispatch goes through the supervisor instead of the
        original path (an inert policy deliberately does not qualify)."""
        return self.supervision is not None and (
            self.supervision.active
            or (self.chaos is not None and self.chaos.active)
        )

    def _iter_outputs(self, tasks: List[_Task]) -> Iterator[_Output]:
        """Yield worker outputs as they complete (unordered under a pool)."""
        if not tasks:
            return  # a fully-cached cell must not fork a pool
        batched = self._maybe_batch(tasks)
        if self._supervised:
            assert self.supervision is not None
            yield from TrialSupervisor(self, self.supervision).run(batched)
            return
        pool = self._ensure_pool()
        if pool is None:
            for task in batched:
                yield from _execute_any(task)
            return
        if len(batched) != len(tasks):
            # Batched tasks are already chunky; dispatch them one at a time.
            for outputs in pool.imap_unordered(_execute_any, batched, chunksize=1):
                yield from outputs
            return
        for output in pool.imap_unordered(
            _execute_contained, tasks, chunksize=self._chunk(len(tasks))
        ):
            yield output

    def _note_done(self, cached: bool = False, failed: bool = False) -> None:
        self._done += 1
        if cached:
            self.metrics.counter("sweep/trials_cached").inc()
        else:
            self.metrics.counter("sweep/trials_executed").inc()
        if failed:
            self.metrics.counter("sweep/trials_failed").inc()
        if self.progress is not None:
            self.progress(self._done, self._total)

    @contextmanager
    def _cell_writer(
        self, trial_name: str, master_seed: int
    ) -> Iterator[Optional[IO[str]]]:
        """One cell's checkpoint writer, closed on *every* exit path.

        Yields ``None`` when checkpointing is disabled so the call site
        stays a single ``with`` regardless of configuration; a progress
        callback or pool failure raising mid-cell can never leak the
        descriptor.
        """
        if self.checkpoint is None:
            yield None
            return
        writer = self.checkpoint.open_writer(trial_name, master_seed)
        try:
            yield writer
        finally:
            writer.close()

    def run_cell(
        self,
        trial_name: str,
        params: Dict[str, Any],
        *,
        trials: int,
        master_seed: int = 0,
        stream: int = 0,
    ) -> CellResult:
        """Run one cell with containment and (optional) checkpointing.

        Seeds and their order are exactly :func:`repro.analysis.sweep.run_cell`'s;
        completed trials land in ``cell.trials`` in seed order, contained
        errors in ``cell.failures`` (also in seed order).
        """
        self._done, self._total = 0, trials
        return self._run_cell_inner(
            trial_name, params, trials=trials, master_seed=master_seed, stream=stream
        )

    def _run_cell_inner(
        self,
        trial_name: str,
        params: Dict[str, Any],
        *,
        trials: int,
        master_seed: int,
        stream: int,
    ) -> CellResult:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if trial_name not in _TRIAL_REGISTRY:
            raise KeyError(
                f"unknown trial {trial_name!r}; known: {registered_trials()}"
            )
        seeds = list(seed_sequence(master_seed, trials, stream=stream))

        cached: Mapping[_Key, Dict[str, Any]] = {}
        if self.checkpoint is not None and self.resume:
            cached = self.checkpoint.load(trial_name, master_seed)
        # The cell's part of every trial key, spelled once: canonical_params
        # is a json.dumps, the dominant cost of a cached resume if per seed.
        cell_key = (trial_name, canonical_params(params), int(master_seed), int(stream))

        with self._cell_writer(trial_name, master_seed) as writer:
            slots: List[Optional[Dict[str, Any]]] = [None] * trials
            pending: List[_Task] = []
            for index, seed in enumerate(seeds):
                record = cached.get(cell_key + (int(seed),))
                if record is not None and self.retry_failures and record["status"] != "ok":
                    record = None  # retry_failures re-runs cached failures
                if record is not None:
                    slots[index] = record
                    self._note_done(cached=True, failed=record["status"] == "failed")
                else:
                    pending.append((trial_name, dict(params), seed, index))

            # In-process trials run in this process: scope fallback dedup to
            # the cell (pool workers enable it in their initializer) and
            # discard any events a previous caller left behind.
            _vec.drain_fallback_events()
            _vec.enable_fallback_dedup()
            try:
                for index, status, payload in self._iter_outputs(pending):
                    fallbacks = payload.pop("__vec_fallbacks__", 0)
                    if fallbacks:
                        self.metrics.counter("sweep/vec_fallbacks").inc(fallbacks)
                    if status == "ok":
                        record = checkpoint_record_to_dict(
                            trial=trial_name,
                            params=params,
                            master_seed=master_seed,
                            stream=stream,
                            seed=seeds[index],
                            metrics=payload,
                        )
                    else:
                        record = checkpoint_record_to_dict(
                            trial=trial_name,
                            params=params,
                            master_seed=master_seed,
                            stream=stream,
                            seed=seeds[index],
                            failure=payload,
                        )
                    if writer is not None:
                        CheckpointStore.append(writer, record)
                    slots[index] = record
                    self._note_done(failed=status == "failed")
            finally:
                _vec.disable_fallback_dedup()

        # Deterministic reassembly: slots are in seed order by construction.
        cell = CellResult(params=dict(params))
        for slot in slots:
            assert slot is not None  # every index is either cached or pending
            if slot["status"] == "ok":
                cell.trials.append(dict(slot["metrics"]))
            else:
                failure = slot["failure"]
                cell.failures.append(
                    TrialFailure(
                        seed=slot["seed"],
                        error=failure["error"],
                        message=failure["message"],
                        traceback=failure.get("traceback", ""),
                        kind=failure.get("kind", "error"),
                        attempts=failure.get("attempts", 1),
                    )
                )
        return cell

    def run_grid(
        self,
        trial_name: str,
        grid: Sequence[Dict[str, Any]],
        *,
        trials: int,
        master_seed: int = 0,
    ) -> SweepResult:
        """Run a whole parameter grid over the shared pool.

        Cell ``i`` uses seed stream ``i`` — the same derivation as the
        serial :func:`repro.analysis.sweep.run_sweep` — so the result is
        bitwise-identical to a serial sweep of the same grid (and to itself
        under any pool size).
        """
        self._done, self._total = 0, len(grid) * trials
        self.metrics.gauge("sweep/grid_cells").set(len(grid))
        result = SweepResult()
        for index, params in enumerate(grid):
            result.cells.append(
                self._run_cell_inner(
                    trial_name,
                    params,
                    trials=trials,
                    master_seed=master_seed,
                    stream=index,
                )
            )
            self.metrics.counter("sweep/cells_completed").inc()
        return result

    def run_cell_profiled(
        self,
        trial_name: str,
        params: Dict[str, Any],
        *,
        trials: int,
        master_seed: int = 0,
        stream: int = 0,
    ) -> ParallelProfile:
        """A profiled cell (metrics stream attached) on the shared pool.

        Same contract as
        :func:`repro.analysis.parallel.run_cell_parallel_profiled`, minus
        the per-call pool: consecutive profiled cells reuse this runner's
        workers.  Profiled trials are not contained or checkpointed (their
        registries are not part of the checkpoint schema); a raising trial
        propagates.
        """
        tasks = _profiled_tasks(
            trial_name, params, trials=trials, master_seed=master_seed, stream=stream
        )
        pool = self._ensure_pool()
        started = time.perf_counter()
        if pool is None or trials == 1:
            outputs = [_execute_profiled(task) for task in tasks]
        else:
            outputs = pool.map(_execute_profiled, tasks)
        return _assemble_profile(outputs, params, time.perf_counter() - started)


def run_sweep_parallel(
    trial_name: str,
    grid: Sequence[Dict[str, Any]],
    *,
    trials: int,
    master_seed: int = 0,
    processes: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    start_method: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[ProgressFn] = None,
    supervision: Optional[SupervisionPolicy] = None,
    vec_batch: bool = False,
) -> SweepResult:
    """One-call convenience: build a :class:`SweepRunner`, run the grid."""
    with SweepRunner(
        processes=processes,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        start_method=start_method,
        metrics=metrics,
        progress=progress,
        supervision=supervision,
        vec_batch=vec_batch,
    ) as runner:
        return runner.run_grid(
            trial_name, grid, trials=trials, master_seed=master_seed
        )


def format_failures(cells: Iterable[CellResult], *, limit: int = 5) -> List[str]:
    """Human-readable lines for the first ``limit`` failures across cells."""
    lines: List[str] = []
    total = 0
    for cell in cells:
        for failure in cell.failures:
            total += 1
            if len(lines) < limit:
                lines.append(f"{cell.params}: {failure}")
    if total > len(lines):
        lines.append(f"... and {total - len(lines)} more failure(s)")
    return lines
