"""Vectorized engine backend: whole-population rounds as NumPy column ops.

The coroutine engine (:mod:`repro.sim.engine`) runs one generator per node —
faithful but bounded around 10^4–10^5 nodes.  This module executes protocols
lowered to the :class:`~repro.protocols.ir.RoundProgram` IR with the entire
population held as columns (alive mask, state index), so one round costs a
handful of array operations regardless of ``n`` and runs at n = 10^6+
comfortably.

One kernel runs every execution: R replications of one compiled program as
``(R × ncols)`` matrices, one round loop, one row per seed.
:func:`run_program_batch` / :func:`run_protocol_batch` run a whole sweep
cell at once; :func:`run_program` / :func:`run_protocol` are the R = 1 case.
Per round, only the woken column prefix does any work (columns are sorted by
wake round), and finished rows leave the batch via row compaction instead of
padding to the slowest trial's budget.

The kernel has two draw sources (contract enforced by
``tests/test_engine_vec_differential.py`` and ``tests/test_vec_batch.py``):

* **Exact draws** (``draws="exact"``, the ``"auto"`` choice up to
  :data:`_EXACT_DRAWS_MAX_NODES` columns; single runs only): each column
  draws from the same ``node_rng(seed, node_id)`` stream as the coroutine
  engine, one variate per round per live, woken node, in the engine's node
  order — results are *bitwise identical* to the coroutine backend,
  including marks, ``RoundLimitExceeded`` details, and instrumented event
  streams.
* **Counter draws** (``draws="counter"``, the ``"auto"`` choice above the
  threshold, and always in batches): each row draws one full-width buffer
  of uniforms per participating round from its own Philox key
  ``derive_seed(seed, 0x7EC)``.  Fully reproducible run-to-run and across
  process pools, and every batch row is bitwise identical to its standalone
  ``run_program(..., draws="counter")`` run — but a *different* sample path
  from the coroutine backend, so that agreement is distributional.

Compiled programs and protocol lowerings are memoized across calls
(:func:`compile_program`, bounded LRU keyed by
:meth:`~repro.protocols.ir.RoundProgram.content_key`), so replication-heavy
sweeps pay the lowering/compilation cost once per program, not per trial.

NumPy itself is an optional dependency (the ``[vec]`` extra): importing this
module never requires it; running does, and :func:`require_numpy` raises an
``ImportError`` that names the extra.
"""

from __future__ import annotations

import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..obs.events import RoundEvent, RunInfo, RunSummary
from ..obs.metrics import MetricsSink
from ..protocols.ir import CODE_TO_FEEDBACK, FEEDBACK_CODE, LoweringError, RoundProgram
from .adversary import Activation
from .cd_modes import CollisionDetection, perception_views
from .context import MarkRecord
from .engine import (
    ExecutionResult,
    default_round_budget,
    resolve_active_ids,
    resolve_wake_rounds,
)
from .errors import ConfigurationError, RoundLimitExceeded
from .network import PRIMARY_CHANNEL, Network
from .rng import derive_seed, node_rng
from .trace import ExecutionTrace

__all__ = [
    "DRAW_MODES",
    "BatchOutcome",
    "VecFallbackWarning",
    "clear_compile_cache",
    "compile_cache_stats",
    "compile_program",
    "disable_fallback_dedup",
    "drain_fallback_events",
    "enable_fallback_dedup",
    "numpy_available",
    "require_numpy",
    "run_program",
    "run_program_batch",
    "run_protocol",
    "run_protocol_batch",
    "warn_fallback",
]

#: Recognized values for the ``draws`` parameter.
DRAW_MODES = ("auto", "exact", "counter")

#: ``draws="auto"`` uses per-node exact streams up to this many columns.
#: Beyond it, per-node ``random.Random`` state (~2.5 KB each) dominates
#: memory and defeats the point of a columnar backend, so auto switches to
#: counter-based draws.
_EXACT_DRAWS_MAX_NODES = 4096

#: Stream discriminator separating the counter-mode Philox key from every
#: per-node/per-trial stream derived from the same master seed.
_COUNTER_STREAM = 0x7EC

_NUMPY_HINT = (
    "the vectorized engine backend needs NumPy, which is an optional "
    "dependency of this package; install it with: pip install 'repro[vec]'"
)

_np_cache: Optional[Any] = None


def _import_numpy() -> Any:
    """Import hook kept separate so tests can simulate a missing NumPy."""
    import numpy

    return numpy


def require_numpy() -> Any:
    """Return the numpy module, or raise ImportError naming the extra."""
    global _np_cache
    if _np_cache is None:
        try:
            _np_cache = _import_numpy()
        except ImportError as error:
            raise ImportError(_NUMPY_HINT) from error
    return _np_cache


def numpy_available() -> bool:
    """Whether the vec backend can run in this environment."""
    try:
        require_numpy()
    except ImportError:
        return False
    return True


class VecFallbackWarning(UserWarning):
    """``backend="vec"`` was requested but the coroutine engine served the run.

    Attributes:
        protocol: name of the protocol that could not be vectorized.
        reason: human-readable explanation (no IR lowering, faults, ...).
    """

    def __init__(self, protocol: str, reason: str):
        self.protocol = protocol
        self.reason = reason
        super().__init__(
            f"vec backend unavailable for {protocol!r}: {reason}; "
            "falling back to the coroutine engine"
        )


# --------------------------------------------------- fallback deduplication
#
# A non-lowerable protocol swept over a big grid would emit one
# VecFallbackWarning per trial.  Sweep workers (and the in-process sweep
# path) enable dedup so each distinct (protocol, reason) pair warns once per
# process; every fallback still counts toward an event counter that the
# sweep layer drains into its ``sweep/vec_fallbacks`` metric.  Outside
# sweeps the dedup is off and every fallback warns, as before.

_fallback_dedup_enabled = False
_fallback_seen: Set[Tuple[str, str]] = set()
_fallback_events = 0


def enable_fallback_dedup() -> None:
    """Warn once per (protocol, reason) from here on (idempotent)."""
    global _fallback_dedup_enabled
    _fallback_dedup_enabled = True


def disable_fallback_dedup() -> None:
    """Restore warn-every-time behavior and forget what has been seen."""
    global _fallback_dedup_enabled
    _fallback_dedup_enabled = False
    _fallback_seen.clear()


def drain_fallback_events() -> int:
    """Return the number of fallbacks since the last drain, resetting it."""
    global _fallback_events
    count = _fallback_events
    _fallback_events = 0
    return count


def warn_fallback(protocol: str, reason: str, *, stacklevel: int = 2) -> None:
    """Emit a :class:`VecFallbackWarning`, deduplicated when enabled.

    The event is always counted (see :func:`drain_fallback_events`); only
    the warning itself is suppressed for repeat (protocol, reason) pairs
    while dedup is on.
    """
    global _fallback_events
    _fallback_events += 1
    if _fallback_dedup_enabled:
        key = (protocol, reason)
        if key in _fallback_seen:
            return
        _fallback_seen.add(key)
    warnings.warn(VecFallbackWarning(protocol, reason), stacklevel=stacklevel)


class _CompiledProgram:
    """A :class:`RoundProgram` flattened into lookup arrays.

    Transition tables become flat int arrays indexed by
    ``(state * 3 + kind) * 4 + perceived_feedback_code`` with kind 0 =
    listen, 1 = transmit, 2 = idle; ``-1`` encodes "terminate" in the
    next-state table and "no mark" in the mark table.
    """

    def __init__(self, np: Any, program: RoundProgram):
        states = program.states
        num_states = len(states)
        self.schedule_length = program.schedule_length
        self.cycle = program.cycle
        self.initial_state = program.initial_state
        self.prob = np.array(
            [rule.probabilities for rule in states], dtype=np.float64
        )
        self.prob_flat = self.prob.reshape(-1)
        # Deterministic (residue) states: per-slot (mod, residue) pairs.
        # Non-residue states get the sentinel pair (1, -1), which matches no
        # id, and residue states have all-zero probabilities (normalized by
        # RoundProgram) — so the transmit mask is simply the OR of the draw
        # test and the residue test, with no per-state branching.
        self.any_residues = any(rule.residues is not None for rule in states)
        if self.any_residues:
            self.mod = np.array(
                [
                    [m for m, _ in rule.residues]
                    if rule.residues is not None
                    else [1] * program.schedule_length
                    for rule in states
                ],
                dtype=np.int64,
            )
            self.res = np.array(
                [
                    [r for _, r in rule.residues]
                    if rule.residues is not None
                    else [-1] * program.schedule_length
                    for rule in states
                ],
                dtype=np.int64,
            )
            self.mod_flat = self.mod.reshape(-1)
            self.res_flat = self.res.reshape(-1)
        self.channel = np.array([rule.channel for rule in states], dtype=np.int64)
        self.idle_instead = np.array(
            [rule.idle_instead_of_listen for rule in states], dtype=bool
        )

        #: (label, mark_node_id) pairs referenced by index from mark tables.
        self.marks: List[Tuple[str, bool]] = []
        mark_ids: Dict[Tuple[str, bool], int] = {}

        def mark_id(transition) -> int:
            if transition.mark is None:
                return -1
            key = (transition.mark, transition.mark_node_id)
            if key not in mark_ids:
                mark_ids[key] = len(self.marks)
                self.marks.append(key)
            return mark_ids[key]

        next_state = np.full((num_states, 3, 4), -1, dtype=np.int64)
        mark_table = np.full((num_states, 3, 4), -1, dtype=np.int64)
        for s, rule in enumerate(states):
            for feedback, code in FEEDBACK_CODE.items():
                transition = rule.on_listen[feedback]
                next_state[s, 0, code] = (
                    -1 if transition.next_state is None else transition.next_state
                )
                mark_table[s, 0, code] = mark_id(transition)
                transition = rule.on_transmit[feedback]
                next_state[s, 1, code] = (
                    -1 if transition.next_state is None else transition.next_state
                )
                mark_table[s, 1, code] = mark_id(transition)
            transition = rule.on_idle
            next_state[s, 2, :] = (
                -1 if transition.next_state is None else transition.next_state
            )
            mark_table[s, 2, :] = mark_id(transition)
        self.next_flat = next_state.reshape(-1)
        self.mark_flat = mark_table.reshape(-1)
        # on_end is normalized to a terminating Transition by RoundProgram.
        self.end_mark = np.array(
            [mark_id(rule.on_end) for rule in states], dtype=np.int64
        )
        self.any_marks = bool(self.marks)


# ------------------------------------------------- compile / lowering caches
#
# Replication-heavy sweeps run the same program hundreds of times; without
# memoization every trial re-lowers the protocol and rebuilds the flat
# lookup tables.  Both caches are bounded LRUs, private to the process (pool
# workers each grow their own), and keyed so stale hits are impossible:
# compiled programs by structural content key, lowerings by protocol
# *identity* (the cache holds a strong reference, so the id cannot be
# recycled while the entry lives; the ``is`` check makes that explicit).

_COMPILE_CACHE_SIZE = 64
_compile_cache: "OrderedDict[Tuple[Any, ...], _CompiledProgram]" = OrderedDict()
_compile_stats = {"hits": 0, "misses": 0}

_LOWERING_CACHE_SIZE = 64
_lowering_cache: "OrderedDict[Tuple[Any, ...], Tuple[Any, RoundProgram]]" = (
    OrderedDict()
)


def compile_program(program: RoundProgram) -> _CompiledProgram:
    """The flattened lookup tables for ``program``, memoized by content.

    Two structurally equal programs (same
    :meth:`~repro.protocols.ir.RoundProgram.content_key`) share one compiled
    object, so per-trial re-lowering — which builds fresh but equal
    ``RoundProgram`` instances — still hits the cache.
    """
    np = require_numpy()
    key = program.content_key()
    compiled = _compile_cache.get(key)
    if compiled is not None:
        _compile_stats["hits"] += 1
        _compile_cache.move_to_end(key)
        return compiled
    _compile_stats["misses"] += 1
    compiled = _CompiledProgram(np, program)
    _compile_cache[key] = compiled
    while len(_compile_cache) > _COMPILE_CACHE_SIZE:
        _compile_cache.popitem(last=False)
    return compiled


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counts of the compiled-program cache (diagnostics/tests)."""
    return dict(_compile_stats)


def clear_compile_cache() -> None:
    """Drop both memo caches and reset the stats (tests)."""
    _compile_cache.clear()
    _lowering_cache.clear()
    _compile_stats["hits"] = 0
    _compile_stats["misses"] = 0


def _lower_cached(protocol: Any, network: Network) -> RoundProgram:
    """``protocol.to_round_program(network)``, memoized per live protocol.

    Keyed by (protocol identity, n, C, CD mode); the entry pins the protocol
    object, so an id recycled after garbage collection can never alias a
    cache line, and the ``is`` check rejects it even if it somehow did.
    """
    lower = getattr(protocol, "to_round_program", None)
    if lower is None:
        name = getattr(protocol, "name", type(protocol).__name__)
        raise LoweringError(
            f"protocol {name!r} has no round-program lowering (to_round_program)"
        )
    key = (
        id(protocol),
        network.n,
        network.num_channels,
        network.collision_detection,
    )
    entry = _lowering_cache.get(key)
    if entry is not None and entry[0] is protocol:
        _lowering_cache.move_to_end(key)
        return entry[1]
    program = lower(network)
    _lowering_cache[key] = (protocol, program)
    while len(_lowering_cache) > _LOWERING_CACHE_SIZE:
        _lowering_cache.popitem(last=False)
    return program


@dataclass
class BatchOutcome:
    """One trial's disposition inside a batch: a result or an error.

    Exactly one of ``result`` / ``error`` is set; ``error`` carries the
    exception the standalone run would have raised (today always
    :class:`~repro.sim.errors.RoundLimitExceeded`).
    """

    seed: int
    result: Optional[ExecutionResult] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """Whether the trial completed without raising."""
        return self.error is None

    def unwrap(self) -> ExecutionResult:
        """The result, or re-raise the trial's error."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


_IdsSpec = Union[None, Sequence[int], Sequence[Optional[Sequence[int]]]]
_WakeSpec = Union[None, Mapping[int, int], Sequence[Optional[Mapping[int, int]]]]
_Resolved = Tuple[Optional[List[int]], Optional[Dict[int, int]]]


def _prepare(
    protocol: Any,
    *,
    n: int,
    num_channels: int,
    collision_detection: Optional[CollisionDetection],
    max_rounds: Optional[int],
    activations: Sequence[Optional[Activation]],
) -> Tuple[Network, RoundProgram, int, List[_Resolved]]:
    """Network, lowered program, round budget and resolved activations.

    The shared front half of :func:`run_protocol` and
    :func:`run_protocol_batch`: one resolved ``(ids, wake)`` spec per entry
    of ``activations``, ``(None, None)`` meaning "all nodes, round 1".  The
    budget defaults to :func:`~repro.sim.engine.default_round_budget`; the
    kernel validates it.
    """
    require_numpy()
    network = Network(
        n=n,
        num_channels=num_channels,
        collision_detection=(
            collision_detection
            if collision_detection is not None
            else CollisionDetection.STRONG
        ),
    )
    program = _lower_cached(protocol, network)
    budget = max_rounds if max_rounds is not None else default_round_budget(n)
    specs: List[_Resolved] = []
    for activation in activations:
        if activation is None or (
            activation.active_ids is None and activation.wake_rounds is None
        ):
            specs.append((None, None))
            continue
        ids = resolve_active_ids(n, activation.active_ids)
        wake_rounds = activation.wake_rounds
        # An explicit all-default wake map is the same as no wake map, but
        # the latter keeps _rows on its sort-free path.
        specs.append((ids, resolve_wake_rounds(ids, wake_rounds) if wake_rounds else None))
    return network, program, budget, specs


def run_protocol(
    protocol,
    *,
    n: int,
    num_channels: int,
    activation=None,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    stop_on_solve: bool = True,
    collision_detection: Optional[CollisionDetection] = None,
    instrument: Optional[MetricsSink] = None,
    draws: str = "auto",
) -> ExecutionResult:
    """Strict vectorized counterpart of :func:`repro.protocols.runner.solve`.

    Unlike ``solve(..., backend="vec")`` this never falls back: a protocol
    without an IR lowering raises :class:`~repro.protocols.ir.LoweringError`.
    With ``activation=None`` the node columns are materialized directly as
    arrays (no per-node Python objects), which is what makes n = 10^6 runs
    fit in well under 100 MB.
    """
    network, program, budget, [(ids, wake)] = _prepare(
        protocol,
        n=n,
        num_channels=num_channels,
        collision_detection=collision_detection,
        max_rounds=max_rounds,
        activations=[activation],
    )
    return run_program(
        program,
        network,
        seed=seed,
        ids=ids,
        wake=wake,
        budget=budget,
        stop_on_solve=stop_on_solve,
        instrument=instrument,
        draws=draws,
    )


def run_protocol_batch(
    protocol: Any,
    *,
    n: int,
    num_channels: int,
    seeds: Sequence[int],
    activations: Union[None, Activation, Sequence[Optional[Activation]]] = None,
    max_rounds: Optional[int] = None,
    stop_on_solve: bool = True,
    collision_detection: Optional[CollisionDetection] = None,
) -> List[BatchOutcome]:
    """Batched counterpart of :func:`run_protocol`: R seeds, one execution.

    Lowers ``protocol`` once (memoized), resolves every trial's activation
    with the engine's shared helpers, and runs the whole batch through
    :func:`run_program_batch`.  Each trial is bitwise identical to a
    standalone ``run_protocol(..., seed=seed_i, draws="counter")`` run.

    ``activations`` may be ``None`` (all nodes, round 1), one shared
    :class:`~repro.sim.adversary.Activation`, or a sequence with one
    ``Optional[Activation]`` per seed; per-trial activations must all
    activate the same number of nodes.
    """
    if activations is None or isinstance(activations, Activation):
        shared = True
        activation_list: List[Optional[Activation]] = [activations]
    else:
        shared = False
        activation_list = list(activations)
        if len(activation_list) != len(seeds):
            raise ConfigurationError(
                f"per-trial activations: {len(activation_list)} spec(s) for "
                f"{len(seeds)} seed(s)"
            )
    network, program, budget, specs = _prepare(
        protocol,
        n=n,
        num_channels=num_channels,
        collision_detection=collision_detection,
        max_rounds=max_rounds,
        activations=activation_list,
    )
    ids: _IdsSpec = None
    wake: _WakeSpec = None
    if shared:
        ids, wake = specs[0]
    else:
        if any(spec[0] is not None for spec in specs):
            ids = [spec[0] for spec in specs]
        if any(spec[1] is not None for spec in specs):
            wake = [spec[1] for spec in specs]
    return run_program_batch(
        program,
        network,
        seeds=seeds,
        ids=ids,
        wake=wake,
        budget=budget,
        stop_on_solve=stop_on_solve,
    )


def run_program(
    program: RoundProgram,
    network: Network,
    *,
    seed: int,
    ids: Optional[Sequence[int]],
    wake: Optional[Dict[int, int]],
    budget: int,
    stop_on_solve: bool = True,
    instrument: Optional[MetricsSink] = None,
    draws: str = "auto",
) -> ExecutionResult:
    """Execute a compiled round program over the whole population at once.

    The R = 1 case of the batched kernel.  ``ids=None`` means "all ``n``
    nodes" and skips building any per-node Python containers; wake rounds
    missing from ``wake`` default to round 1.  Column order is the
    coroutine engine's node order — ascending wake round, ties by
    ascending id — so winner selection and mark emission order agree
    bitwise.  ``instrument`` receives the same ``RunInfo`` / per-round
    ``RoundEvent`` / ``RunSummary`` stream as the coroutine engine.
    """
    (outcome,) = _run_rows(
        program,
        network,
        seeds=[seed],
        ids=ids,
        wake=wake,
        budget=budget,
        stop_on_solve=stop_on_solve,
        instrument=instrument,
        draws=draws,
    )
    return outcome.unwrap()


def run_program_batch(
    program: RoundProgram,
    network: Network,
    *,
    seeds: Sequence[int],
    ids: _IdsSpec = None,
    wake: _WakeSpec = None,
    budget: int,
    stop_on_solve: bool = True,
) -> List[BatchOutcome]:
    """Execute R replications of one program as ``(R × ncols)`` matrices.

    Replications stack as rows of the same kernel :func:`run_program` runs
    with one row, and each row draws from its own Philox key
    ``derive_seed(seed_i, 0x7EC)`` — so every trial's sample path is
    **bitwise identical** to a standalone ``run_program(..., seed=seed_i,
    draws="counter")`` run: same marks, round counts, winners, and
    :class:`RoundLimitExceeded` details.  Finished rows — solved under
    ``stop_on_solve``, or fully terminated — are compacted out of the
    batch, so fast trials never pad to the slowest trial's budget.

    ``ids`` / ``wake`` follow :func:`run_program`'s contract, either shared
    across the batch or per trial (a sequence of one spec per seed, ``None``
    entries meaning "all nodes, round 1"); an empty ``ids`` is a shared
    empty activation.  Every trial must activate the same number of nodes.
    The batched path is counter-draws only (per-trial independence is what
    makes the rows independent) and does not support instrumentation.
    """
    if len(seeds) < 1:
        raise ConfigurationError("a batch needs at least one seed")
    return _run_rows(
        program,
        network,
        seeds=seeds,
        ids=ids,
        wake=wake,
        budget=budget,
        stop_on_solve=stop_on_solve,
        instrument=None,
        draws="counter",
    )


def _rows(
    np: Any, n: int, num_trials: int, ids: _IdsSpec, wake: _WakeSpec
) -> Tuple[Any, Any]:
    """Materialize per-trial (ids, wake) rows in the engine's column order.

    Shared specs broadcast across the batch; per-trial specs are sequences
    with one entry per seed (``None`` entries mean "all nodes").  With at
    least one seed an empty ``ids`` can only be a shared empty spec.  Every
    row must have the same length — that is what keeps the batch
    rectangular.  Column order per row is ascending wake round, ties by the
    given (ascending) id order; missing wake entries default to round 1.
    """

    def per_trial(spec: Any, shared: bool, what: str) -> List[Any]:
        if shared:
            return [spec] * num_trials
        if len(spec) != num_trials:
            raise ConfigurationError(
                f"per-trial {what}: {len(spec)} spec(s) for {num_trials} seed(s)"
            )
        return list(spec)

    ids_list = per_trial(
        ids,
        ids is None or len(ids) == 0 or isinstance(ids[0], (int, np.integer)),
        "ids",
    )
    wake_list = per_trial(wake, wake is None or isinstance(wake, Mapping), "wake")
    ncols = n if ids_list[0] is None else len(ids_list[0])
    ids_mat = np.empty((num_trials, ncols), dtype=np.int64)
    wake_mat = np.ones((num_trials, ncols), dtype=np.int64)
    for row, (ids_t, wake_t) in enumerate(zip(ids_list, wake_list)):
        width = n if ids_t is None else len(ids_t)
        if width != ncols:
            raise ConfigurationError(
                "all trials in a batch must activate the same number of "
                f"nodes; trial 0 activates {ncols}, trial {row} activates {width}"
            )
        if not wake_t:
            # No wake spec: the stable sort by wake round is the identity.
            ids_mat[row] = np.arange(1, n + 1) if ids_t is None else ids_t
        else:
            order = sorted(
                range(1, n + 1) if ids_t is None else ids_t,
                key=lambda nid: wake_t.get(nid, 1),
            )
            ids_mat[row] = order
            wake_mat[row] = [wake_t.get(nid, 1) for nid in order]
    return ids_mat, wake_mat


def _round_event(
    round_index: int,
    active_count: int,
    tx_counts: Sequence[int],
    rx_counts: Sequence[int],
    started_at: float,
) -> RoundEvent:
    """The coroutine engine's RoundEvent from per-channel node counts."""
    transmitters: Dict[int, int] = {}
    listeners: Dict[int, int] = {}
    outcomes: Dict[int, str] = {}
    for chan in range(1, len(tx_counts)):
        tx_here, rx_here = int(tx_counts[chan]), int(rx_counts[chan])
        if tx_here:
            transmitters[chan] = tx_here
        if rx_here:
            listeners[chan] = rx_here
        if tx_here or rx_here:
            outcomes[chan] = CODE_TO_FEEDBACK[min(tx_here, 2)].value
    return RoundEvent(
        round_index=round_index,
        active_count=active_count,
        transmitters=transmitters,
        listeners=listeners,
        outcomes=outcomes,
        wall_time_s=time.perf_counter() - started_at,
        faults={},
    )


def _run_rows(
    program: RoundProgram,
    network: Network,
    *,
    seeds: Sequence[int],
    ids: _IdsSpec,
    wake: _WakeSpec,
    budget: int,
    stop_on_solve: bool,
    instrument: Optional[MetricsSink],
    draws: str,
) -> List[BatchOutcome]:
    """The round loop behind :func:`run_program` and :func:`run_program_batch`.

    Every array is ``(rows × ncols)``: one row per seed, one column per
    activated node.  Because every live node advances its schedule by one
    slot per round, a node's schedule position is ``round_index -
    wake_round`` — no per-node step column is kept.  ``instrument`` and
    exact draws are single-row features.
    """
    np = require_numpy()
    if draws not in DRAW_MODES:
        raise ConfigurationError(
            f"unknown draw mode {draws!r}; known modes: {', '.join(DRAW_MODES)}"
        )
    if budget < 1:
        raise ConfigurationError(f"max_rounds must be >= 1, got {budget}")
    program.validate_channels(network.num_channels)
    compiled = compile_program(program)
    ids_mat, wake_mat = _rows(np, network.n, len(seeds), ids, wake)
    num_trials, ncols = ids_mat.shape

    # Draw source.  Exact: the coroutine engine's per-node node_rng streams,
    # one variate per live, woken node per round in column order.  Counter:
    # each participating row consumes one full-ncols buffer per round from
    # its own Philox key.
    exact = draws == "exact" or (draws == "auto" and ncols <= _EXACT_DRAWS_MAX_NODES)
    streams = [node_rng(seeds[0], int(nid)) for nid in ids_mat[0]] if exact else []
    gens = [
        np.random.Generator(np.random.Philox(derive_seed(int(seed), _COUNTER_STREAM)))
        for seed in ([] if exact else seeds)
    ]

    # Columns are sorted by wake round in every row, so the nodes awake in a
    # round are a column prefix.  The per-column min/max over rows are
    # non-decreasing too: `wake_lo` bounds the prefix for the whole batch,
    # and `wake_hi` tells whether some row's prefix still holds unwoken
    # columns (never with one row).
    first_wake = int(wake_mat.min()) if ncols else 1
    last_wake = int(wake_mat.max()) if ncols else 1
    uniform = first_wake == last_wake
    if last_wake > 1:
        wake_lo = wake_mat.min(axis=0).tolist()
        wake_hi = wake_mat.max(axis=0).tolist()
    width = 0
    # A Philox stream is continuous across call granularity, so when every
    # live row participates in every round (uniform wake) each row
    # pre-generates a block of future rounds in one call: bitwise the same
    # consumed values, a fraction of the per-call overhead.  Blocks grow
    # geometrically (1, 2, 4, ... rounds) so short-lived trials waste almost
    # nothing.  Rows index the never-moved block store through `block_row`,
    # which compaction copies instead of the blocks themselves.
    block_cap = max(1, min(64, 8192 // max(1, ncols))) if uniform and not exact else 1
    draw_blocks = np.empty((num_trials, block_cap, ncols), dtype=np.float64)
    filled = cursor = 0
    block_row = np.arange(num_trials, dtype=np.int64)

    alive = np.ones((num_trials, ncols), dtype=bool)
    state = np.full((num_trials, ncols), compiled.initial_state, dtype=np.int64)
    solved = np.zeros(num_trials, dtype=bool)
    solved_round = np.zeros(num_trials, dtype=np.int64)
    winner = np.zeros(num_trials, dtype=np.int64)
    live = np.arange(num_trials, dtype=np.int64)
    marks_by_trial: List[List[MarkRecord]] = [[] for _ in range(num_trials)]
    outcomes: List[Optional[BatchOutcome]] = [None] * num_trials

    num_channels = network.num_channels
    stride = num_channels + 1
    schedule_length = compiled.schedule_length
    cycle = compiled.cycle
    receiver_view, transmitter_view = perception_views(network.collision_detection)
    rx_table = np.array(
        [FEEDBACK_CODE[receiver_view[CODE_TO_FEEDBACK[c]]] for c in range(4)],
        dtype=np.int64,
    )
    tx_table = np.array(
        [FEEDBACK_CODE[transmitter_view[CODE_TO_FEEDBACK[c]]] for c in range(4)],
        dtype=np.int64,
    )
    chan0 = int(compiled.channel[0])
    idle0 = bool(compiled.idle_instead[0])
    any_idle = bool(compiled.idle_instead.any())
    single_state = len(program.states) == 1
    # Row-scalar branch: with one state and no marks a round has at most two
    # distinct transitions per row (transmitters and everyone else), so the
    # only per-node work left is the transmit test and the deaths.  Whether
    # each kind dies depends only on the row's transmitter count: 0, 1, or
    # >= 2 (take(..., mode="clip") folds larger counts into the last entry).
    fast = single_state and not compiled.any_marks
    tx_dies_by_count = compiled.next_flat.take(4 + tx_table[:3]) < 0
    other_dies_by_count = (
        compiled.next_flat.take(np.full(3, 2 * 4 + 3) if idle0 else rx_table[:3]) < 0
    )
    any_dies_by_count = tx_dies_by_count | other_dies_by_count

    run_started_at = round_started_at = 0.0
    if instrument is not None:
        instrument.on_run_start(
            RunInfo(
                n=network.n, num_channels=num_channels, seed=seeds[0], max_rounds=budget
            )
        )
        run_started_at = time.perf_counter()

    def finish(row: int, rounds: int, error: Optional[BaseException] = None) -> None:
        """Record the standalone-identical disposition of one live row."""
        orig = int(live[row])
        is_solved = bool(solved[row])
        won_round = int(solved_round[row]) if is_solved else None
        won_by = int(winner[row]) if is_solved else None
        if instrument is not None:
            instrument.on_run_end(
                RunSummary(
                    solved=is_solved,
                    solved_round=won_round,
                    winner=won_by,
                    rounds=rounds,
                    wall_time_s=time.perf_counter() - run_started_at,
                )
            )
        if error is not None:
            outcomes[orig] = BatchOutcome(seed=int(seeds[orig]), error=error)
            return
        trace = ExecutionTrace()
        trace.marks = marks_by_trial[orig]
        outcomes[orig] = BatchOutcome(
            seed=int(seeds[orig]),
            result=ExecutionResult(
                solved=is_solved,
                solved_round=won_round,
                winner=won_by,
                rounds=rounds,
                all_terminated=not bool(alive[row].any()),
                crashed=0,
                trace=trace,
            ),
        )

    def compact(keep: Any) -> None:
        nonlocal alive, state, wake_mat, ids_mat, draw_blocks, live
        nonlocal solved, solved_round, winner, gens, block_row
        alive = alive[keep]
        state = state[keep]
        wake_mat = wake_mat[keep]
        ids_mat = ids_mat[keep]
        if block_cap > 1:
            block_row = block_row[keep]
        else:
            draw_blocks = draw_blocks[keep]
        live = live[keep]
        solved = solved[keep]
        solved_round = solved_round[keep]
        winner = winner[keep]
        gens = [gen for gen, kept in zip(gens, keep) if kept]

    check_finished = True  # also retires every row of an empty activation
    for round_index in range(1, budget + 1):
        if instrument is not None:
            round_started_at = time.perf_counter()
        if check_finished:
            # A row with no alive node ends *before* this round executes
            # (rounds = round_index - 1).  Unwoken nodes count as alive, so
            # such a row also has nobody left to wake.
            check_finished = False
            row_alive = alive.any(axis=1)
            if not row_alive.all():
                for row in np.flatnonzero(~row_alive):
                    finish(int(row), round_index - 1)
                compact(row_alive)
                if live.size == 0:
                    break

        # ------------------------------------------ woken prefix, drawing rows
        nrows = int(live.size)
        if round_index >= last_wake:
            width = ncols
            act = alive
        else:
            while width < ncols and wake_lo[width] <= round_index:
                width += 1
            act = alive[:, :width]
            if width and wake_hi[width - 1] > round_index:
                act = act & (wake_mat[:, :width] <= round_index)
        # Rows with an alive, woken node draw (exact draws: that row's nodes).
        drawing: Any
        if exact:
            drawing = act[0].nonzero()[0]
        elif round_index >= last_wake:
            drawing = range(nrows)  # every live row has an alive, woken node
        else:
            drawing = np.logical_or.reduce(act, axis=1).nonzero()[0]
        if len(drawing) == 0:
            # Nodes exist but none are awake yet: an empty round.
            if instrument is not None:
                instrument.on_round(_round_event(round_index, 0, (), (), round_started_at))
            continue

        # ------------------------------------------------------------ draws
        if exact:
            draw_mat = draw_blocks[:, 0, :]
            draw_mat[0, drawing] = np.fromiter(
                (streams[col].random() for col in drawing.tolist()),
                dtype=np.float64,
                count=len(drawing),
            )
        elif block_cap > 1:
            if cursor == filled:
                filled = min(block_cap, filled * 2) if filled else 1
                flat_blocks = draw_blocks.reshape(num_trials, -1)
                for row, gen in enumerate(gens):
                    gen.random(out=flat_blocks[int(block_row[row]), : filled * ncols])
                cursor = 0
            draw_mat = draw_blocks[block_row, cursor, :]
            cursor += 1
        else:
            draw_mat = draw_blocks[:, 0, :]
            for row in drawing:
                gens[row].random(out=draw_mat[row])

        # ------------------------------------------------ schedule position
        steps: Any = None
        if uniform:
            step = round_index - first_wake
            slots: Any = step % schedule_length if cycle else min(step, schedule_length - 1)
            at_end = not cycle and step + 1 >= schedule_length
        else:
            steps = round_index - wake_mat[:, :width]
            # Unwoken (negative) and spent steps are clipped into the table;
            # every consumer masks them back out with `act`.
            slots = steps % schedule_length if cycle else np.clip(steps, 0, schedule_length - 1)
            at_end = False

        # --------------------------------------------------------- transmit
        # Entries outside `act` compute garbage that every consumer masks
        # back out — far cheaper than gathering the active set.  Residue
        # states have all-zero probabilities and non-residue states match no
        # id, so the transmit mask is the OR of both tests.
        ids_now = ids_mat[:, :width]
        states_now = state[:, :width]
        flat_slot = slots if single_state else states_now * schedule_length + slots
        tx = act & (draw_mat[:, :width] < compiled.prob_flat.take(flat_slot))
        if compiled.any_residues:
            tx |= act & (
                (ids_now % compiled.mod_flat.take(flat_slot))
                == compiled.res_flat.take(flat_slot)
            )
        chans: Any = None
        if single_state:
            tx_count = tx.sum(axis=1)
            primary = tx_count if chan0 == PRIMARY_CHANNEL else None
        else:
            chans = compiled.channel.take(states_now)
            t_rows, t_cols = np.nonzero(tx)
            tx_counts = np.bincount(
                t_rows * stride + chans[t_rows, t_cols], minlength=nrows * stride
            ).reshape(nrows, stride)
            primary = tx_counts[:, PRIMARY_CHANNEL]

        idle: Any = None
        if fast:
            # ------------------------------------------ row-scalar resolution
            # The single state only transitions to itself, so survivors never
            # change state; only deaths touch the matrices.
            dead = act if at_end else None
            if not at_end and any_dies_by_count.take(tx_count, mode="clip").any():
                dead = act & np.where(
                    tx,
                    tx_dies_by_count.take(tx_count, mode="clip")[:, None],
                    other_dies_by_count.take(tx_count, mode="clip")[:, None],
                )
            if steps is not None and not cycle:
                ends = act & (steps >= schedule_length - 1)
                dead = ends if dead is None else dead | ends
        else:
            # ------------------------------------------------ array resolution
            if single_state:
                ch_out = np.minimum(tx_count, 2)[:, None]
            else:
                row_base = (np.arange(nrows, dtype=np.int64) * stride)[:, None]
                ch_out = np.minimum(tx_counts, 2).take(chans + row_base)
            # Flat table index (state * 3 + kind) * 4 + perceived code, with
            # kind 0 = listen, 1 = transmit, 2 = idle (which perceives NONE).
            flat = np.where(tx, 4 + tx_table.take(ch_out), rx_table.take(ch_out))
            if any_idle:
                idle = act & ~tx
                if not single_state:
                    idle &= compiled.idle_instead.take(states_now)
                flat[idle] = 2 * 4 + 3
            if not single_state:
                flat += states_now * 12
            nxt = compiled.next_flat.take(flat)
            terminated = act & (nxt < 0)
            continuing = act ^ terminated
            if cycle:
                ends = None
            elif uniform:
                ends = continuing if at_end else None
            else:
                ends = continuing & (steps >= schedule_length - 1)

            if compiled.any_marks:
                mark_ids_now = compiled.mark_flat.take(flat)
                emit = act & (mark_ids_now >= 0)
                if ends is not None:
                    emit |= ends
                for row, col in zip(*(axis.tolist() for axis in emit.nonzero())):
                    node_id = int(ids_now[row, col])
                    end_mid = (
                        int(compiled.end_mark[nxt[row, col]])
                        if ends is not None and ends[row, col]
                        else -1
                    )
                    for mid in (int(mark_ids_now[row, col]), end_mid):
                        if mid >= 0:
                            label, with_node_id = compiled.marks[mid]
                            marks_by_trial[int(live[row])].append(
                                MarkRecord(
                                    round_index,
                                    node_id,
                                    label,
                                    node_id if with_node_id else None,
                                )
                            )

            if not single_state:  # a single state only transitions to itself
                np.copyto(states_now, nxt, where=continuing)
            dead = terminated if ends is None else terminated | ends

        if instrument is not None:
            row_chans = np.full(width, chan0) if chans is None else chans[0]
            listening = act[0] & ~tx[0] & (not idle0 if idle is None else ~idle[0])
            instrument.on_round(
                _round_event(
                    round_index,
                    int(np.count_nonzero(act[0])),
                    np.bincount(row_chans[tx[0]], minlength=stride),
                    np.bincount(row_chans[listening], minlength=stride),
                    round_started_at,
                )
            )

        newly_solved = []
        for row in [] if primary is None else (primary == 1).nonzero()[0].tolist():
            if solved[row]:
                continue
            prim = tx[row] if chans is None else tx[row] & (chans[row] == PRIMARY_CHANNEL)
            # argmax on the boolean row is the lowest transmitting column —
            # the coroutine engine's winner-selection order.
            solved[row] = True
            solved_round[row] = round_index
            winner[row] = ids_now[row, int(np.argmax(prim))]
            newly_solved.append(row)

        if dead is not None and dead.any():
            alive[:, :width] &= ~dead
            check_finished = True

        if stop_on_solve and newly_solved:
            for row in newly_solved:
                finish(row, round_index)
            keep = np.ones(nrows, dtype=bool)
            keep[newly_solved] = False
            compact(keep)
            if live.size == 0:
                break

    # Budget exhausted for every row still live: solved rows (stop_on_solve
    # off) return their result, unsolved rows get the standalone error.
    for row in range(int(live.size)):
        still_running = int(np.count_nonzero(alive[row] & (wake_mat[row] <= budget)))
        finish(
            row,
            budget,
            None
            if solved[row]
            else RoundLimitExceeded(budget, detail=f"{still_running} node(s) still running"),
        )

    final = [outcome for outcome in outcomes if outcome is not None]
    assert len(final) == num_trials  # every trial reached a disposition
    return final
