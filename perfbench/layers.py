"""The probe set: which program function belongs to which layer.

Every probe wraps a function at a layer boundary from outside the program.
Most are public (``repro.cli.main``, ``SweepRunner.run_grid``,
``CheckpointStore.load``, ``activate_random``, ``node_rng``,
``vec.run_program_batch``, ``Engine.run``, ...).  Four private names are
wrapped because the boundary they mark has no public function:
``runner._execute_any`` / ``runner._execute_contained`` are the pool task
entry points (worker busy time, worker span flushes),
``SweepRunner._iter_outputs`` is where the coordinator blocks on workers,
and ``SweepRunner._note_done`` marks the first finished trial.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Dict, List, Tuple

from spans import Patch, Tracer, covered

ROOT_FRAME = "iteration"

#: Layers in the order the wall account prints them.
LAYERS = (
    "cli",
    "runner",
    "runner.wait",
    "runner.task",
    "rng.seed_sequence",
    "rng.node_rng",
    "adversary.activate",
    "vec.lower",
    "vec.compile",
    "vec.batch",
    "vec.single",
    "engine.run",
    "checkpoint.load",
    "checkpoint.append",
    "report",
)

#: Per-layer metrics reported by a traced run, with their units.
PER_LAYER = {
    "cli.s": "s",
    "rng.node_rng_calls": "count",
    "rng.node_rng_s": "s",
    "rng.seed_sequence_s": "s",
    "runner.self_s": "s",
    "runner.tasks": "count",
    "runner.wait_s": "s",
    "runner.worker_busy_frac": "frac",
    "runner.first_result_s": "s",
    "runner.trials_executed": "count",
    "runner.trials_cached": "count",
    "runner.trials_failed": "count",
    "runner.vec_fallbacks": "count",
    "adversary.activate_s": "s",
    "adversary.activate_calls": "count",
    "adversary.activate_share": "frac",
    "vec.lower_s": "s",
    "vec.compile_s": "s",
    "vec.compile_cache_hits": "count",
    "vec.compile_cache_misses": "count",
    "vec.compile_cache_hit_ratio": "frac",
    "vec.batch_s": "s",
    "vec.batch_calls": "count",
    "vec.batch_rows_mean": "count",
    "vec.single_s": "s",
    "vec.single_calls": "count",
    "vec.rounds": "count",
    "engine.run_s": "s",
    "engine.runs": "count",
    "engine.rounds": "count",
    "checkpoint.load_s": "s",
    "checkpoint.load_calls": "count",
    "checkpoint.records_parsed": "count",
    "checkpoint.parse_amplification": "ratio",
    "checkpoint.append_s": "s",
    "checkpoint.bytes_written": "bytes",
    "report.s": "s",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}


def _rounds(result: Any, error: Any) -> int:
    """Rounds a run simulated: its result's, or the budget it exhausted."""
    if error is not None:
        return int(getattr(error, "max_rounds", 0))
    return int(result.rounds)


def install(tracer: Tracer, patch: Patch) -> None:
    """Wrap every layer boundary of the loaded program (see module doc)."""
    import repro.cli as cli
    from repro.analysis import runner
    from repro.analysis.sweep import CellResult
    from repro.analysis.tables import Table
    from repro.sim import adversary, rng, vec
    from repro.sim.engine import Engine

    SweepRunner, CheckpointStore = runner.SweepRunner, runner.CheckpointStore

    patch.attribute(cli, "main", tracer.timed("cli", cli.main))

    init = SweepRunner.__init__

    @functools.wraps(init)
    def init_probe(self: Any, *args: Any, **kwargs: Any) -> None:
        main = [frame for frame in tracer.stack if frame[0] == "cli"]
        if main:
            tracer.add("cli.s", time.perf_counter() - main[-1][1])
        init(self, *args, **kwargs)
        tracer.counts["runner.processes"] = max(
            tracer.counts.get("runner.processes", 0), self.processes
        )

    patch.attribute(SweepRunner, "__init__", tracer.timed("runner", init_probe))

    grid_start: List[float] = []
    run_grid = SweepRunner.run_grid

    @functools.wraps(run_grid)
    def run_grid_probe(self: Any, *args: Any, **kwargs: Any) -> Any:
        grid_start[:] = [time.perf_counter()]
        tracer.add("runner.grids")
        return run_grid(self, *args, **kwargs)

    note_done = SweepRunner._note_done

    @functools.wraps(note_done)
    def note_done_probe(self: Any, *args: Any, **kwargs: Any) -> None:
        if tracer.enabled and grid_start:
            tracer.add("runner.first_result_s", time.perf_counter() - grid_start.pop())
        note_done(self, *args, **kwargs)

    patch.attribute(SweepRunner, "run_grid", tracer.timed("runner", run_grid_probe))
    patch.attribute(SweepRunner, "close", tracer.timed("runner", SweepRunner.close))
    patch.attribute(SweepRunner, "_note_done", note_done_probe)
    patch.attribute(
        SweepRunner,
        "_iter_outputs",
        tracer.timed_generator("runner.wait", SweepRunner._iter_outputs, interval=True),
    )
    for name in ("_execute_any", "_execute_contained"):
        patch.attribute(runner, name, tracer.task(getattr(runner, name)))

    patch.attribute(
        CheckpointStore, "load", tracer.timed("checkpoint.load", CheckpointStore.load)
    )
    append = CheckpointStore.__dict__["append"].__func__
    patch.attribute(
        CheckpointStore, "append", staticmethod(tracer.timed("checkpoint.append", append))
    )
    patch.attribute(
        runner,
        "checkpoint_record_from_dict",
        tracer.counted("checkpoint.records_parsed", runner.checkpoint_record_from_dict),
    )

    patch.everywhere("repro", rng.node_rng, tracer.timed("rng.node_rng", rng.node_rng))
    patch.everywhere(
        "repro",
        rng.seed_sequence,
        tracer.timed_generator("rng.seed_sequence", rng.seed_sequence),
    )
    patch.everywhere(
        "repro",
        adversary.activate_random,
        tracer.timed("adversary.activate", adversary.activate_random),
    )

    compile_program, stats = vec.compile_program, vec.compile_cache_stats

    @functools.wraps(compile_program)
    def compile_probe(program: Any) -> Any:
        hits = stats()["hits"]
        compiled = compile_program(program)
        hit = stats()["hits"] > hits
        tracer.add("vec.compile_cache_hits" if hit else "vec.compile_cache_misses")
        return compiled

    patch.everywhere("repro", compile_program, tracer.timed("vec.compile", compile_probe))

    def after_batch(args: Any, kwargs: Dict[str, Any], outcomes: Any, error: Any) -> None:
        tracer.add("vec.batch_rows", len(kwargs["seeds"]))
        for outcome in outcomes or ():
            tracer.add("vec.rounds", _rounds(outcome.result, outcome.error))

    def after_single(args: Any, kwargs: Dict[str, Any], result: Any, error: Any) -> None:
        tracer.add("vec.rounds", _rounds(result, error))

    patch.everywhere(
        "repro",
        vec.run_program_batch,
        tracer.timed("vec.batch", vec.run_program_batch, after=after_batch),
    )
    patch.everywhere(
        "repro",
        vec.run_program,
        tracer.timed("vec.single", vec.run_program, after=after_single),
    )
    for cls in _lowerable_classes():
        lower = cls.__dict__["to_round_program"]
        patch.attribute(cls, "to_round_program", tracer.timed("vec.lower", lower))

    def after_engine(args: Any, kwargs: Dict[str, Any], result: Any, error: Any) -> None:
        if args[0].used_backend == "coroutine":
            tracer.add("engine.runs")
            tracer.add("engine.rounds", _rounds(result, error))

    patch.attribute(Engine, "run", tracer.timed("engine.run", Engine.run, after=after_engine))

    for owner, name in (
        (CellResult, "metric"),
        (CellResult, "rate"),
        (Table, "add_row"),
        (Table, "render"),
    ):
        patch.attribute(owner, name, tracer.timed("report", owner.__dict__[name]))


def _lowerable_classes() -> List[type]:
    """Loaded program classes that define their own IR lowering."""
    found: Dict[int, type] = {}
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if module is None or not name.startswith("repro"):
            continue
        for value in vars(module).values():
            if isinstance(value, type) and "to_round_program" in value.__dict__:
                found[id(value)] = value
    return list(found.values())


def analyze(
    coordinator: Dict[str, Any], workers: List[Dict[str, Any]], sample: Any
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics and the wall account of one traced iteration.

    The wall account charges the coordinator's own self times, then splits
    the part of its waiting that worker tasks cover among the worker
    layers in proportion to their self times.  Its entries sum to the
    iteration's wall time; ``unattributed`` is the root frame's self time.
    """
    processes = [coordinator] + workers

    def calls(name: str) -> float:
        return sum(p["layers"].get(name, (0, 0.0, 0.0))[0] for p in processes)

    def self_s(name: str) -> float:
        return sum(p["layers"].get(name, (0, 0.0, 0.0))[1] for p in processes)

    def count(name: str) -> float:
        return sum(p["counts"].get(name, 0.0) for p in processes)

    root_calls, unattributed, wall = coordinator["layers"][ROOT_FRAME]
    waits = [(s, e) for n, s, e in coordinator["intervals"] if n == "runner.wait"]
    tasks = [(s, e) for p in workers for n, s, e in p["intervals"] if n == Tracer.TASK]
    worker_covered = sum(covered(wait, tasks) for wait in waits)

    account = {
        name: entry[1]
        for name, entry in coordinator["layers"].items()
        if name != ROOT_FRAME
    }
    if "runner.wait" in account:
        account["runner.wait"] -= worker_covered
    worker_self: Dict[str, float] = {}
    for record in workers:
        for name, entry in record["layers"].items():
            worker_self[name] = worker_self.get(name, 0.0) + entry[1]
    worker_busy = sum(worker_self.values())
    for name, seconds in worker_self.items():
        share = worker_covered * seconds / worker_busy if worker_busy else 0.0
        account[name] = account.get(name, 0.0) + share
    account["unattributed"] = unattributed

    busy = sum(
        entry[1]
        for p in processes
        for name, entry in p["layers"].items()
        if name not in (ROOT_FRAME, "runner.wait")
    )
    hits, misses = count("vec.compile_cache_hits"), count("vec.compile_cache_misses")
    grids = count("runner.grids")
    pool = coordinator["counts"].get("runner.processes", 0)
    parsed = count("checkpoint.records_parsed")
    metrics = {
        "cli.s": count("cli.s"),
        "rng.node_rng_calls": calls("rng.node_rng"),
        "rng.node_rng_s": self_s("rng.node_rng"),
        "rng.seed_sequence_s": self_s("rng.seed_sequence"),
        "runner.self_s": self_s("runner"),
        "runner.tasks": count("runner.tasks"),
        "runner.wait_s": sum(e - s for s, e in waits),
        "runner.worker_busy_frac": (
            count("runner.task_busy_s") / (pool * wall) if pool else 0.0
        ),
        "runner.first_result_s": count("runner.first_result_s") / grids if grids else 0.0,
        "runner.trials_executed": sample.executed,
        "runner.trials_cached": sample.cached,
        "runner.trials_failed": sample.failed,
        "runner.vec_fallbacks": sample.fallbacks,
        "adversary.activate_s": self_s("adversary.activate"),
        "adversary.activate_calls": calls("adversary.activate"),
        "adversary.activate_share": self_s("adversary.activate") / busy if busy else 0.0,
        "vec.lower_s": self_s("vec.lower"),
        "vec.compile_s": self_s("vec.compile"),
        "vec.compile_cache_hits": hits,
        "vec.compile_cache_misses": misses,
        "vec.compile_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "vec.batch_s": self_s("vec.batch"),
        "vec.batch_calls": calls("vec.batch"),
        "vec.batch_rows_mean": (
            count("vec.batch_rows") / calls("vec.batch") if calls("vec.batch") else 0.0
        ),
        "vec.single_s": self_s("vec.single"),
        "vec.single_calls": calls("vec.single"),
        "vec.rounds": count("vec.rounds"),
        "engine.run_s": self_s("engine.run"),
        "engine.runs": count("engine.runs"),
        "engine.rounds": count("engine.rounds"),
        "checkpoint.load_s": self_s("checkpoint.load"),
        "checkpoint.load_calls": calls("checkpoint.load"),
        "checkpoint.records_parsed": parsed,
        "checkpoint.parse_amplification": (
            parsed / sample.store_records if sample.store_records else 0.0
        ),
        "checkpoint.append_s": self_s("checkpoint.append"),
        "checkpoint.bytes_written": sample.store_bytes,
        "report.s": self_s("report"),
        "trace.unattributed_frac": unattributed / wall,
        # share bases, kept for the notes' baseline table
        "trace.busy_s": busy,
        "trace.wall_s": wall,
    }
    return metrics, account
