"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands:

* ``repro list`` — list the experiment registry;
* ``repro experiment e7`` — run one experiment's full configuration;
* ``repro all`` — run every experiment (the full reproduction pass);
* ``repro solve --protocol fnw-general --n 4096 --channels 64 --active 100``
  — run a single execution and print the outcome (and optionally the trace);
* ``repro profile --protocol fnw-general --n 4096 --channels 64 --jsonl out.jsonl``
  — run instrumented executions and report the utilization/timing profile
  (see :mod:`repro.obs` and docs/observability.md);
* ``repro faults --models jamming cd-noise --trials 20`` — sweep the fault
  models over a protocol grid and report solve-rate degradation and round
  inflation (see :mod:`repro.faults` and docs/faults.md);
* ``repro sweep --trial general --axis n=4096 --axis C=8,64 --axis active=100
  --trials 200 --processes 4 --checkpoint-dir ckpt`` — run a registered
  trial over a parameter grid on a shared process pool with per-trial error
  containment and checkpoint/resume (see :mod:`repro.analysis.runner`);
* ``repro atlas --cd strong noise-0.2 none --jsonl atlas.jsonl`` — run the
  CD-quality crossover atlas (experiment E22): CD protocols vs the no-CD
  baseline zoo as collision detection degrades (see docs/atlas.md).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional

from .analysis.tables import print_header
from .experiments import REGISTRY
from .experiments.common import make_protocol
from .protocols import solve as run_solve
from .sim import activate_random


def _cmd_list(_args: argparse.Namespace) -> int:
    for key, (_module, description) in REGISTRY.items():
        print(f"{key:>4}  {description}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    key = args.id.lower()
    if key not in REGISTRY:
        print(f"unknown experiment {key!r}; try 'repro list'", file=sys.stderr)
        return 2
    module, description = REGISTRY[key]
    print_header(f"Experiment {key}", description)
    module.main()
    return 0


def _cmd_all(_args: argparse.Namespace) -> int:
    for key, (module, description) in REGISTRY.items():
        print_header(f"Experiment {key}", description)
        module.main()
        print()
    return 0


def _cmd_verify(_args: argparse.Namespace) -> int:
    from .verify import verify_all

    reports = verify_all()
    for report in reports:
        print(report.summary())
        for failure in report.failures:
            print(f"  FAIL: {failure}")
    return 0 if all(report.ok for report in reports) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .report import ReportOptions, write_report

    options = ReportOptions(
        scale=args.scale, only=args.only, profile_appendix=args.profile_appendix
    )
    write_report(args.output, options)
    print(f"report written to {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .analysis.tables import Table
    from .experiments.common import make_protocol
    from .obs.profile import run_profiled

    active = args.active if args.active is not None else args.n
    if args.trials < 1:
        raise SystemExit("repro profile: --trials must be >= 1")
    if args.trials > 1:
        from .analysis.parallel import run_cell_parallel_profiled

        params = {
            "protocol": args.protocol,
            "n": args.n,
            "C": args.channels,
            "active": active,
        }
        if args.backend != "coroutine":
            params["backend"] = args.backend
        profile = run_cell_parallel_profiled(
            "solve-profiled",
            params,
            trials=args.trials,
            master_seed=args.seed,
            processes=args.processes,
        )
        registry = profile.registry
        counters = registry.snapshot()["counters"]
        solved = int(counters.get("solved_runs", 0))
        print(
            f"protocol={args.protocol} n={args.n} C={args.channels} "
            f"active={active} master_seed={args.seed} trials={args.trials}"
        )
        print(
            f"solved {solved}/{args.trials}; mean rounds "
            f"{profile.cell.mean('rounds'):.2f}; throughput "
            f"{profile.throughput():.1f} trials/s over {profile.wall_seconds:.3f}s"
        )
        workers = Table(
            ["worker", "trials", "seconds", "trials/s"],
            caption="per-worker timing",
            digits=3,
        )
        for stats in profile.workers:
            workers.add_row(stats.worker, stats.trials, stats.seconds, stats.throughput())
        print()
        print(workers.render())
    else:
        protocol = make_protocol(args.protocol)
        run = run_profiled(
            protocol,
            n=args.n,
            num_channels=args.channels,
            activation=activate_random(args.n, active, seed=args.seed),
            seed=args.seed,
            backend=args.backend,
        )
        registry = run.registry
        counters = registry.snapshot()["counters"]
        result = run.result
        print(
            f"protocol={protocol.name} n={args.n} C={args.channels} "
            f"active={active} seed={args.seed}"
        )
        print(
            f"solved={result.solved} round={result.solved_round} "
            f"winner=node-{result.winner} rounds={result.rounds}"
        )
        print(f"throughput: {run.rounds_per_second():.0f} rounds/s")
        if args.jsonl:
            run.write_jsonl(args.jsonl)
            print(f"profile written to {args.jsonl} ({len(run.events) + 1} records)")

    outcome_line = ", ".join(
        f"{kind}={int(counters.get(f'channel_{kind}', 0))}"
        for kind in ("silence", "message", "collision")
    )
    print(
        f"channel-rounds: {outcome_line}; transmissions="
        f"{int(counters.get('transmissions', 0))} "
        f"listens={int(counters.get('listens', 0))}"
    )
    usage = {
        int(name.split("/")[1]): value
        for name, value in counters.items()
        if name.startswith("channel/") and name.endswith("/participant_rounds")
    }
    if usage:
        table = Table(
            ["channel", "participant-rounds", "transmissions"],
            caption="busiest channels",
        )
        for channel in sorted(usage, key=lambda c: (-usage[c], c))[: args.top]:
            table.add_row(
                channel,
                int(usage[channel]),
                int(counters.get(f"channel/{channel}/transmissions", 0)),
            )
        print()
        print(table.render())
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .experiments import fault_tolerance

    if args.trials < 1:
        raise SystemExit("repro faults: --trials must be >= 1")
    config = fault_tolerance.Config(
        n=args.n,
        num_channels=args.channels,
        active_count=args.active,
        protocols=tuple(args.protocols),
        models=tuple(args.models),
        intensities=tuple(args.intensities),
        trials=args.trials,
        max_rounds=args.max_rounds,
        master_seed=args.seed,
        harden=args.harden,
    )
    print(
        f"fault sweep: n={config.n} C={config.num_channels} "
        f"active={config.active_count} trials={config.trials} "
        f"max_rounds={config.max_rounds} master_seed={config.master_seed}"
        + (" hardened=repro.robust" if config.harden else "")
    )
    print()
    outcome = fault_tolerance.run(config)
    print(outcome.table.render())
    print()
    print(
        f"monotone degradation: {outcome.monotone_degradation()}; "
        + "; ".join(
            f"worst {model} solve rate {outcome.min_rate(model):.2f}"
            for model in config.models
        )
    )
    dead = outcome.dead_cells()
    if dead:
        print()
        print(
            "unsolved cells (no trial solved; jammed/noised to the round "
            "limit): "
            + ", ".join(f"{p}/{m}@{i:g}" for p, m, i in dead)
        )
        return 1
    return 0


def _parse_axis_value(text: str):
    """One grid-axis value: bool, int, float, or (fallback) string.

    Booleans are spelled ``true`` / ``false`` and parsed before ints so a
    flag axis stays a bool axis (cell lookup is type-aware).
    """
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_axes(specs) -> "dict":
    axes = {}
    for spec in specs:
        name, separator, values = spec.partition("=")
        if not separator or not name or not values:
            raise SystemExit(
                f"repro sweep: bad --axis {spec!r}; expected name=v1,v2,..."
            )
        axes[name] = [_parse_axis_value(value) for value in values.split(",")]
    return axes


def _build_supervision(args: argparse.Namespace):
    """The sweep command's supervision policy and chaos plan (or Nones).

    Raises ``SystemExit`` with a usage message on bad values, so the
    runner's ``ValueError``s never surface as tracebacks.
    """
    from .analysis.supervise import SupervisionPolicy
    from .faults.chaos import ChaosPlan

    supervision = None
    if args.timeout is not None or args.max_attempts != 1:
        try:
            supervision = SupervisionPolicy(
                timeout=args.timeout, max_attempts=args.max_attempts
            )
        except ValueError as error:
            raise SystemExit(f"repro sweep: {error}")
    chaos = None
    if args.chaos:
        try:
            chaos = ChaosPlan.parse(args.chaos, seed=args.chaos_seed)
        except ValueError as error:
            raise SystemExit(f"repro sweep: bad --chaos spec: {error}")
        if supervision is None or not supervision.active:
            raise SystemExit(
                "repro sweep: --chaos requires supervision "
                "(--timeout and/or --max-attempts > 1)"
            )
    return supervision, chaos


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.runner import SweepRunner, format_failures
    from .analysis.sweep import grid_product
    from .analysis.tables import Table
    from .obs.metrics import MetricsRegistry

    if args.trials < 1:
        raise SystemExit("repro sweep: --trials must be >= 1")
    axes = _parse_axes(args.axis or [])
    if not axes:
        raise SystemExit("repro sweep: at least one --axis is required")
    grid = grid_product(**axes)
    if args.backend is not None:
        # Constant cell parameter, not an axis: forwarded to backend-aware
        # trials (e.g. "baseline"); omitted entirely by default so existing
        # checkpoint records keep their schema.
        for cell in grid:
            cell["backend"] = args.backend
    if args.draws is not None:
        for cell in grid:
            cell["draws"] = args.draws
    if args.vec_batch and (args.backend != "vec" or args.draws != "counter"):
        raise SystemExit(
            "repro sweep: --vec-batch needs --backend vec --draws counter "
            "(counter draws are what keep batched and per-trial dispatch "
            "bitwise-identical)"
        )

    supervision, chaos = _build_supervision(args)
    metrics = MetricsRegistry()
    supervised = (
        f"timeout={args.timeout or 'off'} max_attempts={args.max_attempts}"
        if supervision is not None
        else "off"
    )
    print(
        f"sweep: trial={args.trial} cells={len(grid)} trials/cell={args.trials} "
        f"master_seed={args.seed} processes={args.processes or 'auto'} "
        f"checkpoint={args.checkpoint_dir or 'off'} supervision={supervised}"
        + (f" chaos={args.chaos}" if chaos is not None else "")
    )
    with SweepRunner(
        processes=args.processes,
        checkpoint_dir=args.checkpoint_dir,
        resume=not args.no_resume,
        retry_failures=args.retry_failures,
        metrics=metrics,
        supervision=supervision,
        chaos=chaos,
        vec_batch=args.vec_batch,
        vec_batch_size=args.vec_batch_size,
    ) as runner:
        sweep = runner.run_grid(
            args.trial, grid, trials=args.trials, master_seed=args.seed
        )

    names = list(axes)
    table = Table(
        names + ["ok", "failed", f"mean_{args.metric}", "solve_rate"],
        caption=f"{args.trial} sweep ({args.trials} trials/cell)",
        digits=2,
    )
    for cell in sweep.cells:
        values = cell.metric(args.metric)
        has_solved = bool(cell.metric("solved")) or bool(cell.failures)
        table.add_row(
            *[cell.params[name] for name in names],
            len(cell.trials),
            len(cell.failures),
            sum(values) / len(values) if values else "-",
            cell.rate("solved") if has_solved else "-",
        )
    print()
    print(table.render())

    counters = metrics.snapshot()["counters"]
    executed = int(counters.get("sweep/trials_executed", 0))
    cached = int(counters.get("sweep/trials_cached", 0))
    failed = int(counters.get("sweep/trials_failed", 0))
    print()
    print(f"trials: {executed} executed, {cached} cached, {failed} failed")
    fallbacks = int(counters.get("sweep/vec_fallbacks", 0))
    if fallbacks:
        print(f"vec fallbacks: {fallbacks} trial(s) ran on the coroutine engine")
    retries = int(counters.get("sweep/retry/scheduled", 0))
    restarts = int(counters.get("sweep/pool_restart", 0))
    quarantined = int(counters.get("sweep/quarantine/trials", 0))
    if retries or restarts or quarantined:
        print(
            f"supervision: {retries} retried, {restarts} pool restart(s), "
            f"{quarantined} quarantined"
        )
    if failed:
        for line in format_failures(sweep.cells):
            print(f"  FAIL {line}")
    return 1 if failed else 0


def _cmd_arrivals(args: argparse.Namespace) -> int:
    import json

    from .analysis.runner import SweepRunner, format_failures
    from .analysis.stability import estimate_from_cells
    from .analysis.sweep import grid_product
    from .analysis.tables import Table
    from .experiments.common import make_protocol

    if args.trials < 1:
        raise SystemExit("repro arrivals: --trials must be >= 1")
    if args.horizon < 1:
        raise SystemExit("repro arrivals: --horizon must be >= 1")
    if any(rate < 0 for rate in args.rates):
        raise SystemExit("repro arrivals: rates must be >= 0")
    for name in args.protocols:
        try:
            make_protocol(name)
        except KeyError as error:
            raise SystemExit(f"repro arrivals: {error.args[0]}")

    grid = grid_product(protocol=args.protocols, rate=args.rates)
    for cell in grid:
        cell["C"] = args.channels
        cell["horizon"] = args.horizon
        cell["process"] = args.process
        if args.initial:
            cell["initial"] = args.initial
        if args.period:
            cell["period"] = args.period
        if args.process == "diurnal":
            cell["amplitude"] = args.amplitude
        if args.model is not None:
            cell["model"] = args.model
            cell["intensity"] = args.intensity
        if args.backend != "coroutine":
            cell["backend"] = args.backend

    print(
        f"arrival sweep: protocols={','.join(args.protocols)} "
        f"rates={','.join(f'{r:g}' for r in args.rates)} "
        f"horizon={args.horizon} C={args.channels} process={args.process} "
        f"trials={args.trials} master_seed={args.seed}"
        + (f" faults={args.model}@{args.intensity:g}" if args.model else "")
    )
    with SweepRunner(
        processes=args.processes,
        checkpoint_dir=args.checkpoint_dir,
    ) as runner:
        sweep = runner.run_grid(
            "arrivals", grid, trials=args.trials, master_seed=args.seed
        )

    table = Table(
        [
            "protocol",
            "rate",
            "ok",
            "failed",
            "throughput",
            "p50",
            "p95",
            "p99",
            "backlog",
            "drained",
        ],
        caption=f"steady-state metrics ({args.trials} trials/cell)",
        digits=2,
    )
    for cell in sweep.cells:
        table.add_row(
            cell.params["protocol"],
            cell.params["rate"],
            len(cell.trials),
            len(cell.failures),
            cell.mean("throughput") if cell.trials else "-",
            cell.mean("latency_p50") if cell.trials else "-",
            cell.mean("latency_p95") if cell.trials else "-",
            cell.mean("latency_p99") if cell.trials else "-",
            cell.mean("backlog_final") if cell.trials else "-",
            cell.rate("drained") if cell.trials else "-",
        )
    print()
    print(table.render())
    print()

    records = []
    for cell in sweep.cells:
        means = {
            name: sum(values) / len(values)
            for name in sorted(cell.trials[0])
            for values in [cell.metric(name)]
            if values
        } if cell.trials else {}
        records.append(
            {
                "schema": 1,
                "type": "cell",
                "protocol": cell.params["protocol"],
                "rate": cell.params["rate"],
                "params": dict(cell.params),
                "trials": [dict(trial) for trial in cell.trials],
                "failed": len(cell.failures),
                "mean": means,
            }
        )

    failed_total = 0
    for protocol in args.protocols:
        cells = [c for c in sweep.cells if c.params["protocol"] == protocol]
        failed_total += sum(len(c.failures) for c in cells)
        estimate = estimate_from_cells(
            (c for c in cells if c.trials), threshold=args.threshold
        )
        if estimate.boundary is not None:
            verdict = f"stability boundary lambda* ~= {estimate.boundary:.4f}"
        else:
            verdict = (
                "no stability boundary within the swept range "
                f"(all leftover fractions <= {args.threshold:g})"
            )
        print(f"{protocol}: {verdict}")
        records.append(
            {
                "schema": 1,
                "type": "stability",
                "protocol": protocol,
                "threshold": args.threshold,
                "rates": list(estimate.rates),
                "leftover_fractions": list(estimate.fractions),
                "boundary": estimate.boundary,
            }
        )

    if args.jsonl:
        header = {
            "schema": 1,
            "type": "meta",
            "trial": "arrivals",
            "horizon": args.horizon,
            "channels": args.channels,
            "process": args.process,
            "trials": args.trials,
            "master_seed": args.seed,
            "threshold": args.threshold,
        }
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            for record in [header] + records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"\nmetrics written to {args.jsonl} ({len(records) + 1} records)")

    if failed_total:
        print()
        for line in format_failures(sweep.cells):
            print(f"  FAIL {line}")
        return 1
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    import json

    from .experiments import crossover_atlas
    from .experiments.common import make_protocol

    if args.trials < 1:
        raise SystemExit("repro atlas: --trials must be >= 1")
    if args.max_rounds < 1:
        raise SystemExit("repro atlas: --max-rounds must be >= 1")
    for name in args.protocols:
        try:
            make_protocol(name)
        except KeyError as error:
            raise SystemExit(f"repro atlas: {error.args[0]}")
    for cd in args.cd:
        try:
            crossover_atlas.parse_cd_quality(cd)
        except ValueError as error:
            raise SystemExit(f"repro atlas: {error}")

    config = crossover_atlas.Config(
        protocols=tuple(args.protocols),
        ns=tuple(args.n),
        channels=tuple(args.channels),
        cd_qualities=tuple(args.cd),
        trials=args.trials,
        max_rounds=args.max_rounds,
        master_seed=args.seed,
        energy_cost=args.energy_cost,
        collision_cost=args.collision_cost,
        processes=args.processes,
        checkpoint_dir=args.checkpoint_dir,
    )
    print(
        f"crossover atlas: protocols={','.join(config.protocols)} "
        f"n={','.join(str(n) for n in config.ns)} "
        f"C={','.join(str(c) for c in config.channels)} "
        f"cd={','.join(config.cd_qualities)} trials={config.trials} "
        f"max_rounds={config.max_rounds} master_seed={config.master_seed}"
        + (
            f" cost=rounds+{config.energy_cost:g}*tx+{config.collision_cost:g}*coll"
            if config.energy_cost or config.collision_cost
            else ""
        )
    )
    print()
    outcome = crossover_atlas.run(config)
    print(outcome.table.render())
    print()
    frontier = outcome.crossover_frontier()
    total = len(outcome.coordinates) * len(outcome.cd_qualities)
    print(
        f"no-CD wins {outcome.nocd_win_count()} of {total} coordinates; "
        f"blind columns constant: {outcome.blind_columns_constant()}"
    )
    for n, C in outcome.coordinates:
        crossover = frontier[(n, C)]
        print(
            f"n={n} C={C}: "
            + (
                f"no-CD takes the lead at cd={crossover}"
                if crossover
                else "CD wins at every swept quality"
            )
        )

    if args.jsonl:
        records = [
            {
                "schema": 1,
                "type": "meta",
                "trial": "atlas",
                "protocols": list(config.protocols),
                "ns": list(config.ns),
                "channels": list(config.channels),
                "cd": list(config.cd_qualities),
                "trials": config.trials,
                "max_rounds": config.max_rounds,
                "master_seed": config.master_seed,
                "energy_cost": config.energy_cost,
                "collision_cost": config.collision_cost,
            }
        ]
        for (protocol, n, C, cd), stats in sorted(outcome.cells.items()):
            records.append(
                {
                    "schema": 1,
                    "type": "cell",
                    "protocol": protocol,
                    "n": n,
                    "C": C,
                    "cd": cd,
                    "solve_rate": stats.solve_rate,
                    "mean_rounds": stats.mean_rounds,
                    "mean_cost": stats.mean_cost,
                    "crash_rate": stats.crash_rate,
                }
            )
        for n, C in outcome.coordinates:
            records.append(
                {
                    "schema": 1,
                    "type": "frontier",
                    "n": n,
                    "C": C,
                    "crossover": frontier[(n, C)],
                }
            )
        records.append(
            {
                "schema": 1,
                "type": "verdict",
                "nocd_wins": outcome.nocd_win_count(),
                "coordinates": total,
                "blind_columns_constant": outcome.blind_columns_constant(),
            }
        )
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"\natlas written to {args.jsonl} ({len(records)} records)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .sim.serialize import load_trace

    trace = load_trace(args.path)
    print(trace.render(max_rounds=args.rounds, max_channels=args.channels))
    usage = trace.channel_utilization()
    if usage:
        print()
        busiest = max(usage, key=lambda channel: usage[channel])
        print(
            f"{len(trace.rounds)} recorded rounds; {len(usage)} channels "
            f"touched; busiest: ch{busiest} ({usage[busiest]} participant-rounds)"
        )
    labels = {}
    for mark in trace.marks:
        labels[mark.label] = labels.get(mark.label, 0) + 1
    if labels:
        print("marks: " + ", ".join(f"{k} x{v}" for k, v in sorted(labels.items())))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    protocol = make_protocol(args.protocol)
    active = args.active if args.active is not None else args.n
    activation = activate_random(args.n, active, seed=args.seed)
    result = run_solve(
        protocol,
        n=args.n,
        num_channels=args.channels,
        activation=activation,
        seed=args.seed,
        record_trace=args.trace or bool(args.save_trace),
    )
    print(
        f"protocol={protocol.name} n={args.n} C={args.channels} "
        f"active={active} seed={args.seed}"
    )
    print(
        f"solved={result.solved} round={result.solved_round} "
        f"winner=node-{result.winner}"
    )
    if args.trace:
        print()
        print(result.trace.render(max_channels=min(args.channels, 16)))
    if args.save_trace:
        from .sim.serialize import save_result

        save_result(result, args.save_trace)
        print(f"trace saved to {args.save_trace}")
    return 0 if result.solved else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Contention Resolution on Multiple Channels "
            "with Collision Detection' (PODC 2016)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list experiments")
    list_parser.set_defaults(fn=_cmd_list)

    experiment_parser = subparsers.add_parser("experiment", help="run one experiment")
    experiment_parser.add_argument("id", help="experiment id, e.g. e7")
    experiment_parser.set_defaults(fn=_cmd_experiment)

    all_parser = subparsers.add_parser("all", help="run every experiment")
    all_parser.set_defaults(fn=_cmd_all)

    verify_parser = subparsers.add_parser(
        "verify", help="exhaustively verify the deterministic components"
    )
    verify_parser.set_defaults(fn=_cmd_verify)

    report_parser = subparsers.add_parser(
        "report", help="regenerate EXPERIMENTS.md from live runs"
    )
    report_parser.add_argument("--output", default="EXPERIMENTS.md")
    report_parser.add_argument("--scale", choices=("quick", "full"), default="quick")
    report_parser.add_argument(
        "--only", nargs="*", help="experiment keys to include, e.g. e1 e7"
    )
    report_parser.add_argument(
        "--profile-appendix",
        action="store_true",
        help="append a substrate utilization/throughput profile section",
    )
    report_parser.set_defaults(fn=_cmd_report)

    profile_parser = subparsers.add_parser(
        "profile", help="run instrumented executions and report the profile"
    )
    profile_parser.add_argument("--protocol", default="fnw-general")
    profile_parser.add_argument("--n", type=int, default=1 << 12)
    profile_parser.add_argument("--channels", type=int, default=64)
    profile_parser.add_argument("--active", type=int, default=None)
    profile_parser.add_argument("--seed", type=int, default=0)
    profile_parser.add_argument(
        "--trials",
        type=int,
        default=1,
        help="run a profiled sweep cell of this many seeded trials",
    )
    profile_parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="worker processes for --trials > 1 (default: cpu count)",
    )
    profile_parser.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write per-round events + summary as JSON lines (single-run only)",
    )
    profile_parser.add_argument(
        "--top", type=int, default=8, help="channels shown in the utilization table"
    )
    profile_parser.add_argument(
        "--backend",
        choices=("coroutine", "vec"),
        default="coroutine",
        help="engine backend; 'vec' needs the [vec] extra (NumPy) and an "
        "IR-lowerable protocol, falling back to 'coroutine' with a warning",
    )
    profile_parser.set_defaults(fn=_cmd_profile)

    faults_parser = subparsers.add_parser(
        "faults",
        help="sweep fault models (jamming / cd-noise / churn) over protocols",
    )
    faults_parser.add_argument("--n", type=int, default=256)
    faults_parser.add_argument("--channels", type=int, default=16)
    faults_parser.add_argument("--active", type=int, default=24)
    faults_parser.add_argument("--trials", type=int, default=30)
    faults_parser.add_argument("--seed", type=int, default=20)
    faults_parser.add_argument("--max-rounds", type=int, default=3000)
    faults_parser.add_argument(
        "--protocols",
        nargs="+",
        default=["two-active", "fnw-general", "decay", "daum-multichannel"],
        help="protocol names from the solve registry",
    )
    faults_parser.add_argument(
        "--models",
        nargs="+",
        default=["jamming", "cd-noise", "churn"],
        choices=["jamming", "cd-noise", "churn"],
        help="fault models to sweep (each also gets a fault-free baseline)",
    )
    faults_parser.add_argument(
        "--intensities",
        nargs="+",
        type=float,
        default=[0.1, 0.3, 0.6],
        help="intensity knob per model (see repro.faults.plan_for)",
    )
    faults_parser.add_argument(
        "--harden",
        action="store_true",
        help="wrap each protocol with repro.robust.harden (combinators "
        "chosen per fault plan) before injecting",
    )
    faults_parser.set_defaults(fn=_cmd_faults)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a registered trial over a grid on a shared process pool",
    )
    sweep_parser.add_argument(
        "--trial",
        default="general",
        help="registered trial name (see repro.analysis.parallel.registered_trials)",
    )
    sweep_parser.add_argument(
        "--axis",
        action="append",
        metavar="NAME=V1,V2,...",
        help="one grid axis (repeatable); values parse as bool/int/float/str",
    )
    sweep_parser.add_argument("--trials", type=int, default=50)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="pool size shared by the whole grid (default: cpu count)",
    )
    sweep_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="JSONL checkpoint store; finished trials are never re-run",
    )
    sweep_parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore (but keep) existing checkpoint records",
    )
    sweep_parser.add_argument(
        "--retry-failures",
        action="store_true",
        help="on resume, re-run trials whose checkpoint records are failures",
    )
    sweep_parser.add_argument(
        "--metric", default="rounds", help="metric to average in the summary table"
    )
    sweep_parser.add_argument(
        "--backend",
        choices=("coroutine", "vec"),
        default=None,
        help="engine backend forwarded to backend-aware trials (e.g. "
        "'baseline') as a constant cell parameter; omitted by default",
    )
    sweep_parser.add_argument(
        "--draws",
        choices=("auto", "exact", "counter"),
        default=None,
        help="vec draw mode forwarded as a constant cell parameter; "
        "'counter' is what makes cells eligible for --vec-batch",
    )
    sweep_parser.add_argument(
        "--vec-batch",
        action="store_true",
        help="dispatch whole chunks of replications as one batched vec "
        "execution (needs --backend vec --draws counter; results are "
        "bitwise-identical to per-trial dispatch)",
    )
    sweep_parser.add_argument(
        "--vec-batch-size",
        type=int,
        default=None,
        metavar="R",
        help="replications per batched task (default: one batch per worker, "
        "capped at 128)",
    )
    sweep_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-trial wall-clock watchdog; hung or killed workers are "
        "reaped, the pool self-heals, repeat offenders are quarantined",
    )
    sweep_parser.add_argument(
        "--max-attempts",
        type=int,
        default=1,
        metavar="N",
        help="total dispatch attempts per failing trial (retry with "
        "exponential backoff and seed-deterministic jitter); default 1",
    )
    sweep_parser.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="arm the chaos harness in pool workers, e.g. "
        "'kill=0.2,hang=0.1,error=0.3' (requires --timeout/--max-attempts)",
    )
    sweep_parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="root seed of the chaos injection stream (default 0)",
    )
    sweep_parser.set_defaults(fn=_cmd_sweep)

    arrivals_parser = subparsers.add_parser(
        "arrivals",
        help="sweep arrival rates against protocols under continuous traffic",
    )
    arrivals_parser.add_argument(
        "--protocols",
        nargs="+",
        default=["sawtooth-backoff"],
        metavar="NAME",
        help="protocol names from the registry (default: sawtooth-backoff)",
    )
    arrivals_parser.add_argument(
        "--rates",
        nargs="+",
        type=float,
        default=[0.05, 0.1, 0.2, 0.3],
        metavar="LAMBDA",
        help="arrival rates in packets per round",
    )
    arrivals_parser.add_argument("--horizon", type=int, default=400)
    arrivals_parser.add_argument("--channels", type=int, default=1)
    arrivals_parser.add_argument("--trials", type=int, default=5)
    arrivals_parser.add_argument("--seed", type=int, default=0)
    arrivals_parser.add_argument(
        "--process",
        choices=("poisson", "batch", "diurnal"),
        default="poisson",
        help="arrival process shape",
    )
    arrivals_parser.add_argument(
        "--initial",
        type=int,
        default=0,
        help="packets present at round 1 in addition to the stream",
    )
    arrivals_parser.add_argument(
        "--period",
        type=int,
        default=0,
        help="batch spacing / diurnal period in rounds (0: process default)",
    )
    arrivals_parser.add_argument(
        "--amplitude",
        type=float,
        default=0.5,
        help="diurnal modulation depth in [0, 1]",
    )
    arrivals_parser.add_argument(
        "--model",
        choices=("jamming", "cd-noise", "churn"),
        default=None,
        help="optional fault model applied to every run",
    )
    arrivals_parser.add_argument(
        "--intensity", type=float, default=0.0, help="fault model intensity"
    )
    arrivals_parser.add_argument(
        "--backend",
        choices=("coroutine", "vec"),
        default="coroutine",
        help="engine backend (vec falls back per-run when unsupported)",
    )
    arrivals_parser.add_argument("--processes", type=int, default=None)
    arrivals_parser.add_argument("--checkpoint-dir", metavar="DIR")
    arrivals_parser.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write per-cell metrics and stability records as JSON lines",
    )
    arrivals_parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="leftover fraction above which a rate counts as unstable",
    )
    arrivals_parser.set_defaults(fn=_cmd_arrivals)

    atlas_parser = subparsers.add_parser(
        "atlas",
        help="run the CD-quality crossover atlas (E22): CD protocols vs "
        "the no-CD baseline zoo as collision detection degrades",
    )
    atlas_parser.add_argument(
        "--protocols",
        nargs="+",
        default=["fnw-general", "decay", "bk-backoff", "dmks-nonadaptive"],
        metavar="NAME",
        help="protocol names from the solve registry",
    )
    atlas_parser.add_argument(
        "--n", nargs="+", type=int, default=[16, 64], help="namespace sizes"
    )
    atlas_parser.add_argument(
        "--channels", nargs="+", type=int, default=[1, 8], help="channel counts"
    )
    atlas_parser.add_argument(
        "--cd",
        nargs="+",
        default=["strong", "noise-0.1", "noise-0.3", "none"],
        metavar="QUALITY",
        help="CD-quality axis, clean to degraded: 'strong', 'noise-<x>' "
        "(strong CD plus repro.faults CD noise at intensity x), 'none'",
    )
    atlas_parser.add_argument("--trials", type=int, default=10)
    atlas_parser.add_argument("--seed", type=int, default=22)
    atlas_parser.add_argument(
        "--max-rounds",
        type=int,
        default=6400,
        help="round budget per trial; also the censored score of an "
        "unsolved or crashed trial",
    )
    atlas_parser.add_argument(
        "--energy-cost",
        type=float,
        default=0.0,
        help="cost weight per transmission (nonzero attaches instrumentation)",
    )
    atlas_parser.add_argument(
        "--collision-cost",
        type=float,
        default=0.0,
        help="cost weight per collision channel-round",
    )
    atlas_parser.add_argument("--processes", type=int, default=None)
    atlas_parser.add_argument("--checkpoint-dir", metavar="DIR")
    atlas_parser.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write per-cell means, frontier, and verdict as JSON lines",
    )
    atlas_parser.set_defaults(fn=_cmd_atlas)

    replay_parser = subparsers.add_parser(
        "replay", help="render a saved execution trace"
    )
    replay_parser.add_argument("path", help="JSON file from 'solve --save-trace'")
    replay_parser.add_argument("--rounds", type=int, default=40)
    replay_parser.add_argument("--channels", type=int, default=16)
    replay_parser.set_defaults(fn=_cmd_replay)

    solve_parser = subparsers.add_parser("solve", help="run one execution")
    solve_parser.add_argument("--protocol", default="fnw-general")
    solve_parser.add_argument("--n", type=int, default=1 << 12)
    solve_parser.add_argument("--channels", type=int, default=64)
    solve_parser.add_argument("--active", type=int, default=None)
    solve_parser.add_argument("--seed", type=int, default=0)
    solve_parser.add_argument("--trace", action="store_true")
    solve_parser.add_argument(
        "--save-trace", metavar="PATH", help="write the execution as JSON"
    )
    solve_parser.set_defaults(fn=_cmd_solve)
    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses across calls in one process.

    Building one allocates a few thousand argparse objects tied up in
    reference cycles; a caller that re-enters :func:`main` (a study
    re-run against its checkpoint store, say) would otherwise pile that
    garbage up between cyclic collections.
    """
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _shared_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
