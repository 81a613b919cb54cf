#!/usr/bin/env python3
"""Layered sweep benchmark of the repro package.

Run from the repository root::

    python3 perfbench/run.py --workload theorem_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Workloads: theorem_sweep, vec_batch_sweep, sweep_resume, vec_mega (see
NOTES.md), or ``all``, which runs each in its own process.  After one
warm-up iteration the run repeats the workload for ``--seconds``.  With
``--trace 0`` it reports the end-to-end metrics, every timed block scaled
to a nominal host speed by the probe runs around it (probe.py); with
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics, the tracing overhead and a wall account whose lines sum
to the traced wall time.  Every iteration's outputs are checked; a failed check
makes ``correct`` false and the exit code 1.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw per-iteration samples,
the aggregates and a host fingerprint are written to
``.perfbench/results/<run>/`` (metrics.jsonl, summary.json, manifest.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

import layers
from probe import NOMINAL_S, HostProbe
from spans import Patch, Tracer
from stats import pooled_rate, summarize, validate_name, validate_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".perfbench", "results")

WORKLOAD_NAMES = ("theorem_sweep", "vec_batch_sweep", "sweep_resume", "vec_mega")

#: Workloads that must never run a trial on the coroutine engine.
VEC_ONLY = ("vec_batch_sweep", "sweep_resume", "vec_mega")

END_TO_END = {
    "trials_per_s": "1/s",
    "sim_rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed beside the end-to-end metrics but kept off the result line: it is
#: 0 on a healthy run, and a result-line metric must never be 0.  The line
#: carries it as ``attempted`` and ``failed``.
FAILED_FRAC = {"failed_frac": "frac"}

IMPORT_REPEATS = 5
#: NumPy is imported before the clock starts: its import time is not the
#: program's, and it is bimodal on a 2-vCPU VM (about 0.09 s or 0.165 s).
IMPORT_PROBE = (
    "import time, numpy; start = time.perf_counter(); "
    "import repro.cli, repro.analysis.runner, repro.experiments.common, repro.sim.vec; "
    "print(time.perf_counter() - start)"
)

#: Probe time after each untraced iteration, as a share of the iteration's
#: wall time: a long iteration averages over more of the host's drift, so
#: it takes more probe time to match.
PROBE_SHARE = 0.15


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def import_seconds() -> float:
    """Import time of the program's sweep and vec modules in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=program_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip())


def fingerprint(seed: int) -> Dict[str, Any]:
    """Host and program identity recorded beside every run's samples."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (pool
    workers and import probes), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def metric_entry(summary: Any, unit: str) -> Dict[str, Any]:
    return {
        "median": summary.median,
        "q1": summary.q1,
        "q3": summary.q3,
        "count": summary.count,
        "unit": unit,
    }


def traced_run(workload: Any, tracer: Tracer) -> Tuple[Any, Dict[str, float], Dict[str, float]]:
    """One iteration with every layer probe installed, then removed; the
    sample, its per-layer metrics and its wall account."""
    patch = Patch()
    layers.install(tracer, patch)
    tracer.start()
    try:
        sample = workload.run(tracer)
    finally:
        tracer.stop()
        patch.restore()
    metrics, account = layers.analyze(*tracer.collect(), sample)
    return sample, metrics, account


def run_workload(args: argparse.Namespace) -> int:
    with HostProbe() as probe:
        return measure_workload(args, probe)


def measure_workload(args: argparse.Namespace, probe: HostProbe) -> int:
    imports = [probe.scaled(import_seconds) for _ in range(IMPORT_REPEATS)]
    sys.path.insert(0, SRC)

    import workloads

    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_dir = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    )
    os.makedirs(out_dir)
    workload = workloads.WORKLOADS[args.workload](args.seed, os.path.join(out_dir, "work"))
    tracer = Tracer(os.path.join(out_dir, "spans")) if args.trace else None
    rows: List[Dict[str, Any]] = []
    untraced: List[Any] = []
    traced: List[Any] = []
    layer_samples: List[Dict[str, float]] = []
    account: Dict[str, float] = {}
    guard: List[str] = []

    def keep(kind: str, sample: Any, extra: Optional[Dict[str, Any]] = None) -> Any:
        rows.append(dict(kind=kind, **asdict(sample), **(extra or {})))
        return sample

    try:
        setup_work = [probe.scaled(workload.setup_once) for _ in range(workload.SETUP_REPEATS)]
        keep("warmup", workload.run())
        deadline = time.perf_counter() + args.seconds
        before = probe.measure() if tracer is None else 0.0
        while not untraced or time.perf_counter() < deadline:
            sample = workload.run()
            if tracer is None:
                after = probe.measure(PROBE_SHARE * sample.wall_s)
                sample.host_factor = probe.factor(before, after)
                before = after
                untraced.append(keep("untraced", sample))
                continue
            untraced.append(keep("untraced", sample))
            sample, metrics, lines = traced_run(workload, tracer)
            for name, seconds in lines.items():
                account[name] = account.get(name, 0.0) + seconds
            if args.workload in VEC_ONLY and metrics["engine.runs"]:
                guard.append(f"{metrics['engine.runs']:.0f} coroutine engine run(s)")
            traced.append(keep("traced", sample, {"layers": metrics}))
            layer_samples.append(metrics)
    finally:
        workload.close()

    setup_s = statistics.median(imports) + (
        statistics.median(setup_work) if setup_work else 0.0
    )
    problems = [p for row in rows for p in row["problems"]] + guard
    guard_checks = len(layer_samples) if args.workload in VEC_ONLY else 0
    attempted = sum(row["trials"] + row["checks"] for row in rows) + guard_checks
    failed = sum(row["failed"] for row in rows) + len(problems)
    correct = failed == 0

    summaries: Dict[str, Any] = {}
    if tracer is None:
        nominal = [s.wall_s / s.host_factor for s in untraced]
        for name, attr in (("trials_per_s", "trials"), ("sim_rounds_per_s", "rounds")):
            summaries[name] = pooled_rate([getattr(s, attr) for s in untraced], nominal)
        summaries["setup_s"] = summarize([setup_s])
        summaries["peak_rss_mb"] = summarize([peak_rss_mb()])
        summaries["failed_frac"] = summarize([failed / attempted])
        declared, units = END_TO_END, dict(END_TO_END, **FAILED_FRAC)
    else:
        for name in layers.PER_LAYER:
            if name != "trace.overhead_frac":
                summaries[name] = summarize([m[name] for m in layer_samples])
        # per simulated round, because vec_mega's iterations differ in work
        overhead = (
            statistics.median(s.wall_s / s.rounds for s in traced)
            / statistics.median(s.wall_s / s.rounds for s in untraced)
            - 1.0
        )
        summaries["trace.overhead_frac"] = summarize([overhead])
        declared = units = layers.PER_LAYER


    wall = sum(s.wall_s for s in untraced + traced)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(untraced)} untraced + {len(traced)} traced iteration(s), "
        f"{wall:.2f} s measured"
    )
    print(
        f"  set-up {setup_s:.4f} s = median of {len(imports)} imports"
        + (f" + median of {len(setup_work)} set-up runs" if setup_work else "")
    )
    if tracer is None:
        wall_rate = sum(s.trials for s in untraced) / sum(s.wall_s for s in untraced)
        print(
            f"  host factor {statistics.median(s.host_factor for s in untraced):.4f} "
            f"(median probe {statistics.median(probe.times):.4f} s, nominal {NOMINAL_S} s); "
            f"unscaled trials_per_s {wall_rate:.6g}"
        )
    for name, summary in summaries.items():
        validate_name(name)
        validate_unit(units[name])
        print(
            f"  {name:<32} {summary.median:>14.6g} {units[name]:<6} "
            + ("pooled over" if summary.pooled else "median of")
            + f" {summary.count} (q1 {summary.q1:.6g}, q3 {summary.q3:.6g})"
        )
    if account:
        traced_wall = sum(s.wall_s for s in traced)
        print(f"wall account of {len(traced)} traced iteration(s):")
        order = [n for n in layers.LAYERS if n in account]
        order += sorted(n for n in account if n not in order and n != "unattributed")
        for name in order + ["unattributed"]:
            label = "runner.wait (idle)" if name == "runner.wait" else name
            seconds = account[name]
            print(f"  {label:<24} {seconds:>10.4f} s {100 * seconds / traced_wall:>6.2f}%")
        print(
            f"  {'sum':<24} {sum(account.values()):>10.4f} s "
            f"(traced wall {traced_wall:.4f} s)"
        )
    print(
        f"checks: {attempted} attempted, {failed} failed"
        + ("" if correct else "; " + "; ".join(problems[:5]))
    )

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": summaries[name].median, "unit": unit}
            for name, unit in declared.items()
        },
    }
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": workloads.PROCESSES,
        "commands": workload.commands() if hasattr(workload, "commands") else [],
        "fingerprint": fingerprint(args.seed),
    }
    summary_doc = {
        "metrics": {
            name: metric_entry(summary, units[name]) for name, summary in summaries.items()
        },
        "setup": {"import_s": imports, "setup_work_s": setup_work},
        "probe_s": probe.times,
        "account": account,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary_doc, handle, indent=2)
    with open(os.path.join(out_dir, "metrics.jsonl"), "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
