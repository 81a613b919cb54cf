#!/usr/bin/env python3
"""Regenerate the references that the output checks compare against.

Run from the repository root::

    python3 perfbench/make_reference.py theorem 0 63
    python3 perfbench/make_reference.py vec_batch

``theorem FIRST LAST`` records the digest of theorem_sweep's canonical
per-trial records for master seeds FIRST..LAST; a run with one of those
seeds must reproduce its digest bit for bit.  ``vec_batch`` records, per
vec_batch_sweep cell, the solve rate and the sorted rounds of
``REFERENCE_TRIALS`` trials under ``REFERENCE_SEED``, a master seed of its
own; a run's cells are compared with them by distribution.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench", "reference-work")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

REFERENCE_TRIALS = 512
REFERENCE_SEED = 20160725


def write(name: str, document: dict, indent: Optional[int] = 1) -> None:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    path = os.path.join(workloads.REFERENCE_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=indent, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def theorem(first: int, last: int) -> None:
    if not os.path.exists(os.path.join(workloads.REFERENCE_DIR, "theorem_sweep.json")):
        write("theorem_sweep.json", {"digests": {}})
    digests = {}
    for seed in range(first, last + 1):
        workload = workloads.TheoremSweep(seed, WORK)
        workload.reference = None
        try:
            sample = workload.run()
        finally:
            workload.close()
        if sample.problems:
            raise SystemExit(f"seed {seed}: {sample.problems}")
        digests[str(seed)] = workload.first_digest
        print(seed, workload.first_digest, flush=True)
    write(
        "theorem_sweep.json",
        {
            "trials_per_cell": workloads.THEOREM_TRIALS,
            "grids": [" ".join(grid) for grid in workloads.THEOREM_GRIDS],
            "digests": digests,
        },
    )


def vec_batch() -> None:
    workload = workloads.SweepWorkload(REFERENCE_SEED, WORK)
    argv = workloads.vec_batch_argv(REFERENCE_SEED, workload.workdir, workloads.PROCESSES)
    argv[argv.index("--trials") + 1] = str(REFERENCE_TRIALS)
    try:
        code, text, _ = workloads._run_cli(argv)
    finally:
        workload.close()
    if code != 0:
        raise SystemExit(text)
    cells = []
    for cell in workload.results[0].cells:
        params = {k: v for k, v in cell.params.items() if k not in ("backend", "draws")}
        attempted = len(cell.trials) + len(cell.failures)
        cells.append(
            {
                "params": params,
                "solve_rate": sum(float(t["solved"]) for t in cell.trials) / attempted,
                "rounds": sorted(int(t["rounds"]) for t in cell.trials),
            }
        )
    write(
        "vec_batch_sweep.json",
        {"master_seed": REFERENCE_SEED, "trials_per_cell": REFERENCE_TRIALS, "cells": cells},
        indent=None,
    )


if __name__ == "__main__":
    if sys.argv[1:2] == ["theorem"]:
        theorem(int(sys.argv[2]), int(sys.argv[3]))
    elif sys.argv[1:2] == ["vec_batch"]:
        vec_batch()
    else:
        raise SystemExit(__doc__)
