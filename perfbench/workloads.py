"""The four benchmark workloads and their output checks.

Each workload drives the program through the entry points its users call:
``repro.cli.main(["sweep", ...])`` for sweeps, ``repro.sim.vec.run_protocol``
for standalone mega-scale runs.  The load is closed-loop: one command at a
time, pools no wider than the host's CPU count (at most 2).  An iteration
is the same work every time, so its wall time is one sample.  See NOTES.md
for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import statistics
import time
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.cli as cli
from repro.analysis.runner import SweepRunner
from repro.baselines import Decay, SlottedAloha
from repro.experiments.common import general_trial
from repro.sim import vec
from repro.sim.errors import RoundLimitExceeded
from repro.sim.rng import seed_sequence

from layers import ROOT_FRAME
from spans import Patch, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

PROCESSES = max(1, min(2, os.cpu_count() or 1))

#: theorem_sweep: n x C x active with active <= n, as two commands because
#: one --axis grid is a full product (8 + 24 = 32 cells).
THEOREM_GRIDS = (
    ["--axis", "n=1024", "--axis", "C=4,16,64,256", "--axis", "active=16,256"],
    [
        "--axis", "n=16384,131072",
        "--axis", "C=4,16,64,256",
        "--axis", "active=16,256,2048",
    ],
)
THEOREM_TRIALS = 8

VEC_BATCH_GRID = [
    "--axis", "protocol=bk-backoff-ack,decay,slotted-aloha",
    "--axis", "n=4096,65536",
    "--axis", "C=2,16",
    "--axis", "active=64,1024",
]
VEC_BATCH_TRIALS = 64

MEGA_N = 10**6
MEGA_CHANNELS = 16
MEGA_SEEDS = 2
MEGA_ALOHA_ROUNDS = 40

_TRIALS_LINE = re.compile(r"^trials: (\d+) executed, (\d+) cached, (\d+) failed$", re.M)
_FALLBACK_LINE = re.compile(r"^vec fallbacks: (\d+)", re.M)

#: Significance of one per-cell distribution check (KS and solve rate).
_ALPHA = 1e-6


@dataclass
class Sample:
    """One iteration: its wall time, work done, and failed checks."""

    wall_s: float = 0.0
    #: host slowness around the iteration (see probe.py); 1.0 when unprobed
    host_factor: float = 1.0
    trials: int = 0
    rounds: float = 0.0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    fallbacks: int = 0
    checks: int = 0
    problems: List[str] = field(default_factory=list)
    store_records: int = 0
    store_bytes: int = 0

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(message)


@contextlib.contextmanager
def measured(sample: Sample, tracer: Optional[Tracer]) -> Iterator[None]:
    """Time the block into ``sample.wall_s``.

    Under a tracer the block is the root frame, whose self time is the wall
    account's unattributed remainder, and tracing ends with it so that the
    checks that follow are not traced.
    """
    frame = tracer.push(ROOT_FRAME) if tracer is not None else None
    start = time.perf_counter()
    try:
        yield
    finally:
        sample.wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.pop(frame, interval=True)
            tracer.stop()


# ------------------------------------------------------------- records


def canonical_records(results: Sequence[Any]) -> List[str]:
    """One canonical JSON line per trial of captured sweep results.

    A line holds the cell's parameters, the trial's index in its cell and
    its metrics (or its failure's type and message).  Lines are sorted, so
    the list does not depend on cell order, dict key order or which command
    of a workload ran a cell.
    """
    lines = []
    for result in results:
        for cell in result.cells:
            params = json.dumps(cell.params, sort_keys=True, separators=(",", ":"))
            for index, metrics in enumerate(cell.trials):
                lines.append(_line({"params": params, "trial": index, "metrics": dict(metrics)}))
            for failure in cell.failures:
                lines.append(
                    _line(
                        {
                            "params": params,
                            "seed": failure.seed,
                            "error": failure.error,
                            "message": failure.message,
                        }
                    )
                )
    return sorted(lines)


def _line(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def digest(lines: Sequence[str]) -> str:
    """SHA-256 of canonical record lines."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def load_reference(name: str) -> Dict[str, Any]:
    with open(os.path.join(REFERENCE_DIR, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov distance between two samples."""
    a, b = sorted(a), sorted(b)
    return max(
        abs(bisect_right(a, value) / len(a) - bisect_right(b, value) / len(b))
        for value in set(a) | set(b)
    )


def ks_critical(n: int, m: int, alpha: float = _ALPHA) -> float:
    """The two-sample KS distance that a sample pair exceeds with
    probability about ``alpha`` when both come from one distribution."""
    return math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt((n + m) / (n * m))


# ------------------------------------------------------------ workloads


class SweepWorkload:
    """A workload made of ``repro sweep`` commands.

    ``run_grid`` is wrapped once to keep each command's result: the CLI
    prints only cell means, and the checks need every trial.
    """

    name = ""
    #: Timed set-up repeats, each one :meth:`setup_once`; part of ``setup_s``.
    SETUP_REPEATS = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.results: List[Any] = []
        self._patch = Patch()
        run_grid = SweepRunner.run_grid

        @functools.wraps(run_grid)
        def keep(runner: Any, *args: Any, **kwargs: Any) -> Any:
            result = run_grid(runner, *args, **kwargs)
            self.results.append(result)
            return result

        self._patch.attribute(SweepRunner, "run_grid", keep)

    def close(self) -> None:
        self._patch.restore()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def setup_once(self) -> float:
        """One repeat of the set-up work; its wall time in seconds."""
        raise NotImplementedError

    def commands(self) -> List[List[str]]:
        raise NotImplementedError

    def run(self, tracer: Optional[Tracer] = None) -> Sample:
        """One iteration: every command once, then the output checks."""
        sample = Sample()
        self.results.clear()
        outputs = []
        commands = self.commands()
        with measured(sample, tracer):
            for argv in commands:
                outputs.append(_run_cli(argv))
        for code, text, caught in outputs:
            sample.check(code == 0, f"exit code {code}")
            match = _TRIALS_LINE.search(text)
            sample.check(match is not None, "no 'trials:' line")
            if match:
                sample.executed += int(match.group(1))
                sample.cached += int(match.group(2))
                sample.failed += int(match.group(3))
            fallback = _FALLBACK_LINE.search(text)
            sample.fallbacks += int(fallback.group(1)) if fallback else 0
            sample.check(
                not any(issubclass(w.category, vec.VecFallbackWarning) for w in caught),
                "VecFallbackWarning raised",
            )
        sample.trials = sample.executed + sample.cached
        for result in self.results:
            for cell in result.cells:
                sample.rounds += sum(float(t["rounds"]) for t in cell.trials)
        self.check(sample)
        return sample

    def check(self, sample: Sample) -> None:
        raise NotImplementedError


def _run_cli(argv: List[str]) -> Tuple[int, str, List[Any]]:
    """``repro.cli.main(argv)`` with its stdout and warnings captured."""
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    return code, out.getvalue(), list(caught)


class TheoremSweep(SweepWorkload):
    """The paper's FNWGeneral over n x C x active on the coroutine engine."""

    name = "theorem_sweep"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.reference = load_reference("theorem_sweep.json")["digests"].get(str(seed))
        self.first_digest: Optional[str] = None

    def commands(self) -> List[List[str]]:
        return [
            ["sweep", "--trial", "general", *grid, "--trials", str(THEOREM_TRIALS),
             "--seed", str(self.seed), "--processes", str(PROCESSES)]
            for grid in THEOREM_GRIDS
        ]

    def check(self, sample: Sample) -> None:
        sample.check(sample.failed == 0, f"{sample.failed} failed trial(s)")
        lines = canonical_records(self.results)
        found = digest(lines)
        if self.first_digest is None:
            self.first_digest = found
            self._spot_check(sample)
        sample.check(found == self.first_digest, "records differ between iterations")
        if self.reference is not None:
            sample.check(found == self.reference, "digest differs from reference")

    def _spot_check(self, sample: Sample) -> None:
        """Re-run one trial of every fourth cell serially, in this process:
        pooled trials must equal their serial runs bit for bit."""
        for result in self.results:
            for stream, cell in enumerate(result.cells):
                if stream % 4:
                    continue
                seed = next(iter(seed_sequence(self.seed, 1, stream=stream)))
                p = cell.params
                expected = dict(general_trial(p["n"], p["C"], p["active"], seed))
                sample.check(
                    bool(cell.trials) and dict(cell.trials[0]) == expected,
                    f"cell {p}: pooled trial 0 differs from its serial run",
                )


def vec_batch_argv(seed: int, checkpoint_dir: str, processes: int) -> List[str]:
    return [
        "sweep", "--trial", "baseline", "--backend", "vec", "--draws", "counter",
        "--vec-batch", *VEC_BATCH_GRID, "--trials", str(VEC_BATCH_TRIALS),
        "--seed", str(seed), "--processes", str(processes),
        "--checkpoint-dir", checkpoint_dir,
    ]


def store_size(directory: str) -> Tuple[int, int]:
    """(records, bytes) of the checkpoint store in ``directory``."""
    records = size = 0
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        size += os.path.getsize(path)
        with open(path, "r", encoding="utf-8") as handle:
            records += sum(1 for line in handle if line.strip())
    return records, size


class VecBatchSweep(SweepWorkload):
    """Baseline protocols as batched vec cells, checkpointed to a fresh store."""

    name = "vec_batch_sweep"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        reference = load_reference("vec_batch_sweep.json")
        self.reference = {
            json.dumps(cell["params"], sort_keys=True): cell for cell in reference["cells"]
        }
        self.iteration = 0

    def commands(self) -> List[List[str]]:
        self.iteration += 1
        self.store = os.path.join(self.workdir, f"store-{self.iteration}")
        return [vec_batch_argv(self.seed, self.store, PROCESSES)]

    def check(self, sample: Sample) -> None:
        sample.check(sample.failed == 0, f"{sample.failed} failed trial(s)")
        sample.check(sample.fallbacks == 0, f"{sample.fallbacks} vec fallback(s)")
        sample.store_records, sample.store_bytes = store_size(self.store)
        shutil.rmtree(self.store)
        sample.check(
            sample.store_records == sample.executed, "store holds a record per trial"
        )
        deviations = [
            check_distribution(sample, cell, self.reference)
            for result in self.results
            for cell in result.cells
        ]
        squares = [z * z for z in deviations if z is not None]
        if squares:
            limit = chi2_critical(len(squares))
            sample.check(
                sum(squares) <= limit,
                f"mean rounds: chi-square {sum(squares):.1f} over {len(squares)} "
                f"cells > {limit:.1f}",
            )


def chi2_critical(k: int, alpha: float = _ALPHA) -> float:
    """The chi-square value with ``k`` degrees of freedom that is exceeded
    with probability ``alpha`` (Wilson-Hilferty approximation)."""
    z = statistics.NormalDist().inv_cdf(1 - alpha)
    h = 2 / (9 * k)
    return k * (1 - h + z * math.sqrt(h)) ** 3


def check_distribution(
    sample: Sample, cell: Any, reference: Dict[str, Any]
) -> Optional[float]:
    """A cell's solve rate and rounds distribution against the reference.

    The bands admit any change that keeps each cell's distribution (a
    different but equally distributed activation sampler, say) and reject
    one that moves it.  Returns the cell's standardized mean-rounds
    deviation, for the pooled test in :meth:`VecBatchSweep.check`: one
    cell of 64 trials cannot see a 2x shift in a geometric mean, but the
    24 cells together can.
    """
    key = json.dumps(
        {k: v for k, v in cell.params.items() if k not in ("backend", "draws")},
        sort_keys=True,
    )
    ref = reference.get(key)
    sample.check(ref is not None, f"cell {key}: no reference")
    if ref is None:
        return None
    rounds = [float(t["rounds"]) for t in cell.trials]
    attempted = len(cell.trials) + len(cell.failures)
    rate = sum(float(t["solved"]) for t in cell.trials) / attempted
    p = ref["solve_rate"]
    band = math.sqrt(-2 * math.log(_ALPHA)) * math.sqrt(
        max(p * (1 - p), 1 / len(ref["rounds"])) / attempted
    )
    sample.check(
        abs(rate - p) <= band,
        f"cell {key}: solve rate {rate:.3f} outside {p:.3f} +/- {band:.3f}",
    )
    if not rounds:
        return None
    distance = ks_statistic(rounds, ref["rounds"])
    limit = ks_critical(len(rounds), len(ref["rounds"]))
    sample.check(
        distance <= limit,
        f"cell {key}: rounds KS distance {distance:.3f} > {limit:.3f}",
    )
    spread = statistics.stdev(ref["rounds"]) * math.sqrt(
        1 / len(rounds) + 1 / len(ref["rounds"])
    )
    return (statistics.fmean(rounds) - statistics.fmean(ref["rounds"])) / spread


class SweepResume(SweepWorkload):
    """The vec_batch_sweep command re-issued against the store set-up wrote."""

    name = "sweep_resume"
    SETUP_REPEATS = 3

    def setup_once(self) -> float:
        """Write the resume store afresh; the last repeat's store is the one
        the iterations read."""
        self.store = os.path.join(self.workdir, "store")
        shutil.rmtree(self.store, ignore_errors=True)
        self.results.clear()
        start = time.perf_counter()
        code, text, _ = _run_cli(vec_batch_argv(self.seed, self.store, PROCESSES))
        seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"writing the resume store failed:\n{text}")
        self.expected = canonical_records(self.results)
        self.store_records, _ = store_size(self.store)
        return seconds

    def commands(self) -> List[List[str]]:
        return [vec_batch_argv(self.seed, self.store, 1)]

    def check(self, sample: Sample) -> None:
        sample.check(sample.executed == 0, f"{sample.executed} trial(s) executed")
        sample.check(sample.cached == len(self.expected), "not every trial cached")
        sample.check(sample.fallbacks == 0, f"{sample.fallbacks} vec fallback(s)")
        sample.check(
            canonical_records(self.results) == self.expected,
            "records differ from the ones set-up wrote",
        )
        sample.store_records = self.store_records


class VecMega:
    """Standalone vec runs at n = 10^6: Decay solves, and saturated ALOHA
    runs that must exhaust their 40-round budget.

    Decay's round count is geometric in its sweeps (about 20, 40 or 60
    rounds at this n), so a fixed pair of seeds would make the run's
    throughput depend on which seeds it drew.  Every iteration therefore
    draws fresh seeds from one stream seeded by the workload seed; the run
    reports total work over total time.
    """

    name = "vec_mega"
    SETUP_REPEATS = 0

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.stream = random.Random(seed)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, tracer: Optional[Tracer] = None) -> Sample:
        sample = Sample()
        seeds = [self.stream.getrandbits(32) for _ in range(MEGA_SEEDS)]
        outcomes = []
        with measured(sample, tracer):
            for seed in seeds:
                decay = vec.run_protocol(
                    Decay(), n=MEGA_N, num_channels=MEGA_CHANNELS, seed=seed
                )
                try:
                    vec.run_protocol(
                        SlottedAloha(probability=0.3),
                        n=MEGA_N,
                        num_channels=MEGA_CHANNELS,
                        seed=seed,
                        max_rounds=MEGA_ALOHA_ROUNDS,
                    )
                    budget = None
                except RoundLimitExceeded as error:
                    # keep the budget only: the traceback pins the run's arrays
                    budget = error.max_rounds
                outcomes.append((seed, decay.rounds, decay.solved, budget))
        for seed, rounds, solved, budget in outcomes:
            sample.trials += 2
            sample.rounds += rounds + MEGA_ALOHA_ROUNDS
            sample.check(solved, f"seed {seed}: Decay did not solve")
            sample.check(
                budget == MEGA_ALOHA_ROUNDS,
                f"seed {seed}: ALOHA did not exceed its {MEGA_ALOHA_ROUNDS}-round budget",
            )
        return sample


WORKLOADS = {
    cls.name: cls for cls in (TheoremSweep, VecBatchSweep, SweepResume, VecMega)
}
