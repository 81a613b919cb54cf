"""A fixed reference workload that measures how fast the host is right now.

The host this benchmark was built on drifts in speed by up to 2x, in
phases of seconds to minutes, for every process alike (see NOTES.md).  A
run that happens to land in a slow phase would read as a regression.  So
every timed block is bracketed by runs of the probe, and its wall time is
divided by ``mean(probe time before, probe time after) / NOMINAL_S``: the
time the block would have taken on a host on which the probe takes
``NOMINAL_S``.

The probe mixes the two kinds of work the program does: interpreter work
(JSON decoding, dict building and sorting, as in checkpoint reads and
sweep bookkeeping) and NumPy draws over arrays of 10^6 elements (as in the
vec kernel at n = 10^6).  Its inputs are fixed, so its work never depends
on the seed or on the program.  It runs in a child process of its own, so
that its arrays never count in the benchmark process's peak RSS; the
benchmark process waits while it runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Callable

#: Probe time, in seconds, on the host the benchmark's figures are scaled
#: to.  About what one probe takes on a 2-vCPU VM in a fast phase.
NOMINAL_S = 0.1

_PYTHON_REPEATS = 4
_NUMPY_REPEATS = 4
_NUMPY_SIZE = 10**6


def _records() -> list:
    return [
        json.dumps(
            {
                "params": {"protocol": "decay", "n": 4096 + i, "C": 16, "active": 64},
                "seed": i * 7919,
                "metrics": {"rounds": i % 97, "solved": True, "collisions": i % 13},
            }
        )
        for i in range(2000)
    ]


def _work(records: list) -> float:
    """One probe; its wall time in seconds."""
    import numpy as np

    start = time.perf_counter()
    for _ in range(_PYTHON_REPEATS):
        table = {}
        for line in records:
            record = json.loads(line)
            table[(record["params"]["n"], record["seed"])] = float(record["metrics"]["rounds"])
        sorted(table.items())
    rng = np.random.default_rng(12345)
    for _ in range(_NUMPY_REPEATS):
        draws = rng.random(_NUMPY_SIZE)
        channels = rng.integers(0, 16, _NUMPY_SIZE, dtype=np.int8)
        np.bincount(channels[draws < 0.3], minlength=16)
    return time.perf_counter() - start


def serve() -> None:
    """Child side: one probe per line read from stdin, its time written back."""
    records = _records()
    _work(records)
    for _ in sys.stdin:
        print(repr(_work(records)), flush=True)


class HostProbe:
    """Runs the probe in a child process and converts wall seconds to
    nominal-host seconds.  Use it as a context manager: leaving it stops
    the child and waits for it."""

    def __init__(self) -> None:
        self.times: list = []
        self._child = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        if self._child.poll() is None:
            self._child.stdin.close()
            try:
                self._child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.wait()
        self._child.stdout.close()

    def measure(self, budget: float = 0.0) -> float:
        """Runs of the probe until they have taken ``budget`` seconds, at
        least one; their mean wall time in seconds."""
        times: list = []
        while not times or sum(times) < budget:
            self._child.stdin.write("\n")
            self._child.stdin.flush()
            line = self._child.stdout.readline()
            if not line:
                raise RuntimeError("the host probe process exited")
            times.append(float(line))
        self.times.extend(times)
        return sum(times) / len(times)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """How much slower than nominal the host ran between two probes."""
        return (before + after) / (2.0 * NOMINAL_S)

    def scaled(self, block: Callable[[], float]) -> float:
        """Run ``block``, which returns its own time in seconds, between
        two probes; return that time in nominal-host seconds."""
        before = self.measure()
        seconds = block()
        return seconds / self.factor(before, self.measure())


if __name__ == "__main__":
    serve()
