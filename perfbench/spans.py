"""Span tracing for the benchmark's traced pass.

A probe replaces a program function by a wrapper that opens a frame on
entry and closes it on exit.  Each process keeps its own frame stack and
per-layer totals: frames of one process nest, so a frame's children are
disjoint and their summed duration is their union.  Pool workers are forked
after the probes are installed; each one resets its copy of the tracer at
fork and appends its totals, plus the interval of every task it ran, to its
own file at the end of each task.  The coordinator then charges worker task
intervals against its own waiting frames with :func:`covered`, where
intervals from different workers overlap and each instant counts once.

Nothing here imports the program: the probe set lives in ``layers.py``.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Interval = Tuple[float, float]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by ``intervals``; overlaps count once."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def covered(span: Interval, children: Iterable[Interval]) -> float:
    """The part of ``span`` that the union of ``children`` covers."""
    lo, hi = span
    return union_length(
        (max(lo, start), min(hi, stop))
        for start, stop in children
        if start < hi and stop > lo
    )


class Tracer:
    """Frame stack and per-layer totals of one process.

    ``layers`` maps a layer name to ``[calls, self_s, total_s]``; ``counts``
    holds counters and seconds that are not frames; ``intervals`` keeps the
    ``(name, start, end)`` of the frames opened with ``interval=True``.
    """

    TASK = "runner.task"

    def __init__(self, directory: str):
        self.directory = directory
        self.coordinator = os.getpid()
        self.pid = self.coordinator
        self.enabled = False
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.stack: List[List[Any]] = []
        self.layers: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.intervals: List[Tuple[str, float, float]] = []
        self.task_depth = 0

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self._reset()

    def start(self) -> None:
        """Begin a traced iteration: empty totals, fresh span directory."""
        self._reset()
        os.makedirs(self.directory, exist_ok=True)
        for path in glob.glob(os.path.join(self.directory, "spans-*.jsonl")):
            os.remove(path)
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def push(self, name: str) -> List[Any]:
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def pop(self, frame: List[Any], *, interval: bool = False) -> float:
        end = time.perf_counter()
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError(f"frame {frame[0]!r} closed out of order")
        duration = end - frame[1]
        entry = self.layers.setdefault(frame[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration - frame[2]
        entry[2] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if interval:
            self.intervals.append((frame[0], frame[1], end))
        return duration

    # ------------------------------------------------------------ wrappers

    def timed(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        interval: bool = False,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` in a frame; ``after(args, kwargs, result, error)``
        records counters outside the frame."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self.push(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                self.pop(frame, interval=interval)
                if after is not None:
                    after(args, kwargs, None, error)
                raise
            self.pop(frame, interval=interval)
            if after is not None:
                after(args, kwargs, result, None)
            return result

        return wrapper

    def timed_generator(
        self, name: str, fn: Callable[..., Any], *, interval: bool = False
    ) -> Callable[..., Any]:
        """Wrap a generator function: every ``next`` is one frame, so the
        caller's work between items is never charged to ``name``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                yield from fn(*args, **kwargs)
                return
            generator = fn(*args, **kwargs)
            while True:
                frame = self.push(name)
                try:
                    item = next(generator)
                except StopIteration:
                    self.pop(frame, interval=interval)
                    return
                except BaseException:
                    self.pop(frame, interval=interval)
                    raise
                self.pop(frame, interval=interval)
                yield item

        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` to count its calls without opening a frame."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.enabled:
                self.counts[name] = self.counts.get(name, 0.0) + 1.0
            return fn(*args, **kwargs)

        return wrapper

    def task(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a pool task entry point.

        The outermost task frame of a process records its interval; in a
        worker it then appends the worker's totals to the worker's own file,
        because pool workers are terminated, not shut down.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            outer = self.task_depth == 0
            self.task_depth += 1
            frame = self.push(self.TASK)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.pop(frame, interval=outer)
                self.task_depth -= 1
                if outer:
                    self.add("runner.tasks")
                    self.add("runner.task_busy_s", duration)
                    if self.pid != self.coordinator:
                        self.flush()

        return wrapper

    # -------------------------------------------------------- persistence

    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "layers": self.layers,
            "counts": self.counts,
            "intervals": self.intervals,
        }

    def flush(self) -> None:
        """Append this process's totals to its span file and clear them."""
        path = os.path.join(self.directory, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.snapshot()) + "\n")
        self.layers, self.counts, self.intervals = {}, {}, []

    def collect(self) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """The coordinator's record and one merged record per worker."""
        workers: Dict[int, Dict[str, Any]] = {}
        for path in sorted(glob.glob(os.path.join(self.directory, "spans-*.jsonl"))):
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    merge_into(workers, json.loads(line))
        return self.snapshot(), list(workers.values())


def merge_into(records: Dict[int, Dict[str, Any]], chunk: Dict[str, Any]) -> None:
    """Fold one flushed chunk into the per-pid record it belongs to."""
    record = records.setdefault(
        chunk["pid"], {"pid": chunk["pid"], "layers": {}, "counts": {}, "intervals": []}
    )
    for name, (calls, self_s, total_s) in chunk["layers"].items():
        entry = record["layers"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += total_s
    for name, value in chunk["counts"].items():
        record["counts"][name] = record["counts"].get(name, 0.0) + value
    record["intervals"].extend(tuple(item) for item in chunk["intervals"])


class Patch:
    """Reversible replacement of program attributes."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def attribute(self, owner: Any, name: str, replacement: Any) -> None:
        """Replace ``owner.name`` (a class attribute or module global)."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, replacement)

    def everywhere(self, prefix: str, original: Any, replacement: Any) -> None:
        """Rebind every module global of a loaded ``prefix*`` module that
        is ``original`` — ``from x import f`` copies the binding."""
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith(prefix):
                continue
            for key in [k for k, v in vars(module).items() if v is original]:
                self.attribute(module, key, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

