"""Medians with their sample counts, and metric-name rules."""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, replace
from typing import Sequence

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def validate_name(name: str) -> str:
    """Return ``name`` if it is a legal metric or workload name, else raise.

    A name is ``[A-Za-z0-9_.-]+``, starts with a letter or digit and has at
    most 64 characters.
    """
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def validate_unit(unit: str) -> str:
    """Return ``unit`` if it is a legal unit spelling, else raise."""
    if not isinstance(unit, str) or not _UNIT.fullmatch(unit):
        raise ValueError(f"bad unit {unit!r}")
    return unit


@dataclass(frozen=True)
class Summary:
    """Median and quartiles of a sample, with the sample count.

    ``pooled`` marks a rate whose ``median`` was replaced by total work
    over total time (see :func:`pooled_rate`); the quartiles stay those of
    the per-iteration rates.
    """

    median: float
    q1: float
    q3: float
    count: int
    pooled: bool = False


def summarize(values: Sequence[float]) -> Summary:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    if len(values) == 1:
        return Summary(values[0], values[0], values[0], 1)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return Summary(statistics.median(values), q1, q3, len(values))


def pooled_rate(work: Sequence[float], seconds: Sequence[float]) -> Summary:
    """Total work over total time, with the per-iteration rates' quartiles."""
    per_iteration = summarize([w / s for w, s in zip(work, seconds)])
    return replace(per_iteration, median=sum(work) / sum(seconds), pooled=True)
