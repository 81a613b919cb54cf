"""Differential tests: the vectorized backend agrees with the coroutine engine.

``repro.sim.vec`` executes lowered :class:`~repro.protocols.ir.RoundProgram`
descriptions column-wise over the whole population.  Agreement with the
coroutine engine is proved at two strengths, matching the draw modes
documented in :mod:`repro.sim.vec`:

* **bitwise** — in exact-draw mode (the default at small n) the vec backend
  consumes the same per-node RNG streams in the same order as the coroutine
  engine, so over a grid of protocols × seeds × collision-detection modes
  the serialized results must match byte for byte — same ``solved`` /
  ``winner`` / ``rounds`` / marks, and the same ``RoundLimitExceeded`` on
  saturated instances.  The instrumented runs must also produce identical
  metrics registries (modulo wall-time histograms).
* **distributional** — in counter-draw mode (the mega-scale default) the
  streams differ by construction, so agreement is statistical: two-sample
  Kolmogorov-Smirnov on solved-round distributions and a chi-square
  homogeneity test on Reduce survivor counts, over hundreds of seeds.

A Hypothesis suite at the bottom generates random well-formed round
programs and checks bitwise agreement on each, so the equivalence covers
the IR's full reachable surface, not just the three shipped lowerings.

The ``filterwarnings`` marks turn :class:`~repro.sim.vec.VecFallbackWarning`
into an error: every "vec" run in this file must actually be served by the
vectorized backend, never silently fall back.
"""

import json
import math
from bisect import bisect_right

import pytest

pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro import solve
from repro.baselines import Decay, SlottedAloha
from repro.core import Reduce
from repro.obs import RegistrySink
from repro.protocols import ProgramProtocol
from repro.sim import (
    CollisionDetection,
    Network,
    RoundLimitExceeded,
    activate_random,
    result_to_dict,
    staggered,
)
from repro.sim import vec
from tests.program_strategies import programs

SEEDS = (0, 1, 2)

MODES = (
    CollisionDetection.STRONG,
    CollisionDetection.RECEIVER_ONLY,
    CollisionDetection.NONE,
)

#: (name, protocol factory, solve kwargs factory).  All instances stay at
#: n <= 4096 so the vec backend's "auto" draw mode selects exact per-node
#: streams — the precondition for bitwise agreement.  The saturated ALOHA
#: case deliberately exhausts its budget: the ``RoundLimitExceeded``
#: message must match too.
CASES = [
    (
        "decay-dense",
        Decay,
        lambda seed: dict(
            n=64,
            num_channels=1,
            activation=activate_random(64, 8, seed=seed),
            stop_on_solve=False,
            max_rounds=512,
        ),
    ),
    (
        "decay-staggered",
        Decay,
        lambda seed: dict(
            n=64,
            num_channels=1,
            activation=staggered(
                activate_random(64, 6, seed=seed), max_delay=9, seed=seed
            ),
            max_rounds=512,
        ),
    ),
    (
        "aloha",
        SlottedAloha,
        lambda seed: dict(
            n=32,
            num_channels=2,
            activation=activate_random(32, 5, seed=seed),
            max_rounds=4096,
        ),
    ),
    (
        "aloha-saturated",
        lambda: SlottedAloha(probability=0.6),
        lambda seed: dict(
            n=48,
            num_channels=1,
            activation=activate_random(48, 16, seed=seed),
            stop_on_solve=False,
            max_rounds=64,
        ),
    ),
    (
        "reduce-dense",
        Reduce,
        lambda seed: dict(
            n=64,
            num_channels=1,
            activation=activate_random(64, 12, seed=seed),
            stop_on_solve=False,
            max_rounds=512,
        ),
    ),
    (
        "reduce-staggered",
        Reduce,
        lambda seed: dict(
            n=64,
            num_channels=1,
            activation=staggered(
                activate_random(64, 10, seed=seed), max_delay=5, seed=seed
            ),
            stop_on_solve=False,
            max_rounds=512,
        ),
    ),
]


def _outcome(factory, kwargs, seed, mode, backend):
    """Terminal outcome of a run: serialized result or round-limit details."""
    try:
        result = solve(
            factory(), seed=seed, collision_detection=mode, backend=backend, **kwargs
        )
    except RoundLimitExceeded as exc:
        return ("round-limit", str(exc))
    return ("result", json.dumps(result_to_dict(result), sort_keys=True))


@pytest.mark.filterwarnings("error::repro.sim.vec.VecFallbackWarning")
@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,factory,make_kwargs", CASES, ids=[c[0] for c in CASES])
def test_vec_backend_is_bitwise_identical(name, factory, make_kwargs, seed, mode):
    kwargs = make_kwargs(seed)
    vec_outcome = _outcome(factory, kwargs, seed, mode, "vec")
    coroutine_outcome = _outcome(factory, kwargs, seed, mode, "coroutine")
    assert vec_outcome == coroutine_outcome


def _canonical_registry(registry):
    """Registry dump with the (nondeterministic) wall-time histograms removed."""
    payload = registry.to_dict()
    payload.get("histograms", {}).pop("round_wall_time_s", None)
    payload.get("histograms", {}).pop("run_wall_time_s", None)
    return json.dumps(payload, sort_keys=True)


@pytest.mark.filterwarnings("error::repro.sim.vec.VecFallbackWarning")
@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
@pytest.mark.parametrize("seed", SEEDS)
def test_instrumented_vec_run_matches_registry(seed, mode):
    """Round events and terminal RunSummary metrics agree across backends."""
    registries = {}
    for backend in ("vec", "coroutine"):
        sink = RegistrySink()
        solve(
            Decay(),
            n=64,
            num_channels=1,
            activation=activate_random(64, 8, seed=seed),
            seed=seed,
            collision_detection=mode,
            stop_on_solve=False,
            max_rounds=512,
            instrument=sink,
            backend=backend,
        )
        registries[backend] = sink.registry
    assert _canonical_registry(registries["vec"]) == _canonical_registry(
        registries["coroutine"]
    )


# ------------------------------------------- IR interpreter faithfulness
#
# The lowered RoundProgram run through the reference interpreter
# (ProgramProtocol, coroutine engine) must reproduce the hand-written
# protocol it was lowered from — this is what licenses comparing the vec
# backend against the *native* protocols above.


@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,factory,make_kwargs", CASES, ids=[c[0] for c in CASES])
def test_lowered_program_matches_native_protocol(name, factory, make_kwargs, seed, mode):
    kwargs = make_kwargs(seed)
    network = Network(
        n=kwargs["n"], num_channels=kwargs["num_channels"], collision_detection=mode
    )
    program = factory().to_round_program(network)
    native = _outcome(factory, kwargs, seed, mode, "coroutine")
    interpreted = _outcome(lambda: ProgramProtocol(program), kwargs, seed, mode, "coroutine")
    assert interpreted == native


# --------------------------------------------- distributional agreement
#
# Counter-mode draws (the mega-scale default) use one Philox batch per
# participating round instead of per-node streams, so vec and coroutine
# executions of one seed legitimately differ.  Agreement is statistical:
# same distribution over many seeds.

_DIST_SEEDS = range(200)

#: Two-sample KS critical value at alpha = 0.001 for two samples of 200:
#: c(alpha) * sqrt((n + m) / (n * m)) with c(0.001) = 1.949.
_KS_CRITICAL = 1.949 * math.sqrt(2 / len(_DIST_SEEDS))

#: Chi-square critical values at alpha = 0.001, indexed by degrees of freedom.
_CHI2_CRITICAL = {
    1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52, 6: 22.46,
    7: 24.32, 8: 26.12, 9: 27.88, 10: 29.59, 11: 31.26, 12: 32.91,
}


def _ks_statistic(a, b):
    a, b = sorted(a), sorted(b)
    points = sorted(set(a) | set(b))
    return max(
        abs(bisect_right(a, v) / len(a) - bisect_right(b, v) / len(b))
        for v in points
    )


def _chi_square_homogeneity(a, b):
    """(statistic, df) for two samples of small non-negative integers.

    Categories are pooled greedily so every expected cell count is >= 5,
    the textbook validity floor for the chi-square approximation.
    """
    from collections import Counter

    counts_a, counts_b = Counter(a), Counter(b)
    categories = sorted(set(counts_a) | set(counts_b))
    # Greedy pooling: merge adjacent categories until each pooled bucket
    # holds >= 10 observations overall (>= 5 expected per sample).
    buckets = []
    current = []
    pooled = 0
    for value in categories:
        current.append(value)
        pooled += counts_a[value] + counts_b[value]
        if pooled >= 10:
            buckets.append(tuple(current))
            current, pooled = [], 0
    if current:
        if buckets:
            buckets[-1] = buckets[-1] + tuple(current)
        else:
            buckets.append(tuple(current))
    if len(buckets) < 2:
        return 0.0, 1  # everything in one bucket: distributions identical
    total_a, total_b = len(a), len(b)
    statistic = 0.0
    for bucket in buckets:
        observed_a = sum(counts_a[v] for v in bucket)
        observed_b = sum(counts_b[v] for v in bucket)
        pooled = observed_a + observed_b
        expected_a = pooled * total_a / (total_a + total_b)
        expected_b = pooled * total_b / (total_a + total_b)
        statistic += (observed_a - expected_a) ** 2 / expected_a
        statistic += (observed_b - expected_b) ** 2 / expected_b
    return statistic, len(buckets) - 1


def _solved_rounds(protocol_factory, *, n, active, num_channels, max_rounds, backend):
    rounds = []
    for seed in _DIST_SEEDS:
        activation = activate_random(n, active, seed=seed)
        try:
            if backend == "vec":
                result = vec.run_protocol(
                    protocol_factory(),
                    n=n,
                    num_channels=num_channels,
                    activation=activation,
                    seed=seed,
                    max_rounds=max_rounds,
                    draws="counter",
                )
            else:
                result = solve(
                    protocol_factory(),
                    n=n,
                    num_channels=num_channels,
                    activation=activation,
                    seed=seed,
                    max_rounds=max_rounds,
                )
        except RoundLimitExceeded:
            rounds.append(max_rounds + 1)
            continue
        rounds.append(result.solved_round if result.solved else max_rounds + 1)
    return rounds


@pytest.mark.parametrize(
    "name,factory,active",
    [("decay", Decay, 8), ("aloha", lambda: SlottedAloha(probability=0.25), 6)],
    ids=["decay", "aloha"],
)
def test_counter_draws_match_distribution(name, factory, active):
    """KS test: counter-mode solved rounds are distributed like coroutine's."""
    kwargs = dict(n=64, active=active, num_channels=1, max_rounds=2048)
    vec_rounds = _solved_rounds(factory, backend="vec", **kwargs)
    coroutine_rounds = _solved_rounds(factory, backend="coroutine", **kwargs)
    statistic = _ks_statistic(vec_rounds, coroutine_rounds)
    assert statistic < _KS_CRITICAL, (
        f"{name}: KS statistic {statistic:.4f} >= {_KS_CRITICAL:.4f} "
        f"(alpha = 0.001) — counter-draw distribution drifted"
    )


def test_counter_draws_match_reduce_survivors():
    """Chi-square: Reduce survivor counts are distributed like coroutine's."""

    def survivors(backend):
        counts = []
        for seed in _DIST_SEEDS:
            activation = activate_random(64, 12, seed=seed)
            common = dict(
                n=64,
                num_channels=1,
                activation=activation,
                seed=seed,
                stop_on_solve=False,
                max_rounds=512,
            )
            if backend == "vec":
                result = vec.run_protocol(Reduce(), draws="counter", **common)
            else:
                result = solve(Reduce(), **common)
            counts.append(len(result.trace.marks_with_label("reduce:survived")))
        return counts

    statistic, df = _chi_square_homogeneity(survivors("vec"), survivors("coroutine"))
    critical = _CHI2_CRITICAL[min(df, max(_CHI2_CRITICAL))]
    assert statistic < critical, (
        f"chi-square {statistic:.2f} >= {critical:.2f} at df={df} "
        f"(alpha = 0.001) — survivor distribution drifted"
    )


# ------------------------------------------------ random-program fuzzing
#
# Random well-formed programs (``tests/program_strategies.py``),
# bitwise-compared across backends via the ProgramProtocol reference
# interpreter.


@pytest.mark.filterwarnings("error::repro.sim.vec.VecFallbackWarning")
@settings(max_examples=60, deadline=None)
@given(
    program=programs(),
    seed=st.integers(0, 1000),
    mode=st.sampled_from(MODES),
    stop_on_solve=st.booleans(),
)
def test_random_programs_agree_across_backends(program, seed, mode, stop_on_solve):
    kwargs = dict(
        n=6,
        num_channels=2,
        max_rounds=32,
        stop_on_solve=stop_on_solve,
    )
    vec_outcome = _outcome(lambda: ProgramProtocol(program), kwargs, seed, mode, "vec")
    coroutine_outcome = _outcome(
        lambda: ProgramProtocol(program), kwargs, seed, mode, "coroutine"
    )
    assert vec_outcome == coroutine_outcome
