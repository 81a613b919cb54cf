"""Batched-trial vec execution: bitwise parity and sweep-dispatch neutrality.

``repro.sim.vec.run_program_batch`` stacks R replications of one compiled
program as an (R × ncols) matrix with per-trial Philox keys.  The contract
this file pins is *bitwise per-trial identity*: every trial inside a batch
must reproduce its standalone ``run_program(..., draws="counter")`` run
exactly — solved/winner/rounds, the full mark stream, and the
``RoundLimitExceeded`` details on saturated instances.  That identity is
what lets the sweep layer treat batching as a pure dispatch optimization:
checkpoints, resume, retries, and supervision re-dispatch individual
trials, and their records must interchange freely with batched ones.

Also covered here: the compiled-program/lowering memo caches, the
fallback-warning dedup machinery, and the ``--vec-batch`` CLI plumbing.
"""

import pytest

pytest.importorskip("numpy")

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.parallel import registered_batch_trials
from repro.analysis.runner import SweepRunner
from repro.analysis.supervise import SupervisionPolicy
from repro.experiments.common import baseline_trial, baseline_trial_batch, make_protocol
from repro.obs.metrics import MetricsRegistry
from repro.sim import vec
from repro.sim.adversary import Activation
from repro.sim.cd_modes import CollisionDetection
from repro.sim.errors import ConfigurationError, RoundLimitExceeded
from repro.sim.network import Network
from tests.program_strategies import programs

PROTOCOLS = ["decay", "slotted-aloha", "dmks-nonadaptive", "bk-backoff"]


def _standalone(protocol, *, n, C, seed, **kwargs):
    return vec.run_protocol(
        protocol, n=n, num_channels=C, seed=seed, draws="counter", **kwargs
    )


def _assert_same_result(got, ref, context):
    assert got.solved == ref.solved, context
    assert got.solved_round == ref.solved_round, context
    assert got.winner == ref.winner, context
    assert got.rounds == ref.rounds, context
    assert got.all_terminated == ref.all_terminated, context
    assert got.crashed == ref.crashed, context
    assert got.trace.marks == ref.trace.marks, context


# ------------------------------------------------------- bitwise differential


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
def test_batch_bitwise_identical_to_standalone(protocol_name):
    protocol = make_protocol(protocol_name)
    n, C = 48, 3
    seeds = list(range(500, 540))
    outcomes = vec.run_protocol_batch(protocol, n=n, num_channels=C, seeds=seeds)
    assert [o.seed for o in outcomes] == seeds
    for seed, outcome in zip(seeds, outcomes):
        ref = _standalone(protocol, n=n, C=C, seed=seed)
        _assert_same_result(outcome.unwrap(), ref, (protocol_name, seed))


def test_batch_staggered_wakes_and_per_trial_activations():
    protocol = make_protocol("decay")
    n, C = 32, 2
    seeds = list(range(40, 70))
    rng = np.random.default_rng(1)
    activations = []
    for _ in seeds:
        ids = sorted(int(x) for x in rng.choice(np.arange(1, n + 1), 12, replace=False))
        wake = {nid: int(rng.integers(1, 10)) for nid in ids}
        activations.append(Activation(active_ids=ids, wake_rounds=wake))
    outcomes = vec.run_protocol_batch(
        protocol, n=n, num_channels=C, seeds=seeds, activations=activations
    )
    for seed, activation, outcome in zip(seeds, activations, outcomes):
        ref = _standalone(protocol, n=n, C=C, seed=seed, activation=activation)
        _assert_same_result(outcome.unwrap(), ref, seed)


def test_batch_round_limit_details_match_standalone():
    protocol = make_protocol("decay")
    n, C = 32, 2
    seeds = list(range(200, 230))
    outcomes = vec.run_protocol_batch(
        protocol, n=n, num_channels=C, seeds=seeds, max_rounds=2
    )
    for seed, outcome in zip(seeds, outcomes):
        try:
            ref = _standalone(protocol, n=n, C=C, seed=seed, max_rounds=2)
        except RoundLimitExceeded as error:
            assert not outcome.ok
            assert isinstance(outcome.error, RoundLimitExceeded)
            assert str(outcome.error) == str(error), seed
            with pytest.raises(RoundLimitExceeded):
                outcome.unwrap()
        else:
            _assert_same_result(outcome.unwrap(), ref, seed)


def test_batch_stop_on_solve_false_matches_standalone():
    protocol = make_protocol("slotted-aloha")
    n, C = 24, 2
    seeds = list(range(60, 80))
    outcomes = vec.run_protocol_batch(
        protocol, n=n, num_channels=C, seeds=seeds, stop_on_solve=False
    )
    for seed, outcome in zip(seeds, outcomes):
        ref = _standalone(protocol, n=n, C=C, seed=seed, stop_on_solve=False)
        _assert_same_result(outcome.unwrap(), ref, seed)


def _program_outcome(run):
    """A run's terminal outcome: result fields plus marks, or the error text."""
    try:
        result = run()
    except RoundLimitExceeded as error:
        return ("round-limit", str(error))
    return (
        "result",
        result.solved,
        result.solved_round,
        result.winner,
        result.rounds,
        result.all_terminated,
        result.crashed,
        result.trace.marks,
    )


_FUZZ_N = 6


@st.composite
def _activations(draw):
    """Shared active ids (or ``None``) plus one random wake map per trial."""
    if draw(st.booleans()):
        return None, [None] * 3
    ids = draw(
        st.lists(
            st.integers(1, _FUZZ_N), min_size=1, max_size=_FUZZ_N, unique=True
        ).map(sorted)
    )
    wake_map = st.fixed_dictionaries({nid: st.integers(1, 5) for nid in ids})
    wakes = [draw(wake_map) for _ in range(3)]
    return ids, wakes


@settings(max_examples=60, deadline=None)
@given(
    program=programs(),
    seeds=st.lists(st.integers(0, 1000), min_size=3, max_size=3),
    activation=_activations(),
    mode=st.sampled_from(list(CollisionDetection)),
    budget=st.integers(1, 24),
    stop_on_solve=st.booleans(),
)
def test_random_program_batch_rows_equal_standalone_runs(
    program, seeds, activation, mode, budget, stop_on_solve
):
    """Every row of a batch is its seed's standalone counter-draw run."""
    network = Network(n=_FUZZ_N, num_channels=2, collision_detection=mode)
    ids, wakes = activation
    common = dict(budget=budget, stop_on_solve=stop_on_solve)
    outcomes = vec.run_program_batch(
        program, network, seeds=seeds, ids=ids, wake=wakes, **common
    )
    assert [outcome.seed for outcome in outcomes] == seeds
    for seed, wake, outcome in zip(seeds, wakes, outcomes):
        standalone = _program_outcome(
            lambda: vec.run_program(
                program,
                network,
                seed=seed,
                ids=ids,
                wake=wake,
                draws="counter",
                **common,
            )
        )
        assert _program_outcome(outcome.unwrap) == standalone, seed


# ------------------------------------------------------ activation edge cases


class _RecordingSink:
    """A MetricsSink that records the lifecycle calls it receives."""

    def __init__(self):
        self.calls = []

    def on_run_start(self, info):
        self.calls.append(("on_run_start", info))

    def on_round(self, event):
        self.calls.append(("on_round", event))

    def on_run_end(self, summary):
        self.calls.append(("on_run_end", summary))


def _decay_program(n=8, C=2):
    network = Network(n=n, num_channels=C)
    return make_protocol("decay").to_round_program(network), network


@pytest.mark.parametrize("draws", ["exact", "counter"])
def test_partial_wake_map_defaults_missing_nodes_to_round_one(draws):
    program, network = _decay_program()
    for seed in range(20):
        common = dict(seed=seed, ids=[1, 2, 3], budget=64, draws=draws)
        partial = _program_outcome(
            lambda: vec.run_program(program, network, wake={1: 2}, **common)
        )
        full = _program_outcome(
            lambda: vec.run_program(program, network, wake={1: 2, 2: 1, 3: 1}, **common)
        )
        assert partial == full


def test_zero_budget_is_a_configuration_error_everywhere():
    from repro import solve

    program, network = _decay_program()
    protocol = make_protocol("decay")
    calls = [
        lambda: vec.run_program(program, network, seed=1, ids=None, wake=None, budget=0),
        lambda: vec.run_program_batch(program, network, seeds=[1, 2], budget=0),
        lambda: vec.run_protocol(protocol, n=8, num_channels=2, max_rounds=0),
        lambda: vec.run_protocol_batch(
            protocol, n=8, num_channels=2, seeds=[1, 2], max_rounds=0
        ),
        lambda: solve(protocol, n=8, num_channels=2, max_rounds=0, backend="vec"),
        lambda: solve(protocol, n=8, num_channels=2, max_rounds=0, backend="coroutine"),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError, match="max_rounds must be >= 1"):
            call()


@pytest.mark.parametrize("num_seeds", [1, 3])
def test_shared_empty_ids_is_an_empty_activation(num_seeds):
    program, network = _decay_program()
    seeds = list(range(num_seeds))
    outcomes = vec.run_program_batch(program, network, seeds=seeds, ids=[], budget=16)
    assert [outcome.seed for outcome in outcomes] == seeds
    for seed, outcome in zip(seeds, outcomes):
        standalone = vec.run_program(
            program, network, seed=seed, ids=[], wake=None, budget=16
        )
        assert (standalone.rounds, standalone.all_terminated) == (0, True)
        assert not standalone.solved
        assert _program_outcome(outcome.unwrap) == _program_outcome(lambda: standalone)


def test_instrumented_empty_run_emits_only_start_and_end():
    program, network = _decay_program()
    sink = _RecordingSink()
    result = vec.run_program(
        program, network, seed=3, ids=[], wake=None, budget=16, instrument=sink
    )
    assert result.rounds == 0
    assert [name for name, _ in sink.calls] == ["on_run_start", "on_run_end"]
    summary = sink.calls[-1][1]
    assert (summary.solved, summary.rounds, summary.winner) == (False, 0, None)


def test_batch_rejects_ragged_activations():
    protocol = make_protocol("decay")
    activations = [
        Activation(active_ids=[1, 2, 3]),
        Activation(active_ids=[1, 2]),
    ]
    with pytest.raises(ConfigurationError, match="same number of nodes"):
        vec.run_protocol_batch(
            protocol, n=8, num_channels=2, seeds=[1, 2], activations=activations
        )
    with pytest.raises(ConfigurationError, match="spec"):
        vec.run_protocol_batch(
            protocol, n=8, num_channels=2, seeds=[1, 2, 3], activations=activations
        )


def test_batch_registry_parity_with_per_trial_baseline():
    """The registered batched companion equals its per-trial sibling."""
    assert "baseline" in registered_batch_trials()
    seeds = list(range(900, 930))
    kwargs = dict(protocol_name="decay", n=48, num_channels=3, active_count=12)
    statuses = baseline_trial_batch(seeds, backend="vec", draws="counter", **kwargs)
    assert statuses is not None and len(statuses) == len(seeds)
    for seed, (status, payload) in zip(seeds, statuses):
        assert status == "ok"
        ref = baseline_trial(
            kwargs["protocol_name"],
            kwargs["n"],
            kwargs["num_channels"],
            kwargs["active_count"],
            seed,
            backend="vec",
            draws="counter",
        )
        assert payload == dict(ref), seed


def test_batch_companion_declines_ineligible_configs():
    seeds = [1, 2, 3]
    kwargs = dict(protocol_name="decay", n=16, num_channels=2, active_count=4)
    assert baseline_trial_batch(seeds, backend="coroutine", draws="counter", **kwargs) is None
    assert baseline_trial_batch(seeds, backend="vec", draws="auto", **kwargs) is None
    # Non-lowerable protocol: declines instead of failing the batch.
    assert (
        baseline_trial_batch(
            seeds,
            protocol_name="fnw-general",
            n=16,
            num_channels=2,
            active_count=4,
            backend="vec",
            draws="counter",
        )
        is None
    )


# --------------------------------------------------------- sweep-layer parity


def _grid():
    base = {"protocol": "decay", "C": 2, "active": 12, "backend": "vec", "draws": "counter"}
    return [{**base, "n": 48}, {**base, "n": 96}]


def _snapshot(result):
    return [
        (cell.params, cell.trials, [f.seed for f in cell.failures])
        for cell in result.cells
    ]


def _run(tmp_path=None, **runner_kwargs):
    checkpoint = str(tmp_path) if tmp_path is not None else None
    with SweepRunner(checkpoint_dir=checkpoint, **runner_kwargs) as runner:
        return runner.run_grid("baseline", _grid(), trials=30, master_seed=11)


def test_sweep_records_invariant_under_batch_dispatch():
    reference = _snapshot(_run(processes=1, vec_batch=False))
    assert _snapshot(_run(processes=1, vec_batch=True)) == reference
    assert _snapshot(_run(processes=2, vec_batch=True)) == reference
    assert _snapshot(_run(processes=2, vec_batch=True, vec_batch_size=7)) == reference
    assert _snapshot(_run(processes=1, vec_batch=True, vec_batch_size=1)) == reference


def test_sweep_batch_invariant_under_supervision():
    reference = _snapshot(_run(processes=1, vec_batch=False))
    supervised = _run(
        processes=2,
        vec_batch=True,
        supervision=SupervisionPolicy(max_attempts=2, backoff_base=0.0),
    )
    assert _snapshot(supervised) == reference


def test_sweep_batch_resume_interchanges_with_per_trial(tmp_path):
    """Records written batched resume per-trial and vice versa."""
    reference = _snapshot(_run(processes=1, vec_batch=False))

    store_a = tmp_path / "a"
    first = _run(tmp_path=store_a, processes=1, vec_batch=True)
    assert _snapshot(first) == reference
    metrics = MetricsRegistry()
    resumed = _run(tmp_path=store_a, processes=1, vec_batch=False, metrics=metrics)
    assert _snapshot(resumed) == reference
    counters = metrics.snapshot()["counters"]
    assert counters.get("sweep/trials_cached", 0) == 60
    assert counters.get("sweep/trials_executed", 0) == 0

    store_b = tmp_path / "b"
    _run(tmp_path=store_b, processes=1, vec_batch=False)
    metrics = MetricsRegistry()
    resumed = _run(tmp_path=store_b, processes=1, vec_batch=True, metrics=metrics)
    assert _snapshot(resumed) == reference
    assert metrics.snapshot()["counters"].get("sweep/trials_cached", 0) == 60


def test_sweep_batch_falls_back_for_ineligible_cells():
    """Coroutine-backend cells still complete under vec_batch=True."""
    grid = [{"protocol": "decay", "n": 24, "C": 2, "active": 8}]
    with SweepRunner(processes=1, vec_batch=True) as runner:
        batched = runner.run_grid("baseline", grid, trials=12, master_seed=3)
    with SweepRunner(processes=1, vec_batch=False) as runner:
        plain = runner.run_grid("baseline", grid, trials=12, master_seed=3)
    assert _snapshot(batched) == _snapshot(plain)


# ----------------------------------------------------------- compile caching


def test_compile_cache_reuses_compiled_program():
    from repro.sim.network import Network

    protocol = make_protocol("decay")
    network = Network(n=32, num_channels=2)
    vec.clear_compile_cache()
    first = vec.compile_program(protocol.to_round_program(network))
    assert vec.compile_cache_stats() == {"hits": 0, "misses": 1}
    # A *structurally identical* re-lowering hits the cache.
    again = vec.compile_program(protocol.to_round_program(network))
    assert again is first
    assert vec.compile_cache_stats() == {"hits": 1, "misses": 1}
    # A different structure misses.
    vec.compile_program(protocol.to_round_program(Network(n=64, num_channels=2)))
    assert vec.compile_cache_stats() == {"hits": 1, "misses": 2}
    vec.clear_compile_cache()
    assert vec.compile_cache_stats() == {"hits": 0, "misses": 0}


def test_run_protocol_reuses_lowering_across_calls(monkeypatch):
    protocol = make_protocol("decay")
    vec.clear_compile_cache()
    calls = {"n": 0}
    original = type(protocol).to_round_program

    def counting(self, network):
        calls["n"] += 1
        return original(self, network)

    monkeypatch.setattr(type(protocol), "to_round_program", counting)
    for seed in range(4):
        vec.run_protocol(protocol, n=32, num_channels=2, seed=seed, draws="counter")
    assert calls["n"] == 1  # one lowering serves every trial
    vec.clear_compile_cache()


# ------------------------------------------------------------ fallback dedup


def test_fallback_dedup_suppresses_repeats_and_counts():
    vec.disable_fallback_dedup()
    vec.drain_fallback_events()
    try:
        vec.enable_fallback_dedup()
        with pytest.warns(vec.VecFallbackWarning):
            vec.warn_fallback("proto-a", "no lowering")
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            vec.warn_fallback("proto-a", "no lowering")  # deduplicated
        with pytest.warns(vec.VecFallbackWarning):
            vec.warn_fallback("proto-a", "different reason")
        assert vec.drain_fallback_events() == 3
        assert vec.drain_fallback_events() == 0
    finally:
        vec.disable_fallback_dedup()
    # Dedup off (the default): every call warns again.
    with pytest.warns(vec.VecFallbackWarning):
        vec.warn_fallback("proto-a", "no lowering")
    assert vec.drain_fallback_events() == 1


def test_sweep_counts_vec_fallbacks_metric():
    # fnw-general has no to_round_program: every vec trial falls back.
    grid = [
        {"protocol": "fnw-general", "n": 12, "C": 2, "active": 4, "backend": "vec"}
    ]
    metrics = MetricsRegistry()
    with SweepRunner(processes=1, metrics=metrics) as runner:
        result = runner.run_grid("baseline", grid, trials=5, master_seed=0)
    assert len(result.cells[0].trials) == 5
    counters = metrics.snapshot()["counters"]
    assert counters.get("sweep/vec_fallbacks", 0) == 5


# -------------------------------------------------------------------- CLI


def test_cli_vec_batch_requires_counter_draws(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit, match="--vec-batch needs"):
        main(
            [
                "sweep",
                "--trial",
                "baseline",
                "--axis",
                "protocol=decay",
                "--axis",
                "n=16",
                "--axis",
                "C=2",
                "--axis",
                "active=4",
                "--vec-batch",
            ]
        )


def test_cli_vec_batch_runs(capsys):
    from repro.cli import main

    code = main(
        [
            "sweep",
            "--trial",
            "baseline",
            "--axis",
            "protocol=decay",
            "--axis",
            "n=32",
            "--axis",
            "C=2",
            "--axis",
            "active=8",
            "--trials",
            "8",
            "--processes",
            "1",
            "--backend",
            "vec",
            "--draws",
            "counter",
            "--vec-batch",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "8 executed" in out
