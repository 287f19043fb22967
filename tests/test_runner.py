"""Tests for the sweep orchestration subsystem (:mod:`repro.runner`)."""

from __future__ import annotations

import math
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.runner.cache as cache_module
import repro.runner.sweep as sweep_module
from repro.baselines import G10Policy, MegatronPolicy, ZeroInfinityPolicy
from repro.core import RatelPolicy
from repro.core.evaluation import EvalOutcome
from repro.faults import (
    CrashPolicy,
    FaultInjected,
    FlakyPolicy,
    FlakyThenSlowPolicy,
    PoisonPolicy,
    SlowPolicy,
)
from repro.fleet import CostOracle, run_bursty_drill
from repro.hardware import RTX_3090, RTX_4090, GiB, evaluation_server
from repro.models import llm, profile_model
from repro.obs.ledger import load_ledger
from repro.runner import (
    CacheKeyError,
    PointFailure,
    ProgressEvent,
    ResultCache,
    Sweep,
    SweepError,
    SweepPoint,
    cache_key,
    compute_point,
    describe,
    is_failure,
)

SERVER = evaluation_server()
CONFIG = llm("13B")


def grid(batches=(8, 16), policies=(ZeroInfinityPolicy(), RatelPolicy())):
    return [
        SweepPoint.evaluate(policy, CONFIG, batch, SERVER)
        for batch in batches
        for policy in policies
    ]


class TestCacheKeys:
    def test_deterministic_across_instances(self):
        """Fresh-but-equal policies/configs/servers produce the same key."""
        a = SweepPoint.evaluate(RatelPolicy(), llm("13B"), 32, evaluation_server())
        b = SweepPoint.evaluate(RatelPolicy(), llm("13B"), 32, evaluation_server())
        assert a.key() == b.key()

    def test_distinguishes_batch(self):
        a = SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        b = SweepPoint.evaluate(RatelPolicy(), CONFIG, 16, SERVER)
        assert a.key() != b.key()

    def test_distinguishes_policy_variant(self):
        a = SweepPoint.evaluate(RatelPolicy("optimized"), CONFIG, 32, SERVER)
        b = SweepPoint.evaluate(RatelPolicy("naive"), CONFIG, 32, SERVER)
        assert a.key() != b.key()

    def test_distinguishes_server(self):
        a = SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, evaluation_server(n_ssds=12))
        b = SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, evaluation_server(n_ssds=6))
        assert a.key() != b.key()

    def test_distinguishes_kind(self):
        a = SweepPoint.evaluate(RatelPolicy(), CONFIG, 1, SERVER)
        b = SweepPoint.max_trainable(RatelPolicy(), SERVER)
        assert a.key() != b.key()

    def test_private_policy_state_excluded(self):
        """Planner memo tables must not leak into the content key."""
        policy = RatelPolicy()
        before = SweepPoint.evaluate(policy, CONFIG, 32, SERVER).key()
        policy.plan(profile_model(CONFIG, 32), SERVER)  # populates _plan_cache
        after = SweepPoint.evaluate(policy, CONFIG, 32, SERVER).key()
        assert before == after

    def test_perf_gate_points_keep_the_committed_ledger_keys(self):
        """The CI perf gate diffs against ``benchmarks/results/ledger.jsonl``
        by content key; a policy refactor that changed a key would orphan
        the committed baseline."""
        ledger = load_ledger(
            str(Path(__file__).parents[1] / "benchmarks" / "results" / "ledger.jsonl")
        )
        committed = {entry.label: entry.config_key for entry in ledger.entries()}
        points = grid(batches=(8, 32))
        assert len(committed) == len(points) == 4
        for point in points:
            assert point.key() == committed[point.label()]

    def test_unserialisable_component_raises(self):
        with pytest.raises(CacheKeyError):
            cache_key("test", payload=object())

    @pytest.mark.parametrize(
        "payload", [{1: "a"}, {1: "a", "b": 2}, {"outer": {(1, 2): "a"}}, {None: 0}]
    )
    def test_non_str_dict_key_raises(self, payload):
        """JSON renders every object key as a string, so ``{1: "a"}`` and
        ``{"1": "a"}`` would share a content key; mixed key types would
        fail in ``sorted`` with a bare ``TypeError``."""
        with pytest.raises(CacheKeyError, match=r"dict with a '(int|tuple|NoneType)' key"):
            describe(payload)
        with pytest.raises(CacheKeyError):
            cache_key("test", payload=payload)

    def test_str_dict_keys_still_describe(self):
        assert describe({"b": 1.5, "a": [1, 2]}) == {"a": [1, 2], "b": "1.5"}


def direct_key(point: SweepPoint) -> str:
    """The point's content key from :func:`cache_key`, bypassing the memo."""
    return cache_key(
        point.kind,
        policy=point.policy,
        server=point.server,
        config=point.config,
        batch_size=point.batch_size,
        simulate_infeasible=point.simulate_infeasible,
        cap=point.cap,
    )


@pytest.fixture
def empty_memo(monkeypatch):
    """A private, empty key memo for one test."""
    memo: dict = {}
    monkeypatch.setattr(sweep_module, "_KEY_MEMO", memo)
    return memo


#: Pairs of points that are ``==`` component by component but that
#: ``describe`` renders differently, so their content keys differ.
EQUAL_BUT_DISTINCT = {
    "int vs float memory": (
        SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, evaluation_server(main_memory_bytes=128 * GiB)),
        SweepPoint.evaluate(
            RatelPolicy(), CONFIG, 8, evaluation_server(main_memory_bytes=float(128 * GiB))
        ),
    ),
    "0.0 vs -0.0 chassis price": (
        SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, replace(SERVER, chassis_price_usd=0.0)),
        SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, replace(SERVER, chassis_price_usd=-0.0)),
    ),
    "True vs 1 batch": (
        SweepPoint.evaluate(RatelPolicy(), CONFIG, True, SERVER),
        SweepPoint.evaluate(RatelPolicy(), CONFIG, 1, SERVER),
    ),
    "int vs float tp_efficiency": (
        SweepPoint.evaluate(MegatronPolicy(tp_efficiency=1), CONFIG, 8, SERVER),
        SweepPoint.evaluate(MegatronPolicy(tp_efficiency=1.0), CONFIG, 8, SERVER),
    ),
}


#: Generated points for the memo property: servers and policies drawn
#: from small sets of values, among them ones that are ``==`` across types.
POINTS = st.builds(
    lambda policy, gpu, memory, n_ssds, price, batch: SweepPoint.evaluate(
        policy,
        CONFIG,
        batch,
        replace(
            evaluation_server(gpu=gpu, main_memory_bytes=memory, n_ssds=n_ssds),
            chassis_price_usd=price,
        ),
    ),
    policy=st.one_of(
        st.sampled_from(["optimized", "naive"]).map(RatelPolicy),
        st.sampled_from([1, 1.0, True, 0.5]).map(MegatronPolicy),
        st.booleans().map(G10Policy),
    ),
    gpu=st.sampled_from([RTX_3090, RTX_4090]),
    memory=st.sampled_from([128 * GiB, float(128 * GiB), 256 * GiB]),
    n_ssds=st.sampled_from([0, 6, 12]),
    price=st.sampled_from([0, 0.0, -0.0, 1500.0]),
    batch=st.sampled_from([1, True, 1.0, 8]),
)


@dataclass
class FieldPolicy:
    """A dataclass policy: ``describe`` keys it by every field, ``_``-named ones too."""

    _variant: int = 0
    name: str = "fields"


class TestKeyMemo:
    """``SweepPoint.key`` remembers keys, but only type-exact values share one."""

    @pytest.mark.parametrize("name", sorted(EQUAL_BUT_DISTINCT))
    @pytest.mark.parametrize("first", [0, 1])
    def test_equal_but_distinct_points_keep_their_own_keys(self, empty_memo, name, first):
        pair = EQUAL_BUT_DISTINCT[name]
        a, b = pair[first], pair[1 - first]
        keys = [point.key() for point in (a, b, a, b)]
        assert keys == [direct_key(a), direct_key(b)] * 2
        assert keys[0] != keys[1]
        assert len(empty_memo) == 1  # both land on one index entry: == cannot split them

    def test_a_policy_changed_after_keying_gets_its_new_key(self, empty_memo):
        policy = MegatronPolicy()
        point = SweepPoint.evaluate(policy, CONFIG, 8, SERVER)
        before = point.key()
        policy.tp_efficiency = 0.5
        after = point.key()
        assert after == direct_key(point) != before
        policy.tp_efficiency = MegatronPolicy().tp_efficiency
        assert point.key() == before

    def test_a_dataclass_policy_is_remembered_by_every_field(self, empty_memo):
        policy = FieldPolicy()
        point = SweepPoint.evaluate(policy, CONFIG, 8, SERVER)
        first = point.key()
        other = SweepPoint.evaluate(FieldPolicy(_variant=1), CONFIG, 8, SERVER)
        assert other.key() == direct_key(other) != first
        policy._variant = 2
        assert point.key() == direct_key(point) != first

    def test_unhashable_public_state_is_keyed_directly(self, empty_memo):
        policy = RatelPolicy()
        policy.tags = ["a"]  # public, so part of the key, and unhashable
        point = SweepPoint.evaluate(policy, CONFIG, 8, SERVER)
        assert point.key() == direct_key(point)
        policy.tags.append("b")
        assert point.key() == direct_key(point)
        assert not empty_memo

    def test_memo_stays_within_its_bound(self, empty_memo, monkeypatch):
        monkeypatch.setattr(sweep_module, "KEY_MEMO_SIZE", 8)
        policy = RatelPolicy()
        for batch in range(1, 41):
            point = SweepPoint.evaluate(policy, CONFIG, batch, SERVER)
            assert point.key() == direct_key(point)
            assert 0 < len(empty_memo) <= 8

    def test_concurrent_callers_agree(self, empty_memo, monkeypatch):
        """Threads racing on the memo (and on its eviction) get the right
        keys, and no insert pushes it past its bound."""
        monkeypatch.setattr(sweep_module, "KEY_MEMO_SIZE", 4)
        points = [p for pair in EQUAL_BUT_DISTINCT.values() for p in pair]
        expected = [direct_key(point) for point in points]
        sizes: list[int] = []

        def key_all(_):
            keys = []
            for point in points * 25:
                keys.append(point.key())
                sizes.append(len(empty_memo))
            return keys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                results = list(pool.map(key_all, range(12), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(keys == expected * 25 for keys in results)
        assert len(sizes) == 12 * 25 * len(points) and max(sizes) <= 4

    def test_a_warm_fleet_drill_computes_no_key(self, empty_memo, monkeypatch):
        """One content key per distinct point, however often the oracle asks."""
        calls: list[str] = []

        def counting_cache_key(kind, **components):
            key = cache_key(kind, **components)
            calls.append(key)
            return key

        monkeypatch.setattr(sweep_module, "cache_key", counting_cache_key)
        lookups: list[str] = []
        memo_key = SweepPoint.key

        def counting_key(point):
            lookups.append(memo_key(point))
            return lookups[-1]

        monkeypatch.setattr(SweepPoint, "key", counting_key)
        oracle = CostOracle(Sweep())
        run_bursty_drill("sjf", seed=9, oracle=oracle)
        assert len(calls) == len(set(calls)) == len(set(lookups)) == 15
        assert len(lookups) > 10 * len(calls)
        calls.clear()
        run_bursty_drill("sjf", seed=9, oracle=oracle)  # fresh nodes and policies
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(POINTS, min_size=2, max_size=8))
    def test_key_is_always_cache_key(self, points):
        """Small value sets, so generated points often share a memo entry
        while differing in a leaf's type."""
        for point in points + points[::-1]:
            assert point.key() == direct_key(point)


class TestSweepCaching:
    def test_hit_returns_identical_metrics(self):
        sweep = Sweep()
        first = sweep.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        second = sweep.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        assert not first.cached
        assert second.cached
        assert second.tokens_per_s == first.tokens_per_s
        assert second.metrics == first.metrics
        assert sweep.stats.hits == 1
        assert sweep.stats.misses == 1

    def test_duplicate_points_computed_once(self):
        sweep = Sweep()
        point = SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        results = sweep.run([point, point, point])
        assert sweep.stats.misses == 1
        assert results[0].tokens_per_s == results[1].tokens_per_s == results[2].tokens_per_s

    def test_disk_cache_roundtrip(self, tmp_path):
        first = Sweep(cache_dir=str(tmp_path))
        outcome = first.evaluate(RatelPolicy(), CONFIG, 32, SERVER)

        second = Sweep(cache_dir=str(tmp_path))
        restored = second.evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        assert restored.cached
        assert second.stats.disk_hits == 1
        assert restored.tokens_per_s == outcome.tokens_per_s
        assert restored.metrics == outcome.metrics
        assert restored.result is None  # traces stay out of the JSON layer

    def test_detail_restores_live_result(self, tmp_path):
        Sweep(cache_dir=str(tmp_path)).evaluate(RatelPolicy(), CONFIG, 32, SERVER)
        fresh = Sweep(cache_dir=str(tmp_path))
        outcome = fresh.evaluate(RatelPolicy(), CONFIG, 32, SERVER, detail=True)
        assert outcome.require_result().trace is not None

    def test_scalar_points_cached(self):
        sweep = Sweep()
        a = sweep.max_trainable(RatelPolicy(), SERVER)
        b = sweep.max_trainable(RatelPolicy(), SERVER)
        assert a == b
        assert sweep.stats.hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        sweep = Sweep(cache_dir=str(tmp_path))
        point = SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER)
        sweep.run_point(point)
        for path in tmp_path.rglob("*.json"):
            path.write_text("{not json")
        fresh = Sweep(cache_dir=str(tmp_path))
        outcome = fresh.run_point(point)
        assert isinstance(outcome, EvalOutcome)
        assert fresh.stats.disk_hits == 0

    def test_edited_disk_entry_is_recomputed(self, tmp_path):
        """An entry edited into other valid JSON is a miss, never served."""
        point = SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER)
        original = Sweep(cache_dir=str(tmp_path)).run_point(point)
        (path,) = tmp_path.rglob("*.json")
        stored = f'"iteration_time": {original.iteration_time!r}'
        text = path.read_text()
        assert stored in text
        path.write_text(
            text.replace(stored, f'"iteration_time": {2 * original.iteration_time!r}')
        )
        fresh = Sweep(cache_dir=str(tmp_path))
        outcome = fresh.run_point(point)
        assert outcome.iteration_time == original.iteration_time
        assert not outcome.cached
        assert fresh.stats.corrupt == 1
        assert fresh.stats.disk_hits == 0


class TestExecutorEquivalence:
    def _values(self, outcomes):
        return [
            o.tokens_per_s if o.feasible else None for o in outcomes
        ]

    def test_process_pool_matches_serial(self):
        serial = Sweep(executor="serial").run(grid())
        parallel = Sweep(executor="process", max_workers=2).run(grid())
        assert self._values(serial) == self._values(parallel)

    def test_results_ordered_like_input(self):
        points = grid(batches=(8, 16, 32))
        outcomes = Sweep(executor="process", max_workers=3).run(points)
        for point, outcome in zip(points, outcomes):
            assert outcome.policy == point.policy.name
            assert outcome.batch_size == point.batch_size

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            Sweep(executor="fork-bomb")


class TestProgressHook:
    def test_fires_once_per_point(self):
        events: list[ProgressEvent] = []
        sweep = Sweep(progress=events.append)
        points = grid()
        sweep.run(points)
        assert len(events) == len(points)
        assert {e.index for e in events} == set(range(len(points)))
        assert all(e.total == len(points) for e in events)
        assert not any(e.cached for e in events)

    def test_cached_flag_on_rerun(self):
        events: list[ProgressEvent] = []
        sweep = Sweep(progress=events.append)
        sweep.run(grid())
        events.clear()
        sweep.run(grid())
        assert events and all(e.cached for e in events)


class TestEvalOutcome:
    def test_payload_roundtrip(self):
        outcome = compute_point(SweepPoint.evaluate(RatelPolicy(), CONFIG, 32, SERVER))
        restored = EvalOutcome.from_payload(outcome.to_payload())
        assert restored.tokens_per_s == outcome.tokens_per_s
        assert restored.metrics == outcome.metrics
        assert restored.plan.a_g2m == outcome.plan.a_g2m
        assert restored.feasible == outcome.feasible

    def test_infeasible_metrics_are_nan(self):
        outcome = compute_point(
            SweepPoint.evaluate(RatelPolicy(), llm("412B"), 64, evaluation_server(n_ssds=1))
        )
        assert not outcome.feasible
        assert math.isnan(outcome.tokens_per_s)
        assert "cannot fit" in outcome.reason
        with pytest.raises(ValueError, match="not simulated"):
            outcome.require_result()

    def test_policy_evaluate_matches_simulate(self):
        """The rich outcome carries exactly the legacy simulate() numbers."""
        policy = RatelPolicy()
        profile = profile_model(CONFIG, 32)
        outcome = policy.evaluate(profile, SERVER)
        legacy = policy.simulate(profile, SERVER)
        assert outcome.tokens_per_s == legacy.tokens_per_s
        assert outcome.iteration_time == legacy.iteration_time


class TestResultCacheUnit:
    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(cache_module, "LRU_SIZE", 2)
        cache = ResultCache()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_stats_hit_rate(self):
        cache = ResultCache()
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestProgressHookResilience:
    def test_raising_hook_does_not_abort_the_sweep(self, caplog):
        """S1: a broken observer must not kill the run it observes."""

        def explode(event):
            raise RuntimeError("observer bug")

        sweep = Sweep(progress=explode)
        points = grid()
        with caplog.at_level("ERROR", logger="repro.runner"):
            outcomes = sweep.run(points)
        assert len(outcomes) == len(points)
        assert all(isinstance(o, EvalOutcome) for o in outcomes)
        assert any("progress hook raised" in r.message for r in caplog.records)

    def test_raising_hook_logged_once_per_point(self, caplog):
        calls = []

        def explode(event):
            calls.append(event)
            raise RuntimeError("observer bug")

        points = grid()
        with caplog.at_level("ERROR", logger="repro.runner"):
            Sweep(progress=explode).run(points)
        assert len(calls) == len(points)


class TestSweepValidation:
    def test_unknown_on_error_rejected(self):
        with pytest.raises(SweepError):
            Sweep(on_error="shrug")

    def test_negative_retries_rejected(self):
        with pytest.raises(SweepError):
            Sweep(retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(SweepError):
            Sweep(timeout=0.0)

    def test_unknown_point_kind_rejected_when_built(self):
        """A malformed point never reaches an executor, so the serial and
        the pool path cannot treat it differently."""
        with pytest.raises(SweepError, match="unknown sweep point kind 'bogus'"):
            SweepPoint(kind="bogus", policy=RatelPolicy(), server=SERVER, config=CONFIG)


class TestQuarantineSerial:
    def test_poisoned_point_quarantined_others_complete(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "RETRY_BACKOFF_S", 0.001)
        sweep = Sweep(retries=1, on_error="quarantine")
        points = [
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(PoisonPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 16, SERVER),
        ]
        outcomes = sweep.run(points)
        assert isinstance(outcomes[0], EvalOutcome) and outcomes[0].feasible
        assert isinstance(outcomes[2], EvalOutcome) and outcomes[2].feasible
        failure = outcomes[1]
        assert is_failure(failure)
        assert failure.error_type == "FaultInjected"
        assert failure.attempts == 2  # first try + one retry
        assert not failure.feasible  # renders as a non-result in tables
        assert "quarantined" in str(failure)

    def test_default_mode_still_raises(self):
        sweep = Sweep()
        with pytest.raises(FaultInjected):
            sweep.run([SweepPoint.evaluate(PoisonPolicy(), CONFIG, 8, SERVER)])

    def test_retry_rescues_flaky_point(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_module, "RETRY_BACKOFF_S", 0.001)
        sweep = Sweep(retries=2, on_error="quarantine")
        policy = FlakyPolicy(str(tmp_path), fail_times=2)
        [outcome] = sweep.run([SweepPoint.evaluate(policy, CONFIG, 8, SERVER)])
        assert isinstance(outcome, EvalOutcome)

    def test_failures_never_cached(self, tmp_path):
        """A quarantined point is recomputed on the next run — and can heal."""
        sweep = Sweep(retries=0, on_error="quarantine", cache_dir=str(tmp_path / "cache"))
        policy = FlakyPolicy(str(tmp_path), fail_times=1)
        point = SweepPoint.evaluate(policy, CONFIG, 8, SERVER)
        [first] = sweep.run([point])
        assert is_failure(first)
        [second] = sweep.run([point])  # sentinel consumed: now healthy
        assert isinstance(second, EvalOutcome)

    def test_point_failure_is_frozen_metadata(self):
        failure = PointFailure(
            kind="evaluate", label="x", error_type="OSError", message="boom", attempts=3
        )
        assert not failure.feasible
        assert "3 attempt(s)" in str(failure)
        assert "OSError" in str(failure)


class TestQuarantinePool:
    def test_worker_crash_and_poison_quarantine_only_the_poison(self, tmp_path, monkeypatch):
        """The acceptance scenario: one worker hard-crashes (retried after
        the pool is rebuilt), one point always raises (quarantined); the
        healthy points all complete."""
        monkeypatch.setattr(sweep_module, "RETRY_BACKOFF_S", 0.01)
        points = [
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(CrashPolicy(str(tmp_path)), CONFIG, 8, SERVER),
            SweepPoint.evaluate(PoisonPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 16, SERVER),
        ]
        sweep = Sweep(
            executor="process",
            max_workers=2,
            retries=2,
            on_error="quarantine",
        )
        outcomes = sweep.run(points)
        assert isinstance(outcomes[0], EvalOutcome) and outcomes[0].feasible
        assert isinstance(outcomes[1], EvalOutcome)  # crash retried to success
        assert is_failure(outcomes[2])  # only the poisoned point fails
        assert outcomes[2].error_type == "FaultInjected"
        assert isinstance(outcomes[3], EvalOutcome) and outcomes[3].feasible

    def test_failure_on_a_pool_that_just_broke_is_retried_on_a_fresh_pool(
        self, monkeypatch
    ):
        """A point that fails in the same round its pool breaks: the
        resubmission is refused with ``BrokenProcessPool``, which must
        rebuild the pool like a broken future does, not escape ``run``."""

        class BreaksAfterFirstFailure:
            """In-process pool that runs each task on submit and, once it
            has handed out a failed future, refuses further work the way a
            pool whose worker died does."""

            def __init__(self, max_workers=None):
                self.broken = False

            def submit(self, fn, *args):
                if self.broken:
                    raise BrokenProcessPool("a worker died")
                future = Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:  # noqa: BLE001 - handed to the sweep
                    future.set_exception(exc)
                    self.broken = True
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(
            "repro.runner.sweep.ProcessPoolExecutor", BreaksAfterFirstFailure
        )
        monkeypatch.setattr(sweep_module, "RETRY_BACKOFF_S", 0.0)
        sweep = Sweep(executor="process", retries=2, on_error="quarantine")
        outcomes = sweep.run(
            [
                SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
                SweepPoint.evaluate(RatelPolicy(), CONFIG, 16, SERVER),
                SweepPoint.evaluate(PoisonPolicy(), CONFIG, 8, SERVER),
            ]
        )
        assert all(isinstance(o, EvalOutcome) and o.feasible for o in outcomes[:2])
        assert is_failure(outcomes[2])
        assert outcomes[2].error_type == "FaultInjected"
        assert outcomes[2].attempts == 3  # ran, lost to the broken pool, ran
        assert sweep.metrics().value("sweep_pool_rebuilds_total") == 1

    def test_worker_crash_raises_without_retries(self, tmp_path):
        # A second point keeps the sweep on the pool path (a single
        # unique point with no timeout drains serially in-process).
        sweep = Sweep(executor="process", max_workers=2, on_error="raise")
        points = [
            SweepPoint.evaluate(CrashPolicy(str(tmp_path)), CONFIG, 8, SERVER),
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
        ]
        with pytest.raises(Exception):  # noqa: B017 - BrokenProcessPool
            sweep.run(points)

    def test_flaky_point_retried_across_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep_module, "RETRY_BACKOFF_S", 0.01)
        sweep = Sweep(
            executor="process",
            max_workers=2,
            retries=2,
            on_error="quarantine",
        )
        policy = FlakyPolicy(str(tmp_path), fail_times=2)
        outcomes = sweep.run(
            [
                SweepPoint.evaluate(policy, CONFIG, 8, SERVER),
                SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
            ]
        )
        assert all(isinstance(o, EvalOutcome) for o in outcomes)

    def test_timeout_quarantines_slow_point_only(self):
        sweep = Sweep(
            executor="process", max_workers=2, timeout=0.5, on_error="quarantine"
        )
        outcomes = sweep.run(
            [
                SweepPoint.evaluate(SlowPolicy(2.0), CONFIG, 8, SERVER),
                SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
            ]
        )
        assert is_failure(outcomes[0])
        assert outcomes[0].timed_out
        assert "timeout" in outcomes[0].message
        assert isinstance(outcomes[1], EvalOutcome) and outcomes[1].feasible

    def test_timeout_raises_in_fail_fast_mode(self):
        sweep = Sweep(executor="process", max_workers=1, timeout=0.5, on_error="raise")
        with pytest.raises(TimeoutError):
            sweep.run([SweepPoint.evaluate(SlowPolicy(2.0), CONFIG, 8, SERVER)])


class TestExecutorsQuarantineAlike:
    def test_poisoned_point_fails_the_same_serial_and_pooled(self, monkeypatch):
        """The in-process retry and the pool's resubmission quarantine a
        point through one path: same failure record, same counters."""
        monkeypatch.setattr(sweep_module, "RETRY_BACKOFF_S", 0.001)
        # The healthy second point keeps the process sweep on the pool.
        points = [
            SweepPoint.evaluate(PoisonPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
        ]
        seen = {}
        for executor in ("serial", "process"):
            sweep = Sweep(executor=executor, max_workers=2, retries=1, on_error="quarantine")
            failure, outcome = sweep.run(points)
            assert isinstance(outcome, EvalOutcome) and outcome.feasible
            metrics = sweep.metrics()
            seen[executor] = (
                failure.attempts,
                failure.error_type,
                failure.message,
                failure.timed_out,
                metrics.value("sweep_retries_total", kind="evaluate"),
                metrics.value("sweep_failures_total", kind="evaluate", error="FaultInjected"),
            )
        assert seen["serial"] == seen["process"]
        assert seen["serial"] == (
            2, "FaultInjected", "Poison: injected evaluation failure", False, 1.0, 1.0
        )


class TestShimsRemoved:
    """The pre-``evaluate()`` shims are gone after their deprecation cycle."""

    def test_legacy_helpers_are_gone(self):
        import repro.experiments.common as common

        assert not hasattr(common, "throughput_tokens_per_s")
        assert not hasattr(common, "best_throughput")


class TestSummaryLine:
    """Every ``run()`` ends with one INFO line a human can grep for."""

    def test_clean_run_logs_counts(self, caplog):
        sweep = Sweep()
        with caplog.at_level("INFO", logger="repro.runner"):
            sweep.run(grid(batches=(8,)))
        [line] = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep:")
        ]
        assert "2 points, 2 computed, 0 cache hits, 0 quarantined" in line
        assert "last failure" not in line

    def test_quarantined_run_names_the_last_failure(self, caplog):
        sweep = Sweep(retries=0, on_error="quarantine")
        points = [
            SweepPoint.evaluate(RatelPolicy(), CONFIG, 8, SERVER),
            SweepPoint.evaluate(PoisonPolicy(), CONFIG, 8, SERVER),
        ]
        with caplog.at_level("INFO", logger="repro.runner"):
            sweep.run(points)
        [line] = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep:")
        ]
        assert "1 quarantined" in line
        assert "last failure" in line
        assert "FaultInjected" in line

    def test_cache_hits_counted(self, caplog, tmp_path):
        sweep = Sweep(cache_dir=str(tmp_path))
        points = grid(batches=(8,))
        sweep.run(points)
        with caplog.at_level("INFO", logger="repro.runner"):
            sweep.run(points)
        [line] = [
            r.getMessage() for r in caplog.records if r.getMessage().startswith("sweep:")
        ]
        assert "0 computed, 2 cache hits" in line


class TestRetryThenTimeout:
    def test_transient_failure_then_slow_retry_quarantines(self, tmp_path, monkeypatch):
        """A point whose retry hangs burns both its attempts: the first
        raises (earning the retry), the retry hits the per-point timeout."""
        monkeypatch.setattr(sweep_module, "RETRY_BACKOFF_S", 0.01)
        sweep = Sweep(
            executor="process",
            max_workers=2,
            retries=1,
            timeout=0.5,
            on_error="quarantine",
        )
        policy = FlakyThenSlowPolicy(str(tmp_path), delay_s=2.0)
        [failure] = sweep.run([SweepPoint.evaluate(policy, CONFIG, 8, SERVER)])
        assert is_failure(failure)
        assert failure.attempts == 2
        assert failure.timed_out
        assert "timeout" in failure.message
