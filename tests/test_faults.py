"""Deterministic fault injection and robustness tests.

Covers the ``"fault"`` registry kind and :class:`FaultPlan` composition, the
seeded :class:`FaultGate`, the pool-level allocation-pressure hook, the
single-node retry / deadline / failure lifecycle (token identity under
retries, explicit terminal statuses, clean page accounting), the
cancel-while-preempted regression, cluster chaos end-to-end (crash plus
recovery, stragglers and health supervision, shedding, byte-identical
reruns) and the benchmark regression checker's missing-key handling.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.registry import RegistryError, known, resolve
from repro.serve import (
    AllocPressure,
    ClusterEngine,
    FaultGate,
    FaultPlan,
    ReplicaCrash,
    ReplicaHealth,
    Request,
    ServingEngine,
    Straggler,
    TransientExec,
    resolve_fault_plan,
)
from repro.workloads import zipf_shared_prefix_requests

BOUNDED = "paged:page_tokens=8,initial_pages=16,grow=false"


def _request(request_id: str, prompt, decode_len: int = 6, arrival: float = 0.0,
             **kwargs) -> Request:
    return Request(request_id=request_id, arrival_time_s=arrival,
                   prompt_len=len(prompt), decode_len=decode_len,
                   prompt_tokens=tuple(prompt), **kwargs)


def _trace(n: int = 6, decode_len: int = 6, **kwargs) -> list[Request]:
    return [_request(f"r{i}", [(3 * i + j) % 30 + 1 for j in range(12)],
                     decode_len=decode_len, arrival=i * 0.01, **kwargs)
            for i in range(n)]


def _by_id(report) -> dict:
    return {r.request.request_id: r for r in report.results}


def _outcome(report) -> dict:
    return {r.request.request_id: (r.status, tuple(r.generated_tokens),
                                   r.n_retries) for r in report.results}


@pytest.fixture
def lm():
    from repro.llm.config import tiny_config
    from repro.llm.model import DecoderLM

    return DecoderLM(tiny_config("faults-tiny", n_layers=2, d_model=32,
                                 n_heads=4, d_ff=64, vocab_size=48,
                                 max_seq_len=512), seed=7)


class TestFaultRegistry:
    def test_fault_kind_registered(self):
        names = known("fault")
        for name in ("replica-crash", "straggler", "transient-exec",
                     "alloc-pressure"):
            assert name in names

    def test_specs_round_trip(self):
        plan = resolve("fault", "replica-crash:replica=2,at=5,recover_after=3")
        assert plan.crashes == (ReplicaCrash(replica=2, at=5, recover_after=3),)
        plan = resolve("fault", "straggler:replica=1,slowdown=2.5")
        assert plan.stragglers_for(1) == (
            Straggler(replica=1, slowdown=2.5),)
        assert plan.stragglers_for(0) == ()
        assert resolve("fault", "transient-exec:rate=0.25").faults == (
            TransientExec(rate=0.25),)
        assert resolve("fault", "alloc-pressure:rate=0.5").faults == (
            AllocPressure(rate=0.5),)

    def test_unknown_fault_raises(self):
        with pytest.raises(RegistryError):
            resolve("fault", "cosmic-ray:rate=1.0")

    def test_plan_composes_specs_plans_and_dataclasses(self):
        plan = FaultPlan(["transient-exec:rate=0.1",
                          FaultPlan([Straggler(replica=1, slowdown=3.0)]),
                          ReplicaCrash(replica=0, at=2)], seed=9)
        kinds = {type(f) for f in plan.faults}
        assert kinds == {TransientExec, Straggler, ReplicaCrash}
        text = plan.describe()
        assert "transient-exec:rate=0.1" in text
        assert "straggler:replica=1" in text
        assert "replica-crash:replica=0,at=2" in text
        with pytest.raises(TypeError):
            FaultPlan([object()])

    def test_resolve_fault_plan_forms(self):
        assert resolve_fault_plan(None) is None
        plan = FaultPlan([TransientExec(rate=0.1)], seed=3)
        assert resolve_fault_plan(plan) is plan  # keeps its own seed
        built = resolve_fault_plan("transient-exec:rate=0.1", seed=11)
        assert built.seed == 11
        empty = resolve_fault_plan([], seed=0)
        assert empty.faults == () and empty.describe() == "fault:none"
        assert empty.exec_gate() is None and empty.alloc_gate() is None
        assert empty.pool_gate() is None

    def test_inflation_window(self):
        plan = FaultPlan([Straggler(replica=1, slowdown=2.0, at=3, until=6)])
        assert plan.inflation(1, 2) == 1.0
        assert plan.inflation(1, 3) == 2.0
        assert plan.inflation(1, 5) == 2.0
        assert plan.inflation(1, 6) == 1.0
        assert plan.inflation(0, 4) == 1.0

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            TransientExec(rate=1.5)
        with pytest.raises(ValueError):
            Straggler(slowdown=0.5)
        with pytest.raises(ValueError):
            ReplicaCrash(recover_after=0)
        with pytest.raises(ValueError):
            Straggler(at=5, until=5)


class TestFaultGate:
    def test_deterministic_across_instances(self):
        a = FaultGate(0.3, seed=4, tag="t")
        b = FaultGate(0.3, seed=4, tag="t")
        draws_a = [a.fires("req", clock) for clock in range(200)]
        draws_b = [b.fires("req", clock) for clock in range(200)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_rate_extremes(self):
        never = FaultGate(0.0, seed=0, tag="t")
        always = FaultGate(1.0, seed=0, tag="t")
        assert not any(never.fires("x", c) for c in range(50))
        assert all(always.fires("x", c) for c in range(50))

    def test_rate_is_approximately_honoured(self):
        gate = FaultGate(0.3, seed=1, tag="freq")
        hits = sum(gate.fires("r", c) for c in range(2000))
        assert 450 < hits < 750  # ~600 expected

    def test_seed_and_tag_change_the_schedule(self):
        base = [FaultGate(0.5, 0, "a").fires(c) for c in range(64)]
        other_seed = [FaultGate(0.5, 1, "a").fires(c) for c in range(64)]
        other_tag = [FaultGate(0.5, 0, "b").fires(c) for c in range(64)]
        assert base != other_seed
        assert base != other_tag

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultGate(-0.1, 0, "t")
        with pytest.raises(ValueError):
            FaultGate(1.1, 0, "t")


class TestPoolPressureHook:
    def test_try_alloc_respects_gate_but_alloc_bypasses(self):
        from repro.core.kv_pool import KVPagePool

        pool = KVPagePool(n_heads=2, head_dim=4, page_tokens=4,
                          initial_pages=4, grow=False)
        pool.fault_gate = lambda: True
        assert pool.try_alloc() is None  # gate-injected pressure
        page = pool.alloc()  # granted reservations bypass the gate
        assert page is not None
        pool.check_accounting()
        pool.release(page)
        pool.fault_gate = None
        assert pool.try_alloc() is not None

    def test_factory_arms_existing_and_new_pools(self):
        factory = resolve("cache", BOUNDED)
        factory.arm_fault_gate(lambda: True)
        assert factory.fault_gate is not None

    def test_unarmed_pool_unchanged(self):
        from repro.core.kv_pool import KVPagePool

        pool = KVPagePool(n_heads=2, head_dim=4, page_tokens=4,
                          initial_pages=2, grow=False)
        pages = [pool.try_alloc() for _ in range(3)]
        assert pages[0] is not None and pages[1] is not None
        assert pages[2] is None  # genuinely dry, not injected


class TestSingleNodeChaos:
    def test_transient_retries_are_token_identical(self, lm):
        requests = _trace(6)
        engine = ServingEngine(max_concurrency=3)
        healthy = engine.run_functional(lm, requests)
        chaotic = engine.run_functional(lm, requests, paranoid=True,
                                        faults="transient-exec:rate=0.2")
        assert chaotic.n_retries > 0
        assert all(r.status == "finished" for r in chaotic.results)
        assert ({k: v[1] for k, v in _outcome(chaotic).items()}
                == {k: v[1] for k, v in _outcome(healthy).items()})

    def test_retry_exhaustion_fails_explicitly(self, lm):
        requests = _trace(3, max_retries=0)
        engine = ServingEngine(max_concurrency=3)
        factory = resolve("cache", BOUNDED)
        report = engine.run_functional(lm, requests, cache=factory,
                                       paranoid=True,
                                       faults="transient-exec:rate=1.0")
        assert len(report.results) == 3
        assert all(r.status == "failed" for r in report.results)
        assert report.n_failed == 3
        factory.check_accounting()
        assert factory.referenced_pages == 0

    def test_deadline_times_out_and_releases_pages(self, lm):
        requests = _trace(4, decode_len=40, deadline_steps=3)
        engine = ServingEngine(max_concurrency=1)  # queue guarantees overruns
        factory = resolve("cache", BOUNDED)
        report = engine.run_functional(lm, requests, cache=factory,
                                       paranoid=True)
        assert len(report.results) == 4
        assert report.n_timeouts > 0
        assert all(r.status in ("finished", "timeout") for r in report.results)
        factory.check_accounting()
        assert factory.referenced_pages == 0

    def test_alloc_pressure_is_waited_out_token_identically(self, lm):
        requests = _trace(6)
        engine = ServingEngine(max_concurrency=3)
        healthy = engine.run_functional(lm, requests, cache=BOUNDED,
                                        prefix_cache=True)
        pressured = engine.run_functional(lm, requests, cache=BOUNDED,
                                          prefix_cache=True, paranoid=True,
                                          faults="alloc-pressure:rate=0.3")
        assert all(r.status == "finished" for r in pressured.results)
        assert ({k: v[1] for k, v in _outcome(pressured).items()}
                == {k: v[1] for k, v in _outcome(healthy).items()})

    def test_empty_plan_matches_plain_run(self, lm):
        requests = _trace(5)
        engine = ServingEngine(max_concurrency=2)
        plain = engine.run_functional(lm, requests)
        armed = engine.run_functional(lm, requests, faults=[], paranoid=True)
        assert _outcome(plain) == _outcome(armed)
        assert armed.faults == "fault:none"

    def test_chaos_run_is_deterministic(self, lm):
        requests = _trace(6)
        engine = ServingEngine(max_concurrency=3)
        spec = ["transient-exec:rate=0.15", "alloc-pressure:rate=0.2"]
        first = engine.run_functional(lm, requests, cache=BOUNDED, seed=5,
                                      faults=spec, paranoid=True)
        second = engine.run_functional(lm, requests, cache=BOUNDED, seed=5,
                                       faults=spec, paranoid=True)
        assert _outcome(first) == _outcome(second)
        assert first.n_retries == second.n_retries

    def test_report_surfaces_robustness_counters(self, lm):
        engine = ServingEngine(max_concurrency=3)
        report = engine.run_functional(lm, _trace(6), paranoid=True,
                                       faults="transient-exec:rate=0.3")
        assert report.n_retries > 0
        text = report.summary()
        assert "retries" in text and "transient-exec" in text


class TestCancelWhilePreempted:
    def test_cancel_preempted_request_releases_pages_and_stays_dead(self, lm):
        """Regression: cancelling a request parked in PREEMPTED must release
        its pages and must not resurrect it on the next admission sweep."""
        from repro.serve import RequestPhase

        requests = [_request(f"r{i}", [(5 * i + j) % 30 + 1 for j in range(16)],
                             decode_len=12, arrival=i * 0.01) for i in range(5)]
        engine = ServingEngine(max_concurrency=5)
        factory = resolve("cache", "paged:page_tokens=8,initial_pages=6,grow=false")
        session = engine.start_functional(lm, cache=factory, paranoid=True)
        session.submit(requests)
        cancelled_id = None
        for _ in range(400):
            if not session.step():
                break
            if cancelled_id is None:
                preempted = [s for s in session.scheduler.live_states()
                             if s.phase is RequestPhase.PREEMPTED]
                if preempted:
                    cancelled_id = preempted[0].request_id
                    engine.cancel(cancelled_id)
        report = session.finish()
        assert cancelled_id is not None, "pool never forced a preemption"
        outcomes = _by_id(report)
        assert len(report.results) == 5  # exactly one result per request
        assert outcomes[cancelled_id].status == "cancelled"
        others = [r for rid, r in outcomes.items() if rid != cancelled_id]
        assert all(r.status == "finished" and len(r.generated_tokens) == 12
                   for r in others)
        factory.check_accounting()
        assert factory.referenced_pages == 0


class TestHealthAwareRouting:
    def _view(self, replica_id, health=ReplicaHealth.HEALTHY):
        from repro.serve import LoadSnapshot, ReplicaView

        return ReplicaView(replica_id, LoadSnapshot(0, 0, 0), health=health)

    def test_routers_skip_down_replicas(self):
        from repro.serve import LeastLoadedRouter, RoundRobinRouter

        views = [self._view(0, ReplicaHealth.DOWN), self._view(1)]
        request = _request("x", list(range(1, 9)))
        assert RoundRobinRouter().route(request, views) == 1
        assert LeastLoadedRouter().route(request, views) == 1

    def test_all_down_raises(self):
        from repro.serve import RoundRobinRouter

        views = [self._view(0, ReplicaHealth.DOWN)]
        with pytest.raises(RuntimeError, match="non-DOWN"):
            RoundRobinRouter().route(_request("x", [1, 2]), views)

    def test_affinity_demotes_degraded_digest_match(self):
        from repro.serve import RadixAffinityRouter

        prompt = list(range(1, 33))
        router = RadixAffinityRouter(threshold=8)
        views = [self._view(0), self._view(1)]
        first = router.route(_request("warm", prompt), views)
        # A healthy digest match wins; the same match on a DEGRADED replica
        # is demoted and the request goes to a healthy peer instead.
        assert router.route(_request("again", prompt), views) == first
        views[first] = self._view(first, ReplicaHealth.DEGRADED)
        rerouted = router.route(_request("rerouted", prompt), views)
        assert rerouted != first
        # With every replica degraded the digest match matters again.
        views[1 - first] = self._view(1 - first, ReplicaHealth.DEGRADED)
        assert router.route(_request("all-degraded", prompt), views) == first


class TestClusterChaos:
    FAULTS = ["replica-crash:replica=1,at=3,recover_after=6",
              "straggler:replica=2,slowdown=3",
              "transient-exec:rate=0.05",
              "alloc-pressure:rate=0.05"]

    def _trace(self, n=12):
        return zipf_shared_prefix_requests(
            n_requests=n, n_templates=3, prefix_len=16, suffix_len=4,
            decode_len=6, vocab_size=48, deadline_steps=200, max_retries=8,
            seed=3)

    def _cluster(self, **kwargs):
        merged = dict(router="round-robin", cache=BOUNDED, prefix_cache=True,
                      max_concurrency=2, seed=0)
        merged.update(kwargs)
        return ClusterEngine(4, **merged)

    def test_composed_chaos_reaches_terminal_token_identically(self, lm):
        requests = self._trace()
        healthy = self._cluster().run(lm, requests)
        chaotic = self._cluster(faults=self.FAULTS, paranoid=True).run(
            lm, requests)
        assert len(chaotic.results) == len(requests)
        assert all(r.status == "finished" for r in chaotic.results)
        healthy_tokens = {k: v[1] for k, v in _outcome(healthy).items()}
        chaos_tokens = {k: v[1] for k, v in _outcome(chaotic).items()}
        assert chaos_tokens == healthy_tokens

    def test_crashed_replica_recovers(self, lm):
        report = self._cluster(faults=self.FAULTS, paranoid=True).run(
            lm, self._trace())
        assert report.failed_replicas == [1]
        assert report.recovered_replicas == [1]
        transitions = report.health_transitions.get(1, {})
        assert transitions.get("healthy->down", 0) == 1
        assert transitions.get("down->healthy", 0) == 1
        text = report.summary()
        assert "rejoined" in text and "robustness" in text

    def test_straggler_is_marked_degraded(self, lm):
        report = self._cluster(
            faults=["straggler:replica=2,slowdown=3"]).run(lm, self._trace())
        transitions = report.health_transitions.get(2, {})
        assert transitions.get("healthy->degraded", 0) >= 1

    def test_chaos_rerun_is_byte_identical(self, lm):
        requests = self._trace()
        first = self._cluster(faults=self.FAULTS, paranoid=True).run(
            lm, requests)
        second = self._cluster(faults=self.FAULTS, paranoid=True).run(
            lm, requests)
        assert _outcome(first) == _outcome(second)
        assert first.n_retries == second.n_retries
        assert first.health_transitions == second.health_transitions

    @pytest.mark.parametrize("router", ["round-robin", "least-loaded",
                                        "radix-affinity"])
    def test_empty_plan_matches_plain_cluster_run(self, lm, router):
        requests = self._trace()
        plain = self._cluster(router=router).run(lm, requests)
        armed = self._cluster(router=router, faults=[], paranoid=True).run(
            lm, requests)
        assert _outcome(plain) == _outcome(armed)

    def test_load_shedding_is_explicit_and_total(self, lm):
        report = self._cluster(admission="kv-pressure:threshold=0.25",
                               paranoid=True).run(lm, self._trace(16))
        assert report.n_shed > 0
        assert len(report.results) == 16  # shed requests still get results
        shed = [r for r in report.results if r.status == "shed"]
        assert all(r.generated_tokens == [] for r in shed)

    def test_cancel_requeued_request_after_replica_failure(self, lm):
        """Regression: a request queued for resubmission after fail_replica
        must honour a cancellation instead of being re-admitted."""
        requests = self._trace()
        probe = self._cluster()
        probe_report = probe.run(lm, requests)
        victim = next(rid for rid, replica in probe_report.assignments.items()
                      if replica == 1)
        engine = self._cluster(paranoid=True)
        engine.fail_replica(1, at_step=2)
        engine.cancel(victim, at_step=2)
        report = engine.run(lm, requests)
        outcomes = _by_id(report)
        assert outcomes[victim].status == "cancelled"
        assert len(report.results) == len(requests)
        others = [r for rid, r in outcomes.items() if rid != victim]
        assert all(r.status == "finished" for r in others)

    def test_report_counts_pool_cluster_level_results(self, lm):
        report = self._cluster(faults=self.FAULTS, paranoid=True).run(
            lm, self._trace())
        assert report.n_requests == len(report.results)
        assert report.n_retries >= 0
        assert report.n_health_transitions == sum(
            sum(c.values()) for c in report.health_transitions.values())


class TestBenchRegressionChecker:
    @pytest.fixture
    def checker(self):
        path = (Path(__file__).resolve().parent.parent / "benchmarks"
                / "check_bench_regression.py")
        spec = importlib.util.spec_from_file_location("check_bench", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_passing_metrics_produce_no_failures(self, checker):
        baseline = {"guarded": [["a", "m"]], "a": {"m": 1.0}}
        assert checker.check({"a": {"m": 0.95}}, baseline, 0.2) == []

    def test_regression_fails_with_message(self, checker):
        baseline = {"guarded": [["a", "m"]], "a": {"m": 1.0}}
        failures = checker.check({"a": {"m": 0.5}}, baseline, 0.2)
        assert len(failures) == 1 and "a.m" in failures[0]

    def test_missing_keys_fail_per_metric_not_keyerror(self, checker):
        baseline = {"guarded": [["a", "m"], ["b", "x"]],
                    "a": {"m": 1.0}, "b": {"x": 1.0}}
        failures = checker.check({"a": {}}, baseline, 0.2)
        assert len(failures) == 2
        assert any("a.m" in f and "missing" in f for f in failures)
        assert any("b.x" in f and "missing" in f for f in failures)

    def test_missing_baseline_key_fails_cleanly(self, checker):
        baseline = {"guarded": [["a", "m"]], "a": {}}
        failures = checker.check({"a": {"m": 1.0}}, baseline, 0.2)
        assert len(failures) == 1
        assert "baseline" in failures[0] and "missing" in failures[0]

    def test_non_numeric_value_fails_cleanly(self, checker):
        baseline = {"guarded": [["a", "m"]], "a": {"m": 1.0}}
        failures = checker.check({"a": {"m": "fast"}}, baseline, 0.2)
        assert len(failures) == 1 and "not numeric" in failures[0]
