"""Registry and spec-string resolution tests.

Covers the acceptance criteria of the registry redesign: every registered
cache/refresh/system/accelerator name round-trips through ``resolve``, cache
specs produce *working* factories for all seven policies, and malformed specs
raise :class:`RegistryError` whose message lists the known names.
"""

from __future__ import annotations

import pytest

from repro.accelerator.accelerator import EdgeSystem
from repro.baselines.accelerators import RivalAcceleratorModel
from repro.core.refresh import RefreshPolicy
from repro.llm.cache import LayerKVCache
from repro.llm.config import ModelConfig
from repro.llm.generation import generate
from repro.registry import RegistryError, known, known_kinds, parse_spec, resolve
from repro.workloads.generator import WorkloadTrace

#: Small-budget spec for every cache policy (used to round-trip all eight).
CACHE_SPECS = {
    "full": "full",
    "paged": "paged:page_tokens=4",
    "kelle": "kelle:budget=16,sink_tokens=2,recent_window=4",
    "streaming_llm": "streaming_llm:budget=16,sink_tokens=2",
    "h2o": "h2o:budget=16,sink_tokens=2,recent_window=4",
    "random": "random:budget=16,sink_tokens=2,recent_window=4",
    "kivi": "kivi:bits=2",
    "quarot": "quarot:bits=4",
}


class TestSpecParsing:
    def test_name_only(self):
        assert parse_spec("h2o") == ("h2o", {})

    def test_params_are_coerced(self):
        name, kwargs = parse_spec("x:a=512,b=1.5,c=true,d=off,e=none,f=hello")
        assert name == "x"
        assert kwargs == {"a": 512, "b": 1.5, "c": True, "d": False, "e": None, "f": "hello"}

    def test_whitespace_tolerated(self):
        assert parse_spec(" h2o : budget = 64 ") == ("h2o", {"budget": 64})

    @pytest.mark.parametrize("bad", ["", "   ", ":budget=1", "h2o:budget", "h2o:=1",
                                     "h2o:bad key=1"])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(RegistryError):
            parse_spec(bad)

    def test_non_string_spec_raises(self):
        with pytest.raises(RegistryError):
            parse_spec(123)


class TestRegistryLookup:
    def test_known_kinds(self):
        assert {"cache", "refresh", "system", "accelerator", "model", "trace"} <= set(known_kinds())

    def test_every_cache_policy_registered(self):
        assert set(known("cache")) == set(CACHE_SPECS)

    def test_four_refresh_policies_registered(self):
        assert set(known("refresh")) == {"none", "guard", "uniform", "2drp"}

    def test_five_systems_registered(self):
        assert set(known("system")) == {"original+sram", "original+edram", "aep+sram",
                                        "aerp+sram", "kelle+edram"}

    def test_four_accelerators_registered(self):
        assert set(known("accelerator")) == {"jetson-orin", "llm.npu", "dynax", "comet"}

    def test_unknown_name_lists_known_names(self):
        for kind in ("cache", "refresh", "system", "accelerator"):
            with pytest.raises(RegistryError) as excinfo:
                resolve(kind, "definitely-not-registered")
            message = str(excinfo.value)
            for name in known(kind):
                assert name in message

    def test_unknown_kind_raises(self):
        with pytest.raises(RegistryError) as excinfo:
            resolve("nonsense-kind", "anything")
        assert "cache" in str(excinfo.value)

    def test_unknown_parameter_lists_accepted(self):
        with pytest.raises(RegistryError) as excinfo:
            resolve("cache", "h2o:nonsense=1")
        assert "budget" in str(excinfo.value)

    def test_aliases_and_case_insensitivity(self):
        assert resolve("cache", "AERP:budget=16,sink_tokens=2") is not None
        assert resolve("system", "kelle").name == "kelle+edram"
        assert resolve("cache", "streaming-llm:budget=16,sink_tokens=2") is not None

    def test_non_string_passthrough(self):
        system = resolve("system", "kelle+edram")
        assert resolve("system", system) is system

    def test_overrides_on_built_object_raise(self):
        system = resolve("system", "kelle+edram")
        with pytest.raises(RegistryError):
            resolve("system", system, kv_budget=64)


class TestCacheRoundTrip:
    @pytest.mark.parametrize("name", sorted(CACHE_SPECS))
    def test_every_cache_spec_builds_a_working_factory(self, small_model, rng, name):
        factory = resolve("cache", CACHE_SPECS[name])
        assert callable(factory)
        prompt = rng.integers(0, small_model.config.vocab_size, size=24)
        result = generate(small_model, prompt, 8, cache_factory=factory)
        assert len(result.generated_tokens) == 8
        for cache in result.caches:
            assert isinstance(cache, LayerKVCache)
            assert cache.num_tokens > 0

    def test_spec_overrides_apply(self):
        factory = resolve("cache", "h2o:budget=64", budget=16, sink_tokens=2)
        cache = factory(0, 4, 8, 32, lambda x, p: (None, None))
        assert cache.budget == 16
        assert cache.sink_tokens == 2


class TestOtherKindsRoundTrip:
    @pytest.mark.parametrize("name", ["none", "guard", "uniform", "2drp"])
    def test_refresh_round_trip(self, name):
        policy = resolve("refresh", name)
        if name == "none":
            assert policy is None
        else:
            assert isinstance(policy, RefreshPolicy)
            assert policy.average_interval() > 0

    def test_refresh_2drp_scale(self):
        scaled = resolve("refresh", "2drp:scale=2.0")
        base = resolve("refresh", "2drp")
        assert scaled.average_interval() == pytest.approx(2.0 * base.average_interval())

    @pytest.mark.parametrize("name", ["original+sram", "original+edram", "aep+sram",
                                      "aerp+sram", "kelle+edram"])
    def test_system_round_trip(self, name):
        system = resolve("system", f"{name}:kv_budget=1024")
        assert isinstance(system, EdgeSystem)
        assert system.name == name

    @pytest.mark.parametrize("name", ["jetson-orin", "llm.npu", "dynax", "comet"])
    def test_accelerator_round_trip(self, name):
        rival = resolve("accelerator", name)
        assert isinstance(rival, RivalAcceleratorModel)
        assert rival.name == name

    def test_model_round_trip(self):
        for name in known("model"):
            config = resolve("model", name)
            assert isinstance(config, ModelConfig)
            assert config.name == name

    def test_trace_round_trip_with_overrides(self):
        for name in known("trace"):
            trace = resolve("trace", f"{name}:batch=1")
            assert isinstance(trace, WorkloadTrace)
            assert trace.batch_size == 1
        custom = resolve("trace", "pg19:context=2048,decode=256,batch=4")
        assert (custom.context_len, custom.decode_len, custom.batch_size) == (2048, 256, 4)
