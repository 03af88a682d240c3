"""RankingOptions / EngineConfig: validation, kwarg mapping, round trips."""

import pytest

from repro.api import EngineConfig, RankingOptions
from repro.errors import RankingError


class TestRankingOptionsValidation:
    def test_defaults_are_all_none(self):
        assert RankingOptions().as_dict() == {}

    def test_bad_strategy(self):
        with pytest.raises(RankingError, match="unknown reliability strategy"):
            RankingOptions(strategy="guess")

    @pytest.mark.parametrize("field", ["trials", "iterations", "max_iterations"])
    def test_positive_int_fields(self, field):
        with pytest.raises(RankingError, match=field):
            RankingOptions(**{field: 0})
        with pytest.raises(RankingError, match=field):
            RankingOptions(**{field: 2.5})

    def test_bad_tolerance(self):
        with pytest.raises(RankingError, match="tolerance"):
            RankingOptions(tolerance=0.0)

    def test_bad_reduce(self):
        with pytest.raises(RankingError, match="reduce"):
            RankingOptions(reduce="yes")


class TestToKwargs:
    def test_reliability_fields_only(self):
        options = RankingOptions(
            strategy="mc", trials=500, reduce=False, iterations=9
        )
        assert options.to_kwargs("reliability") == {
            "strategy": "mc",
            "trials": 500,
            "reduce": False,
        }

    def test_sweep_fields_only(self):
        options = RankingOptions(strategy="mc", iterations=9, tolerance=1e-6)
        assert options.to_kwargs("propagation") == {
            "iterations": 9,
            "tolerance": 1e-6,
        }

    def test_deterministic_methods_get_nothing(self):
        options = RankingOptions(strategy="mc", trials=10, iterations=2)
        assert options.to_kwargs("in_edge") == {}
        assert options.to_kwargs("path_count") == {}

    def test_seed_threads_into_stochastic_reliability(self):
        assert RankingOptions(strategy="mc").to_kwargs("reliability", seed=7)[
            "rng"
        ] == 7
        # "auto" (the default) samples too
        assert RankingOptions().to_kwargs("reliability", seed=7)["rng"] == 7

    def test_seed_ignored_for_deterministic_strategies(self):
        assert "rng" not in RankingOptions(strategy="closed").to_kwargs(
            "reliability", seed=7
        )
        assert "rng" not in RankingOptions(strategy="exact").to_kwargs(
            "reliability", seed=7
        )
        assert "rng" not in RankingOptions().to_kwargs("propagation", seed=7)

    def test_is_stochastic(self):
        assert RankingOptions().is_stochastic
        assert RankingOptions(strategy="naive-mc").is_stochastic
        assert not RankingOptions(strategy="closed").is_stochastic


class TestOptionsRoundTrip:
    def test_round_trip(self):
        options = RankingOptions(strategy="mc", trials=123, reduce=True)
        assert RankingOptions.from_dict(options.as_dict()) == options

    def test_unknown_field(self):
        with pytest.raises(RankingError, match="unknown RankingOptions field"):
            RankingOptions.from_dict({"rngs": 1})


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.backend == "compiled"
        assert config.cache_graphs and config.cache_scores

    def test_bad_backend(self):
        with pytest.raises(RankingError, match="unknown backend"):
            EngineConfig(backend="gpu")

    @pytest.mark.parametrize(
        "field, old_default",
        [("builder", "batched"), ("incremental", True), ("partitioner", "hash")],
        ids=["builder", "incremental", "partitioner"],
    )
    def test_removed_fields_are_refused(self, field, old_default):
        """One build path and one partitioner remain: the knobs that
        picked between answer-identical implementations are gone."""
        with pytest.raises(RankingError, match="unknown EngineConfig field"):
            EngineConfig.from_dict({field: old_default})
        with pytest.raises(TypeError):
            EngineConfig(**{field: old_default})

    def test_bad_cache_sizes(self):
        with pytest.raises(RankingError, match="max_cached_scores"):
            EngineConfig(max_cached_scores=0)

    def test_bad_workers(self):
        with pytest.raises(RankingError, match="max_workers"):
            EngineConfig(max_workers=-1)

    def test_make_engine_applies_settings(self):
        config = EngineConfig(
            backend="reference",
            cache_scores=False,
            max_cached_graphs=7,
        )
        engine = config.make_engine()
        assert engine.backend == "reference"
        assert engine.cache_scores is False
        assert engine.max_cached_graphs == 7

    def test_round_trip(self):
        config = EngineConfig(backend="reference", max_workers=2)
        assert EngineConfig.from_dict(config.as_dict()) == config

    def test_shards_default_to_single_engine(self):
        config = EngineConfig()
        assert config.shards == 1

    @pytest.mark.parametrize("shards", [0, -2, 1.5, "two"])
    def test_bad_shards(self, shards):
        with pytest.raises(RankingError, match="shards"):
            EngineConfig(shards=shards)

    def test_sharded_round_trip(self):
        config = EngineConfig(shards=4)
        assert config.as_dict()["shards"] == 4
        assert EngineConfig.from_dict(config.as_dict()) == config
