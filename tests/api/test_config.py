"""RankingOptions / EngineConfig: validation, kwarg mapping, round trips."""

from dataclasses import fields

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
        # ``True`` is an int to Python, but not a count of trials
        with pytest.raises(RankingError, match=field):
            RankingOptions.from_dict({field: True})

    def test_bad_tolerance(self):
        for tolerance in (0.0, "x", True):
            with pytest.raises(RankingError, match="tolerance"):
                RankingOptions(tolerance=tolerance)

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
        assert len(fields(config)) == 14
        assert config.cache_graphs and config.cache_scores

    @pytest.mark.parametrize(
        "field, old_default",
        [
            ("builder", "batched"),
            ("incremental", True),
            ("partitioner", "hash"),
            ("backend", "reference"),
        ],
        ids=["builder", "incremental", "partitioner", "backend"],
    )
    def test_removed_fields_are_refused(self, field, old_default):
        """One build path, one partitioner and one kernel path remain:
        the knobs that picked between answer-identical implementations
        are gone."""
        with pytest.raises(RankingError, match="unknown EngineConfig field"):
            EngineConfig.from_dict({field: old_default})
        with pytest.raises(TypeError):
            EngineConfig(**{field: old_default})

    def test_make_engine_applies_settings(self):
        config = EngineConfig(cache_scores=False, max_cached_graphs=7)
        engine = config.make_engine()
        assert engine.cache_scores is False
        assert engine.max_cached_graphs == 7

    def test_round_trip(self):
        config = EngineConfig(cache_graphs=False, max_workers=2)
        assert EngineConfig.from_dict(config.as_dict()) == config

    def test_shards_default_to_single_engine(self):
        config = EngineConfig()
        assert config.shards == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shards", 0),
            ("shards", -2),
            ("shards", 1.5),
            ("shards", "two"),
            ("shards", True),
            ("max_cached_scores", 0),
            ("max_cached_graphs", True),
            ("max_workers", -1),
            ("max_workers", False),
            ("cache_graphs", "false"),
            ("cache_scores", 0),
            ("worker_restarts", True),
            ("max_concurrency", True),
            ("max_queue_depth", False),
            ("rpc_timeout", True),
            ("rpc_timeout", "30"),
            ("retry_after", float("nan")),
            ("storage_path", 7),
        ],
    )
    def test_bad_values(self, field, value):
        """Every field is checked, through ``from_dict`` as through the
        constructor; ``bool`` is an ``int`` to Python, but never a
        count or a duration here."""
        # on sqlite, a storage_path reaches its type check
        data = {field: value, "storage": "sqlite"}
        with pytest.raises(RankingError, match=field):
            EngineConfig(**data)
        with pytest.raises(RankingError, match=field):
            EngineConfig.from_dict(data)

    def test_sharded_round_trip(self):
        config = EngineConfig(shards=4)
        assert config.as_dict()["shards"] == 4
        assert EngineConfig.from_dict(config.as_dict()) == config
