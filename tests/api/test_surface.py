"""Public-API surface snapshots.

``repro.api.__all__`` is the compatibility contract downstream code
targets. These snapshots are intentionally brittle: changing the public
surface must be a deliberate act (update the snapshot in the same
change), never an accident.
"""

import repro
import repro.api

#: the frozen repro.api surface — update deliberately, with a changelog
#: (ShardedResultSet added with the scatter/gather sharding layer)
API_SURFACE = [
    "EngineConfig",
    "Explanation",
    "Query",
    "QuerySpec",
    "RankedEntity",
    "RankingOptions",
    "ResultPage",
    "ResultSet",
    "Session",
    "ShardedResultSet",
    "open_session",
]

#: facade names re-exported at the repro top level
TOP_LEVEL_FACADE = [
    "EngineConfig",
    "Query",
    "QuerySpec",
    "RankingOptions",
    "ResultSet",
    "Session",
    "open_session",
]


def test_api_all_is_frozen():
    assert sorted(repro.api.__all__) == API_SURFACE


def test_api_names_resolve():
    for name in API_SURFACE:
        assert getattr(repro.api, name) is not None


def test_top_level_reexports():
    for name in TOP_LEVEL_FACADE:
        assert name in repro.__all__
        assert getattr(repro, name) is getattr(repro.api, name)


def test_legacy_surface_still_importable():
    """The pre-facade call paths keep working; removing any of these is
    a breaking change."""
    from repro import ExploratoryQuery, Mediator, RankingEngine, rank  # noqa: F401
    from repro.engine import EngineStats  # noqa: F401
    from repro.integration.query import BUILDERS  # noqa: F401
