"""Warm-vs-cold differential for cross-generation cache reuse.

A notebook extension keeps one :class:`~repro.search.space.SearchCaches`
bundle across Generate clicks, so a regeneration re-costs only what the
previous clicks never saw.  The contract is that reuse is invisible: every
click must give the same interface (``Interface.fingerprint()``) and the same
total cost as a cold ``generate_interface`` on the same (log, seed), for every
search strategy, whatever the clicks before it left in the bundle.

The differential ticks the cells of covid, sdss and sp500 notebooks one at a
time through one ``Pi2Extension``.  The first session ticks them in log order
(every log extends the previous one); later sessions tick them in a seeded
random order with a matching search seed, on the same extension, so the
bundle carries entries from every earlier session.  A second differential
drives seeded random search walks over each growing prefix with a kept bundle
and compares every evaluation against a cold search space.  The remaining
tests pin invalidation (appended rows, including rows that change a column's
inferred role, a registered table, a changed screen or mapping policy between
clicks), the per-search statistics of a warm search
and the bounds of every cache in the bundle.

``WARM_REGEN_SESSIONS`` sets the budget: sessions per scenario and strategy
(default 2 in tier-1; CI runs 4 per push and 24 nightly).
``WARM_REGEN_SEED`` sets the first session seed.
"""

from __future__ import annotations

import os
import random
from datetime import date, timedelta

import pytest
from test_search_incremental import interface_dump, random_walk

from repro.datasets import (
    covid_query_log,
    load_covid_catalog,
    load_sdss_catalog,
    load_sp500_catalog,
    sdss_extended_query_log,
    sp500_query_log,
)
from repro.engine.catalog import Catalog
from repro.interface.layout import SMALL_SCREEN
from repro.mapping import MappingConfig
from repro.mapping.interaction_mapping import MappingPolicy
from repro.notebook import NotebookSession, Pi2Extension
from repro.pipeline import PipelineConfig, generate_interface
from repro.search import SearchCaches, SearchSpace, greedy_search, mcts_search
from repro.sql.schema import AttributeRole

SESSIONS = int(os.environ.get("WARM_REGEN_SESSIONS", "2"))
SEED = int(os.environ.get("WARM_REGEN_SEED", "20261018"))

SCENARIOS = {
    "covid": (load_covid_catalog, covid_query_log),
    "sdss": (load_sdss_catalog, sdss_extended_query_log),
    "sp500": (load_sp500_catalog, sp500_query_log),
}
METHODS = ("mcts", "greedy", "beam", "exhaustive")


@pytest.fixture(scope="module")
def catalogs():
    return {name: load() for name, (load, _log) in SCENARIOS.items()}


def config_for(method: str, seed: int, **overrides) -> PipelineConfig:
    return PipelineConfig(method=method, seed=seed, exhaustive_depth=2, **overrides)


def assert_same_as_cold(version, catalog, config) -> None:
    """The click's result equals a cold generation on the same (log, seed)."""
    cold = generate_interface(list(version.query_snapshot), catalog, config)
    warm = version.result
    assert warm.interface.fingerprint() == cold.interface.fingerprint()
    assert warm.total_cost == cold.total_cost


def tick_orders(cell_count: int):
    """Session 0 ticks in log order; later sessions in a seeded random order."""
    yield SEED, list(range(cell_count))
    for session in range(1, SESSIONS):
        order = list(range(cell_count))
        random.Random(SEED + session).shuffle(order)
        yield SEED + session, order


class TestWarmEqualsCold:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_click_equals_cold(self, catalogs, scenario, method):
        catalog = catalogs[scenario]
        session = NotebookSession(catalog=catalog)
        cell_ids = [cell.cell_id for cell in session.add_cells(SCENARIOS[scenario][1]())]
        extension = Pi2Extension(session=session)
        clicks = 0
        for seed, order in tick_orders(len(cell_ids)):
            for ticked in range(1, len(order) + 1):
                config = config_for(method, seed + ticked)
                chosen = [cell_ids[index] for index in order[:ticked]]
                version = extension.generate_interface(chosen, config)
                assert_same_as_cold(version, catalog, config)
                clicks += 1
        assert clicks == SESSIONS * len(cell_ids)
        # The differential is vacuous unless later clicks reused entries.
        assert extension.caches.stats()["coverage"]["hits"] > 0

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_search_walks_over_growing_logs(self, catalogs, scenario):
        """Evaluations in a space over a kept bundle equal a cold space's."""
        catalog = catalogs[scenario]
        log = SCENARIOS[scenario][1]()
        caches = SearchCaches()
        for prefix in range(2, len(log) + 1):
            rng = random.Random(SEED + prefix)
            warm = SearchSpace(
                log[:prefix], catalog.schemas(), MappingConfig(), catalog=catalog, caches=caches
            )
            mcts_search(warm, iterations=6, seed=prefix)
            for forest, action in random_walk(warm, rng, steps=4):
                incremental = warm.evaluate(forest, changed=action.touched, use_cache=False)
                cold = SearchSpace(log[:prefix], catalog.schemas(), MappingConfig(), catalog=catalog)
                scratch = cold.evaluate(forest)
                assert incremental.cost.as_dict() == scratch.cost.as_dict()
                assert interface_dump(incremental.interface) == interface_dump(scratch.interface)
                assert incremental.data_rows == scratch.data_rows


def profiled_rows(catalog, queries, caches=None):
    space = SearchSpace(queries, catalog.schemas(), MappingConfig(), catalog=catalog, caches=caches)
    return space.evaluate(space.initial_state).data_rows


class TestInvalidation:
    def test_appended_rows_follow_data_version(self):
        catalog = load_covid_catalog()
        log = covid_query_log()[:3]
        session = NotebookSession(catalog=catalog)
        cell_ids = [cell.cell_id for cell in session.add_cells(log)]
        extension = Pi2Extension(session=session)
        extension.generate_interface(cell_ids[:2])
        before = profiled_rows(catalog, log, extension.caches)
        catalog.append_rows("covid_cases", [["NY", "2022-01-05", 7]])
        version = extension.generate_interface(cell_ids)
        assert_same_as_cold(version, catalog, extension.config)
        after = profiled_rows(catalog, log, extension.caches)
        assert after == profiled_rows(catalog, log)
        # The appended row adds a date group to the unfiltered query.
        assert after == (before[0] + 1, *before[1:])

    def test_appended_rows_that_change_a_role_drop_mapping_caches(self):
        """Roles are inferred from the data: a 13th distinct value of an
        INTEGER column turns it from ordinal to quantitative without any
        schema change, and the next click must map it as such."""
        catalog = Catalog()
        catalog.create_table("t", ["k", "v"], [[k, 10 * k] for k in range(1, 13)])
        log = [
            "SELECT k, sum(v) AS total FROM t GROUP BY k",
            "SELECT k, sum(v) AS total FROM t WHERE v > 50 GROUP BY k",
        ]
        session = NotebookSession(catalog=catalog)
        cell_ids = [cell.cell_id for cell in session.add_cells(log)]
        extension = Pi2Extension(session=session)
        ordinal = extension.generate_interface(cell_ids)
        assert catalog.schemas()["t"].column("k").role is AttributeRole.ORDINAL
        catalog.append_rows("t", [[13, 130]])
        assert catalog.schemas()["t"].column("k").role is AttributeRole.QUANTITATIVE
        version = extension.generate_interface(cell_ids)
        assert_same_as_cold(version, catalog, extension.config)
        assert version.result.interface.fingerprint() != ordinal.result.interface.fingerprint()

    def test_registered_table_drops_schema_caches(self):
        catalog = load_covid_catalog()
        log = covid_query_log()[:4]
        session = NotebookSession(catalog=catalog)
        cell_ids = [cell.cell_id for cell in session.add_cells(log)]
        extension = Pi2Extension(session=session)
        extension.generate_interface(cell_ids)
        # The same log again computes no tree: every profile is reused.
        again = extension.generate_interface(cell_ids)
        assert again.result.stats.tree_evals_computed == 0
        catalog.create_table("extra", ["k"], [[1], [2]])
        version = extension.generate_interface(cell_ids)
        assert version.result.stats.tree_evals_computed > 0
        assert extension.caches.stats()["profiles"]["entries"] > 0
        assert_same_as_cold(version, catalog, extension.config)

    @pytest.mark.parametrize(
        "changed",
        [
            {"screen": SMALL_SCREEN},
            {"mapping_policy": MappingPolicy(prefer_vis_interactions=False)},
        ],
        ids=["screen", "policy"],
    )
    def test_changed_mapping_config_drops_mapping_caches(self, catalogs, changed):
        catalog = catalogs["covid"]
        log = covid_query_log()[:4]
        session = NotebookSession(catalog=catalog)
        cell_ids = [cell.cell_id for cell in session.add_cells(log)]
        extension = Pi2Extension(session=session)
        extension.generate_interface(cell_ids)
        config = PipelineConfig(**changed)
        version = extension.generate_interface(cell_ids, config)
        assert version.result.stats.tree_evals_computed > 0
        assert_same_as_cold(version, catalog, config)
        # Back to the first configuration: dropped again, still equal to cold.
        version = extension.generate_interface(cell_ids)
        assert version.result.stats.tree_evals_computed > 0
        assert_same_as_cold(version, catalog, extension.config)

    def test_equal_data_versions_of_two_catalogs_do_not_share_row_counts(self):
        """Row counts are keyed by catalog identity, not by data version alone."""
        first, second = Catalog(), Catalog()
        first.create_table("t", ["g", "v"], [[1, 10], [2, 20], [3, 30]])
        second.create_table("t", ["g", "v"], [[1, 10], [1, 11], [1, 12]])
        assert first.data_version() == second.data_version()
        log = ["SELECT g, count(*) FROM t GROUP BY g", "SELECT g, v FROM t WHERE v > 15"]
        caches = SearchCaches()
        assert profiled_rows(first, log, caches) == (3, 2)
        assert profiled_rows(second, log, caches) == profiled_rows(second, log) == (1, 0)


def widening_log(rng: random.Random, cells: int = 7) -> list[str]:
    """A covid investigation widening over sliding windows, fresh literals."""
    queries = ["SELECT date, sum(cases) AS total_cases FROM covid_cases GROUP BY date ORDER BY date"]
    start = date(2021, 11, 1) + timedelta(days=rng.randint(0, 10))
    for _ in range(3):
        low = start + timedelta(days=rng.randint(0, 30))
        queries.append(
            "SELECT date, sum(cases) AS total_cases FROM covid_cases "
            f"WHERE date BETWEEN '{low.isoformat()}' AND '{(low + timedelta(days=13)).isoformat()}' "
            "GROUP BY date ORDER BY date"
        )
    for threshold in sorted(rng.sample(range(100, 4000, 50), cells - len(queries))):
        queries.append(
            "SELECT date, state, sum(cases) AS cases FROM covid_cases "
            f"WHERE cases > {threshold} GROUP BY date, state ORDER BY date"
        )
    return queries


class TestBounds:
    def test_repeated_widening_sessions_stay_within_capacity(self, catalogs):
        catalog = catalogs["covid"]
        session = NotebookSession(catalog=catalog)
        extension = Pi2Extension(session=session)
        rng = random.Random(SEED)
        for _ in range(6):
            for cell in list(session):
                session.remove_cell(cell.cell_id)
            cell_ids = [cell.cell_id for cell in session.add_cells(widening_log(rng))]
            for ticked in range(1, len(cell_ids) + 1):
                extension.generate_interface(cell_ids[:ticked], PipelineConfig(seed=ticked))
        stats = extension.caches.stats()
        assert set(stats) >= {
            "profiles",
            "visualizations",
            "pieces",
            "rows",
            "transformations",
            "coverage",
            "filter_attributes",
            "parsed",
            "pairs",
        }
        for name, section in stats.items():
            assert 0 < section["entries"] <= section["capacity"], name


class TestPerSearchStats:
    def test_warm_search_reports_its_own_share(self, catalogs):
        catalog = catalogs["covid"]
        log = covid_query_log()[:4]
        caches = SearchCaches()

        def search():
            space = SearchSpace(log, catalog.schemas(), MappingConfig(), caches=caches)
            greedy_search(space)
            return space

        first = search()
        cold_info = first.cache_info()
        second = search()
        warm_info = second.cache_info()
        lifetime = caches.stats()
        for name in ("coverage", "filter_attributes", "profiles", "parsed", "pairs"):
            assert cold_info[name]["misses"] > 0, name
            # Everything the second search asks for, the first one left behind.
            assert warm_info[name]["misses"] == 0, name
            assert warm_info[name]["hits"] > 0, name
            assert lifetime[name]["hits"] == cold_info[name]["hits"] + warm_info[name]["hits"]
        assert first.stats.tree_evals_computed > 0
        assert second.stats.tree_evals_computed == 0
        assert second.stats.tree_evals_reused > 0
