"""Golden interface fingerprints: search results must not drift.

Every search strategy, on every demo scenario (the three paper scenarios plus
the covid V3, extended sdss and sp500 window logs), for two seeds, must
produce the same interface (``Interface.fingerprint()``, which normalizes gensym'd
choice ids) and the same total cost as the recorded goldens in
``tests/goldens/interface_fingerprints.json``.  The goldens guard internal
rewrites that must not change behaviour — the coverage matcher and the AST
traversal protocol among them.

Regenerate (only when a behaviour change is intended, and say so in the
change log)::

    PYTHONPATH=src python tests/test_interface_goldens.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.datasets import (
    covid_query_log,
    covid_region_variant_queries,
    load_covid_catalog,
    load_sdss_catalog,
    load_sp500_catalog,
    sdss_extended_query_log,
    sdss_query_log,
    sp500_query_log,
    sp500_window_query_log,
)
from repro.difftree.nodes import reset_choice_ids
from repro.pipeline import PipelineConfig, generate_interface

GOLDEN_PATH = Path(__file__).parent / "goldens" / "interface_fingerprints.json"


def covid_v3_log() -> list[str]:
    return covid_query_log() + [covid_region_variant_queries()[1]]


SCENARIOS = {
    "covid": (load_covid_catalog, covid_query_log),
    "covid_v3": (load_covid_catalog, covid_v3_log),
    "sdss": (load_sdss_catalog, sdss_query_log),
    "sdss_extended": (load_sdss_catalog, sdss_extended_query_log),
    "sp500": (load_sp500_catalog, sp500_query_log),
    "sp500_window": (load_sp500_catalog, sp500_window_query_log),
}
METHODS = ("mcts", "greedy", "beam", "exhaustive")
SEEDS = (0, 1)


def golden_key(scenario: str, method: str, seed: int) -> str:
    return f"{scenario}/{method}/seed{seed}"


def generate(catalog, log, method: str, seed: int) -> dict:
    reset_choice_ids()
    result = generate_interface(
        log, catalog, PipelineConfig(method=method, seed=seed, exhaustive_depth=2)
    )
    return {
        "fingerprint": repr(result.interface.fingerprint()),
        "total_cost": result.total_cost,
    }


def record_all() -> dict:
    goldens: dict[str, dict] = {}
    for scenario, (load_catalog, query_log) in SCENARIOS.items():
        catalog = load_catalog()
        for method in METHODS:
            for seed in SEEDS:
                goldens[golden_key(scenario, method, seed)] = generate(
                    catalog, query_log(), method, seed
                )
    return goldens


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_interfaces_match_goldens(goldens, scenario):
    load_catalog, query_log = SCENARIOS[scenario]
    catalog = load_catalog()
    for method in METHODS:
        for seed in SEEDS:
            key = golden_key(scenario, method, seed)
            observed = generate(catalog, query_log(), method, seed)
            assert observed["fingerprint"] == goldens[key]["fingerprint"], key
            assert observed["total_cost"] == goldens[key]["total_cost"], key


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit("usage: test_interface_goldens.py --regenerate")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
