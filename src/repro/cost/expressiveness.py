"""Expressiveness term of the cost model.

The generated interface must be able to re-express every query of the input
log ("return the lowest cost interface I that can express all queries in Q").
This module measures the fraction of input queries each Difftree can
instantiate and converts misses into a large cost penalty; it also reports the
size of the binding space as a (log-scaled) generality measure used by
ablation benchmarks.
"""

from __future__ import annotations

import math

from repro.difftree.builder import DifftreeForest
from repro.difftree.canonical import canonical_sql
from repro.difftree.instantiate import binding_space_size
from repro.difftree.matching import find_binding_for
from repro.difftree.signatures import structural_signature

#: Cost added per input query the interface cannot express.
MISSING_QUERY_PENALTY = 10.0
#: Trees whose binding space exceeds this are counted as not covering their
#: queries without matching: such tangles of choice nodes are terrible
#: interfaces anyway, and the penalty steers the search away from them cheaply.
BINDING_SPACE_CAP = 256


#: Mapping used to memoize coverage verdicts across the many forest states a
#: search evaluates: ``(structural signature of the tree, canonical SQL of
#: the query) -> bool``.  Structural (choice-id-insensitive) signatures let
#: equal trees rebuilt along different action sequences — including merges
#: replayed with fresh choice ids — and trees shared by identity between
#: sibling forest states all share one entry, and the cache holds no tree
#: objects alive.  Coverage is a deterministic function of structure alone
#: (matching never looks at choice ids beyond telling them apart), which makes
#: the sharing safe.  Any mapping with ``get``/``__setitem__`` works; the cost
#: model passes a bounded LruDict, whose ``get`` counts hits and misses.
CoverageCache = dict


def tree_covered_count(
    tree,
    forest: DifftreeForest,
    member_indices: list[int],
    cache: CoverageCache | None = None,
) -> int:
    """How many of the tree's member queries it can express.

    This is the per-tree piece of the coverage computation: the forest-level
    ratio/cost recompose from these counts, so an incremental evaluation only
    pays for the trees an action changed.  Each (tree, query) verdict comes
    from the structural matcher (:func:`repro.difftree.matching.find_binding_for`)
    unless the tree's binding space exceeds :data:`BINDING_SPACE_CAP`.
    """
    signature = structural_signature(tree) if cache is not None else None
    within_cap = None
    covered = 0
    for query_index in member_indices:
        query = forest.queries[query_index]
        key = (signature, canonical_sql(query))
        verdict = cache.get(key) if cache is not None else None
        if verdict is None:
            if within_cap is None:
                within_cap = binding_space_size(tree) <= BINDING_SPACE_CAP
            verdict = within_cap and find_binding_for(tree, query) is not None
            if cache is not None:
                cache[key] = verdict
        covered += verdict
    return covered


def forest_covered_count(forest: DifftreeForest, cache: CoverageCache | None = None) -> int:
    """Input queries expressible by the tree that owns them, forest-wide."""
    covered = 0
    for tree_index, member_indices in enumerate(forest.members):
        covered += tree_covered_count(forest.trees[tree_index], forest, member_indices, cache)
    return covered


def coverage_ratio(forest: DifftreeForest, cache: CoverageCache | None = None) -> float:
    """Fraction of the input query log expressible by the forest's trees."""
    if not forest.queries:
        return 1.0
    return forest_covered_count(forest, cache) / len(forest.queries)


def cost_from_covered(covered: int, total: int) -> float:
    """The expressiveness penalty for ``covered`` of ``total`` queries.

    The single home of the missing-query formula — the standalone
    :func:`expressiveness_cost` and the cost model's decomposed evaluation
    both go through it, so the two paths cannot drift.
    """
    if total == 0:
        return 0.0
    ratio = covered / total
    missing = round((1.0 - ratio) * total)
    return missing * MISSING_QUERY_PENALTY


def expressiveness_cost(forest: DifftreeForest, cache: CoverageCache | None = None) -> float:
    """Penalty for input queries the interface cannot re-express."""
    if not forest.queries:
        return 0.0
    return cost_from_covered(forest_covered_count(forest, cache), len(forest.queries))


def generality_score(forest: DifftreeForest) -> float:
    """Log-scaled size of the space of queries the interface can express.

    Choice nodes generalize the input queries (a slider expresses infinitely
    many literal values; here we count the discrete binding space).  The score
    is informational — the cost model does not reward generality directly, but
    the ablation benchmarks report it.
    """
    total = 0.0
    for tree in forest.trees:
        total += math.log2(max(binding_space_size(tree), 1))
    return total
