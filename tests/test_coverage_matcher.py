"""Differential tests: the structural coverage matcher vs binding enumeration.

:func:`repro.difftree.matching.find_binding_for` decides whether a Difftree
can express a query by walking the query against the tree, then verifies
the binding it found with the exact test.  A false "covered" is therefore
impossible by construction; what needs proof is completeness.  The reference
below is the enumeration the matcher replaced: instantiate every binding and
compare canonical SQL.

Every tree visited by seeded random search walks (covid, sdss, sp500) and by
hypothesis-generated logs is checked against *every* query of its log,
member or not, and the two must agree on all of them.  Hand-built cases pin
each structural fall-out rule of ``instantiate``.

``COVERAGE_MATCHER_WALKS`` sets the walk budget: walks per scenario, and
ten hypothesis logs per walk (default 3; CI raises it, more again on the
nightly run).  ``COVERAGE_MATCHER_SEED`` sets the first walk seed.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings, strategies as st
from test_properties import SETTINGS, TOY_CATALOG, select_queries
from test_search_incremental import make_space, random_walk

from repro.cost.expressiveness import BINDING_SPACE_CAP, tree_covered_count
from repro.difftree import build_forest, enumerate_bindings, instantiate
from repro.difftree.canonical import canonical_sql
from repro.difftree.instantiate import binding_space_size
from repro.difftree.matching import find_binding_for
from repro.difftree.nodes import AnyNode, OptNode
from repro.difftree.signatures import structural_signature
from repro.errors import ReproError
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    InSubquery,
    Join,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    TableRef,
    UnaryOp,
)
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql

WALKS = int(os.environ.get("COVERAGE_MATCHER_WALKS", "3"))
SEED = int(os.environ.get("COVERAGE_MATCHER_SEED", "20261017"))
STEPS = 6
#: Trees with more bindings than this are skipped: the reference is too slow.
REFERENCE_BINDING_LIMIT = 1024


def reference_covers(tree, query) -> bool:
    """The enumeration the matcher replaces: try every binding."""
    expected = canonical_sql(query)
    for bindings in enumerate_bindings(tree):
        try:
            if canonical_sql(instantiate(tree, bindings)) == expected:
                return True
        except ReproError:
            continue
    return False


def check_agreement(tree, queries, tally) -> None:
    if binding_space_size(tree) > REFERENCE_BINDING_LIMIT:
        tally["skipped"] += 1
        return
    for query in queries:
        expected = reference_covers(tree, query)
        bindings = find_binding_for(tree, query)
        assert (bindings is not None) == expected, (
            f"matcher says {bindings is not None}, enumeration says {expected}\n"
            f"tree: {tree!r}\nquery: {to_sql(query)}"
        )
        tally["covered" if expected else "uncovered"] += 1


def new_tally() -> dict[str, int]:
    return {"trees": 0, "covered": 0, "uncovered": 0, "skipped": 0}


def check_walks(space, seeds, tally) -> None:
    seen: set = set()
    forests = [space.initial_state]
    for seed in seeds:
        forests += [forest for forest, _ in random_walk(space, random.Random(seed), STEPS)]
    for forest in forests:
        for tree, members in zip(forest.trees, forest.members):
            signature = structural_signature(tree)
            if signature in seen:
                continue
            seen.add(signature)
            tally["trees"] += 1
            check_agreement(tree, forest.queries, tally)
            if binding_space_size(tree) <= BINDING_SPACE_CAP:
                expected = sum(reference_covers(tree, forest.queries[i]) for i in members)
                assert tree_covered_count(tree, forest, members) == expected


@pytest.mark.parametrize("scenario", ["covid", "sdss", "sp500"])
def test_matcher_agrees_on_search_walks(scenario, request):
    catalog = request.getfixturevalue(f"{scenario}_catalog")
    log = request.getfixturevalue(f"{scenario}_log")
    space = make_space(catalog, log)
    tally = new_tally()
    check_walks(space, range(SEED, SEED + WALKS), tally)
    # Non-vacuous: the walks reached several trees and both verdicts.
    assert tally["trees"] >= 5
    assert tally["covered"] > 0 and tally["uncovered"] > 0


@settings(SETTINGS, max_examples=10 + 10 * WALKS)
@given(st.lists(select_queries(), min_size=2, max_size=4), st.integers(0, 2**16))
def test_matcher_agrees_on_generated_logs(log, seed):
    tally = new_tally()
    merged = build_forest(log, strategy="merged")
    check_agreement(merged.trees[0], merged.queries, tally)
    space = make_space(TOY_CATALOG, [to_sql(query) for query in log])
    check_walks(space, [seed], tally)
    assert tally["covered"] > 0


# --------------------------------------------------------------------------- #
# One hand-built tree per structural fall-out rule of instantiate
# --------------------------------------------------------------------------- #


def col(name, table=None):
    return ColumnRef(name=name, table=table)


def eq(column, value):
    return BinaryOp(op="=", left=col(column), right=Literal(value))


def select(items, where=None, from_clause=None, order_by=()):
    return Select(
        select_items=list(items),
        from_clause=from_clause if from_clause is not None else TableRef("t"),
        where=where,
        order_by=list(order_by),
    )


def check_cases(tree, cases: dict[str, bool]) -> None:
    for sql, expected in cases.items():
        query = parse_select(sql)
        assert reference_covers(tree, query) == expected, sql
        bindings = find_binding_for(tree, query)
        assert (bindings is not None) == expected, sql
        if bindings is not None:
            assert canonical_sql(instantiate(tree, bindings)) == canonical_sql(query)


def test_and_chain_collapse():
    where = BinaryOp(
        op="AND",
        left=OptNode(child=eq("a", 1)),
        right=BinaryOp(op="AND", left=OptNode(child=eq("b", 2)), right=OptNode(child=eq("c", 3))),
    )
    check_cases(
        select([SelectItem(col("p"))], where),
        {
            "SELECT p FROM t": True,
            "SELECT p FROM t WHERE b = 2": True,
            "SELECT p FROM t WHERE a = 1 AND c = 3": True,
            "SELECT p FROM t WHERE (a = 1 AND b = 2) AND c = 3": True,
            "SELECT p FROM t WHERE c = 3 AND a = 1": False,
            "SELECT p FROM t WHERE a = 2": False,
        },
    )


def test_or_collapse_into_an_and_chain():
    inner = BinaryOp(
        op="OR",
        left=OptNode(child=BinaryOp(op="AND", left=eq("a", 1), right=eq("b", 2))),
        right=OptNode(child=eq("c", 3)),
    )
    check_cases(
        select([SelectItem(col("p"))], BinaryOp(op="AND", left=eq("x", 1), right=inner)),
        {
            "SELECT p FROM t WHERE x = 1": True,
            "SELECT p FROM t WHERE x = 1 AND a = 1 AND b = 2": True,
            "SELECT p FROM t WHERE x = 1 AND c = 3": True,
            "SELECT p FROM t WHERE x = 1 AND (a = 1 AND b = 2 OR c = 3)": True,
            "SELECT p FROM t WHERE x = 1 AND (c = 3 OR a = 1 AND b = 2)": False,
        },
    )


def test_off_opt_removes_its_enclosing_node():
    negated = UnaryOp(op="NOT", operand=OptNode(child=eq("b", 2)))
    counted = SelectItem(FunctionCall(name="count", args=[OptNode(child=col("a"))]))
    check_cases(
        select([SelectItem(col("p")), counted], BinaryOp(op="AND", left=eq("a", 1), right=negated)),
        {
            "SELECT p FROM t WHERE a = 1": True,
            "SELECT p, count(a) FROM t WHERE a = 1 AND NOT b = 2": True,
            "SELECT p, count(a) FROM t WHERE a = 1": True,
            "SELECT p, count(b) FROM t WHERE a = 1": False,
            "SELECT p FROM t WHERE a = 1 AND NOT a = 1": False,
        },
    )


def test_non_select_items_are_wrapped():
    items = [col("p"), AnyNode(alternatives=[SelectItem(col("a"), alias="x"), col("b")])]
    check_cases(
        select(items),
        {
            "SELECT p, a AS x FROM t": True,
            "SELECT p, b FROM t": True,
            "SELECT p AS p, b FROM t": False,
            "SELECT p, a FROM t": False,
        },
    )


def test_order_by_drops_non_order_items():
    order_by = [
        col("p"),
        OptNode(child=OrderItem(col("a"))),
        AnyNode(alternatives=[OrderItem(col("b"), descending=True), col("c")]),
    ]
    check_cases(
        select([SelectItem(col("p"))], order_by=order_by),
        {
            "SELECT p FROM t": True,
            "SELECT p FROM t ORDER BY a": True,
            "SELECT p FROM t ORDER BY a, b DESC": True,
            "SELECT p FROM t ORDER BY b DESC": True,
            "SELECT p FROM t ORDER BY p": False,
            "SELECT p FROM t ORDER BY c": False,
        },
    )


def test_removing_every_select_item_is_an_error():
    subquery = Select(select_items=[OptNode(child=SelectItem(col("b")))], from_clause=TableRef("u"))
    where = OptNode(child=InSubquery(expr=col("a"), query=subquery))
    check_cases(
        select([OptNode(child=SelectItem(col("p")))], where),
        {
            "SELECT p FROM t": True,
            "SELECT p FROM t WHERE a IN (SELECT b FROM u)": True,
            "SELECT p FROM t WHERE a IN (SELECT c FROM u)": False,
        },
    )


def test_redundant_qualifiers_are_stripped():
    source = AnyNode(
        alternatives=[
            TableRef("t", alias="x"),
            TableRef("u"),
            Join(left=TableRef("t", alias="x"), right=TableRef("u"), join_type="CROSS"),
        ]
    )
    items = [SelectItem(col("p", "x")), OptNode(child=SelectItem(col("q", "u")))]
    check_cases(
        select(items, from_clause=source),
        {
            "SELECT p FROM t": True,
            "SELECT x.p FROM t AS x": True,
            "SELECT p FROM t AS x": True,
            "SELECT x.p, u.q FROM t AS x": True,
            "SELECT x.p FROM u": True,
            "SELECT x.p, q FROM u": True,
            "SELECT x.p, u.q FROM t AS x CROSS JOIN u": True,
            "SELECT p FROM t AS x CROSS JOIN u": False,
            "SELECT p FROM u": False,
        },
    )
