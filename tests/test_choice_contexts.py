"""Differential tests: one-pass ``choice_contexts`` vs the per-choice reference.

:func:`repro.difftree.tree_schema.choice_contexts` describes every choice
node of a Difftree in one pre-order pass.  The reference below is the
implementation it replaced, which searched the whole tree once per choice
node for its clause (every SELECT subtree) and for its comparison context.
Both must produce equal :class:`ChoiceContext` lists on every tree.

Trees come from seeded random search walks (covid, sdss, sp500) and from
hypothesis-generated logs; hand-built cases pin the corners: a choice in a
WHERE subquery, in a CTE, a BETWEEN low/high pair, an IN list, function
arguments, one choice object reachable twice, and a non-SELECT root.

``CHOICE_CONTEXT_WALKS`` sets the walk budget: walks per scenario, and ten
hypothesis logs per walk (default 3; CI raises it, more again on the nightly
run).  ``CHOICE_CONTEXT_SEED`` sets the first walk seed.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings, strategies as st
from test_properties import SETTINGS, TOY_CATALOG, select_queries
from test_search_incremental import make_space, random_walk

from repro.difftree import build_forest
from repro.difftree.nodes import AnyNode, ChoiceNode, OptNode, collect_choice_nodes
from repro.difftree.signatures import tree_signature
from repro.difftree.tree_schema import (
    ChoiceContext,
    _alternative_kind,
    _literal_values,
    choice_contexts,
)
from repro.sql.ast_nodes import (
    BetweenOp,
    BinaryOp,
    ColumnRef,
    CommonTableExpr,
    FunctionCall,
    InList,
    InSubquery,
    Literal,
    Select,
    SelectItem,
    SqlNode,
    TableRef,
)
from repro.sql.printer import to_sql

WALKS = int(os.environ.get("CHOICE_CONTEXT_WALKS", "3"))
SEED = int(os.environ.get("CHOICE_CONTEXT_SEED", "20261017"))
STEPS = 6


# --------------------------------------------------------------------------- #
# The reference: one search of the tree per choice node
# --------------------------------------------------------------------------- #


def reference_clause(root: Select, target: ChoiceNode) -> str:
    owner = root
    for node in root.walk():
        if isinstance(node, Select) and any(descendant is target for descendant in node.walk()):
            owner = node
    slots = [
        ("select", list(owner.select_items)),
        ("from", [owner.from_clause] if owner.from_clause is not None else []),
        ("where", [owner.where] if owner.where is not None else []),
        ("group_by", list(owner.group_by)),
        ("having", [owner.having] if owner.having is not None else []),
        ("order_by", list(owner.order_by)),
        ("cte", list(owner.ctes)),
    ]
    for clause, nodes in slots:
        for node in nodes:
            if node is target or any(descendant is target for descendant in node.walk()):
                return clause
    return "select"


def reference_comparison(tree: SqlNode, target: ChoiceNode) -> tuple:
    for node in tree.walk():
        if isinstance(node, BinaryOp) and node.op in ("=", "<>", "<", "<=", ">", ">="):
            if node.right is target and isinstance(node.left, ColumnRef):
                return node.left.name, node.op, None
            if node.left is target and isinstance(node.right, ColumnRef):
                return node.right.name, node.op, None
        if isinstance(node, BetweenOp) and isinstance(node.expr, ColumnRef):
            if node.low is target:
                return node.expr.name, "between", "low"
            if node.high is target:
                return node.expr.name, "between", "high"
        if isinstance(node, (InList, InSubquery)) and isinstance(node.expr, ColumnRef):
            if any(child is target for child in node.children()):
                return node.expr.name, "in", None
        if isinstance(node, FunctionCall):
            if any(arg is target for arg in node.args):
                return None, node.lower_name, None
    return None, None, None


def reference_choice_contexts(tree: SqlNode) -> list[ChoiceContext]:
    choices = collect_choice_nodes(tree)
    raw = {choice.choice_id: reference_comparison(tree, choice) for choice in choices}
    partners = {}
    for node in tree.walk():
        if isinstance(node, BetweenOp) and isinstance(node.low, ChoiceNode) and isinstance(node.high, ChoiceNode):
            partners[node.low.choice_id] = (node.high.choice_id, "low")
            partners[node.high.choice_id] = (node.low.choice_id, "high")
    contexts = []
    for choice in choices:
        attribute, operator, position = raw[choice.choice_id]
        partner_id, partner_position = partners.get(choice.choice_id, (None, None))
        alternative_kind = _alternative_kind(choice)
        contexts.append(
            ChoiceContext(
                choice_id=choice.choice_id,
                kind="opt" if isinstance(choice, OptNode) else "any",
                cardinality=2 if isinstance(choice, OptNode) else choice.cardinality,
                alternative_kind=alternative_kind,
                clause=reference_clause(tree, choice) if isinstance(tree, Select) else "select",
                target_attribute=attribute,
                comparison_op=operator,
                literal_values=_literal_values(choice),
                range_partner=partner_id,
                range_position=partner_position or position,
                wraps_subquery=alternative_kind == "subquery",
                wraps_predicate=alternative_kind in ("predicate", "subquery"),
            )
        )
    return contexts


def check_agreement(tree: SqlNode) -> list[ChoiceContext]:
    contexts = choice_contexts(tree)
    expected = reference_choice_contexts(tree)
    assert contexts == expected, f"one-pass and reference disagree on\n{tree!r}"
    return contexts


# --------------------------------------------------------------------------- #
# Seeded search walks and generated logs
# --------------------------------------------------------------------------- #


def check_walks(space, seeds, tally) -> None:
    seen: set = set()
    forests = [space.initial_state]
    for seed in seeds:
        forests += [forest for forest, _ in random_walk(space, random.Random(seed), STEPS)]
    for forest in forests:
        for tree in forest.trees:
            signature = tree_signature(tree)
            if signature in seen:
                continue
            seen.add(signature)
            tally["trees"] += 1
            tally["choices"] += len(check_agreement(tree))


@pytest.mark.parametrize("scenario", ["covid", "sdss", "sp500"])
def test_contexts_agree_on_search_walks(scenario, request):
    catalog = request.getfixturevalue(f"{scenario}_catalog")
    log = request.getfixturevalue(f"{scenario}_log")
    tally = {"trees": 0, "choices": 0}
    check_walks(make_space(catalog, log), range(SEED, SEED + WALKS), tally)
    # Non-vacuous: the walks reached several trees holding choice nodes.
    assert tally["trees"] >= 5
    assert tally["choices"] > 0


@settings(SETTINGS, max_examples=10 + 10 * WALKS)
@given(st.lists(select_queries(), min_size=2, max_size=4), st.integers(0, 2**16))
def test_contexts_agree_on_generated_logs(log, seed):
    check_agreement(build_forest(log, strategy="merged").trees[0])
    space = make_space(TOY_CATALOG, [to_sql(query) for query in log])
    check_walks(space, [seed], {"trees": 0, "choices": 0})


# --------------------------------------------------------------------------- #
# Hand-built corners
# --------------------------------------------------------------------------- #


def col(name):
    return ColumnRef(name=name)


def lit(value):
    return Literal(value=value)


def any_of(*values):
    return AnyNode(alternatives=[lit(value) for value in values])


def select(*items, where=None, ctes=(), from_table="t"):
    return Select(
        select_items=[item if isinstance(item, (SelectItem, ChoiceNode)) else SelectItem(expr=item) for item in items],
        from_clause=TableRef(name=from_table),
        where=where,
        ctes=list(ctes),
    )


def by_id(contexts):
    return {context.choice_id: context for context in contexts}


def test_choice_in_where_subquery_is_owned_by_the_subquery():
    inner_choice = any_of(1, 2)
    inner = select(col("c"), where=BinaryOp(op=">", left=col("d"), right=inner_choice), from_table="u")
    outer_choice = AnyNode(alternatives=[col("a"), col("b")])
    tree = select(outer_choice, where=InSubquery(expr=col("k"), query=inner))
    contexts = by_id(check_agreement(tree))
    assert contexts[inner_choice.choice_id].clause == "where"
    assert contexts[inner_choice.choice_id].target_attribute == "d"
    assert contexts[inner_choice.choice_id].comparison_op == ">"
    assert contexts[outer_choice.choice_id].clause == "select"


def test_subquery_alternatives_under_in():
    subqueries = AnyNode(alternatives=[select(col("c"), from_table="u"), select(col("e"), from_table="u")])
    tree = select(col("a"), where=InSubquery(expr=col("k"), query=subqueries))
    (context,) = check_agreement(tree)
    assert (context.clause, context.target_attribute, context.comparison_op) == ("where", "k", "in")
    assert context.alternative_kind == "query"


def test_choice_in_cte():
    choice = any_of(10, 20)
    cte = CommonTableExpr(name="w", query=select(col("a"), where=BinaryOp(op="<", left=col("x"), right=choice)))
    alternative_ctes = AnyNode(alternatives=[cte, CommonTableExpr(name="w", query=select(col("b")))])
    inner = by_id(check_agreement(select(col("a"), ctes=[cte], from_table="w")))
    assert inner[choice.choice_id].clause == "where"
    outer = by_id(check_agreement(select(col("a"), ctes=[alternative_ctes], from_table="w")))
    assert outer[alternative_ctes.choice_id].clause == "cte"
    assert outer[choice.choice_id].clause == "where"


def test_between_low_high_pair():
    low, high = any_of(1, 2), any_of(8, 9)
    tree = select(col("a"), where=BetweenOp(expr=col("x"), low=low, high=high))
    contexts = by_id(check_agreement(tree))
    assert contexts[low.choice_id].range_partner == high.choice_id
    assert contexts[low.choice_id].range_position == "low"
    assert contexts[high.choice_id].range_position == "high"
    assert contexts[high.choice_id].comparison_op == "between"


def test_in_list_item():
    choice = any_of("a", "b")
    tree = select(col("a"), where=InList(expr=col("x"), items=[choice, lit("c")]))
    (context,) = check_agreement(tree)
    assert (context.target_attribute, context.comparison_op, context.clause) == ("x", "in", "where")


def test_function_arguments():
    choice = any_of("%Y", "%m")
    tree = select(FunctionCall(name="strftime", args=[choice, col("d")]))
    (context,) = check_agreement(tree)
    assert (context.target_attribute, context.comparison_op, context.clause) == (None, "strftime", "select")


def test_same_choice_object_reachable_twice():
    choice = AnyNode(alternatives=[col("a"), col("b")])
    inner = select(col("c"), where=BinaryOp(op="=", left=col("y"), right=choice), from_table="u")
    # Outer: in the WHERE (a comparison) and in the ORDER-less SELECT list;
    # inner: in the subquery's WHERE, which makes the subquery its owner.
    tree = select(
        choice,
        where=BinaryOp(
            op="AND",
            left=BinaryOp(op="=", left=col("x"), right=choice),
            right=InSubquery(expr=col("k"), query=inner),
        ),
    )
    contexts = check_agreement(tree)
    assert len(contexts) == 3  # one context per occurrence, as before
    assert {context.clause for context in contexts} == {"where"}
    assert {context.target_attribute for context in contexts} == {"x"}
    # Without the subquery the first clause in CLAUSES order wins.
    shallow = check_agreement(select(choice, where=BinaryOp(op="=", left=col("x"), right=choice)))
    assert {context.clause for context in shallow} == {"select"}


def test_choice_ids_shared_by_distinct_objects():
    first = AnyNode(alternatives=[lit(1), lit(2)], choice_id="any_shared")
    second = AnyNode(alternatives=[lit(1), lit(2)], choice_id="any_shared")
    tree = select(
        FunctionCall(name="abs", args=[first]),
        where=BinaryOp(op="=", left=col("x"), right=second),
    )
    contexts = check_agreement(tree)
    # Contexts are keyed by id: the later object's comparison wins for both.
    assert [context.comparison_op for context in contexts] == ["=", "="]


def test_non_select_root():
    low, high = any_of(1, 2), any_of(8, 9)
    predicate = OptNode(child=BetweenOp(expr=col("x"), low=low, high=high))
    tree = AnyNode(alternatives=[select(col("a"), where=predicate), select(col("b"))])
    contexts = check_agreement(tree)
    assert {context.clause for context in contexts} == {"select"}
    assert by_id(contexts)[low.choice_id].range_partner == high.choice_id
