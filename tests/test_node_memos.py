"""Per-node memos: structural facts computed once and stored on AST nodes.

Nodes are frozen, so children, labels, choice-node tuples, the has-choice
bit and the signatures are memoized on the node itself.  These tests pin the
contract that makes that safe:

* a node rebuilt by ``dataclasses.replace`` or ``with_children`` carries no
  memo from its source — its facts reflect its own fields;
* memos never travel through ``pickle`` (nor ``copy``): a node pickles to the
  same bytes before and after its memos are filled;
* the four Difftree rewrite rules return choice-free subtrees as the very
  same objects;
* signatures compare by value, so clearing the intern table changes nothing.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import pytest

from repro.difftree import build_forest
from repro.difftree import signatures
from repro.difftree.canonical import canonical_sql
from repro.difftree.matching import find_binding_for
from repro.difftree.nodes import AnyNode, ChoiceNode, OptNode, collect_choice_nodes, has_choice
from repro.difftree.signatures import structural_signature, tree_fingerprint, tree_signature
from repro.difftree.transformations import (
    factor_common_root,
    flatten_nested_any,
    inline_singleton_any,
    toggle_opt_default,
)
from repro.sql.ast_nodes import MEMO_PREFIX, BinaryOp, ColumnRef, Literal, Select, SelectItem, TableRef
from repro.sql.parser import parse_select

THREE_CLAUSES = "SELECT region, sum(cases) FROM covid WHERE cases > 10 GROUP BY region"
LOG = [
    "SELECT region, sum(cases) FROM covid WHERE cases > 10 GROUP BY region",
    "SELECT region, sum(deaths) FROM covid WHERE cases > 20 GROUP BY region",
    "SELECT region, sum(cases) FROM covid GROUP BY region",
]


def fill_memos(tree) -> None:
    """Compute every memoized fact of every node of ``tree``."""
    for node in tree.walk():
        node.label()
        has_choice(node)
        collect_choice_nodes(node)
    tree_signature(tree)
    structural_signature(tree)
    tree_fingerprint(tree)
    if not has_choice(tree):
        canonical_sql(tree)


def memo_names(node) -> set[str]:
    return {name for name in vars(node) if name.startswith(MEMO_PREFIX)}


def merged_tree():
    return build_forest(LOG, strategy="merged").trees[0]


# --------------------------------------------------------------------------- #
# Pickling
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("make", [lambda: parse_select(THREE_CLAUSES), merged_tree], ids=["query", "difftree"])
def test_pickle_bytes_ignore_memos(make):
    tree = make()
    before = pickle.dumps(tree)
    fill_memos(tree)
    if has_choice(tree):
        find_binding_for(tree, parse_select(LOG[0]))
    assert memo_names(tree)  # non-vacuous: the memos are there
    assert pickle.dumps(tree) == before
    loaded = pickle.loads(before)
    assert loaded == tree
    assert not any(memo_names(node) for node in loaded.walk())
    assert tree_signature(loaded) == tree_signature(tree)


def test_copies_carry_no_memos():
    tree = merged_tree()
    fill_memos(tree)
    for clone in (copy.copy(tree), copy.deepcopy(tree)):
        assert clone == tree
        assert not memo_names(clone)


def test_signatures_pickle_with_a_fresh_hash():
    signature = tree_signature(merged_tree())
    loaded = pickle.loads(pickle.dumps(signature))
    assert loaded == signature
    assert hash(loaded) == hash(signature)


# --------------------------------------------------------------------------- #
# Rebuilt nodes
# --------------------------------------------------------------------------- #


def test_replace_and_with_children_start_without_memos():
    query = parse_select(THREE_CLAUSES)
    fill_memos(query)
    distinct = replace(query, distinct=True)
    assert not memo_names(distinct)
    assert distinct.label() != query.label()
    assert distinct.children() == query.children()

    extra = SelectItem(expr=ColumnRef(name="deaths"))
    widened = replace(query, select_items=[*query.select_items, extra])
    assert widened.children()[len(query.select_items)] is extra
    assert len(widened.children()) == len(query.children()) + 1

    choice = OptNode(child=query.where)
    optional = query.with_children([choice if child is query.where else child for child in query.children()])
    assert not memo_names(optional)
    assert not has_choice(query)
    assert has_choice(optional)
    assert collect_choice_nodes(optional) == [choice]
    assert structural_signature(optional) != structural_signature(query)
    assert tree_fingerprint(optional) != tree_fingerprint(query)


def test_children_is_a_memoized_tuple_and_walk_is_preorder():
    query = parse_select(THREE_CLAUSES)
    assert isinstance(query.children(), tuple)
    assert query.children() is query.children()

    def preorder(node):
        yield node
        for child in node.children():
            yield from preorder(child)

    assert [id(node) for node in query.walk()] == [id(node) for node in preorder(query)]


def test_collect_choice_nodes_returns_a_fresh_list():
    tree = merged_tree()
    first = collect_choice_nodes(tree)
    first.clear()
    assert collect_choice_nodes(tree)
    assert collect_choice_nodes(tree) is not collect_choice_nodes(tree)


# --------------------------------------------------------------------------- #
# Choice-pruned rewrites
# --------------------------------------------------------------------------- #


def col(name):
    return ColumnRef(name=name)


def comparison(op, column, value):
    return BinaryOp(op=op, left=col(column), right=Literal(value))


def choice_free_subtrees(tree):
    """Maximal choice-free subtrees of ``tree`` that no choice node encloses."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ChoiceNode):
            continue
        if not has_choice(node):
            yield node
        else:
            stack.extend(node.children())


def rule_tree():
    factorable = AnyNode(alternatives=[comparison("=", "state", "CA"), comparison("=", "state", "NY")])
    nested = AnyNode(alternatives=[AnyNode(alternatives=[Literal(1), Literal(2)]), Literal(3)])
    singleton = AnyNode(alternatives=[col("region")])
    toggle = OptNode(child=comparison(">", "deaths", 5))
    tree = Select(
        select_items=[SelectItem(expr=col("date")), SelectItem(expr=singleton)],
        from_clause=TableRef(name="covid"),
        where=BinaryOp(
            op="AND",
            left=BinaryOp(op="AND", left=factorable, right=toggle),
            right=BinaryOp(op=">", left=col("cases"), right=nested),
        ),
        group_by=[col("date"), col("region")],
    )
    return tree, factorable, toggle


RULES = {
    "factor_common_root": lambda tree, factorable, toggle: factor_common_root(tree, factorable.choice_id),
    "toggle_opt_default": lambda tree, factorable, toggle: toggle_opt_default(tree, toggle.choice_id),
    "flatten_nested_any": lambda tree, factorable, toggle: flatten_nested_any(tree),
    "inline_singleton_any": lambda tree, factorable, toggle: inline_singleton_any(tree),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rules_return_choice_free_subtrees_as_the_same_objects(rule):
    tree, factorable, toggle = rule_tree()
    free = list(choice_free_subtrees(tree))
    assert len(free) >= 4
    result = RULES[rule](tree, factorable, toggle)
    assert result is not tree and result != tree  # the rule did apply
    reachable = {id(node) for node in result.walk()}
    assert all(id(subtree) in reachable for subtree in free)
    assert result.from_clause is tree.from_clause
    assert result.group_by[0] is tree.group_by[0]


def test_rules_return_choice_free_trees_unchanged():
    query = parse_select(THREE_CLAUSES)
    for rule in RULES.values():
        assert rule(query, AnyNode(alternatives=[Literal(1)]), OptNode(child=Literal(1))) is query


# --------------------------------------------------------------------------- #
# Signatures
# --------------------------------------------------------------------------- #


def test_signatures_equal_after_the_intern_table_is_cleared():
    first, second = parse_select(THREE_CLAUSES), parse_select(THREE_CLAUSES)
    precise, structural = tree_signature(first), structural_signature(first)
    signatures._INTERN_TABLE.clear()
    assert tree_signature(second) == precise
    assert tree_signature(second) is not precise
    assert hash(tree_signature(second)) == hash(precise)
    assert structural_signature(second) == structural
    assert {precise: "cached"}[tree_signature(second)] == "cached"


def test_structural_signature_ignores_fresh_choice_ids_after_clearing():
    first = merged_tree()
    structural = structural_signature(first)
    precise = tree_signature(first)
    signatures._INTERN_TABLE.clear()
    second = merged_tree()  # same structure, freshly allocated choice ids
    assert structural_signature(second) == structural
    assert tree_signature(second) != precise
