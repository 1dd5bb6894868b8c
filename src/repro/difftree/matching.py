"""Coverage by structural matching: can a Difftree express a given query?

Instead of instantiating every binding of a Difftree and comparing each
result with the query, :func:`find_binding_for` walks the query's canonical
AST against the Difftree and binds each choice node to what sits at its
position:

* an ANY node branches over its alternatives;
* an OPT node in a clause list, or in an AND chain, consumes zero items or
  one;
* AND chains are matched as flattened conjunct sequences, since the
  canonical form flattens them.

The walk mirrors the structural fall-out of
:func:`~repro.difftree.instantiate.instantiate` — AND/OR collapse, an off OPT
inside any other node removing that node, SELECT-list wrapping, ORDER BY
dropping non-``OrderItem`` entries, the empty SELECT list (never matched: a
target query has items) — and the redundant-qualifier stripping of
:func:`~repro.difftree.canonical.strip_redundant_qualifiers`.  It may
over-approximate: every proposed binding is verified with the exact test
``canonical_sql(instantiate(tree, b)) == canonical_sql(target)``, so a false
match is impossible by construction and the walk only has to be complete.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.difftree.canonical import canonical_form, canonical_sql, split_conjuncts
from repro.difftree.instantiate import instantiate
from repro.difftree.nodes import AnyNode, OptNode
from repro.errors import ReproError
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    OrderItem,
    Select,
    SelectItem,
    SqlNode,
    TableRef,
    field_layout,
)

Binding = dict[str, Any]


def find_binding_for(tree: SqlNode, target: SqlNode) -> Binding | None:
    """A binding under which ``tree`` instantiates to ``target``, or None.

    Queries are compared in canonical form (AND chains flattened to a
    left-deep shape, redundant qualifiers stripped) so that equivalent
    spellings count as the same query.  Choice nodes the match never reaches
    are left out of the binding; they take their defaults when instantiated.
    """
    expected = canonical_sql(target)
    tried: set[tuple] = set()
    for bindings in _proposals(tree, canonical_form(target)):
        key = tuple(sorted(bindings.items()))
        if key in tried:
            continue
        tried.add(key)
        try:
            if canonical_sql(instantiate(tree, bindings)) == expected:
                return bindings
        except ReproError:
            continue
    return None


def covers(tree: SqlNode, queries: Sequence[SqlNode]) -> bool:
    """True when every query in ``queries`` is expressible by ``tree``."""
    return all(find_binding_for(tree, query) is not None for query in queries)


def expressiveness_ratio(tree: SqlNode, queries: Sequence[SqlNode]) -> float:
    """Fraction of ``queries`` the Difftree can express exactly."""
    if not queries:
        return 1.0
    return sum(1 for query in queries if find_binding_for(tree, query) is not None) / len(queries)


# --------------------------------------------------------------------------- #
# The walk.  Every function takes the bindings made so far and returns the
# list of extended bindings under which its piece of the tree matches.
# ``qualifier`` is the FROM binding name canonicalization strips from column
# qualifiers (None when the FROM clause is not a single table).
# --------------------------------------------------------------------------- #


def _proposals(tree: SqlNode, target: SqlNode) -> list[Binding]:
    if not (isinstance(target, Select) and isinstance(target.from_clause, TableRef)):
        return _node(tree, target, None, {})
    # Which qualifier gets stripped depends on the alias of the FROM table the
    # binding selects, so try every candidate table of that name.
    name = target.from_clause.name
    qualifiers = sorted({ref.binding_name for ref in _from_tables(tree) if ref.name == name})
    return [found for qualifier in qualifiers for found in _node(tree, target, qualifier, {})]


def _from_tables(node: SqlNode, in_from: bool = False) -> Iterator[TableRef]:
    """TableRefs the tree can instantiate as the whole top-level FROM clause."""
    if isinstance(node, AnyNode):
        for alternative in node.alternatives:
            yield from _from_tables(alternative, in_from)
    elif isinstance(node, OptNode):
        yield from _from_tables(node.child, in_from)
    elif in_from:
        if isinstance(node, TableRef):
            yield node
    elif isinstance(node, Select) and node.from_clause is not None:
        yield from _from_tables(node.from_clause, True)


def _bind(bindings: Binding, choice_id: str, value: Any) -> Binding | None:
    """``bindings`` plus one choice, or None when it contradicts an earlier one."""
    if choice_id in bindings:
        return bindings if bindings[choice_id] == value else None
    extended = dict(bindings)
    extended[choice_id] = value
    return extended


def _branches(tree: AnyNode, bindings: Binding) -> Iterator[tuple[Binding, SqlNode]]:
    """(bindings, alternative) for each alternative the bindings allow."""
    for index, alternative in enumerate(tree.alternatives):
        bound = _bind(bindings, tree.choice_id, index)
        if bound is not None:
            yield bound, alternative


def _junction(node: SqlNode, op: str) -> bool:
    return isinstance(node, BinaryOp) and node.op == op


def _node(tree: SqlNode, target: SqlNode, qualifier, bindings: Binding) -> list[Binding]:
    """Bindings under which ``tree``'s instance is ``target`` (never removed)."""
    if isinstance(tree, AnyNode):
        return [found for bound, alt in _branches(tree, bindings) for found in _node(alt, target, qualifier, bound)]
    if isinstance(tree, OptNode):
        bound = _bind(bindings, tree.choice_id, True)
        return [] if bound is None else _node(tree.child, target, qualifier, bound)
    if _junction(tree, "AND") or _junction(tree, "OR") or _junction(target, "AND"):
        conjuncts = split_conjuncts(target)
        return [
            bound
            for bound, end in _conjuncts(tree, conjuncts, 0, qualifier, bindings)
            if end == len(conjuncts)
        ]
    return _one(tree, target, qualifier, bindings)


def _conjuncts(
    tree: SqlNode, targets: list[SqlNode], start: int, qualifier, bindings: Binding
) -> list[tuple[Binding, int]]:
    """(bindings, end): ``tree``'s instance flattens to the conjuncts ``targets[start:end]``."""
    found: list[tuple[Binding, int]] = []
    if isinstance(tree, AnyNode):
        for bound, alternative in _branches(tree, bindings):
            found += _conjuncts(alternative, targets, start, qualifier, bound)
        return found
    if isinstance(tree, OptNode):
        off = _bind(bindings, tree.choice_id, False)
        if off is not None:
            found.append((off, start))
        on = _bind(bindings, tree.choice_id, True)
        if on is not None:
            found += _conjuncts(tree.child, targets, start, qualifier, on)
        return found
    if _junction(tree, "AND"):
        for bound, middle in _conjuncts(tree.left, targets, start, qualifier, bindings):
            found += _conjuncts(tree.right, targets, middle, qualifier, bound)
        return found
    if _junction(tree, "OR"):
        # One side removed: the OR collapses into the other side's instance.
        for bound in _vanish(tree.left, bindings):
            found += _conjuncts(tree.right, targets, start, qualifier, bound)
        for bound in _vanish(tree.right, bindings):
            found += _conjuncts(tree.left, targets, start, qualifier, bound)
    else:
        found += [(bound, start) for bound in _vanish(tree, bindings)]
    if start < len(targets):
        found += [(bound, start + 1) for bound in _one(tree, targets[start], qualifier, bindings)]
    return found


_HAS_OPT_ATTR = "_repro_has_opt"


def _has_opt(node: SqlNode) -> bool:
    """True when an OPT node occurs in the subtree (memoized on the node)."""
    cached = getattr(node, _HAS_OPT_ATTR, None)
    if cached is None:
        cached = isinstance(node, OptNode) or any(_has_opt(child) for child in node.children())
        object.__setattr__(node, _HAS_OPT_ATTR, cached)
    return cached


def _vanish(tree: SqlNode, bindings: Binding) -> list[Binding]:
    """Bindings under which ``tree``'s instance is removed altogether."""
    if not _has_opt(tree) or isinstance(tree, Select):
        return []
    if isinstance(tree, AnyNode):
        return [found for bound, alt in _branches(tree, bindings) for found in _vanish(alt, bound)]
    if isinstance(tree, OptNode):
        off = _bind(bindings, tree.choice_id, False)
        on = _bind(bindings, tree.choice_id, True)
        return ([] if off is None else [off]) + ([] if on is None else _vanish(tree.child, on))
    if _junction(tree, "AND") or _junction(tree, "OR"):
        return [both for bound in _vanish(tree.left, bindings) for both in _vanish(tree.right, bound)]
    # Any other node is removed as soon as one of its children is.
    return [bound for child in tree.children() for bound in _vanish(child, bindings)]


def _one(tree: SqlNode, target: SqlNode, qualifier, bindings: Binding) -> list[Binding]:
    """``tree`` is a plain (non-choice, non-AND) node and ``target`` a non-AND node."""
    if type(tree) is not type(target):
        return []
    if isinstance(tree, Select):
        return _select(tree, target, qualifier, bindings)
    if isinstance(tree, ColumnRef):
        table = None if tree.table == qualifier else tree.table
        return [bindings] if (tree.name, table) == (target.name, target.table) else []
    if isinstance(tree, TableRef):
        alias = None if tree.alias == qualifier else tree.alias
        return [bindings] if (tree.name, alias) == (target.name, target.alias) else []
    layout = field_layout(type(tree))
    for name in layout.scalar_names:
        if getattr(tree, name) != getattr(target, name):
            return []
    pairs: list[tuple[SqlNode, SqlNode]] = []
    for name in layout.node_names:
        mine, theirs = getattr(tree, name), getattr(target, name)
        if isinstance(mine, (list, tuple)):
            if not isinstance(theirs, (list, tuple)) or len(mine) != len(theirs):
                return []
            if not all(_pair(item, other, pairs) for item, other in zip(mine, theirs)):
                return []
        elif not _pair(mine, theirs, pairs):
            return []
    found = [bindings]
    for mine, theirs in pairs:
        found = [bound for prior in found for bound in _node(mine, theirs, qualifier, prior)]
        if not found:
            break
    return found


def _pair(mine: Any, theirs: Any, pairs: list) -> bool:
    if isinstance(mine, SqlNode):
        pairs.append((mine, theirs))
        return isinstance(theirs, SqlNode)
    return mine == theirs


def _select(tree: Select, target: Select, qualifier, bindings: Binding) -> list[Binding]:
    if (tree.limit, tree.offset, tree.distinct) != (target.limit, target.offset, target.distinct):
        return []
    found = _items(tree.select_items, target.select_items, qualifier, [bindings], "select")
    found = _clause(tree.from_clause, target.from_clause, qualifier, found)
    found = _clause(tree.where, target.where, qualifier, found)
    found = _items(tree.group_by, target.group_by, qualifier, found, "plain")
    found = _clause(tree.having, target.having, qualifier, found)
    found = _items(tree.order_by, target.order_by, qualifier, found, "order")
    return _items(tree.ctes, target.ctes, qualifier, found, "plain")


def _clause(mine: SqlNode | None, theirs: SqlNode | None, qualifier, found: list[Binding]):
    if mine is None:
        return found if theirs is None else []
    if theirs is None:
        return [bound for prior in found for bound in _vanish(mine, prior)]
    return [bound for prior in found for bound in _node(mine, theirs, qualifier, prior)]


def _items(
    items: Sequence[SqlNode], targets: Sequence[SqlNode], qualifier, found: list[Binding], kind: str
) -> list[Binding]:
    """A clause list: each tree item is dropped or yields the next target item."""
    states = [(0, bound) for bound in found]
    for position, item in enumerate(items):
        remaining = len(items) - position - 1
        advanced: list[tuple[int, Binding]] = []
        for index, prior in states:
            if len(targets) - index <= remaining:
                dropped = _order_dropped(item, prior) if kind == "order" else _vanish(item, prior)
                advanced += [(index, bound) for bound in dropped]
            if index < len(targets):
                matched = _node(item, targets[index], qualifier, prior)
                wanted = targets[index]
                if kind == "select" and isinstance(wanted, SelectItem) and wanted.alias is None:
                    # A non-SelectItem instance is wrapped as SelectItem(expr).
                    matched += _node(item, wanted.expr, qualifier, prior)
                advanced += [(index + 1, bound) for bound in matched]
        states = advanced
        if not states:
            return []
    return [bound for index, bound in states if index == len(targets)]


def _order_dropped(item: SqlNode, bindings: Binding) -> list[Binding]:
    """Bindings under which ORDER BY drops ``item``: removed, or not an OrderItem."""
    if isinstance(item, AnyNode):
        return [found for bound, alt in _branches(item, bindings) for found in _order_dropped(alt, bound)]
    if isinstance(item, OptNode):
        off = _bind(bindings, item.choice_id, False)
        on = _bind(bindings, item.choice_id, True)
        return ([] if off is None else [off]) + ([] if on is None else _order_dropped(item.child, on))
    if isinstance(item, OrderItem):
        return _vanish(item, bindings)
    # Any other node instantiates to its own class (or nothing), so it is
    # dropped under every binding of its own choices.
    return [bindings]
