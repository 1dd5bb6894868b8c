"""AST node classes for the SQL dialect used throughout the reproduction.

The node model deliberately exposes a *uniform tree protocol* — every node
reports its children via :meth:`SqlNode.child_slots` and can be rebuilt from
replacement children via :meth:`SqlNode.with_children` — because the Difftree
layer (``repro.difftree``) treats query ASTs as generic ordered labelled trees
that it merges, diffs and transforms.

Node equality is structural (dataclass equality), which the Difftree merge
algorithm relies on to detect identical subtrees across queries.

Nodes are frozen and never mutated after construction, so structural facts
about a node (its children, its label, and the Difftree layer's choice-node
and signature memos) are computed once and stored on the node itself under
``_repro_*`` attribute names.  Those memos are not dataclass fields — they
never take part in equality or hashing — and they are dropped when a node is
pickled or copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterator, Sequence, get_args, get_type_hints


class FieldLayout:
    """The field layout of a node class, derived once per class.

    ``names`` lists every dataclass field in declaration order; ``node_names``
    the fields whose annotation admits a :class:`SqlNode` (directly, in a
    list, optional, or ``Any``) and ``scalar_names`` the rest.  Fields
    annotated with plain scalar types — ``name: str``, ``negated: bool``,
    ``using: list[str]`` — can never hold a child, so the traversal methods
    never inspect them.
    """

    __slots__ = ("names", "node_names", "scalar_names")

    def __init__(self, cls: type) -> None:
        hints = get_type_hints(cls)
        self.names = tuple(f.name for f in fields(cls))
        self.node_names = tuple(name for name in self.names if _admits_node(hints.get(name, Any)))
        self.scalar_names = tuple(name for name in self.names if name not in self.node_names)


def _admits_node(hint: Any) -> bool:
    if hint is Any:
        return True
    if isinstance(hint, type):
        return issubclass(hint, SqlNode)
    return any(_admits_node(arg) for arg in get_args(hint))


_LAYOUTS: dict[type, FieldLayout] = {}

#: Name prefix of every per-node memo attribute (never a dataclass field).
MEMO_PREFIX = "_repro_"


def field_layout(cls: type) -> FieldLayout:
    """The (cached) :class:`FieldLayout` of a node class."""
    layout = _LAYOUTS.get(cls)
    if layout is None:
        layout = _LAYOUTS[cls] = FieldLayout(cls)
    return layout


class SqlNode:
    """Base class for all SQL AST nodes.

    The tree protocol used by the Difftree layer:

    * :meth:`child_slots` yields ``(slot_name, value)`` pairs where ``value``
      is either a :class:`SqlNode`, a list of nodes, or a plain value
      (identifier string, literal, keyword).
    * :meth:`children` yields only node-valued children in order.
    * :meth:`with_children` rebuilds the node with a replacement child list in
      the same order that :meth:`children` produced them.
    * :meth:`label` is the structural label used when two nodes are compared
      for "same kind of node" (it includes non-node scalar attributes such as
      operator symbols and identifier names, but not children).
    """

    #: Memo slots (see the module docstring); instances shadow these class
    #: defaults via ``object.__setattr__`` the first time they are computed.
    _repro_children: tuple["SqlNode", ...] | None = None
    _repro_label: tuple | None = None

    def __getstate__(self) -> dict[str, Any]:
        # Memos are derived data: pickling them would only bloat every AST
        # sent across a process boundary.
        return {name: value for name, value in self.__dict__.items() if not name.startswith(MEMO_PREFIX)}

    def child_slots(self) -> Iterator[tuple[str, Any]]:
        for name in field_layout(type(self)).names:
            yield name, getattr(self, name)

    def children(self) -> tuple["SqlNode", ...]:
        """The node-valued children in field order (memoized per node)."""
        result = self._repro_children
        if result is None:
            found: list[SqlNode] = []
            for name in field_layout(type(self)).node_names:
                value = getattr(self, name)
                if isinstance(value, SqlNode):
                    found.append(value)
                elif isinstance(value, (list, tuple)):
                    found.extend(v for v in value if isinstance(v, SqlNode))
            result = tuple(found)
            object.__setattr__(self, "_repro_children", result)
        return result

    def scalar_slots(self) -> dict[str, Any]:
        """Return the non-node attributes that participate in the node label.

        A node-bearing field counts as scalar while it holds no node (``None``
        or an empty list), exactly as if it had been inspected by value.
        """
        layout = field_layout(type(self))
        scalars: dict[str, Any] = {}
        for name in layout.names:
            value = getattr(self, name)
            if name in layout.node_names:
                if isinstance(value, SqlNode):
                    continue
                if isinstance(value, (list, tuple)) and any(isinstance(v, SqlNode) for v in value):
                    continue
            scalars[name] = value
        return scalars

    def label(self) -> tuple:
        """A hashable structural label: class name plus scalar attributes (memoized)."""
        label = self._repro_label
        if label is None:
            scalars = tuple(sorted((k, _freeze(v)) for k, v in self.scalar_slots().items()))
            label = (type(self).__name__, scalars)
            object.__setattr__(self, "_repro_label", label)
        return label

    def with_children(self, new_children: Sequence["SqlNode"]) -> "SqlNode":
        """Rebuild this node with ``new_children`` substituted positionally."""
        position = 0
        count = len(new_children)
        updates: dict[str, Any] = {}
        for name in field_layout(type(self)).node_names:
            value = getattr(self, name)
            if isinstance(value, SqlNode):
                if position >= count:
                    raise ValueError(f"Not enough replacement children for {type(self).__name__}")
                updates[name] = new_children[position]
                position += 1
            elif isinstance(value, (list, tuple)) and any(isinstance(v, SqlNode) for v in value):
                new_list = []
                for item in value:
                    if isinstance(item, SqlNode):
                        if position >= count:
                            raise ValueError(
                                f"Not enough replacement children for {type(self).__name__}"
                            )
                        new_list.append(new_children[position])
                        position += 1
                    else:
                        new_list.append(item)
                updates[name] = type(value)(new_list) if isinstance(value, tuple) else new_list
        if position < count:
            raise ValueError(f"Too many replacement children for {type(self).__name__}")
        return replace(self, **updates)  # type: ignore[type-var]

    def walk(self) -> Iterator["SqlNode"]:
        """Pre-order traversal of this subtree."""
        stack: list[SqlNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            children = node.children()
            if children:
                stack.extend(reversed(children))

    def find_all(self, node_type: type) -> list["SqlNode"]:
        """Return every descendant (including self) of the given type."""
        return [node for node in self.walk() if isinstance(node, node_type)]


def _freeze(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Literal(SqlNode):
    """A constant literal: number, string, boolean or NULL."""

    value: Any

    @property
    def kind(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, bool):
            return "boolean"
        if isinstance(self.value, int):
            return "integer"
        if isinstance(self.value, float):
            return "float"
        return "string"


@dataclass(frozen=True)
class ColumnRef(SqlNode):
    """A (possibly qualified) column reference, e.g. ``t.price``."""

    name: str
    table: str | None = None

    @property
    def qualified_name(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(SqlNode):
    """``*`` or ``t.*`` in a SELECT list or inside ``count(*)``."""

    table: str | None = None


@dataclass(frozen=True)
class Parameter(SqlNode):
    """A named (``:name``) or positional (``?``) query parameter."""

    name: str


@dataclass(frozen=True)
class UnaryOp(SqlNode):
    """A unary operator application: ``-x``, ``+x``, ``NOT x``."""

    op: str
    operand: SqlNode


@dataclass(frozen=True)
class BinaryOp(SqlNode):
    """A binary operator application: comparisons, arithmetic, AND/OR, LIKE."""

    op: str
    left: SqlNode
    right: SqlNode


@dataclass(frozen=True)
class BetweenOp(SqlNode):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: SqlNode
    low: SqlNode
    high: SqlNode
    negated: bool = False


@dataclass(frozen=True)
class InList(SqlNode):
    """``expr [NOT] IN (v1, v2, ...)``."""

    expr: SqlNode
    items: list[SqlNode]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(SqlNode):
    """``expr [NOT] IN (SELECT ...)``."""

    expr: SqlNode
    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Exists(SqlNode):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(SqlNode):
    """A subquery used as a scalar expression."""

    query: "Select"


@dataclass(frozen=True)
class IsNull(SqlNode):
    """``expr IS [NOT] NULL``."""

    expr: SqlNode
    negated: bool = False


@dataclass(frozen=True)
class FunctionCall(SqlNode):
    """A scalar or aggregate function call, e.g. ``count(*)`` or ``avg(x)``."""

    name: str
    args: list[SqlNode] = field(default_factory=list)
    distinct: bool = False

    @property
    def lower_name(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Cast(SqlNode):
    """``CAST(expr AS type)``."""

    expr: SqlNode
    target_type: str


@dataclass(frozen=True)
class CaseWhen(SqlNode):
    """One ``WHEN condition THEN result`` arm of a CASE expression."""

    condition: SqlNode
    result: SqlNode


@dataclass(frozen=True)
class Case(SqlNode):
    """A searched CASE expression."""

    whens: list[CaseWhen]
    else_result: SqlNode | None = None


# --------------------------------------------------------------------------- #
# Query clauses
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SelectItem(SqlNode):
    """One item of the SELECT list: an expression with an optional alias."""

    expr: SqlNode
    alias: str | None = None

    def output_name(self) -> str:
        """The column name this item produces in the result schema."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        if isinstance(self.expr, Star):
            return "*"
        if isinstance(self.expr, FunctionCall):
            return self.expr.lower_name
        if isinstance(self.expr, WindowCall):
            return self.expr.lower_name
        return "expr"


@dataclass(frozen=True)
class TableRef(SqlNode):
    """A base table reference in the FROM clause, with optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef(SqlNode):
    """A derived table: ``(SELECT ...) AS alias``."""

    query: "Select"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join(SqlNode):
    """A join between two FROM-clause items."""

    left: SqlNode
    right: SqlNode
    join_type: str = "INNER"  # INNER, LEFT, RIGHT, FULL, CROSS
    condition: SqlNode | None = None
    using: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class OrderItem(SqlNode):
    """One ORDER BY expression with direction."""

    expr: SqlNode
    descending: bool = False
    nulls_last: bool = True


@dataclass(frozen=True)
class WindowFrame(SqlNode):
    """A ``ROWS`` frame clause of a window specification.

    ``start_kind``/``end_kind`` take the values ``"UNBOUNDED_PRECEDING"``,
    ``"PRECEDING"``, ``"CURRENT_ROW"``, ``"FOLLOWING"`` and
    ``"UNBOUNDED_FOLLOWING"``; the offset fields carry the integer operand of
    ``N PRECEDING`` / ``N FOLLOWING`` bounds and are ``None`` otherwise.  All
    slots are scalars, so frames participate in :meth:`SqlNode.label` and two
    structurally identical frames compare equal for Difftree merging.
    """

    start_kind: str
    end_kind: str
    start_offset: int | None = None
    end_offset: int | None = None


@dataclass(frozen=True)
class WindowSpec(SqlNode):
    """The ``OVER (...)`` specification: partitioning, ordering and frame."""

    partition_by: list[SqlNode] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)
    frame: WindowFrame | None = None


@dataclass(frozen=True)
class WindowCall(SqlNode):
    """A window function application: ``fn(args) OVER (spec)``.

    The wrapped :class:`FunctionCall` is kept verbatim so ranking functions
    (``row_number`` …) and windowed aggregates (``sum(x) OVER (...)``) share
    one node shape; the call is *not* a group aggregate — see
    :func:`contains_aggregate`.
    """

    call: FunctionCall
    spec: WindowSpec

    @property
    def lower_name(self) -> str:
        return self.call.lower_name


@dataclass(frozen=True)
class CommonTableExpr(SqlNode):
    """One CTE of a WITH clause."""

    name: str
    query: "Select"
    columns: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Select(SqlNode):
    """A full SELECT statement (optionally with CTEs and set operations)."""

    select_items: list[SelectItem]
    from_clause: SqlNode | None = None
    where: SqlNode | None = None
    group_by: list[SqlNode] = field(default_factory=list)
    having: SqlNode | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    ctes: list[CommonTableExpr] = field(default_factory=list)

    def output_names(self) -> list[str]:
        """Best-effort output column names (Star expands at execution time)."""
        return [item.output_name() for item in self.select_items]


@dataclass(frozen=True)
class SetOperation(SqlNode):
    """``left UNION/INTERSECT/EXCEPT [ALL] right``."""

    op: str
    left: SqlNode
    right: SqlNode
    all: bool = False


#: Aggregate function names recognised by the engine and by Difftree analysis.
AGGREGATE_FUNCTIONS: frozenset[str] = frozenset(
    {"count", "sum", "avg", "min", "max", "stddev", "variance", "median"}
)


#: Ranking/navigation functions that are only valid with an ``OVER`` clause.
#: Windowed aggregates (``sum(x) OVER (...)``) reuse AGGREGATE_FUNCTIONS.
WINDOW_FUNCTIONS: frozenset[str] = frozenset(
    {"row_number", "rank", "dense_rank", "lag", "lead"}
)


def is_aggregate_call(node: SqlNode) -> bool:
    """Return True when ``node`` is a call to an aggregate function."""
    return isinstance(node, FunctionCall) and node.lower_name in AGGREGATE_FUNCTIONS


def is_window_call(node: SqlNode) -> bool:
    """Return True when ``node`` is a window function application."""
    return isinstance(node, WindowCall)


def contains_window(node: SqlNode) -> bool:
    """Return True when any descendant of ``node`` is a window call."""
    return any(isinstance(descendant, WindowCall) for descendant in node.walk())


def contains_aggregate(node: SqlNode) -> bool:
    """Return True when any descendant of ``node`` is a *group* aggregate call.

    A windowed aggregate (``sum(x) OVER (...)``) is not a group aggregate —
    the wrapped call is skipped — but its argument and specification
    expressions are still searched, so ``sum(count(*)) OVER (...)`` correctly
    reports the inner ``count(*)``.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, WindowCall):
            stack.extend(current.call.args)
            stack.extend(current.spec.partition_by)
            stack.extend(item.expr for item in current.spec.order_by)
            continue
        if is_aggregate_call(current):
            return True
        stack.extend(current.children())
    return False
