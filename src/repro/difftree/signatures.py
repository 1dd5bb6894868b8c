"""Per-tree signatures: cached, interned identities of Difftree structures.

The search layer evaluates thousands of candidate forests, but each action
(a ``merge(i, j)`` or a single-tree transformation) touches one or two trees —
the rest of the forest is *structure-shared* by object identity.  Signatures
turn that sharing into cache hits:

* :func:`tree_fingerprint` — the legacy textual fingerprint used by forest
  signatures and search visited-sets (rendered SQL when possible).  It is
  computed once per tree *object* and memoized on the node itself, so
  ``forest.signature()`` costs a handful of attribute lookups instead of a
  full render per call.
* :func:`tree_signature` — a *precise* structural signature (node labels,
  which include choice ids and OPT defaults, plus tree shape).  Two trees
  with equal signatures are interchangeable for every per-tree computation
  the search performs: profiling, visualization mapping, widget mapping,
  coverage checks and data profiling all key their caches on it.
* signatures are **interned**: structurally equal signatures resolve to one
  canonical object, so equal trees reached along different action sequences
  (e.g. the same merge replayed in two MCTS rollouts, which allocates fresh
  choice nodes each time... but identical structure when ids survive) share
  cache entries and dict keys stay small.

Both signatures are memoized via ``object.__setattr__`` on the (frozen,
immutable) AST nodes — a node's structure never changes after construction,
so the memo can never go stale.  The memo attributes are not dataclass
fields, so node equality and hashing are unaffected.  Each signature is a
:class:`Signature` that carries its hash, so every signature-keyed cache
hashes a key in O(1) instead of re-hashing the whole nested tree.
"""

from __future__ import annotations

import sys
from typing import Hashable

from repro.difftree.nodes import ChoiceNode, has_choice
from repro.errors import SqlError
from repro.sql.ast_nodes import SqlNode
from repro.sql.printer import to_sql

#: Memo attribute names stashed on AST nodes (not dataclass fields).
_FINGERPRINT_ATTR = "_repro_fingerprint"
_SIGNATURE_ATTR = "_repro_signature"
_STRUCTURAL_ATTR = "_repro_structural"


class Signature:
    """A tree signature: the key ``(label, child signatures)`` plus its hash.

    CPython does not cache tuple hashes, so a bare nested-tuple key would be
    re-hashed in full on every dict lookup.  The hash is computed once, from
    the label and the children's (already computed) hashes.  Equality stays
    by value — hash first, then key — so two independently built signatures
    of equal trees are interchangeable as dict keys.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Signature):
            return NotImplemented
        return self._hash == other._hash and self.key == other.key

    def __reduce__(self):
        # String hashes are salted per process: rebuild the hash on unpickling.
        return (Signature, (self.key,))

    def __repr__(self) -> str:
        return f"Signature({self.key!r})"


#: Intern table mapping structural signatures to their canonical instance.
#: Bounded: interning is a pure space/speed optimization — evicting entries
#: can never change behaviour because signatures compare by value.
_INTERN_TABLE: dict[Hashable, Hashable] = {}
_INTERN_CAPACITY = 8192


def intern_signature(signature: Hashable) -> Hashable:
    """Return the canonical instance of a signature (or any hashable key)."""
    if len(_INTERN_TABLE) >= _INTERN_CAPACITY:
        _INTERN_TABLE.clear()
    return _INTERN_TABLE.setdefault(signature, signature)


def intern_table_size() -> int:
    """Number of distinct signatures currently interned (diagnostics)."""
    return len(_INTERN_TABLE)


def _compute_fingerprint(node: SqlNode) -> str:
    # Choice nodes are not renderable as SQL: trees holding one go straight
    # to the type-name walk.
    if not has_choice(node):
        try:
            return to_sql(node)
        except SqlError:
            pass
    return "|".join(type(descendant).__name__ for descendant in node.walk())


def tree_fingerprint(node: SqlNode) -> str:
    """A stable textual fingerprint of a tree (its rendered SQL when possible).

    Memoized per node object and interned, so repeated forest signatures are
    nearly free.  The fingerprint value is identical to what
    :func:`repro.difftree.canonical.tree_fingerprint` historically produced.
    """
    cached = getattr(node, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    fingerprint = sys.intern(_compute_fingerprint(node))
    object.__setattr__(node, _FINGERPRINT_ATTR, fingerprint)
    return fingerprint


def _signature_uncached(node: SqlNode) -> Signature:
    cached = getattr(node, _SIGNATURE_ATTR, None)
    if cached is not None:
        return cached
    # node.label() covers the class name and every scalar field — including
    # choice ids and OPT defaults, which widget bindings depend on — so the
    # recursive (label, children) shape identifies the tree precisely.
    signature = Signature((node.label(), tuple(_signature_uncached(child) for child in node.children())))
    object.__setattr__(node, _SIGNATURE_ATTR, signature)
    return signature


def _interned(node: SqlNode, signature: Signature, attr: str) -> Signature:
    """Intern ``signature`` and memoize the canonical instance on ``node``."""
    canonical = intern_signature(signature)
    if canonical is not signature:
        object.__setattr__(node, attr, canonical)
    return canonical


def tree_signature(node: SqlNode) -> Signature:
    """Precise structural signature of a Difftree, memoized and interned.

    Equal signatures imply equal node labels — hence equal choice ids, OPT
    defaults, literals and column names — at every position of the tree.
    Suitable as a cache key for values that *embed choice ids* (widget
    mapping pieces, transformation lists); for choice-id-insensitive values
    use :func:`structural_signature`, which shares entries across replayed
    merges that allocate fresh choice ids.
    """
    return _interned(node, _signature_uncached(node), _SIGNATURE_ATTR)


def _structural_label(node: SqlNode) -> tuple:
    label = node.label()
    if not isinstance(node, ChoiceNode):
        return label
    name, scalars = label
    return (name, tuple(pair for pair in scalars if pair[0] != "choice_id"))


def _structural_uncached(node: SqlNode) -> Signature:
    # Without choice ids to erase, the structural signature *is* the precise one.
    if not has_choice(node):
        return _signature_uncached(node)
    cached = getattr(node, _STRUCTURAL_ATTR, None)
    if cached is not None:
        return cached
    signature = Signature(
        (_structural_label(node), tuple(_structural_uncached(child) for child in node.children()))
    )
    object.__setattr__(node, _STRUCTURAL_ATTR, signature)
    return signature


def structural_signature(node: SqlNode) -> Signature:
    """Choice-id-*insensitive* signature of a Difftree, memoized and interned.

    Identical to :func:`tree_signature` except that choice ids are erased
    (OPT defaults and everything else are kept).  The search replays the same
    merge along many action sequences, allocating fresh choice ids each time;
    values that do not depend on the ids — coverage checks, default-query row
    counts, chart templates, filter-attribute sets — key their caches on this
    signature so all those replays share one entry.  Choice nodes correspond
    *positionally* (pre-order) between equal-signature trees, which is what
    profile reuse relies on to remap ids.
    """
    attr = _STRUCTURAL_ATTR if has_choice(node) else _SIGNATURE_ATTR
    return _interned(node, _structural_uncached(node), attr)


def forest_signature(forest) -> tuple:
    """Hashable identity of a forest: per-tree fingerprints plus membership.

    This is the (unchanged) value of ``DifftreeForest.signature()``; the
    per-tree fingerprints come from the node memo so recomputing a forest
    signature after an action costs O(trees), not O(nodes).

    Caveat: for trees *with choice nodes* the legacy fingerprint falls back
    to a type-name walk, so structurally different difftrees can collide.
    The historical search strategies (and their evaluation memo / visited
    sets) deliberately keep this granularity for reproducibility; new code
    that needs exact forest identity should use
    :func:`precise_forest_signature` instead.
    """
    return tuple(
        (tuple(members), tree_fingerprint(tree))
        for members, tree in zip(forest.members, forest.trees)
    )


def precise_forest_signature(forest) -> tuple:
    """Exact forest identity: per-tree precise signatures plus membership.

    Unlike :func:`forest_signature` this never collides distinct structures
    (choice ids, OPT defaults and literals all participate); the beam
    strategy keys its visited-set on it.
    """
    return tuple(
        (tuple(members), tree_signature(tree))
        for members, tree in zip(forest.members, forest.trees)
    )
