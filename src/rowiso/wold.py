"""Wold decomposition of a presented row-isometry.

Splits the basis into the unitary part (vectors whose backward
predecessor chain never ends) and the shift part (vectors that trace
back to a wandering vector).  Over a finite base the infinite
intersection defining the unitary part collapses to a reachability
question: the backward chain enters the base after finitely many steps
and then, by pigeonhole, either dies at an in-degree-0 node or loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import ValidationError
from .presentation import Elem, Node, Presentation, _require_canonical


class Part(str, Enum):
    UNITARY = "unitary"
    SHIFT = "shift"


@dataclass(frozen=True)
class SubspaceDesc:
    """A decidable description of a closed span of basis vectors.

    mode is one of:

    - ``"explicit-finite"``: the span of ``seeds`` and nothing else.
    - ``"full-space"``: every canonical element; seeds are a sample
      kept only for rendering.
    - ``"forward-closure"``: everything reachable from ``seeds`` by
      applying generators.  Membership follows the backward chase:
      strip the prefix, then follow the unique in-edges until a seed is
      hit, the chain dies, or a base node repeats.  Past the prefix the
      chase depends on the element's node alone, so it is run once per
      node and kept as a node set; only seeds of positive depth are
      matched against the prefix's suffixes.

    Two-family elements (anything carrying a ``t_prefix``) are accepted
    in forward-closure mode only when the seeds sit at depth zero and
    the described subspace is reducing for both families; then
    membership is determined by the element's node alone, because the
    strip path of any element ends at its node's depth-zero vector.
    """

    seeds: tuple
    mode: str
    presentation: object = field(repr=False, compare=False, default=None)
    _cache: dict = field(init=False, repr=False, compare=False,
                         default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("forward-closure", "full-space",
                             "explicit-finite"):
            raise ValidationError(f"unknown subspace mode {self.mode!r}")

    @property
    def is_empty(self) -> bool:
        return self.mode != "full-space" and not self.seeds

    def contains(self, x) -> bool:
        if self.mode == "full-space":
            return True
        if self.mode == "explicit-finite":
            return x in self.seeds
        seed_set = self._seed_set()
        if x in seed_set:
            return True
        if hasattr(x, "t_prefix"):
            # joint-family element: reducing subspaces are determined
            # at depth zero (see class docstring)
            return type(x)((), (), x.node) in seed_set
        p = self.presentation
        p.require_valid()
        _require_canonical(p, x)
        return self._reached(x, *self._node_closure())

    def contains_many(self, xs, canonical_in=None) -> list:
        """``[self.contains(x) for x in xs]``, with the guards run once.

        The presentation is validated once, at the first element that
        needs it, so an invalid one raises exactly where the
        per-element calls would.  ``canonical_in`` names a presentation
        every element of ``xs`` is canonical in, as the oracle's basis
        is in its own presentation; when it equals this description's
        presentation the per-element canonical guard is skipped.
        """
        if self.mode == "full-space":
            return [True] * len(xs)
        if self.mode == "explicit-finite":
            seeds = self.seeds
            return [x in seeds for x in xs]
        seed_set = self._seed_set()
        out = [True if x in seed_set
               else type(x)((), (), x.node) in seed_set
               if hasattr(x, "t_prefix") else None for x in xs]
        if None in out:
            p = self.presentation
            p.require_valid()
            if canonical_in is None or canonical_in != p:
                for x, hit in zip(xs, out):
                    if hit is None:
                        _require_canonical(p, x)
            deep, nodes = self._node_closure()
            out = [hit if hit is not None
                   else self._reached(x, deep, nodes) if deep
                   else x.node in nodes for x, hit in zip(xs, out)]
        return out

    def _seed_set(self) -> frozenset:
        seed_set = self._cache.get("seeds")
        if seed_set is None:
            seed_set = self._cache["seeds"] = frozenset(self.seeds)
        return seed_set

    def _node_closure(self) -> tuple:
        closure = self._cache.get("closure")
        if closure is None:
            closure = self._cache["closure"] = _closure(self.presentation,
                                                        self._seed_set())
        return closure

    @staticmethod
    def _reached(x: Elem, deep: frozenset, nodes: frozenset) -> bool:
        if deep:
            for k in range(1, len(x.prefix)):
                if Elem(x.prefix[k:], x.node) in deep:
                    return True
        return x.node in nodes


def _closure(p: Presentation, seed_set: frozenset) -> tuple:
    """The seeds of positive depth, and the nodes decided by the rest.

    A node is in the node set when its backward chain (the node, then
    its in-edge sources) reaches a depth-zero seed before it dies or
    repeats.
    """
    seeds = [s for s in seed_set if isinstance(s, Elem)]
    roots = {s.node for s in seeds if not s.prefix}
    nodes = set()
    for b in p.base:
        cur, seen = b, set()
        while cur is not None and cur not in seen:
            if cur in roots:
                nodes.add(b)
                break
            seen.add(cur)
            hit = p.in_edge.get(cur)
            cur = hit[0] if hit else None
    return frozenset(s for s in seeds if s.prefix), frozenset(nodes)


@dataclass(frozen=True)
class WoldResult:
    """The decomposition: two complementary parts plus shift data.

    ``wandering`` spans the space the shift part is built on by free
    application; ``multiplicity`` is its dimension.
    """

    unitary_part: SubspaceDesc
    shift_part: SubspaceDesc
    wandering: tuple[Elem, ...]
    multiplicity: int


def _on_cycle(p: Presentation, b: Node) -> bool:
    # the backward walk is deterministic (global in-degree <= 1), so b
    # lies on a cycle iff the walk from b returns to b
    cur = b
    for _ in range(len(p.base)):
        hit = p.in_edge.get(cur)
        if hit is None:
            return False
        cur = hit[0]
        if cur == b:
            return True
    return False


def wold(p: Presentation) -> WoldResult:
    """Split the basis into unitary and shift parts, exactly.

    The unitary part is the forward closure of the base nodes lying on
    directed cycles; the shift part is the forward closure of the
    in-degree-0 nodes.  Every canonical element belongs to exactly one.
    """
    p.require_valid()
    cycle_seeds = tuple(Elem((), b) for b in p.base if _on_cycle(p, b))
    wandering = tuple(Elem((), b) for b in p.base if b not in p.in_edge)
    return WoldResult(
        unitary_part=SubspaceDesc(cycle_seeds, "forward-closure", p),
        shift_part=SubspaceDesc(wandering, "forward-closure", p),
        wandering=wandering,
        multiplicity=len(wandering),
    )


def is_row_unitary(p: Presentation) -> bool:
    """True iff the family is surjective: every node has in-degree 1.

    An empty base is vacuously row-unitary (the space is zero).
    """
    p.require_valid()
    return len(p.in_edge) == len(p.base)


def membership(p: Presentation, x: Elem) -> Part:
    """Which part a single canonical element belongs to.

    Decided by the backward chase from the element's node: hitting an
    in-degree-0 node means shift, revisiting a node means the chain is
    eternal, hence unitary.  Runs in O(|prefix| + |base|).
    """
    p.require_valid()
    if x.node not in p.node_index:
        raise ValidationError(f"element node {x.node!r} is not a base node")
    cur = x.node
    seen = set()
    while True:
        if cur in seen:
            return Part.UNITARY
        seen.add(cur)
        hit = p.in_edge.get(cur)
        if hit is None:
            return Part.SHIFT
        cur = hit[0]
