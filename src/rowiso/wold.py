"""Wold decomposition of a presented row-isometry.

Splits the basis into the unitary part (vectors whose backward
predecessor chain never ends) and the shift part (vectors that trace
back to a wandering vector).  Over a finite base the infinite
intersection defining the unitary part collapses to a reachability
question: the backward chain enters the base after finitely many steps
and then, by pigeonhole, either dies at an in-degree-0 node or loops.
Past the prefix the chain depends on the element's node alone, so each
part is a node set: every element whose node lies in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .presentation import Elem, Node, Presentation, _require_canonical


class Part(str, Enum):
    UNITARY = "unitary"
    SHIFT = "shift"


@dataclass(frozen=True)
class SubspaceDesc:
    """A decidable description of a closed span of basis vectors.

    Two kinds:

    - a node set (``nodes`` is a frozenset): every element whose node
      lies in ``nodes``.  This is how the theory describes the Wold
      parts, the cycle components, ``H_dil`` and the four corners of a
      pair.  ``seeds`` are the depth-zero vectors that generate it,
      kept for rendering.  Over a single-family ``presentation`` each
      element is first checked to be a canonical element of a valid
      presentation; pair elements are answered by node alone.
    - an explicit set (``nodes`` is None): the span of ``seeds`` and
      nothing else.
    """

    seeds: tuple
    nodes: Optional[frozenset] = None
    presentation: object = field(repr=False, compare=False, default=None)

    @property
    def is_empty(self) -> bool:
        return not self.seeds

    def contains(self, x) -> bool:
        if self.nodes is None:
            return x in self.seeds
        p = self.presentation
        if isinstance(p, Presentation):
            p.require_valid()
            _require_canonical(p, x)
        return x.node in self.nodes

    def contains_many(self, xs, canonical_in=None) -> list:
        """``[self.contains(x) for x in xs]``, with the guards run once.

        A non-empty ``xs`` validates the presentation before its first
        element, so an invalid one raises as the per-element calls
        would.  ``canonical_in`` names a presentation every element of
        ``xs`` is canonical in, as the oracle's basis is in its own
        presentation; when it equals this description's presentation
        the per-element canonical guard is skipped.
        """
        if self.nodes is None:
            seeds = self.seeds
            return [x in seeds for x in xs]
        p = self.presentation
        if xs and isinstance(p, Presentation):
            p.require_valid()
            if canonical_in != p:
                for x in xs:
                    _require_canonical(p, x)
        nodes = self.nodes
        return [x.node in nodes for x in xs]


def closure(p: Presentation, roots) -> dict:
    """The forward closure of the depth-zero ``roots``, node by node.

    Maps each node whose backward chain (the node, then its in-edge
    sources) reaches a root before it dies or repeats to the first root
    it reaches.  A chain stops at the first node already decided, so
    each node is walked once.
    """
    found = {r: r for r in roots}
    dead = {None}  # a chain that reaches None has died
    for b in p.base:
        path, cur = {}, b
        while cur not in found and cur not in dead and cur not in path:
            path[cur] = None
            hit = p.in_edge.get(cur)
            cur = hit[0] if hit else None
        if cur in found:
            found.update(dict.fromkeys(path, found[cur]))
        else:
            dead.update(path)
    return found


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
    cycle = [b for b in p.base if _on_cycle(p, b)]
    free = [b for b in p.base if b not in p.in_edge]
    wandering = tuple(Elem((), b) for b in free)
    return WoldResult(
        unitary_part=SubspaceDesc(tuple(Elem((), b) for b in cycle),
                                  frozenset(closure(p, cycle)), p),
        shift_part=SubspaceDesc(wandering, frozenset(closure(p, free)), p),
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
    _require_canonical(p, x)
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
