"""Wold decomposition of a presented row-isometry.

Splits the basis into the unitary part (vectors whose backward
predecessor chain never ends) and the shift part (vectors that trace
back to a wandering vector).  Over a finite base the infinite
intersection defining the unitary part collapses to a reachability
question: the backward chain enters the base after finitely many steps
and then, by pigeonhole, either dies at an in-degree-0 node or loops.
Past the prefix the chain depends on the element's node alone, so each
part is a node set: every element whose node lies in it.

Every such question is read off one walk, :func:`_orbit_ends`: it maps
each node to where its orbit under a partial node map ends, the node
where it dies or the first node of the cycle it enters.  Here the map
is the backward step (a node to the source of its in-edge); the cycle
components of :mod:`lebesgue` and the drift cycles of
:mod:`slocinski` use the same walk.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .errors import _Record
from .presentation import Elem, Presentation, _require_canonical


class Part(str, Enum):
    UNITARY = "unitary"
    SHIFT = "shift"


class SubspaceDesc(_Record):
    """A decidable description of a closed span of basis vectors.

    Two kinds:

    - a node set (``nodes`` is a frozenset): every element whose node
      lies in ``nodes``.  This is how the theory describes the Wold
      parts, the cycle components, ``H_dil`` and the four corners of a
      pair.  ``seeds`` are the depth-zero vectors that generate it,
      kept for rendering.  Over a ``presentation``, of one family or
      a pair, each element is first checked to be a canonical element
      of a valid presentation.
    - an explicit set (``nodes`` is None): the span of ``seeds`` and
      nothing else.
    """

    seeds: tuple
    nodes: Optional[frozenset] = None
    presentation: object = None

    _hidden = ("presentation",)

    @property
    def is_empty(self) -> bool:
        return not self.seeds

    def contains(self, x) -> bool:
        """Does the described span contain the basis vector ``x``?

        Over a presentation, every element given is guarded: it must be
        a canonical element of a valid presentation, or the call raises.
        An element object of the presentation's own ``enumerate``
        listing passed the guards when it was built.
        """
        if self.nodes is None:
            return x in self.seeds
        p = self.presentation
        if isinstance(p, Presentation):
            listing = p._listing
            if listing is None or id(x) not in listing[2]:
                # the guards' checks on a clean report, inlined: what
                # passes here passes them, and the rest goes through
                # them to be refused with their own error
                report = p._report
                try:
                    ok = (type(x) is Elem and report is not None
                          and not report.violations
                          and type(x.prefix) is tuple
                          and x.node in p.node_index)
                except TypeError:  # an unhashable node
                    ok = False
                if ok:
                    prefix, m = x.prefix, p.m
                    for letter in prefix:
                        if type(letter) is not int or not 0 < letter <= m:
                            ok = False
                            break
                    else:
                        ok = not prefix or (x.node, prefix[-1]) not in p.edges
                if not ok:
                    p.require_valid()
                    _require_canonical(p, x)
        elif p is not None:
            # a pair, guarded through its method so that this module
            # does not import pair
            p.require_valid()
            p.require_canonical(x)
        return x.node in self.nodes

    def contains_many(self, xs) -> list:
        """``[self.contains(x) for x in xs]``, an explicit set hashed once."""
        if self.nodes is None:
            seeds = frozenset(self.seeds)
            return [x in seeds for x in xs]
        return [self.contains(x) for x in xs]

    def base_membership(self, p) -> Optional[list]:
        """Whether the span holds the elements of each base node of ``p``.

        Only a node set over ``p``, or over a presentation equal to it,
        answers by base node, in base order; any other description
        returns None, and each element must be asked.  A single family
        is validated first, as :meth:`contains` would on any of its
        elements, so not when it has no base node; a pair, which the
        oracle models without validating it, not at all.
        """
        if self.nodes is None or self.presentation != p:
            return None
        if isinstance(p, Presentation) and p.base:
            p.require_valid()
        return [b in self.nodes for b in p.base]


class WoldResult(_Record):
    """The decomposition: two complementary parts plus shift data.

    ``wandering`` spans the space the shift part is built on by free
    application; ``multiplicity`` is its dimension.
    """

    unitary_part: SubspaceDesc
    shift_part: SubspaceDesc
    wandering: tuple[Elem, ...]
    multiplicity: int


def _orbit_ends(nodes, step) -> dict:
    """Where the orbit of each node under the partial map ``step`` ends.

    ``step(c)`` is the next node after c, or None where the orbit dies.
    Maps each node of ``nodes``, and every node its orbit passes, to
    the node where the orbit dies or to the first node of the cycle it
    enters; a cycle node is its own end.  A walk stops at the first
    node already decided, so ``step`` is called once per node.
    """
    end: dict = {}
    for b in nodes:
        path: dict = {}  # node -> position on this walk
        cur = b
        while cur not in end and cur not in path:
            path[cur] = len(path)
            nxt = step(cur)
            if nxt is None:
                end[cur] = cur
            else:
                cur = nxt
        walked = list(path)
        if cur not in end:
            # the walk came back to cur: from there on it is a cycle
            cycle = walked[path[cur]:]
            end.update(zip(cycle, cycle))
            del walked[path[cur]:]
        end.update(dict.fromkeys(walked, end[cur]))
    return end


def _backward(p: Presentation):
    # the backward step of a chain: a node to the source of its in-edge
    in_edge = p.in_edge
    return lambda b: in_edge[b][0] if b in in_edge else None


def wold(p: Presentation) -> WoldResult:
    """Split the basis into unitary and shift parts, exactly.

    The unitary part is the forward closure of the base nodes lying on
    directed cycles; the shift part is the forward closure of the
    in-degree-0 nodes.  Every canonical element belongs to exactly one:
    its node's backward chain ends on a cycle node, which has an
    in-edge, or dies at an in-degree-0 node.
    """
    p.require_valid()
    end = _orbit_ends(p.base, _backward(p))
    cycle = [b for b in p.base if end[b] == b and b in p.in_edge]
    free = [b for b in p.base if b not in p.in_edge]
    unitary = frozenset(b for b in p.base if end[b] in p.in_edge)
    wandering = tuple(Elem((), b) for b in free)
    return WoldResult(
        unitary_part=SubspaceDesc(tuple(Elem((), b) for b in cycle),
                                  unitary, p),
        shift_part=SubspaceDesc(wandering, frozenset(p.base) - unitary, p),
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

    Decided by walking the backward chain of the element's node alone:
    dying at an in-degree-0 node means shift, entering a cycle means
    the chain is eternal, hence unitary.  Runs in O(|prefix| + chain).
    """
    p.require_valid()
    _require_canonical(p, x)
    end = _orbit_ends((x.node,), _backward(p))[x.node]
    return Part.UNITARY if end in p.in_edge else Part.SHIFT
