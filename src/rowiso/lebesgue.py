"""Finer classification of the unitary part of a presented row-isometry.

Within the permutative class the unitary part decomposes along the
directed cycles of the base graph.  Each cycle generates one component:
for one generator the component is a finite permutation unitary
(singular, pure point spectrum); for two or more generators every
cycle node has labels branching off the cycle, so the component is of
dilation type.  Absolutely continuous components do not occur here;
the result record keeps the slot anyway so reports always show all
four summands.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .errors import (ContractViolation, NotCommuting, ValidationError,
                     _Record, _require_depth)
from .presentation import Elem, Node, Presentation
from .presentation import _apply_raw, _require_canonical
from .wold import SubspaceDesc, _backward, _orbit_ends


class UnitaryKind(str, Enum):
    SINGULAR = "singular"
    DILATION_TYPE = "dilation-type"


class UnitaryComponent(_Record):
    """One cycle of the base graph together with what it generates.

    ``cycle`` lists (node, label) pairs tracing the directed cycle;
    ``V`` is the finite span of the cycle nodes themselves and ``span``
    the forward closure of V, i.e. the whole component.
    """

    cycle: tuple[tuple[Node, int], ...]
    span: SubspaceDesc
    kind: UnitaryKind
    V: SubspaceDesc


class LebesgueResult(_Record):
    """All four summands of the refined decomposition of the unitary part.

    ``PH`` is the support of the structure projection: the singular
    part plus, for each dilation-type component, the finite slice V the
    component is dilated from.
    """

    components: tuple[UnitaryComponent, ...]
    H_sing: SubspaceDesc
    H_dil: SubspaceDesc
    H_abs: SubspaceDesc
    PH: SubspaceDesc


def _cycle_from(p: Presentation, b: Node) -> tuple[tuple[Node, int], ...]:
    # backward chain b <- n1 <- n2 ... closes at b; re-read it forward
    backward = []
    cur = b
    while True:
        src, label = p.in_edge[cur]
        backward.append((src, label, cur))
        cur = src
        if cur == b:
            break
    cycle = [(src, label) for src, label, _ in reversed(backward)]
    return tuple(cycle)


def classify_unitary(p: Presentation) -> LebesgueResult:
    """Split the unitary part into its cycle components and summands.

    A node lies in the component of the cycle its backward chain ends on.
    The result depends on ``p`` alone, so it is computed once and kept
    on the presentation, for as long as the presentation lives.
    """
    p.require_valid()
    if p._lebesgue is None:
        p._lebesgue = _classify(p)
    return p._lebesgue


def _classify(p: Presentation) -> LebesgueResult:
    end = _orbit_ends(p.base, _backward(p))
    cycles = []
    index: dict[Node, int] = {}  # cycle node -> position of its cycle
    for b in p.base:
        if end[b] == b and b in p.in_edge and b not in index:
            cycle = _cycle_from(p, b)
            index.update((node, len(cycles)) for node, _ in cycle)
            cycles.append(cycle)
    spans = [set() for _ in cycles]
    for b in p.base:
        if end[b] in index:
            spans[index[end[b]]].add(b)
    kind = (UnitaryKind.SINGULAR if p.m == 1 else UnitaryKind.DILATION_TYPE)
    components = []
    for cycle, span in zip(cycles, spans):
        seeds = tuple(Elem((), node) for node, _ in cycle)
        components.append(UnitaryComponent(
            cycle=cycle,
            span=SubspaceDesc(seeds, frozenset(span), p),
            kind=kind,
            V=SubspaceDesc(seeds),
        ))
    sing_seeds = tuple(s for c in components if c.kind is UnitaryKind.SINGULAR
                       for s in c.V.seeds)
    dil_seeds = tuple(s for c in components
                      if c.kind is UnitaryKind.DILATION_TYPE
                      for s in c.V.seeds)
    ph_seeds = tuple(s for c in components for s in c.V.seeds)
    dil_nodes = frozenset().union(*(c.span.nodes for c in components
                                    if c.kind is UnitaryKind.DILATION_TYPE))
    return LebesgueResult(
        components=tuple(components),
        H_sing=SubspaceDesc(sing_seeds),
        H_dil=SubspaceDesc(dil_seeds, dil_nodes, p),
        H_abs=SubspaceDesc(()),
        PH=SubspaceDesc(ph_seeds),
    )


def sing_membership_test(p: Presentation, x: Elem, depth: int) -> bool:
    """Does the whole forward orbit of ``x`` stay inside PH?

    That is the executable criterion for membership in the singular
    part, for ``x`` already inside PH.  The exact answer is the kind of
    the component ``x`` sits on; the bounded orbits check up to
    ``depth`` cross-validates it, and the two must agree whenever
    ``depth >= |base| + 1`` (a dilation-type component escapes PH
    within one application).
    """
    p.require_valid()
    _require_canonical(p, x)
    _require_depth(depth)
    result = classify_unitary(p)
    ph = frozenset(result.PH.seeds)
    if x not in ph:
        raise ValidationError(f"{x!r} lies outside the structure support")
    exact = x in result.H_sing.seeds
    # x is canonical in the valid p, so its images are too
    layer = {x}
    bounded = True
    for _ in range(depth):
        layer = {_apply_raw(p, i, y) for y in layer
                 for i in range(1, p.m + 1)}
        if not layer <= ph:
            bounded = False
            break
    if depth >= len(p.base) + 1 and bounded != exact:
        raise ContractViolation(
            f"bounded orbit check at depth {depth} disagrees with the "
            f"component classification of {x!r}")
    return exact


def check_commutant_reduces_sing(p: Presentation, N: Presentation) -> bool:
    """Does a commuting permutative isometry reduce the singular part?

    ``N`` is an overlay: a one-label presentation on the same base
    whose edge map is total, i.e. a permutation of the basis of the
    same space.  A partial overlay would spawn fresh basis vectors and
    map the space into a strictly larger one, so it is not an operator
    here at all and is refused.  Commutation with every generator is
    verified next (on the base and one fresh layer, the region where
    it can fail); a non-commuting overlay is refused too.  Then N and
    its adjoint are applied to the singular seeds directly.  A False
    return contradicts the structure theory and fails the property
    suite.
    """
    from .pair import (PairElem, PairPresentation, check_theta_commute,
                       t_apply, t_pred)
    from .words import Theta

    p.require_valid()
    N.require_valid()
    if N.m != 1:
        raise ValidationError(
            f"overlay must have exactly one label, got {N.m}")
    if N.base != p.base:
        raise ValidationError("overlay must share the presentation's base")
    for b in N.base:
        if (b, 1) not in N.edges:
            raise ValidationError(
                f"overlay must act on every base node; {b!r} has no edge")
    pp = PairPresentation(Theta.identity(p.m, 1), p.base, p.edges, N.edges)
    report = check_theta_commute(pp)
    if not report.ok:
        f = report.failures[0]
        raise NotCommuting(
            f"overlay does not commute with the family: at {f.element!r} "
            f"label {f.i}, the two orders give {f.lhs!r} and {f.rhs!r}")
    sing = {PairElem((), (), e.node)
            for e in classify_unitary(p).H_sing.seeds}
    for xhat in sing:
        if t_apply(pp, 1, xhat) not in sing:
            return False
        back = t_pred(pp, xhat)
        if back is not None and back[1] not in sing:
            return False
    return True
