"""Exhaustive sweeps over small pair presentations, and the fault library.

Both call the symbolic deciders, so neither may live in the oracle.
Each function imports the modules it runs, so importing this module
loads no decider.  :data:`PREDICATES` is keyed by the names in
:data:`rowiso.properties.PROPERTIES`, which the command line reads
without importing this module.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .errors import ResourceExceeded, ValidationError, _Record
from .properties import PROPERTIES

if TYPE_CHECKING:
    from .pair import PairPresentation
    from .words import Theta

SEARCH_BUDGET = 10 ** 7


# ------------------------------------------------------------------- search

class SearchSpace(_Record):
    """Finite family of pair presentations to sweep.

    Covers every base of size 1..max_base, every pair of edge maps with
    per-family in-degree at most one, and every twist in ``thetas``.
    """

    max_base: int
    m: int
    n: int
    thetas: tuple


def all_thetas(m: int, n: int):
    """Every bijective twist of [m] x [n], in lexicographic order."""
    from .words import Theta

    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    out = []
    for perm in itertools.permutations(pairs):
        out.append(Theta(m, n, dict(zip(pairs, perm))))
    return tuple(out)


def _edge_maps(nodes: tuple, labels: int):
    slots = [(node, lab) for node in nodes for lab in range(1, labels + 1)]
    options = (None,) + nodes
    for combo in itertools.product(options, repeat=len(slots)):
        targets = [t for t in combo if t is not None]
        if len(targets) != len(set(targets)):
            continue  # in-degree must stay at most one
        yield {slot: t for slot, t in zip(slots, combo) if t is not None}


def _space_size(space: SearchSpace) -> int:
    total = 0
    for k in range(1, space.max_base + 1):
        per_family = []
        for labels in (space.m, space.n):
            slots = k * labels
            count = sum(math.comb(slots, r) * math.perm(k, r)
                        for r in range(0, min(slots, k) + 1))
            per_family.append(count)
        total += per_family[0] * per_family[1] * len(space.thetas)
    return total


def _pred_no_slocinski(pp: PairPresentation) -> bool:
    from .slocinski import slocinski

    return not slocinski(pp).exists


def _pred_doubly_commuting(pp: PairPresentation) -> bool:
    from .pair import check_doubly_commute

    return check_doubly_commute(pp).ok


def _pred_s_shift_t_unitary(pp: PairPresentation) -> bool:
    from .pair import PairElem, mirror
    from .slocinski import dead_nodes, s_membership
    from .wold import Part

    # candidate for the triviality theorem: nontrivial space, several
    # T-labels, T with no wandering vectors, and S a pure shift; the
    # S-verdict depends on the node alone, so the base vectors decide
    # the last one exactly
    if not pp.base or pp.n < 2:
        return False
    if dead_nodes(mirror(pp)):
        return False
    return all(s_membership(pp, PairElem((), (), b)) is not Part.UNITARY
               for b in pp.base)


PREDICATES: dict = dict(zip(PROPERTIES, (
    _pred_no_slocinski, _pred_doubly_commuting, _pred_s_shift_t_unitary)))


def search(space: SearchSpace, predicate: str):
    """Exhaustively sweep a search space for a named property.

    Returns, in deterministic enumeration order, every candidate that
    is valid, theta-commuting, jointly isometric, and satisfies the
    predicate.  Raises when the space exceeds the candidate budget.
    """
    from .pair import (PairPresentation, check_joint_isometry,
                       check_theta_commute)

    if predicate not in PREDICATES:
        raise ValidationError(
            f"unknown predicate {predicate!r}; "
            f"known: {sorted(PREDICATES)}")
    size = _space_size(space)
    if size > SEARCH_BUDGET:
        raise ResourceExceeded(
            f"search space has {size} candidates, budget {SEARCH_BUDGET}")
    test = PREDICATES[predicate]
    hits = []
    for k in range(1, space.max_base + 1):
        nodes = tuple(f"b{q}" for q in range(k))
        for theta in space.thetas:
            for s_edges in _edge_maps(nodes, space.m):
                for t_edges in _edge_maps(nodes, space.n):
                    pp = PairPresentation(theta, nodes, s_edges, t_edges)
                    if not check_theta_commute(pp).ok:
                        continue
                    if not check_joint_isometry(pp).ok:
                        continue
                    if test(pp):
                        hits.append(pp)
    return hits


# ------------------------------------------------------------ fault library

def _forge_theta(m: int, n: int, mapping: dict, inverse: dict) -> Theta:
    # bypasses the bijectivity validation on purpose; both directions
    # are handed in so the word calculus total-lookup still runs and
    # the damage surfaces in the matrix identities, not in a KeyError
    from .words import Theta

    forged = object.__new__(Theta)
    object.__setattr__(forged, "m", m)
    object.__setattr__(forged, "n", n)
    object.__setattr__(forged, "map", dict(mapping))
    object.__setattr__(forged, "inverse_map", dict(inverse))
    return forged


def fault_library():
    """Named corruptions paired with the check that must catch each.

    Every runner returns True iff the corruption was detected, either
    by a non-ok report or by a validation error.  The suite asserts a
    perfect score; anything less means a verifier has gone soft.
    """
    from .oracle import materialize, verify_relations, verify_subspace
    from .pair import PairPresentation
    from .presentation import Elem, Presentation, apply, free_presentation
    from .wold import SubspaceDesc, wold

    def duplicate_in_edge() -> bool:
        p = Presentation(1, ("a", "b", "c"),
                         {("a", 1): "c", ("b", 1): "c"})
        return not verify_relations(materialize(p, 3)).ok

    def broken_theta() -> bool:
        theta = _forge_theta(2, 1, {(1, 1): (1, 1), (2, 1): (1, 1)},
                             {(1, 1): (2, 1), (2, 1): (2, 1)})
        pp = PairPresentation(theta, ("b",), {}, {})
        return not verify_relations(materialize(pp, 3)).ok

    def boundary_as_interior() -> bool:
        p = Presentation(2, ("b",), {})
        model = materialize(p, 2)
        key = ("s", 1)
        fake = model.imgs[key].copy()
        fake[fake < 0] = 0  # lie: claim the dropped image is column 0
        model.imgs[key] = fake
        return not verify_relations(model).ok

    def wrong_corner_seed() -> bool:
        # a forward closure seeded on a wandering vector is the shift
        # part, so claiming it as a unitary corner must fail
        p = free_presentation(1)
        sub = SubspaceDesc((Elem((), "b"),), frozenset({"b"}), p)
        return not verify_subspace(materialize(p, 3), sub,
                                   ("unitary-on",)).ok

    def cycle_claimed_shift() -> bool:
        # the unitary part of a cycle has eternal backward chains, so
        # claiming it as a shift part must fail
        p = Presentation(1, ("a", "b"), {("a", 1): "b", ("b", 1): "a"})
        return not verify_subspace(materialize(p, 3), wold(p).unitary_part,
                                   ("shift-on",)).ok

    def wrong_wandering_set() -> bool:
        # the cycle node <a> has a predecessor, so adding it to the true
        # wandering vectors must fail
        p = Presentation(1, ("a", "b", "c"), {("a", 1): "b", ("b", 1): "a"})
        sub = SubspaceDesc(wold(p).wandering + (Elem((), "a"),))
        return not verify_subspace(materialize(p, 3), sub,
                                   ("wandering",)).ok

    def non_canonical_element() -> bool:
        p = Presentation(1, ("a", "c"), {("c", 1): "a"})
        bad = Elem((1,), "c")  # absorbable letter: not canonical
        try:
            apply(p, 1, bad)
        except ValidationError:
            return True
        return False

    return (
        ("duplicate-in-edge", duplicate_in_edge),
        ("non-bijective-theta", broken_theta),
        ("boundary-as-interior", boundary_as_interior),
        ("non-canonical-element", non_canonical_element),
        ("wrong-corner-seed", wrong_corner_seed),
        ("cycle-claimed-shift", cycle_claimed_shift),
        ("wrong-wandering-set", wrong_wandering_set),
    )


def run_fault_injection() -> dict:
    """Run the whole corruption library; maps name to detected flag."""
    return {name: bool(runner()) for name, runner in fault_library()}
