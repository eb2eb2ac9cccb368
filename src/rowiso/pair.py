"""Joint presentations of two permutative families on one basis.

A pair presentation carries two edge families over a shared base: the
S-family with m labels and the T-family with n labels, tied together by
a bijection theta on label pairs that fixes the rewriting rule
``S_i T_j = T_j' S_i'``.  Canonical basis names put T-letters outside:
``T_t S_s e_b``, with nothing left to absorb.

Absorption is the only source of subtlety.  An S-letter absorbs only
when innermost; a T-letter must first travel rightward through the
whole S-block (transforming itself and the block via theta) before it
can meet the node.  The reduction loop below mirrors that exactly, and
predecessor computation runs it backwards.

Commutation of a given pair is a verdict, not an assumption: the edge
data may contradict theta.  Decomposition operations refuse such pairs,
and pairs that are not jointly isometric, with a typed error; the checks
that produce the verdicts only ever use deterministic one-step
evaluation that stays well-defined either way.

Every entry point that takes an element guards it once, at entry, with
one inline check; only an element that fails it runs the full checks,
which refuse it with ValidationError.  Internal loops call the
unguarded kernels instead, which take irreducible elements: fixed
points of the reduction.
"""

from __future__ import annotations

import weakref
from itertools import product as _cartesian
from typing import Iterable, NamedTuple, Optional

from .errors import (ContractViolation, ResourceExceeded, ValidationError,
                     _Record)
from .presentation import (_CLEAN, Node, Presentation, ValidationReport,
                           _edge_rows)
from .presentation import validate as _validate_family
from .words import (Theta, Word, commute_s_left, commute_s_right,
                    commute_t_right, denormalize, validate_word)

# the free-word count a pair window may reach before enumerate_pair
# refuses it
PAIR_WINDOW_BUDGET = 10 ** 6


class PairElem(NamedTuple):
    """Canonical name ``T_t S_s e_node`` of a joint basis vector.

    Canonical means: the innermost S-letter has no s-edge at the node,
    and the innermost T-letter, pushed rightward through the S-block,
    has no t-edge at the node either.

    A named tuple, so construction, hashing and equality run in C; it
    equals the plain tuple ``(t_prefix, s_prefix, node)``.
    """

    t_prefix: Word
    s_prefix: Word
    node: Node

    def __repr__(self) -> str:
        letters = [f"t{j}" for j in self.t_prefix]
        letters += [f"s{i}" for i in self.s_prefix]
        if not letters:
            return f"<{self.node}>"
        return f"<{' '.join(letters)}|{self.node}>"

    @property
    def depth(self) -> int:
        return len(self.t_prefix) + len(self.s_prefix)


class CommutationFailure(_Record):
    """One failed identity instance: both sides, fully evaluated.

    ``lhs``/``rhs`` are canonical elements, ``None`` for the zero
    vector, or a string when evaluation itself broke down.
    """

    identity: str
    element: object
    i: int
    j: int
    lhs: object
    rhs: object


class CommutationReport:
    """The failed identity instances of a check, in check order.

    ``ok`` holds iff there are none.  Reports compare by their
    failures.  :func:`check_doubly_commute` returns, for a jointly
    isometric pair that fails, a report that lists its failures on
    demand: on the first read of ``failures``, or on a comparison,
    after which it keeps them.  Every other report holds its failures
    from the start.
    """

    __slots__ = ("_failures", "__weakref__")

    def __init__(self, failures: Iterable[CommutationFailure] = ()):
        self._failures = tuple(failures)

    @property
    def ok(self) -> bool:
        return not self._failures

    @property
    def failures(self) -> tuple[CommutationFailure, ...]:
        return self._failures

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CommutationReport)
                and self.failures == other.failures)

    def __repr__(self) -> str:
        if self.ok:
            return "CommutationReport(ok)"
        return f"CommutationReport({len(self.failures)} failures)"


class PairPresentation:
    """Two edge families and a theta over a shared ordered base.

    Syntactic validity (per-family in-degree, label ranges, node
    references) and theta-commutation are separate verdicts; see
    :func:`validate_pair` and :func:`check_theta_commute`.
    """

    __slots__ = ("theta", "base", "s_edges", "t_edges", "t_sources",
                 "node_index", "s_in", "t_in", "_s_family", "_t_family",
                 "_report", "_commutation", "_joint", "_mirror", "_cache",
                 "__weakref__")

    def __init__(self, theta: Theta, base: Iterable[Node], s_edges: dict,
                 t_edges: dict):
        if not isinstance(theta, Theta):
            raise ValidationError(f"expected a Theta, got {theta!r}")
        # family objects own edge normalization and in-edge maps
        s_family = Presentation(theta.m, base, s_edges)
        self._bind(theta, s_family,
                   Presentation(theta.n, s_family.base, t_edges))

    def _bind(self, theta: Theta, s_family: Presentation,
              t_family: Presentation) -> None:
        self.theta = theta
        self._s_family = s_family
        self._t_family = t_family
        self.base = s_family.base
        self.s_edges = s_family.edges
        self.t_edges = t_family.edges
        # the nodes a T-letter can absorb at; elsewhere no pushed letter
        # meets an edge, so the reducers skip the push
        self.t_sources = frozenset(src for src, _ in self.t_edges)
        self.node_index = s_family.node_index
        self.s_in = s_family.in_edge
        self.t_in = t_family.in_edge
        self._report: Optional[ValidationReport] = None
        self._commutation: Optional[CommutationReport] = None
        self._joint: Optional[ValidationReport] = None
        # the twin pair, or a weak reference back to the pair it mirrors
        self._mirror = None
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return self.theta.m

    @property
    def n(self) -> int:
        return self.theta.n

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PairPresentation)
                and self.theta == other.theta
                and self._s_family == other._s_family
                and self._t_family == other._t_family)

    def __hash__(self) -> int:
        return hash((self.theta, self._s_family, self._t_family))

    def __repr__(self) -> str:
        return (f"PairPresentation(m={self.m}, n={self.n}, "
                f"base={list(self.base)!r}, s_edges={self.s_edges!r}, "
                f"t_edges={self.t_edges!r})")

    def require_valid(self) -> None:
        report = validate_pair(self)
        if not report.ok:
            raise ValidationError(report.violations[0])

    def require_canonical(self, x: PairElem) -> None:
        _require_canonical(self, x)

    def require_commuting(self) -> None:
        # a cached report was computed after the pair was validated, so
        # a hit stands for both checks
        report = self._commutation
        if report is None:
            report = check_theta_commute(self)
        if not report.ok:
            f = report.failures[0]
            raise ContractViolation(
                f"pair does not theta-commute: at {f.element!r} with "
                f"(i={f.i}, j={f.j}), S-then-T gives {f.rhs!r} but "
                f"T-then-S gives {f.lhs!r}")

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "theta": self.theta.to_quadruples(),
            "base": list(self.base),
            "s_edges": _edge_rows(self._s_family),
            "t_edges": _edge_rows(self._t_family),
        }


def free_pair(theta: Theta, base: Iterable[Node] = ("b",)) -> PairPresentation:
    """The edge-free pair: the joint left-regular action for theta."""
    return PairPresentation(theta, base, {}, {})


def validate_pair(pp: PairPresentation) -> ValidationReport:
    """Syntactic checks for both families; violations are data."""
    if pp._report is not None:
        return pp._report
    s_report = _validate_family(pp._s_family)
    violations = [f"s-family: {v}" for v in s_report.violations]
    # base node violations are already reported through the s-family
    violations += [f"t-family: {v}"
                   for v in _validate_family(pp._t_family).violations
                   if not v.startswith("base node")]
    pp._report = ValidationReport(tuple(violations)) if violations \
        else s_report
    return pp._report


def _require_canonical(pp: PairPresentation, x: PairElem) -> None:
    # the checks below on a well-formed element, in one pass: what
    # passes here passes them, and the rest goes through them to be
    # refused with their own error
    try:
        if type(x) is PairElem:
            t, s, b = x
            if (type(t) is tuple and type(s) is tuple and b in pp.node_index
                    and _words_in(t, s, pp.theta)
                    and _absorbs(pp, t, s, b) is None):
                return
    except TypeError:  # an unhashable node
        pass
    if not isinstance(x, PairElem):
        raise ValidationError(
            f"expected a PairElem, got {type(x).__name__} {x!r}")
    try:
        declared = x.node in pp.node_index
    except TypeError:
        raise ValidationError(
            f"element node {x.node!r} is not hashable") from None
    if not declared:
        raise ValidationError(f"element node {x.node!r} is not a base node")
    for word, family in ((x.s_prefix, "S"), (x.t_prefix, "T")):
        if not isinstance(word, tuple):
            raise ValidationError(
                f"element {family}-word {word!r} is not a tuple")
    validate_word(x.s_prefix, pp.m)
    validate_word(x.t_prefix, pp.n)
    family = _absorbs(pp, *x)
    if family is not None:
        raise ValidationError(
            f"element {x!r} is not canonical: {family}-letter absorbs")


def _absorbs(pp: PairPresentation, t: Word, s: Word,
             b: Node) -> Optional[str]:
    """The family whose innermost letter absorbs in ``T_t S_s e_b``.

    "S" when the innermost S-letter has an s-edge at b, else "T" when
    the innermost T-letter, pushed rightward through s, has a t-edge at
    b, else None: the name is canonical.
    """
    if s and (b, s[-1]) in pp.s_edges:
        return "S"
    if t and b in pp.t_sources and (
            b, commute_t_right(pp.theta, s, t[-1])[1]) in pp.t_edges:
        return "T"
    return None


def _words_in(t: tuple, s: tuple, theta: Theta) -> bool:
    # every letter an int (not a bool), in 1..n in t and in 1..m in s
    n = theta.n
    for letter in t:
        if type(letter) is not int or not 0 < letter <= n:
            return False
    m = theta.m
    for letter in s:
        if type(letter) is not int or not 0 < letter <= m:
            return False
    return True


def _reduce_raw(pp: PairPresentation, t: Word, s: Word, b: Node) -> PairElem:
    # greedy innermost-first absorption; deterministic whether or not
    # the pair actually commutes
    while True:
        if s and (b, s[-1]) in pp.s_edges:
            b = pp.s_edges[(b, s[-1])]
            s = s[:-1]
            continue
        if t and b in pp.t_sources:
            s2, j2 = commute_t_right(pp.theta, s, t[-1])
            if (b, j2) in pp.t_edges:
                b = pp.t_edges[(b, j2)]
                s = s2
                t = t[:-1]
                continue
        return PairElem(t, s, b)


def _s_apply_raw(pp: PairPresentation, i: int, x: PairElem) -> PairElem:
    # x is irreducible.  Behind an S-letter of x the fresh one stays
    # outside its innermost S-letter, which stays blocked, and x's
    # innermost T-letter still reaches the node as the same letter, so
    # only an x without S-letters can absorb
    t2, i2 = commute_s_left(pp.theta, i, x.t_prefix)
    if x.s_prefix:
        return PairElem(t2, (i2,) + x.s_prefix, x.node)
    return _reduce_raw(pp, t2, (i2,), x.node)


def _t_apply_raw(pp: PairPresentation, j: int, x: PairElem) -> PairElem:
    # x is irreducible: a fixed point of _reduce_raw.  Behind a T-letter
    # of x the fresh one stays outside its innermost T-letter, which
    # stays blocked, so only a bare x can absorb it
    if x.t_prefix:
        return PairElem((j,) + x.t_prefix, x.s_prefix, x.node)
    return _reduce_raw(pp, (j,), x.s_prefix, x.node)


def s_apply(pp: PairPresentation, i: int, x: PairElem) -> PairElem:
    """The image ``S_i x`` as a canonical element."""
    pp.require_commuting()
    if not 1 <= i <= pp.m:
        raise ValidationError(f"S-label {i} outside 1..{pp.m}")
    _require_canonical(pp, x)
    return _s_apply_raw(pp, i, x)


def t_apply(pp: PairPresentation, j: int, x: PairElem) -> PairElem:
    """The image ``T_j x`` as a canonical element.

    x is guarded once, by one inline check.  Behind a T-letter of x,
    whose innermost one stays blocked, ``T_j`` only prepends j; only an
    x without T-letters is reduced.
    """
    pp.require_commuting()
    if not 1 <= j <= pp.n:
        raise ValidationError(f"T-label {j} outside 1..{pp.n}")
    _require_canonical(pp, x)
    return _t_apply_raw(pp, j, x)


def _free_word_bound(pp: PairPresentation, depth: int) -> int:
    """The free words ``T_t S_s e_b`` with ``|t| + |s| <= depth``.

    An upper bound on the canonical elements of that window, summed
    layer by layer and left off once it passes the budget.
    """
    total = 0
    for d in range(depth + 1):
        total += len(pp.base) * sum(pp.n ** k * pp.m ** (d - k)
                                    for k in range(d + 1))
        if total > PAIR_WINDOW_BUDGET:
            break
    return total


def enumerate_pair(pp: PairPresentation, depth: int) -> list[PairElem]:
    """All canonical elements of joint depth |t|+|s| <= depth.

    Ordered by (joint depth, |t|, t lexicographically, s
    lexicographically, node declaration order).  A window whose free
    words number more than ``PAIR_WINDOW_BUDGET`` raises
    ``ResourceExceeded`` before any element is built.
    """
    pp.require_valid()
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    if _free_word_bound(pp, depth) > PAIR_WINDOW_BUDGET:
        raise ResourceExceeded(
            f"pair window at depth {depth} has more than "
            f"{PAIR_WINDOW_BUDGET} free words, the budget")
    out: list[PairElem] = []
    for total in range(depth + 1):
        for t_len in range(total, -1, -1):
            for t in _cartesian(range(1, pp.n + 1), repeat=t_len):
                for s in _cartesian(range(1, pp.m + 1), repeat=total - t_len):
                    for b in pp.base:
                        if _absorbs(pp, t, s, b) is None:
                            out.append(PairElem(t, s, b))
    return out


def check_theta_commute(pp: PairPresentation) -> CommutationReport:
    """Compare ``S_i T_j`` against ``T_j' S_i'`` where they can differ.

    Both sides are evaluated by deterministic one-step application that
    never assumes the conclusion.  They can differ only at a base
    vector ``e_b`` whose node has an out-edge in both families, so only
    those are evaluated: the report lists the failures a sweep of every
    element would, in the same order, and a pair with no such node is
    not swept.

    Reduction absorbs innermost letters first and reaches an outer
    letter only once the word inside it is used up, so reducing a word
    in one go, or its inside first, gives the same element.  Let
    ``theta(i, j) = (i', j')``; every other canonical x falls in one of
    two cases:

    - ``T_j x`` only prepends j, because x has a T-letter (canonical,
      so its innermost one is blocked) or its node has no t-out-edge.
      The left side then reduces ``T_j'`` in front of the word that
      ``S_i' x`` reduces, and the right side reduces that word first.
    - ``S_i' x`` only prepends i', because x is ``S_s e_b`` with s
      non-empty or with no s-out-edge at b.  ``T_j'`` pushed through
      ``S_i' S_s`` reaches b as the same letter as ``T_j`` pushed
      through ``S_s``, leaving ``S_i`` in front of the same S-block, so
      both sides absorb the same letters.

    That the evaluated relation makes the operators commute is a
    locality argument, which an independent truncated-matrix check
    guards downstream.
    """
    pp.require_valid()
    if pp._commutation is not None:
        return pp._commutation
    failures = []
    s_sources = {src for src, _ in pp.s_edges}
    for b in pp.base:
        if b not in pp.t_sources or b not in s_sources:
            continue
        x = PairElem((), (), b)
        for (i, j), (i2, j2) in sorted(pp.theta.map.items()):
            lhs = _s_apply_raw(pp, i, _t_apply_raw(pp, j, x))
            rhs = _t_apply_raw(pp, j2, _s_apply_raw(pp, i2, x))
            if lhs != rhs:
                failures.append(CommutationFailure(
                    "commute", x, i, j, lhs, rhs))
    report = CommutationReport(tuple(failures))
    pp._commutation = report
    return report


def mirror(pp: PairPresentation) -> PairPresentation:
    """The role-swapped pair: T becomes the S-family and vice versa.

    The swapped theta is ``(j, i) -> swap(theta^-1(i, j))``, which is
    exactly what turns the rule ``S_i T_j = T_j' S_i'`` into its
    mirror-image reading; the constructor refuses one that is not a
    bijection.  The twin shares the pair's two family objects, swapped,
    with their reports: a family is the same data whichever role it
    plays, so a twin built from scratch would hold equal copies.

    A pair theta-commutes iff its mirror does: both checks evaluate the
    same ``e_b`` (the mirror keeps every node), the mirror's instance
    for ``(j', i')`` is the pair's ``S_i T_j = T_j' S_i'`` read from the
    other side, and the results of at most two letters correspond under
    :func:`mirror_elem`.  Code that checked the pair skips the mirror.

    A pair keeps its twin, and the twin keeps
    only a weak reference back, so the two never form a cycle and a
    dropped pair frees its twin and both caches at once.  Involutive
    while both are alive: the mirror of the mirror is the original
    object; once the original is gone, the twin's mirror is built anew.
    """
    twin = pp._mirror
    if isinstance(twin, weakref.ref):
        twin = twin()
    if twin is None:
        mirrored = {(d, c): (b, a) for (a, b), (c, d) in pp.theta.map.items()}
        twin = PairPresentation.__new__(PairPresentation)
        twin._bind(Theta(pp.n, pp.m, mirrored), pp._t_family, pp._s_family)
        twin._mirror = weakref.ref(pp)
        pp._mirror = twin
    return twin


def mirror_elem(pp: PairPresentation, x: PairElem) -> PairElem:
    """The same basis vector named in the mirror pair's convention.

    The mirror convention wants original-S letters outside, so this is
    denormalization: ``T_t S_s e_b = S_u T_w e_b`` maps to the mirror
    element with t-prefix u and s-prefix w.
    """
    u, w = denormalize(pp.theta, x.t_prefix, x.s_prefix)
    return PairElem(u, w, x.node)


def _s_pred_raw(pp: PairPresentation, x: PairElem
                ) -> Optional[tuple[int, PairElem]]:
    """:func:`s_pred` without the entry guards: pp theta-commutes and x
    is canonical, so irreducible.

    An x with S-letters strips its outer one, and the candidate needs
    no re-application.  Write ``x = T_t S_i S_r e_b`` and
    ``(i0, w) = commute_s_right(theta, t, i)``, so the candidate is
    ``y = T_w S_r e_b``.  Re-applying ``S_i0`` runs
    ``commute_s_left(theta, i0, w)``, which walks the same theta
    entries back and returns ``(t, i)``: the two moves are inverse word
    moves of one bijection.  With r non-empty that rebuilds x at once.
    With r empty it reduces ``T_t S_i e_b``, which is x, and x's
    innermost letters stay blocked: no s-edge ``(b, i)``, and the
    innermost T-letter pushed through ``S_i`` has no t-edge at b.  So
    the result is x in either case, on any pair whose theta is a
    bijection.  Candidates of the backward walk are re-applied.
    """
    theta = pp.theta
    if x.s_prefix:
        # T_t S_i = S_i' T_t' moves the outer S-letter outside, leaving
        # T_t' S_rest e_b in T-outside form
        i0, w = commute_s_right(theta, x.t_prefix, x.s_prefix[0])
        # the rest keeps x's innermost S-letter, if any, which stays
        # blocked, and its innermost T-letter reaches the node as x's
        # does, so it is irreducible too
        return i0, PairElem(w, x.s_prefix[1:], x.node)
    found: list[tuple[int, PairElem]] = []
    suffix: list[int] = []
    node = x.node
    seen: set[Node] = set()
    while True:
        hit = pp.s_in.get(node)
        if hit is not None:
            src, lab = hit
            i0, w_y = commute_s_right(theta, x.t_prefix + tuple(suffix), lab)
            y = _reduce_raw(pp, w_y, (), src)
            if _s_apply_raw(pp, i0, y) != x:
                raise ContractViolation(
                    f"un-absorbing edge ({src!r},{lab}) under {x!r} does "
                    f"not invert: candidate {y!r} fails re-application")
            if (i0, y) not in found:
                found.append((i0, y))
        if node in seen:
            break
        seen.add(node)
        step = pp.t_in.get(node)
        if step is None:
            break
        node, j = step[0], step[1]
        suffix.append(j)
    if not found:
        return None
    if len(found) > 1:
        raise ContractViolation(
            f"{x!r} has {len(found)} distinct S-predecessors "
            f"{found!r}: the S-family is not injective on the basis")
    return found[0]


def _base_preds(pp: PairPresentation) -> dict:
    # e_b's S-predecessor (or None) for each base node b, memoised on
    # pp, which theta-commutes; a raise at any b leaves no table
    cache = pp._cache
    if "base_preds" not in cache:
        cache["base_preds"] = {b: _s_pred_raw(pp, PairElem((), (), b))
                               for b in pp.base}
    return cache["base_preds"]


def _t_pred_raw(pp: PairPresentation, x: PairElem
                ) -> Optional[tuple[int, PairElem]]:
    """:func:`t_pred` without the entry guards: pp (and so its mirror)
    theta-commutes and x is canonical, so irreducible.

    An x with T-letters strips its outer one, ``x = T_j T_r S_s e_b``
    to ``y = T_r S_s e_b``, and the candidate needs no re-application.
    Re-applying ``T_j`` prepends j when r is non-empty, which is x.
    When r is empty it reduces ``T_j S_s e_b``, which is x, and x's
    innermost letters stay blocked: no s-edge at b for the innermost
    S-letter, and j pushed through ``S_s`` has no t-edge at b.  The
    pure-S case runs :func:`_s_pred_raw` on the mirror pair.
    """
    t = x.t_prefix
    if t:
        # T-letters are outside, so the outer one strips directly; the
        # rest keeps x's blocked innermost letters, and so is canonical
        return t[0], PairElem(t[1:], x.s_prefix, x.node)
    # a pure-S element is a pure-T element of the mirror pair, and so
    # is its predecessor there: the two names only swap prefixes
    res = _s_pred_raw(mirror(pp), PairElem(x.s_prefix, (), x.node))
    if res is None:
        return None
    label, y = res
    return label, PairElem((), y.t_prefix, y.node)


def s_pred(pp: PairPresentation, x: PairElem
           ) -> Optional[tuple[int, PairElem]]:
    """The unique (label, element) with ``s_apply(label, element) == x``.

    Returns None when x is outside every S-generator's range.  For an
    element with S-letters this strips the outermost letter of the
    S-outside form.  For a pure-T element the predecessor, if any,
    comes from running absorption backwards: un-absorb t-edges walking
    the (unique) t-in-edges from the node, and at each visited node try
    un-absorbing the (unique) s-in-edge and pulling the freed S-letter
    out to the left.  A canonical element's first forward absorption
    must be the fresh S-letter itself (the T-push it displaced stays
    blocked), so these walks cover every way x can arise.

    Every candidate of the backward walk is verified by re-applying; a
    stripped letter needs no check (see :func:`_s_pred_raw`).  A
    candidate that fails, or two distinct candidates that both verify,
    mean the edge data contradicts theta beyond the checked region and
    raise ContractViolation.

    The guards (theta-commutation, a canonical x) run here, once per
    call; internal loops call the unguarded kernel instead.
    """
    pp.require_commuting()
    _require_canonical(pp, x)
    return _s_pred_raw(pp, x)


def t_pred(pp: PairPresentation, x: PairElem
           ) -> Optional[tuple[int, PairElem]]:
    """The unique (label, element) with ``t_apply(label, element) == x``.

    An element with T-letters loses its outermost one; for a pure-S
    element the backward walk runs on the mirror pair, where the
    T-family plays the S role.  The guards (theta-commutation, which
    covers the mirror's, and a canonical x) run here, once per call;
    internal loops call the unguarded kernel instead.
    """
    pp.require_commuting()
    _require_canonical(pp, x)
    return _t_pred_raw(pp, x)


def _doubly_sweep(pp: PairPresentation, elems: Iterable[PairElem]
                  ) -> tuple[CommutationFailure, ...]:
    # both adjoint displays at every element of elems and every label
    # pair, in order; pp theta-commutes and the elements are canonical
    theta = pp.theta
    failures = []
    try:
        for x in elems:
            # a predecessor depends on x and at most one label, so each
            # is computed once, where the label-pair loop first needs
            # it: a contract violation still stops the sweep at the
            # same (x, i, j) with the same failures before it
            s_backs = []  # S-predecessor of T_j x, at index j - 1
            for i in range(1, pp.m + 1):
                # T_j^* S_i x  vs  the theta-matched S_k T_jk^* x
                t_back = _t_pred_raw(pp, _s_apply_raw(pp, i, x))
                if i == 1:
                    x_t_back = _t_pred_raw(pp, x)
                for j in range(1, pp.n + 1):
                    lhs = t_back[1] if t_back is not None and t_back[0] == j \
                        else None
                    rhs = None
                    if x_t_back is not None:
                        k, jk = theta.inverse_map[(i, x_t_back[0])]
                        if jk == j:
                            rhs = _s_apply_raw(pp, k, x_t_back[1])
                    if lhs != rhs:
                        failures.append(CommutationFailure(
                            "t-adjoint-of-s", x, i, j, lhs, rhs))
                    # S_i^* T_j x  vs  the theta-matched T_k S_ik^* x
                    if i == 1:
                        s_backs.append(
                            _s_pred_raw(pp, _t_apply_raw(pp, j, x)))
                        if j == 1:
                            x_s_back = _s_pred_raw(pp, x)
                    s_back = s_backs[j - 1]
                    lhs = s_back[1] if s_back is not None and s_back[0] == i \
                        else None
                    rhs = None
                    if x_s_back is not None:
                        i2, k = theta.inverse_map[(x_s_back[0], j)]
                        if i2 == i:
                            rhs = _t_apply_raw(pp, k, x_s_back[1])
                    if lhs != rhs:
                        failures.append(CommutationFailure(
                            "s-adjoint-of-t", x, i, j, lhs, rhs))
    except ContractViolation as exc:
        failures.append(CommutationFailure(
            "pred-contract", None, 0, 0, str(exc), None))
    return tuple(failures)


def _doubly_probe(pp: PairPresentation) -> tuple:
    # the rule's sweeps, once per pair: the failures at every e_b, and
    # those at T_l e_b for the first b and every l
    cache = pp._cache
    if "doubly_probe" not in cache:
        base = [PairElem((), (), b) for b in pp.base]
        ends = [_t_apply_raw(pp, l, x) for x in base[:1]
                for l in range(1, pp.n + 1)]
        cache["doubly_probe"] = (_doubly_sweep(pp, base),
                                 _doubly_sweep(pp, ends))
    return cache["doubly_probe"]


def _list_doubly(pp: PairPresentation, depth: int
                 ) -> tuple[CommutationFailure, ...]:
    return _doubly_sweep(pp, enumerate_pair(pp, depth))


class _ListedOnDemand(CommutationReport):
    # a failing report of check_doubly_commute: its failures are those
    # of the window sweep, run on the first read and kept
    __slots__ = ("_pp", "_depth")

    def __init__(self, pp: PairPresentation, depth: int):
        self._failures = None
        self._pp = pp
        self._depth = depth

    @property
    def ok(self) -> bool:
        return False

    @property
    def failures(self) -> tuple[CommutationFailure, ...]:
        if self._failures is None:
            self._failures = _list_doubly(self._pp, self._depth)
        return self._failures

    def __repr__(self) -> str:
        if self._failures is None:
            return "CommutationReport(failing)"
        return super().__repr__()


def check_doubly_commute(pp: PairPresentation,
                         depth: Optional[int] = None) -> CommutationReport:
    """Verify both adjoint-commutation displays, decided exactly.

    The two identities relate a generator of one family with the
    adjoint of the other; on basis vectors each side is a basis vector
    or zero, with at most one surviving term in the sum (predecessors
    are unique).  The report is the one a sweep of every canonical
    element of joint depth at most ``depth`` (default |base| + 2) and
    every label pair gives.  For a jointly isometric pair ``ok`` comes
    from the rule below, and the window is swept only when
    ``failures`` is read; a pair that is not jointly isometric is swept
    at once, since its verdict depends on the window.

    Rule: the pair is jointly isometric (:func:`check_joint_isometry`)
    and the displays hold at every base vector ``e_b`` and at
    ``T_l e_b`` for one b and every l.  Then they hold at every
    element.  Joint isometry makes the predecessor kernels exact
    adjoints that never raise, and :func:`check_theta_commute` makes
    ``S_i T_j x = T_j' S_i' x`` hold at every x, so:

    - Display one, ``T_j^* S_i x`` against ``S_k T_jk^* x``, at
      ``x = T_l x'``.  With ``theta(i, l) = (i', l')`` the left side is
      ``T_j^* T_l' S_i' x'``: ``S_i' x'`` at ``j = l'``, zero
      elsewhere.  The right side is ``S_k x'`` at ``j = jk``, where
      ``(k, jk) = theta^-1(i, l)``.  The ``S_a x'`` are distinct, so
      the display holds at x iff ``theta(i, l) = theta^-1(i, l)``, a
      condition on the labels alone that ``T_l e_b`` decides.
    - Display one at an x in no T-range, where the right side is zero.
      Such an x is ``S_s e_b`` with no t-in-edge on the backward
      s-walk from b: the walk behind :func:`_t_pred_raw` visits the
      same nodes for every s.  ``S_i x`` keeps the node b, and so stays
      out of every T-range, unless ``x = e_b`` and ``S_i`` absorbs
      there; ``e_b`` decides that case.
    - Display two, ``S_i^* T_j x`` against ``T_k S_i2^* x``, at
      ``x = S_l x''``.  With ``(i2, k) = theta^-1(l, j)``,
      ``T_j S_l x'' = S_i2 T_k x''``, so both sides are ``T_k x''`` at
      ``i = i2`` and zero elsewhere: the display always holds.  At an
      x in no S-range it is the case above read in the mirror pair,
      and ``e_b`` decides it.

    The rule is exact at every depth.  The sweep's body at an element
    depends on that element alone, and the rule's elements are
    canonical: the ``e_b`` have depth 0 and each ``T_l e_b`` depth at
    most 1.  If the rule holds, no element fails, so no window does.
    If it fails at an element the window holds, the sweep meets that
    element, or stops at a contract violation before it, and reports a
    failure either way.  The window of depth 0 is the ``e_b`` alone, so
    there only they count; every deeper window holds every rule element.

    A failing report of a jointly isometric pair lists its failures on
    first read and keeps them.  The report is cached on the pair per
    depth, so the default and an explicit ``len(pp.base) + 2`` share
    one report; a report that lists on demand holds the pair, so the
    pair keeps it only while a caller does, and the rule's sweeps are
    kept once per pair.

    A window is refused only where it is swept, as
    :func:`enumerate_pair` refuses it: at once for a pair that is not
    jointly isometric, and on the first read of ``failures`` for a
    failing one that is.  The verdict of a jointly isometric pair, and
    the report of a passing one, never raise ResourceExceeded.  A
    negative depth is a ValidationError.
    """
    pp.require_commuting()
    if depth is None:
        depth = len(pp.base) + 2
    elif depth < 0:
        raise ValidationError("depth must be nonnegative")
    cache = pp._cache.setdefault("doubly", {})
    report = cache.get(depth)
    if isinstance(report, weakref.ref):
        report = report()
    if report is None:
        if not check_joint_isometry(pp).ok:
            report = cache[depth] = CommutationReport(_list_doubly(pp, depth))
        else:
            at_base, at_ends = _doubly_probe(pp)
            if at_base or (depth and at_ends):
                report = _ListedOnDemand(pp, depth)
                cache[depth] = weakref.ref(report)
            else:
                report = cache[depth] = CommutationReport()
    return report


def check_joint_isometry(pp: PairPresentation) -> ValidationReport:
    """Injectivity and range-disjointness of each family, decided exactly.

    A pair can pass the commutation check yet fail to present two
    honest row-isometries: two basis vectors collide under one family's
    generators.  Rule: at every base vector ``e_b``, the
    S-predecessor walk :func:`_s_pred_raw` finishes without a
    ContractViolation in the pair and in its mirror (the walk
    :func:`_t_pred_raw` takes at ``e_b``).  Then no two elements
    collide at any depth and the report is empty.  Otherwise the report
    holds one entry, the first violation's text; the T-family's is read
    in the mirror pair, where T is the S-family.  The report is cached
    on the pair, and each family's walks leave a table of base-vector
    predecessors that the chain verdicts of :mod:`slocinski` read.

    Proof for S; the T-family is the S-family of the mirror pair, where
    this pair's pure-S elements are pure T and ``_t_pred_raw`` runs.

    - ``S_i x`` only prepends a letter to the S-prefix, which is
      injective and leaves one, unless ``x = T_u e_d`` and the S-letter
      absorbs at d.  So collisions land on pure-T elements ``T_w e_c``.
    - A preimage of ``T_w e_c`` absorbs at the node ``p_k`` that the
      backward t-walk from c reaches after k steps, then re-absorbs
      those k T-letters.  So k fixes it, and for k >= 1 it is canonical,
      and so a preimage, by a condition on ``p_k`` and ``p_(k-1)``
      alone.  Under theta-commutation every candidate the walk builds
      re-applies, so :func:`_s_pred_raw` raises exactly when it meets
      two preimages.
    - Only position 0 depends on w, so ``T_w e_c`` has no more
      preimages than ``e_c``.
    - The walk from ``e_c`` stops at its first revisit.  A preimage at a
      later position k lies on a t-cycle.  The walk from ``e_(p_k)``
      then finds one preimage at position 0 and, by the same condition,
      another one period later, and raises.

    Conversely, a raise at ``e_c`` names two preimages of ``e_c``, a
    collision, so the rule is exact both ways.  No window is built, so
    none is refused.
    """
    pp.require_commuting()
    if pp._joint is None:
        report = _CLEAN
        try:
            for name, q in (("S", pp), ("T", mirror(pp))):
                _base_preds(q)
        except ContractViolation as exc:
            where = "" if name == "S" else \
                "T-family, read in the mirror pair: "
            report = ValidationReport((where + str(exc),))
        pp._joint = report
    return pp._joint
