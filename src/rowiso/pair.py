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
data may contradict theta.  Decomposition operations refuse such pairs
with a typed error; the checks that produce the verdict only ever use
deterministic one-step evaluation that stays well-defined either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Iterable, Optional

from .errors import ContractViolation, ValidationError
from .presentation import Node, Presentation, ValidationReport
from .presentation import validate as _validate_family
from .words import (Theta, Word, commute_s_left, commute_s_right,
                    commute_t_right, denormalize, s_outside_to_t_outside,
                    validate_word)


@dataclass(frozen=True)
class PairElem:
    """Canonical name ``T_t S_s e_node`` of a joint basis vector.

    Canonical means: the innermost S-letter has no s-edge at the node,
    and the innermost T-letter, pushed rightward through the S-block,
    has no t-edge at the node either.
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


@dataclass(frozen=True)
class CommutationFailure:
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


@dataclass(frozen=True)
class CommutationReport:
    failures: tuple[CommutationFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

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

    __slots__ = ("theta", "base", "s_edges", "t_edges", "node_index",
                 "s_in", "t_in", "_s_family", "_t_family", "_key",
                 "_report", "_commutation", "_mirror", "_cache")

    def __init__(self, theta: Theta, base: Iterable[Node], s_edges: dict,
                 t_edges: dict):
        if not isinstance(theta, Theta):
            raise ValidationError(f"expected a Theta, got {theta!r}")
        self.theta = theta
        # family objects own edge normalization and in-edge maps
        self._s_family = Presentation(theta.m, base, s_edges)
        self._t_family = Presentation(theta.n, tuple(self._s_family.base),
                                      t_edges)
        self.base = self._s_family.base
        self.s_edges = self._s_family.edges
        self.t_edges = self._t_family.edges
        self.node_index = self._s_family.node_index
        self.s_in = self._s_family.in_edge
        self.t_in = self._t_family.in_edge
        self._key = (theta, self.base, tuple(sorted(self.s_edges.items())),
                     tuple(sorted(self.t_edges.items())))
        self._report: Optional[ValidationReport] = None
        self._commutation: Optional[CommutationReport] = None
        self._mirror: Optional["PairPresentation"] = None
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return self.theta.m

    @property
    def n(self) -> int:
        return self.theta.n

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PairPresentation)
                and self._key == other._key)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (f"PairPresentation(m={self.m}, n={self.n}, "
                f"base={list(self.base)!r}, s_edges={self.s_edges!r}, "
                f"t_edges={self.t_edges!r})")

    def require_valid(self) -> None:
        report = validate_pair(self)
        if not report.ok:
            raise ValidationError(report.violations[0])

    def require_commuting(self) -> None:
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
            "s_edges": [[src, label, dst]
                        for (src, label), dst in sorted(self.s_edges.items())],
            "t_edges": [[src, label, dst]
                        for (src, label), dst in sorted(self.t_edges.items())],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PairPresentation":
        m, n = doc["m"], doc["n"]
        if "theta" in doc:
            theta = Theta.from_quadruples(m, n, doc["theta"])
        else:
            theta = Theta.identity(m, n)
        edges = {}
        for field, store in (("s_edges", {}), ("t_edges", {})):
            for row in doc.get(field, []):
                if len(row) != 3:
                    raise ValidationError(f"edge row {row!r} is not a triple")
                src, label, dst = row
                if (src, label) in store:
                    raise ValidationError(
                        f"duplicate {field} entry for node {src!r} "
                        f"label {label}")
                store[(src, label)] = dst
            edges[field] = store
        return cls(theta, doc["base"], edges["s_edges"], edges["t_edges"])


def free_pair(theta: Theta, base: Iterable[Node] = ("b",)) -> PairPresentation:
    """The edge-free pair: the joint left-regular action for theta."""
    return PairPresentation(theta, base, {}, {})


def validate_pair(pp: PairPresentation) -> ValidationReport:
    """Syntactic checks for both families; violations are data."""
    if pp._report is not None:
        return pp._report
    violations = [f"s-family: {v}"
                  for v in _validate_family(pp._s_family).violations]
    for v in _validate_family(pp._t_family).violations:
        if "declared twice" in v:
            continue  # already reported through the s-family pass
        violations.append(f"t-family: {v}")
    report = ValidationReport(tuple(violations))
    pp._report = report
    return report


def _require_canonical(pp: PairPresentation, x: PairElem) -> None:
    if x.node not in pp.node_index:
        raise ValidationError(f"element node {x.node!r} is not a base node")
    validate_word(x.s_prefix, pp.m)
    validate_word(x.t_prefix, pp.n)
    if x.s_prefix and (x.node, x.s_prefix[-1]) in pp.s_edges:
        raise ValidationError(
            f"element {x!r} is not canonical: S-letter absorbs")
    if x.t_prefix:
        _, arriving = commute_t_right(pp.theta, x.s_prefix, x.t_prefix[-1])
        if (x.node, arriving) in pp.t_edges:
            raise ValidationError(
                f"element {x!r} is not canonical: T-letter absorbs")


def _reduce_raw(pp: PairPresentation, t: Word, s: Word, b: Node) -> PairElem:
    # greedy innermost-first absorption; deterministic whether or not
    # the pair actually commutes
    while True:
        if s and (b, s[-1]) in pp.s_edges:
            b = pp.s_edges[(b, s[-1])]
            s = s[:-1]
            continue
        if t:
            s2, j2 = commute_t_right(pp.theta, s, t[-1])
            if (b, j2) in pp.t_edges:
                b = pp.t_edges[(b, j2)]
                s = s2
                t = t[:-1]
                continue
        return PairElem(t, s, b)


def reduce_elem(pp: PairPresentation, t: Word, s: Word, b: Node) -> PairElem:
    """Canonical name of ``T_t S_s e_b``.

    Repeatedly absorbs the innermost S-letter, or pushes the innermost
    T-letter through the S-block and absorbs it, until neither applies.
    Refuses non-commuting pairs, where canonical names are not
    well-defined.
    """
    pp.require_commuting()
    if b not in pp.node_index:
        raise ValidationError(f"node {b!r} is not a base node")
    s = validate_word(tuple(s), pp.m)
    t = validate_word(tuple(t), pp.n)
    return _reduce_raw(pp, t, s, b)


def _s_apply_raw(pp: PairPresentation, i: int, x: PairElem) -> PairElem:
    t2, i2 = commute_s_left(pp.theta, i, x.t_prefix)
    return _reduce_raw(pp, t2, (i2,) + x.s_prefix, x.node)


def _t_apply_raw(pp: PairPresentation, j: int, x: PairElem) -> PairElem:
    return _reduce_raw(pp, (j,) + x.t_prefix, x.s_prefix, x.node)


def s_apply(pp: PairPresentation, i: int, x: PairElem) -> PairElem:
    """The image ``S_i x`` as a canonical element."""
    pp.require_commuting()
    if not 1 <= i <= pp.m:
        raise ValidationError(f"S-label {i} outside 1..{pp.m}")
    _require_canonical(pp, x)
    return _s_apply_raw(pp, i, x)


def t_apply(pp: PairPresentation, j: int, x: PairElem) -> PairElem:
    """The image ``T_j x`` as a canonical element."""
    pp.require_commuting()
    if not 1 <= j <= pp.n:
        raise ValidationError(f"T-label {j} outside 1..{pp.n}")
    _require_canonical(pp, x)
    return _t_apply_raw(pp, j, x)


def enumerate_pair(pp: PairPresentation, depth: int) -> list[PairElem]:
    """All canonical elements of joint depth |t|+|s| <= depth.

    Ordered by (joint depth, |t|, t lexicographically, s
    lexicographically, node declaration order).
    """
    pp.require_valid()
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    out: list[PairElem] = []
    for total in range(depth + 1):
        for t_len in range(total, -1, -1):
            for t in _cartesian(range(1, pp.n + 1), repeat=t_len):
                for s in _cartesian(range(1, pp.m + 1), repeat=total - t_len):
                    for b in pp.base:
                        if s and (b, s[-1]) in pp.s_edges:
                            continue
                        if t:
                            _, arriving = commute_t_right(pp.theta, s, t[-1])
                            if (b, arriving) in pp.t_edges:
                                continue
                        out.append(PairElem(t, s, b))
    return out


def check_theta_commute(pp: PairPresentation) -> CommutationReport:
    """Compare ``S_i T_j`` against ``T_j' S_i'`` on base and frontier.

    Both sides are evaluated by deterministic one-step application that
    never assumes the conclusion.  Checking the base plus one fresh
    layer suffices because deeper elements live in the free region,
    where the rewriting rule holds by construction; an independent
    truncated-matrix check guards that locality argument downstream.
    """
    pp.require_valid()
    if pp._commutation is not None:
        return pp._commutation
    failures = []
    for x in enumerate_pair(pp, 1):
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
    mirror-image reading.  Involutive: the mirror of the mirror is the
    original object.
    """
    if pp._mirror is None:
        mirrored = {(d, c): (b, a) for (a, b), (c, d) in pp.theta.map.items()}
        twin = PairPresentation(Theta(pp.n, pp.m, mirrored), pp.base,
                                dict(pp.t_edges), dict(pp.s_edges))
        twin._mirror = pp
        pp._mirror = twin
    return pp._mirror


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
    # s_pred without the entry guards: pp theta-commutes and x is
    # canonical.  Every candidate is still re-applied.
    theta = pp.theta
    if x.s_prefix:
        u, w = denormalize(theta, x.t_prefix, x.s_prefix)
        w2, u2 = s_outside_to_t_outside(theta, u[1:], w)
        y = _reduce_raw(pp, w2, u2, x.node)
        if _s_apply_raw(pp, u[0], y) != x:
            raise ContractViolation(
                f"stripping the outer S-letter of {x!r} does not invert: "
                f"candidate {y!r} fails re-application")
        return u[0], y
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


def _t_pred_raw(pp: PairPresentation, x: PairElem
                ) -> Optional[tuple[int, PairElem]]:
    # t_pred without the entry guards: both pp and its mirror
    # theta-commute and x is canonical
    twin = mirror(pp)
    res = _s_pred_raw(twin, mirror_elem(pp, x))
    if res is None:
        return None
    label, y = res
    return label, mirror_elem(twin, y)


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

    Every candidate is verified by re-applying; a candidate that fails,
    or two distinct candidates that both verify, mean the edge data
    contradicts theta beyond the checked region and raise
    ContractViolation.

    The guards (theta-commutation, a canonical x) run here, once per
    call; internal loops call the unguarded kernel instead.
    """
    pp.require_commuting()
    _require_canonical(pp, x)
    return _s_pred_raw(pp, x)


def t_pred(pp: PairPresentation, x: PairElem
           ) -> Optional[tuple[int, PairElem]]:
    """The unique (label, element) with ``t_apply(label, element) == x``.

    Delegates to the mirror pair, where the T-family plays the S role.
    The guards (theta-commutation of the pair and of its mirror, a
    canonical x) run here, once per call; internal loops call the
    unguarded kernel instead.
    """
    pp.require_commuting()
    _require_canonical(pp, x)
    mirror(pp).require_commuting()
    return _t_pred_raw(pp, x)


def check_doubly_commute(pp: PairPresentation,
                         depth: Optional[int] = None) -> CommutationReport:
    """Verify both adjoint-commutation displays on a truncation.

    The two identities relate a generator of one family with the
    adjoint of the other; on basis vectors each side is a basis vector
    or zero, with at most one surviving term in the sum (predecessors
    are unique).  Checked for every canonical element of joint depth at
    most ``depth`` (default |base| + 2) and every label pair.

    The report is cached on the pair per depth, so the default and an
    explicit ``len(pp.base) + 2`` share one report.
    """
    pp.require_commuting()
    if depth is None:
        depth = len(pp.base) + 2
    cache = pp._cache.setdefault("doubly", {})
    if depth in cache:
        return cache[depth]
    theta = pp.theta
    failures = []
    try:
        # the t-predecessors below run on the mirror pair
        mirror(pp).require_commuting()
        for x in enumerate_pair(pp, depth):
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
    report = CommutationReport(tuple(failures))
    cache[depth] = report
    return report


def check_joint_isometry(pp: PairPresentation,
                         depth: Optional[int] = None) -> ValidationReport:
    """Injectivity and range-disjointness of each family on a truncation.

    A pair can pass the commutation check yet fail to present two
    honest row-isometries (two basis vectors colliding under one
    generator); this detects such collisions up to joint depth
    ``depth`` (default |base| + 2).
    """
    pp.require_commuting()
    if depth is None:
        depth = len(pp.base) + 2
    violations = []
    elems = enumerate_pair(pp, depth)
    for name, count, fn in (("S", pp.m, _s_apply_raw),
                            ("T", pp.n, _t_apply_raw)):
        images: dict[PairElem, tuple[int, PairElem]] = {}
        for x in elems:
            for label in range(1, count + 1):
                y = fn(pp, label, x)
                prev = images.get(y)
                if prev is not None and prev != (label, x):
                    violations.append(
                        f"{name}-family collision: {name}_{prev[0]} "
                        f"{prev[1]!r} == {name}_{label} {x!r} == {y!r}")
                else:
                    images[y] = (label, x)
    return ValidationReport(tuple(violations))
