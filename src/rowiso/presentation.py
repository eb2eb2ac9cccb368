"""Finite presentations of a single permutative row-isometry.

A presentation is a finite labelled graph: a list of base nodes and a
partial edge map (node, label) -> node.  It generates an action of m
isometries on the orthonormal basis named by :class:`Elem` values: the
basis vector ``S_u e_b`` for a free prefix ``u`` and base node ``b``.
Each generator maps basis vectors to basis vectors; the graph encodes
exactly which products collapse back into the base.

The in-degree condition (at most one incoming edge per node, across all
labels) is what makes the family a row-isometry: each generator acts
injectively on the basis and distinct generators have disjoint images.
"""

from __future__ import annotations

from itertools import product as _cartesian
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .errors import ValidationError, _Record, _require_depth

if TYPE_CHECKING:
    from .words import Word

Node = str


class Elem(NamedTuple):
    """Canonical name ``S_prefix e_node`` of a basis vector.

    Canonical means fully absorbed: the innermost prefix letter has no
    edge at the node, so no shorter name denotes the same vector.

    A named tuple, so construction, hashing and equality run in C; it
    equals the plain tuple ``(prefix, node)``.
    """

    prefix: Word
    node: Node

    def __repr__(self) -> str:
        if not self.prefix:
            return f"<{self.node}>"
        letters = " ".join(f"s{i}" for i in self.prefix)
        return f"<{letters}|{self.node}>"

    @property
    def depth(self) -> int:
        return len(self.prefix)


class ValidationReport(_Record):
    """Outcome of a structural validation; violations are data, not errors."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        if self.ok:
            return "ValidationReport(ok)"
        body = "; ".join(self.violations)
        return f"ValidationReport({body})"


class Presentation:
    """Immutable single-family presentation data.

    Fields mirror the input document: ``m`` generators, ordered ``base``
    nodes, and ``edges`` mapping (node, label) to a node.  Semantic
    checks live in :func:`validate`; operations that require a valid
    presentation call :meth:`require_valid` and refuse with the report's
    first violation otherwise.
    """

    __slots__ = ("m", "base", "edges", "node_index", "in_edge", "_report",
                 "_listing", "_lebesgue")

    def __init__(self, m: int, base: Iterable[Node], edges: dict):
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValidationError(f"label count {m!r} is not an integer")
        self.m = m
        self.base = tuple(base)
        normalized = {}
        for (node, label), target in dict(edges).items():
            if not isinstance(label, int) or isinstance(label, bool):
                raise ValidationError(f"edge label {label!r} is not an integer")
            normalized[(node, label)] = target
        self.edges = normalized
        self.node_index = dict(zip(self.base, range(len(self.base))))
        self.in_edge = {dst: key for key, dst in normalized.items()}
        if len(self.in_edge) < len(normalized):
            # a shared target keeps its str-first source, written last
            self.in_edge = {dst: key for key, dst in
                            reversed(sorted(normalized.items(), key=str))}
        self._report: Optional[ValidationReport] = None
        # enumerate's listing, each depth's end in it, its objects' ids
        self._listing: Optional[tuple[list, list, set]] = None
        # lebesgue.classify_unitary's result; its node-set descriptions
        # hold this presentation, so once classified the two are freed
        # together by the cycle collector
        self._lebesgue = None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Presentation) and self.m == other.m
                and self.base == other.base and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.m, self.base, frozenset(self.edges.items())))

    def __repr__(self) -> str:
        return (f"Presentation(m={self.m}, base={list(self.base)!r}, "
                f"edges={self.edges!r})")

    def require_valid(self) -> None:
        report = self._report or validate(self)
        if report.violations:
            raise ValidationError(report.violations[0])

    def to_dict(self) -> dict:
        return {"m": self.m, "base": list(self.base),
                "s_edges": _edge_rows(self)}


def _edge_rows(p: Presentation) -> list:
    """Edge rows ``[src, label, dst]`` by source in base order, then label.

    Node names are never compared with each other, so names that do not
    compare (``1`` and ``"a"``) are written out too.  A source outside
    the base, which only an invalid presentation has, comes last, by
    its ``str``.
    """
    index, end = p.node_index, len(p.base)
    return [[src, label, dst] for (src, label), dst in sorted(
        p.edges.items(),
        key=lambda e: (index.get(e[0][0], end), str(e[0][0]), e[0][1]))]


def free_presentation(m: int, base: Iterable[Node] = ("b",)) -> Presentation:
    """The edge-free presentation: the left-regular action on each node."""
    return Presentation(m, base, {})


_CLEAN = ValidationReport()  # every clean presentation's report


def validate(p: Presentation) -> ValidationReport:
    """Check the row-isometry invariants; returns all violations found.

    A valid presentation has every edge between declared nodes, labels
    in ``1..m``, at most one edge per (node, label), and global
    in-degree at most one (injectivity plus disjoint ranges).  A clean
    one takes one pass; only a violation sorts the edges, to word it.
    """
    if p._report is not None:
        return p._report
    index, m = p.node_index, p.m
    # one index entry per base node, one in-edge entry per edge target
    if (m >= 1 and len(index) == len(p.base) and None not in index
            and len(p.in_edge) == len(p.edges)
            and all(src in index and dst in index and 0 < label <= m
                    for (src, label), dst in p.edges.items())):
        p._report = _CLEAN
        return _CLEAN
    violations = []
    if p.m < 1:
        violations.append(f"label count must be at least 1, got {p.m}")
    seen = set()
    for b in p.base:
        if b in seen:
            violations.append(f"base node {b!r} declared twice")
        seen.add(b)
    if None in seen:
        # None is the "no edge" sentinel of the edge lookups
        violations.append("base node None is reserved: it marks a "
                          "missing edge")
    in_count: dict[Node, list] = {}
    for (src, label), dst in sorted(p.edges.items(), key=lambda kv: str(kv)):
        if src not in p.node_index:
            violations.append(f"edge source {src!r} is not a base node")
        if dst not in p.node_index:
            violations.append(f"edge target {dst!r} is not a base node")
        if not 1 <= label <= max(p.m, 1):
            violations.append(f"edge label {label} outside 1..{p.m}")
        in_count.setdefault(dst, []).append((src, label))
    for dst, sources in sorted(in_count.items(), key=lambda kv: str(kv)):
        if len(sources) > 1:
            violations.append(
                f"node {dst!r} has in-degree {len(sources)}: "
                + ", ".join(f"({s!r},{l})" for s, l in sources))
    p._report = ValidationReport(tuple(violations))
    return p._report


def _require_canonical(p: Presentation, x: Elem) -> None:
    # enumerate built its listing's objects canonical in the valid p
    if p._listing is not None and id(x) in p._listing[2]:
        return
    if not isinstance(x, Elem):
        raise ValidationError(
            f"expected an Elem, got {type(x).__name__} {x!r}")
    try:
        declared = x.node in p.node_index
    except TypeError:
        raise ValidationError(
            f"element node {x.node!r} is not hashable") from None
    if not declared:
        raise ValidationError(f"element node {x.node!r} is not a base node")
    if not isinstance(x.prefix, tuple):
        raise ValidationError(f"element prefix {x.prefix!r} is not a tuple")
    for letter in x.prefix:
        if not isinstance(letter, int) or isinstance(letter, bool):
            raise ValidationError(f"letter {letter!r} is not an integer")
        if not 1 <= letter <= p.m:
            raise ValidationError(
                f"element prefix letter {letter} outside 1..{p.m}")
    if x.prefix and (x.node, x.prefix[-1]) in p.edges:
        raise ValidationError(f"element {x!r} is not canonical: "
                              f"letter {x.prefix[-1]} absorbs at {x.node!r}")


def apply(p: Presentation, i: int, x: Elem) -> Elem:
    """The generator image ``S_i e_x`` as a canonical element."""
    p.require_valid()
    if not 1 <= i <= p.m:
        raise ValidationError(f"label {i} outside 1..{p.m}")
    _require_canonical(p, x)
    return _apply_raw(p, i, x)


def _apply_raw(p: Presentation, i: int, x: Elem) -> Elem:
    # apply without its guards, for callers that ran them once
    if not x.prefix and (x.node, i) in p.edges:
        return Elem((), p.edges[(x.node, i)])
    # prepending outermost keeps the innermost letter untouched,
    # so the result is canonical too
    return Elem((i,) + x.prefix, x.node)


def pred(p: Presentation, x: Elem) -> Optional[tuple[int, Elem]]:
    """The unique (label, element) with ``apply(label, element) == x``.

    Returns ``None`` exactly when ``x`` lies in no generator's range,
    i.e. when ``x`` is a wandering vector: empty prefix and in-degree
    zero.
    """
    p.require_valid()
    _require_canonical(p, x)
    if x.prefix:
        return x.prefix[0], Elem(x.prefix[1:], x.node)
    hit = p.in_edge.get(x.node)
    if hit is None:
        return None
    src, label = hit
    return label, Elem((), src)


def enumerate(p: Presentation, depth: int) -> list[Elem]:
    """All canonical elements with prefix length at most ``depth``.

    Ordered by (prefix length, prefix lexicographically, declaration
    order of the node); the listing at depth d is a prefix of the
    listing at depth d+1.  So one listing is kept on the presentation,
    grown to the deepest depth asked for, and each call returns a new
    list sliced from it; the listing lives as long as the presentation.
    """
    p.require_valid()
    _require_depth(depth)
    listing = p._listing
    if listing is None or depth >= len(listing[1]):
        # grown on a copy and stored whole: a published listing is never
        # changed, so no caller sees one without its depth ends
        out, ends = ([], []) if listing is None else map(list, listing[:2])
        # per label i, in base order, the nodes where S_i does not absorb
        free = [[b for b in p.base if (b, i) not in p.edges]
                for i in range(1, p.m + 1)]
        for length in range(len(ends), depth + 1):
            if length == 0:
                out += _elems(zip(repeat(()), p.base))
            elif any(free):
                out += _elems([(prefix, b) for prefix in _cartesian(
                    range(1, p.m + 1), repeat=length)
                    for b in free[prefix[-1] - 1]])
            ends.append(len(out))
        listing = p._listing = (out, ends, set(map(id, out)))
    return listing[0][:listing[1][depth]]


def _elems(fields: Iterable[tuple]) -> list[Elem]:
    # tuple.__new__ builds each named tuple from its two fields without
    # the field-wise constructor, about twice as fast
    return list(map(tuple.__new__, repeat(Elem), fields))
