"""Single-family presentation tests.

The enumeration tests are cross-checked against a brute-force oracle
that generates every raw word-node pair up to a depth and canonicalizes
it by repeated innermost absorption, independently of the library's
incremental walker.
"""

import json
import random
from itertools import product

import pytest

from rowiso.cli import parse
from rowiso.errors import ValidationError
from rowiso.search import _edge_maps
from rowiso.presentation import (
    Elem,
    Presentation,
    apply,
    free_presentation,
    pred,
    validate,
)
from rowiso.presentation import enumerate as enumerate_basis

# -- brute-force canonicalization oracle --------------------------------------


def brute_canonical(p, prefix, node):
    prefix = list(prefix)
    while prefix and (node, prefix[-1]) in p.edges:
        node = p.edges[(node, prefix.pop())]
    return Elem(tuple(prefix), node)


def brute_enumerate(p, depth):
    seen = set()
    for length in range(depth + 1):
        for prefix in product(range(1, p.m + 1), repeat=length):
            for b in p.base:
                seen.add(brute_canonical(p, prefix, b))
    ordered = sorted(
        (x for x in seen if len(x.prefix) <= depth),
        key=lambda x: (len(x.prefix), x.prefix, p.node_index[x.node]))
    return ordered


def random_presentation(rng, max_nodes=4, max_m=3):
    nodes = tuple("abcd"[: rng.randint(1, max_nodes)])
    m = rng.randint(1, max_m)
    edges = {}
    taken = set()
    slots = [(b, i) for b in nodes for i in range(1, m + 1)]
    rng.shuffle(slots)
    for slot in slots:
        if rng.random() < 0.45:
            free = [b for b in nodes if b not in taken]
            if not free:
                break
            dst = rng.choice(free)
            edges[slot] = dst
            taken.add(dst)
    return Presentation(m, nodes, edges)


# -- fixtures -----------------------------------------------------------------

FREE2 = free_presentation(2)
SELF_LOOP_1 = Presentation(1, ("b",), {("b", 1): "b"})
SELF_LOOP_2 = Presentation(2, ("b",), {("b", 1): "b"})
CHAIN = Presentation(2, ("b", "c"), {("b", 2): "c"})


# -- validate -----------------------------------------------------------------


class TestValidate:
    def test_free_presentation_is_valid(self):
        assert validate(FREE2).ok

    def test_in_degree_two_rejected(self):
        p = Presentation(2, ("b", "c"), {("b", 1): "c", ("b", 2): "c"})
        report = validate(p)
        assert not report.ok
        assert any("in-degree 2" in v for v in report.violations)

    def test_self_loop_is_valid(self):
        assert validate(SELF_LOOP_1).ok

    def test_unknown_source_node(self):
        p = Presentation(1, ("b",), {("z", 1): "b"})
        assert any("source" in v for v in validate(p).violations)

    def test_unknown_target_node(self):
        p = Presentation(1, ("b",), {("b", 1): "z"})
        assert any("target" in v for v in validate(p).violations)

    def test_label_out_of_range(self):
        p = Presentation(1, ("b",), {("b", 2): "b"})
        assert any("label 2" in v for v in validate(p).violations)

    def test_duplicate_base_node(self):
        p = Presentation(1, ("b", "b"), {})
        assert any("twice" in v for v in validate(p).violations)

    def test_nonpositive_label_count(self):
        p = Presentation(0, ("b",), {})
        assert not validate(p).ok

    def test_empty_base_is_valid(self):
        assert validate(Presentation(2, (), {})).ok

    def test_operations_refuse_invalid_input(self):
        p = Presentation(2, ("b", "c"), {("b", 1): "c", ("b", 2): "c"})
        with pytest.raises(ValidationError):
            apply(p, 1, Elem((), "b"))


# -- the one-pass validate ---------------------------------------------------


def reference_validate(p):
    """The sorted validate: every edge visited in str order."""
    violations = []
    if p.m < 1:
        violations.append(f"label count must be at least 1, got {p.m}")
    seen = set()
    for b in p.base:
        if b in seen:
            violations.append(f"base node {b!r} declared twice")
        seen.add(b)
    if None in seen:
        violations.append("base node None is reserved: it marks a "
                          "missing edge")
    in_count = {}
    for (src, label), dst in sorted(p.edges.items(), key=str):
        if src not in p.node_index:
            violations.append(f"edge source {src!r} is not a base node")
        if dst not in p.node_index:
            violations.append(f"edge target {dst!r} is not a base node")
        if not 1 <= label <= max(p.m, 1):
            violations.append(f"edge label {label} outside 1..{p.m}")
        in_count.setdefault(dst, []).append((src, label))
    for dst, sources in sorted(in_count.items(), key=str):
        if len(sources) > 1:
            violations.append(
                f"node {dst!r} has in-degree {len(sources)}: "
                + ", ".join(f"({s!r},{l})" for s, l in sources))
    return tuple(violations)


def reference_in_edge(p):
    in_edge = {}
    for (src, label), dst in sorted(p.edges.items(), key=str):
        in_edge.setdefault(dst, (src, label))
    return in_edge


def small_singles():
    """The 1,091 single presentations with m, |base| <= 3, as data."""
    out = [(m, tuple("abc"[:k]), dict(edges))
           for m in (1, 2, 3) for k in (1, 2, 3)
           for edges in _edge_maps(tuple("abc"[:k]), m)]
    assert len(out) == 1091
    return out


def corruptions(m, base, edges):
    """One copy of a presentation per way to break it."""
    first, last = base[0], base[-1]
    # two declared slots sent to one node, or a dangling one when the
    # presentation has a single slot
    slots = [(b, i) for b in base for i in range(1, m + 1)] + [("y", 1)]
    yield "duplicate-base-node", m, base + (first,), edges
    yield "none-node", m, base + (None,), edges
    yield "dangling-source", m, base, {**edges, ("z", 1): first}
    yield "dangling-target", m, base, {**edges, (last, 1): "z"}
    yield "label-zero", m, base, {**edges, (first, 0): last}
    yield "label-past-m", m, base, {**edges, (first, m + 1): last}
    yield "in-degree-two", m, base, {**edges, **dict.fromkeys(slots[:2],
                                                             last)}
    yield "no-labels", 0, base, edges


class TestOnePassValidate:
    def test_matches_the_sorted_path_on_every_small_single(self):
        clean = set()
        for m, base, edges in small_singles():
            p = Presentation(m, base, edges)
            report = validate(p)
            assert report.violations == reference_validate(p) == (), p
            assert p.in_edge == reference_in_edge(p)
            clean.add(id(report))
        assert len(clean) == 1  # one shared clean report

    def test_matches_the_sorted_path_on_corrupted_copies(self):
        kinds = set()
        for data in small_singles():
            for kind, m, base, edges in corruptions(*data):
                p = Presentation(m, base, edges)
                want = reference_validate(p)
                assert want, (kind, p)
                assert validate(p).violations == want, (kind, p)
                assert p.in_edge == reference_in_edge(p), (kind, p)
                kinds.add(kind)
        assert len(kinds) == 8

    def test_a_shared_target_keeps_its_str_first_source(self):
        # inserted last, but ("a", 2) comes first in str order
        p = Presentation(2, ("a", "b", "c"),
                         {("c", 1): "b", ("b", 2): "b", ("a", 2): "b"})
        assert p.in_edge == {"b": ("a", 2)}
        assert not validate(p).ok

    def test_node_names_that_do_not_compare(self):
        p = Presentation(2, (1, "a"), {(1, 1): "a", ("a", 2): 1})
        assert validate(p).ok
        assert pred(p, Elem((), "a")) == (1, Elem((), 1))
        shared = Presentation(2, (1, "a"), {(1, 1): "a", ("a", 2): "a"})
        # inserted last, but "(('a', 2)" comes before "((1, 1)"
        assert shared.in_edge == {"a": ("a", 2)}
        assert validate(shared).violations == reference_validate(shared)
        assert p == Presentation(2, (1, "a"), {("a", 2): 1, (1, 1): "a"})


# -- apply --------------------------------------------------------------------


class TestApply:
    def test_free_action_prepends(self):
        assert apply(FREE2, 1, Elem((), "b")) == Elem((1,), "b")

    def test_self_loop_absorbs(self):
        assert apply(SELF_LOOP_1, 1, Elem((), "b")) == Elem((), "b")

    def test_edge_then_free_letter(self):
        # S1 S2 e_b: the inner letter falls into the edge (b,2) -> c,
        # the outer letter stays free
        step = apply(CHAIN, 2, Elem((), "b"))
        assert step == Elem((), "c")
        assert apply(CHAIN, 1, step) == Elem((1,), "c")

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            apply(FREE2, 3, Elem((), "b"))
        with pytest.raises(ValidationError):
            apply(FREE2, 0, Elem((), "b"))

    def test_non_canonical_element_rejected(self):
        with pytest.raises(ValidationError):
            apply(SELF_LOOP_2, 2, Elem((1,), "b"))

    def test_unknown_node_rejected(self):
        with pytest.raises(ValidationError):
            apply(FREE2, 1, Elem((), "z"))

    def test_result_always_canonical(self):
        rng = random.Random(17)
        for _ in range(200):
            p = random_presentation(rng)
            if not validate(p).ok or not p.base:
                continue
            for x in enumerate_basis(p, 2):
                for i in range(1, p.m + 1):
                    y = apply(p, i, x)
                    assert not (y.prefix
                                and (y.node, y.prefix[-1]) in p.edges)


# -- pred ---------------------------------------------------------------------


class TestPred:
    def test_strips_outer_letter(self):
        assert pred(FREE2, Elem((1, 2), "b")) == (1, Elem((2,), "b"))

    def test_wandering_generator_has_no_pred(self):
        assert pred(FREE2, Elem((), "b")) is None

    def test_edge_inverse(self):
        p = Presentation(1, ("b", "c"), {("b", 1): "c"})
        assert pred(p, Elem((), "c")) == (1, Elem((), "b"))

    def test_round_trip_both_ways(self):
        rng = random.Random(23)
        for _ in range(200):
            p = random_presentation(rng)
            if not validate(p).ok or not p.base:
                continue
            for x in enumerate_basis(p, 3):
                for i in range(1, p.m + 1):
                    assert pred(p, apply(p, i, x)) == (i, x)
                back = pred(p, x)
                if back is None:
                    assert not x.prefix and x.node not in p.in_edge
                else:
                    label, y = back
                    assert apply(p, label, y) == x

    def test_images_are_disjoint(self):
        rng = random.Random(31)
        for _ in range(100):
            p = random_presentation(rng)
            if not validate(p).ok or not p.base:
                continue
            images = {}
            for x in enumerate_basis(p, 2):
                for i in range(1, p.m + 1):
                    y = apply(p, i, x)
                    assert y not in images, (p, images[y], (i, x))
                    images[y] = (i, x)


# -- enumerate ----------------------------------------------------------------


class TestEnumerate:
    def test_free_depth_one(self):
        assert enumerate_basis(FREE2, 1) == [
            Elem((), "b"), Elem((1,), "b"), Elem((2,), "b")]

    def test_total_loop_collapses_everything(self):
        assert enumerate_basis(SELF_LOOP_1, 5) == [Elem((), "b")]

    def test_partial_loop_depth_two(self):
        # brute-force closure: only prefixes with a free innermost
        # letter survive canonicalization
        expected = [Elem((), "b"), Elem((2,), "b"),
                    Elem((1, 2), "b"), Elem((2, 2), "b")]
        assert brute_enumerate(SELF_LOOP_2, 2) == expected
        assert enumerate_basis(SELF_LOOP_2, 2) == expected

    def test_matches_brute_force_closure(self):
        rng = random.Random(41)
        for _ in range(120):
            p = random_presentation(rng)
            if not validate(p).ok:
                continue
            assert enumerate_basis(p, 3) == brute_enumerate(p, 3)

    def test_listing_grows_by_suffix(self):
        rng = random.Random(43)
        for _ in range(60):
            p = random_presentation(rng)
            if not validate(p).ok:
                continue
            small = enumerate_basis(p, 2)
            big = enumerate_basis(p, 3)
            assert big[: len(small)] == small

    def test_free_counts(self):
        # free on one node: 2^0 + ... + 2^d elements
        for d in range(5):
            assert len(enumerate_basis(FREE2, d)) == 2 ** (d + 1) - 1

    def test_negative_depth_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_basis(FREE2, -1)

    def test_empty_base(self):
        assert enumerate_basis(Presentation(2, (), {}), 3) == []


def reference_enumerate(p, depth):
    """``presentation.enumerate`` before it kept one listing per
    presentation: every layer built afresh on each call."""
    p.require_valid()
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    out = []
    for length in range(depth + 1):
        if length == 0:
            out.extend(Elem((), b) for b in p.base)
            continue
        for prefix in product(range(1, p.m + 1), repeat=length):
            for b in p.base:
                if (b, prefix[-1]) not in p.edges:
                    out.append(Elem(prefix, b))
    return out


class TestKeptListing:
    def test_every_small_presentation_in_any_depth_order(self):
        from test_oracle import single_space  # it imports this module

        for p in single_space():
            for depth in (4, 2, 0, 5, 3):
                got = enumerate_basis(p, depth)
                assert got == reference_enumerate(p, depth), (p, depth)
                assert all(type(x) is Elem for x in got)

    def test_mutating_a_result_changes_no_later_one(self):
        for p in (FREE2, CHAIN, SELF_LOOP_2):
            want = {d: reference_enumerate(p, d) for d in range(4)}
            deep = enumerate_basis(p, 3)
            deep[0] = Elem((9,), "zz")
            deep.append(Elem((), "zz"))
            assert enumerate_basis(p, 3) == want[3]
            shallow = enumerate_basis(p, 1)
            shallow.clear()
            for d in (1, 3, 2, 0):
                assert enumerate_basis(p, d) == want[d]

    def test_negative_depth_raises_after_a_kept_listing(self):
        p = Presentation(2, ("b", "c"), {("b", 2): "c"})
        assert enumerate_basis(p, 3) == reference_enumerate(p, 3)
        for depth in (-1, -5):
            with pytest.raises(ValidationError,
                               match="depth must be nonnegative"):
                enumerate_basis(p, depth)
        assert enumerate_basis(p, 2) == reference_enumerate(p, 2)

    def test_invalid_presentation_refused_every_time(self):
        p = Presentation(1, ("a", "b", "c"), {("a", 1): "c", ("b", 1): "c"})
        for _ in range(2):
            with pytest.raises(ValidationError, match="in-degree 2"):
                enumerate_basis(p, 2)

    def test_the_listing_is_the_presentation_s_own(self):
        p = Presentation(2, ("b", "c"), {("b", 2): "c"})
        twin = Presentation(2, ("b", "c"), {("b", 2): "c"})
        assert p == twin
        enumerate_basis(p, 3)
        # an equal presentation builds its own, so nothing outlives the
        # presentation that asked for it
        assert twin._listing is None
        assert enumerate_basis(twin, 3) == enumerate_basis(p, 3)


# -- structure ----------------------------------------------------------------


class TestPresentationData:
    def test_equality_and_hash(self):
        p = Presentation(2, ("b", "c"), {("b", 2): "c"})
        q = Presentation(2, ("b", "c"), {("b", 2): "c"})
        assert p == q
        assert hash(p) == hash(q)
        assert p != Presentation(2, ("b", "c"), {})

    def test_equality_and_hash_ignore_insertion_order(self):
        edges = {("b", 2): "c", ("c", 1): "b", ("b", 1): "b"}
        p = Presentation(2, ("b", "c"), edges)
        q = Presentation(2, ("b", "c"), dict(reversed(edges.items())))
        assert list(p.edges) != list(q.edges)
        assert p == q and hash(p) == hash(q)
        assert p != Presentation(2, ("c", "b"), edges)
        assert p != Presentation(3, ("b", "c"), edges)

    def test_dict_round_trip(self):
        doc = CHAIN.to_dict()
        assert doc == {"m": 2, "base": ["b", "c"],
                       "s_edges": [["b", 2, "c"]]}
        assert parse(json.dumps(doc)) == CHAIN
        # names that do not compare: edges by source in base order
        p = Presentation(2, ("b", 1, "a"), {(1, 1): "a", ("b", 2): 1,
                                            ("b", 1): "b"})
        assert validate(p).ok
        doc = p.to_dict()
        assert doc == {"m": 2, "base": ["b", 1, "a"],
                       "s_edges": [["b", 1, "b"], ["b", 2, 1], [1, 1, "a"]]}
        assert Presentation(doc["m"], doc["base"], {
            (src, label): dst for src, label, dst in doc["s_edges"]}) == p

    def test_duplicate_edge_row_rejected(self):
        with pytest.raises(ValidationError, match="declared twice"):
            parse(json.dumps({
                "m": 1, "base": ["b"],
                "s_edges": [["b", 1, "b"], ["b", 1, "b"]]}))

    def test_malformed_edge_row_rejected(self):
        with pytest.raises(ValidationError, match="node, label, node"):
            parse(json.dumps({
                "m": 1, "base": ["b"], "s_edges": [["b", 1]]}))

    def test_elem_repr(self):
        assert repr(Elem((), "b")) == "<b>"
        assert repr(Elem((1, 2), "c")) == "<s1 s2|c>"
        assert Elem((1, 2), "c").depth == 2

    def test_elem_value_semantics(self):
        x = Elem((2, 1), "c")
        y = Elem(prefix=(2, 1), node="c")
        assert x == y and x is not y
        assert hash(x) == hash(y) == hash(((2, 1), "c"))
        assert len({x, y, Elem((2,), "c"), Elem((2, 1), "b")}) == 3
        assert (x.prefix, x.node) == ((2, 1), "c")
        assert x.depth == 2
        assert Elem((), "b").depth == 0
        assert repr([(1, x), Elem((), "b")]) == "[(1, <s2 s1|c>), <b>]"

    def test_non_integer_label_rejected(self):
        with pytest.raises(ValidationError):
            Presentation(1, ("b",), {("b", "1"): "b"})
        with pytest.raises(ValidationError):
            Presentation("2", ("b",), {})
