"""Wold decomposition tests.

Besides the fixed examples, the unitary part computed by cycle
reachability is compared against the defining property it is supposed
to capture: a vector lies in the unitary part iff it stays in the
range of every k-fold product, i.e. iff its backward chain survives k
steps for every k up to a pigeonhole bound.
"""

import random

import pytest

from rowiso.errors import ValidationError
from rowiso.lebesgue import (UnitaryKind, classify_unitary,
                             sing_membership_test)
from rowiso.oracle import materialize, verify_subspace
from rowiso.pair import (PairElem, PairPresentation, enumerate_pair, mirror,
                         validate_pair)
from rowiso.presentation import (Elem, Presentation, apply, free_presentation,
                                 pred, validate)
from rowiso.presentation import enumerate as enumerate_basis
from rowiso.slocinski import _s_verdict, slocinski
from rowiso.wold import (Part, SubspaceDesc, _orbit_ends, is_row_unitary,
                         membership, wold)
from rowiso.words import Theta

from test_oracle import single_space
from test_presentation import random_presentation

FREE2 = free_presentation(2)
LOOP1 = Presentation(1, ("b",), {("b", 1): "b"})
LOOP2 = Presentation(2, ("b",), {("b", 1): "b"})
MIXED = Presentation(2, ("b", "c"), {("b", 1): "b"})
FOUR_CORNERS = PairPresentation(
    Theta.identity(1, 1), ("a", "b", "c", "d"),
    {("a", 1): "a", ("b", 1): "b"}, {("a", 1): "a", ("c", 1): "c"})


def backward_chain_survives(p, x, steps):
    cur = x
    for _ in range(steps):
        hit = pred(p, cur)
        if hit is None:
            return False
        cur = hit[1]
    return True


# -- wold ---------------------------------------------------------------------


class TestWold:
    def test_free_is_a_pure_shift(self):
        res = wold(FREE2)
        assert res.unitary_part.is_empty
        assert res.wandering == (Elem((), "b"),)
        assert res.multiplicity == 1
        for x in enumerate_basis(FREE2, 3):
            assert res.shift_part.contains(x)
            assert not res.unitary_part.contains(x)

    def test_cycle_is_purely_unitary(self):
        res = wold(LOOP1)
        assert res.shift_part.is_empty
        assert res.wandering == ()
        assert res.multiplicity == 0
        assert res.unitary_part.contains(Elem((), "b"))

    def test_mixed_presentation(self):
        res = wold(MIXED)
        assert res.unitary_part.seeds == (Elem((), "b"),)
        assert res.wandering == (Elem((), "c"),)
        assert res.multiplicity == 1
        assert res.unitary_part.contains(Elem((2,), "b"))
        assert res.shift_part.contains(Elem((2,), "c"))

    def test_empty_base(self):
        res = wold(Presentation(3, (), {}))
        assert res.unitary_part.is_empty
        assert res.shift_part.is_empty
        assert res.multiplicity == 0

    def test_invalid_presentation_refused(self):
        bad = Presentation(2, ("b", "c"), {("b", 1): "c", ("b", 2): "c"})
        with pytest.raises(ValidationError):
            wold(bad)


class TestPartitionProperties:
    def test_every_element_in_exactly_one_part(self):
        rng = random.Random(101)
        for _ in range(150):
            p = random_presentation(rng)
            if not wold_ok(p):
                continue
            res = wold(p)
            for x in enumerate_basis(p, 3):
                in_u = res.unitary_part.contains(x)
                in_s = res.shift_part.contains(x)
                assert in_u != in_s
                part = membership(p, x)
                assert in_u == (part is Part.UNITARY)

    def test_parts_are_reducing(self):
        rng = random.Random(103)
        for _ in range(150):
            p = random_presentation(rng)
            if not wold_ok(p):
                continue
            res = wold(p)
            for x in enumerate_basis(p, 3):
                mine = (res.unitary_part if res.unitary_part.contains(x)
                        else res.shift_part)
                for i in range(1, p.m + 1):
                    assert mine.contains(apply(p, i, x))
                hit = pred(p, x)
                if hit is None:
                    assert res.shift_part.contains(x)
                else:
                    assert mine.contains(hit[1])

    def test_unitary_part_matches_intersection_formula(self):
        # survive-k-steps for k past the pigeonhole bound == unitary
        rng = random.Random(107)
        for _ in range(150):
            p = random_presentation(rng)
            if not wold_ok(p):
                continue
            res = wold(p)
            bound = len(p.base) + 1
            for x in enumerate_basis(p, 2):
                survives = backward_chain_survives(p, x,
                                                   len(x.prefix) + bound)
                assert survives == res.unitary_part.contains(x)

    def test_multiplicity_survives_relabeling(self):
        rng = random.Random(109)
        for _ in range(80):
            p = random_presentation(rng)
            if not wold_ok(p):
                continue
            names = {b: f"n{k}" for k, b in enumerate(reversed(p.base))}
            q = Presentation(
                p.m, tuple(names[b] for b in p.base),
                {(names[s], i): names[d] for (s, i), d in p.edges.items()})
            assert wold(q).multiplicity == wold(p).multiplicity


def wold_ok(p):
    from rowiso.presentation import validate

    return validate(p).ok


# -- is_row_unitary -----------------------------------------------------------


class TestRowUnitary:
    def test_saturated_loop(self):
        assert is_row_unitary(LOOP1)

    def test_loop_with_free_labels_is_still_surjective(self):
        # every node has in-degree one even though label 2 spawns fresh
        # vectors; the fresh vectors have predecessors too
        assert is_row_unitary(LOOP2)

    def test_free_is_not(self):
        assert not is_row_unitary(FREE2)

    def test_empty_base_vacuously_unitary(self):
        assert is_row_unitary(Presentation(2, (), {}))

    def test_equivalent_to_no_wandering(self):
        rng = random.Random(113)
        for _ in range(150):
            p = random_presentation(rng)
            if not wold_ok(p):
                continue
            res = wold(p)
            assert is_row_unitary(p) == (res.multiplicity == 0)
            assert is_row_unitary(p) == res.shift_part.is_empty


# -- membership ---------------------------------------------------------------


class TestMembership:
    def test_cycle_always_unitary(self):
        two_cycle = Presentation(1, ("a", "b"),
                                 {("a", 1): "b", ("b", 1): "a"})
        for x in enumerate_basis(two_cycle, 4):
            assert membership(two_cycle, x) is Part.UNITARY

    def test_free_always_shift(self):
        for x in enumerate_basis(FREE2, 4):
            assert membership(FREE2, x) is Part.SHIFT

    def test_mixed(self):
        assert membership(MIXED, Elem((2,), "b")) is Part.UNITARY
        assert membership(MIXED, Elem((2,), "c")) is Part.SHIFT

    def test_unknown_node_rejected(self):
        with pytest.raises(ValidationError):
            membership(FREE2, Elem((), "z"))

    def test_non_canonical_element_rejected(self):
        # membership refuses what the Wold parts' contains refuses
        cases = (
            (FREE2, Elem((99,), "b"), "element prefix letter 99 outside 1..2"),
            (Presentation(1, ("a", "c"), {("c", 1): "a"}), Elem((1,), "c"),
             "element <s1|c> is not canonical: letter 1 absorbs at 'c'"),
        )
        for p, x, text in cases:
            for call in (lambda: membership(p, x),
                         lambda: wold(p).shift_part.contains(x)):
                with pytest.raises(ValidationError) as exc:
                    call()
                assert str(exc.value) == text

    def test_pair_element_rejected(self):
        # a joint basis vector is refused by the single-family guard,
        # not by a missing attribute
        x = PairElem((), (), "b")
        text = "expected an Elem, got PairElem <b>"
        for call in (lambda: apply(FREE2, 1, x), lambda: pred(FREE2, x),
                     lambda: membership(FREE2, x),
                     lambda: wold(FREE2).shift_part.contains(x)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == text

    def test_none_base_node_is_invalid_input(self):
        # None is the "no edge" sentinel of the edge lookups: accepted as
        # a node, <s2|None> fell in neither Wold part and the oracle saw
        # the edge into <None> as missing
        p = Presentation(2, ("a", None), {("a", 1): None})
        reserved = "base node None is reserved: it marks a missing edge"
        assert validate(p).violations == (reserved,)
        for call in (p.require_valid, lambda: wold(p),
                     lambda: membership(p, Elem((2,), None))):
            with pytest.raises(ValidationError, match=reserved):
                call()
        pp = PairPresentation(Theta.identity(1, 1), ("a", None), {}, {})
        assert validate_pair(pp).violations == (f"s-family: {reserved}",)


# -- orbit ends ---------------------------------------------------------------


def walk_end(step, c):
    """Where c's orbit under the dict ``step`` ends, walked on its own."""
    path = []
    while c not in path:
        path.append(c)
        if c not in step:
            return c  # dies here
        c = step[c]
    return c  # the first node the orbit comes back to


def random_partial_map(rng, size):
    """A random partial map on ``range(size)`` and a few nodes beyond.

    Targets are drawn freely, so it has self-loops, cycles with tails
    hanging off them, several tails merging, and chains that die.
    """
    targets = range(size + 3)
    return {c: rng.choice(targets) for c in range(size)
            if rng.random() < 0.8}


class TestOrbitEnds:
    def test_fixed_shapes(self):
        # 0 -> 1 -> 2 -> 1 is a tail on a two-cycle; 3 -> 4 dies at 4;
        # 5 is a self-loop
        step = {0: 1, 1: 2, 2: 1, 3: 4, 5: 5}
        ends = _orbit_ends(range(6), step.get)
        assert ends == {0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 5}

    def test_matches_a_walk_per_node(self):
        rng = random.Random(4111)
        for _ in range(400):
            size = rng.randint(0, 14)
            step = random_partial_map(rng, size)
            order = list(range(size))
            rng.shuffle(order)
            start = order[:rng.randint(0, size)]
            ends = _orbit_ends(start, step.get)
            for c in start:
                assert ends[c] == walk_end(step, c), (step, start, c)
            # every node a walk passed is decided too, and correctly
            for c, end in ends.items():
                assert end == walk_end(step, c), (step, start, c)

    def test_each_node_stepped_at_most_once(self):
        rng = random.Random(4112)
        for _ in range(400):
            size = rng.randint(0, 14)
            step = random_partial_map(rng, size)
            calls = dict.fromkeys(range(size + 3), 0)

            def counted(c):
                calls[c] += 1
                return step.get(c)

            order = list(range(size)) * 2  # asking twice walks nothing
            rng.shuffle(order)
            _orbit_ends(order, counted)
            assert max(calls.values()) <= 1, (step, calls)


# -- SubspaceDesc -------------------------------------------------------------


def node_set(p, roots):
    """The forward closure of the depth-zero ``roots``, as a node set."""
    return SubspaceDesc(tuple(Elem((), b) for b in roots),
                        frozenset(forward_nodes(p, roots)), p)


def forward_nodes(p, roots):
    """The nodes a forward search along the edges reaches from ``roots``.

    Applying a generator to ``<b>`` gives ``<d>`` along an edge and an
    element on ``b`` otherwise, so these are the nodes of the forward
    closure of the roots' depth-zero vectors.
    """
    reached, todo = set(roots), list(roots)
    while todo:
        b = todo.pop()
        for i in range(1, p.m + 1):
            d = p.edges.get((b, i))
            if d is not None and d not in reached:
                reached.add(d)
                todo.append(d)
    return reached


class TestSubspaceDesc:
    def test_explicit_finite(self):
        d = SubspaceDesc((Elem((), "b"),))
        assert d.contains(Elem((), "b"))
        assert not d.contains(Elem((1,), "b"))

    def test_full_space(self):
        # the full space is the node set over the whole base
        d = node_set(FREE2, FREE2.base)
        assert d.contains(Elem((1, 2), "b"))
        assert not d.is_empty

    def test_forward_closure_walks_backward(self):
        d = node_set(MIXED, ("c",))
        assert d.contains(Elem((2, 1), "c"))
        assert not d.contains(Elem((), "b"))

    def test_forward_closure_terminates_on_cycles(self):
        d = node_set(MIXED, ("c",))
        # backward chain from b loops forever at b; must return False
        assert not d.contains(Elem((2,), "b"))

    def test_empty_closure(self):
        d = node_set(MIXED, ())
        assert d.is_empty
        assert not d.contains(Elem((), "b"))

    def test_forward_closure_matches_forward_search(self):
        # apply never lowers depth, so a search capped at depth 4 finds
        # every member of depth at most 4
        rng = random.Random(2029)
        for _ in range(60):
            p = random_presentation(rng)
            roots = rng.sample(p.base, rng.randint(0, len(p.base)))
            reached = {Elem((), b) for b in roots}
            todo = list(reached)
            while todo:
                x = todo.pop()
                for i in range(1, p.m + 1):
                    y = apply(p, i, x)
                    if y.depth <= 4 and y not in reached:
                        reached.add(y)
                        todo.append(y)
            d = node_set(p, roots)
            for x in enumerate_basis(p, 4):
                assert d.contains(x) == (x in reached), (p, roots, x)

    def test_forward_closure_rejects_bad_elements(self):
        d = node_set(MIXED, ("c",))
        with pytest.raises(ValidationError, match="not canonical"):
            d.contains(Elem((1,), "b"))
        with pytest.raises(ValidationError, match="not a base node"):
            d.contains(Elem((), "z"))
        with pytest.raises(ValidationError, match="outside 1..2"):
            d.contains(Elem((3,), "c"))


class TestNodeSets:
    def test_single_family_parts_match_per_node_verdicts(self):
        for p in single_space():
            res = wold(p)
            for b in p.base:
                unitary = membership(p, Elem((), b)) is Part.UNITARY
                assert (b in res.unitary_part.nodes) == unitary, (p, b)
                assert (b in res.shift_part.nodes) != unitary, (p, b)
            cls = classify_unitary(p)
            dil = set()
            for comp in cls.components:
                roots = [node for node, _ in comp.cycle]
                assert comp.span.nodes == forward_nodes(p, roots), p
                if comp.kind is UnitaryKind.DILATION_TYPE:
                    dil.update(roots)
            assert cls.H_dil.nodes == forward_nodes(p, dil), p

    def test_corners_match_per_node_verdicts(self, pair_space):
        honest = [pp for pp, _, injective in pair_space if injective]
        for pp in honest[::23]:
            # the T-verdicts are the S-verdicts of the mirror pair
            sides = (pp, mirror(pp))
            for order in ("st", "ts"):
                res = slocinski(pp, order)
                corners = {"uu": res.H_uu, "us": res.H_us,
                           "su": res.H_su, "ss": res.H_ss}
                for b in pp.base:
                    key = "".join(
                        "u" if _s_verdict(side, b) is Part.UNITARY else "s"
                        for side in sides)
                    assert [k for k, d in corners.items()
                            if b in d.nodes] == [key], (pp, order, b)


# -- batch membership ---------------------------------------------------------


def outcome(call):
    """The value of ``call()``, or the type and text of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def assert_batch_matches(d, xs):
    want = outcome(lambda: [d.contains(x) for x in xs])
    assert outcome(lambda: d.contains_many(xs)) == want
    return want


def by_node(d, p, xs):
    """What ``d.base_membership(p)`` answers for ``xs``, read by node."""
    answers = d.base_membership(p)
    if answers is None:
        return None
    return [answers[p.base.index(x.node)] for x in xs]


class TestContainsMany:
    def test_matches_contains_on_random_presentations(self):
        rng = random.Random(2039)
        for _ in range(80):
            p = random_presentation(rng)
            xs = enumerate_basis(p, 4)
            pool = enumerate_basis(p, 2)
            roots = rng.sample(p.base, rng.randint(0, len(p.base)))
            spot = tuple(rng.sample(pool, min(len(pool), 3)))
            res = wold(p)
            descs = [
                node_set(p, roots),
                SubspaceDesc(spot),
                node_set(p, p.base),
                res.unitary_part,
                res.shift_part,
            ]
            twin = Presentation(p.m, p.base, dict(p.edges))
            for d in descs:
                want = assert_batch_matches(d, xs)
                assert isinstance(want, list)
                # a node set answers the presentation's own elements,
                # and an equal twin's, once per base node
                for q in (p, twin):
                    got = by_node(d, q, xs)
                    assert got == (None if d.nodes is None else want)
                assert d.contains_many([]) == []

    def test_pair_elements(self):
        # a pair description guards as contains does, and answers its
        # own pair's elements by node alone
        roots = (PairElem((), (), "a"), PairElem((), (), "c"))
        spot = (PairElem((), (), "b"), PairElem((1,), (), "d"))
        xs = enumerate_pair(FOUR_CORNERS, 3)
        full = tuple(PairElem((), (), b) for b in FOUR_CORNERS.base)
        for d in (SubspaceDesc(roots, frozenset("ac"), FOUR_CORNERS),
                  SubspaceDesc(spot),
                  SubspaceDesc(full, frozenset(FOUR_CORNERS.base),
                               FOUR_CORNERS)):
            want = assert_batch_matches(d, xs)
            got = by_node(d, FOUR_CORNERS, xs)
            assert got == (None if d.nodes is None else want)
            assert True in want

    def test_a_pair_read_by_node_is_not_validated(self):
        # the oracle models a pair without validating it
        bad = PairPresentation(Theta.identity(1, 1), ("a", "b", "c"),
                               {("a", 1): "c", ("b", 1): "c"}, {})
        assert not validate_pair(bad).ok
        d = SubspaceDesc((PairElem((), (), "a"),), frozenset("ac"), bad)
        assert d.base_membership(bad) == [True, False, True]
        assert outcome(lambda: d.contains(PairElem((), (), "a")))[0] \
            is ValidationError

    def test_invalid_presentation_raises_as_contains_does(self):
        bad = Presentation(1, ("a", "b", "c"), {("a", 1): "c", ("b", 1): "c"})
        d = node_set(bad, ("a",))
        xs = [Elem((), "a"), Elem((), "b"), Elem((1,), "a")]
        want = (ValidationError, "node 'c' has in-degree 2: ('a',1), ('b',1)")
        assert assert_batch_matches(d, xs) == want
        # a seed is no exception: the guard runs before the node test
        assert assert_batch_matches(d, xs[:1]) == want
        # read by node, the presentation is validated once
        assert outcome(lambda: d.base_membership(bad)) == want
        model = materialize(bad, 2)
        assert outcome(lambda: verify_subspace(model, d, ("S-reducing",))) \
            == want
        assert d.contains_many([]) == []

    def test_an_empty_basis_validates_nothing(self):
        # no base node, so no element to guard: the invalid presentation
        # is not refused
        bad = Presentation(1, (), {("a", 1): "b"})
        assert not validate(bad).ok
        d = SubspaceDesc((), frozenset(), bad)
        assert d.base_membership(bad) == []
        model = materialize(bad, 3)
        assert len(model.basis) == 0
        assert verify_subspace(model, d, ("S-reducing", "unitary-on")).ok

    def test_foreign_element_raises_as_contains_does(self):
        # <s1|c> is canonical in the edge-free family, not where letter
        # 1 absorbs at c
        p = Presentation(1, ("a", "c"), {("c", 1): "a"})
        q = Presentation(1, ("a", "c"), {})
        xs = enumerate_basis(q, 2)
        model = materialize(q, 2)
        for root in ("a", "c"):
            d = node_set(p, (root,))
            want = (ValidationError, "element <s1|c> is not canonical: "
                                     "letter 1 absorbs at 'c'")
            assert assert_batch_matches(d, xs) == want
            # over a foreign presentation every element is guarded
            assert d.base_membership(q) is None
            assert outcome(lambda: verify_subspace(
                model, d, ("S-reducing",))) == want


# -- the inline guard of contains -------------------------------------------


def reference_require_valid(p):
    """``Presentation.require_valid`` before ``contains`` inlined it."""
    report = validate(p)
    if not report.ok:
        raise ValidationError(report.violations[0])


def reference_require_canonical(p, x):
    """``presentation._require_canonical`` before ``contains`` inlined it.

    Letters are only range-checked here; a non-integer letter is refused
    since, and ``TestNonIntegerLetters`` pins that refusal.
    """
    if not isinstance(x, Elem):
        raise ValidationError(
            f"expected an Elem, got {type(x).__name__} {x!r}")
    if x.node not in p.node_index:
        raise ValidationError(f"element node {x.node!r} is not a base node")
    for letter in x.prefix:
        if not 1 <= letter <= p.m:
            raise ValidationError(
                f"element prefix letter {letter} outside 1..{p.m}")
    if x.prefix and (x.node, x.prefix[-1]) in p.edges:
        raise ValidationError(f"element {x!r} is not canonical: "
                              f"letter {x.prefix[-1]} absorbs at {x.node!r}")


def reference_guard(p, x):
    reference_require_valid(p)
    reference_require_canonical(p, x)


# (presentation data, elements the guards refuse on it)
REFUSED = [
    ((2, ("a", "b"), {("a", 1): "b"}),
     [((), "a"),                        # a plain tuple
      PairElem((), (), "a"),
      Elem((), "z"),                    # an unknown node
      Elem((0,), "a"),                  # letter 0
      Elem((3,), "b"),                  # letter m + 1
      Elem((3, 1), "b"),                # letter m + 1, not the last one
      Elem((1,), "a"),                  # the last letter absorbs
      Elem((2, 1), "a")]),
    # invalid presentations: every element is refused, a canonical one too
    ((1, ("a", "a"), {}), [Elem((), "a"), Elem((1,), "a"), ((), "a")]),
    ((1, ("a", "b", "c"), {("a", 1): "c", ("b", 1): "c"}),
     [Elem((), "a"), Elem((1,), "a"), Elem((), "z"), ((), "a")]),
]


class TestInlineGuardMatchesReference:
    def entry_points(self, p, x):
        d = SubspaceDesc((Elem((), p.base[0]),), frozenset(p.base[:1]), p)
        return {
            "contains": lambda: d.contains(x),
            "contains_many": lambda: d.contains_many([x]),
            "contains_many after a good element":
                lambda: d.contains_many([Elem((), p.base[0]), x]),
            "apply": lambda: apply(p, 1, x),
            "pred": lambda: pred(p, x),
        }

    def test_every_refusal_keeps_its_type_and_message(self):
        for data, elems in REFUSED:
            for x in elems:
                want = outcome(lambda: reference_guard(Presentation(*data), x))
                assert want[0] is ValidationError, (data, x)
                # on a fresh presentation, and on one whose report is
                # already cached
                for fresh in (True, False):
                    p = Presentation(*data)
                    if not fresh:
                        validate(p)
                    for name, call in self.entry_points(p, x).items():
                        assert outcome(call) == want, (data, x, name, fresh)

    def test_canonical_elements_are_answered_by_node(self):
        for p in single_space()[::7]:
            roots = p.base[::2]
            nodes = frozenset(roots)
            fresh = SubspaceDesc((), nodes, Presentation(p.m, p.base,
                                                         dict(p.edges)))
            d = SubspaceDesc((), nodes, p)
            for x in enumerate_basis(p, 3):
                reference_guard(p, x)
                assert d.contains(x) == fresh.contains(x) == (x.node in nodes)


class TestNonIntegerLetters:
    # a letter that is not an int, or is a bool, is refused as the pair
    # guard refuses it through words.validate_word; both elements were
    # accepted before, since 1 <= 1.5 <= 2 and True == 1
    P = Presentation(2, ("a", "b"), {("a", 1): "b"})
    CASES = [(Elem((1.5,), "a"), "letter 1.5 is not an integer"),
             (Elem((True,), "b"), "letter True is not an integer"),
             (Elem((2, True), "b"), "letter True is not an integer")]

    def entry_points(self, x):
        p = self.P
        d = SubspaceDesc((Elem((), "a"),), frozenset(p.base), p)
        return {
            "contains": lambda: d.contains(x),
            "contains_many": lambda: d.contains_many([x]),
            "apply": lambda: apply(p, 2, x),
            "pred": lambda: pred(p, x),
            "membership": lambda: membership(p, x),
            "sing_membership_test": lambda: sing_membership_test(p, x, 3),
        }

    def test_every_entry_point_refuses(self):
        for x, text in self.CASES:
            for name, call in self.entry_points(x).items():
                assert outcome(call) == (ValidationError, text), (x, name)


class TestMalformedElements:
    # a prefix that is not a tuple, or a node that cannot be hashed, is
    # refused at the guard; before, a list prefix passed it (pred
    # answered with a list prefix, apply failed in its kernel) and an
    # int prefix or a list node raised TypeError
    P = Presentation(2, ("a", "b"), {("a", 1): "b"})
    CASES = [(Elem([1, 2], "a"), "element prefix [1, 2] is not a tuple"),
             (Elem(5, "a"), "element prefix 5 is not a tuple"),
             (Elem(None, "b"), "element prefix None is not a tuple"),
             (Elem((), ["a"]), "element node ['a'] is not hashable"),
             (Elem((1,), {}), "element node {} is not hashable")]

    @staticmethod
    def entry_points(p, x):
        d = SubspaceDesc((Elem((), "a"),), frozenset(p.base), p)
        return {
            "contains": lambda: d.contains(x),
            "contains_many": lambda: d.contains_many([x]),
            "apply": lambda: apply(p, 2, x),
            "pred": lambda: pred(p, x),
            "membership": lambda: membership(p, x),
            "sing_membership_test": lambda: sing_membership_test(p, x, 3),
        }

    @pytest.mark.parametrize("name", sorted(entry_points(P, None)))
    def test_refused_at_every_entry_point(self, name):
        for fresh in (True, False):
            p = Presentation(self.P.m, self.P.base, dict(self.P.edges))
            if not fresh:
                enumerate_basis(p, 2)  # a clean report and a listing
            for x, text in self.CASES:
                call = self.entry_points(p, x)[name]
                assert outcome(call) == (ValidationError, text), (x, fresh)


# -- enumerate's own elements ------------------------------------------------


class LookupCount(dict):
    """A node index that counts the guards' membership tests on it."""

    hits = 0

    def __contains__(self, key):
        self.hits += 1
        return super().__contains__(key)


class TestCertifiedListing:
    # enumerate's own element objects are accepted without the guards;
    # any other object takes them, however equal it is to a listed one
    P = (2, ("a", "b"), {("a", 1): "b"})

    def entry_points(self, p, x):
        d = SubspaceDesc((Elem((), "b"),), frozenset(p.base), p)
        return {
            "contains": lambda: d.contains(x),
            "contains_many": lambda: d.contains_many([x]),
            "apply": lambda: apply(p, p.m, x),
            "pred": lambda: pred(p, x),
            "membership": lambda: membership(p, x),
        }

    def test_an_equal_element_is_refused_as_before(self):
        cases = [(Elem((True,), "b"), "letter True is not an integer"),
                 (Elem((1.0,), "b"), "letter 1.0 is not an integer"),
                 (Elem((2, True), "b"), "letter True is not an integer")]
        for x, text in cases:
            p = Presentation(*self.P)
            listed = enumerate_basis(p, 3)
            # equal to a listed element, and of the same hash
            assert x in set(listed)
            calls = self.entry_points(p, x)
            calls["sing_membership_test"] = \
                lambda: sing_membership_test(p, x, 3)
            for name, call in calls.items():
                assert outcome(call) == (ValidationError, text), (x, name)

    def test_listed_objects_skip_the_guards_after_a_regrowth(self):
        p = Presentation(*self.P)
        shallow = enumerate_basis(p, 2)
        deep = enumerate_basis(p, 5)  # regrows the listing
        assert len(deep) > len(shallow)
        p.node_index = lookups = LookupCount(p.node_index)
        for x in shallow + deep:
            for call in self.entry_points(p, x).values():
                call()
        assert lookups.hits == 0
        # a rebuilt element is another object: it takes the guards, and
        # gets the same answers
        for x in shallow:
            twin = Elem(tuple(list(x.prefix)), x.node)
            calls = self.entry_points(p, twin)
            for name, call in self.entry_points(p, x).items():
                before = lookups.hits
                assert calls[name]() == call()
                assert lookups.hits > before, (x, name)

    def test_a_listing_vouches_only_for_its_own_presentation(self):
        p1 = Presentation(1, ("a", "c"), {})
        p2 = Presentation(1, ("a", "c"), {("c", 1): "a"})
        x = enumerate_basis(p1, 2)[3]
        assert x == Elem((1,), "c")
        enumerate_basis(p2, 2)  # p2 keeps a listing of its own
        want = (ValidationError, "element <s1|c> is not canonical: "
                                 "letter 1 absorbs at 'c'")
        for name, call in self.entry_points(p2, x).items():
            assert outcome(call) == want, name
        # an equal presentation guards it, and accepts it
        twin = Presentation(1, ("a", "c"), {})
        enumerate_basis(twin, 2)
        twin.node_index = lookups = LookupCount(twin.node_index)
        for name, call in self.entry_points(twin, x).items():
            before = lookups.hits
            call()
            assert lookups.hits > before, name
        assert SubspaceDesc((), frozenset("c"), twin).contains(x)
