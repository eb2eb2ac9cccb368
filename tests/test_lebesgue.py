"""Tests for the finer classification of the unitary part.

The escape property and the shift structure of dilation-type
complements are checked by direct forward search rather than by
trusting the classifier's labels.
"""

import random
from itertools import product

import pytest

import rowiso.lebesgue
from rowiso.errors import ContractViolation, NotCommuting, ValidationError
from rowiso.lebesgue import (
    LebesgueResult,
    UnitaryKind,
    check_commutant_reduces_sing,
    classify_unitary,
    sing_membership_test,
)
from rowiso.presentation import Elem, Presentation, apply, free_presentation, pred
from rowiso.presentation import enumerate as enumerate_basis
from rowiso.wold import SubspaceDesc, wold

from test_presentation import random_presentation

TWO_CYCLE = Presentation(1, ("a", "b"), {("a", 1): "b", ("b", 1): "a"})
LOOP2 = Presentation(2, ("b",), {("b", 1): "b"})
FREE2 = free_presentation(2)


def valid(p):
    from rowiso.presentation import validate

    return validate(p).ok


# -- classify_unitary ---------------------------------------------------------


class TestClassify:
    def test_permutation_unitary_is_singular(self):
        res = classify_unitary(TWO_CYCLE)
        assert len(res.components) == 1
        comp = res.components[0]
        assert comp.kind is UnitaryKind.SINGULAR
        assert set(comp.V.seeds) == {Elem((), "a"), Elem((), "b")}
        assert set(res.H_sing.seeds) == set(comp.V.seeds)
        assert res.H_dil.is_empty
        assert res.H_abs.is_empty

    def test_branching_loop_is_dilation_type(self):
        res = classify_unitary(LOOP2)
        assert len(res.components) == 1
        comp = res.components[0]
        assert comp.kind is UnitaryKind.DILATION_TYPE
        assert comp.V.seeds == (Elem((), "b"),)
        assert res.H_sing.is_empty
        assert res.H_dil.contains(Elem((2,), "b"))

    def test_free_presentation_has_no_components(self):
        res = classify_unitary(FREE2)
        assert res.components == ()
        for part in (res.H_sing, res.H_dil, res.H_abs, res.PH):
            assert part.is_empty

    def test_dilation_complement_is_a_shift_of_multiplicity_one(self):
        # inside the loop-with-branches component, the orthocomplement
        # of V is spanned freely by the images of S2 e_b
        res = classify_unitary(LOOP2)
        comp = res.components[0]
        in_comp = [x for x in enumerate_basis(LOOP2, 4)
                   if comp.span.contains(x)]
        off_v = [x for x in in_comp if not comp.V.contains(x)]
        wandering = [x for x in off_v
                     if pred(LOOP2, x)[1] not in off_v]
        assert wandering == [Elem((2,), "b")]

    def test_kind_by_label_count(self):
        rng = random.Random(211)
        for _ in range(150):
            p = random_presentation(rng)
            if not valid(p):
                continue
            for comp in classify_unitary(p).components:
                expected = (UnitaryKind.SINGULAR if p.m == 1
                            else UnitaryKind.DILATION_TYPE)
                assert comp.kind is expected

    def test_components_partition_the_unitary_part(self):
        rng = random.Random(223)
        for _ in range(150):
            p = random_presentation(rng)
            if not valid(p):
                continue
            res = classify_unitary(p)
            unitary = wold(p).unitary_part
            for x in enumerate_basis(p, 3):
                owners = [c for c in res.components if c.span.contains(x)]
                assert len(owners) == (1 if unitary.contains(x) else 0)

    def test_cycles_are_vertex_disjoint(self):
        rng = random.Random(227)
        for _ in range(150):
            p = random_presentation(rng)
            if not valid(p):
                continue
            seen = set()
            for comp in classify_unitary(p).components:
                nodes = {node for node, _ in comp.cycle}
                assert not (nodes & seen)
                seen |= nodes

    def test_cycle_edges_really_form_a_cycle(self):
        rng = random.Random(229)
        for _ in range(100):
            p = random_presentation(rng)
            if not valid(p):
                continue
            for comp in classify_unitary(p).components:
                cyc = comp.cycle
                for k, (node, label) in enumerate(cyc):
                    target = cyc[(k + 1) % len(cyc)][0]
                    assert p.edges[(node, label)] == target


class TestStructureSupport:
    def test_ph_is_sing_plus_dilation_slices(self):
        res = classify_unitary(LOOP2)
        assert set(res.PH.seeds) == {Elem((), "b")}
        res = classify_unitary(TWO_CYCLE)
        assert set(res.PH.seeds) == {Elem((), "a"), Elem((), "b")}

    def test_ph_is_pred_invariant(self):
        rng = random.Random(233)
        for _ in range(150):
            p = random_presentation(rng)
            if not valid(p):
                continue
            ph = classify_unitary(p).PH
            for x in ph.seeds:
                hit = pred(p, x)
                assert hit is not None  # cycle nodes always have a pred
                assert ph.contains(hit[1])

    def test_dilation_escape_within_base_bound(self):
        # from every cycle node some product of length <= |base|+1
        # leaves the finite slice V
        rng = random.Random(239)
        for _ in range(150):
            p = random_presentation(rng)
            if not valid(p) or p.m < 2:
                continue
            for comp in classify_unitary(p).components:
                v = set(comp.V.seeds)
                layer = set(v)
                escaped = False
                for _ in range(len(p.base) + 1):
                    layer = {apply(p, i, x)
                             for x in layer for i in range(1, p.m + 1)}
                    if not layer <= v:
                        escaped = True
                        break
                assert escaped

    def test_forward_orbit_exits_v_at_most_once(self):
        # backward reading of the same fact: once a pred chain enters
        # the cycle it never leaves it
        rng = random.Random(241)
        for _ in range(100):
            p = random_presentation(rng)
            if not valid(p):
                continue
            for comp in classify_unitary(p).components:
                v = set(comp.V.seeds)
                for x in enumerate_basis(p, 3):
                    if not comp.span.contains(x) or x in v:
                        continue
                    cur, entered = x, False
                    for _ in range(len(x.prefix) + len(p.base) + 1):
                        hit = pred(p, cur)
                        assert hit is not None
                        cur = hit[1]
                        if entered:
                            assert cur in v
                        entered = entered or cur in v
                    assert entered


# -- sing_membership_test -------------------------------------------------------


class TestSingMembership:
    def test_cycle_members_stay(self):
        assert sing_membership_test(TWO_CYCLE, Elem((), "a"), 3)
        assert sing_membership_test(TWO_CYCLE, Elem((), "b"), 3)

    def test_depth_must_be_an_int(self):
        for depth in (2.0, "3", True, None):
            with pytest.raises(ValidationError, match="depth must be an int"):
                sing_membership_test(TWO_CYCLE, Elem((), "a"), depth)

    def test_dilation_slice_escapes(self):
        assert not sing_membership_test(LOOP2, Elem((), "b"), 2)

    def test_outside_ph_rejected(self):
        with pytest.raises(ValidationError):
            sing_membership_test(LOOP2, Elem((2,), "b"), 3)
        with pytest.raises(ValidationError):
            sing_membership_test(FREE2, Elem((), "b"), 3)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValidationError):
            sing_membership_test(TWO_CYCLE, Elem((), "a"), -1)

    def test_bounded_check_agrees_with_exact_everywhere(self):
        rng = random.Random(251)
        for _ in range(150):
            p = random_presentation(rng)
            if not valid(p):
                continue
            res = classify_unitary(p)
            for x in res.PH.seeds:
                # would raise ContractViolation on disagreement
                got = sing_membership_test(p, x, len(p.base) + 1)
                assert got == res.H_sing.contains(x)

    def test_zero_depth_never_cross_validates(self):
        # depth 0 performs no orbit steps; exact answer still returned
        assert sing_membership_test(LOOP2, Elem((), "b"), 0) is False

    def test_each_presentation_is_classified_once(self, monkeypatch):
        calls = []
        real = rowiso.lebesgue._classify
        monkeypatch.setattr(rowiso.lebesgue, "_classify",
                            lambda p: calls.append(p) or real(p))
        first = Presentation(1, ("a", "b", "c"),
                             {("a", 1): "b", ("b", 1): "a"})
        for _ in range(3):
            for x in (Elem((), "a"), Elem((), "b")):
                assert sing_membership_test(first, x, 4)
        assert classify_unitary(first) is classify_unitary(first)
        assert calls == [first]
        # an equal presentation is another object, with its own result
        twin = Presentation(1, ("a", "b", "c"),
                            {("a", 1): "b", ("b", 1): "a"})
        assert classify_unitary(twin) == classify_unitary(first)
        assert len(calls) == 2 and calls[1] is twin

    def test_a_kept_result_is_still_cross_checked(self):
        # the orbit check runs on every call: a kept classification that
        # calls the dilation slice singular is caught at depth |base|+1
        p = Presentation(2, ("b",), {("b", 1): "b"})
        res = classify_unitary(p)
        p._lebesgue = LebesgueResult(
            res.components, SubspaceDesc((Elem((), "b"),)), res.H_dil,
            res.H_abs, res.PH)
        with pytest.raises(ContractViolation):
            sing_membership_test(p, Elem((), "b"), 2)

    def test_guards_run_on_every_call(self):
        bad = Presentation(1, ("a", "b"), {("a", 1): "b", ("b", 1): "b"})
        for _ in range(2):
            with pytest.raises(ValidationError):
                classify_unitary(bad)
            with pytest.raises(ValidationError):
                sing_membership_test(TWO_CYCLE, Elem((1,), "a"), 3)


# -- check_commutant_reduces_sing -----------------------------------------------


class TestCommutantReduces:
    def test_identity_overlay(self):
        n = Presentation(1, ("a", "b"), {("a", 1): "a", ("b", 1): "b"})
        assert check_commutant_reduces_sing(TWO_CYCLE, n)

    def test_swap_overlay_on_two_fixed_points(self):
        s = Presentation(1, ("a", "b"), {("a", 1): "a", ("b", 1): "b"})
        n = Presentation(1, ("a", "b"), {("a", 1): "b", ("b", 1): "a"})
        assert check_commutant_reduces_sing(s, n)

    def test_cycle_plus_free_node_overlay(self):
        s = Presentation(1, ("a", "c"), {("a", 1): "a"})
        n = Presentation(1, ("a", "c"), {("a", 1): "a", ("c", 1): "c"})
        assert check_commutant_reduces_sing(s, n)

    def test_every_commuting_overlay_reduces(self):
        # exhaustive over all total injective overlays, i.e. all basis
        # permutations, on the cycle-plus-free-node base
        s = Presentation(1, ("a", "c"), {("a", 1): "a"})
        nodes = ("a", "c")
        commuting = 0
        for targets in product(nodes, repeat=2):
            if len(set(targets)) != len(targets):
                continue
            n = Presentation(1, nodes,
                             {(src, 1): t for src, t in zip(nodes, targets)})
            try:
                assert check_commutant_reduces_sing(s, n)
                commuting += 1
            except NotCommuting:
                continue
        assert commuting >= 1  # the identity overlay at least

    def test_partial_overlay_refused(self):
        # an overlay without an edge at some node maps the space into
        # a strictly larger one; it is not an operator here
        n = Presentation(1, ("a", "c"), {("a", 1): "a"})
        s = Presentation(1, ("a", "c"), {("a", 1): "a"})
        with pytest.raises(ValidationError):
            check_commutant_reduces_sing(s, n)

    def test_non_commuting_overlay_refused(self):
        s = Presentation(1, ("a", "b", "c"),
                         {("a", 1): "b", ("b", 1): "a", ("c", 1): "c"})
        n = Presentation(1, ("a", "b", "c"),
                         {("a", 1): "c", ("b", 1): "b", ("c", 1): "a"})
        with pytest.raises(NotCommuting):
            check_commutant_reduces_sing(s, n)

    def test_overlay_shape_validated(self):
        with pytest.raises(ValidationError):
            check_commutant_reduces_sing(TWO_CYCLE, free_presentation(2, ("a", "b")))
        with pytest.raises(ValidationError):
            check_commutant_reduces_sing(TWO_CYCLE, free_presentation(1, ("x",)))
