"""Tests for the joint four-fold decomposition machinery.

The FOUR_CORNERS fixture is built so that each of the four verdict
combinations is realized on its own base node: a carries both loops
(unitary for both families), b only the S-loop, c only the T-loop, d
nothing.
"""

import pytest

from rowiso.errors import ContractViolation, ResourceExceeded, ValidationError
from rowiso.pair import (
    PairElem,
    PairPresentation,
    enumerate_pair,
    free_pair,
    s_apply,
    t_apply,
)
from rowiso.slocinski import (
    Multiplicity,
    check_hypotheses,
    dead_nodes,
    joint_wandering,
    s_in_V,
    s_membership,
    s_shift_multiplicity,
    slocinski,
    t_in_V,
    t_membership,
    t_shift_multiplicity,
    verify_theorem_implications,
)
from rowiso.wold import Part
from rowiso.words import Theta

from test_pair import honest_pairs

ID11 = Theta.identity(1, 1)
ID22 = Theta.identity(2, 2)

FREE11 = free_pair(ID11)
FREE22 = free_pair(ID22)
TWIN_LOOPS = PairPresentation(ID11, ("b",), {("b", 1): "b"}, {("b", 1): "b"})
BILATERAL = PairPresentation(ID11, ("b", "c"), {("b", 1): "c"},
                             {("c", 1): "b"})
FOUR_CORNERS = PairPresentation(
    ID11, ("a", "b", "c", "d"),
    {("a", 1): "a", ("b", 1): "b"},
    {("a", 1): "a", ("c", 1): "c"})


def fresh(pp):
    # per-presentation caches memoize verdicts; tests that probe
    # budgets need an uncached twin
    return PairPresentation(pp.theta, pp.base, dict(pp.s_edges),
                            dict(pp.t_edges))


# -- chain verdicts -------------------------------------------------------------


class TestMembership:
    def test_free_pair_is_all_shift(self):
        for x in enumerate_pair(FREE22, 3):
            assert s_membership(FREE22, x) is Part.SHIFT
            assert t_membership(FREE22, x) is Part.SHIFT

    def test_twin_loops_are_all_unitary(self):
        x = PairElem((), (), "b")
        assert s_membership(TWIN_LOOPS, x) is Part.UNITARY
        assert t_membership(TWIN_LOOPS, x) is Part.UNITARY

    def test_bilateral_orbit_is_unitary_without_any_cycle(self):
        # backward chains move along the infinite chain forever
        for x in enumerate_pair(BILATERAL, 4):
            assert s_membership(BILATERAL, x) is Part.UNITARY
            assert t_membership(BILATERAL, x) is Part.UNITARY

    def test_four_corner_nodes(self):
        verdicts = {
            "a": (Part.UNITARY, Part.UNITARY),
            "b": (Part.UNITARY, Part.SHIFT),
            "c": (Part.SHIFT, Part.UNITARY),
            "d": (Part.SHIFT, Part.SHIFT),
        }
        for node, (sv, tv) in verdicts.items():
            x = PairElem((), (), node)
            assert s_membership(FOUR_CORNERS, x) is sv
            assert t_membership(FOUR_CORNERS, x) is tv

    def test_verdict_is_node_determined(self):
        for pp in (FOUR_CORNERS, BILATERAL, TWIN_LOOPS):
            for x in enumerate_pair(pp, 3):
                base_vec = PairElem((), (), x.node)
                assert s_membership(pp, x) is s_membership(pp, base_vec)
                assert t_membership(pp, x) is t_membership(pp, base_vec)

    def test_verdict_respects_application(self):
        # both parts are invariant under both families pointwise
        for pp in honest_pairs(401, 12):
            for x in enumerate_pair(pp, 2):
                sv = s_membership(pp, x)
                for i in range(1, pp.m + 1):
                    assert s_membership(pp, s_apply(pp, i, x)) is sv
                for j in range(1, pp.n + 1):
                    assert s_membership(pp, t_apply(pp, j, x)) is sv

    def test_collision_pair_raises(self):
        pp = PairPresentation(ID11, ("a", "c"), {("c", 1): "a"},
                              {("a", 1): "a"})
        with pytest.raises(ContractViolation):
            s_membership(pp, PairElem((), (), "a"))

    def test_non_canonical_element_rejected(self):
        # the guard runs at entry, even where the node alone would
        # decide the verdict
        with pytest.raises(ValidationError):
            s_membership(fresh(TWIN_LOOPS), PairElem((1,), (), "b"))

    def test_budget_exhaustion_raises(self):
        # two T-labels, no pumping rule; a budget of zero steps cannot
        # resolve a node that is neither dead nor eternal
        pp = PairPresentation(Theta.identity(1, 2), ("a", "b"),
                              {("b", 1): "a"}, {})
        with pytest.raises(ResourceExceeded):
            s_membership(pp, PairElem((), (), "a"), budget=0)
        # and the same question resolves exactly with a real budget
        assert s_membership(fresh(pp), PairElem((), (), "a")) is Part.SHIFT


class TestDeadNodes:
    def test_free_pair(self):
        assert dead_nodes(FREE11) == frozenset({"b"})

    def test_bilateral_has_none(self):
        assert dead_nodes(BILATERAL) == frozenset()

    def test_four_corners(self):
        assert dead_nodes(FOUR_CORNERS) == frozenset({"c", "d"})
        assert dead_nodes(FOUR_CORNERS.__class__(
            FOUR_CORNERS.theta, FOUR_CORNERS.base,
            FOUR_CORNERS.t_edges, FOUR_CORNERS.s_edges)) == \
            frozenset({"b", "d"})


# -- V membership ---------------------------------------------------------------


class TestVMembership:
    def test_loops_lie_on_finite_cycles(self):
        assert s_in_V(TWIN_LOOPS, PairElem((), (), "b"))
        assert t_in_V(TWIN_LOOPS, PairElem((), (), "b"))

    def test_bilateral_orbit_is_not_v(self):
        # unitary, but the orbit is infinite: no finite cycle
        for x in enumerate_pair(BILATERAL, 3):
            assert not s_in_V(BILATERAL, x)
            assert not t_in_V(BILATERAL, x)

    def test_four_corners_v(self):
        assert s_in_V(FOUR_CORNERS, PairElem((), (), "a"))
        assert s_in_V(FOUR_CORNERS, PairElem((1,), (), "b"))
        assert not s_in_V(FOUR_CORNERS, PairElem((), (), "c"))
        assert not t_in_V(FOUR_CORNERS, PairElem((), (), "b"))

    def test_s_shifted_elements_never_in_v(self):
        assert not s_in_V(FOUR_CORNERS, PairElem((), (1,), "c"))

    def test_non_canonical_element_rejected(self):
        with pytest.raises(ValidationError):
            s_in_V(fresh(TWIN_LOOPS), PairElem((), (1,), "b"))

    def test_v_implies_unitary(self):
        for pp in honest_pairs(409, 12):
            for x in enumerate_pair(pp, 2):
                if s_in_V(pp, x):
                    assert s_membership(pp, x) is Part.UNITARY


# -- multiplicities and wandering -------------------------------------------------


class TestMultiplicity:
    def test_free_pair_is_infinite(self):
        got = s_shift_multiplicity(FREE11)
        assert not got.is_finite
        assert got.generators == (("b", (1,)),)
        assert repr(got) == "Multiplicity(infinite)"

    def test_no_dead_nodes_means_zero(self):
        assert s_shift_multiplicity(TWIN_LOOPS) == Multiplicity(0, ())
        assert s_shift_multiplicity(BILATERAL).count == 0

    def test_full_t_edges_on_dead_node_is_finite(self):
        # S never acts, T absorbs everything: S is a unilateral shift
        # of multiplicity one on the joint basis
        pp = PairPresentation(ID11, ("b",), {}, {("b", 1): "b"})
        got = s_shift_multiplicity(pp)
        assert got == Multiplicity(1, (("b", ()),))
        assert repr(got) == "Multiplicity(1)"

    def test_mirror_symmetry(self):
        assert t_shift_multiplicity(FOUR_CORNERS).count is None
        pp = PairPresentation(ID11, ("b",), {("b", 1): "b"}, {})
        assert t_shift_multiplicity(pp) == Multiplicity(1, (("b", ()),))


class TestJointWandering:
    def test_free_pair(self):
        assert joint_wandering(FREE22) == (PairElem((), (), "b"),)

    def test_four_corners(self):
        assert joint_wandering(FOUR_CORNERS) == (PairElem((), (), "d"),)

    def test_no_dead_nodes(self):
        assert joint_wandering(BILATERAL) == ()


# -- the decomposition ------------------------------------------------------------


class TestSlocinski:
    def test_four_corner_fixture(self):
        res = slocinski(FOUR_CORNERS)
        assert res.exists
        assert res.failure_witness is None
        assert res.H_uu.seeds == (PairElem((), (), "a"),)
        assert res.H_us.seeds == (PairElem((), (), "b"),)
        assert res.H_su.seeds == (PairElem((), (), "c"),)
        assert res.H_ss.seeds == (PairElem((), (), "d"),)

    def test_corners_partition_the_basis(self):
        for pp in (FOUR_CORNERS, BILATERAL, TWIN_LOOPS, FREE22):
            res = slocinski(pp)
            assert res.exists
            corners = (res.H_uu, res.H_us, res.H_su, res.H_ss)
            for x in enumerate_pair(pp, 3):
                assert sum(c.contains(x) for c in corners) == 1

    def test_free_pair_is_pure_double_shift(self):
        res = slocinski(FREE22)
        assert res.exists
        assert res.H_ss.seeds == (PairElem((), (), "b"),)
        for corner in (res.H_uu, res.H_us, res.H_su):
            assert corner.is_empty

    def test_bilateral_is_pure_double_unitary(self):
        res = slocinski(BILATERAL)
        assert res.exists
        assert set(res.H_uu.seeds) == {PairElem((), (), "b"),
                                       PairElem((), (), "c")}
        for corner in (res.H_us, res.H_su, res.H_ss):
            assert corner.is_empty

    def test_ts_order_agrees_on_these_fixtures(self):
        for pp in (FOUR_CORNERS, BILATERAL, FREE22, TWIN_LOOPS):
            st = slocinski(pp, order="st")
            ts = slocinski(pp, order="ts")
            assert st.exists == ts.exists
            assert st.H_uu.seeds == ts.H_uu.seeds
            assert st.H_ss.seeds == ts.H_ss.seeds

    def test_order_validated(self):
        with pytest.raises(ValidationError):
            slocinski(FREE11, order="both")

    def test_non_commuting_pair_refused(self):
        pp = PairPresentation(ID11, ("a", "b"), {("a", 1): "b"},
                              {("a", 1): "a"})
        with pytest.raises(ContractViolation):
            slocinski(pp)

    def test_random_honest_pairs_decompose(self):
        for pp in honest_pairs(419, 15):
            res = slocinski(pp)
            assert res.exists, res.failure_witness
            corners = (res.H_uu, res.H_us, res.H_su, res.H_ss)
            for x in enumerate_pair(pp, 2):
                assert sum(c.contains(x) for c in corners) == 1


# -- hypotheses and implications ---------------------------------------------------


class TestHypotheses:
    def test_free_pair(self):
        hyp = check_hypotheses(FREE22)
        assert hyp.doubly_commuting
        assert hyp.s_unitary_singular  # certified empty unitary part
        assert hyp.t_unitary_singular
        assert not hyp.s_shift_finite_multiplicity
        assert hyp.n_at_least_2_or_theta_identity

    def test_twin_loops(self):
        hyp = check_hypotheses(TWIN_LOOPS)
        assert hyp.doubly_commuting
        assert hyp.s_unitary_singular  # a one-element cycle
        assert hyp.t_unitary_singular
        assert hyp.s_shift_finite_multiplicity
        assert hyp.n_at_least_2_or_theta_identity

    def test_bilateral_unitary_part_is_not_singular(self):
        # the orbit is a two-sided shift: absolutely continuous, and
        # the drift analysis certifies it
        hyp = check_hypotheses(BILATERAL)
        assert hyp.doubly_commuting
        assert not hyp.s_unitary_singular
        assert not hyp.t_unitary_singular
        assert hyp.s_shift_finite_multiplicity  # multiplicity zero

    def test_flags_only_certify(self):
        # m >= 2 with a nonempty certified unitary part: the flag must
        # come back False (dilation-type, genuinely not singular)
        pp = PairPresentation(Theta.identity(2, 1), ("b",),
                              {("b", 1): "b"}, {("b", 1): "b"})
        hyp = check_hypotheses(pp)
        assert not hyp.s_unitary_singular


class TestImplications:
    def test_all_fixtures_pass(self):
        for pp in (FOUR_CORNERS, BILATERAL, TWIN_LOOPS, FREE11, FREE22):
            report = verify_theorem_implications(pp)
            assert report.ok, report

    def test_random_honest_pairs_pass(self):
        for pp in honest_pairs(421, 15):
            assert verify_theorem_implications(pp).ok

    def test_row_names_cover_the_statements(self):
        names = {row.name for row in
                 verify_theorem_implications(FOUR_CORNERS).rows}
        assert "doubly-commuting-implies-decomposition" in names
        assert "S-unitary-part-always-T-invariant" in names

    def test_empty_base_forces_zero_space_row(self):
        pp = free_pair(Theta.identity(1, 2), base=())
        report = verify_theorem_implications(pp)
        assert report.ok
        row = {r.name: r for r in report.rows}[
            "finite-S-shift-against-T-row-unitary-forces-zero-space"]
        assert row.hypotheses_hold
        assert row.conclusion_holds
