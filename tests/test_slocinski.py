"""Tests for the joint four-fold decomposition machinery.

The FOUR_CORNERS fixture is built so that each of the four verdict
combinations is realized on its own base node: a carries both loops
(unitary for both families), b only the S-loop, c only the T-loop, d
nothing.
"""

import ast
import importlib
import random
from collections import Counter
from pathlib import Path

import pytest

from rowiso.errors import ContractViolation, ResourceExceeded, ValidationError
from rowiso.pair import (
    PAIR_WINDOW_BUDGET,
    PairElem,
    PairPresentation,
    _free_word_bound,
    _s_apply_raw,
    _s_pred_raw,
    _t_apply_raw,
    _t_pred_raw,
    check_doubly_commute,
    check_joint_isometry,
    check_theta_commute,
    enumerate_pair,
    free_pair,
    mirror,
    mirror_elem,
    s_apply,
    s_pred,
    t_apply,
    t_pred,
    validate_pair,
)
from rowiso.presentation import Elem
from rowiso.slocinski import (
    FailureWitness,
    Multiplicity,
    SlocinskiResult,
    _corner_descs,
    _node_data,
    _s_verdict,
    _walk_nodes,
    check_hypotheses,
    dead_nodes,
    s_in_V,
    s_membership,
    s_shift_multiplicity,
    slocinski,
    t_in_V,
    t_membership,
    t_shift_multiplicity,
    verify_theorem_implications,
)
from rowiso.wold import Part, SubspaceDesc
from rowiso.words import Theta

from test_oracle import runtime_imports
from test_pair import commuting_pairs, honest_pairs

# the package re-exports the slocinski function under the module's name
pair_module = importlib.import_module("rowiso.pair")
slocinski_module = importlib.import_module("rowiso.slocinski")

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
    # per-presentation caches memoize verdicts and reports; tests that
    # probe the guards need an uncached twin
    return PairPresentation(pp.theta, pp.base, dict(pp.s_edges),
                            dict(pp.t_edges))


def chain_outcome(pp, x, pred, cap):
    """"ends" or "revisits" for x's backward chain, None past the cap."""
    seen = set()
    cur = x
    for _ in range(cap):
        if cur in seen:
            return "revisits"
        seen.add(cur)
        step = pred(pp, cur)
        if step is None:
            return "ends"
        cur = step[1]
    return None


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

    def test_single_family_element_rejected(self):
        # an Elem is refused by the pair guard, not by a missing
        # attribute
        x = Elem((), "b")
        text = "expected a PairElem, got Elem <b>"
        for call in (lambda: s_apply(FREE11, 1, x), lambda: t_pred(FREE11, x),
                     lambda: s_membership(FREE11, x),
                     lambda: s_in_V(FREE11, x), lambda: t_in_V(FREE11, x)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == text

    def test_non_commuting_pair_refused_in_its_own_families(self):
        # both verdicts guard with the pair's own commutation check, so
        # the T-verdict names the failure with S and T in their places
        pp = PairPresentation(ID11, ("a", "b"), {("a", 1): "b"},
                              {("a", 1): "a"})
        text = ("pair does not theta-commute: at <a> with (i=1, j=1), "
                "S-then-T gives <t1|b> but T-then-S gives <b>")
        for decide in (s_membership, t_membership):
            with pytest.raises(ContractViolation) as exc:
                decide(fresh(pp), PairElem((), (), "a"))
            assert str(exc.value) == text

    def test_node_orbit_decides_without_a_budget(self):
        # two T-labels, no pumping rule: the orbit of a node under f
        # ends within |base| + 1 steps, so the verdict is exact
        pp = PairPresentation(Theta.identity(1, 2), ("a", "b"),
                              {("b", 1): "a"}, {})
        assert s_membership(pp, PairElem((), (), "a")) is Part.SHIFT

    def test_element_chains_agree_with_the_node_map(self, pair_space):
        # an independent reading of the verdicts: walk each element's
        # backward chain state by state with the public predecessors;
        # a chain that ends reads shift for its family, one that
        # revisits a state reads unitary, and one that does neither
        # within the cap (an ever-growing chain) is not judged here
        honest = [pp for pp, _, injective in pair_space if injective]
        pairs = honest_pairs(433, 100) + honest[::23]
        ended = revisited = 0
        for pp in pairs:
            for x in enumerate_pair(pp, len(pp.base) + 2):
                for pred, verdict in ((s_pred, s_membership),
                                      (t_pred, t_membership)):
                    outcome = chain_outcome(pp, x, pred, cap=24)
                    if outcome == "ends":
                        assert verdict(pp, x) is Part.SHIFT, (pp, x)
                        ended += 1
                    elif outcome == "revisits":
                        assert verdict(pp, x) is Part.UNITARY, (pp, x)
                        revisited += 1
        assert ended and revisited

    def test_verdicts_do_not_depend_on_memo_order(self):
        # the verdicts, the predecessor tables and the cycle test are
        # memoised on the pair, so what earlier questions left in the
        # memo must not change an answer or an error
        def verdicts(pp, x):
            out = []
            for decide in (s_membership, t_membership, s_in_V):
                try:
                    out.append(decide(pp, x))
                except (ResourceExceeded, ContractViolation) as exc:
                    out.append((type(exc), str(exc)))
            return out

        raised = 0
        for pp in commuting_pairs(419, 100):
            elems = enumerate_pair(pp, len(pp.base) + 2)
            forward, backward = fresh(pp), fresh(pp)
            in_order = {x: verdicts(forward, x) for x in elems}
            reverse = {x: verdicts(backward, x) for x in reversed(elems)}
            for x in elems:
                alone = verdicts(fresh(pp), x)
                assert in_order[x] == alone, (pp, x)
                assert reverse[x] == alone, (pp, x)
                raised += any(isinstance(v, tuple) for v in alone)
        assert raised  # some sampled pairs are not jointly injective

    def test_verdicts_read_the_joint_walks_table(self, monkeypatch):
        # check_joint_isometry leaves each family's base-vector
        # predecessors on the pair, and the node verdicts read them
        # without another predecessor walk
        real = pair_module._s_pred_raw
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pair_module, "_s_pred_raw", counting)
        monkeypatch.setattr(slocinski_module, "_s_pred_raw", counting)
        pairs = [FOUR_CORNERS, BILATERAL, TWIN_LOOPS]
        pairs += honest_pairs(431, 30, max_nodes=5)
        for pp in map(fresh, pairs):
            assert check_joint_isometry(pp).ok
            assert calls  # the joint walks went through the counter
            calls.clear()
            for b in pp.base:
                s_membership(pp, PairElem((), (), b))
                t_membership(pp, PairElem((), (), b))
            assert not calls, pp


# commuting pairs whose S-family is not injective: <a> is both S_1 <c>
# and S_1 <t1|c>, and in the second pair both S_1 <b> and S_1 <t1|b>.
# The second is one of the acceptance candidates where a verdict that
# skips the joint check can still answer "exists", in both orders.
COLLISION = PairPresentation(ID11, ("a", "c"), {("c", 1): "a"},
                             {("a", 1): "a"})
QUIET_COLLISION = PairPresentation(
    Theta.identity(2, 1), ("a", "b"), {("b", 1): "a", ("b", 2): "b"},
    {("a", 1): "a"})


class TestJointIsometryGuard:
    @pytest.mark.parametrize("pp, text", [
        (COLLISION, "<a> has 2 distinct S-predecessors [(1, <c>), "
                    "(1, <t1|c>)]: the S-family is not injective on the "
                    "basis"),
        (QUIET_COLLISION, "<a> has 2 distinct S-predecessors [(1, <b>), "
                          "(1, <t1|b>)]: the S-family is not injective on "
                          "the basis"),
    ], ids=("collision", "quiet-collision"))
    def test_every_verdict_refuses_with_the_joint_report(self, pp, text):
        assert check_theta_commute(pp).ok
        assert check_joint_isometry(fresh(pp)).violations == (text,)
        questions = [(slocinski, "st"), (slocinski, "ts")]
        questions += [(decide, PairElem((), (), b)) for b in pp.base
                      for decide in (s_membership, t_membership, s_in_V,
                                     t_in_V)]
        warm = fresh(pp)
        for decide, arg in questions:
            # on a cache miss, and on a pair whose report is cached
            for q in (fresh(pp), warm):
                with pytest.raises(ContractViolation) as exc:
                    decide(q, arg)
                assert str(exc.value) == text


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


def random_node_pair(rng):
    """A random pair on up to six nodes, valid or not.

    Edge targets are drawn freely, so a node may have two S- or two
    T-in-edges, and some edges lead to the undeclared node "zz".
    """
    nodes = tuple("abcdef"[:rng.randint(1, 6)])
    m, n = rng.randint(1, 2), rng.randint(1, 2)
    targets = nodes + ("zz",)

    def edges(labels):
        density = rng.random()
        return {(b, i): rng.choice(targets) for b in nodes
                for i in range(1, labels + 1) if rng.random() < density}

    return PairPresentation(Theta.identity(m, n), nodes, edges(m), edges(n))


def reach(succ, start, within=None):
    """Nodes reachable from ``start`` in the SUCC digraph, start included,
    stepping only onto nodes of ``within`` when it is given."""
    seen, todo = {start}, [start]
    while todo:
        for c in succ.get(todo.pop(), ()):
            if c not in seen and (within is None or c in within):
                seen.add(c)
                todo.append(c)
    return seen


def node_data_reference(pp):
    """DEAD and SUCC with a forward t-closure search for every node of
    every backward walk, as ``_node_data`` once built them."""
    walks = {b: _walk_nodes(pp, b) for b in pp.base}
    dead = frozenset(b for b, seq in walks.items()
                     if all(c not in pp.s_in for c in seq))
    succ = {}
    for b, seq in walks.items():
        targets = set()
        for c in seq:
            hit = pp.s_in.get(c)
            if hit is None:
                continue
            frontier = [hit[0]]
            found = {hit[0]}
            while frontier:
                cur = frontier.pop()
                for j in range(1, pp.n + 1):
                    nxt = pp.t_edges.get((cur, j))
                    if nxt is not None and nxt not in found:
                        found.add(nxt)
                        frontier.append(nxt)
            targets |= found
        succ[b] = frozenset(targets)
    return dead, succ


def found_chain(size):
    """S self-loops on every node and one T-chain through them: a
    commuting pair on which one search per walk node is cubic."""
    nodes = tuple(f"n{k}" for k in range(size))
    return PairPresentation(ID11, nodes, {(b, 1): b for b in nodes},
                            dict(zip(((b, 1) for b in nodes), nodes[1:])))


def chain_node_pair(rng):
    """A pair whose T-family is mostly one long chain, sometimes closed
    into a cycle, with random S-edges, valid or not."""
    nodes = tuple(f"c{k}" for k in range(rng.randint(10, 40)))
    order = list(nodes)
    rng.shuffle(order)
    t_edges = {(a, 1): b for a, b in zip(order, order[1:])}
    if rng.random() < 0.3:
        t_edges[(order[-1], 1)] = rng.choice(order)
    for _ in range(rng.randint(0, 4)):
        t_edges[(rng.choice(nodes), 2)] = rng.choice(nodes)
    density = rng.random()
    s_edges = {(b, 1): rng.choice(nodes) for b in nodes
               if rng.random() < density}
    return PairPresentation(Theta.identity(1, 2), nodes, s_edges, t_edges)


class TestNodeData:
    def test_acyclic_matches_reachability(self):
        rng = random.Random(5003)
        outcomes, violations = set(), set()
        for _ in range(600):
            pp = random_node_pair(rng)
            violations.update(validate_pair(pp).violations)
            data = _node_data(pp)
            succ, dead = data["succ"], data["dead"]
            live = set(pp.base) - dead
            cyclic = any(b in reach(succ, c, live)
                         for b in live for c in succ[b] & live)
            assert data["live_succ_acyclic"] is not cyclic, pp
            outcomes.add((bool(dead), cyclic))
        # with no dead node the live SUCC digraph has a cycle unless a
        # search leaves the base, so the sample meets the other three
        assert outcomes >= {(False, True), (True, False), (True, True)}
        # invalid pairs of both kinds were among them
        for kind in ("has in-degree 2", "target 'zz' is not a base node"):
            assert any(kind in v for v in violations), kind

    def test_shared_closures_match_a_search_per_walk_node(self):
        rng = random.Random(5011)
        pairs = [found_chain(60)]
        pairs += [chain_node_pair(rng) for _ in range(100)]
        pairs += [random_node_pair(rng) for _ in range(300)]
        for pp in pairs:
            data = _node_data(pp)
            dead, succ = node_data_reference(pp)
            assert data["dead"] == dead, pp
            assert data["succ"] == succ, pp
            live = set(pp.base) - dead
            cyclic = any(b in reach(succ, c, live)
                         for b in live for c in succ[b] & live)
            assert data["live_succ_acyclic"] is not cyclic, pp


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


def joint_wandering(pp: PairPresentation) -> tuple:
    """Base vectors wandering for both families at once.

    The doubly-shift corner of the decomposition is the free orbit of
    exactly these vectors.
    """
    pp.require_commuting()
    dead_s = dead_nodes(pp)
    dead_t = dead_nodes(mirror(pp))
    return tuple(PairElem((), (), b) for b in pp.base
                 if b in dead_s and b in dead_t)


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

    def test_pair_corners_check_the_elements_they_answer(self):
        # a pair node set guards its elements as a single-family one
        # does: a valid pair, a pair element, labels in range, a
        # canonical name
        corner = slocinski(FOUR_CORNERS).H_uu
        assert corner.contains(PairElem((), (), "a"))
        for x, text in (
                (PairElem((7,), (9,), "a"), "letter 9 outside alphabet 1..1"),
                (Elem((), "a"), "expected a PairElem, got Elem <a>"),
                (PairElem((), (1,), "a"),
                 "element <s1|a> is not canonical: S-letter absorbs")):
            for call in (lambda: corner.contains(x),
                         lambda: corner.contains_many([x])):
                with pytest.raises(ValidationError) as exc:
                    call()
                assert str(exc.value) == text
        # the oracle reads its own pair's corners by base node
        assert corner.base_membership(FOUR_CORNERS) == [True, False, False,
                                                         False]
        invalid = PairPresentation(ID11, ("a",), {("a", 1): "zz"}, {})
        desc = SubspaceDesc((PairElem((), (), "a"),), frozenset({"a"}),
                            invalid)
        with pytest.raises(ValidationError, match="'zz' is not a base"):
            desc.contains(PairElem((), (), "a"))

    def test_random_honest_pairs_decompose(self):
        for pp in honest_pairs(419, 15):
            res = slocinski(pp)
            assert res.exists, res.failure_witness
            corners = (res.H_uu, res.H_us, res.H_su, res.H_ss)
            for x in enumerate_pair(pp, 2):
                assert sum(c.contains(x) for c in corners) == 1


# -- the element sweep the base vectors replaced ----------------------------------


# slocinski as it decided before: both conditions over every canonical
# element up to a depth window, with the mirror's guard run where the
# first T-verdict or T-predecessor needs it


def sweep_condition_one(pp, elems):
    twin_checked = False
    for x in elems:
        if _s_verdict(pp, x.node) is not Part.UNITARY:
            continue
        for j in range(1, pp.n + 1):
            y = _t_apply_raw(pp, j, x)
            if _s_verdict(pp, y.node) is not Part.UNITARY:
                return FailureWitness(
                    "unitary-part-of-S-invariant-under-T", x,
                    f"T_{j} maps it to {y!r}, which is S-shift")
        if not twin_checked:
            mirror(pp).require_commuting()
            twin_checked = True
        step = _t_pred_raw(pp, x)
        if (step is not None
                and _s_verdict(pp, step[1].node) is not Part.UNITARY):
            return FailureWitness(
                "unitary-part-of-S-closed-under-T-adjoint", x,
                f"its T-predecessor {step[1]!r} is S-shift")
    return None


def sweep_condition_two(pp, elems):
    twin = mirror(pp)
    for x in elems:
        if _s_verdict(pp, x.node) is not Part.SHIFT:
            continue
        twin.require_commuting()
        if _s_verdict(twin, x.node) is not Part.UNITARY:
            continue
        for i in range(1, pp.m + 1):
            y = _s_apply_raw(pp, i, x)
            if _s_verdict(twin, y.node) is not Part.UNITARY:
                return FailureWitness(
                    "T-unitary-part-of-S-shift-invariant-under-S", x,
                    f"S_{i} maps it to {y!r}, which is T-shift")
        step = _s_pred_raw(pp, x)
        if (step is not None
                and _s_verdict(twin, step[1].node) is not Part.UNITARY):
            return FailureWitness(
                "T-unitary-part-of-S-shift-closed-under-S-adjoint", x,
                f"its S-predecessor {step[1]!r} is T-shift")
    return None


def slocinski_sweep(pp, order="st", depth=None):
    """The sweep's result; ``depth`` defaults to max(4, |base| + 2).

    A pair that is not jointly isometric is refused with its joint
    report, as ``slocinski`` refuses it."""
    pp.require_commuting()
    report = check_joint_isometry(pp)
    if not report.ok:
        raise ContractViolation(report.violations[0])
    if order == "ts":
        twin = mirror(pp)
        res = slocinski_sweep(twin, "st", depth)
        witness = res.failure_witness
        if witness is not None:
            witness = FailureWitness(
                "mirror:" + witness.condition,
                mirror_elem(twin, witness.element), witness.detail)
        corners = _corner_descs(pp)
    else:
        if depth is None:
            depth = max(4, len(pp.base) + 2)
        elems = enumerate_pair(pp, depth)
        witness = sweep_condition_one(pp, elems)
        if witness is None:
            witness = sweep_condition_two(pp, elems)
        corners = _corner_descs(pp)
    return SlocinskiResult(
        exists=witness is None,
        H_uu=corners["uu"], H_us=corners["us"],
        H_su=corners["su"], H_ss=corners["ss"],
        failure_witness=witness)


def decision(decide, pp, *args):
    """The result on a fresh copy of pp, or the error's type and text;
    corners compare by seeds and nodes."""
    try:
        return decide(fresh(pp), *args)
    except (ContractViolation, ResourceExceeded) as exc:
        return type(exc), str(exc)


def outcome_kind(got):
    if isinstance(got, tuple):
        return got[0].__name__
    return "exists" if got.exists else "witness"


def _forbidden(*args, **kwargs):
    raise AssertionError("slocinski enumerated a window")


class TestBaseVectors:
    def test_acceptance_candidates_match_the_sweep(self, pair_space):
        kinds = Counter()
        for pp, commuting, _ in pair_space:
            if not commuting:
                continue
            for order in ("st", "ts"):
                got = decision(slocinski, pp, order)
                assert got == decision(slocinski_sweep, pp, order), \
                    (pp, order)
                kinds[order, outcome_kind(got)] += 1
        # every commuting candidate decomposes or is refused, and the
        # refused ones are exactly those that are not jointly isometric
        assert kinds == {("st", "exists"): 2387,
                         ("st", "ContractViolation"): 2100,
                         ("ts", "exists"): 2387,
                         ("ts", "ContractViolation"): 2100}

    def test_random_pairs_match_the_sweep_at_three_windows(self):
        kinds = Counter()
        compared = Counter()
        for pp in commuting_pairs(11, 300, max_nodes=6, max_m=3, max_n=3):
            old = max(4, len(pp.base) + 2)
            for order in ("st", "ts"):
                got = decision(slocinski, pp, order)
                kinds[outcome_kind(got)] += 1
                for extra in range(3):
                    depth = old + extra
                    if _free_word_bound(pp, depth) > SWEEP_CAP:
                        break
                    assert got == decision(slocinski_sweep, pp, order,
                                           depth), (pp, order, depth)
                    compared[extra] += 1
        assert min(compared.values()) > 200
        # a refusal means the pair is not jointly injective
        assert set(kinds) == {"exists", "witness", "ContractViolation"}

    def test_no_window_is_enumerated(self, monkeypatch):
        # slocinski, the hypotheses and the implication report read no
        # window; slocinski.py imports no enumerator (TestNoWindowCode)
        monkeypatch.setattr(pair_module, "enumerate_pair", _forbidden)
        monkeypatch.setattr(pair_module, "_cartesian", _forbidden)
        for size in (7, 12, 50):
            # the old window here, depth |base| + 2, holds more free
            # words than the budget allows
            nodes = tuple(f"b{k}" for k in range(size))
            free33 = free_pair(Theta.identity(3, 3), nodes)
            assert _free_word_bound(free33, size + 2) > PAIR_WINDOW_BUDGET
            for order in ("st", "ts"):
                res = slocinski(free33, order)
                assert res.exists
                assert res.H_ss.nodes == frozenset(nodes)
            assert check_hypotheses(free33).doubly_commuting
            assert verify_theorem_implications(free33).ok
        for pp in (PAIR_A, PAIR_B):
            for order in ("st", "ts"):
                assert not slocinski(fresh(pp), order).exists
            assert not check_hypotheses(fresh(pp)).doubly_commuting
            assert verify_theorem_implications(fresh(pp)).ok


class TestNoWindowCode:
    # the deciders read base vectors and their predecessors, so the
    # window enumerator and the forward kernels stay out of the module
    BANNED = {"enumerate_pair", "_s_apply_raw", "_t_apply_raw"}

    def test_slocinski_imports_no_window_code(self):
        path = Path(slocinski_module.__file__)
        seen = False
        for module, names in runtime_imports(ast.parse(path.read_text())):
            if module.split(".")[0] != "pair":
                continue
            assert names is not None, "slocinski imports the pair module"
            assert not self.BANNED & set(names), \
                f"slocinski imports {sorted(self.BANNED & set(names))}"
            seen = True
        assert seen


# the random pairs' windows are compared with the sweep up to this many
# free words; larger windows cost the suite seconds each
SWEEP_CAP = 2_000

# two honest pairs whose decomposition fails: each passes the
# theta-commutation and joint-isometry checks, and neither is doubly
# commuting
PAIR_A = PairPresentation(
    Theta(1, 3, {(1, 1): (1, 3), (1, 2): (1, 1), (1, 3): (1, 2)}),
    ("n0", "n1", "n2", "n3"), {("n3", 1): "n1"},
    {("n0", 1): "n0", ("n0", 2): "n1"})
PAIR_B = PairPresentation(
    Theta(2, 3, {(1, 1): (2, 1), (1, 2): (2, 2), (1, 3): (2, 3),
                 (2, 1): (1, 1), (2, 2): (1, 3), (2, 3): (1, 2)}),
    ("n0", "n1", "n2", "n3"), {("n3", 1): "n1", ("n3", 2): "n3"},
    {("n2", 3): "n1"})
FAILURE_WITNESSES = [
    (PAIR_A, "st", "T-unitary-part-of-S-shift-closed-under-S-adjoint",
     "its S-predecessor <n3> is T-shift"),
    (PAIR_A, "ts", "mirror:unitary-part-of-S-closed-under-T-adjoint",
     "its T-predecessor <n3> is S-shift"),
    (PAIR_B, "st", "unitary-part-of-S-closed-under-T-adjoint",
     "its T-predecessor <n2> is S-shift"),
    (PAIR_B, "ts", "mirror:T-unitary-part-of-S-shift-closed-under-S-adjoint",
     "its S-predecessor <n2> is T-shift"),
]


class TestFailingDecomposition:
    def test_pairs_are_honest_but_not_doubly_commuting(self):
        for pp in (PAIR_A, PAIR_B):
            assert check_theta_commute(pp).ok
            assert check_joint_isometry(pp).ok
            assert not check_doubly_commute(pp).ok

    @pytest.mark.parametrize("pp, order, condition, detail",
                             FAILURE_WITNESSES,
                             ids=("A-st", "A-ts", "B-st", "B-ts"))
    def test_witness_pinned(self, pp, order, condition, detail):
        res = slocinski(fresh(pp), order)
        assert not res.exists
        assert res.failure_witness == FailureWitness(
            condition, PairElem((), (), "n1"), detail)
        assert decision(slocinski_sweep, pp, order) == res

    def test_theorems_hold(self):
        # no sufficient condition is certified, so the failure violates
        # no theorem row
        for pp in (PAIR_A, PAIR_B):
            report = verify_theorem_implications(fresh(pp))
            assert report.ok, report
            row = {r.name: r for r in report.rows}[
                "doubly-commuting-implies-decomposition"]
            assert not row.hypotheses_hold
            assert row.conclusion_holds is False


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


def lemma_violations(pp, depth):
    """The standalone lemmas, element by element over a depth window.

    pp is jointly isometric.  Each unitary part is invariant under the
    other family: the S-unitary part under T, and the T-unitary part
    under S, read as the first in ``mirror(pp)``.  With m >= 2 the
    S-cycle slice is closed under the T-adjoint.  A finite-multiplicity
    S-shift against a row-unitary T-family lives on the zero space.
    """
    violations = []
    for q, (s_name, t_name) in ((pp, "ST"), (mirror(pp), "TS")):
        for x in enumerate_pair(q, depth):
            if s_membership(q, x) is Part.UNITARY:
                for j in range(1, q.n + 1):
                    if s_membership(q, t_apply(q, j, x)) is not Part.UNITARY:
                        violations.append(
                            (pp.to_dict(), f"{t_name} drags {x!r} off the "
                             f"{s_name}-unitary part"))
                        break
    if pp.m >= 2:
        for x in enumerate_pair(pp, depth):
            if s_in_V(pp, x):
                step = t_pred(pp, x)
                if step is not None and not s_in_V(pp, step[1]):
                    violations.append(
                        (pp.to_dict(), f"T-pred leaves the structure "
                         f"support at {x!r}"))
                    break
    if pp.base and pp.n >= 2:
        all_shift = all(
            s_membership(pp, PairElem((), (), b)) is Part.SHIFT
            for b in pp.base)
        if (all_shift and s_shift_multiplicity(pp).is_finite
                and not dead_nodes(mirror(pp))):
            violations.append(
                (pp.to_dict(), "finite-multiplicity shift against a "
                 "row-unitary family on a nonzero space"))
    return violations


class TestImplications:
    def test_all_fixtures_pass(self):
        for pp in (FOUR_CORNERS, BILATERAL, TWIN_LOOPS, FREE11, FREE22):
            report = verify_theorem_implications(pp)
            assert report.ok, report
            assert lemma_violations(pp, max(4, len(pp.base) + 2)) == []

    def test_random_honest_pairs_pass(self):
        for pp in honest_pairs(421, 15):
            assert verify_theorem_implications(pp).ok
            assert lemma_violations(pp, max(4, len(pp.base) + 2)) == []

    def test_row_names_cover_the_statements(self):
        names = [row.name for row in
                 verify_theorem_implications(FOUR_CORNERS).rows]
        assert names == [
            "doubly-commuting-implies-decomposition",
            "singular-unitary-parts-imply-decomposition",
            "singular-S-with-finite-shift-implies-decomposition",
            "finite-S-shift-against-T-row-unitary-forces-zero-space",
        ]

    def test_empty_base_forces_zero_space_row(self):
        pp = free_pair(Theta.identity(1, 2), base=())
        report = verify_theorem_implications(pp)
        assert report.ok
        row = {r.name: r for r in report.rows}[
            "finite-S-shift-against-T-row-unitary-forces-zero-space"]
        assert row.hypotheses_hold
        assert row.conclusion_holds
