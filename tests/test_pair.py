"""Joint two-family presentation tests.

Canonical names are cross-checked against a congruence-closure oracle:
starting from a raw mixed word over both alphabets it explores ALL
theta-swaps (in both directions) and all innermost absorptions, then
reads the canonical name off the minimal-length states.  The oracle
never calls the library's reducer.
"""

import gc
import json
import random
import weakref
from collections import Counter
from itertools import permutations, product

import pytest

from rowiso.cli import parse
from rowiso.errors import ContractViolation, ResourceExceeded, ValidationError
from rowiso.oracle import materialize, verify_relations
from rowiso.presentation import Presentation
from rowiso.search import PREDICATES, _edge_maps, _forge_theta, all_thetas
from rowiso.pair import (
    PAIR_WINDOW_BUDGET,
    CommutationFailure,
    CommutationReport,
    PairElem,
    PairPresentation,
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
    _base_preds,
    _free_word_bound,
    _reduce_raw,
    _s_apply_raw,
    _s_pred_raw,
    _t_apply_raw,
    _require_canonical,
    _t_pred_raw,
)
from rowiso.slocinski import (check_hypotheses, dead_nodes, s_in_V,
                              s_membership, slocinski, t_in_V, t_membership)
from rowiso.wold import SubspaceDesc
from rowiso.words import (Theta, commute_s_left, commute_s_right,
                          commute_t_right, normalize, validate_word)

# -- congruence-closure oracle --------------------------------------------------


def _neighbors(pp, word, node):
    out = []
    if word:
        kind, idx = word[-1]
        if kind == "s" and (node, idx) in pp.s_edges:
            out.append((word[:-1], pp.s_edges[(node, idx)]))
        if kind == "t" and (node, idx) in pp.t_edges:
            out.append((word[:-1], pp.t_edges[(node, idx)]))
    for k in range(len(word) - 1):
        (f1, a), (f2, b) = word[k], word[k + 1]
        if f1 == "s" and f2 == "t":
            i2, j2 = pp.theta.map[(a, b)]
            out.append((word[:k] + (("t", j2), ("s", i2)) + word[k + 2:],
                        node))
        if f1 == "t" and f2 == "s":
            i0, j0 = pp.theta.inverse_map[(b, a)]
            out.append((word[:k] + (("s", i0), ("t", j0)) + word[k + 2:],
                        node))
    return out


def closure_canonical(pp, t, s, b):
    """Canonical name via exhaustive closure; asserts it is unique."""
    start = (tuple(("t", j) for j in t) + tuple(("s", i) for i in s), b)
    seen = {start}
    queue = [start]
    while queue:
        state = queue.pop()
        for nxt in _neighbors(pp, *state):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    shortest = min(len(w) for w, _ in seen)
    names = set()
    for w, node in seen:
        if len(w) == shortest:
            norm = normalize(pp.theta, w)
            tp = tuple(i for k, i in norm if k == "t")
            sp = tuple(i for k, i in norm if k == "s")
            names.add(PairElem(tp, sp, node))
    assert len(names) == 1, f"reduction of {start} is ambiguous: {names}"
    return names.pop()


def assert_canonical(pp, x):
    if x.s_prefix:
        assert (x.node, x.s_prefix[-1]) not in pp.s_edges
    if x.t_prefix:
        _, arriving = commute_t_right(pp.theta, x.s_prefix, x.t_prefix[-1])
        assert (x.node, arriving) not in pp.t_edges


def random_pair(rng, max_nodes=3, max_m=2, max_n=2):
    nodes = tuple("abcdef"[: rng.randint(1, max_nodes)])
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    domain = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    shuffled = list(domain)
    rng.shuffle(shuffled)
    theta = Theta(m, n, dict(zip(domain, shuffled)))
    return PairPresentation(theta, nodes, random_edges(rng, nodes, m),
                            random_edges(rng, nodes, n))


def random_edges(rng, nodes, labels) -> dict:
    """An injective edge map: each slot, in shuffled order, gets an edge
    with probability 0.4, to a node no edge has taken yet."""
    edges = {}
    taken = set()
    slots = [(b, i) for b in nodes for i in range(1, labels + 1)]
    rng.shuffle(slots)
    for slot in slots:
        if rng.random() < 0.4:
            free = [b for b in nodes if b not in taken]
            if not free:
                break
            dst = rng.choice(free)
            edges[slot] = dst
            taken.add(dst)
    return edges


def product_pair(P: Presentation, Q: Presentation) -> PairPresentation:
    """The product of two single families, with the identity twist.

    The base is every node pair (a, b); ``S_i`` moves a as P's ``S_i``
    does and keeps b, ``T_j`` keeps a and moves b as Q's ``T_j``.  So the
    pair is ``S (x) I`` and ``I (x) T``, which doubly commute (Slocinski,
    Ann. Polon. Math. 37 (1980); the product 2-graphs of Kumjian and
    Pask, New York J. Math. 6 (2000)).  Edges to ``None`` are not
    supported.
    """
    base = tuple((a, b) for a in P.base for b in Q.base)
    s_edges = {((a, b), i): (dst, b)
               for (a, i), dst in P.edges.items() for b in Q.base}
    t_edges = {((a, b), j): (a, dst)
               for (b, j), dst in Q.edges.items() for a in P.base}
    return PairPresentation(Theta.identity(P.m, Q.m), base, s_edges,
                            t_edges)


def path_pair(size: int) -> PairPresentation:
    """One label a side and the identity twist: a T-path
    ``n0 -> ... -> n(size-1)`` and one S-edge from its end back to n0.
    Honest, and it decomposes."""
    nodes = tuple(f"n{k}" for k in range(size))
    return PairPresentation(THETA_ID_11, nodes,
                            {(nodes[-1], 1): nodes[0]},
                            dict(zip(((b, 1) for b in nodes), nodes[1:])))


def commuting_pairs(seed, count, **kw):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        pp = random_pair(rng, **kw)
        if check_theta_commute(pp).ok:
            found.append(pp)
    return found


def honest_pairs(seed, count, **kw):
    # commuting AND jointly injective: the adjoint calculus is total
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        pp = random_pair(rng, **kw)
        if check_theta_commute(pp).ok and check_joint_isometry(pp).ok:
            found.append(pp)
    return found


THETA_ID_11 = Theta.identity(1, 1)
THETA_ID_22 = Theta.identity(2, 2)
THETA_FLIP_22 = Theta(2, 2, {(1, 1): (1, 1), (1, 2): (2, 1),
                             (2, 1): (1, 2), (2, 2): (2, 2)})
THETA_CYCLIC_22 = Theta(2, 2, {(1, 1): (1, 2), (1, 2): (2, 1),
                               (2, 1): (2, 2), (2, 2): (1, 1)})


# -- reduction ------------------------------------------------------------------


class TestReduce:
    def test_free_pair_is_already_canonical(self):
        pp = free_pair(THETA_ID_22)
        assert _reduce_raw(pp, (1,), (2,), "b") == PairElem((1,), (2,), "b")

    def test_both_letters_absorb(self):
        pp = PairPresentation(THETA_ID_11, ("b",),
                              {("b", 1): "b"}, {("b", 1): "b"})
        assert _reduce_raw(pp, (1,), (1,), "b") == PairElem((), (), "b")

    def test_flip_theta_partial_absorption(self):
        # the t-letter flips while passing the s-letter and may then
        # absorb; the closure oracle pins the unique outcome
        pp = PairPresentation(THETA_FLIP_22, ("b",), {("b", 1): "b"}, {})
        got = _reduce_raw(pp, (2,), (1,), "b")
        assert got == closure_canonical(pp, (2,), (1,), "b")
        assert_canonical(pp, got)

    def test_matches_closure_oracle_on_random_pairs(self):
        rng = random.Random(301)
        for pp in commuting_pairs(303, 25):
            for _ in range(8):
                t = tuple(rng.randint(1, pp.n)
                          for _ in range(rng.randint(0, 2)))
                s = tuple(rng.randint(1, pp.m)
                          for _ in range(rng.randint(0, 2)))
                b = rng.choice(pp.base)
                got = _reduce_raw(pp, t, s, b)
                assert got == closure_canonical(pp, t, s, b)
                assert_canonical(pp, got)


# -- apply ----------------------------------------------------------------------


class TestApply:
    def test_free_pair_commutes_the_new_s_letter(self):
        theta = Theta(2, 2, {(1, 2): (2, 1), (2, 1): (1, 2),
                             (1, 1): (2, 2), (2, 2): (1, 1)})
        pp = free_pair(theta)
        got = s_apply(pp, 1, PairElem((2,), (), "b"))
        assert got == PairElem((1,), (2,), "b")  # theta(1,2) = (2,1)

    def test_identity_theta_prepends_within_the_family(self):
        pp = free_pair(THETA_ID_22)
        x = PairElem((2, 1), (2,), "b")
        assert s_apply(pp, 1, x) == PairElem((2, 1), (1, 2), "b")
        assert t_apply(pp, 1, x) == PairElem((1, 2, 1), (2,), "b")

    def test_interchange_identity_on_random_elements(self):
        # S_i T_j x == T_j' S_i' x with theta(i,j) = (i',j'), 500 times
        rng = random.Random(311)
        pairs = commuting_pairs(313, 20)
        done = 0
        while done < 500:
            pp = rng.choice(pairs)
            x = rng.choice(enumerate_pair(pp, 3))
            i = rng.randint(1, pp.m)
            j = rng.randint(1, pp.n)
            i2, j2 = pp.theta.map[(i, j)]
            assert s_apply(pp, i, t_apply(pp, j, x)) == \
                t_apply(pp, j2, s_apply(pp, i2, x))
            done += 1

    def test_results_canonical_and_depth_graded(self):
        for pp in commuting_pairs(317, 15):
            for x in enumerate_pair(pp, 2):
                for i in range(1, pp.m + 1):
                    y = s_apply(pp, i, x)
                    assert_canonical(pp, y)
                    assert y.depth <= x.depth + 1
                for j in range(1, pp.n + 1):
                    y = t_apply(pp, j, x)
                    assert_canonical(pp, y)
                    assert y.depth <= x.depth + 1

    def test_label_range_checked(self):
        pp = free_pair(THETA_ID_11)
        with pytest.raises(ValidationError):
            s_apply(pp, 2, PairElem((), (), "b"))
        with pytest.raises(ValidationError):
            t_apply(pp, 0, PairElem((), (), "b"))

    def test_non_canonical_input_rejected(self):
        pp = PairPresentation(THETA_ID_11, ("b",), {("b", 1): "b"}, {})
        with pytest.raises(ValidationError):
            s_apply(pp, 1, PairElem((), (1,), "b"))


# -- pred -----------------------------------------------------------------------


class TestPred:
    def test_round_trip_on_random_pairs(self):
        for pp in honest_pairs(331, 20):
            for x in enumerate_pair(pp, 2):
                for i in range(1, pp.m + 1):
                    assert s_pred(pp, s_apply(pp, i, x)) == (i, x)
                for j in range(1, pp.n + 1):
                    assert t_pred(pp, t_apply(pp, j, x)) == (j, x)

    def test_pred_none_means_out_of_range(self):
        # verified by surjectivity onto a truncation: every element
        # with a predecessor arises as an image; predecessors can sit
        # up to |base| letters deeper, hence the wider image sweep
        for pp in honest_pairs(337, 12):
            elems = enumerate_pair(pp, 2)
            s_images = {s_apply(pp, i, x)
                        for x in enumerate_pair(pp, 3 + len(pp.base))
                        for i in range(1, pp.m + 1)}
            for x in elems:
                assert (s_pred(pp, x) is None) == (x not in s_images)

    def test_strips_outer_letter_in_s_outside_form(self):
        pp = free_pair(THETA_ID_22)
        x = PairElem((2,), (1, 2), "b")
        label, y = s_pred(pp, x)
        assert label == 1
        assert y == PairElem((2,), (2,), "b")

    def test_bilateral_orbit(self):
        # S shifts the doubly infinite chain ... T^2 e_b, T e_b, e_b,
        # e_c, S e_c, ...; every element has exactly one S-predecessor
        pp = PairPresentation(THETA_ID_11, ("b", "c"),
                              {("b", 1): "c"}, {("c", 1): "b"})
        assert check_theta_commute(pp).ok
        x = PairElem((), (), "b")
        back = []
        for _ in range(4):
            step = s_pred(pp, x)
            assert step is not None
            x = step[1]
            back.append(x)
        assert back[0] == PairElem((1,), (), "b")
        assert len(set(back)) == 4
        forward = x
        for _ in range(4):
            forward = s_apply(pp, 1, forward)
        assert forward == PairElem((), (), "b")

    def test_joint_collision_raises(self):
        # theta-commuting data whose S-family fails injectivity on the
        # enlarged basis: e_a has two honest S-predecessors
        pp = PairPresentation(THETA_ID_11, ("a", "c"),
                              {("c", 1): "a"}, {("a", 1): "a"})
        assert check_theta_commute(pp).ok
        assert s_apply(pp, 1, PairElem((), (), "c")) == PairElem((), (), "a")
        assert s_apply(pp, 1, PairElem((1,), (), "c")) == \
            PairElem((), (), "a")
        with pytest.raises(ContractViolation):
            s_pred(pp, PairElem((), (), "a"))
        assert not check_joint_isometry(pp).ok

    def test_non_canonical_element_rejected(self):
        pp = PairPresentation(THETA_ID_11, ("b",),
                              {("b", 1): "b"}, {("b", 1): "b"})
        with pytest.raises(ValidationError):
            s_pred(pp, PairElem((), (1,), "b"))
        with pytest.raises(ValidationError):
            t_pred(pp, PairElem((1,), (), "b"))

    def test_unknown_node_rejected(self):
        pp = free_pair(THETA_ID_22)
        with pytest.raises(ValidationError):
            s_pred(pp, PairElem((), (1,), "zz"))
        with pytest.raises(ValidationError):
            t_pred(pp, PairElem((1,), (), "zz"))

    def test_direct_t_strip_matches_the_mirror_route(self):
        # an element with T-letters loses its outer one in place; the
        # mirror route renames it, strips there and renames back
        def outcome(fn, pp, x):
            try:
                return fn(pp, x)
            except ContractViolation:
                return ContractViolation

        def via_mirror(pp, x):
            twin = mirror(pp)
            res = _s_pred_raw(twin, mirror_elem(pp, x))
            if res is None:
                return None
            return res[0], mirror_elem(twin, res[1])

        space = []
        for m, n in product((1, 2), repeat=2):
            for k in (1, 2):
                nodes = tuple("ab"[:k])
                for theta in all_thetas(m, n):
                    for se in _edge_maps(nodes, m):
                        for te in _edge_maps(nodes, n):
                            pp = PairPresentation(theta, nodes, se, te)
                            if check_theta_commute(pp).ok:
                                space.append(pp)
        assert len(space) == 4487
        collision = PairPresentation(THETA_ID_11, ("a", "c"),
                                     {("c", 1): "a"}, {("a", 1): "a"})
        raised = 0
        for pp in commuting_pairs(331, 100) + space[::23] + [collision]:
            assert check_theta_commute(mirror(pp)).ok
            for x in enumerate_pair(pp, len(pp.base) + 2):
                got = outcome(_t_pred_raw, pp, x)
                assert got == outcome(via_mirror, pp, x), (pp, x)
                raised += got is ContractViolation
        assert raised  # the collision pair breaks the pure-S walk

    def test_non_commuting_pair_refused(self):
        pp = PairPresentation(THETA_ID_11, ("a", "b"),
                              {("a", 1): "b"}, {("a", 1): "a"})
        assert not check_theta_commute(pp).ok
        for pred in (s_pred, t_pred):
            with pytest.raises(ContractViolation):
                pred(pp, PairElem((), (), "b"))


# -- enumeration ------------------------------------------------------------------


class TestEnumeratePair:
    def test_free_pair_counts(self):
        pp = free_pair(THETA_ID_22)
        # sum over joint depth k of (k+1) interleavings x 2^k indices
        assert len(enumerate_pair(pp, 4)) == 129

    def test_listing_matches_closure_oracle(self):
        for pp in commuting_pairs(347, 10):
            names = set()
            for length in range(3):
                for word in product(
                        [("s", i) for i in range(1, pp.m + 1)]
                        + [("t", j) for j in range(1, pp.n + 1)],
                        repeat=length):
                    t = tuple(i for k, i in word if k == "t")
                    s = tuple(i for k, i in word if k == "s")
                    for b in pp.base:
                        # words of one bidegree cover all interleavings
                        names.add(closure_canonical(pp, t, s, b))
            expected = {x for x in names if x.depth <= 2}
            assert set(enumerate_pair(pp, 2)) == expected

    def test_ordering_and_prefix_growth(self):
        for pp in commuting_pairs(349, 10):
            listing = enumerate_pair(pp, 3)
            keys = [(x.depth, -len(x.t_prefix), x.t_prefix, x.s_prefix,
                     pp.node_index[x.node]) for x in listing]
            assert keys == sorted(keys)
            assert listing[: len(enumerate_pair(pp, 2))] == \
                enumerate_pair(pp, 2)

    def test_all_listed_elements_are_canonical(self):
        for pp in commuting_pairs(353, 10):
            for x in enumerate_pair(pp, 3):
                assert_canonical(pp, x)


# -- commutation checks -----------------------------------------------------------


class TestThetaCommute:
    def test_free_pairs_commute_small_exhaustive(self):
        # every theta on alphabets with m*n <= 6; the 3x3 sweep runs
        # separately below
        for m, n in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2),
                     (2, 3), (3, 2)):
            domain = [(i, j) for i in range(1, m + 1)
                      for j in range(1, n + 1)]
            for perm in permutations(domain):
                theta = Theta(m, n, dict(zip(domain, perm)))
                assert check_theta_commute(free_pair(theta)).ok

    def test_free_pairs_commute_three_by_three_exhaustive(self):
        # the heaviest module-level sweep: all 9! permutations
        domain = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        for perm in permutations(domain):
            theta = Theta(3, 3, dict(zip(domain, perm)))
            assert check_theta_commute(free_pair(theta)).ok

    def test_pointwise_fixing_families_commute(self):
        pp = PairPresentation(
            THETA_ID_11, ("a", "b"),
            {("a", 1): "b", ("b", 1): "a"},
            {("a", 1): "a", ("b", 1): "b"})
        assert check_theta_commute(pp).ok

    def test_mismatched_edges_reported(self):
        pp = PairPresentation(THETA_ID_11, ("a", "b"),
                              {("a", 1): "b"}, {("a", 1): "a"})
        report = check_theta_commute(pp)
        assert not report.ok
        bad = report.failures[0]
        assert bad.element == PairElem((), (), "a")
        assert bad.lhs != bad.rhs

    def test_report_is_cached(self):
        pp = free_pair(THETA_ID_22)
        assert check_theta_commute(pp) is check_theta_commute(pp)


# -- full-sweep references ------------------------------------------------------
#
# The reducer and the commutation check without the inert-node skips:
# every T-letter is pushed through the S-block at every node, and every
# canonical element up to a depth is evaluated on every label pair.


def reduce_reference(pp, t, s, b):
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


def free_words(m, n, depth):
    # enumerate_pair's order
    for total in range(depth + 1):
        for t_len in range(total, -1, -1):
            for t in product(range(1, n + 1), repeat=t_len):
                for s in product(range(1, m + 1), repeat=total - t_len):
                    yield t, s


def theta_commute_reference(pp, depth=1):
    def s_step(i, x):
        t2, i2 = commute_s_left(pp.theta, i, x.t_prefix)
        return reduce_reference(pp, t2, (i2,) + x.s_prefix, x.node)

    def t_step(j, x):
        return reduce_reference(pp, (j,) + x.t_prefix, x.s_prefix, x.node)

    failures = []
    for t, s in free_words(pp.m, pp.n, depth):
        for b in pp.base:
            x = PairElem(t, s, b)
            if reduce_reference(pp, t, s, b) != x:
                continue  # not canonical
            for (i, j), (i2, j2) in sorted(pp.theta.map.items()):
                lhs = s_step(i, t_step(j, x))
                rhs = t_step(j2, s_step(i2, x))
                if lhs != rhs:
                    failures.append(CommutationFailure(
                        "commute", x, i, j, lhs, rhs))
    return tuple(failures)


def _doubly_sweep(pp, elems):
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


def _witnesses(pp, depth):
    # the elements check_doubly_commute lists a jointly isometric pair's
    # failures at: every e_b in base order, then, at depth >= 1 over a
    # non-empty base, each T_l e_b0 that is not a base vector
    out = [PairElem((), (), b) for b in pp.base]
    if depth and pp.base:
        for l in range(1, pp.n + 1):
            x = _t_apply_raw(pp, l, out[0])
            if x.t_prefix:
                out.append(x)
    return out


def _listed_at_the_witnesses(pp, report, depth):
    # the report's failures: the sweep's at the witnesses for a jointly
    # isometric pair, the joint report's first violation for any other
    joint = check_joint_isometry(pp)
    expected = _doubly_sweep(pp, _witnesses(pp, depth)) if joint.ok else \
        (CommutationFailure("pred-contract", None, 0, 0,
                            joint.violations[0], None),)
    assert report.failures == expected, (pp, depth)


def _forbidden(*args, **kwargs):
    raise AssertionError("this call should have been skipped")


class TestInertNodes:
    def test_random_pairs_match_the_full_sweep(self):
        rng = random.Random(4242)
        commuting = failing = pushes = 0
        while commuting < 25 or failing < 25:
            pp = random_pair(rng, max_m=3, max_n=3)
            if not pp.t_edges:
                continue
            report = check_theta_commute(pp)
            # deeper elements hold no failure either
            assert report.failures == theta_commute_reference(pp) == \
                theta_commute_reference(pp, 3), pp
            if report.ok:
                commuting += 1
            else:
                failing += 1
            sources = sorted(pp.t_sources)
            for _ in range(40):
                # half the triples start at a node with a t-out-edge
                b = rng.choice(sources if rng.random() < 0.5 else pp.base)
                t = tuple(rng.randint(1, pp.n)
                          for _ in range(rng.randint(0, 3)))
                s = tuple(rng.randint(1, pp.m)
                          for _ in range(rng.randint(0, 3)))
                pushes += b in pp.t_sources and bool(t)
                assert _reduce_raw(pp, t, s, b) == \
                    reduce_reference(pp, t, s, b), (pp, t, s, b)
        assert pushes > 500

    def test_acceptance_candidates_match_the_full_sweep(self, pair_space):
        for pp, _, _ in pair_space[::23]:
            assert check_theta_commute(pp).failures == \
                theta_commute_reference(pp) == \
                theta_commute_reference(pp, 2), pp
            for t, s in free_words(pp.m, pp.n, 2):
                for b in pp.base:
                    assert _reduce_raw(pp, t, s, b) == \
                        reduce_reference(pp, t, s, b), (pp, t, s, b)

    def test_label_pairs_evaluated_only_at_doubly_active_base_vectors(
            self, monkeypatch):
        # each label pair calls _s_apply_raw on T_j x, then on x itself
        calls = []

        def counting(pp, i, x):
            calls.append(x)
            return _s_apply_raw(pp, i, x)

        monkeypatch.setattr("rowiso.pair._s_apply_raw", counting)
        pp = PairPresentation(THETA_FLIP_22, ("a", "b", "c"),
                              {("a", 1): "b", ("c", 2): "a"},
                              {("a", 2): "c", ("b", 1): "b"})
        report = check_theta_commute(pp)
        assert report.failures == theta_commute_reference(pp)
        # only node a has an out-edge in both families
        assert calls[1::2] == [PairElem((), (), "a")] * 4

    def test_edge_free_pair_evaluates_no_label_pair(self, monkeypatch):
        monkeypatch.setattr("rowiso.pair._s_apply_raw", _forbidden)
        domain = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        theta = Theta(3, 3, dict(zip(domain, domain[1:] + domain[:1])))
        assert check_theta_commute(free_pair(theta, ("a", "b"))).ok

    def test_pair_without_t_edges_never_pushes_a_t_letter(self, monkeypatch):
        pp = PairPresentation(THETA_CYCLIC_22, ("a", "b", "c"),
                              {("a", 1): "b", ("b", 2): "c"}, {})
        expected = [reduce_reference(pp, t, s, b)
                    for t, s in free_words(2, 2, 3) for b in pp.base]
        monkeypatch.setattr("rowiso.pair.commute_t_right", _forbidden)
        got = [_reduce_raw(pp, t, s, b)
               for t, s in free_words(2, 2, 3) for b in pp.base]
        assert got == expected
        canonical = {PairElem(t, s, b) for t, s in free_words(2, 2, 3)
                     for b in pp.base
                     if reduce_reference(pp, t, s, b) == (t, s, b)}
        elems = enumerate_pair(pp, 3)
        assert len(elems) == len(canonical) and set(elems) == canonical
        # no node has a t-out-edge, so no label pair is evaluated
        monkeypatch.setattr("rowiso.pair._s_apply_raw", _forbidden)
        assert check_theta_commute(pp).failures == \
            theta_commute_reference(pp) == ()


class TestWindowBudget:
    def test_bound_counts_the_edge_free_window(self):
        for m, n, base, depth in ((1, 1, "a", 5), (2, 1, "ab", 4),
                                  (1, 3, "abc", 3), (3, 2, "ab", 3)):
            pp = free_pair(Theta.identity(m, n), tuple(base))
            for d in range(depth + 1):
                assert _free_word_bound(pp, d) == len(enumerate_pair(pp, d))

    def test_over_budget_window_refused_before_enumeration(self,
                                                           monkeypatch):
        nodes = tuple(f"b{q}" for q in range(12))
        pp = free_pair(THETA_ID_22, nodes)
        monkeypatch.setattr("rowiso.pair._cartesian", _forbidden)
        with pytest.raises(ResourceExceeded, match="budget"):
            enumerate_pair(pp, 14)
        # check_doubly_commute builds no window, so it refuses none; the
        # twisted pair fails as the one-node twist does, at T_l e_b0
        assert check_doubly_commute(pp).ok
        report = check_doubly_commute(free_pair(THETA_CYCLIC_22, nodes))
        got = [(f.identity, repr(f.element), f.i, f.j, repr(f.lhs),
                repr(f.rhs)) for f in report.failures]
        assert got == [tuple(v.replace("|b>", "|b0>") if type(v) is str
                             else v for v in row)
                       for row in CYCLIC_TWIST_FAILURES]
        with pytest.raises(ValidationError, match="nonnegative"):
            check_doubly_commute(pp, -1)


class TestDepthArguments:
    # a depth that is not an exact int is refused, never read as a number
    NOT_INTS = (2.0, "3", True, None, [2])

    def test_enumerate_pair(self):
        pp = free_pair(THETA_ID_22)
        for depth in self.NOT_INTS:
            with pytest.raises(ValidationError, match="depth must be an int"):
                enumerate_pair(pp, depth)
        assert len(enumerate_pair(pp, 1)) == 5

    def test_check_doubly_commute(self):
        # None asks for the default window
        for theta in (THETA_ID_22, THETA_CYCLIC_22):
            pp = free_pair(theta)
            for depth in (2.0, "3", True, [2]):
                with pytest.raises(ValidationError,
                                   match="depth must be an int"):
                    check_doubly_commute(pp, depth)
            assert check_doubly_commute(pp, 2).ok == (theta == THETA_ID_22)


# check_doubly_commute(free_pair(THETA_CYCLIC_22)).failures, as
# (identity, element, i, j, lhs, rhs) with elements by repr: the
# failures at T_1 e_b and T_2 e_b
T_ADJ_S = "t-adjoint-of-s"
CYCLIC_TWIST_FAILURES = [
    (T_ADJ_S, "<t1|b>", 1, 2, "<s1|b>", "<s2|b>"),
    (T_ADJ_S, "<t1|b>", 2, 2, "<s2|b>", "<s1|b>"),
    (T_ADJ_S, "<t2|b>", 1, 1, "<s2|b>", "<s1|b>"),
    (T_ADJ_S, "<t2|b>", 2, 1, "<s1|b>", "<s2|b>"),
]


class TestDoublyCommute:
    def test_free_pair_doubly_commutes(self):
        for theta in (THETA_ID_22, THETA_FLIP_22):
            assert check_doubly_commute(free_pair(theta), 4).ok

    def test_twin_self_loops(self):
        pp = PairPresentation(THETA_ID_11, ("b",),
                              {("b", 1): "b"}, {("b", 1): "b"})
        assert check_doubly_commute(pp).ok

    def test_loop_against_free(self):
        # S acts as the identity here, so everything doubly commutes
        pp = PairPresentation(THETA_ID_11, ("b",), {("b", 1): "b"}, {})
        assert check_doubly_commute(pp, 3).ok

    def test_bilateral_pair_is_doubly_commuting(self):
        pp = PairPresentation(THETA_ID_11, ("b", "c"),
                              {("b", 1): "c"}, {("c", 1): "b"})
        assert check_doubly_commute(pp).ok

    def test_free_one_by_one_pair_is_doubly_commuting(self):
        # the bishift: T* S and S T* agree everywhere, both vanishing
        # on pure-S vectors
        pp = free_pair(THETA_ID_11)
        assert check_doubly_commute(pp, 4).ok

    def test_cyclic_twist_breaks_doubly_commutation_without_edges(self):
        # commuting and jointly injective, yet the adjoint displays
        # fail: the 4-cycle twist has no product structure to cancel
        # against, so T* S picks up cross terms
        pp = free_pair(THETA_CYCLIC_22)
        assert check_theta_commute(pp).ok
        assert check_joint_isometry(pp).ok
        report = check_doubly_commute(pp)
        assert not report.ok

    def test_involutive_twist_keeps_doubly_commutation(self):
        flip = Theta(2, 2, {(1, 1): (1, 1), (1, 2): (2, 1),
                            (2, 1): (1, 2), (2, 2): (2, 2)})
        assert check_doubly_commute(free_pair(flip)).ok

    def test_edge_free_doubly_commutation_is_exactly_involutivity(self):
        # observed and frozen: over every 2x2 twist, the edge-free pair
        # passes the adjoint displays iff the twist is an involution
        # (10 of the 24)
        grid = [(i, j) for i in (1, 2) for j in (1, 2)]
        passed = set()
        involutive = set()
        for perm in permutations(grid):
            theta = Theta(2, 2, dict(zip(grid, perm)))
            key = tuple(sorted(theta.map.items()))
            if check_doubly_commute(free_pair(theta)).ok:
                passed.add(key)
            if all(theta.map[theta.map[k]] == k for k in theta.map):
                involutive.add(key)
        assert len(involutive) == 10
        assert passed == involutive

    def test_collision_pair_fails_through_the_pred_contract(self):
        # theta-commuting but jointly non-injective: the adjoint walk
        # finds two S-predecessors and the report records the breakdown
        pp = PairPresentation(THETA_ID_11, ("a", "c"),
                              {("c", 1): "a"}, {("a", 1): "a"})
        report = check_doubly_commute(pp)
        assert not report.ok
        assert any(f.identity == "pred-contract" for f in report.failures)

    def test_default_depth_is_base_plus_two(self):
        pp = free_pair(THETA_ID_11)
        assert check_doubly_commute(pp) == check_doubly_commute(pp, 3)

    def test_repeated_calls_give_equal_reports(self):
        # every depth from 1 on lists the same witnesses; depth 0 holds
        # only e_b, where the edge-free twist passes
        pp = free_pair(THETA_CYCLIC_22)
        report = check_doubly_commute(pp)
        assert not report.ok
        for depth in (1, 2, len(pp.base) + 2, 7):
            assert check_doubly_commute(pp, depth) == report
        assert check_doubly_commute(pp, 0) == check_doubly_commute(pp, 0) \
            == CommutationReport()

    def test_hypotheses_flag_is_the_verdict(self):
        pp = free_pair(THETA_CYCLIC_22)
        hyp = check_hypotheses(pp)
        assert not hyp.doubly_commuting
        assert hyp.doubly_commuting == check_doubly_commute(pp).ok

    def test_cyclic_twist_failures_pinned(self):
        # the whole report of the 4-cycle twist, entry for entry: the
        # listing must not reorder, drop or add failures
        report = check_doubly_commute(free_pair(THETA_CYCLIC_22))
        got = [(f.identity, repr(f.element), f.i, f.j, repr(f.lhs),
                repr(f.rhs)) for f in report.failures]
        assert got == CYCLIC_TWIST_FAILURES

    def test_collision_pair_failures_pinned(self):
        pp = PairPresentation(THETA_ID_11, ("a", "c"),
                              {("c", 1): "a"}, {("a", 1): "a"})
        report = check_doubly_commute(pp)
        assert report.failures == (CommutationFailure(
            "pred-contract", None, 0, 0,
            "<a> has 2 distinct S-predecessors [(1, <c>), (1, <t1|c>)]: "
            "the S-family is not injective on the basis", None),)


class TestJointIsometry:
    def test_free_pair_ok(self):
        assert check_joint_isometry(free_pair(THETA_ID_22)).ok

    def test_collision_reported_by_the_base_vector_walk(self):
        # one entry, the walk's own text; the mirror pair's collision
        # is the same walk read for the T-family
        pp = PairPresentation(THETA_ID_11, ("a", "c"),
                              {("c", 1): "a"}, {("a", 1): "a"})
        text = ("<a> has 2 distinct S-predecessors [(1, <c>), "
                "(1, <t1|c>)]: the S-family is not injective on the basis")
        assert check_joint_isometry(pp).violations == (text,)
        assert check_joint_isometry(mirror(pp)).violations == (
            "T-family, read in the mirror pair: " + text,)

    def test_random_commuting_pairs_verdicts_match_pred_behavior(self):
        for pp in commuting_pairs(359, 15):
            ok = check_joint_isometry(pp).ok
            saw_violation = False
            try:
                for x in enumerate_pair(pp, len(pp.base) + 2):
                    s_pred(pp, x)
                    t_pred(pp, x)
            except ContractViolation:
                saw_violation = True
            assert ok == (not saw_violation)


# -- base-vector rules against the window sweeps ---------------------------------

# the random pairs' windows are swept up to this many free words;
# larger windows cost the suite seconds each
SWEEP_CAP = 2_500


def _collisions(pp, elems):
    # the window sweep the joint rule replaces: every pair of (label,
    # element) in elems that one family maps to the same element
    violations = []
    for name, count, fn in (("S", pp.m, _s_apply_raw),
                            ("T", pp.n, _t_apply_raw)):
        images = {}
        for x in elems:
            for label in range(1, count + 1):
                y = fn(pp, label, x)
                prev = images.get(y)
                if prev is not None and prev != (label, x):
                    violations.append((name, prev, (label, x), y))
                else:
                    images[y] = (label, x)
    return violations


def _doubly_reports_match(pp, depth, elems=None):
    # the report at depth against the reference sweeps: ok is the
    # verdict of the whole window, and the failures are listed at the
    # witnesses
    if elems is None:
        elems = enumerate_pair(pp, depth)
    failures = _doubly_sweep(pp, elems)
    report = check_doubly_commute(pp, depth)
    assert report.ok == (not failures), (pp, depth)
    _listed_at_the_witnesses(pp, report, depth)
    return failures


def _isometry_row(row):
    # the oracle rows for S_i^T S_j = delta_ij I and sum S_i S_i^T <= I,
    # per family
    return row.startswith(("s[", "t[", "sum "))


class TestBaseVectorRules:
    def test_acceptance_candidates_match_the_sweeps(self, pair_space):
        # both rules are exact both ways: the joint verdict is the
        # collision sweep's, and the doubly verdict is the window
        # sweep's at depths 0, 1, 2 and the default |base| + 2, where
        # the report lists the sweep's failures at the witnesses.  The
        # fixture's injective flag is the joint decider's verdict.  A
        # failing walk names two preimages of one e_c, each within
        # |base| letters, so depth |base| holds the collision
        kinds = Counter()
        shallow_only = 0
        for pp, commuting, injective in pair_space:
            if not commuting:
                continue
            report = check_doubly_commute(pp)
            _listed_at_the_witnesses(pp, report, len(pp.base) + 2)
            doubly = report.ok
            elems = enumerate_pair(pp, len(pp.base) + 2 * injective)
            assert injective == (not _collisions(pp, elems)), pp
            passes_at_0 = not _doubly_reports_match(pp, 0)
            _doubly_reports_match(pp, 1)
            fails_at_2 = _doubly_reports_match(pp, 2)
            if injective:
                # the default window holds the depth-2 one, so only a
                # pair clean at depth 2 needs the default sweep
                assert doubly == (not (fails_at_2
                                       or _doubly_sweep(pp, elems))), pp
            kinds[injective, doubly] += 1
            shallow_only += injective and passes_at_0 and not doubly
        assert kinds == KINDS_ON_THE_ACCEPTANCE_SPACE
        # a pair that fails only at T_l e_b passes the depth-0 window
        assert shallow_only

    def test_random_pairs_match_the_sweeps_at_two_windows(self):
        kinds = Counter()
        compared = Counter()
        # the first stream leaves out one-node pairs, whose windows cost
        # the most and cover the least; the second, with one S-label,
        # brings windows of five and six nodes under the cap
        pairs = [pp for pp in commuting_pairs(14, 300, max_nodes=6,
                                              max_m=3, max_n=3)
                 if len(pp.base) > 1]
        pairs += commuting_pairs(16, 150, max_nodes=6, max_m=1, max_n=2)
        for pp in pairs:
            rule = check_joint_isometry(pp).ok
            for depth in (0, 1, 2):
                if _free_word_bound(pp, depth) <= SWEEP_CAP:
                    _doubly_reports_match(pp, depth)
            for extra in (0, 2):
                depth = len(pp.base) + 2 + extra
                if _free_word_bound(pp, depth) > SWEEP_CAP:
                    break
                elems = enumerate_pair(pp, depth)
                assert rule == (not _collisions(pp, elems)), (pp, depth)
                failures = _doubly_reports_match(pp, depth, elems)
                compared[len(pp.base), extra] += 1
                if not extra:
                    kinds[rule, not failures] += 1
        assert min(compared[base, 2] for base in range(1, 7)) >= 10
        assert set(kinds) == {(False, False), (True, False), (True, True)}

    def test_oracle_agrees_with_the_rules(self):
        # the matrix oracle never calls the rules: its isometry rows
        # fail exactly where the joint rule refuses, and a jointly
        # isometric pair passes every relation iff it doubly commutes
        kinds = Counter()
        for pp in commuting_pairs(15, 120, max_nodes=4, max_m=2, max_n=2):
            rows = verify_relations(materialize(pp, len(pp.base) + 2)).rows
            joint = check_joint_isometry(pp).ok
            assert joint == (not any(map(_isometry_row, rows))), (pp, rows)
            if joint:
                doubly = check_doubly_commute(pp).ok
                assert doubly == (not rows), (pp, rows)
                kinds[doubly] += 1
        assert kinds[True] and kinds[False]

    def test_passing_pairs_sweep_no_window(self, monkeypatch):
        # no passing pair may build or sweep a window: six nodes with
        # three labels a side, whose default window holds 501,918 free
        # words; a product of two 2-label 60-node families; and the
        # path pair of 1,000 nodes
        rng = random.Random(30)
        P, Q = (Presentation(2, nodes, random_edges(rng, nodes, 2))
                for nodes in ([f"p{q}" for q in range(60)],
                              [f"q{q}" for q in range(60)]))
        pairs = (free_pair(Theta.identity(3, 3),
                           tuple(f"b{q}" for q in range(6))),
                 product_pair(P, Q), path_pair(1000))
        monkeypatch.setattr("rowiso.pair._cartesian", _forbidden)
        for pp in pairs:
            assert check_joint_isometry(pp).ok
            assert check_doubly_commute(pp).ok

    def test_each_half_of_the_rule_is_pinned(self, pair_space):
        # the two halves of the doubly rule, each read its own way on
        # the jointly isometric acceptance candidates: the node half
        # from the chain deciders' dead nodes, and the label half, at
        # the default depth, as the twist being an involution
        halves = Counter()
        for pp, _, injective in pair_space:
            if not injective:
                continue
            s_dead, t_dead = dead_nodes(pp), dead_nodes(mirror(pp))
            node = all(c in dead for edges, dead in ((pp.s_edges, t_dead),
                                                     (pp.t_edges, s_dead))
                       for (b, _), c in edges.items() if b in dead)
            label = all(pp.theta.map[v] == k
                        for k, v in pp.theta.map.items())
            assert check_doubly_commute(pp).ok == (node and label), pp
            halves[node, label] += 1
        assert halves == DOUBLY_HALVES_ON_THE_ACCEPTANCE_SPACE


# (jointly isometric, doubly commuting) over the 4,487 commuting
# acceptance candidates
KINDS_ON_THE_ACCEPTANCE_SPACE = {(False, False): 2100, (True, False): 1072,
                                 (True, True): 1315}

# (node half holds, label half holds) over the 2,387 jointly isometric
# acceptance candidates
DOUBLY_HALVES_ON_THE_ACCEPTANCE_SPACE = {
    (True, True): 1315, (True, False): 1040, (False, True): 8,
    (False, False): 24}


# -- the doubly verdict without the window ---------------------------------------


def _failing_at_a_base_vector():
    # an acceptance candidate, jointly isometric, whose displays
    # already fail at e_b
    return PairPresentation(THETA_FLIP_22, ("a", "b"),
                            {("b", 2): "a"}, {("b", 1): "a"})


class TestDoublyVerdictWithoutWindow:
    @pytest.mark.parametrize("build", (
        lambda: free_pair(THETA_CYCLIC_22), _failing_at_a_base_vector),
        ids=("cyclic-twist", "failing-at-e_b"))
    def test_verdicts_build_no_window(self, monkeypatch, build):
        pp = build()
        monkeypatch.setattr("rowiso.pair._cartesian", _forbidden)
        report = check_doubly_commute(pp)
        assert not report.ok
        assert not check_hypotheses(pp).doubly_commuting
        assert not PREDICATES["doubly-commuting"](pp)
        failures = report.failures
        assert repr(report) == f"CommutationReport({len(failures)} failures)"
        monkeypatch.undo()
        assert failures == _doubly_sweep(
            pp, _witnesses(pp, len(pp.base) + 2))

    def test_verdicts_run_no_sweep(self, monkeypatch):
        pp = free_pair(THETA_CYCLIC_22)
        monkeypatch.setattr("rowiso.pair._cartesian", _forbidden)
        verdicts = [check_doubly_commute(pp, d).ok for d in range(5)]
        # the cyclic twist fails at T_l e_b, beyond the depth-0 window
        assert verdicts == [True, False, False, False, False]

    def test_pair_not_jointly_isometric_reports_its_joint_text(
            self, monkeypatch):
        # the collision pair on twelve nodes, two labels a side: its
        # default window is far over the budget, and none is built; the
        # mirror pair reports the T-family's text
        nodes = ("a", "c") + tuple(f"b{q}" for q in range(10))
        pp = PairPresentation(THETA_ID_22, nodes,
                              {("c", 1): "a"}, {("a", 1): "a"})
        assert _free_word_bound(pp, len(nodes) + 2) > PAIR_WINDOW_BUDGET
        monkeypatch.setattr("rowiso.pair._cartesian", _forbidden)
        text = ("<a> has 2 distinct S-predecessors [(1, <c>), "
                "(1, <t1|c>)]: the S-family is not injective on the basis")
        for q, prefix in ((pp, ""),
                          (mirror(pp), "T-family, read in the mirror pair: ")):
            entry = (CommutationFailure("pred-contract", None, 0, 0,
                                        prefix + text, None),)
            assert check_doubly_commute(q).failures == entry
            for depth in range(4):
                assert check_doubly_commute(q, depth).failures == entry

    def test_dropped_failing_pair_frees_without_the_cycle_collector(self):
        # a report holds elements, not its pair, so a dropped pair goes
        # at once, while its report lives on
        pp = free_pair(THETA_CYCLIC_22)
        gc.disable()
        try:
            report = check_doubly_commute(pp)
            assert not report.ok
            pair_ref = weakref.ref(pp)
            del pp
            assert pair_ref() is None
            assert len(report.failures) == len(CYCLIC_TWIST_FAILURES)
            del report
            assert pair_ref() is None
        finally:
            gc.enable()


# -- mirror -----------------------------------------------------------------------


class TestMirror:
    def test_involution(self):
        pp = PairPresentation(THETA_FLIP_22, ("a", "b"),
                              {("a", 1): "b"}, {("b", 2): "a"})
        assert mirror(mirror(pp)) is pp
        tw = mirror(pp)
        assert tw.s_edges == pp.t_edges
        assert tw.t_edges == pp.s_edges
        assert tw.m == pp.n and tw.n == pp.m

    def test_twin_keeps_only_a_weak_reference_back(self):
        pp = PairPresentation(THETA_FLIP_22, ("a", "b"),
                              {("a", 1): "b"}, {("b", 2): "a"})
        tw = mirror(pp)
        original = pp.to_dict()
        del pp
        again = mirror(tw)
        assert again.to_dict() == original
        assert mirror(again) is tw

    def test_dropped_pair_frees_its_twin(self):
        # without a reference cycle, a pair that took T-predecessors
        # goes, with its twin and both caches, as soon as it is dropped
        pp = PairPresentation(THETA_ID_11, ("a", "b"),
                              {("a", 1): "a"}, {("b", 1): "b"})
        gc.disable()
        try:
            check_doubly_commute(pp)
            assert slocinski(pp).exists
            pair_ref = weakref.ref(pp)
            twin_ref = weakref.ref(mirror(pp))
            assert twin_ref()._cache
            del pp
            assert pair_ref() is None
            assert twin_ref() is None
        finally:
            gc.enable()

    def test_mirror_exchanges_the_actions(self):
        for pp in commuting_pairs(367, 12):
            tw = mirror(pp)
            assert check_theta_commute(tw).ok
            for x in enumerate_pair(pp, 2):
                xm = mirror_elem(pp, x)
                for i in range(1, pp.m + 1):
                    assert mirror_elem(pp, s_apply(pp, i, x)) == \
                        t_apply(tw, i, xm)
                for j in range(1, pp.n + 1):
                    assert mirror_elem(pp, t_apply(pp, j, x)) == \
                        s_apply(tw, j, xm)

    def test_pair_commutes_iff_its_mirror_does(self, pair_space):
        # what lets t_pred, check_doubly_commute and the deciders skip
        # the mirror's own guard
        for pp, commuting, _ in pair_space:
            assert check_theta_commute(mirror(pp)).ok == commuting, pp
        rng = random.Random(6007)
        verdicts = set()
        for _ in range(3000):
            pp = random_pair(rng, max_nodes=5, max_m=3, max_n=3)
            ok = check_theta_commute(pp).ok
            assert check_theta_commute(mirror(pp)).ok == ok, pp
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_mirror_elem_round_trips(self):
        for pp in commuting_pairs(373, 12):
            tw = mirror(pp)
            for x in enumerate_pair(pp, 3):
                assert mirror_elem(tw, mirror_elem(pp, x)) == x


def swapped_theta(theta):
    """The mirror's theta by hand: theta(i, j) = (i', j') gives
    (j', i') -> (j, i)."""
    return Theta(theta.n, theta.m, {(j2, i2): (j, i) for (i, j), (i2, j2)
                                    in theta.map.items()})


class TestMirrorSharesTheFamilies:
    def test_matches_a_freshly_built_mirror_on_every_candidate(
            self, pair_space):
        for candidate, commuting, _ in pair_space:
            pp = PairPresentation(candidate.theta, candidate.base,
                                  candidate.s_edges, candidate.t_edges)
            twin = mirror(pp)
            fresh = PairPresentation(swapped_theta(pp.theta), pp.base,
                                     pp.t_edges, pp.s_edges)
            assert twin == fresh and hash(twin) == hash(fresh)
            assert (twin.node_index, twin.s_in, twin.t_in, twin.t_sources) \
                == (fresh.node_index, fresh.s_in, fresh.t_in,
                    fresh.t_sources)
            assert validate_pair(twin) == validate_pair(fresh)
            assert check_theta_commute(twin) == check_theta_commute(fresh)
            if commuting:
                assert outcome(lambda: check_joint_isometry(twin)) == \
                    outcome(lambda: check_joint_isometry(fresh)), pp
                assert outcome(lambda: _base_preds(twin)) == \
                    outcome(lambda: _base_preds(fresh)), pp

    def test_the_twin_holds_the_pairs_own_families(self, monkeypatch):
        pp = PairPresentation(THETA_CYCLIC_22, ("a", "b"),
                              {("a", 1): "b"}, {("b", 2): "a"})
        report = validate_pair(pp)
        built = []
        init = Presentation.__init__
        monkeypatch.setattr(Presentation, "__init__",
                            lambda self, *a: built.append(a) or init(self, *a))
        twin = mirror(pp)
        assert built == []  # mirror builds no family
        assert twin._s_family is pp._t_family
        assert twin._t_family is pp._s_family
        assert twin.base is pp.base
        assert validate_pair(twin) is report  # both clean: one report
        assert mirror(twin) is pp and mirror(mirror(pp)) is pp

    def test_an_invalid_pairs_twin_reports_its_own_families(self):
        pp = PairPresentation(THETA_ID_11, ("a", "b", "a"),
                              {("a", 1): "b", ("b", 1): "b"},
                              {("a", 9): "a"})
        twin = mirror(pp)
        fresh = PairPresentation(THETA_ID_11, pp.base, pp.t_edges,
                                 pp.s_edges)
        assert validate_pair(pp).violations[0].startswith("s-family: base")
        assert validate_pair(twin) == validate_pair(fresh)
        assert not validate_pair(twin).ok

    def test_a_forged_theta_is_still_refused(self):
        forged = _forge_theta(2, 1, {(1, 1): (1, 1), (2, 1): (1, 1)},
                              {(1, 1): (2, 1), (2, 1): (2, 1)})
        pp = PairPresentation(forged, ("b",), {}, {})
        # two keys meet in the swapped map, so its domain falls short
        with pytest.raises(ValidationError, match="theta domain must be"):
            mirror(pp)


# -- structure ---------------------------------------------------------------------


class TestPairData:
    def test_validation_separates_families(self):
        pp = PairPresentation(THETA_ID_11, ("a", "b"),
                              {("a", 1): "b", ("b", 1): "b"},
                              {("a", 9): "a"})
        report = validate_pair(pp)
        assert any(v.startswith("s-family") and "in-degree" in v
                   for v in report.violations)
        assert any(v.startswith("t-family") and "label" in v
                   for v in report.violations)

    def test_same_node_may_receive_both_families(self):
        pp = PairPresentation(THETA_ID_11, ("a", "b"),
                              {("a", 1): "b"}, {("a", 1): "b"})
        assert validate_pair(pp).ok

    def test_dict_round_trip(self):
        pp = PairPresentation(THETA_FLIP_22, ("a", "b"),
                              {("a", 2): "b"}, {("b", 1): "a"})
        doc = pp.to_dict()
        assert doc["theta"] == THETA_FLIP_22.to_quadruples()
        assert parse(json.dumps(doc)) == pp
        # names that do not compare: edges by source in base order
        pp = PairPresentation(THETA_FLIP_22, (2, "a"), {("a", 2): 2},
                              {("a", 1): 2, (2, 1): "a"})
        assert validate_pair(pp).ok
        doc = pp.to_dict()
        assert doc["s_edges"] == [["a", 2, 2]]
        assert doc["t_edges"] == [[2, 1, "a"], ["a", 1, 2]]
        rows = {key: {(src, label): dst for src, label, dst in doc[key]}
                for key in ("s_edges", "t_edges")}
        assert PairPresentation(THETA_FLIP_22, doc["base"], rows["s_edges"],
                                rows["t_edges"]) == pp

    def test_elem_repr(self):
        assert repr(PairElem((), (), "b")) == "<b>"
        assert repr(PairElem((1,), (2, 1), "c")) == "<t1 s2 s1|c>"

    def test_elem_value_semantics(self):
        x = PairElem((2, 1), (1,), "c")
        y = PairElem(t_prefix=(2, 1), s_prefix=(1,), node="c")
        assert x == y and x is not y
        assert hash(x) == hash(y)
        assert len({x, y, PairElem((2, 1), (), "c")}) == 2
        assert (x.t_prefix, x.s_prefix, x.node) == ((2, 1), (1,), "c")
        assert x.depth == 3
        assert PairElem((), (), "b").depth == 0
        assert repr([(1, x)]) == "[(1, <t2 t1 s1|c>)]"

    def test_equality_and_hash_ignore_insertion_order(self):
        theta = dict(THETA_CYCLIC_22.map.items())
        s_edges = {("a", 1): "b", ("b", 2): "c"}
        t_edges = {("c", 1): "a", ("a", 2): "a"}
        pp = PairPresentation(Theta(2, 2, theta), ("a", "b", "c"),
                              s_edges, t_edges)
        qq = PairPresentation(Theta(2, 2, dict(reversed(theta.items()))),
                              ("a", "b", "c"),
                              dict(reversed(s_edges.items())),
                              dict(reversed(t_edges.items())))
        assert pp == qq and hash(pp) == hash(qq)
        assert pp != PairPresentation(Theta(2, 2, theta), ("a", "b", "c"),
                                      t_edges, s_edges)
        assert pp != PairPresentation(THETA_ID_22, ("a", "b", "c"),
                                      s_edges, t_edges)

    def test_node_names_that_do_not_compare(self):
        pp = PairPresentation(THETA_ID_11, (1, "a"), {(1, 1): "a"},
                              {(1, 1): 1})
        assert validate_pair(pp).ok and validate_pair(mirror(pp)).ok
        assert not check_theta_commute(pp).ok
        assert not check_theta_commute(mirror(pp)).ok

    def test_require_commuting_error(self):
        pp = PairPresentation(THETA_ID_11, ("a", "b"),
                              {("a", 1): "b"}, {("a", 1): "a"})
        with pytest.raises(ContractViolation):
            pp.require_commuting()


# -- the element guard -------------------------------------------------------------


def reference_require_canonical(pp, x):
    """``pair._require_canonical`` before the inline check."""
    if not isinstance(x, PairElem):
        raise ValidationError(
            f"expected a PairElem, got {type(x).__name__} {x!r}")
    if x.node not in pp.node_index:
        raise ValidationError(f"element node {x.node!r} is not a base node")
    validate_word(x.s_prefix, pp.m)
    validate_word(x.t_prefix, pp.n)
    if x.s_prefix and (x.node, x.s_prefix[-1]) in pp.s_edges:
        raise ValidationError(
            f"element {x!r} is not canonical: S-letter absorbs")
    if x.t_prefix and x.node in pp.t_sources:
        _, arriving = commute_t_right(pp.theta, x.s_prefix, x.t_prefix[-1])
        if (x.node, arriving) in pp.t_edges:
            raise ValidationError(
                f"element {x!r} is not canonical: T-letter absorbs")


def outcome(call):
    """The value of ``call()``, or the type and text of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def guarded_calls(pp, x):
    """Every entry point that guards a pair element, on x."""
    part = SubspaceDesc((), frozenset(pp.base[:1]), pp)
    return {
        "s_apply": lambda: s_apply(pp, 1, x),
        "t_apply": lambda: t_apply(pp, pp.n, x),
        "s_pred": lambda: s_pred(pp, x),
        "t_pred": lambda: t_pred(pp, x),
        "s_membership": lambda: s_membership(pp, x),
        "t_membership": lambda: t_membership(pp, x),
        "s_in_V": lambda: s_in_V(pp, x),
        "t_in_V": lambda: t_in_V(pp, x),
        "require_canonical": lambda: pp.require_canonical(x),
        "contains": lambda: part.contains(x),
    }


def mutants(pp, x):
    """Elements near x that the guard must judge as the reference does:
    letters of the wrong type or out of range, an absorbing innermost
    letter of either family, foreign nodes, a plain tuple and an equal
    copy that is another object."""
    t, s, b = x
    out = [PairElem(tuple(list(t)), tuple(list(s)), b), tuple(x),
           PairElem(t, s, "z"), PairElem(t, s, 0)]
    for bad in (True, 1.0, "1", 0):
        out += [PairElem(t[:-1] + (bad,), s, b) if t else
                PairElem((bad,), s, b),
                PairElem(t, (bad,) + s[1:], b) if s else
                PairElem(t, (bad,), b)]
    out += [PairElem(t + (pp.n + 1,), s, b), PairElem(t, s + (pp.m + 1,), b)]
    for i in range(1, pp.m + 1):
        if (b, i) in pp.s_edges:
            out.append(PairElem(t, s + (i,), b))  # S-letter absorbs
    for j in range(1, pp.n + 1):
        out.append(PairElem(t + (j,), s, b))  # absorbs if pushed onto an edge
    return out


class TestPairGuard:
    def test_matches_the_reference_on_the_acceptance_windows(self,
                                                             pair_space):
        # every listed element and an equal copy of it; the mutants of
        # every fourth candidate's elements
        injective = [pp for pp, _, ok in pair_space if ok]
        judged = refused = 0
        for k, pp in enumerate(injective):
            for x in enumerate_pair(pp, 3):
                assert outcome(lambda: _require_canonical(pp, x)) is None
                copy = PairElem(tuple(list(x.t_prefix)),
                                tuple(list(x.s_prefix)), x.node)
                for y in mutants(pp, x) if k % 4 == 0 else [copy]:
                    want = outcome(lambda: reference_require_canonical(pp, y))
                    got = outcome(lambda: _require_canonical(pp, y))
                    assert got == want, (pp, x, y)
                    judged += 1
                    refused += want is not None
        assert refused > 400_000 and judged - refused > 100_000

    def test_every_entry_point_judges_as_the_reference(self, pair_space):
        injective = [pp for pp, _, ok in pair_space if ok]
        for pp in injective[::25]:
            listed = {x: x for x in enumerate_pair(pp, 3)}
            for x in enumerate_pair(pp, 2):
                for y in mutants(pp, x):
                    want = outcome(lambda: reference_require_canonical(pp, y))
                    calls = guarded_calls(pp, y).items()
                    if want is None:
                        # accepted: the answers of the listed equal object
                        same = guarded_calls(pp, listed[y])
                        for name, call in calls:
                            assert outcome(call) == outcome(same[name]), \
                                (pp, y, name)
                    else:
                        for name, call in calls:
                            assert outcome(call) == want, (pp, y, name)

    def test_kernel_shortcuts_equal_a_full_reduction(self, pair_space):
        stripped = 0
        for pp, _, _ in pair_space[::5]:
            for x in enumerate_pair(pp, 3):
                t, s, b = x
                for j in range(1, pp.n + 1):
                    assert _t_apply_raw(pp, j, x) == \
                        _reduce_raw(pp, (j,) + t, s, b), (pp, x, j)
                for i in range(1, pp.m + 1):
                    t2, i2 = commute_s_left(pp.theta, i, t)
                    assert _s_apply_raw(pp, i, x) == \
                        _reduce_raw(pp, t2, (i2,) + s, b), (pp, x, i)
                # the outer letter strips on any pair, commuting or not
                if t:
                    assert _t_pred_raw(pp, x) == \
                        (t[0], _reduce_raw(pp, t[1:], s, b)), (pp, x)
                    stripped += 1
                if s:
                    i0, w = commute_s_right(pp.theta, t, s[0])
                    assert _s_pred_raw(pp, x) == \
                        (i0, _reduce_raw(pp, w, s[1:], b)), (pp, x)
                    stripped += 1
        assert stripped > 100_000


class TestMalformedPairElements:
    # a word that is not a tuple, or a node that cannot be hashed, is
    # refused at the guard; before, a list word passed it and broke in
    # a kernel, and an int word or a list node raised TypeError
    PP = PairPresentation(THETA_ID_22, ("a", "b"), {("a", 1): "b"},
                          {("b", 2): "a"})
    CASES = [
        (PairElem([1], (), "a"), "element T-word [1] is not a tuple"),
        (PairElem((), [1, 2], "a"), "element S-word [1, 2] is not a tuple"),
        (PairElem(5, (), "a"), "element T-word 5 is not a tuple"),
        (PairElem((), None, "b"), "element S-word None is not a tuple"),
        (PairElem((), (), ["a"]), "element node ['a'] is not hashable"),
        (PairElem((1,), (2,), {}), "element node {} is not hashable"),
    ]

    @pytest.mark.parametrize("name", sorted(guarded_calls(PP, None)))
    def test_refused_at_every_entry_point(self, name):
        for x, text in self.CASES:
            call = guarded_calls(self.PP, x)[name]
            assert outcome(call) == (ValidationError, text), x
