"""Joint two-family presentation tests.

Canonical names are cross-checked against a congruence-closure oracle:
starting from a raw mixed word over both alphabets it explores ALL
theta-swaps (in both directions) and all innermost absorptions, then
reads the canonical name off the minimal-length states.  The oracle
never calls the library's reducer.
"""

import random
from itertools import permutations, product

import pytest

from rowiso.errors import ContractViolation, ValidationError
from rowiso.pair import (
    CommutationFailure,
    PairElem,
    PairPresentation,
    check_doubly_commute,
    check_joint_isometry,
    check_theta_commute,
    enumerate_pair,
    free_pair,
    mirror,
    mirror_elem,
    reduce_elem,
    s_apply,
    s_pred,
    t_apply,
    t_pred,
    validate_pair,
)
from rowiso.slocinski import check_hypotheses
from rowiso.words import Theta, commute_t_right, normalize

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
    nodes = tuple("abc"[: rng.randint(1, max_nodes)])
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    domain = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    shuffled = list(domain)
    rng.shuffle(shuffled)
    theta = Theta(m, n, dict(zip(domain, shuffled)))

    def pick_edges(labels):
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

    return PairPresentation(theta, nodes, pick_edges(m), pick_edges(n))


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


# -- reduce_elem ----------------------------------------------------------------


class TestReduce:
    def test_free_pair_is_already_canonical(self):
        pp = free_pair(THETA_ID_22)
        assert reduce_elem(pp, (1,), (2,), "b") == PairElem((1,), (2,), "b")

    def test_both_letters_absorb(self):
        pp = PairPresentation(THETA_ID_11, ("b",),
                              {("b", 1): "b"}, {("b", 1): "b"})
        assert reduce_elem(pp, (1,), (1,), "b") == PairElem((), (), "b")

    def test_flip_theta_partial_absorption(self):
        # the t-letter flips while passing the s-letter and may then
        # absorb; the closure oracle pins the unique outcome
        pp = PairPresentation(THETA_FLIP_22, ("b",), {("b", 1): "b"}, {})
        got = reduce_elem(pp, (2,), (1,), "b")
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
                got = reduce_elem(pp, t, s, b)
                assert got == closure_canonical(pp, t, s, b)
                assert_canonical(pp, got)

    def test_non_commuting_pair_refused(self):
        pp = PairPresentation(THETA_ID_11, ("a", "b"),
                              {("a", 1): "b"}, {("a", 1): "a"})
        assert not check_theta_commute(pp).ok
        with pytest.raises(ContractViolation):
            reduce_elem(pp, (1,), (1,), "a")

    def test_bad_inputs(self):
        pp = free_pair(THETA_ID_22)
        with pytest.raises(ValidationError):
            reduce_elem(pp, (), (), "zz")
        with pytest.raises(ValidationError):
            reduce_elem(pp, (3,), (), "b")


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


# check_doubly_commute(free_pair(THETA_CYCLIC_22)).failures, as
# (identity, element, i, j, lhs, rhs) with elements by repr
T_ADJ_S = "t-adjoint-of-s"
CYCLIC_TWIST_FAILURES = [
    (T_ADJ_S, "<t1|b>", 1, 2, "<s1|b>", "<s2|b>"),
    (T_ADJ_S, "<t1|b>", 2, 2, "<s2|b>", "<s1|b>"),
    (T_ADJ_S, "<t2|b>", 1, 1, "<s2|b>", "<s1|b>"),
    (T_ADJ_S, "<t2|b>", 2, 1, "<s1|b>", "<s2|b>"),
    (T_ADJ_S, "<t1 t1|b>", 1, 2, "<t2 s1|b>", "<t2 s2|b>"),
    (T_ADJ_S, "<t1 t1|b>", 2, 2, "<t2 s2|b>", "<t2 s1|b>"),
    (T_ADJ_S, "<t1 t2|b>", 1, 2, "<t1 s2|b>", "<t1 s1|b>"),
    (T_ADJ_S, "<t1 t2|b>", 2, 2, "<t1 s1|b>", "<t1 s2|b>"),
    (T_ADJ_S, "<t2 t1|b>", 1, 1, "<t2 s2|b>", "<t2 s1|b>"),
    (T_ADJ_S, "<t2 t1|b>", 2, 1, "<t2 s1|b>", "<t2 s2|b>"),
    (T_ADJ_S, "<t2 t2|b>", 1, 1, "<t1 s1|b>", "<t1 s2|b>"),
    (T_ADJ_S, "<t2 t2|b>", 2, 1, "<t1 s2|b>", "<t1 s1|b>"),
    (T_ADJ_S, "<t1 s1|b>", 1, 2, "<s1 s1|b>", "<s2 s1|b>"),
    (T_ADJ_S, "<t1 s1|b>", 2, 2, "<s2 s1|b>", "<s1 s1|b>"),
    (T_ADJ_S, "<t1 s2|b>", 1, 2, "<s1 s2|b>", "<s2 s2|b>"),
    (T_ADJ_S, "<t1 s2|b>", 2, 2, "<s2 s2|b>", "<s1 s2|b>"),
    (T_ADJ_S, "<t2 s1|b>", 1, 1, "<s2 s1|b>", "<s1 s1|b>"),
    (T_ADJ_S, "<t2 s1|b>", 2, 1, "<s1 s1|b>", "<s2 s1|b>"),
    (T_ADJ_S, "<t2 s2|b>", 1, 1, "<s2 s2|b>", "<s1 s2|b>"),
    (T_ADJ_S, "<t2 s2|b>", 2, 1, "<s1 s2|b>", "<s2 s2|b>"),
    (T_ADJ_S, "<t1 t1 t1|b>", 1, 2, "<t2 t2 s1|b>", "<t2 t2 s2|b>"),
    (T_ADJ_S, "<t1 t1 t1|b>", 2, 2, "<t2 t2 s2|b>", "<t2 t2 s1|b>"),
    (T_ADJ_S, "<t1 t1 t2|b>", 1, 2, "<t2 t1 s2|b>", "<t2 t1 s1|b>"),
    (T_ADJ_S, "<t1 t1 t2|b>", 2, 2, "<t2 t1 s1|b>", "<t2 t1 s2|b>"),
    (T_ADJ_S, "<t1 t2 t1|b>", 1, 2, "<t1 t2 s2|b>", "<t1 t2 s1|b>"),
    (T_ADJ_S, "<t1 t2 t1|b>", 2, 2, "<t1 t2 s1|b>", "<t1 t2 s2|b>"),
    (T_ADJ_S, "<t1 t2 t2|b>", 1, 2, "<t1 t1 s1|b>", "<t1 t1 s2|b>"),
    (T_ADJ_S, "<t1 t2 t2|b>", 2, 2, "<t1 t1 s2|b>", "<t1 t1 s1|b>"),
    (T_ADJ_S, "<t2 t1 t1|b>", 1, 1, "<t2 t2 s2|b>", "<t2 t2 s1|b>"),
    (T_ADJ_S, "<t2 t1 t1|b>", 2, 1, "<t2 t2 s1|b>", "<t2 t2 s2|b>"),
    (T_ADJ_S, "<t2 t1 t2|b>", 1, 1, "<t2 t1 s1|b>", "<t2 t1 s2|b>"),
    (T_ADJ_S, "<t2 t1 t2|b>", 2, 1, "<t2 t1 s2|b>", "<t2 t1 s1|b>"),
    (T_ADJ_S, "<t2 t2 t1|b>", 1, 1, "<t1 t2 s1|b>", "<t1 t2 s2|b>"),
    (T_ADJ_S, "<t2 t2 t1|b>", 2, 1, "<t1 t2 s2|b>", "<t1 t2 s1|b>"),
    (T_ADJ_S, "<t2 t2 t2|b>", 1, 1, "<t1 t1 s2|b>", "<t1 t1 s1|b>"),
    (T_ADJ_S, "<t2 t2 t2|b>", 2, 1, "<t1 t1 s1|b>", "<t1 t1 s2|b>"),
    (T_ADJ_S, "<t1 t1 s1|b>", 1, 2, "<t2 s1 s1|b>", "<t2 s2 s1|b>"),
    (T_ADJ_S, "<t1 t1 s1|b>", 2, 2, "<t2 s2 s1|b>", "<t2 s1 s1|b>"),
    (T_ADJ_S, "<t1 t1 s2|b>", 1, 2, "<t2 s1 s2|b>", "<t2 s2 s2|b>"),
    (T_ADJ_S, "<t1 t1 s2|b>", 2, 2, "<t2 s2 s2|b>", "<t2 s1 s2|b>"),
    (T_ADJ_S, "<t1 t2 s1|b>", 1, 2, "<t1 s2 s1|b>", "<t1 s1 s1|b>"),
    (T_ADJ_S, "<t1 t2 s1|b>", 2, 2, "<t1 s1 s1|b>", "<t1 s2 s1|b>"),
    (T_ADJ_S, "<t1 t2 s2|b>", 1, 2, "<t1 s2 s2|b>", "<t1 s1 s2|b>"),
    (T_ADJ_S, "<t1 t2 s2|b>", 2, 2, "<t1 s1 s2|b>", "<t1 s2 s2|b>"),
    (T_ADJ_S, "<t2 t1 s1|b>", 1, 1, "<t2 s2 s1|b>", "<t2 s1 s1|b>"),
    (T_ADJ_S, "<t2 t1 s1|b>", 2, 1, "<t2 s1 s1|b>", "<t2 s2 s1|b>"),
    (T_ADJ_S, "<t2 t1 s2|b>", 1, 1, "<t2 s2 s2|b>", "<t2 s1 s2|b>"),
    (T_ADJ_S, "<t2 t1 s2|b>", 2, 1, "<t2 s1 s2|b>", "<t2 s2 s2|b>"),
    (T_ADJ_S, "<t2 t2 s1|b>", 1, 1, "<t1 s1 s1|b>", "<t1 s2 s1|b>"),
    (T_ADJ_S, "<t2 t2 s1|b>", 2, 1, "<t1 s2 s1|b>", "<t1 s1 s1|b>"),
    (T_ADJ_S, "<t2 t2 s2|b>", 1, 1, "<t1 s1 s2|b>", "<t1 s2 s2|b>"),
    (T_ADJ_S, "<t2 t2 s2|b>", 2, 1, "<t1 s2 s2|b>", "<t1 s1 s2|b>"),
    (T_ADJ_S, "<t1 s1 s1|b>", 1, 2, "<s1 s1 s1|b>", "<s2 s1 s1|b>"),
    (T_ADJ_S, "<t1 s1 s1|b>", 2, 2, "<s2 s1 s1|b>", "<s1 s1 s1|b>"),
    (T_ADJ_S, "<t1 s1 s2|b>", 1, 2, "<s1 s1 s2|b>", "<s2 s1 s2|b>"),
    (T_ADJ_S, "<t1 s1 s2|b>", 2, 2, "<s2 s1 s2|b>", "<s1 s1 s2|b>"),
    (T_ADJ_S, "<t1 s2 s1|b>", 1, 2, "<s1 s2 s1|b>", "<s2 s2 s1|b>"),
    (T_ADJ_S, "<t1 s2 s1|b>", 2, 2, "<s2 s2 s1|b>", "<s1 s2 s1|b>"),
    (T_ADJ_S, "<t1 s2 s2|b>", 1, 2, "<s1 s2 s2|b>", "<s2 s2 s2|b>"),
    (T_ADJ_S, "<t1 s2 s2|b>", 2, 2, "<s2 s2 s2|b>", "<s1 s2 s2|b>"),
    (T_ADJ_S, "<t2 s1 s1|b>", 1, 1, "<s2 s1 s1|b>", "<s1 s1 s1|b>"),
    (T_ADJ_S, "<t2 s1 s1|b>", 2, 1, "<s1 s1 s1|b>", "<s2 s1 s1|b>"),
    (T_ADJ_S, "<t2 s1 s2|b>", 1, 1, "<s2 s1 s2|b>", "<s1 s1 s2|b>"),
    (T_ADJ_S, "<t2 s1 s2|b>", 2, 1, "<s1 s1 s2|b>", "<s2 s1 s2|b>"),
    (T_ADJ_S, "<t2 s2 s1|b>", 1, 1, "<s2 s2 s1|b>", "<s1 s2 s1|b>"),
    (T_ADJ_S, "<t2 s2 s1|b>", 2, 1, "<s1 s2 s1|b>", "<s2 s2 s1|b>"),
    (T_ADJ_S, "<t2 s2 s2|b>", 1, 1, "<s2 s2 s2|b>", "<s1 s2 s2|b>"),
    (T_ADJ_S, "<t2 s2 s2|b>", 2, 1, "<s1 s2 s2|b>", "<s2 s2 s2|b>"),
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

    def test_report_is_cached_per_depth(self):
        pp = free_pair(THETA_CYCLIC_22)
        report = check_doubly_commute(pp)
        assert check_doubly_commute(pp, len(pp.base) + 2) is report
        shallow = check_doubly_commute(pp, 2)
        assert shallow is not report
        assert len(shallow.failures) < len(report.failures)
        assert check_doubly_commute(pp, 2) is shallow

    def test_hypotheses_reuse_the_cached_report(self):
        pp = free_pair(THETA_CYCLIC_22)
        hyp = check_hypotheses(pp)
        assert not hyp.doubly_commuting
        assert hyp.doubly_commuting == check_doubly_commute(pp).ok

    def test_cyclic_twist_failures_pinned(self):
        # the whole report of the 4-cycle twist at the default depth 3,
        # entry for entry: sharing predecessors across label pairs must
        # not reorder, drop or add failures
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

    def test_mirror_elem_round_trips(self):
        for pp in commuting_pairs(373, 12):
            tw = mirror(pp)
            for x in enumerate_pair(pp, 3):
                assert mirror_elem(tw, mirror_elem(pp, x)) == x


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
        assert PairPresentation.from_dict(doc) == pp

    def test_elem_repr(self):
        assert repr(PairElem((), (), "b")) == "<b>"
        assert repr(PairElem((1,), (2, 1), "c")) == "<t1 s2 s1|c>"

    def test_require_commuting_error(self):
        pp = PairPresentation(THETA_ID_11, ("a", "b"),
                              {("a", 1): "b"}, {("a", 1): "a"})
        with pytest.raises(ContractViolation):
            pp.require_commuting()
