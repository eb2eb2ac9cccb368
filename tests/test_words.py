"""Word calculus tests: rewriting, normal forms, theta extensions.

The confluence checks here do not trust the library's single-pass
normalizer.  A brute-force oracle explores every reduction order of the
one-step rewriting relation and the tests assert the reachable set of
normal forms is a singleton that matches ``normalize``.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rowiso.errors import ResourceExceeded, ValidationError
from rowiso.words import (
    Theta,
    commute_s_left,
    commute_s_right,
    commute_t_left,
    commute_t_right,
    denormalize,
    from_parts,
    normal_form_parts,
    normalize,
    s_outside_to_t_outside,
    theta_ext,
    validate_word,
)

# -- brute-force rewriting oracle ---------------------------------------------
#
# One step: pick ANY adjacent (S-letter)(T-letter) pair and swap it via
# theta.  Exploring all choices from all positions gives every maximal
# reduction sequence; collecting the endpoints tests confluence without
# assuming it.


def one_step_rewrites(theta, word):
    out = []
    for k in range(len(word) - 1):
        (f1, a), (f2, b) = word[k], word[k + 1]
        if f1 == "s" and f2 == "t":
            i2, j2 = theta.map[(a, b)]
            out.append(word[:k] + (("t", j2), ("s", i2)) + word[k + 2:])
    return out


def reachable_normal_forms(theta, word, memo):
    if word in memo:
        return memo[word]
    succ = one_step_rewrites(theta, word)
    if not succ:
        result = frozenset([word])
    else:
        result = frozenset().union(
            *(reachable_normal_forms(theta, s, memo) for s in succ))
    memo[word] = result
    return result


def assert_confluent(theta, word, memo=None):
    forms = reachable_normal_forms(theta, word, {} if memo is None else memo)
    assert len(forms) == 1, f"{word} reaches {len(forms)} normal forms"
    (only,) = forms
    assert normalize(theta, word) == only


THETA_ID_22 = Theta.identity(2, 2)
# the involution exchanging (1,1) and (2,2)
THETA_SWAP_CORNERS = Theta(2, 2, {(1, 1): (2, 2), (2, 2): (1, 1),
                                  (1, 2): (1, 2), (2, 1): (2, 1)})
# 4-cycle (1,1) -> (1,2) -> (2,1) -> (2,2) -> (1,1)
THETA_CYCLIC = Theta(2, 2, {(1, 1): (1, 2), (1, 2): (2, 1),
                            (2, 1): (2, 2), (2, 2): (1, 1)})
# flip on a 2x1 alphabet
THETA_FLIP_21 = Theta(2, 1, {(1, 1): (2, 1), (2, 1): (1, 1)})


# -- normalize ----------------------------------------------------------------


class TestNormalize:
    def test_identity_theta_swaps_order_only(self):
        word = (("s", 1), ("t", 2))
        assert normalize(THETA_ID_22, word) == (("t", 2), ("s", 1))

    def test_single_rule_application(self):
        word = (("s", 1), ("t", 1))
        assert normalize(THETA_SWAP_CORNERS, word) == (("t", 2), ("s", 2))

    def test_cyclic_theta_four_letter_word(self):
        # frozen output of the all-orders oracle below
        word = (("s", 1), ("s", 2), ("t", 1), ("t", 2))
        expected = (("t", 1), ("t", 2), ("s", 2), ("s", 1))
        assert normalize(THETA_CYCLIC, word) == expected
        assert_confluent(THETA_CYCLIC, word)

    def test_already_normal_words_are_fixed(self):
        word = (("t", 1), ("t", 2), ("s", 1))
        assert normalize(THETA_CYCLIC, word) == word

    def test_empty_word(self):
        assert normalize(THETA_CYCLIC, ()) == ()

    def test_letter_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            normalize(THETA_ID_22, (("s", 3),))
        with pytest.raises(ValidationError):
            normalize(THETA_ID_22, (("t", 0),))
        with pytest.raises(ValidationError):
            normalize(THETA_ID_22, (("x", 1),))

    def test_shape_is_t_block_then_s_block(self):
        rng = random.Random(7)
        for _ in range(200):
            word = tuple(
                (rng.choice("st"), rng.randint(1, 2)) for _ in range(6))
            out = normalize(THETA_CYCLIC, word)
            kinds = [k for k, _ in out]
            assert kinds == sorted(kinds, reverse=True)  # all t before all s


def _theta_strategy(max_m=3, max_n=3):
    def build(m, n, seed):
        domain = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        shuffled = list(domain)
        random.Random(seed).shuffle(shuffled)
        return Theta(m, n, dict(zip(domain, shuffled)))

    return st.builds(build, st.integers(1, max_m), st.integers(1, max_n),
                     st.integers(0, 10 ** 6))


def _word_strategy(theta, max_len=6):
    letter = st.one_of(
        st.tuples(st.just("s"), st.integers(1, theta.m)),
        st.tuples(st.just("t"), st.integers(1, theta.n)))
    return st.lists(letter, max_size=max_len).map(tuple)


@st.composite
def _theta_and_words(draw, count=1):
    theta = draw(_theta_strategy())
    words = tuple(draw(_word_strategy(theta)) for _ in range(count))
    return (theta,) + words


class TestNormalizeProperties:
    @given(_theta_and_words())
    def test_idempotent(self, tw):
        theta, word = tw
        once = normalize(theta, word)
        assert normalize(theta, once) == once

    @given(_theta_and_words())
    def test_bidegree_preserved(self, tw):
        theta, word = tw
        out = normalize(theta, word)

        def bidegree(w):
            return (sum(1 for k, _ in w if k == "s"),
                    sum(1 for k, _ in w if k == "t"))

        assert bidegree(out) == bidegree(word)

    @given(_theta_and_words())
    @settings(max_examples=60)
    def test_agrees_with_all_reduction_orders(self, tw):
        theta, word = tw
        assert_confluent(theta, word)


class TestConfluenceExhaustive:
    def test_all_words_all_thetas_two_by_two(self):
        # small-scale exhaustive sweep; the full advertised range runs
        # in the acceptance suite
        from itertools import permutations, product

        domain = [(i, j) for i in (1, 2) for j in (1, 2)]
        letters = [("s", 1), ("s", 2), ("t", 1), ("t", 2)]
        for perm in permutations(domain):
            theta = Theta(2, 2, dict(zip(domain, perm)))
            memo = {}
            for length in range(5):
                for word in product(letters, repeat=length):
                    assert_confluent(theta, word, memo)


# -- concatenation ------------------------------------------------------------


class TestConcat:
    def test_normalize_is_a_monoid_morphism(self):
        # 1000 random pairs, both sides computed independently
        rng = random.Random(2024)
        domain = [(i, j) for i in (1, 2, 3) for j in (1, 2)]
        for _ in range(1000):
            shuffled = list(domain)
            rng.shuffle(shuffled)
            theta = Theta(3, 2, dict(zip(domain, shuffled)))
            x = tuple((rng.choice("st"),
                       rng.randint(1, 3 if rng.random() < 0.5 else 2))
                      for _ in range(rng.randint(0, 5)))
            x = tuple((k, min(i, theta.m if k == "s" else theta.n))
                      for k, i in x)
            y = tuple((rng.choice("st"), rng.randint(1, 2))
                      for _ in range(rng.randint(0, 5)))
            lhs = normalize(theta, x + y)
            rhs = normalize(theta, normalize(theta, x) + normalize(theta, y))
            assert lhs == rhs


# -- theta --------------------------------------------------------------------


class TestTheta:
    def test_identity_constructor(self):
        th = Theta.identity(3, 2)
        assert th.is_identity
        assert th.map[(2, 1)] == (2, 1)

    def test_must_be_total(self):
        with pytest.raises(ValidationError):
            Theta(2, 2, {(1, 1): (1, 1)})

    def test_partial_mapping_refused_without_the_domain(self):
        # the size test runs before any entry is read
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError,
                               match=r"theta domain must be all of"):
                Theta(1000, 1000, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_must_be_bijective(self):
        with pytest.raises(ValidationError):
            Theta(2, 1, {(1, 1): (1, 1), (2, 1): (1, 1)})

    def test_positive_alphabets_required(self):
        with pytest.raises(ValidationError):
            Theta(0, 1, {})

    def test_quadruple_round_trip(self):
        quads = THETA_CYCLIC.to_quadruples()
        assert quads == [[1, 1, 1, 2], [1, 2, 2, 1], [2, 1, 2, 2],
                         [2, 2, 1, 1]]
        again = Theta.from_quadruples(2, 2, quads)
        assert again == THETA_CYCLIC
        assert hash(again) == hash(THETA_CYCLIC)

    def test_duplicate_quadruple_key_rejected(self):
        with pytest.raises(ValidationError):
            Theta.from_quadruples(
                2, 1, [[1, 1, 2, 1], [1, 1, 1, 1], [2, 1, 1, 1]])

    def test_quadruple_entries_must_be_integers(self):
        for bad in (1.5, "1", True, [1], None):
            with pytest.raises(ValidationError, match="non-integer entry"):
                Theta.from_quadruples(1, 1, [[1, 1, bad, 1]])

    def test_inverse_map(self):
        for k, v in THETA_CYCLIC.map.items():
            assert THETA_CYCLIC.inverse_map[v] == k

    def test_equality_and_hash_ignore_insertion_order(self):
        items = list(THETA_CYCLIC.map.items())
        again = Theta(2, 2, dict(reversed(items)))
        assert list(again.map) != list(THETA_CYCLIC.map)
        assert again == THETA_CYCLIC
        assert hash(again) == hash(THETA_CYCLIC)
        assert again != THETA_SWAP_CORNERS


# Theta(2, 1, FLIP) with one key or one value replaced; True, 2.7 and "1"
# were taken by int() before, and a tuple of three by its first two
FLIP = {(1, 1): (2, 1), (2, 1): (1, 1)}
BAD_LABELS = (2.7, "1", True, None, 1.0)
NOT_PAIRS = ((1,), (2, 1, 1), 5, "21")


class TestThetaEntries:
    @pytest.mark.parametrize("bad", BAD_LABELS)
    def test_label_refused_in_a_key(self, bad):
        with pytest.raises(ValidationError,
                           match=f"theta label {bad!r} is not an integer"):
            Theta(2, 1, {(1, 1): (2, 1), (2, bad): (1, 1)})

    @pytest.mark.parametrize("bad", BAD_LABELS)
    def test_label_refused_in_a_value(self, bad):
        with pytest.raises(ValidationError,
                           match=f"theta label {bad!r} is not an integer"):
            Theta(2, 1, {(1, 1): (2, bad), (2, 1): (1, 1)})

    @pytest.mark.parametrize("bad", NOT_PAIRS)
    def test_entry_refused_as_a_key(self, bad):
        with pytest.raises(ValidationError, match="is not a pair"):
            Theta(2, 1, {(1, 1): (2, 1), bad: (1, 1)})

    @pytest.mark.parametrize("bad", NOT_PAIRS + ([2, 1],))
    def test_entry_refused_as_a_value(self, bad):
        with pytest.raises(ValidationError, match="is not a pair"):
            Theta(2, 1, {(1, 1): bad, (2, 1): (1, 1)})

    def test_out_of_range_labels_keep_their_errors(self):
        with pytest.raises(ValidationError, match="theta domain must be"):
            Theta(2, 1, {(1, 1): (2, 1), (3, 1): (1, 1)})
        with pytest.raises(ValidationError, match="theta must be a bij"):
            Theta(2, 1, {(1, 1): (2, 0), (2, 1): (1, 1)})

    def test_the_domain_is_checked_before_any_value(self):
        # the bad value comes first in the dict, the bad key last
        for bad_key, error in (((3, 1), "theta domain must be"),
                               ((2, 1.0), "theta label 1.0 is not"),
                               ((2,), "is not a pair")):
            with pytest.raises(ValidationError, match=error):
                Theta(2, 1, {(1, 1): (9, 9), bad_key: (1, 1)})
        with pytest.raises(ValidationError, match="theta must be a bij"):
            Theta(2, 1, {(1, 1): (9, 9), (2, 1): (1, 1)})

    def test_an_int_subclass_is_a_label(self):
        class Label(int):
            pass

        theta = Theta(2, 1, {(Label(1), 1): (2, Label(1)), (2, 1): (1, 1)})
        assert theta == Theta(2, 1, FLIP)


# -- single-letter moves ------------------------------------------------------


class TestLetterMoves:
    def test_left_and_right_moves_invert(self):
        rng = random.Random(5)
        th = THETA_CYCLIC
        for _ in range(300):
            u = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 5)))
            w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 5)))
            i = rng.randint(1, 2)
            j = rng.randint(1, 2)
            w2, i2 = commute_s_left(th, i, w)
            assert commute_s_right(th, w2, i2) == (i, w)
            j2, u2 = commute_t_left(th, u, j)
            assert commute_t_right(th, u2, j2) == (u, j)

    def test_single_letter_matches_theta(self):
        for (i, j), (i2, j2) in THETA_CYCLIC.map.items():
            assert commute_s_left(THETA_CYCLIC, i, (j,)) == ((j2,), i2)
            assert commute_t_left(THETA_CYCLIC, (i,), j) == (j2, (i2,))


class TestBlockMoves:
    def test_denormalize_round_trip(self):
        rng = random.Random(11)
        th = THETA_CYCLIC
        for _ in range(300):
            w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4)))
            u = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 4)))
            u2, w2 = denormalize(th, w, u)
            assert s_outside_to_t_outside(th, u2, w2) == (w, u)

    def test_normal_form_parts_matches_normalize(self):
        word = (("s", 2), ("t", 1), ("s", 1), ("t", 2))
        w, u = normal_form_parts(THETA_CYCLIC, word)
        assert from_parts(w, u) == normalize(THETA_CYCLIC, word)


# -- theta_ext ----------------------------------------------------------------


class TestThetaExt:
    def test_no_s_letters_gives_identity(self):
        table = theta_ext(THETA_CYCLIC, 0, 3)
        assert len(table) == 8
        for key, value in table.items():
            assert key == value

    def test_no_t_letters_gives_identity(self):
        table = theta_ext(THETA_CYCLIC, 3, 0)
        assert len(table) == 8
        for key, value in table.items():
            assert key == value

    def test_identity_theta_gives_identity_pairing(self):
        table = theta_ext(THETA_ID_22, 2, 2)
        assert len(table) == 16
        for key, value in table.items():
            assert key == value

    def test_one_one_recovers_theta(self):
        table = theta_ext(THETA_CYCLIC, 1, 1)
        for (i, j), (i2, j2) in THETA_CYCLIC.map.items():
            assert table[((i,), (j,))] == ((i2,), (j2,))

    def test_flip_two_by_one_table(self):
        # S_a S_b T_1 = T_1 S_{3-a} S_{3-b}: each passing T-letter flips
        # every S-index once
        table = theta_ext(THETA_FLIP_21, 2, 1)
        expected = {
            ((1, 1), (1,)): ((2, 2), (1,)),
            ((1, 2), (1,)): ((2, 1), (1,)),
            ((2, 1), (1,)): ((1, 2), (1,)),
            ((2, 2), (1,)): ((1, 1), (1,)),
        }
        assert table == expected
        assert len(set(table.values())) == len(table)

    def test_bijective_for_small_k_l(self):
        for theta in (THETA_CYCLIC, THETA_SWAP_CORNERS, THETA_FLIP_21):
            for k in range(3):
                for l in range(3):
                    table = theta_ext(theta, k, l)
                    assert len(set(table.values())) == len(table)
                    assert len(table) == theta.m ** k * theta.n ** l

    def test_budget_guard(self):
        with pytest.raises(ResourceExceeded):
            theta_ext(THETA_ID_22, 2, 2, budget=15)

    def test_negative_length_rejected(self):
        with pytest.raises(ValidationError):
            theta_ext(THETA_ID_22, -1, 0)


class TestValidateWord:
    def test_in_range(self):
        assert validate_word([1, 2, 3], 3) == (1, 2, 3)
        assert validate_word((), 1) == ()

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            validate_word([1, 4], 3)
        with pytest.raises(ValidationError):
            validate_word([0], 3)
        with pytest.raises(ValidationError):
            validate_word([True], 3)
