"""Tests for the truncated matrix verifier.

The verifier re-derives everything from raw edge data, so these tests
lean on hand-countable models: a free family of two isometries, a
one-node self-loop, a two-node cycle, and the four-corner pair fixture
whose decomposition is known node by node.
"""

import ast
import copy
import itertools
import pickle
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rowiso.oracle
from rowiso.cli import _oracle_claims
from rowiso.errors import ResourceExceeded, ValidationError
from rowiso.oracle import (
    CLAIMS,
    OracleModel,
    materialize,
    verify_relations,
    verify_subspace,
    _block_entries,
    _compose,
    _family,
    _first_bad_columns,
    _free_slots,
    _image_counts,
    _isometry_defects,
    _LazyBasis,
    _mul,
    _PairTables,
    _pair_basis_lower_bound,
    _pair_basis_codes,
    _shift_on,
    _shared_words,
    _single_basis_size,
    _twist_table,
    _Words,
)
from rowiso.pair import (PairElem, PairPresentation, check_doubly_commute,
                         check_joint_isometry, enumerate_pair, free_pair,
                         mirror, s_apply, t_apply, validate_pair)
from rowiso.presentation import Elem, Presentation, apply, free_presentation
from rowiso.presentation import enumerate as enumerate_basis
from rowiso.search import (
    SearchSpace,
    _edge_maps,
    all_thetas,
    fault_library,
    run_fault_injection,
    search,
    _forge_theta,
)
from rowiso.slocinski import dead_nodes, slocinski
from rowiso.wold import SubspaceDesc, wold
from rowiso.words import Theta, commute_s_left, commute_t_right

from test_pair import (THETA_CYCLIC_22, honest_pairs, product_pair,
                       random_edges, random_pair)
from test_presentation import random_presentation

import random

FREE2 = free_presentation(2)
SELF_LOOP = Presentation(1, ("b",), {("b", 1): "b"})
TWO_CYCLE = Presentation(1, ("a", "b"), {("a", 1): "b", ("b", 1): "a"})
MIXED = Presentation(2, ("a", "b", "c"), {("a", 1): "b"})

ID11 = Theta.identity(1, 1)
FOUR_CORNERS = PairPresentation(
    ID11, ("a", "b", "c", "d"),
    {("a", 1): "a", ("b", 1): "b"},
    {("a", 1): "a", ("c", 1): "c"})
BILATERAL = PairPresentation(ID11, ("b", "c"), {("b", 1): "c"},
                             {("c", 1): "b"})


# -- materialization ---------------------------------------------------------


class TestMaterialize:
    def test_depth_must_be_an_int(self):
        # a float, a string or a bool is refused, never read as a number
        for p in (FREE2, FOUR_CORNERS):
            for depth in (2.0, "3", True, None):
                with pytest.raises(ValidationError,
                                   match="depth must be an int"):
                    materialize(p, depth)
            with pytest.raises(ValidationError, match="at least 1, got 0"):
                materialize(p, 0)
            assert materialize(p, 1).depth == 1

    def test_free_two_generator_counts(self):
        model = materialize(FREE2, 2)
        assert len(model.basis) == 7  # 1 + 2 + 4 words
        for i in (1, 2):
            # depth-2 columns fall off the truncation
            assert int((model.imgs[("s", i)] >= 0).sum()) == 3
        assert int(model.interior.sum()) == 3

    def test_interior_follows_a_replaced_array(self):
        model = materialize(FREE2, 2)
        fake = model.imgs[("s", 1)].copy()
        fake[fake < 0] = 0  # the boundary lie of the fault library
        model.imgs[("s", 1)] = fake
        assert model.interior.tolist() == \
            (model.imgs[("s", 2)] >= 0).tolist()
        assert int(model.interior.sum()) == 3
        model.imgs[("s", 2)] = fake
        assert model.interior.all()

    def test_self_loop_is_the_identity_matrix(self):
        model = materialize(SELF_LOOP, 3)
        assert model.basis == (Elem((), "b"),)
        assert model.imgs[("s", 1)].tolist() == [0]
        assert model.interior.tolist() == [True]

    def test_free_pair_basis_count(self):
        model = materialize(free_pair(ID11), 2)
        # t^a s^c b with a + c <= 2
        assert len(model.basis) == 6

    def test_depth_must_be_positive(self):
        with pytest.raises(ValidationError):
            materialize(FREE2, 0)

    def test_basis_budget_enforced(self):
        with pytest.raises(ResourceExceeded):
            materialize(free_presentation(3), 11)

    def test_budget_refused_before_the_basis_is_built(self):
        # about 10^19 and 10^24 vectors: only a refusal made before the
        # enumeration can return at all
        for p in (free_presentation(3), free_pair(Theta.identity(2, 2))):
            start = time.perf_counter()
            with pytest.raises(ResourceExceeded):
                materialize(p, 40)
            assert time.perf_counter() - start < 20

    def test_single_basis_size_is_the_enumerated_count(self):
        rng = random.Random(1021)
        dup = Presentation(1, ("a", "b", "c"), {("a", 1): "c", ("b", 1): "c"})
        cases = [FREE2, SELF_LOOP, TWO_CYCLE, MIXED, dup,
                 free_presentation(3)]
        cases += [random_presentation(rng) for _ in range(20)]
        for p in cases:
            for depth in range(1, 6):
                assert _single_basis_size(p, depth, _free_slots(p)) == \
                    len(_raw_single_basis(p, depth)), (p, depth)

    def test_pair_lower_bound_counts_the_pure_elements(self):
        twisted = PairPresentation(
            Theta(2, 1, {(1, 1): (2, 1), (2, 1): (1, 1)}), ("a", "b"),
            {("a", 1): "b"}, {("b", 1): "a"})
        cases = [FOUR_CORNERS, BILATERAL, twisted, free_pair(ID11),
                 free_pair(Theta.identity(2, 2))]
        cases += list(honest_pairs(1019, 6))
        for pp in cases:
            for depth in range(1, 5):
                basis = materialize(pp, depth).basis
                pure = sum(not x.t_prefix or not x.s_prefix for x in basis)
                assert _pair_basis_lower_bound(pp, depth) == pure, \
                    (pp, depth)

    def test_pair_over_budget_refused_without_the_walk(self, monkeypatch):
        def tables(pp, depth):
            raise AssertionError("the word tables were built")

        monkeypatch.setattr("rowiso.oracle._PairTables", tables)
        with pytest.raises(ResourceExceeded):
            materialize(free_pair(Theta.identity(2, 2)), 40)
        with pytest.raises(ResourceExceeded):
            materialize(free_pair(Theta.identity(1, 2)), 40)

    def test_pair_model_reads_the_raw_t_edges(self):
        # the oracle finds the nodes where a T-letter absorbs from the
        # edges itself: blanking the pair's own set misleads the
        # symbolic enumeration but changes no image array
        pp = PairPresentation(ID11, ("a", "b", "c"), {("b", 1): "c"},
                              {("a", 1): "a", ("c", 1): "b"})
        honest = materialize(pp, 3)
        listed = enumerate_pair(pp, 3)
        pp.t_sources = frozenset()
        assert enumerate_pair(pp, 3) != listed
        blind = materialize(pp, 3)
        assert blind.basis == honest.basis == tuple(listed)
        for key in honest.keys:
            assert np.array_equal(blind.imgs[key], honest.imgs[key])

    def test_matrix_agrees_with_symbolic_apply(self):
        model = materialize(MIXED, 3)
        for key in model.keys:
            arr = model.imgs[key]
            for col, x in enumerate(model.basis):
                if arr[col] >= 0:
                    assert model.basis[arr[col]] == apply(MIXED, key[1], x)

    def test_pair_matrix_agrees_with_symbolic_apply(self):
        for pp in (FOUR_CORNERS, BILATERAL):
            model = materialize(pp, 3)
            for kind, lab in model.keys:
                arr = model.imgs[(kind, lab)]
                step = s_apply if kind == "s" else t_apply
                for col, x in enumerate(model.basis):
                    if arr[col] >= 0:
                        assert model.basis[arr[col]] == step(pp, lab, x)

    def test_mask_monotone_in_cost(self):
        model = materialize(FOUR_CORNERS, 5)
        m0 = model.mask()
        m1 = model.mask(forward=1)
        m2 = model.mask(forward=2)
        assert (m1 <= m0).all() and (m2 <= m1).all()
        # four base nodes: one adjoint costs three depth units
        assert model.adjoint_cost == 3
        assert (model.mask(adjoint=1) <= model.mask(forward=2)).all()

    def test_single_family_adjoints_are_free(self):
        model = materialize(FREE2, 3)
        assert model.adjoint_cost == 0
        assert (model.mask(adjoint=4) == model.mask()).all()


# -- closed-form single-family images ----------------------------------------


def _raw_single_apply(edges: dict, m: int, i: int, x: Elem) -> Elem:
    # the per-column action the closed form replaces: only a depth-zero
    # vector can absorb its new letter
    if not x.prefix:
        hit = edges.get((x.node, i))
        if hit is not None:
            return Elem((), hit)
    return Elem((i,) + x.prefix, x.node)


def _raw_single_basis(p: Presentation, depth: int) -> tuple:
    """Every element of prefix length at most ``depth``, layer by layer.

    Layer L >= 1 lists, for each head of length L - 1 in lexicographic
    order and each last letter i, the nodes where letter i does not
    absorb: each head owns a block of ``sum_i |free_i|`` columns.  These
    are the names ``materialize`` once built for every column up front;
    deliberately not ``presentation.enumerate``, which refuses the
    corrupted presentations the oracle must still materialize.
    """
    free = [[b for b in p.base if (b, i) not in p.edges]
            for i in range(1, p.m + 1)]
    basis = [Elem((), b) for b in p.base]
    heads = [()]
    for length in range(1, depth + 1):
        if not any(free):
            break  # every deeper layer is empty
        if length > 1:
            heads = [head + (i,) for head in heads
                     for i in range(1, p.m + 1)]
        basis += [Elem(head + (i,), b) for head in heads
                  for i, nodes in enumerate(free, 1) for b in nodes]
    return tuple(basis)


def reference_single_model(p: Presentation, depth: int) -> tuple:
    """Basis, image arrays and depths of a single family, column by column."""
    basis = _raw_single_basis(p, depth)
    index = {x: k for k, x in enumerate(basis)}
    imgs = {("s", i): [index.get(_raw_single_apply(p.edges, p.m, i, x), -1)
                       for x in basis]
            for i in range(1, p.m + 1)}
    return tuple(basis), imgs, [x.depth for x in basis]


def single_space() -> list:
    """The 1,091 single presentations with m, |base| <= 3."""
    out = []
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            nodes = tuple("abc"[:k])
            out.extend(Presentation(m, nodes, edges)
                       for edges in _edge_maps(nodes, m))
    assert len(out) == 1091
    return out


CORRUPTED_SINGLES = {
    "duplicate-in-edge": Presentation(1, ("a", "b", "c"),
                                      {("a", 1): "c", ("b", 1): "c"}),
    "undeclared-target": Presentation(2, ("a", "b"), {("a", 1): "z"}),
    "undeclared-source": Presentation(2, ("a", "b"), {("z", 2): "a"}),
    "label-outside": Presentation(2, ("a", "b"),
                                  {("a", 3): "b", ("b", 0): "a"}),
    "self-loop": Presentation(2, ("a", "b"), {("a", 2): "a"}),
    "node-declared-twice": Presentation(2, ("a", "b", "a"), {("b", 2): "a"}),
    "edge-to-none": Presentation(2, ("a", "b"), {("a", 1): None}),
}


class TestClosedFormImages:
    def assert_matches_reference(self, p, depth):
        model = materialize(p, depth)
        basis, imgs, depths = reference_single_model(p, depth)
        # the names are TestLazySingleBasis' business
        assert len(model.basis) == len(basis)
        assert model.keys == tuple(imgs)
        for key, want in imgs.items():
            assert model.imgs[key].dtype == np.int64
            assert model.imgs[key].tolist() == want, (p, depth, key)
        assert model.depths.tolist() == depths

    def test_every_small_presentation_at_depths_one_to_five(self):
        for p in single_space():
            for depth in range(1, 6):
                self.assert_matches_reference(p, depth)

    @pytest.mark.parametrize("name", sorted(CORRUPTED_SINGLES))
    def test_corrupted_presentations(self, name):
        for depth in range(1, 6):
            self.assert_matches_reference(CORRUPTED_SINGLES[name], depth)

    def test_saturated_self_loop_stays_cheap(self):
        # every slot absorbs, so every layer past the base is empty
        model = materialize(SELF_LOOP, 500)
        assert model.basis == (Elem((), "b"),)
        assert model.imgs[("s", 1)].tolist() == [0]
        assert model.depths.tolist() == [0]


# -- pair arrays from word codes ---------------------------------------------


def reference_pair_basis(pp: PairPresentation, depth: int) -> list:
    """The canonical walk the word codes replace, in its order."""
    out = []
    t_sources = {src for src, _ in pp.t_edges}
    for total in range(depth + 1):
        for t_len in range(total, -1, -1):
            for t in itertools.product(range(1, pp.n + 1), repeat=t_len):
                for s in itertools.product(range(1, pp.m + 1),
                                           repeat=total - t_len):
                    for b in pp.base:
                        if s and (b, s[-1]) in pp.s_edges:
                            continue
                        if t and b in t_sources:
                            _, arriving = commute_t_right(pp.theta, s, t[-1])
                            if (b, arriving) in pp.t_edges:
                                continue
                        out.append(PairElem(t, s, b))
    return out


def reference_pair_apply(pp: PairPresentation, t_sources: set, kind: str,
                         lab: int, x: PairElem) -> PairElem:
    """One generator on one column: commute the new letter to its slot,
    then greedily absorb innermost letters against the raw edges; the
    T-letter is pushed only at a node in ``t_sources``."""
    if kind == "s":
        t, new_s = commute_s_left(pp.theta, lab, x.t_prefix)
        s = (new_s,) + x.s_prefix
    else:
        t, s = (lab,) + x.t_prefix, x.s_prefix
    node = x.node
    while True:
        if s:
            hit = pp.s_edges.get((node, s[-1]))
            if hit is not None:
                node, s = hit, s[:-1]
                continue
        if t and node in t_sources:
            pushed, j2 = commute_t_right(pp.theta, s, t[-1])
            hit = pp.t_edges.get((node, j2))
            if hit is not None:
                node, t, s = hit, t[:-1], pushed
                continue
        return PairElem(t, s, node)


def reference_pair_model(pp: PairPresentation, depth: int) -> tuple:
    """Basis, image arrays and depths of a pair, column by column."""
    basis = reference_pair_basis(pp, depth)
    index = {x: k for k, x in enumerate(basis)}
    keys = [("s", i) for i in range(1, pp.m + 1)] + \
        [("t", j) for j in range(1, pp.n + 1)]
    t_sources = {src for src, _ in pp.t_edges}
    imgs = {key: [index.get(reference_pair_apply(pp, t_sources, *key, x), -1)
                  for x in basis] for key in keys}
    return tuple(basis), imgs, [x.depth for x in basis]


def absorbing_pair() -> PairPresentation:
    # every slot of both families has an edge: an invalid pair whose
    # basis is its two nodes at every depth
    edges = {("a", 1): "a", ("a", 2): "b", ("b", 1): "b", ("b", 2): "a"}
    return PairPresentation(Theta.identity(2, 2), ("a", "b"), edges, edges)


CORRUPTED_PAIRS = {
    "duplicate-in-edge": PairPresentation(
        Theta(2, 1, {(1, 1): (2, 1), (2, 1): (1, 1)}), ("a", "b", "c"),
        {("a", 1): "c", ("b", 2): "c"}, {("a", 1): "b", ("c", 1): "b"}),
    "forged-theta": PairPresentation(
        _forge_theta(2, 2, {(1, 1): (1, 1), (1, 2): (1, 1), (2, 1): (2, 2),
                            (2, 2): (1, 2)},
                     {(1, 1): (2, 1), (1, 2): (1, 2), (2, 1): (2, 1),
                      (2, 2): (1, 1)}),
        ("a", "b"), {("a", 2): "b"}, {("b", 1): "a"}),
    "target-outside-base": PairPresentation(
        THETA_CYCLIC_22, ("a", "b"), {("a", 1): "z", ("z", 2): "b"},
        {("b", 2): "z", ("z", 1): "a"}),
    "edge-to-none": PairPresentation(
        Theta.identity(2, 1), ("a", "b"), {("a", 1): None},
        {("b", 1): "a"}),
    "node-declared-twice": PairPresentation(
        Theta(2, 1, {(1, 1): (2, 1), (2, 1): (1, 1)}), ("a", "b", "a"),
        {("b", 2): "a"}, {("a", 1): "b"}),
    "label-outside": PairPresentation(
        THETA_CYCLIC_22, ("a", "b"), {("a", 3): "b", ("b", 0): "a"},
        {("a", 1): "b"}),
    "absorbing": absorbing_pair(),
}


THETA_32 = Theta(3, 2, dict(zip(itertools.product((1, 2, 3), (1, 2)),
                                [(2, 2), (3, 1), (1, 1), (3, 2), (1, 2),
                                 (2, 1)])))


class TestPairCodesMatchReference:
    def assert_matches_reference(self, pp, depth):
        model = materialize(pp, depth)
        basis, imgs, depths = reference_pair_model(pp, depth)
        assert model.basis == basis, (pp, depth)
        assert model.keys == tuple(imgs)
        for key, want in imgs.items():
            assert model.imgs[key].dtype == np.int64
            assert model.imgs[key].tolist() == want, (pp, depth, key)
        assert model.depths.dtype == np.int64
        assert model.depths.tolist() == depths

    def test_every_fifth_acceptance_candidate(self, pair_space):
        for pp, _, _ in pair_space[::5]:
            self.assert_matches_reference(pp, 4)

    def test_random_pairs(self):
        rng = random.Random(1097)
        for _ in range(1000):
            pp = random_pair(rng, max_nodes=5, max_m=3, max_n=3)
            self.assert_matches_reference(pp, min(len(pp.base) + 2, 4))

    def test_named_and_free_pairs(self):
        pairs = [FOUR_CORNERS, BILATERAL, IN_DEGREE_2_PAIR,
                 free_pair(Theta.identity(1, 3))]
        pairs += [free_pair(theta) for theta in all_thetas(2, 2)]
        for pp in pairs:
            for depth in (1, 2, 4):
                self.assert_matches_reference(pp, depth)

    @pytest.mark.parametrize("name", sorted(CORRUPTED_PAIRS))
    def test_corrupted_pairs(self, name):
        for depth in range(1, 6):
            self.assert_matches_reference(CORRUPTED_PAIRS[name], depth)

    def test_twist_tables_are_the_letter_calculus(self):
        thetas = [THETA_CYCLIC_22, Theta.identity(1, 3), THETA_32,
                  CORRUPTED_PAIRS["forged-theta"].theta]
        # (pair, depth, the S-table's top, the T-table's): free pairs at
        # depths 4 and 6, and a family absorbed at every slot, whose
        # table stops at length 1
        cases = [(free_pair(theta), depth, depth, depth)
                 for theta in thetas for depth in (4, 6)]
        for theta in thetas[:3]:
            loops = {("b", i): "b" for i in range(1, theta.m + 1)}
            cases += [(PairPresentation(theta, ("b",), loops, {}), 4, 1, 4),
                      (mirror(PairPresentation(theta, ("b",), loops, {})),
                       4, 4, 1)]
        for pp, depth, s_top, t_top in cases:
            theta = pp.theta
            tables = _PairTables(pp, depth)
            for words, top, (word, carry), step, count in (
                    (tables.s_words, s_top, tables.t_through_s,
                     lambda w, c: commute_t_right(theta, w, c), theta.n),
                    (tables.t_words, t_top, tables.s_through_t,
                     lambda w, c: commute_s_left(theta, c, w),
                     theta.m)):
                codes = np.arange(words.size)
                names = words.tuples(codes)
                assert len(set(names)) == words.size
                assert max(map(len, names)) == words.top == top
                for c in range(1, count + 1):
                    got = zip(words.tuples(word[:, c]), carry[:, c].tolist())
                    assert list(got) == [step(w, c) for w in names], theta

    def assert_exact_count(self, monkeypatch, pp, depth):
        # the count checked against the budget is the walk's: a budget
        # one below it refuses, a budget equal to it builds every column
        want = len(reference_pair_basis(pp, depth))
        tables = _PairTables(pp, depth)
        monkeypatch.setattr(rowiso.oracle, "BASIS_BUDGET", want - 1)
        with pytest.raises(ResourceExceeded):
            _pair_basis_codes(tables, depth)
        monkeypatch.setattr(rowiso.oracle, "BASIS_BUDGET", want)
        assert len(_pair_basis_codes(tables, depth)[0]) == want, (pp, depth)

    def test_exact_count_is_the_walk_on_candidates(self, pair_space,
                                                   monkeypatch):
        for pp, _, _ in pair_space[::5]:
            self.assert_exact_count(monkeypatch, pp, 4)

    def test_exact_count_is_the_walk_on_random_pairs(self, monkeypatch):
        rng = random.Random(2929)
        for _ in range(200):
            pp = random_pair(rng, max_nodes=5, max_m=3, max_n=3)
            self.assert_exact_count(monkeypatch, pp,
                                    min(len(pp.base) + 2, 4))

    @pytest.mark.parametrize("name", sorted(CORRUPTED_PAIRS))
    def test_exact_count_is_the_walk_on_corrupted_pairs(self, name,
                                                        monkeypatch):
        for depth in range(1, 6):
            self.assert_exact_count(monkeypatch, CORRUPTED_PAIRS[name],
                                    depth)

    def test_exact_count_refused_before_any_element(self, monkeypatch):
        # lower bound 1,001, exact count 125,751
        pp = free_pair(ID11)
        assert _pair_basis_lower_bound(pp, 500) == 1001

        def no_elements(*args):
            raise AssertionError("a basis element was built")

        # any use of PairElem now fails, so the refusal must come first;
        # the oracle reads the name from its home module
        monkeypatch.setattr("rowiso.pair.PairElem", no_elements)
        start = time.perf_counter()
        with pytest.raises(ResourceExceeded):
            materialize(pp, 500)
        assert time.perf_counter() - start < 0.5

    def test_absorbing_pair_stays_cheap(self):
        # the canonical walk grows about 4x per unit of depth here
        start = time.perf_counter()
        model = materialize(absorbing_pair(), 40)
        assert time.perf_counter() - start < 1
        basis, imgs, depths = reference_pair_model(absorbing_pair(), 3)
        assert model.basis == basis == (PairElem((), (), "a"),
                                        PairElem((), (), "b"))
        assert {key: arr.tolist() for key, arr in model.imgs.items()} == imgs


# -- lazy pair names ---------------------------------------------------------


def eager_pair_basis(basis: _LazyBasis) -> tuple:
    """The names ``materialize`` used to build for every column up front."""
    (t_words, s_words), (t, s) = basis.words, basis.codes
    return tuple(PairElem(tw, sw, basis.base[k]) for tw, sw, k in zip(
        t_words.tuples(t), s_words.tuples(s), basis.pos.tolist()))


@pytest.fixture
def decoded(monkeypatch):
    """The columns a lazy basis names, in order, across every model."""
    seen = []
    real = _LazyBasis._decode

    def counting(self, cols):
        seen.extend(np.arange(len(self))[cols].tolist())
        return real(self, cols)

    monkeypatch.setattr(_LazyBasis, "_decode", counting)
    return seen


def assert_names_only_cited(rows, decoded, names):
    """A failing report names each column its rows cite, once each."""
    assert rows and decoded == sorted(set(decoded))
    shown = [f" {names[col]!r}" for col in decoded]
    for row in rows:
        assert any(row.endswith(s) for s in shown), row
    for s in shown:
        assert any(row.endswith(s) for row in rows), s


class TestLazyPairBasis:
    def assert_names(self, pp, depth, probes=(0, 1, -2, -1)):
        basis = materialize(pp, depth).basis
        want = eager_pair_basis(basis)
        assert len(basis) == len(want)
        # one column at a time before the bulk naming, then from it
        for k in probes:
            if -len(want) <= k < len(want):
                assert basis[k] == want[k], (pp, depth, k)
        assert tuple(basis) == want == basis, (pp, depth)
        assert basis[-1] == want[-1] and basis[1:3] == want[1:3]

    def test_every_acceptance_candidate(self, pair_space):
        for pp, _, _ in pair_space:
            self.assert_names(pp, 3, probes=(-1,))

    def test_random_pairs(self):
        rng = random.Random(1103)
        for _ in range(300):
            pp = random_pair(rng, max_nodes=5, max_m=3, max_n=3)
            self.assert_names(pp, min(len(pp.base) + 2, 4))

    def test_node_declared_twice(self):
        for depth in range(1, 6):
            self.assert_names(CORRUPTED_PAIRS["node-declared-twice"], depth)

    def test_length_and_a_passing_check_name_nothing(self, decoded):
        for pp in (FOUR_CORNERS, BILATERAL, free_pair(Theta.identity(2, 2))):
            model = materialize(pp, 4)
            assert len(model.basis) == len(reference_pair_basis(pp, 4))
            assert verify_relations(model).ok
        assert decoded == []

    def test_a_failing_report_names_only_its_columns(self, decoded):
        for pp in (IN_DEGREE_2_PAIR, CORRUPTED_PAIRS["forged-theta"]):
            model = materialize(pp, 3)
            names = reference_pair_basis(pp, 3)
            rows = verify_relations(model).rows
            assert_names_only_cited(rows, decoded, names)
            decoded.clear()

    def test_indexing_refuses_what_a_tuple_refuses(self):
        basis = materialize(FOUR_CORNERS, 2).basis
        for k in (len(basis), -len(basis) - 1):
            with pytest.raises(IndexError):
                basis[k]
        assert basis != list(basis) and basis != tuple(basis)[:-1]


# -- lazy single-family names -------------------------------------------------


class TestLazySingleBasis:
    def assert_names(self, p, depth, probes=(0, 1, -2, -1)):
        basis = materialize(p, depth).basis
        want = _raw_single_basis(p, depth)
        assert len(basis) == len(want)
        # one column at a time before the bulk naming, then from it
        for k in probes:
            if -len(want) <= k < len(want):
                assert basis[k] == want[k], (p, depth, k)
        assert tuple(basis) == want == basis, (p, depth)
        assert all(type(x) is Elem for x in basis)

    def test_every_small_presentation_at_depths_one_to_five(self):
        for p in single_space():
            for depth in range(1, 6):
                self.assert_names(p, depth, probes=(-1,))

    @pytest.mark.parametrize("name", sorted(CORRUPTED_SINGLES))
    def test_corrupted_presentations(self, name):
        # the node declared twice among them
        for depth in range(1, 6):
            self.assert_names(CORRUPTED_SINGLES[name], depth)

    def test_length_and_passing_checks_name_nothing(self, decoded):
        twin = Presentation(MIXED.m, MIXED.base, dict(MIXED.edges))
        for p in (FREE2, SELF_LOOP, TWO_CYCLE, MIXED):
            model = materialize(p, 4)
            assert len(model.basis) == len(_raw_single_basis(p, 4))
            assert verify_relations(model).ok
            res = wold(p)
            for part, claim in ((res.unitary_part, "unitary-on"),
                                (res.shift_part, "shift-on")):
                assert verify_subspace(model, part, ("S-reducing",
                                                     claim)).ok
        # a node set over an equal presentation is read by node too
        model = materialize(twin, 4)
        assert verify_subspace(model, full_space(MIXED), ("S-invariant",)).ok
        assert decoded == []

    def test_a_failing_report_names_only_its_columns(self, decoded):
        cases = [(CORRUPTED_SINGLES["duplicate-in-edge"], None),
                 (TWO_CYCLE, full_space(TWO_CYCLE)),
                 (MIXED, SubspaceDesc((Elem((), "a"),), frozenset("a"),
                                      MIXED))]
        for p, sub in cases:
            model = materialize(p, 3)
            names = _raw_single_basis(p, 3)
            if sub is None:
                rows = verify_relations(model).rows
            else:
                rows = verify_subspace(model, sub, ("S-invariant",
                                                    "shift-on")).rows
            assert_names_only_cited(rows, decoded, names)
            decoded.clear()


def test_pair_corner_claims_name_no_column(decoded):
    # a pair's corners are node sets over the model's own pair, read by
    # base node; a failing claim names only the column it cites
    model = materialize(FOUR_CORNERS, 4)
    res = slocinski(FOUR_CORNERS)
    for name, s_claim, t_claim in (("H_uu", "unitary-on", "unitary-on"),
                                   ("H_us", "unitary-on", "shift-on"),
                                   ("H_su", "shift-on", "unitary-on"),
                                   ("H_ss", "shift-on", "shift-on")):
        corner = getattr(res, name)
        assert verify_subspace(model, corner, (
            "S-reducing", "T-reducing", s_claim)).ok
        assert verify_subspace(model, corner, (t_claim,), family="t").ok
    assert decoded == []
    report = verify_subspace(model, res.H_ss, ("unitary-on",))
    assert len(report.rows) == len(decoded) == 1


# -- operator kernels --------------------------------------------------------


def dense(op, n):
    out = np.zeros((n, n), dtype=np.int64)
    np.add.at(out, (op[0], op[1]), 1)
    return out


def partial_map(img, n):
    # the 0/1 matrix of an image array: entry (img[c], c) where img[c] >= 0
    cols = np.flatnonzero(img >= 0)
    return dense((img[cols], cols), n)


def on_columns(op, mask):
    # the entries of op in the columns mask keeps
    keep = mask[op[1]]
    return op[0][keep], op[1][keep]


class TestOperatorKernels:
    def test_kernels_match_dense_integer_matrices(self):
        rng = np.random.default_rng(1031)
        for _ in range(200):
            n = int(rng.integers(1, 7))

            def op():
                k = int(rng.integers(0, 2 * n))
                return (rng.integers(0, n, k, dtype=np.int64),
                        rng.integers(0, n, k, dtype=np.int64))

            a, b = op(), op()
            assert (dense(_mul(a, b), n) == dense(a, n) @ dense(b, n)).all()
            assert (dense(_add([a, b]), n)
                    == dense(a, n) + dense(b, n)).all()
            mask = rng.integers(0, 2, n).astype(bool)
            bad = np.flatnonzero(
                (dense(a, n) != dense(b, n)).any(axis=0) & mask)
            want = {(0, 0): int(bad[0])} if len(bad) else {}
            assert _first_bad_columns(on_columns(a, mask),
                                      on_columns(b, mask), n, n) == want
        # the image-array kernels, on stacks of partial maps: injective
        # in even trials and arbitrary in odd ones
        rng = np.random.default_rng(1109)
        for trial in range(400):
            n = int(rng.integers(1, 7))
            count = int(rng.integers(1, 4))
            if trial % 2 == 0:  # distinct rows below n, the rest -1
                rows = rng.permutation(count * n)
                rows[(rows >= n) | (rng.random(count * n) < 0.3)] = -1
                stack = rows.reshape(count, n)
            else:
                stack = rng.integers(-1, n, (count, n), dtype=np.int64)
            G = [partial_map(row, n) for row in stack]
            other = rng.integers(-1, n, (count, n), dtype=np.int64)
            got = _compose(stack, other)
            for k in range(count):
                want = G[k] @ partial_map(other[k], n)
                assert (partial_map(got[k], n) == want).all(), trial
            counts = _image_counts(stack, n)
            assert (np.diag(counts) == sum(g @ g.T for g in G)).all()
            V = np.hstack(G)
            gram, eye = V.T @ V, np.eye(count * n, dtype=np.int64)
            want = {}
            for i in range(count):
                for j in range(count):
                    cells = np.s_[i * n:(i + 1) * n, j * n:(j + 1) * n]
                    bad = np.flatnonzero((gram[cells] != eye[cells]).any(
                        axis=0) & (stack[j] >= 0))
                    if len(bad):
                        want[(i, j)] = int(bad[0])
            got = _isometry_defects(stack, counts)
            assert list(got.items()) == list(want.items()), trial
            blocks = np.zeros((count * n, count * n), dtype=np.int64)
            for k in range(count):
                blocks[k * n:(k + 1) * n, k * n:(k + 1) * n] = G[k]
            assert (dense(_block_entries(stack, n), count * n)
                    == blocks).all()
            # kept entries: a mask per column, then one per entry
            for keep in (rng.random(n) < 0.5, rng.random((count, n)) < 0.5):
                kept = np.broadcast_to(keep, (count, n)).ravel()
                assert (dense(_block_entries(stack, n, keep), count * n)
                        == blocks * kept).all()

    def test_block_comparator_matches_dense_blocks(self):
        rng = np.random.default_rng(1039)
        for trial in range(400):
            size = int(rng.integers(1, 5))
            height = size * int(rng.integers(1, 4))
            width = size * int(rng.integers(1, 4))

            def op(k):
                return (rng.integers(0, height, k, dtype=np.int64),
                        rng.integers(0, width, k, dtype=np.int64))

            a = op(int(rng.integers(0, 2 * width)))
            if trial % 3 == 0:  # equal sides, entries in another order
                order = rng.permutation(len(a[0]))
                b = (a[0][order], a[1][order])
            else:
                b = op(int(rng.integers(0, 2 * width)))
            if trial % 2:
                mask = rng.integers(0, 2, width).astype(bool)
            else:
                mask = np.ones(width, dtype=bool)
            da, db = (np.zeros((height, width), dtype=np.int64)
                      for _ in range(2))
            np.add.at(da, a, 1)
            np.add.at(db, b, 1)
            want = {}
            for r in range(height // size):
                for c in range(width // size):
                    cells = np.s_[r * size:(r + 1) * size,
                                  c * size:(c + 1) * size]
                    bad = np.flatnonzero((da[cells] != db[cells]).any(axis=0)
                                         & mask[c * size:(c + 1) * size])
                    if len(bad):
                        want[(r, c)] = int(bad[0])
            got = _first_bad_columns(on_columns(a, mask),
                                     on_columns(b, mask), size, height)
            assert list(got.items()) == list(want.items()), trial


# -- relation checks ---------------------------------------------------------


def relations_and_claims(model) -> tuple:
    """The rows of ``rowiso oracle``: the identities, then the claims
    that the symbolic side's wandering vectors and unitary part put on
    the range projection of each family."""
    rows = verify_relations(model).rows
    for sub, claim, family in _oracle_claims(model.presentation):
        rows += verify_subspace(model, sub, (claim,), family).rows
    return rows


class TestVerifyRelations:
    def test_clean_singles_pass(self):
        for p in (FREE2, SELF_LOOP, TWO_CYCLE, MIXED):
            assert relations_and_claims(materialize(p, 3)) == ()

    def test_clean_pairs_pass(self):
        for pp in (FOUR_CORNERS, BILATERAL, free_pair(Theta.identity(2, 2))):
            assert relations_and_claims(materialize(pp, 3)) == ()

    def test_random_singles_pass(self):
        rng = random.Random(1009)
        for _ in range(10):
            p = random_presentation(rng)
            assert relations_and_claims(materialize(p, 3)) == ()

    def test_random_pairs_pass(self):
        for pp in honest_pairs(1013, 8):
            rows = relations_and_claims(materialize(pp, 3))
            assert rows == (), rows

    def test_duplicate_in_edge_caught(self):
        p = Presentation(1, ("a", "b", "c"), {("a", 1): "c", ("b", 1): "c"})
        report = verify_relations(materialize(p, 3))
        assert not report.ok
        assert any("s[1]^T s[1]" in row for row in report.rows)

    def test_report_repr(self):
        good = verify_relations(materialize(FREE2, 2))
        assert repr(good) == "Report(ok)"
        p = Presentation(1, ("a", "b", "c"), {("a", 1): "c", ("b", 1): "c"})
        bad = verify_relations(materialize(p, 3))
        assert "violations" in repr(bad)


# -- the per-identity reference ---------------------------------------------
#
# The oracle checks each identity family as one block product.  These
# are the loops it replaced, one product and one comparison per label,
# label pair or twist entry; the batched reports must equal theirs row
# for row.


def _tr(op):
    # the transpose: every entry (r, c) moved to (c, r)
    return op[1], op[0]


def _add(ops):
    # the sum of operators: every entry of each
    empty = np.zeros(0, dtype=np.int64)
    return (np.concatenate([empty] + [o[0] for o in ops]),
            np.concatenate([empty] + [o[1] for o in ops]))


def _diag(counts):
    # the diagonal operator with entry counts[c] at (c, c)
    at = np.repeat(np.arange(len(counts)), counts)
    return at, at


def ref_gen(model, key):
    img = model.imgs[key]
    cols = np.flatnonzero(img >= 0)
    return img[cols], cols


def ref_first_bad_column(lhs, rhs, mask):
    n = len(mask)
    keys = np.concatenate((lhs[1] * n + lhs[0], rhs[1] * n + rhs[0]))
    uniq, inv = np.unique(keys, return_inverse=True)
    split = len(lhs[0])
    net = (np.bincount(inv[:split], minlength=len(uniq))
           - np.bincount(inv[split:], minlength=len(uniq)))
    cols = uniq[net != 0] // n
    cols = cols[mask[cols]]
    return int(cols.min()) if len(cols) else None


def ref_check(rows, label, lhs, rhs, mask, basis):
    col = ref_first_bad_column(lhs, rhs, mask)
    if col is not None:
        rows.append(f"{label}: differs at column {basis[col]!r}")


def ref_two_steps(model, first, then):
    cols = model.imgs[first]
    live = cols >= 0
    return live & (model.imgs[then][np.where(live, cols, 0)] >= 0)


def reference_relations(model) -> tuple:
    rows = []
    p, basis = model.presentation, model.basis
    n = len(basis)
    eye = _diag(np.ones(n, dtype=np.int64))
    zero = _add([])
    pair = model.is_pair
    for fam, count in [("s", p.m)] + ([("t", p.n)] if pair else []):
        gens = [ref_gen(model, (fam, k)) for k in range(1, count + 1)]
        in_img = [model.imgs[(fam, k)] >= 0 for k in range(1, count + 1)]
        for i in range(count):
            for j in range(count):
                ref_check(rows, f"{fam}[{i+1}]^T {fam}[{j+1}]",
                          _mul(_tr(gens[i]), gens[j]),
                          eye if i == j else zero, in_img[j], basis)
        diag = sum(np.bincount(model.imgs[(fam, k)][in_img[k - 1]],
                               minlength=n)
                   for k in range(1, count + 1))
        valid = model.mask(adjoint=1) if pair else np.ones(n, dtype=bool)
        if np.any((diag > 1) & valid):
            bad = int(np.nonzero((diag > 1) & valid)[0][0])
            rows.append(f"sum {fam}{fam}^T exceeds identity at {basis[bad]!r}")
    if not pair:
        return tuple(rows)
    theta = p.theta
    S = {i: ref_gen(model, ("s", i)) for i in range(1, p.m + 1)}
    T = {j: ref_gen(model, ("t", j)) for j in range(1, p.n + 1)}
    for (i, j), (i2, j2) in sorted(theta.map.items()):
        ok = (ref_two_steps(model, ("t", j), ("s", i))
              & ref_two_steps(model, ("s", i2), ("t", j2)))
        ref_check(rows, f"S{i} T{j} = T{j2} S{i2}",
                  _mul(S[i], T[j]), _mul(T[j2], S[i2]), ok, basis)
    m1 = model.mask(forward=1, adjoint=1)
    for i in range(1, p.m + 1):
        for j in range(1, p.n + 1):
            rhs = _add([_mul(S[k], _tr(T[jk]))
                        for (k, jj), (ii, jk) in sorted(theta.map.items())
                        if jj == j and ii == i])
            ref_check(rows, f"T{j}^T S{i} display", _mul(_tr(T[j]), S[i]),
                      rhs, m1, basis)
            rhs2 = _add([_mul(T[k], _tr(S[ik]))
                         for (ii, k), (ik, jj) in sorted(theta.map.items())
                         if ii == i and jj == j])
            ref_check(rows, f"S{i}^T T{j} display", _mul(_tr(S[i]), T[j]),
                      rhs2, m1, basis)
    return tuple(rows)


def reference_subspace(model, sub, claims, family="s") -> tuple:
    rows = []
    p, basis = model.presentation, model.basis
    if sub.nodes is not None and sub.presentation == p:
        # the model's own elements are read by node, once validated
        if isinstance(p, Presentation) and basis:
            p.require_valid()
        member = np.array([x.node in sub.nodes for x in basis], dtype=bool)
    else:
        member = np.array(sub.contains_many(basis), dtype=bool)
    Q = _diag(member.astype(np.int64))
    ran = None
    for claim in sorted(set(claims)):
        fam = claim[0].lower() if claim[0] in "ST" else family
        count = p.m if fam == "s" else p.n
        if claim.endswith("-invariant") or claim.endswith("-reducing"):
            for k in range(1, count + 1):
                G = ref_gen(model, (fam, k))
                GQ = _mul(G, Q)
                if claim.endswith("-invariant"):
                    lhs, rhs = GQ, _mul(Q, GQ)
                else:
                    lhs, rhs = _mul(Q, G), GQ
                col = ref_first_bad_column(lhs, rhs,
                                           model.imgs[(fam, k)] >= 0)
                if col is not None:
                    rows.append(f"{claim} fails for {fam}[{k}] at "
                                f"column {basis[col]!r}")
        elif claim in ("unitary-on", "wandering"):
            if ran is None:
                ran = _add([_mul(g, _tr(g)) for g in
                            (ref_gen(model, (fam, k))
                             for k in range(1, count + 1))])
            if claim == "unitary-on":
                col = ref_first_bad_column(
                    _mul(ran, Q), Q, member & model.mask(adjoint=1))
            else:
                attr = f"{fam}_prefix" if model.is_pair else "prefix"
                bare = np.zeros(len(basis), dtype=bool)
                bare[[c for c in np.flatnonzero(member).tolist()
                      if not getattr(basis[c], attr)]] = True
                alive = np.zeros(len(basis), dtype=bool)
                alive[ran[1]] = True
                bad = model.mask(adjoint=1) & (alive == bare)
                col = int(np.argmax(bad)) if bad.any() else None
            if col is not None:
                rows.append(f"{claim} fails at column {basis[col]!r}")
        elif claim == "shift-on":
            rows.extend(reference_shift_on(model, member, fam, basis))
    return tuple(rows)


def reference_shift_on(model, member, fam, basis) -> list:
    """``oracle._shift_on`` as a walk over each member's chain, in Python.

    The oracle's pointer doubling must report the same row.
    """
    # backward chains must die; every step is trusted only while the
    # current vector's true predecessor is guaranteed in-basis
    count = model.presentation.m if fam == "s" else model.presentation.n
    n = len(basis)
    pred = np.full(n, -1, dtype=np.int64)
    for k in range(1, count + 1):
        arr = model.imgs[(fam, k)]
        cols = np.nonzero(arr >= 0)[0]
        pred[arr[cols]] = cols
    pred = pred.tolist()
    safe = model.mask(adjoint=1).tolist()
    # a column's chain is its predecessor's chain one step longer, so
    # each column is walked once; state 1 marks the current walk, state
    # 2 a column whose chain dies or leaves the safe columns
    state = [0] * n
    for start in np.flatnonzero(member).tolist():
        cur, path = start, []
        while safe[cur] and state[cur] != 2:
            if state[cur] == 1:
                return [f"shift-on fails: cycle through {basis[start]!r}"]
            state[cur] = 1
            path.append(cur)
            cur = pred[cur]
            if cur < 0:
                break  # certified death
        for col in path:
            state[col] = 2
    return []


SINGLE_CLAIMS = ("S-invariant", "S-reducing", "unitary-on", "shift-on",
                 "wandering")
PAIR_CLAIMS = ("S-invariant", "T-invariant", "S-reducing", "T-reducing",
               "unitary-on", "shift-on", "wandering")
FAMILY_CLAIMS = ("unitary-on", "shift-on", "wandering")


def single_claims(p, rng) -> list:
    """(description, claims, family): the unitary part, a node set, and
    a random explicit set of two vectors, each with every claim."""
    elems = enumerate_basis(p, 2)
    spot = SubspaceDesc(tuple(rng.sample(elems, min(2, len(elems)))))
    return [(sub, SINGLE_CLAIMS, "s")
            for sub in (wold(p).unitary_part, spot)]


def pair_claims(pp) -> list:
    """Every claim for both families on an explicit set of base vectors,
    on each family's dead nodes of a valid pair (the T-family's needs a
    bijective twist), and on the four corners of a jointly isometric
    one."""
    subs = [SubspaceDesc(tuple(PairElem((), (), b) for b in pp.base[::2]))]
    if validate_pair(pp).ok:
        subs.append(SubspaceDesc((), dead_nodes(pp), pp))
    if validate_pair(pp).ok and bijective(pp.theta):
        subs.append(SubspaceDesc((), dead_nodes(mirror(pp)), pp))
        if check_joint_isometry(pp).ok:
            res = slocinski(pp)
            subs += [res.H_uu, res.H_us, res.H_su, res.H_ss]
    # only the family-less claims read ``family``
    return [(sub, claims, family) for sub in subs
            for claims, family in ((PAIR_CLAIMS, "s"), (FAMILY_CLAIMS, "t"))]


def bijective(theta) -> bool:
    # a forged twist has no mirror
    return len(set(theta.map.values())) == len(theta.map)


def corrupt_one_entry(model, rng, cols=None) -> None:
    """Replace one generator's array by a copy with one entry moved, at
    one of ``cols`` when given."""
    key = rng.choice(model.keys)
    fake = model.imgs[key].copy()
    col = rng.randrange(len(fake)) if cols is None else rng.choice(cols)
    fake[col] = rng.choice([r for r in range(-1, len(fake))
                            if r != fake[col]])
    model.imgs[key] = fake


class TestBatchedMatchesReference:
    def assert_same(self, model, claims):
        assert verify_relations(model).rows == reference_relations(model)
        for sub, names, family in claims:
            assert verify_subspace(model, sub, names, family).rows == \
                reference_subspace(model, sub, names, family), \
                (model.presentation, sub, family)

    def test_every_single_presentation_clean_and_corrupted(self):
        rng = random.Random(1049)
        failing = 0
        for p in single_space():
            claims = single_claims(p, rng)
            model = materialize(p, 3)
            self.assert_same(model, claims)
            corrupt_one_entry(model, rng)
            self.assert_same(model, claims)
            failing += not verify_relations(model).ok
        assert failing > 500  # the corruptions do reach the reports

    def test_named_pairs_and_the_forged_theta(self):
        forged = PairPresentation(
            _forge_theta(2, 1, {(1, 1): (1, 1), (2, 1): (1, 1)},
                         {(1, 1): (2, 1), (2, 1): (2, 1)}), ("b",), {}, {})
        pairs = [FOUR_CORNERS, BILATERAL, IN_DEGREE_2_PAIR, forged]
        pairs += [free_pair(theta) for theta in all_thetas(2, 2)]
        rng = random.Random(1051)
        for pp in pairs:
            claims = pair_claims(pp)
            model = materialize(pp, 3)
            self.assert_same(model, claims)
            corrupt_one_entry(model, rng)
            self.assert_same(model, claims)

    def test_random_honest_pairs(self):
        rng = random.Random(1061)
        failing = 0
        for pp in honest_pairs(1063, 200):
            claims = pair_claims(pp)
            model = materialize(pp, 3)
            self.assert_same(model, claims)
            corrupt_one_entry(model, rng)
            self.assert_same(model, claims)
            failing += not verify_relations(model).ok
        assert failing > 100

    def assert_same_corrupted(self, model, rng) -> bool:
        """Clean, then after one moved entry at any column and after one
        at a kept column of the displays; whether the latter gave a
        display row."""
        self.assert_same(model, ())
        kept = np.flatnonzero(model.mask(forward=1, adjoint=1)).tolist()
        clean = dict(model.imgs)
        corrupt_one_entry(model, rng)
        self.assert_same(model, ())
        if not kept:
            return False
        model.imgs.update(clean)
        corrupt_one_entry(model, rng, kept)
        self.assert_same(model, ())
        return any("display" in row for row in verify_relations(model).rows)

    def test_edge_free_pairs_keep_few_columns_or_none(self):
        # with |base| = k the displays keep the columns of depth at most
        # depth - k, so k + 2 keeps those of depth 2 and k - 1 keeps none
        rng = random.Random(1069)
        shown = 0
        for k in (3, 4):
            nodes = tuple(f"b{q}" for q in range(k))
            for theta in all_thetas(2, 2):
                pp = PairPresentation(theta, nodes, {}, {})
                for depth in (k + 2, *range(1, k)):
                    model = materialize(pp, depth)
                    kept = model.mask(forward=1, adjoint=1)
                    assert kept.sum() == ((model.depths <= 2).sum()
                                          if depth == k + 2 else 0)
                    shown += self.assert_same_corrupted(model, rng)
        assert shown > 0

    def test_product_pairs_keep_few_columns_or_none(self):
        # products of two random 2-label families, |base| 1 to 400 at
        # depths 2 and 3: from |base| 4 on no display keeps a column
        rng = random.Random(1091)
        shown = 0
        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 5), (3, 4),
                     (10, 10), (20, 20)) * 3:
            P = Presentation(2, tuple(range(a)),
                             random_edges(rng, tuple(range(a)), 2))
            Q = Presentation(2, tuple(range(b)),
                             random_edges(rng, tuple(range(b)), 2))
            pp = product_pair(P, Q)
            assert check_joint_isometry(pp).ok
            for depth in (2, 3):
                model = materialize(pp, depth)
                if a * b >= 4:
                    assert not model.mask(forward=1, adjoint=1).any()
                shown += self.assert_same_corrupted(model, rng)
        assert shown > 0


# -- independence ------------------------------------------------------------


def runtime_imports(tree: ast.AST) -> list:
    """(module, names) of every import outside ``if TYPE_CHECKING:``.

    A package module is named relative to ``rowiso`` ("pair"); names are
    None for a plain ``import``.
    """
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and getattr(node.test, "id",
                                                None) == "TYPE_CHECKING":
            for child in node.orelse:
                out += runtime_imports(child)
            continue
        if isinstance(node, ast.Import):
            out += [(alias.name.removeprefix("rowiso."), None)
                    for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            module = node.module or ""
            if node.level == 0:
                module = module.removeprefix("rowiso")
            module = module.lstrip(".")
            if module:
                out.append((module, names))
            else:
                out += [(name, None) for name in names]  # from . import x
        out += runtime_imports(node)
    return out


class TestIndependence:
    # all the oracle may import from the package: the errors, the word
    # calculus and the data types, never a decider
    ALLOWED = {
        "errors": None,
        "words": None,
        "pair": {"PairElem", "PairPresentation"},
        "presentation": {"Elem", "Presentation"},
    }

    def test_oracle_imports_no_decider(self):
        path = Path(rowiso.oracle.__file__)
        package = {p.stem for p in path.parent.glob("*.py")}
        seen = set()
        for module, names in runtime_imports(ast.parse(path.read_text())):
            root = module.split(".")[0]
            if root not in package:
                continue  # the standard library, numpy
            assert root in self.ALLOWED, f"oracle imports {module}"
            allowed = self.ALLOWED[root]
            if allowed is not None:
                assert names is not None and set(names) <= allowed, \
                    f"oracle imports {names} from {module}"
            seen.add(root)
        assert seen == set(self.ALLOWED)

    def test_the_walker_sees_through_the_forms(self):
        source = """
import rowiso.wold
from rowiso.slocinski import dead_nodes
from . import cli
from .pair import mirror
if TYPE_CHECKING:
    from .wold import SubspaceDesc
def f():
    from .lebesgue import classify_unitary
"""
        assert runtime_imports(ast.parse(source)) == [
            ("wold", None), ("slocinski", ["dead_nodes"]), ("cli", None),
            ("pair", ["mirror"]), ("lebesgue", ["classify_unitary"])]


# -- subspace claims ---------------------------------------------------------


def full_space(p):
    """Every canonical element: the node set over the whole base."""
    return SubspaceDesc(tuple(Elem((), b) for b in p.base),
                        frozenset(p.base), p)


class TestVerifySubspace:
    def test_unitary_part_of_cycle(self):
        model = materialize(TWO_CYCLE, 3)
        part = wold(TWO_CYCLE).unitary_part
        assert verify_subspace(
            model, part, ("S-invariant", "S-reducing", "unitary-on")).ok

    def test_cycle_flagged_by_shift_claim(self):
        model = materialize(TWO_CYCLE, 3)
        full = full_space(TWO_CYCLE)
        report = verify_subspace(model, full, ("shift-on",))
        assert not report.ok
        assert report.rows[0].startswith("shift-on fails: cycle")

    def test_free_family_is_certified_shift(self):
        model = materialize(FREE2, 4)
        full = full_space(FREE2)
        assert verify_subspace(model, full, ("shift-on", "S-reducing")).ok

    def test_wandering_vector_breaks_unitary_claim(self):
        model = materialize(FREE2, 4)
        full = full_space(FREE2)
        report = verify_subspace(model, full, ("unitary-on",))
        assert not report.ok
        assert "unitary-on fails" in report.rows[0]

    def test_non_invariant_subspace_caught(self):
        model = materialize(FREE2, 3)
        spike = SubspaceDesc((Elem((), "b"),))
        report = verify_subspace(model, spike, ("S-invariant",))
        assert not report.ok
        assert "S-invariant fails for s[1]" in report.rows[0]

    def test_four_corner_claims(self):
        model = materialize(FOUR_CORNERS, 5)
        res = slocinski(FOUR_CORNERS)
        both = ("S-invariant", "T-invariant", "S-reducing", "T-reducing")
        assert verify_subspace(model, res.H_uu, both + ("unitary-on",)).ok
        assert verify_subspace(
            model, res.H_uu, ("unitary-on",), family="t").ok
        assert verify_subspace(model, res.H_ss, both + ("shift-on",)).ok
        assert verify_subspace(
            model, res.H_ss, ("shift-on",), family="t").ok
        assert verify_subspace(
            model, res.H_us, ("unitary-on",), family="s").ok
        assert verify_subspace(
            model, res.H_us, ("shift-on",), family="t").ok

    def test_wrong_wandering_sets_fail(self):
        # the four corners: S kills c and d, T kills b and d; dropping a
        # dead node or adding a live one must break the claim
        model = materialize(FOUR_CORNERS, 5)
        base = set(FOUR_CORNERS.base)
        for family, twin in (("s", FOUR_CORNERS), ("t", mirror(FOUR_CORNERS))):
            dead = dead_nodes(twin)
            wrong = [dead - {b} for b in sorted(dead)]
            wrong += [dead | {b} for b in sorted(base - dead)]
            for nodes in [dead] + wrong:
                sub = SubspaceDesc((), frozenset(nodes), FOUR_CORNERS)
                report = verify_subspace(model, sub, ("wandering",), family)
                assert report.ok == (nodes == dead), (family, nodes)
                if not report.ok:
                    moved = sorted(set(dead) ^ set(nodes))
                    assert report.rows == (
                        f"wandering fails at column "
                        f"{PairElem((), (), moved[0])!r}",)

    def test_unknown_claim_rejected(self):
        model = materialize(FREE2, 2)
        full = full_space(FREE2)
        with pytest.raises(ValidationError):
            verify_subspace(model, full, ("invariant",))
        with pytest.raises(ValidationError):
            verify_subspace(model, full, ("unitary-on",), family="x")

    def test_a_string_of_claims_is_refused_by_name(self):
        model = materialize(FREE2, 2)
        full = full_space(FREE2)
        # a bare string would be split into its letters
        for claims in ("unitary-on", "S-invariant", ""):
            with pytest.raises(ValidationError, match=repr(claims)):
                verify_subspace(model, full, claims)
        # any other collection of names keeps working
        want = verify_subspace(model, full, ("unitary-on", "S-invariant"))
        assert not want.ok
        for claims in (["unitary-on", "S-invariant"],
                       {"unitary-on", "S-invariant"},
                       frozenset({"unitary-on", "S-invariant"})):
            assert verify_subspace(model, full, claims) == want

    def test_t_claims_on_a_single_family_rejected(self):
        model = materialize(FREE2, 2)
        full = full_space(FREE2)
        for claims, family in ((("T-invariant",), "s"),
                               (("S-reducing", "shift-on"), "t")):
            with pytest.raises(ValidationError):
                verify_subspace(model, full, claims, family)
        # a family-less claim reads the family only when it is named
        assert verify_subspace(model, full, ("S-reducing",), "t").ok


# -- pinned report rows ------------------------------------------------------

# Full report rows of a fixed corrupted corpus, recorded from the
# scipy.sparse implementation: the integer-array identities must report
# the same violation, in the same words, at the same column.
CYCLE_AND_WANDERER = Presentation(2, ("a", "b", "c"),
                                  {("a", 1): "b", ("b", 1): "a"})
IN_DEGREE_2_PAIR = PairPresentation(
    Theta(2, 1, {(1, 1): (2, 1), (2, 1): (1, 1)}), ("a", "b", "c"),
    {("a", 1): "c", ("b", 2): "c"}, {("a", 1): "b", ("c", 1): "b"})

PINNED_ROWS = {
    "duplicate-in-edge": (
        "s[1]^T s[1]: differs at column <a>",
        "sum ss^T exceeds identity at <c>",
    ),
    "forged-theta": (
        "s[1]^T s[2]: differs at column <t1|b>",
        "s[2]^T s[1]: differs at column <t1|b>",
        "sum ss^T exceeds identity at <t1 s1|b>",
        "T1^T S1 display: differs at column <t1|b>",
        "T1^T S2 display: differs at column <t1|b>",
    ),
    "forged-theta-wandering": (
        "wandering fails at column <t1 s2|b>",
    ),
    "boundary-as-interior": (
        "s[1]^T s[1]: differs at column <s1 s1|b>",
        "sum ss^T exceeds identity at <b>",
    ),
    "boundary-as-interior-wandering": (
        "wandering fails at column <b>",
    ),
    "shift-part-unitary-on": (
        "unitary-on fails at column <c>",
    ),
    "unitary-part-shift-on": (
        "shift-on fails: cycle through <a>",
    ),
    "explicit-set-claims": (
        "S-invariant fails for s[1] at column <c>",
        "S-invariant fails for s[2] at column <c>",
        "S-reducing fails for s[1] at column <c>",
        "S-reducing fails for s[2] at column <a>",
        "shift-on fails: cycle through <s2|a>",
        "unitary-on fails at column <c>",
    ),
    "in-degree-2-pair": (
        "s[1]^T s[2]: differs at column <b>",
        "s[2]^T s[1]: differs at column <a>",
        "sum ss^T exceeds identity at <c>",
        "t[1]^T t[1]: differs at column <a>",
        "sum tt^T exceeds identity at <b>",
        "S2 T1 = T1 S1: differs at column <a>",
        "T1^T S1 display: differs at column <a>",
        "S1^T T1 display: differs at column <a>",
        "T1^T S2 display: differs at column <b>",
        "S2^T T1 display: differs at column <c>",
    ),
    "in-degree-2-pair-full-space": (
        "unitary-on fails at column <a>",
    ),
    "in-degree-2-pair-explicit": (
        "S-invariant fails for s[1] at column <a>",
        "S-invariant fails for s[2] at column <a>",
        "T-reducing fails for t[1] at column <a>",
        "unitary-on fails at column <a>",
    ),
}


def pinned_corpus_rows() -> dict:
    out = {}
    dup = Presentation(1, ("a", "b", "c"), {("a", 1): "c", ("b", 1): "c"})
    out["duplicate-in-edge"] = verify_relations(materialize(dup, 3)).rows
    forged = PairPresentation(
        _forge_theta(2, 1, {(1, 1): (1, 1), (2, 1): (1, 1)},
                     {(1, 1): (2, 1), (2, 1): (2, 1)}), ("b",), {}, {})
    model = materialize(forged, 3)
    out["forged-theta"] = verify_relations(model).rows
    dead = SubspaceDesc((), dead_nodes(forged), forged)
    out["forged-theta-wandering"] = verify_subspace(
        model, dead, ("wandering",)).rows
    free2 = free_presentation(2)
    model = materialize(free2, 2)
    fake = model.imgs[("s", 1)].copy()
    fake[fake < 0] = 0  # the boundary lie: dropped images claimed at <b>
    model.imgs[("s", 1)] = fake
    out["boundary-as-interior"] = verify_relations(model).rows
    out["boundary-as-interior-wandering"] = verify_subspace(
        model, SubspaceDesc(wold(free2).wandering), ("wandering",)).rows
    res = wold(CYCLE_AND_WANDERER)
    model = materialize(CYCLE_AND_WANDERER, 3)
    out["shift-part-unitary-on"] = verify_subspace(
        model, res.shift_part, ("unitary-on",)).rows
    out["unitary-part-shift-on"] = verify_subspace(
        model, res.unitary_part, ("shift-on",)).rows
    spike = SubspaceDesc((Elem((), "c"), Elem((2,), "a")))
    out["explicit-set-claims"] = verify_subspace(
        model, spike,
        ("S-invariant", "S-reducing", "unitary-on", "shift-on")).rows
    model = materialize(IN_DEGREE_2_PAIR, 3)
    out["in-degree-2-pair"] = verify_relations(model).rows
    full = SubspaceDesc(
        tuple(PairElem((), (), b) for b in IN_DEGREE_2_PAIR.base),
        frozenset(IN_DEGREE_2_PAIR.base), IN_DEGREE_2_PAIR)
    out["in-degree-2-pair-full-space"] = verify_subspace(
        model, full, ("T-invariant", "T-reducing", "unitary-on", "shift-on"),
        family="t").rows
    spot = SubspaceDesc((PairElem((), (), "a"), PairElem((), (1,), "b")))
    out["in-degree-2-pair-explicit"] = verify_subspace(
        model, spot,
        ("S-invariant", "T-reducing", "unitary-on", "shift-on")).rows
    return out


class TestPinnedReportRows:
    def test_rows_of_the_corrupted_corpus(self):
        got = pinned_corpus_rows()
        assert list(got) == list(PINNED_ROWS)
        for name, rows in PINNED_ROWS.items():
            assert got[name] == rows, name


# -- search ------------------------------------------------------------------


class TestSearch:
    SPACE11 = SearchSpace(1, 1, 1, (ID11,))

    def test_tiny_space_doubly_commuting(self):
        hits = search(self.SPACE11, "doubly-commuting")
        # free, S-loop, T-loop, twin loops: all four candidates qualify
        assert len(hits) == 4

    def test_tiny_space_has_no_decomposition_failures(self):
        assert search(self.SPACE11, "no-slocinski") == []

    def test_shift_against_unitary_candidates(self):
        space = SearchSpace(1, 1, 2, (Theta.identity(1, 2),))
        hits = search(space, "S-shift-T-unitary")
        assert len(hits) == 2
        for pp in hits:
            assert pp.s_edges == {}
            assert pp.t_edges

    def test_deterministic_order(self):
        space = SearchSpace(1, 2, 1, all_thetas(2, 1))
        assert search(space, "doubly-commuting") == \
            search(space, "doubly-commuting")

    def test_unknown_predicate(self):
        with pytest.raises(ValidationError):
            search(self.SPACE11, "interesting")

    def test_budget_enforced(self):
        big = SearchSpace(4, 2, 2, all_thetas(2, 2))
        with pytest.raises(ResourceExceeded):
            search(big, "doubly-commuting")


class TestAllThetas:
    def test_counts_are_factorials(self):
        assert len(all_thetas(1, 1)) == 1
        assert len(all_thetas(2, 1)) == 2
        assert len(all_thetas(2, 2)) == 24

    def test_first_is_identity(self):
        assert all_thetas(2, 2)[0].is_identity

    def test_all_bijective(self):
        for theta in all_thetas(2, 2):
            assert len(set(theta.map.values())) == 4


# -- fault injection ---------------------------------------------------------


class TestFaultInjection:
    def test_every_fault_detected(self):
        results = run_fault_injection()
        assert len(results) == 7
        assert all(results.values()), results

    def test_library_names(self):
        names = [name for name, _ in fault_library()]
        assert names == ["duplicate-in-edge", "non-bijective-theta",
                         "boundary-as-interior", "non-canonical-element",
                         "wrong-corner-seed", "cycle-claimed-shift",
                         "wrong-wandering-set"]

    def test_forged_theta_bypasses_validation(self):
        mapping = {(1, 1): (1, 1), (2, 1): (1, 1)}
        inverse = {(1, 1): (2, 1), (2, 1): (2, 1)}
        with pytest.raises(ValidationError):
            Theta(2, 1, mapping)
        forged = _forge_theta(2, 1, mapping, inverse)
        assert forged.map == mapping
        # and the matrix identities expose the forgery downstream
        pp = PairPresentation(forged, ("b",), {}, {})
        assert not verify_relations(materialize(pp, 3)).ok


# -- shift-on by pointer doubling ----------------------------------------------


def assert_shift_on_matches_walk(model, member, fam="s"):
    col = _shift_on(model, member, fam)
    got = [] if col is None else \
        [f"shift-on fails: cycle through {model.basis[col]!r}"]
    assert got == reference_shift_on(model, member, fam, model.basis), \
        (model.presentation, model.depth, fam)


def node_members(model, sub) -> np.ndarray:
    """The member columns of a node set over the model's own presentation."""
    answers = sub.base_membership(model.presentation)
    return np.array(answers, dtype=bool)[model.basis.pos]


class TestShiftOnMatchesTheWalk:
    def test_every_single_presentation_at_depths_one_to_five(self):
        for p in single_space():
            res = wold(p)
            for depth in range(1, 6):
                model = materialize(p, depth)
                assert_shift_on_matches_walk(
                    model, np.ones(len(model.basis), dtype=bool))
                for part in (res.unitary_part, res.shift_part):
                    assert_shift_on_matches_walk(model,
                                                 node_members(model, part))

    def test_corrupted_presentations(self):
        rng = np.random.default_rng(1213)
        for p in CORRUPTED_SINGLES.values():
            for depth in range(1, 6):
                model = materialize(p, depth)
                n = len(model.basis)
                for member in (np.ones(n, dtype=bool), rng.random(n) < 0.5):
                    assert_shift_on_matches_walk(model, member)

    def test_the_cycle_claimed_as_a_shift(self):
        # the case of the fault library's "cycle-claimed-shift"
        p = Presentation(1, ("a", "b"), {("a", 1): "b", ("b", 1): "a"})
        model = materialize(p, 3)
        member = node_members(model, wold(p).unitary_part)
        assert _shift_on(model, member, "s") == 0
        assert_shift_on_matches_walk(model, member)

    def test_pair_corners_of_the_oracle_checked_candidates(self, pair_space):
        checked = 0
        for pp, _, injective in pair_space:
            if not injective or not check_doubly_commute(pp).ok:
                continue
            res = slocinski(pp)
            if not res.exists:
                continue
            model = materialize(pp, 4)
            for corner in (res.H_uu, res.H_us, res.H_su, res.H_ss):
                member = node_members(model, corner)
                for fam in ("s", "t"):
                    assert_shift_on_matches_walk(model, member, fam)
            checked += 1
        assert checked > 1000


# -- isometry defects on a family with many labels ----------------------------


def reference_isometry_defects(stack, counts) -> dict:
    """``oracle._isometry_defects`` with dense per-image block counts and
    a loop over every (i, j); the oracle's version must match it."""
    shared = counts[stack] > 1
    shared &= stack >= 0
    if not shared.any():
        return {}
    k, c = np.nonzero(shared)  # by block, then column
    values, group = np.unique(stack[k, c], return_inverse=True)
    count = len(stack)
    per_block = np.zeros((len(values), count), dtype=np.int64)
    np.add.at(per_block, (group, k), 1)
    # the other columns sharing entry e's image, per row block
    others = per_block[group] - (np.arange(count) == k[:, None])
    bad = {}
    for i in range(count):
        for j in range(count):
            hit = (k == j) & (others[:, i] > 0)
            if hit.any():
                bad[(i, j)] = int(c[np.argmax(hit)])
    return bad


def collapsing_family(labels: int) -> Presentation:
    """One node every label but the first sends back to itself."""
    return Presentation(labels, ("b",),
                        {("b", i): "b" for i in range(2, labels + 1)})


def absorbing_nodes(count: int, labels: int) -> Presentation:
    """count base nodes and z, each sending letter 1 to the node z; the
    other labels have no edges."""
    nodes = tuple(f"x{k}" for k in range(count)) + ("z",)
    return Presentation(labels, nodes, {(x, 1): "z" for x in nodes})


@pytest.fixture
def word_decodes(monkeypatch):
    """How many times a basis decodes words, across every model."""
    calls = []
    real = rowiso.oracle._Words.tuples

    def counting(self, codes):
        calls.append(len(codes))
        return real(self, codes)

    monkeypatch.setattr(rowiso.oracle._Words, "tuples", counting)
    return calls


class TestIsometryDefects:
    def test_match_the_dense_reference_on_corrupted_models(self):
        models = [materialize(p, depth) for p in CORRUPTED_SINGLES.values()
                  for depth in (2, 4)]
        models += [materialize(collapsing_family(40), 3)]
        models += [materialize(absorbing_nodes(30, 3), 2)]
        models += [materialize(pp, 3) for pp in CORRUPTED_PAIRS.values()]
        models += [materialize(IN_DEGREE_2_PAIR, 4)]
        for model in models:
            for fam in ("s", "t") if model.is_pair else ("s",):
                stack = np.array([model.imgs[key] for key in model.keys
                                  if key[0] == fam])
                counts = _image_counts(stack, len(model.basis))
                want = reference_isometry_defects(stack, counts)
                assert list(_isometry_defects(stack, counts).items()) == \
                    list(want.items()), model.presentation

    def test_a_report_decodes_its_columns_once(self, word_decodes):
        cases = [(materialize(collapsing_family(40), 3), None),
                 (materialize(IN_DEGREE_2_PAIR, 3), None),
                 (materialize(CORRUPTED_PAIRS["forged-theta"], 3), None),
                 (materialize(MIXED, 3), SubspaceDesc(
                     (Elem((), "a"),), frozenset("a"), MIXED))]
        for model, sub in cases:
            if sub is None:
                rows = verify_relations(model).rows
            else:
                rows = verify_subspace(model, sub, (
                    "S-invariant", "unitary-on", "shift-on")).rows
            # one decode names one word per family
            assert len(rows) > 1 and len(word_decodes) == \
                len(model.basis.words), model.presentation
            word_decodes.clear()

    def test_many_labels_cost_a_fraction_of_their_image_arrays(self):
        # 300 labels at depth 3: 90,302 columns and 89,103 report rows
        model = materialize(collapsing_family(300), 3)
        image_bytes = sum(model.imgs[key].nbytes for key in model.keys)
        tracemalloc.start()
        try:
            rows = verify_relations(model).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(model.basis) == 90_302 and len(rows) == 89_103
        assert rows[0] == "s[2]^T s[3]: differs at column <b>"
        assert peak < image_bytes / 2

    def test_many_nodes_with_one_image_cost_a_fraction_of_their_arrays(self):
        # 5,001 columns of one block share the image e_z: they are one
        # block's row, not 5,001 squared pairs of entries
        model = materialize(absorbing_nodes(5_000, 12), 1)
        image_bytes = sum(model.imgs[key].nbytes for key in model.keys)
        tracemalloc.start()
        try:
            rows = verify_relations(model).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == ("s[1]^T s[1]: differs at column <x0>",
                        "sum ss^T exceeds identity at <z>")
        assert peak < image_bytes / 2
        stack = np.array([model.imgs[key] for key in model.keys])
        counts = _image_counts(stack, len(model.basis))
        assert _isometry_defects(stack, counts) == \
            reference_isometry_defects(stack, counts) == {(0, 0): 0}


# -- shared word tables -------------------------------------------------------


def reference_words(k: int, top: int) -> list:
    """Every word of length at most ``top`` in k letters, in shortlex
    order: a word's index is its code."""
    return [w for length in range(top + 1)
            for w in itertools.product(range(1, k + 1), repeat=length)]


class TestSharedWordTables:
    @pytest.mark.parametrize("build", [_Words, _shared_words])
    def test_every_table_is_a_fresh_build(self, build):
        for k in (1, 2, 3):
            for top in range(9):
                words, names = build(k, top), reference_words(k, top)
                code = {w: c for c, w in enumerate(names)}
                assert (words.k, words.top, words.size) == \
                    (k, top, len(names))
                assert words.powers.tolist() == [k ** L for L in
                                                 range(top + 1)]
                assert words.offsets.tolist() == [
                    sum(k ** L for L in range(n)) for n in range(top + 2)]
                assert words.length.tolist() == list(map(len, names))
                assert words.last.tolist() == [w[-1] if w else 0
                                               for w in names]
                assert words.head.tolist() == [code[w[:-1]] if w else 0
                                               for w in names]
                assert words.tuples(np.arange(len(names))) == names
                # codes in any order, repeated
                codes = np.arange(len(names))[::-1].repeat(2)
                assert words.tuples(codes) == [names[c] for c in codes]

    def test_one_build_per_process_within_the_bound(self):
        bound = _shared_words.cache_info().maxsize
        assert bound == 16
        for k in (1, 2, 3):
            for top in range(9):
                words = _shared_words(k, top)
                assert _shared_words(k, top) is words
                assert _shared_words.cache_info().currsize <= bound
        # every model reads the shared tables
        pair = materialize(free_pair(Theta.identity(2, 2)), 4)
        assert pair.basis.words == (_shared_words(2, 4),) * 2
        assert materialize(FREE2, 4).basis.words == (_shared_words(2, 4),)

    def test_tables_are_read_only(self):
        words = _shared_words(2, 3)
        for table in (words.powers, words.offsets, words.length,
                      words.last, words.head):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 7
        assert _shared_words(2, 3).length[0] == 0


# -- shared twist tables ------------------------------------------------------


def letter_moves(theta, family: str) -> tuple:
    """The move table a pair's twist is keyed by, read off the letter
    calculus: per letter f of ``family``'s words and carry c of the
    other family, the letter left in f's place and the carry out."""
    if family == "s":  # a T-letter pushed through S-words
        k, carries = theta.m, theta.n
        move = lambda f, c: commute_t_right(theta, (f,), c)
    else:
        k, carries = theta.n, theta.m
        move = lambda f, c: commute_s_left(theta, c, (f,))
    return tuple((*w, d) for f in range(1, k + 1)
                 for w, d in (move(f, c) for c in range(1, carries + 1)))


def acceptance_thetas() -> list:
    return [Theta(m, n, dict(zip(grid, perm)))
            for m in (1, 2) for n in (1, 2)
            for grid in [list(itertools.product(range(1, m + 1),
                                                range(1, n + 1)))]
            for perm in itertools.permutations(grid)]


def shared_twist_cases() -> list:
    """(pair, depth): free pairs of every acceptance theta, the 3x2
    theta and the forged theta at depths 1 to 6."""
    thetas = acceptance_thetas() + [THETA_32,
                                    CORRUPTED_PAIRS["forged-theta"].theta]
    return [(free_pair(theta), depth)
            for theta in thetas for depth in range(1, 7)]


class TestSharedTwistTables:
    def test_every_shared_table_is_a_fresh_build(self):
        cases = shared_twist_cases()
        assert len(cases) == 31 * 6
        for pp, depth in cases:
            tables = _PairTables(pp, depth)
            for words, fam, shared in (
                    (tables.s_words, "s", tables.t_through_s),
                    (tables.t_words, "t", tables.s_through_t)):
                carries = pp.n if fam == "s" else pp.m
                fresh = _twist_table.__wrapped__(
                    words.k, words.top, carries, letter_moves(pp.theta, fam))
                for got, want in zip(shared, fresh):
                    assert got.dtype == want.dtype == np.int32
                    assert np.array_equal(got, want), (pp.theta, depth, fam)

    def test_tables_are_read_only(self):
        tables = _PairTables(free_pair(THETA_CYCLIC_22), 3)
        for table in (*tables.t_through_s, *tables.s_through_t):
            with pytest.raises(ValueError, match="read-only"):
                table[1, 1] = 7
            assert not table.base.flags.writeable  # the shared array too

    def test_a_forged_theta_reads_only_its_own_table(self):
        forged = CORRUPTED_PAIRS["forged-theta"]
        own = {fam: letter_moves(forged.theta, fam) for fam in "st"}
        for depth in range(1, 7):
            honest = {}
            for theta in acceptance_thetas():
                if (theta.m, theta.n) == (forged.m, forged.n):
                    tables = _PairTables(free_pair(theta), depth)
                    honest[letter_moves(theta, "s")] = tables.t_through_s
                    honest[letter_moves(theta, "t")] = tables.s_through_t
            tables = _PairTables(forged, depth)
            for fam, shared in (("s", tables.t_through_s),
                                ("t", tables.s_through_t)):
                # the forged moves match no honest theta's, so a table
                # an honest pair read is never the forged pair's
                assert own[fam] not in honest
                assert all(shared[0] is not got[0]
                           for got in honest.values())

    def test_the_memo_stays_within_its_bound(self):
        bound = _twist_table.cache_info().maxsize
        assert bound == 16
        for pp, depth in shared_twist_cases():
            _PairTables(pp, depth)
            assert _twist_table.cache_info().currsize <= bound
        # one lookup per family and model, one build per key in reach
        before = _twist_table.cache_info()
        tables = _PairTables(free_pair(THETA_CYCLIC_22), 3)
        again = _PairTables(free_pair(THETA_CYCLIC_22), 3)
        assert tables.t_through_s[0] is again.t_through_s[0]
        after = _twist_table.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 4
        assert after.misses - before.misses <= 2

    def test_a_model_after_the_memo_cycled_is_its_walk(self):
        pp = free_pair(THETA_CYCLIC_22)
        first, table = materialize(pp, 3), _PairTables(pp, 3).t_through_s
        # more distinct move tables than the bound evict the first ones
        for theta in acceptance_thetas():
            materialize(free_pair(theta), 3)
        assert _twist_table.cache_info().currsize <= 16
        assert _PairTables(pp, 3).t_through_s[0] is not table[0]
        assert np.array_equal(materialize(pp, 3).stack, first.stack)
        TestPairCodesMatchReference().assert_matches_reference(pp, 3)


# -- one image stack per model ------------------------------------------------


def restacked(model) -> OracleModel:
    """The model built afresh from its ``imgs`` as they are now: given a
    dict, the constructor stacks the arrays."""
    return OracleModel(model.presentation, model.depth, model.basis,
                       model.keys, dict(model.imgs), model.depths,
                       model.letters, model.adjoint_cost)


def replace_one_row_per_family(model, rng) -> None:
    # one generator per family gets a copy with two entries moved
    n = len(model.basis)
    for fam in ("s", "t") if model.is_pair else ("s",):
        key = rng.choice([key for key in model.keys if key[0] == fam])
        fake = model.imgs[key].copy()
        for col in rng.sample(range(n), min(2, n)):
            fake[col] = rng.choice([r for r in range(-1, n)
                                    if r != fake[col]])
        model.imgs[key] = fake


class TestOneStackPerModel:
    def test_imgs_are_the_rows_of_one_read_only_stack(self):
        for p in (MIXED, FOUR_CORNERS, Presentation(0, ("a",), {})):
            model = materialize(p, 3)
            assert model.stack.dtype == np.int64
            assert model.stack.shape == (len(model.keys), len(model.basis))
            for k, key in enumerate(model.keys):
                assert model.imgs[key].base is model.stack
                assert model.imgs[key].tolist() == model.stack[k].tolist()
            # untouched, every check reads the stack itself
            assert _family(model) is model.stack
            assert _family(model, "s").base is model.stack
            for target in [model.stack] + list(model.imgs.values()):
                with pytest.raises(ValueError, match="read-only"):
                    target[...] = 0
        assert model.interior.all() and not model.keys

    def test_a_replaced_row_is_what_the_checks_read(self):
        model = materialize(FOUR_CORNERS, 3)
        fake = model.imgs[("t", 1)].copy()
        fake[0] = 1
        model.imgs[("t", 1)] = fake
        stack = _family(model)
        assert stack is not model.stack
        assert stack.tolist() == [model.imgs[key].tolist()
                                  for key in model.keys]
        assert _family(model, "t").tolist() == [fake.tolist()]
        assert restacked(model).stack.tolist() == stack.tolist()
        fake[1] = 2  # a replaced array is read as it is at the check
        assert _family(model, "t")[0, 1] == 2

    def test_a_copy_is_stacked_afresh(self):
        model = materialize(IN_DEGREE_2_PAIR, 3)
        fake = model.imgs[("s", 1)].copy()
        fake[0] = -1
        model.imgs[("s", 1)] = fake
        for again in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert again.stack.tolist() == _family(model).tolist()
            assert all(np.shares_memory(again.imgs[key], again.stack)
                       for key in again.keys)
            assert not again.stack.flags.writeable
            assert verify_relations(again).rows == \
                verify_relations(model).rows

    def test_an_injected_fault_reaches_every_check(self):
        # one replaced row per family; every report must equal the one
        # of a model stacked afresh from the replaced arrays, and the
        # per-key reference, and differ from the clean one somewhere
        rng = random.Random(2801)
        cases = [(p, single_claims(p, rng))
                 for p in single_space()[::7]]
        cases += [(pp, pair_claims(pp)) for pp in
                  [FOUR_CORNERS, BILATERAL, IN_DEGREE_2_PAIR]
                  + honest_pairs(2803, 40)]
        reached = set()
        for p, claims in cases:
            model = materialize(p, 3)
            clean = verify_relations(model).rows
            before = {(id(sub), name, family): verify_subspace(
                model, sub, (name,), family).rows
                for sub, names, family in claims for name in names}
            replace_one_row_per_family(model, rng)
            fresh = restacked(model)
            rows = verify_relations(model).rows
            assert rows == verify_relations(fresh).rows == \
                reference_relations(model), p
            if rows != clean:
                reached.add("relations")
            for sub, names, family in claims:
                for name in names:
                    rows = verify_subspace(model, sub, (name,), family).rows
                    assert rows == verify_subspace(
                        fresh, sub, (name,), family).rows == \
                        reference_subspace(model, sub, (name,), family)
                    if rows != before[(id(sub), name, family)]:
                        reached.add(name)
            assert model.interior.tolist() == fresh.interior.tolist()
        assert reached == {"relations", *CLAIMS}
        assert all(run_fault_injection().values())
