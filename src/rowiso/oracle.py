"""Independent numeric verification on finite truncations.

Everything here re-derives the basis action from the raw edge data and
the word calculus, on purpose: the symbolic modules must never get to
grade their own homework.  Generators become sparse 0/1 matrices over
the canonical elements of bounded depth, and every operator identity is
checked with exact integer arithmetic.  There are no tolerances.

Truncation discipline: a truncated isometry is defective at the
boundary, so each identity is asserted only on its own interior mask.
A forward application costs one unit of depth; an adjoint application
can raise the depth of a pair element by at most |base| - 1 (the
un-absorption walk pulls back that many letters before re-absorbing),
and never raises it for a single family.  A column is interior for an
identity when its depth plus the identity's worst-case cost stays
within the truncation, which makes every masked comparison exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import ContractViolation, ResourceExceeded, ValidationError
from .pair import (PairElem, PairPresentation, check_doubly_commute,
                   check_joint_isometry, check_theta_commute, enumerate_pair,
                   mirror, mirror_elem)
from .presentation import Elem, Presentation, apply
from .slocinski import dead_nodes, s_membership, slocinski, t_membership
from .wold import Part, SubspaceDesc, wold
from .words import Theta, commute_s_left, commute_t_right

BASIS_BUDGET = 10 ** 5
SEARCH_BUDGET = 10 ** 7


# ------------------------------------------------------------ model building

def _raw_single_apply(edges: dict, m: int, i: int, x: Elem) -> Elem:
    if not x.prefix:
        hit = edges.get((x.node, i))
        if hit is not None:
            return Elem((), hit)
    return Elem((i,) + x.prefix, x.node)


def _raw_single_basis(p: Presentation, depth: int) -> tuple:
    # deliberately not presentation.enumerate: corrupted inputs must
    # still materialize so the matrix checks can expose them
    out = []
    for length in range(depth + 1):
        for prefix in itertools.product(range(1, p.m + 1), repeat=length):
            for b in p.base:
                if prefix and (b, prefix[-1]) in p.edges:
                    continue
                out.append(Elem(prefix, b))
    return tuple(out)


def _raw_pair_basis(pp: PairPresentation, depth: int) -> tuple:
    out = []
    for total in range(depth + 1):
        for t_len in range(total, -1, -1):
            for t in itertools.product(range(1, pp.n + 1), repeat=t_len):
                for s in itertools.product(range(1, pp.m + 1),
                                           repeat=total - t_len):
                    for b in pp.base:
                        if s and (b, s[-1]) in pp.s_edges:
                            continue
                        if t:
                            _, arriving = commute_t_right(pp.theta, s, t[-1])
                            if (b, arriving) in pp.t_edges:
                                continue
                        out.append(PairElem(t, s, b))
    return tuple(out)


def _raw_pair_apply(pp: PairPresentation, kind: str, lab: int,
                    x: PairElem) -> PairElem:
    # re-derived from the letter calculus: commute the new letter to its
    # slot, then greedily absorb innermost letters against the edges
    if kind == "s":
        t_word, new_s = commute_s_left(pp.theta, lab, x.t_prefix)
        t, s = t_word, (new_s,) + x.s_prefix
    else:
        t, s = (lab,) + x.t_prefix, x.s_prefix
    node = x.node
    while True:
        if s:
            hit = pp.s_edges.get((node, s[-1]))
            if hit is not None:
                node, s = hit, s[:-1]
                continue
        if t:
            pushed, j2 = commute_t_right(pp.theta, s, t[-1])
            hit = pp.t_edges.get((node, j2))
            if hit is not None:
                node, t, s = hit, t[:-1], pushed
                continue
        return PairElem(t, s, node)


@dataclass
class OracleModel:
    """Sparse 0/1 matrices for every generator on a depth-d truncation.

    ``imgs[key]`` holds, per column, the row index of the image or -1
    when the image falls outside the basis (a boundary column).  The
    matrices are built from ``imgs``; ``interior`` flags vectors whose
    every generator image is in-basis.
    """

    presentation: object
    depth: int
    basis: tuple
    index: dict
    keys: tuple
    imgs: dict
    mats: dict
    depths: np.ndarray
    adjoint_cost: int
    interior: np.ndarray = field(init=False)

    def __post_init__(self):
        good = np.ones(len(self.basis), dtype=bool)
        for key in self.keys:
            good &= self.imgs[key] >= 0
        self.interior = good

    @property
    def is_pair(self) -> bool:
        return isinstance(self.presentation, PairPresentation)

    def mask(self, forward: int = 0, adjoint: int = 0) -> np.ndarray:
        """Columns interior to an identity with the given op counts."""
        budget = self.depth - forward - adjoint * self.adjoint_cost
        return self.depths <= budget


def materialize(p: Union[Presentation, PairPresentation],
                depth: int) -> OracleModel:
    """Build the truncated matrix model of a presentation.

    The action is recomputed from the raw edge dictionaries, so a
    corrupted presentation materializes to matrices that expose the
    corruption instead of hiding it.
    """
    if depth < 1:
        raise ValidationError(f"depth must be at least 1, got {depth}")
    pair = isinstance(p, PairPresentation)
    if pair:
        basis = _raw_pair_basis(p, depth)
        keys = tuple(("s", i) for i in range(1, p.m + 1)) + \
            tuple(("t", j) for j in range(1, p.n + 1))
        adj = max(0, len(p.base) - 1)
    else:
        basis = _raw_single_basis(p, depth)
        keys = tuple(("s", i) for i in range(1, p.m + 1))
        adj = 0
    if len(basis) > BASIS_BUDGET:
        raise ResourceExceeded(
            f"truncated basis has {len(basis)} vectors, budget {BASIS_BUDGET}")
    index = {x: k for k, x in enumerate(basis)}
    n = len(basis)
    imgs = {}
    mats = {}
    for key in keys:
        arr = np.full(n, -1, dtype=np.int64)
        for col, x in enumerate(basis):
            if pair:
                y = _raw_pair_apply(p, key[0], key[1], x)
            else:
                y = _raw_single_apply(p.edges, p.m, key[1], x)
            arr[col] = index.get(y, -1)
        cols = np.nonzero(arr >= 0)[0]
        mats[key] = sp.csr_matrix(
            (np.ones(len(cols), dtype=np.int64), (arr[cols], cols)),
            shape=(n, n))
        imgs[key] = arr
    depths = np.array([x.depth for x in basis], dtype=np.int64)
    return OracleModel(p, depth, basis, index, keys, imgs, mats, depths, adj)


# ------------------------------------------------------------------- reports

@dataclass(frozen=True)
class Report:
    """Outcome of a batch of exact checks; empty rows means all passed."""

    rows: tuple

    @property
    def ok(self) -> bool:
        return not self.rows

    def __repr__(self) -> str:
        if self.ok:
            return "Report(ok)"
        return "Report({} violations; first: {})".format(
            len(self.rows), self.rows[0])


def _first_bad_column(diff: sp.spmatrix, cols: np.ndarray) -> Optional[int]:
    sub = diff.tocsc()[:, cols]
    bad = np.nonzero(np.diff(sub.indptr))[0]
    if len(bad) == 0:
        return None
    return int(cols[bad[0]])


def _check_equal(rows: list, label: str, lhs: sp.spmatrix, rhs: sp.spmatrix,
                 mask: np.ndarray, basis: tuple) -> None:
    diff = (lhs - rhs).tocsr()
    diff.eliminate_zeros()
    if diff.count_nonzero() == 0:
        return
    cols = np.nonzero(mask)[0]
    col = _first_bad_column(diff, cols)
    if col is not None:
        rows.append(f"{label}: differs at column {basis[col]!r}")


def verify_relations(model: OracleModel) -> Report:
    """Check every defining operator identity on the truncation.

    Single family: S_i^T S_j = delta_ij I, sum S_i S_i^T <= I with the
    range projection acting as the identity on the computed unitary
    part and vanishing exactly on the computed wandering vectors.
    Pairs additionally: the twisted commutation identity and both
    doubly-commuting displays, term sets read off the twist.
    """
    rows: list = []
    p = model.presentation
    basis = model.basis
    n = len(basis)
    eye = sp.identity(n, dtype=np.int64, format="csr")
    pair = model.is_pair
    families = [("s", p.m)] + ([("t", p.n)] if pair else [])
    for fam, count in families:
        gens = [model.mats[(fam, k)] for k in range(1, count + 1)]
        in_img = [model.imgs[(fam, k)] >= 0 for k in range(1, count + 1)]
        for i in range(count):
            for j in range(count):
                want = eye if i == j else sp.csr_matrix((n, n),
                                                        dtype=np.int64)
                # adjoint rows are exact wherever the forward image is
                # in-basis, no extra cost
                _check_equal(rows, f"{fam}[{i+1}]^T {fam}[{j+1}]",
                             gens[i].T @ gens[j], want, in_img[j], basis)
        ran = sum(g @ g.T for g in gens)
        diag = ran.diagonal()
        off = ran - sp.diags(diag, dtype=np.int64)
        off.eliminate_zeros()
        valid = model.mask(adjoint=1) if pair else np.ones(n, dtype=bool)
        if off.count_nonzero():
            col = _first_bad_column(off.tocsr(), np.nonzero(valid)[0])
            if col is not None:
                rows.append(f"sum {fam}{fam}^T not diagonal at "
                            f"{basis[col]!r}")
        if np.any((diag > 1) & valid):
            bad = int(np.nonzero((diag > 1) & valid)[0][0])
            rows.append(f"sum {fam}{fam}^T exceeds identity at {basis[bad]!r}")
        try:
            _verify_range_projection(rows, model, fam, diag, valid)
        except (ValidationError, ContractViolation, ResourceExceeded) as exc:
            # corrupted input can crash the symbolic side; that still
            # counts as a caught violation, not a verifier failure
            rows.append(f"range projection check aborted: {exc}")
    if pair:
        _verify_pair_relations(rows, model)
    return Report(tuple(rows))


def _verify_range_projection(rows: list, model: OracleModel, fam: str,
                             diag: np.ndarray, valid: np.ndarray) -> None:
    # the range projection must vanish exactly on wandering vectors and
    # restrict to the identity on the unitary part
    p = model.presentation
    if model.is_pair:
        dead = dead_nodes(p if fam == "s" else mirror(p))

        def wandering(x):
            if fam == "t":
                x = mirror_elem(p, x)
            return not x.s_prefix and x.node in dead

        def unitary(x):
            verdict = (s_membership(p, x) if fam == "s"
                       else t_membership(p, x))
            return verdict is Part.UNITARY
    else:
        res = wold(p)

        def wandering(x):
            return x in set(res.wandering)

        def unitary(x):
            return res.unitary_part.contains(x)

    for col in np.nonzero(valid)[0]:
        x = model.basis[col]
        has_pred = bool(diag[col])
        if wandering(x) and has_pred:
            rows.append(f"range projection nonzero on wandering {x!r}")
            return
        if not wandering(x) and not has_pred:
            rows.append(f"range projection vanishes off wandering at {x!r}")
            return
        if unitary(x) and not has_pred:
            rows.append(f"range projection not identity on unitary {x!r}")
            return


def _verify_pair_relations(rows: list, model: OracleModel) -> None:
    pp = model.presentation
    theta = pp.theta
    S = {i: model.mats[("s", i)] for i in range(1, pp.m + 1)}
    T = {j: model.mats[("t", j)] for j in range(1, pp.n + 1)}
    basis = model.basis
    for (i, j), (i2, j2) in sorted(theta.map.items()):
        ok = (model.imgs[("t", j)] >= 0)
        tcols = model.imgs[("t", j)]
        safe = tcols.copy()
        safe[safe < 0] = 0
        ok &= np.where(tcols >= 0, model.imgs[("s", i)][safe] >= 0, False)
        ok2 = (model.imgs[("s", i2)] >= 0)
        scols = model.imgs[("s", i2)]
        safe2 = scols.copy()
        safe2[safe2 < 0] = 0
        ok2 &= np.where(scols >= 0, model.imgs[("t", j2)][safe2] >= 0, False)
        _check_equal(rows, f"S{i} T{j} = T{j2} S{i2}",
                     S[i] @ T[j], T[j2] @ S[i2], ok & ok2, basis)
    # doubly-commuting displays; each sum has at most one live term per
    # column because predecessors are unique
    m1 = model.mask(forward=1, adjoint=1)
    for i in range(1, pp.m + 1):
        for j in range(1, pp.n + 1):
            lhs = T[j].T @ S[i]
            terms = [S[k] @ T[jk].T
                     for (k, jj), (ii, jk) in sorted(theta.map.items())
                     if jj == j and ii == i]
            rhs = sum(terms) if terms else sp.csr_matrix(lhs.shape,
                                                         dtype=np.int64)
            _check_equal(rows, f"T{j}^T S{i} display", lhs, rhs, m1, basis)
            lhs2 = S[i].T @ T[j]
            terms2 = [T[k] @ S[ik].T
                      for (ii, k), (ik, jj) in sorted(theta.map.items())
                      if ii == i and jj == j]
            rhs2 = sum(terms2) if terms2 else sp.csr_matrix(lhs.shape,
                                                            dtype=np.int64)
            _check_equal(rows, f"S{i}^T T{j} display", lhs2, rhs2, m1, basis)


# ------------------------------------------------------------ subspace claims

CLAIMS = ("S-invariant", "T-invariant", "S-reducing", "T-reducing",
          "unitary-on", "shift-on")


def verify_subspace(model: OracleModel, sub: SubspaceDesc, claims,
                    family: str = "s") -> Report:
    """Check subspace claims as exact matrix identities.

    Q is the diagonal 0/1 projection of the description over the basis.
    Invariance and reduction are commutator checks on forward-interior
    columns; unitary-on checks the range projection fixes Q; shift-on
    walks each member's backward chain and demands certified death,
    flagging any in-basis cycle.  ``family`` picks which family the
    unitary-on / shift-on claims speak about.
    """
    rows: list = []
    unknown = set(claims) - set(CLAIMS)
    if unknown:
        raise ValidationError(f"unknown claims: {sorted(unknown)}")
    if family not in ("s", "t"):
        raise ValidationError(f"family must be 's' or 't', got {family!r}")
    basis = model.basis
    n = len(basis)
    member = np.array([sub.contains(x) for x in basis], dtype=bool)
    Q = sp.diags(member.astype(np.int64), format="csr", dtype=np.int64)
    for claim in sorted(set(claims)):
        fam = claim[0].lower() if claim[0] in "ST" else family
        if claim.endswith("-invariant") or claim.endswith("-reducing"):
            count = (model.presentation.m if fam == "s"
                     else model.presentation.n)
            for k in range(1, count + 1):
                G = model.mats[(fam, k)]
                okcols = model.imgs[(fam, k)] >= 0
                if claim.endswith("-invariant"):
                    diff = (G @ Q) - (Q @ (G @ Q))
                else:
                    diff = (Q @ G) - (G @ Q)
                diff = diff.tocsr()
                diff.eliminate_zeros()
                if diff.count_nonzero():
                    col = _first_bad_column(diff, np.nonzero(okcols)[0])
                    if col is not None:
                        rows.append(f"{claim} fails for {fam}[{k}] at "
                                    f"column {basis[col]!r}")
        elif claim == "unitary-on":
            count = (model.presentation.m if fam == "s"
                     else model.presentation.n)
            gens = [model.mats[(fam, k)] for k in range(1, count + 1)]
            ran = sum(g @ g.T for g in gens)
            valid = member & model.mask(adjoint=1)
            diff = ((ran @ Q) - Q).tocsr()
            diff.eliminate_zeros()
            if diff.count_nonzero():
                col = _first_bad_column(diff, np.nonzero(valid)[0])
                if col is not None:
                    rows.append(f"unitary-on fails at column {basis[col]!r}")
        elif claim == "shift-on":
            rows.extend(_shift_on(model, member, fam, basis))
    return Report(tuple(rows))


def _shift_on(model: OracleModel, member: np.ndarray, fam: str,
              basis: tuple) -> list:
    # backward chains must die; every step is trusted only while the
    # current vector's true predecessor is guaranteed in-basis
    count = model.presentation.m if fam == "s" else model.presentation.n
    n = len(basis)
    pred = np.full(n, -1, dtype=np.int64)
    for k in range(1, count + 1):
        arr = model.imgs[(fam, k)]
        cols = np.nonzero(arr >= 0)[0]
        pred[arr[cols]] = cols
    safe = model.mask(adjoint=1)
    out = []
    for start in np.nonzero(member)[0]:
        cur = int(start)
        seen = set()
        while True:
            if not safe[cur]:
                break  # cannot certify this column either way
            if cur in seen:
                out.append(f"shift-on fails: cycle through "
                           f"{basis[int(start)]!r}")
                return out
            seen.add(cur)
            nxt = int(pred[cur])
            if nxt < 0:
                break  # certified death
            cur = nxt
    return out


# ------------------------------------------------------------------- search

@dataclass(frozen=True)
class SearchSpace:
    """Finite family of pair presentations to sweep.

    Covers every base of size 1..max_base, every pair of edge maps with
    per-family in-degree at most one, and every twist in ``thetas``.
    """

    max_base: int
    m: int
    n: int
    thetas: tuple


def all_thetas(m: int, n: int):
    """Every bijective twist of [m] x [n], in lexicographic order."""
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    out = []
    for perm in itertools.permutations(pairs):
        out.append(Theta(m, n, dict(zip(pairs, perm))))
    return tuple(out)


def _edge_maps(nodes: tuple, labels: int):
    slots = [(node, lab) for node in nodes for lab in range(1, labels + 1)]
    options = (None,) + nodes
    for combo in itertools.product(options, repeat=len(slots)):
        targets = [t for t in combo if t is not None]
        if len(targets) != len(set(targets)):
            continue  # in-degree must stay at most one
        yield {slot: t for slot, t in zip(slots, combo) if t is not None}


def _space_size(space: SearchSpace) -> int:
    total = 0
    for k in range(1, space.max_base + 1):
        per_family = []
        for labels in (space.m, space.n):
            slots = k * labels
            count = sum(math.comb(slots, r) * math.perm(k, r)
                        for r in range(0, min(slots, k) + 1))
            per_family.append(count)
        total += per_family[0] * per_family[1] * len(space.thetas)
    return total


def _pred_no_slocinski(pp: PairPresentation) -> bool:
    return not slocinski(pp).exists


def _pred_doubly_commuting(pp: PairPresentation) -> bool:
    return check_doubly_commute(pp).ok


def _pred_s_shift_t_unitary(pp: PairPresentation) -> bool:
    # candidate for the triviality theorem: nontrivial space, several
    # T-labels, T with no wandering vectors, and no S-unitary element
    # anywhere on the truncation (a superset of "S is a pure shift",
    # which is the safe direction for asserting emptiness)
    if not pp.base or pp.n < 2:
        return False
    if dead_nodes(mirror(pp)):
        return False
    depth = max(4, len(pp.base) + 2)
    return all(s_membership(pp, x) is not Part.UNITARY
               for x in enumerate_pair(pp, depth))


PREDICATES: dict = {
    "no-slocinski": _pred_no_slocinski,
    "doubly-commuting": _pred_doubly_commuting,
    "S-shift-T-unitary": _pred_s_shift_t_unitary,
}


def search(space: SearchSpace, predicate: str):
    """Exhaustively sweep a search space for a named property.

    Returns, in deterministic enumeration order, every candidate that
    is valid, theta-commuting, jointly injective on the truncated
    basis, and satisfies the predicate.  Raises when the space exceeds
    the candidate budget.
    """
    if predicate not in PREDICATES:
        raise ValidationError(
            f"unknown predicate {predicate!r}; "
            f"known: {sorted(PREDICATES)}")
    size = _space_size(space)
    if size > SEARCH_BUDGET:
        raise ResourceExceeded(
            f"search space has {size} candidates, budget {SEARCH_BUDGET}")
    test = PREDICATES[predicate]
    hits = []
    for k in range(1, space.max_base + 1):
        nodes = tuple(f"b{q}" for q in range(k))
        for theta in space.thetas:
            for s_edges in _edge_maps(nodes, space.m):
                for t_edges in _edge_maps(nodes, space.n):
                    pp = PairPresentation(theta, nodes, s_edges, t_edges)
                    if not check_theta_commute(pp).ok:
                        continue
                    if not check_joint_isometry(pp).ok:
                        continue
                    try:
                        if test(pp):
                            hits.append(pp)
                    except ContractViolation:
                        continue  # not a joint isometry beyond the window
    return hits


# ------------------------------------------------------------ fault library

def _forge_theta(m: int, n: int, mapping: dict, inverse: dict) -> Theta:
    # bypasses the bijectivity validation on purpose; both directions
    # are handed in so the word calculus total-lookup still runs and
    # the damage surfaces in the matrix identities, not in a KeyError
    forged = object.__new__(Theta)
    object.__setattr__(forged, "m", m)
    object.__setattr__(forged, "n", n)
    object.__setattr__(forged, "map", dict(mapping))
    object.__setattr__(forged, "inverse_map", dict(inverse))
    object.__setattr__(forged, "_key",
                       (m, n, tuple(sorted(mapping.items()))))
    return forged


def fault_library():
    """Named corruptions paired with the check that must catch each.

    Every runner returns True iff the corruption was detected, either
    by a non-ok report or by a validation error.  The suite asserts a
    perfect score; anything less means a verifier has gone soft.
    """

    def duplicate_in_edge() -> bool:
        p = Presentation(1, ("a", "b", "c"),
                         {("a", 1): "c", ("b", 1): "c"})
        return not verify_relations(materialize(p, 3)).ok

    def broken_theta() -> bool:
        theta = _forge_theta(2, 1, {(1, 1): (1, 1), (2, 1): (1, 1)},
                             {(1, 1): (2, 1), (2, 1): (2, 1)})
        pp = PairPresentation(theta, ("b",), {}, {})
        return not verify_relations(materialize(pp, 3)).ok

    def boundary_as_interior() -> bool:
        p = Presentation(2, ("b",), {})
        model = materialize(p, 2)
        key = ("s", 1)
        fake = model.imgs[key].copy()
        boundary = np.nonzero(fake < 0)[0]
        fake[boundary] = 0  # lie: claim the dropped image is column 0
        model.imgs[key] = fake
        model.mats[key] = sp.csr_matrix(
            (np.ones(len(fake), dtype=np.int64),
             (fake, np.arange(len(fake)))),
            shape=(len(fake), len(fake)))
        return not verify_relations(model).ok

    def non_canonical_element() -> bool:
        p = Presentation(1, ("a", "c"), {("c", 1): "a"})
        bad = Elem((1,), "c")  # absorbable letter: not canonical
        try:
            apply(p, 1, bad)
        except ValidationError:
            return True
        return False

    return (
        ("duplicate-in-edge", duplicate_in_edge),
        ("non-bijective-theta", broken_theta),
        ("boundary-as-interior", boundary_as_interior),
        ("non-canonical-element", non_canonical_element),
    )


def run_fault_injection() -> dict:
    """Run the whole corruption library; maps name to detected flag."""
    return {name: bool(runner()) for name, runner in fault_library()}
