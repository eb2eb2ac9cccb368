"""Independent numeric verification on finite truncations.

Everything here re-derives the basis action from the raw edge data and
the word calculus, on purpose: the symbolic modules must never get to
grade their own homework, so no decider is imported here, and what
they compute arrives as a claim passed to :func:`verify_subspace`.
Each generator is a 0/1 partial injection on the canonical elements of
bounded depth, held as one image index per column.  For a single
family the image arrays are written in closed form: the basis is laid
out layer by layer, a prefix of length at least one never absorbs, so
each generator shifts a whole layer onto a run of the next one, and
only the depth-zero columns consult the edges.  Pair arrays are filled
column by column from the letter calculus.  Subspace claims read a
description's membership once for the whole basis.

An operator is a pair of integer arrays (rows, cols), one entry of
value 1 per pair, repeated pairs adding up; every identity is built
from transpose, product and sum on that form and compared column by
column with integer counts.  There are no floats and no tolerances.

Truncation discipline: a truncated isometry is defective at the
boundary, so each identity is asserted only on its own interior mask.
A forward application costs one unit of depth; an adjoint application
can raise the depth of a pair element by at most |base| - 1 (the
un-absorption walk pulls back that many letters before re-absorbing),
and never raises it for a single family.  A column is interior for an
identity when its depth plus the identity's worst-case cost stays
within the truncation, which makes every masked comparison exact.

numpy is imported inside the functions that build or read the image
arrays: importing this module does not load it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from .errors import ResourceExceeded, ValidationError
from .pair import PairElem, PairPresentation
from .presentation import Elem, Presentation
from .words import commute_s_left, commute_t_right

if TYPE_CHECKING:
    import numpy as np

    from .wold import SubspaceDesc

BASIS_BUDGET = 10 ** 5


# ------------------------------------------------------------ model building

def _over_budget(depth: int) -> ResourceExceeded:
    return ResourceExceeded(
        f"truncated basis at depth {depth} has more than {BASIS_BUDGET} "
        f"vectors, the budget")


def _free_nodes(p: Presentation) -> list:
    # per label i, in base order, the nodes where S_i does not absorb
    return [[b for b in p.base if (b, i) not in p.edges]
            for i in range(1, p.m + 1)]


def _single_basis_size(p: Presentation, depth: int) -> int:
    """``len(_raw_single_basis(p, depth))``, counted without building it.

    A prefix of length L >= 1 ending in letter i sits on node b unless
    (b, i) is an edge, so the count is |base| + sum over L = 1..depth
    of m^(L-1) * #{(b, i) not in edges}.  The sum stops once it passes
    the budget, so a deep truncation costs no more than a shallow one.
    """
    total, layer = len(p.base), sum(map(len, _free_nodes(p)))
    for _ in range(depth):
        if not layer or total > BASIS_BUDGET:
            break
        total += layer
        layer *= p.m
    return total


def _raw_single_basis(p: Presentation, depth: int) -> tuple:
    """Every element of prefix length at most ``depth``, layer by layer.

    Layer L >= 1 lists, for each head of length L - 1 in lexicographic
    order and each last letter i, the nodes where letter i does not
    absorb: each head owns a block of ``sum_i |free_i|`` columns.
    """
    # deliberately not presentation.enumerate: corrupted inputs must
    # still materialize so the matrix checks can expose them
    free = _free_nodes(p)
    out = [Elem((), b) for b in p.base]
    heads = [()]
    for _ in range(depth):
        if not any(free):
            break  # every deeper layer is empty
        out.extend(Elem(head + (i,), b) for head in heads
                   for i, nodes in enumerate(free, 1) for b in nodes)
        heads = [head + (i,) for head in heads for i in range(1, p.m + 1)]
    return tuple(out)


def _single_images(p: Presentation, depth: int) -> tuple:
    """Each generator's image array and the column depths, in closed form.

    A prefix of length L >= 1 never absorbs, so ``S_i`` maps layer L of
    ``_raw_single_basis`` onto the i-th of m equal runs of layer L + 1,
    column for column: ``offset[L+1] + (i-1)*size[L] + arange(size[L])``.
    Only the |base| depth-zero columns are looked up in ``p.edges``.  A
    node declared twice appears twice in each run, and its row is its
    last occurrence, as in the model's index.
    """
    import numpy as np

    free = _free_nodes(p)
    last = []  # per label: node -> its last position in the block
    rep = []   # per block position: the row that names the same element
    for nodes in free:
        at = {b: len(rep) + k for k, b in enumerate(nodes)}
        last.append(at)
        rep.extend(at[b] for b in nodes)
    width = len(rep)
    sizes = [len(p.base)]
    for length in range(1, depth + 1):
        if not width:
            break
        sizes.append(width * p.m ** (length - 1))
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    # the rows naming layer L's columns, relative to the layer's start,
    # are a prefix of this array for every L >= 1
    named = (np.arange(sizes[-2] // width if len(sizes) > 2 else 0,
                       dtype=np.int64)[:, None] * width
             + np.array(rep, dtype=np.int64)).ravel()
    imgs = {}
    for i in range(1, p.m + 1):
        arr = np.full(offsets[-1], -1, dtype=np.int64)
        for col, b in enumerate(p.base):
            hit = p.edges.get((b, i))
            if hit is not None:
                arr[col] = p.node_index.get(hit, -1)
            elif b in last[i - 1]:  # not an edge whose target is None
                arr[col] = offsets[1] + last[i - 1][b]
        for length in range(1, len(sizes) - 1):
            size = sizes[length]
            arr[offsets[length]:offsets[length + 1]] = (
                offsets[length + 1] + (i - 1) * size + named[:size])
        imgs[("s", i)] = arr
    depths = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return imgs, depths


def _pair_basis_lower_bound(pp: PairPresentation, depth: int) -> int:
    """A lower bound on ``len(_raw_pair_basis(pp, depth))``.

    The pure-S elements and the pure-T elements (the T-letter arrives
    unchanged through an empty S-block) are each counted by the
    single-family closed form; the |base| depth-zero vectors are in
    both.  Each count is capped just past the budget, which keeps the
    sum a lower bound.
    """
    return (_single_basis_size(pp._s_family, depth)
            + _single_basis_size(pp._t_family, depth) - len(pp.base))


def _raw_pair_basis(pp: PairPresentation, depth: int) -> tuple:
    # no closed-form count of the mixed elements (the twist moves the
    # arriving T-letter), so the walk itself stops one vector past the
    # budget.  A T-letter can only absorb at a node with a t-out-edge.
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
                        if len(out) > BASIS_BUDGET:
                            raise _over_budget(depth)
    return tuple(out)


def _raw_pair_apply(pp: PairPresentation, t_sources: set, kind: str,
                    lab: int, x: PairElem) -> PairElem:
    # re-derived from the letter calculus: commute the new letter to its
    # slot, then greedily absorb innermost letters against the edges;
    # the T-letter is pushed only at a node in t_sources
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
        if t and node in t_sources:
            pushed, j2 = commute_t_right(pp.theta, s, t[-1])
            hit = pp.t_edges.get((node, j2))
            if hit is not None:
                node, t, s = hit, t[:-1], pushed
                continue
        return PairElem(t, s, node)


@dataclass
class OracleModel:
    """Every generator of a depth-d truncation as an image array.

    ``imgs[key]`` holds, per column, the row index of the image or -1
    when the image falls outside the basis (a boundary column).  It is
    the generator's 0/1 matrix, and every identity is computed from it;
    ``interior`` flags vectors whose every generator image is in-basis.
    ``index`` maps each element to its column and ``depths`` holds each
    column's depth.  A single family's basis is ordered by layer (prefix
    length), which is what lets ``materialize`` write its arrays in
    closed form.
    """

    presentation: object
    depth: int
    basis: tuple
    index: dict
    keys: tuple
    imgs: dict
    depths: np.ndarray
    adjoint_cost: int
    interior: np.ndarray = field(init=False)

    def __post_init__(self):
        import numpy as np

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
    corruption instead of hiding it.  A single family's arrays come in
    closed form from the layer layout (``_single_images``): ``S_i``
    maps layer L >= 1 onto a run of layer L + 1, and only the |base|
    depth-zero columns are looked up in the edges.  A pair's arrays
    apply the letter calculus to every column.  A truncation over
    ``BASIS_BUDGET`` vectors raises ``ResourceExceeded`` before the
    basis is built past the budget and before numpy is loaded.
    """
    if depth < 1:
        raise ValidationError(f"depth must be at least 1, got {depth}")
    pair = isinstance(p, PairPresentation)
    if pair:
        if _pair_basis_lower_bound(p, depth) > BASIS_BUDGET:
            raise _over_budget(depth)
        basis = _raw_pair_basis(p, depth)
        keys = tuple(("s", i) for i in range(1, p.m + 1)) + \
            tuple(("t", j) for j in range(1, p.n + 1))
        adj = max(0, len(p.base) - 1)
    else:
        if _single_basis_size(p, depth) > BASIS_BUDGET:
            raise _over_budget(depth)
        basis = _raw_single_basis(p, depth)
        keys = tuple(("s", i) for i in range(1, p.m + 1))
        adj = 0
    import numpy as np

    index = {x: k for k, x in enumerate(basis)}
    if pair:
        imgs = {}
        t_sources = {src for src, _ in p.t_edges}
        for key in keys:
            arr = np.full(len(basis), -1, dtype=np.int64)
            for col, x in enumerate(basis):
                arr[col] = index.get(
                    _raw_pair_apply(p, t_sources, key[0], key[1], x), -1)
            imgs[key] = arr
        depths = np.array([x.depth for x in basis], dtype=np.int64)
    else:
        imgs, depths = _single_images(p, depth)
    return OracleModel(p, depth, basis, index, keys, imgs, depths, adj)


# ---------------------------------------------------------------- operators
#
# An operator is a pair (rows, cols) of int64 arrays: one entry of value
# 1 at each (rows[k], cols[k]), repeated pairs adding up.

def _gen(model: OracleModel, key: tuple) -> tuple:
    import numpy as np

    img = model.imgs[key]
    cols = np.flatnonzero(img >= 0)
    return img[cols], cols


def _tr(a: tuple) -> tuple:
    return a[1], a[0]


def _mul(a: tuple, b: tuple) -> tuple:
    # the product pairs every entry (r, k) of a with every entry (k, c)
    # of b: sort a by column, then find each b-row's run of a-entries
    import numpy as np

    order = np.argsort(a[1], kind="stable")
    a_cols = a[1][order]
    lo = np.searchsorted(a_cols, b[0], side="left")
    runs = np.searchsorted(a_cols, b[0], side="right") - lo
    b_at = np.repeat(np.arange(len(runs)), runs)
    first = np.cumsum(runs) - runs
    a_at = order[np.repeat(lo - first, runs) + np.arange(len(b_at))]
    return a[0][a_at], b[1][b_at]


def _add(ops: list) -> tuple:
    import numpy as np

    empty = np.zeros(0, dtype=np.int64)
    return (np.concatenate([empty] + [o[0] for o in ops]),
            np.concatenate([empty] + [o[1] for o in ops]))


def _diag(counts: np.ndarray) -> tuple:
    import numpy as np

    at = np.repeat(np.arange(len(counts)), counts)
    return at, at


def _first_bad_column(lhs: tuple, rhs: tuple, mask: np.ndarray
                      ) -> Optional[int]:
    """The first masked column where ``lhs`` and ``rhs`` differ, if any."""
    import numpy as np

    n = len(mask)
    keys = np.concatenate((lhs[1] * n + lhs[0], rhs[1] * n + rhs[0]))
    uniq, inv = np.unique(keys, return_inverse=True)
    split = len(lhs[0])
    net = (np.bincount(inv[:split], minlength=len(uniq))
           - np.bincount(inv[split:], minlength=len(uniq)))
    cols = uniq[net != 0] // n
    cols = cols[mask[cols]]
    return int(cols.min()) if len(cols) else None


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


def _check_equal(rows: list, label: str, lhs: tuple, rhs: tuple,
                 mask: np.ndarray, basis: tuple) -> None:
    col = _first_bad_column(lhs, rhs, mask)
    if col is not None:
        rows.append(f"{label}: differs at column {basis[col]!r}")


def verify_relations(model: OracleModel) -> Report:
    """Check every defining operator identity on the truncation.

    Each family: S_i^T S_j = delta_ij I, and sum S_i S_i^T at most the
    identity (it is diagonal by construction, each column of an image
    array holding at most one entry).  Pairs additionally: the
    twisted commutation identity and both doubly-commuting displays,
    term sets read off the twist.  Which vectors the range projection
    fixes and which it kills is a claim on a subspace, checked by
    :func:`verify_subspace` (``unitary-on``, ``wandering``).
    """
    import numpy as np

    rows: list = []
    p = model.presentation
    basis = model.basis
    n = len(basis)
    eye = _diag(np.ones(n, dtype=np.int64))
    zero = _add([])
    pair = model.is_pair
    families = [("s", p.m)] + ([("t", p.n)] if pair else [])
    for fam, count in families:
        gens = [_gen(model, (fam, k)) for k in range(1, count + 1)]
        in_img = [model.imgs[(fam, k)] >= 0 for k in range(1, count + 1)]
        for i in range(count):
            for j in range(count):
                want = eye if i == j else zero
                # adjoint rows are exact wherever the forward image is
                # in-basis, no extra cost
                _check_equal(rows, f"{fam}[{i+1}]^T {fam}[{j+1}]",
                             _mul(_tr(gens[i]), gens[j]), want, in_img[j],
                             basis)
        # sum G G^T is diagonal, each column holding at most one entry
        diag = sum(np.bincount(model.imgs[(fam, k)][in_img[k - 1]],
                               minlength=n)
                   for k in range(1, count + 1))
        valid = model.mask(adjoint=1) if pair else np.ones(n, dtype=bool)
        if np.any((diag > 1) & valid):
            bad = int(np.nonzero((diag > 1) & valid)[0][0])
            rows.append(f"sum {fam}{fam}^T exceeds identity at {basis[bad]!r}")
    if pair:
        _verify_pair_relations(rows, model)
    return Report(tuple(rows))


def _two_steps_in_basis(model: OracleModel, first, then):
    # columns whose image under ``first``, and that image's image under
    # ``then``, both lie in the basis
    import numpy as np

    cols = model.imgs[first]
    live = cols >= 0
    return live & (model.imgs[then][np.where(live, cols, 0)] >= 0)


def _verify_pair_relations(rows: list, model: OracleModel) -> None:
    pp = model.presentation
    theta = pp.theta
    S = {i: _gen(model, ("s", i)) for i in range(1, pp.m + 1)}
    T = {j: _gen(model, ("t", j)) for j in range(1, pp.n + 1)}
    basis = model.basis
    for (i, j), (i2, j2) in sorted(theta.map.items()):
        ok = (_two_steps_in_basis(model, ("t", j), ("s", i))
              & _two_steps_in_basis(model, ("s", i2), ("t", j2)))
        _check_equal(rows, f"S{i} T{j} = T{j2} S{i2}",
                     _mul(S[i], T[j]), _mul(T[j2], S[i2]), ok, basis)
    # doubly-commuting displays; each sum has at most one live term per
    # column because predecessors are unique
    m1 = model.mask(forward=1, adjoint=1)
    for i in range(1, pp.m + 1):
        for j in range(1, pp.n + 1):
            lhs = _mul(_tr(T[j]), S[i])
            rhs = _add([_mul(S[k], _tr(T[jk]))
                        for (k, jj), (ii, jk) in sorted(theta.map.items())
                        if jj == j and ii == i])
            _check_equal(rows, f"T{j}^T S{i} display", lhs, rhs, m1, basis)
            lhs2 = _mul(_tr(S[i]), T[j])
            rhs2 = _add([_mul(T[k], _tr(S[ik]))
                         for (ii, k), (ik, jj) in sorted(theta.map.items())
                         if ii == i and jj == j])
            _check_equal(rows, f"S{i}^T T{j} display", lhs2, rhs2, m1, basis)


# ------------------------------------------------------------ subspace claims

CLAIMS = ("S-invariant", "T-invariant", "S-reducing", "T-reducing",
          "unitary-on", "shift-on", "wandering")


def verify_subspace(model: OracleModel, sub: SubspaceDesc, claims,
                    family: str = "s") -> Report:
    """Check subspace claims as exact matrix identities.

    Q is the diagonal 0/1 projection of the description over the basis,
    read with one ``contains_many`` call.  Invariance and reduction are
    commutator checks on forward-interior columns.  With R the range
    projection sum G G^T of the family, on adjoint-interior columns:
    unitary-on checks R Q = Q; wandering checks that the columns R
    kills are exactly the members that carry no letter of the family
    (the wandering vectors, given as a set of depth-zero vectors or as
    the node set of a pair's dead nodes).  shift-on walks each member's
    backward chain (each column once) and demands certified death,
    flagging any in-basis cycle.  ``family`` picks which family the
    unitary-on, shift-on and wandering claims speak about.
    """
    import numpy as np

    rows: list = []
    unknown = set(claims) - set(CLAIMS)
    if unknown:
        raise ValidationError(f"unknown claims: {sorted(unknown)}")
    if family not in ("s", "t"):
        raise ValidationError(f"family must be 's' or 't', got {family!r}")
    basis = model.basis
    member = np.array(sub.contains_many(basis, model.presentation),
                      dtype=bool)
    Q = _diag(member.astype(np.int64))
    ran = None
    for claim in sorted(set(claims)):
        fam = claim[0].lower() if claim[0] in "ST" else family
        if claim.endswith("-invariant") or claim.endswith("-reducing"):
            count = (model.presentation.m if fam == "s"
                     else model.presentation.n)
            for k in range(1, count + 1):
                G = _gen(model, (fam, k))
                okcols = model.imgs[(fam, k)] >= 0
                GQ = _mul(G, Q)
                if claim.endswith("-invariant"):
                    lhs, rhs = GQ, _mul(Q, GQ)
                else:
                    lhs, rhs = _mul(Q, G), GQ
                col = _first_bad_column(lhs, rhs, okcols)
                if col is not None:
                    rows.append(f"{claim} fails for {fam}[{k}] at "
                                f"column {basis[col]!r}")
        elif claim in ("unitary-on", "wandering"):
            if ran is None:
                count = (model.presentation.m if fam == "s"
                         else model.presentation.n)
                gens = [_gen(model, (fam, k)) for k in range(1, count + 1)]
                ran = _add([_mul(g, _tr(g)) for g in gens])
            if claim == "unitary-on":
                valid = member & model.mask(adjoint=1)
                col = _first_bad_column(_mul(ran, Q), Q, valid)
            else:
                # R must kill exactly the bare members; whether it
                # exceeds the identity elsewhere is verify_relations'
                # business
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
            rows.extend(_shift_on(model, member, fam, basis))
    return Report(tuple(rows))


def _shift_on(model: OracleModel, member: np.ndarray, fam: str,
              basis: tuple) -> list:
    import numpy as np

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
