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
Each identity family is one block operator: a family G_1..G_m is a
row isometry exactly when its row operator ``V = [G_1 ... G_m]`` from
H^m to H satisfies ``V^T V = I``, which is every ``G_i^T G_j = delta_ij
I`` at once, and ``V V^T = sum G_i G_i^T`` is its range projection.
Subspace claims compare Q with V, the twisted commutation rows and
both doubly-commuting displays are the blocks of one product per
side, and one comparison reports the first differing column of each
block, so a family costs one product, not one per label pair.

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
from typing import TYPE_CHECKING, Union

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
    ``depths`` holds each column's depth.  A single family's basis is
    ordered by layer (prefix length), which is what lets
    ``materialize`` write its arrays in closed form.

    The image arrays are read-only.  To corrupt a model, replace an
    array: the operators the verifiers build from the arrays are
    memoised per model and rebuilt when an array is replaced.
    """

    presentation: object
    depth: int
    basis: tuple
    keys: tuple
    imgs: dict
    depths: np.ndarray
    adjoint_cost: int
    interior: np.ndarray = field(init=False)
    _memo: dict = field(init=False, default_factory=dict, repr=False,
                        compare=False)

    def __post_init__(self):
        import numpy as np

        good = np.ones(len(self.basis), dtype=bool)
        for key in self.keys:
            self.imgs[key].flags.writeable = False
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

    if pair:
        index = {x: k for k, x in enumerate(basis)}
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
    return OracleModel(p, depth, basis, keys, imgs, depths, adj)


# ---------------------------------------------------------------- operators
#
# An operator is a pair (rows, cols) of int64 arrays: one entry of value
# 1 at each (rows[k], cols[k]), repeated pairs adding up.  A block
# operator over H^r x H^c, n = |basis|, puts entry (i, j) of its block
# (R, C) at (R*n + i, C*n + j).

def _memo_of(model: OracleModel) -> dict:
    # operators built from the image arrays, kept while no array has
    # been replaced since they were built
    arrays = [model.imgs[key] for key in model.keys]
    memo = model._memo
    cached = memo.get("arrays")
    if cached is None or any(a is not b for a, b in zip(cached, arrays)):
        memo.clear()
        memo["arrays"] = arrays
    return memo


def _gen(model: OracleModel, key: tuple) -> tuple:
    import numpy as np

    memo = _memo_of(model)
    if key not in memo:
        img = model.imgs[key]
        cols = np.flatnonzero(img >= 0)
        memo[key] = (img[cols], cols)
    return memo[key]


def _tr(a: tuple) -> tuple:
    return a[1], a[0]


def _mul(a: tuple, b: tuple) -> tuple:
    # the product pairs every entry (r, k) of a with every entry (k, c)
    # of b: sort a by column, then find each b-row's run of a-entries;
    # the in-place steps keep a block product's temporaries few
    import numpy as np

    order = np.argsort(a[1], kind="stable")
    a_cols = a[1][order]
    lo = np.searchsorted(a_cols, b[0], side="left")
    runs = np.searchsorted(a_cols, b[0], side="right")
    del a_cols
    runs -= lo
    lo += runs  # lo - (output position of the run) = lo + runs - cumsum
    lo -= np.cumsum(runs)
    a_at = np.repeat(lo, runs)
    del lo
    a_at += np.arange(len(a_at))
    rows = a[0][order[a_at]]
    del a_at, order
    return rows, b[1][np.repeat(np.arange(len(runs)), runs)]


def _add(ops: list) -> tuple:
    import numpy as np

    empty = np.zeros(0, dtype=np.int64)
    return (np.concatenate([empty] + [o[0] for o in ops]),
            np.concatenate([empty] + [o[1] for o in ops]))


def _diag(counts: np.ndarray) -> tuple:
    import numpy as np

    at = np.repeat(np.arange(len(counts)), counts)
    return at, at


def _blocks(model: OracleModel, blocks) -> tuple:
    """The block operator with a generator at each listed block.

    ``blocks`` yields ``(R, C, key, adjoint)``: block (R, C) holds the
    generator ``key``, transposed when ``adjoint``; blocks listed twice
    add up.
    """
    n = len(model.basis)
    ops = []
    for r, c, key, adjoint in blocks:
        g = _gen(model, key)
        rows, cols = _tr(g) if adjoint else g
        ops.append((rows + r * n, cols + c * n))
    return _add(ops)


def _row_operator(model: OracleModel, fam: str) -> tuple:
    """``V = [G_1 ... G_count]`` of a family and its live columns.

    V maps H^count to H; column c of block k is live when ``G_k e_c``
    is in the basis.
    """
    import numpy as np

    memo = _memo_of(model)
    if ("row", fam) not in memo:
        keys = [key for key in model.keys if key[0] == fam]
        memo[("row", fam)] = (
            _blocks(model, [(0, k, key, False)
                            for k, key in enumerate(keys)]),
            np.concatenate([model.imgs[key] >= 0 for key in keys]))
    return memo[("row", fam)]


def _range_projection(model: OracleModel, fam: str) -> tuple:
    """``V V^T``, the sum of ``G G^T`` over the family."""
    memo = _memo_of(model)
    if ("ran", fam) not in memo:
        V, _ = _row_operator(model, fam)
        memo[("ran", fam)] = _mul(V, _tr(V))
    return memo[("ran", fam)]


def _sorted_keys(op: tuple, mask: np.ndarray, rows: int) -> np.ndarray:
    keep = mask[op[1]]
    keys = op[1][keep] * rows + op[0][keep]
    keys.sort()
    return keys


def _first_bad_columns(lhs: tuple, rhs: tuple, mask: np.ndarray,
                       size: int, rows: int) -> dict:
    """Where two block operators differ, by block.

    Maps each (row block, column block) of ``size``-wide blocks where
    ``lhs`` and ``rhs`` differ in a column that ``mask`` keeps to the
    first such column, counted within its block, in block order.  Row
    indices are below ``rows``.  The sorted entry keys of the kept
    columns are compared first, which is exact for multisets; only two
    unequal sides are split by block.
    """
    import numpy as np

    left = _sorted_keys(lhs, mask, rows)
    right = _sorted_keys(rhs, mask, rows)
    if len(left) == len(right) and np.array_equal(left, right):
        return {}
    uniq, inv = np.unique(np.concatenate((left, right)), return_inverse=True)
    net = (np.bincount(inv[:len(left)], minlength=len(uniq))
           - np.bincount(inv[len(left):], minlength=len(uniq)))
    cols, at = np.divmod(uniq[net != 0], rows)  # in column order
    width = -(-len(mask) // size)  # column blocks
    cells, first = np.unique(at // size * width + cols // size,
                             return_index=True)
    return {divmod(int(cell), width): int(cols[k] % size)
            for cell, k in zip(cells.tolist(), first.tolist())}


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


def verify_relations(model: OracleModel) -> Report:
    """Check every defining operator identity on the truncation.

    Each family is a row isometry: its row operator ``V = [G_1 ...
    G_count]`` satisfies ``V^T V = I`` on H^count, which is G_i^T G_j =
    delta_ij I block by block, and ``V V^T = sum G_i G_i^T`` is at most
    the identity (it is diagonal by construction, each column of an
    image array holding at most one entry).  Pairs additionally: the
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
    pair = model.is_pair
    families = [("s", p.m)] + ([("t", p.n)] if pair else [])
    for fam, count in families:
        V, live = _row_operator(model, fam)
        # adjoint rows are exact wherever the forward image is in-basis,
        # no extra cost
        eye = _diag(np.ones(count * n, dtype=np.int64))
        bad = _first_bad_columns(_mul(_tr(V), V), eye, live, n, count * n)
        rows.extend(f"{fam}[{i+1}]^T {fam}[{j+1}]: differs at column "
                    f"{basis[col]!r}" for (i, j), col in bad.items())
        # sum G G^T is diagonal, each column holding at most one entry
        diag = np.bincount(V[0], minlength=n)
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
    """The twisted commutation rows and both displays, as one comparison.

    Block b of both sides is one identity: first one per twist entry,
    then the two displays of each label pair (i, j).  Each side is a
    product of two block operators; a display's terms are summed
    through one middle block per twist entry that contributes it.
    """
    import numpy as np

    pp = model.presentation
    entries = sorted(pp.theta.map.items())
    labels, masks = [], []
    lhs_a, lhs_b, rhs_a, rhs_b = [], [], [], []
    for b, ((i, j), (i2, j2)) in enumerate(entries):
        labels.append(f"S{i} T{j} = T{j2} S{i2}")
        masks.append(_two_steps_in_basis(model, ("t", j), ("s", i))
                     & _two_steps_in_basis(model, ("s", i2), ("t", j2)))
        lhs_a.append((b, b, ("s", i), False))
        lhs_b.append((b, b, ("t", j), False))
        rhs_a.append((b, b, ("t", j2), False))
        rhs_b.append((b, b, ("s", i2), False))
    # doubly-commuting displays; each sum has at most one live term per
    # column because predecessors are unique
    m1 = model.mask(forward=1, adjoint=1)
    one, two = {}, {}
    for i in range(1, pp.m + 1):
        for j in range(1, pp.n + 1):
            one[(i, j)], two[(i, j)] = b1, b2 = len(labels), len(labels) + 1
            labels += [f"T{j}^T S{i} display", f"S{i}^T T{j} display"]
            masks += [m1, m1]
            lhs_a += [(b1, b1, ("t", j), True), (b2, b2, ("s", i), True)]
            lhs_b += [(b1, b1, ("s", i), False), (b2, b2, ("t", j), False)]
    mid = len(entries)
    for (k, jj), (ii, jk) in entries:  # S_k T_jk^T in T_jj^T S_ii
        if (ii, jj) in one:
            rhs_a.append((one[(ii, jj)], mid, ("s", k), False))
            rhs_b.append((mid, one[(ii, jj)], ("t", jk), True))
            mid += 1
    for (ii, k), (ik, jj) in entries:  # T_k S_ik^T in S_ii^T T_jj
        if (ii, jj) in two:
            rhs_a.append((two[(ii, jj)], mid, ("t", k), False))
            rhs_b.append((mid, two[(ii, jj)], ("s", ik), True))
            mid += 1
    n = len(model.basis)
    lhs = _mul(_blocks(model, lhs_a), _blocks(model, lhs_b))
    rhs = _mul(_blocks(model, rhs_a), _blocks(model, rhs_b))
    # both sides are block diagonal, so each difference is in a block (b, b)
    bad = _first_bad_columns(lhs, rhs, np.concatenate(masks), n,
                             len(labels) * n)
    rows.extend(f"{labels[b]}: differs at column {model.basis[col]!r}"
                for (_, b), col in bad.items())


# ------------------------------------------------------------ subspace claims

CLAIMS = ("S-invariant", "T-invariant", "S-reducing", "T-reducing",
          "unitary-on", "shift-on", "wandering")


def verify_subspace(model: OracleModel, sub: SubspaceDesc, claims,
                    family: str = "s") -> Report:
    """Check subspace claims as exact matrix identities.

    Q is the diagonal 0/1 projection of the description over the basis,
    read with one ``contains_many`` call.  Invariance and reduction are
    commutator checks against the family's row operator V, on its
    forward-interior columns: invariance compares ``V Q^count`` with
    ``Q V Q^count``, reduction ``Q V`` with ``V Q^count``, where
    ``Q^count`` is Q on each of V's blocks.  With R = V V^T the range
    projection of the family, on adjoint-interior columns: unitary-on
    checks R Q = Q; wandering checks that the columns R kills are
    exactly the members that carry no letter of the family (the
    wandering vectors, given as a set of depth-zero vectors or as the
    node set of a pair's dead nodes).  shift-on walks each member's
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
    fams = {claim[0].lower() if claim[0] in "ST" else family
            for claim in claims}
    if "t" in fams and not model.is_pair:
        raise ValidationError("a single family has no T-family claims")
    basis = model.basis
    n = len(basis)
    member = np.array(sub.contains_many(basis, model.presentation),
                      dtype=bool)
    Q = _diag(member.astype(np.int64))
    for claim in sorted(set(claims)):
        fam = claim[0].lower() if claim[0] in "ST" else family
        if claim.endswith("-invariant") or claim.endswith("-reducing"):
            V, live = _row_operator(model, fam)
            count = (model.presentation.m if fam == "s"
                     else model.presentation.n)
            VQ = _mul(V, _diag(np.tile(member, count).astype(np.int64)))
            if claim.endswith("-invariant"):
                lhs, rhs = VQ, _mul(Q, VQ)
            else:
                lhs, rhs = _mul(Q, V), VQ
            bad = _first_bad_columns(lhs, rhs, live, n, n)
            rows.extend(f"{claim} fails for {fam}[{k+1}] at column "
                        f"{basis[col]!r}" for (_, k), col in bad.items())
        elif claim in ("unitary-on", "wandering"):
            ran = _range_projection(model, fam)
            if claim == "unitary-on":
                valid = member & model.mask(adjoint=1)
                col = _first_bad_columns(_mul(ran, Q), Q, valid, n,
                                         n).get((0, 0))
            else:
                # R must kill exactly the bare members; whether it
                # exceeds the identity elsewhere is verify_relations'
                # business
                attr = f"{fam}_prefix" if model.is_pair else "prefix"
                bare = np.zeros(n, dtype=bool)
                bare[[c for c in np.flatnonzero(member).tolist()
                      if not getattr(basis[c], attr)]] = True
                alive = np.zeros(n, dtype=bool)
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
