"""Independent numeric verification on finite truncations.

Everything here re-derives the basis action from the raw edge data and
the word calculus, on purpose: the symbolic modules must never get to
grade their own homework, so no decider is imported here, and what
they compute arrives as a claim passed to :func:`verify_subspace`.
Each generator is a 0/1 partial injection on the canonical elements of
bounded depth, held as one image index per column.  For a single
family the basis and image arrays are written in closed form: the
basis is laid out layer by layer, a prefix of length at least one
never absorbs, so each generator shifts a whole layer onto a run of
the next one, and only the depth-zero columns consult the edges.  A
pair's basis and arrays are computed on integer word codes: shortlex
codes per family, and twist tables filled from the one-letter moves of
the word calculus give each column's new letter and every absorption
step, for all columns and generators at once.  A column is a word
code per family and a base position, named only when read: a report
names the columns it cites.  A node set over the model's own
presentation is read per base node and gathered by base position;
any other description is asked about every column, by name.

Every identity is computed from the image arrays themselves, with
integer counts: there are no floats and no tolerances.  A model keeps
its images as one read-only (generators x columns) stack whose row views
are its ``imgs``; a check restacks the entries once one is not its view,
so a replaced array is what the next check reads.  Word tables depend on
(k, top) alone and twist tables on the move table theta gives, so both
are shared, read-only.  A product whose left factor is a generator is a
gather, ``img_a[img_b]``: the twisted commutation rows, the
``S_k T_jk^T`` terms of both doubly-commuting displays, and invariance
and reduction, which compare the images of members with membership.  A
family G_1..G_m is a row isometry exactly when its row operator
``V = [G_1 ... G_m]`` from H^m to H satisfies ``V^T V = I``, which is
every ``G_i^T G_j = delta_ij I`` at once, and its range projection
``V V^T = sum G_i G_i^T`` is the diagonal matrix of how many columns the
family sends to each row: one ``bincount`` decides the isometry rows,
``sum G G^T``, ``unitary-on`` and ``wandering``, and only the images
counted twice are grouped to find each failing block (i, j).  Only a
display's left side, an adjoint times a generator (``T_j^T S_i``,
``S_i^T T_j``), is a join on entry lists (``_mul``); all displays are
blocks of one such product, built only on their kept columns and
compared with their terms' sums at once.

Truncation discipline: a truncated isometry is defective at the
boundary, so each identity is asserted only on its own interior mask.
A forward application costs one unit of depth; an adjoint application
can raise the depth of a pair element by at most |base| - 1 (the
un-absorption walk pulls back that many letters before re-absorbing),
and never raises it for a single family.  A column is interior for an
identity when its depth plus the identity's worst-case cost stays
within the truncation, which makes every masked comparison exact.

numpy is imported inside the functions that build or read the image
arrays, and ``pair`` and ``words`` inside the pair path: importing this
module loads none of them, and a single family never loads the pair
modules.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from typing import TYPE_CHECKING, Optional, Union

from .errors import ResourceExceeded, ValidationError, _Record, _require_depth
from .presentation import Elem, Presentation

if TYPE_CHECKING:
    import numpy as np

    from .pair import PairPresentation
    from .wold import SubspaceDesc

BASIS_BUDGET = 10 ** 5


# ------------------------------------------------------------ model building

def _over_budget(depth: int) -> ResourceExceeded:
    return ResourceExceeded(
        f"truncated basis at depth {depth} has more than {BASIS_BUDGET} "
        f"vectors, the budget")


def _free_slots(p: Presentation) -> list:
    # per label i, the base positions where S_i does not absorb
    return [[q for q, b in enumerate(p.base) if (b, i) not in p.edges]
            for i in range(1, p.m + 1)]


def _single_basis_size(p: Presentation, depth: int, free: list) -> int:
    """The size of a single family's truncated basis, counted in closed form.

    A prefix of length L >= 1 ending in letter i sits on node b unless
    (b, i) is an edge, so the count is |base| + sum over L = 1..depth
    of m^(L-1) * #{(b, i) not in edges}, read off ``free``.  The sum
    stops once it passes the budget, so a deep truncation costs no more
    than a shallow one.
    """
    total, layer = len(p.base), sum(map(len, free))
    for _ in range(depth):
        if not layer or total > BASIS_BUDGET:
            break
        total += layer
        layer *= p.m
    return total


def _single_model(p: Presentation, depth: int, free: list) -> tuple:
    """A single family's basis, image stack and column depths.

    Layer 0 is the base.  Layer L >= 1 lists, for each head of length
    L - 1 in lexicographic order and each last letter i, the base
    positions where letter i does not absorb: each head owns a block of
    ``width = sum_i |free_i|`` columns, so each column's word code is
    closed-form.  A prefix of length L >= 1 never absorbs, so ``S_i``
    maps layer L onto the i-th of m equal runs of layer L + 1, column
    for column: ``offset[L+1] + (i-1)*size[L] + arange(size[L])``.  Only
    the |base| depth-zero columns are looked up in ``p.edges``.  A node
    declared twice appears twice in each run; its row is its last one.
    """
    import numpy as np

    last = []  # per label: node -> its last position in the block
    rep = []   # per block position: the row that names the same element
    for slots in free:
        at = {p.base[q]: len(rep) + k for k, q in enumerate(slots)}
        last.append(at)
        rep.extend(at[p.base[q]] for q in slots)
    width = len(rep)
    sizes = [len(p.base)] + [width * p.m ** (length - 1) for length in
                             range(1, depth + 1) if width]
    offsets = list(itertools.accumulate(sizes, initial=0))
    # the rows naming layer L's columns, relative to the layer's start,
    # are a prefix of this array for every L >= 1
    named = (np.arange(sizes[-2] // width if len(sizes) > 2 else 0,
                       dtype=np.int64)[:, None] * width
             + np.array(rep, dtype=np.int64)).ravel()
    stack = np.full((p.m, offsets[-1]), -1, dtype=np.int64)
    for i, row in enumerate(stack, 1):
        for col, b in enumerate(p.base):
            hit = p.edges.get((b, i))
            if hit is not None:
                row[col] = p.node_index.get(hit, -1)
            elif b in last[i - 1]:  # not an edge whose target is None
                row[col] = offsets[1] + last[i - 1][b]
    for length in range(1, len(sizes) - 1):
        size = sizes[length]  # written in place, every label at once
        np.add(named[:size], offsets[length + 1] + size * np.arange(
            p.m)[:, None], out=stack[:, offsets[length]:offsets[length + 1]])
    # past the base, the columns run through the heads in code order,
    # one block each, and the word head + (i,) has code m * head + i
    heads = np.arange((offsets[-1] - offsets[1]) // max(width, 1))
    letter = np.repeat(np.arange(1, p.m + 1), list(map(len, free)))
    slot = np.array([q for slots in free for q in slots], dtype=np.int64)
    codes = (heads[:, None] * p.m + letter).ravel()
    pos = np.broadcast_to(slot, (len(heads), width)).ravel()
    basis = _LazyBasis(
        Elem, (_shared_words(max(p.m, 1), len(sizes) - 1),),
        (np.concatenate((np.zeros(len(p.base), dtype=np.int64), codes)),),
        np.concatenate((np.arange(len(p.base)), pos)), p.base)
    depths = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return basis, stack, depths


def _pair_basis_lower_bound(pp: PairPresentation, depth: int) -> int:
    """A lower bound on the size of a pair's truncated basis.

    The pure-S elements and the pure-T elements (the T-letter arrives
    unchanged through an empty S-block) are each counted by the
    single-family closed form; the |base| depth-zero vectors are in
    both.  Each count is capped just past the budget, which keeps the
    sum a lower bound.
    """
    return sum(_single_basis_size(p, depth, _free_slots(p)) for p in
               (pp._s_family, pp._t_family)) - len(pp.base)


class _Words:
    """Shortlex codes of the words of length at most ``top`` in k letters.

    A word's code counts the shorter words, then adds its lexicographic
    rank among the words of its length, so codes order words by length
    and then letter by letter, and prepending letter a to a word w adds
    ``a * k^|w|`` to its code.  ``length``, ``last`` (0 for the empty
    word) and ``head`` (the code without the last letter) are int32
    tables indexed by code, built on first use: naming words needs none
    of them, so a single family's basis never builds them.  All arrays
    are read-only, and ``_shared_words`` builds one per (k, top) and
    process for every model, keeping the 16 used last.
    """

    def __init__(self, k: int, top: int):
        import numpy as np

        self.k, self.top = k, top
        self.powers = k ** np.arange(top + 1, dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.powers)))
        self.size = int(self.offsets[-1])
        self.powers.flags.writeable = self.offsets.flags.writeable = False

    @functools.cached_property
    def _tables(self) -> tuple:
        import numpy as np

        length = np.repeat(np.arange(self.top + 1, dtype=np.int32),
                           self.powers)
        rank = np.arange(self.size) - self.offsets[length]
        last = (rank % self.k + 1).astype(np.int32)
        head = (self.offsets[length - 1] + rank // self.k).astype(np.int32)
        last[0] = head[0] = 0  # the empty word
        for table in (length, last, head):
            table.flags.writeable = False
        return length, last, head

    length = property(lambda self: self._tables[0])
    last = property(lambda self: self._tables[1])
    head = property(lambda self: self._tables[2])

    def tuples(self, codes: np.ndarray) -> list:
        """The words named by ``codes``, as tuples of letters."""
        import numpy as np

        uniq, at = np.unique(codes, return_inverse=True)
        lengths = np.searchsorted(self.offsets, uniq, side="right") - 1
        rank = uniq - self.offsets[lengths]
        # letter q of a word of length L is rank // k^(L-1-q) % k + 1
        shift = np.maximum(lengths[:, None] - 1 - np.arange(self.top), 0)
        letters = rank[:, None] // self.powers[shift] % self.k + 1
        names = [tuple(row[:n]) for row, n in zip(letters.tolist(),
                                                   lengths.tolist())]
        return list(map(names.__getitem__, at.tolist()))


_shared_words = functools.lru_cache(maxsize=16)(_Words)


def _twist(words: _Words, carries: int, move) -> tuple:
    """Push a letter of the other family through each word, outer end first.

    ``move(f, c)`` is the one-letter move of carry c through letter f:
    the letter left in f's place and the carry that goes on.  Each model
    reads its ``k * carries`` moves from its own theta.  Returns two
    read-only tables indexed by (word code, carry), shared per move
    table: the rewritten word's code and the carry out at the inner end.
    """
    return _twist_table(words.k, words.top, carries, tuple(
        (*w, d) for f in range(1, words.k + 1)
        for w, d in (move(f, c) for c in range(1, carries + 1))))


@functools.lru_cache(maxsize=16)
def _twist_table(k: int, top: int, carries: int, moves: tuple) -> tuple:
    """``_twist``'s two tables: the planes of one read-only (code,
    carry, 2) array, built once per move table, the 16 used last kept.
    Carry 0 stands for no letter and leaves the word as it is.  The
    words of length L are each first letter f, in order, before every
    word of length L - 1, so a level is read off the level below.
    """
    import numpy as np

    words = _shared_words(k, top)
    emit, turn = np.array(moves, dtype=np.int64).T.reshape(2, k, carries)
    # per level and carry, what the word and the carry out gain
    adds = np.zeros((top, k, 1, carries, 2), dtype=np.int32)
    adds[..., 0] = emit[:, None] * words.powers[:top, None, None, None]
    table = np.empty((words.size, carries + 1, 2), dtype=np.int32)
    table[:, 0, 0], table[:, 0, 1] = np.arange(words.size), 0
    table[0, :, 0], table[0, :, 1] = 0, np.arange(carries + 1)
    for length in range(1, top + 1):
        tails = table[words.offsets[length - 1]:words.offsets[length]]
        level = table[words.offsets[length]:words.offsets[length + 1]]
        # (tail, f, c) -> (f, tail, c): the level's rows in code order
        np.add(tails[:, turn].transpose(1, 0, 2, 3), adds[length - 1],
               out=level.reshape(k, -1, carries + 1, 2)[:, :, 1:])
    table.flags.writeable = False
    return table[..., 0], table[..., 1]


class _PairTables:
    """A pair's word codes, twist tables and edge tables, from raw data.

    Word tables are shared per (k, top) and twist tables per move table
    that theta gives (``_twist``), all read-only.  Nodes get ids in order
    of first appearance in the base, then in the edges.  Per family,
    ``edge[node, letter]`` is the id of the node the letter absorbs
    into, -2 for an edge to ``None`` (a key of the edge dict, so the
    canonical rule sees it, that absorbs nothing) and -1 for no edge;
    letter 0 has no edge.  A family with no free slot at a base node has
    only the empty word in the basis, so its word table stops at length
    1, the most one application prepends.  Otherwise it stops at
    ``depth``: a word one letter longer arises only when a letter is
    prepended to a pure word of length ``depth``, whose innermost letter
    absorbs nothing, so that image is out of the basis.
    """

    def __init__(self, pp: PairPresentation, depth: int):
        import numpy as np

        ids: dict = {}
        for b in pp.base:
            ids.setdefault(b, len(ids))
        for edges in (pp.s_edges, pp.t_edges):
            for (src, _), dst in edges.items():
                ids.setdefault(src, len(ids))
                if dst is not None:
                    ids.setdefault(dst, len(ids))
        self.nodes = np.array([ids[b] for b in pp.base], dtype=np.int32)
        self.node_count = len(ids)
        tables = []
        for edges, count in ((pp.s_edges, pp.m), (pp.t_edges, pp.n)):
            edge = np.full((len(ids), count + 1), -1, dtype=np.int32)
            for (src, label), dst in edges.items():
                if 1 <= label <= count:
                    edge[ids[src], label] = -2 if dst is None else ids[dst]
            free = (edge[self.nodes, 1:] == -1).any()
            tables += [edge, _shared_words(count, depth if free else 1)]
        self.s_edge, self.s_words, self.t_edge, self.t_words = tables
        from .words import commute_s_left, commute_t_right

        self.t_through_s = _twist(self.s_words, pp.n, lambda f, c:
                                  commute_t_right(pp.theta, (f,), c))
        self.s_through_t = _twist(self.t_words, pp.m, lambda f, c:
                                  commute_s_left(pp.theta, c, (f,)))


def _pair_basis_codes(tables: _PairTables, depth: int) -> tuple:
    """The canonical (T-code, S-code, base position) triples, in order.

    A T-word's columns are the S-canonical (S-word, position) pairs
    short enough for its length where its innermost T-letter, pushed
    through the S-word, has no edge at the node.  A prefix sum per last
    T-letter counts them, so the exact count is checked against the
    budget before one pass builds every column, each T-word's in
    (S-word, position) order.  A stable sort by (depth, T-length) then
    gives the canonical walk's order: by depth, longer T-word first,
    then T-word, S-word and base position.
    """
    import numpy as np

    sw, tw = tables.s_words, tables.t_words
    # (S-code, position) where the S-word's last letter has no edge;
    # letter 0, the empty word's, has none anywhere
    s, pos = np.nonzero(tables.s_edge[tables.nodes].T[sw.last] == -1)
    # per pair, each last T-letter (0: none) that arrives with no edge
    free = tables.t_edge[tables.nodes[pos, None],
                         tables.t_through_s[1][s]] == -1
    short = np.searchsorted(s, sw.offsets[np.minimum(
        depth - np.arange(tw.top + 1), sw.top) + 1])
    prefix = np.vstack((np.zeros(tw.k + 1, bool), free)).cumsum(axis=0)
    counts = prefix[short[tw.length], tw.last]  # per T-code
    if counts.sum() > BASIS_BUDGET:
        raise _over_budget(depth)
    t = np.repeat(np.arange(tw.size), counts)
    # a T-word's r-th column is the r-th pair its last letter keeps
    rank = np.arange(len(t)) - np.repeat(np.cumsum(counts) - counts, counts)
    kept = np.argsort(~free, axis=0, kind="stable").T
    at = kept[tw.last[t], rank]
    s, pos = s[at], pos[at]
    t_len = tw.length[t]
    order = np.argsort((t_len + sw.length[s]) * (depth + 2) - t_len,
                       kind="stable")
    return t[order], s[order], pos[order]


def _pair_images(pp: PairPresentation, tables: _PairTables, t: np.ndarray,
                 s: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Every generator's image array, all generators in one stack.

    Each column gets every generator's letter prepended at once (an
    S-letter after crossing the T-word), then the absorption cascade
    steps the columns still moving until none moves: the innermost
    S-letter absorbs when it has an edge at the node, and otherwise the
    innermost T-letter, pushed through the S-word, when the pushed
    letter has one.  An image's row is its key's in the sorted basis
    keys; one outside the basis, or whose word outgrew its table, gets -1.
    """
    import numpy as np

    sw, tw = tables.s_words, tables.t_words
    t_word, s_letter = tables.s_through_t
    T = np.concatenate((t_word[t, 1:].T, t + np.arange(1, pp.n + 1)[
        :, None] * tw.powers[tw.length[t]])).ravel()
    S = np.concatenate((s + s_letter[t, 1:].T * sw.powers[sw.length[s]],
                        np.broadcast_to(s, (pp.n, len(s))))).ravel()
    ends = np.flatnonzero((T < tw.size) & (S < sw.size))
    T, S, X = T[ends], S[ends], np.tile(tables.nodes[pos], pp.m + pp.n)[ends]
    pushed, arrive = tables.t_through_s
    live, t_at, s_at, x_at = np.arange(len(ends)), T, S, X
    while True:
        by_s = tables.s_edge[x_at, sw.last[s_at]]
        j = tw.last[t_at]
        to = np.where(by_s < 0, tables.t_edge[x_at, arrive[s_at, j]], by_s)
        go = np.flatnonzero(to >= 0)
        if not len(go):
            break
        on_s = by_s[go] >= 0
        live, t_at, s_at, x_at, j = live[go], t_at[go], s_at[go], to[go], j[go]
        t_at = np.where(on_s, t_at, tw.head[t_at])
        s_at = np.where(on_s, sw.head[s_at], pushed[s_at, j])
        T[live], S[live], X[live] = t_at, s_at, x_at
    # a key orders a column by T-code, S-code and node
    basis_keys, keys = ((a * sw.size + b) * tables.node_count + c for a, b, c
                        in ((t, s, tables.nodes[pos]), (T, S, X)))
    order = np.argsort(basis_keys, kind="stable")
    basis_keys = basis_keys[order]
    # a node declared twice names one element twice: as in a dict from
    # element to row, the last one counts
    found = np.searchsorted(basis_keys, keys, side="right") - 1
    hit = (found >= 0) & (basis_keys[found] == keys)
    rows = np.full((pp.m + pp.n, len(t)), -1, dtype=np.int64)
    rows.ravel()[ends[hit]] = order[found[hit]]
    return rows


class _LazyBasis(Sequence):
    """Basis vectors, named only when read.

    Column k is ``kind(*words, base[pos[k]])`` with one word per family,
    ``words[f]`` naming its code ``codes[f][k]``: the prefix of an
    ``Elem``, the T-word and S-word of a ``PairElem``.  The length needs
    no name; an index names one column; iterating names every column at
    once and keeps the names.  It equals the tuple of its names.
    """

    def __init__(self, kind: type, words: tuple, codes: tuple,
                 pos: np.ndarray, base: tuple):
        self.kind, self.words, self.codes = kind, words, codes
        self.pos, self.base = pos, base
        self._names = None

    def __len__(self) -> int:
        return len(self.pos)

    def __getitem__(self, k):
        if self._names is None and not isinstance(k, slice):
            k = range(len(self))[k]  # an int, in range
            return self._decode(slice(k, k + 1))[0]
        return self._all()[k]

    def __iter__(self):
        return iter(self._all())

    def _all(self) -> tuple:
        if self._names is None:
            self._names = self._decode(slice(None))
        return self._names

    def names(self, cols) -> dict:
        """Each distinct column of ``cols`` mapped to its name, every one
        named in one decode."""
        import numpy as np

        cols = sorted(set(cols))
        if not cols:
            return {}
        if self._names is not None:
            return {k: self._names[k] for k in cols}
        return dict(zip(cols, self._decode(np.array(cols, dtype=np.int64))))

    def _decode(self, cols) -> tuple:
        names = [w.tuples(c[cols]) for w, c in zip(self.words, self.codes)]
        nodes = map(self.base.__getitem__, self.pos[cols].tolist())
        # tuple.__new__ builds each named tuple from its fields without
        # the field-wise constructor, about twice as fast
        return tuple(map(tuple.__new__, itertools.repeat(self.kind),
                         zip(*names, nodes)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _LazyBasis)):
            return len(self) == len(other) and self._all() == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(self._all())


class OracleModel:
    """Every generator of a depth-d truncation as an image array.

    ``stack`` has a row per generator, in ``keys`` order (S-labels, then
    T-labels), holding per column the row index of the image, or -1
    when it falls outside the basis (a boundary column): the
    generator's 0/1 matrix.  ``imgs[key]`` is its row's view; ``imgs``
    given as a stack is kept, and given as a dict is stacked.
    ``interior`` flags the columns whose every image is in the basis.
    ``depths`` holds each column's depth and ``letters[fam]`` how many
    letters of family ``fam`` its name carries.  The basis is a lazy
    sequence over word codes and base positions (``_LazyBasis``): a
    column gets its name only when it is read, as the verifiers read
    the columns they report.  A single family's is ordered by layer
    (prefix length), which lets ``materialize`` write it in closed
    form; a pair's by depth, longer T-word first, then by T-word,
    S-word and base position.

    The stack and its views are read-only.  To corrupt a model, replace
    an ``imgs`` entry: once one is not its view, every check restacks
    the entries, so a replaced array is what the next check reads.
    """

    def __init__(self, presentation: object, depth: int, basis: Sequence,
                 keys: tuple, imgs: Union[dict, np.ndarray],
                 depths: np.ndarray, letters: dict, adjoint_cost: int):
        import numpy as np

        self.presentation = presentation
        self.depth = depth
        self.basis = basis
        self.keys = keys
        if isinstance(imgs, dict):  # an array per key, stacked in order
            imgs = np.array([imgs[key] for key in keys], dtype=np.int64
                            ).reshape(len(keys), len(depths))
        imgs.flags.writeable = False
        self.stack = imgs
        self.imgs = dict(zip(keys, imgs))
        self._views = tuple(self.imgs.values())
        self.depths = depths
        self.letters = letters
        self.adjoint_cost = adjoint_cost

    def __reduce__(self):  # a copy is stacked afresh from imgs as they are
        return OracleModel, (self.presentation, self.depth, self.basis,
                             self.keys, dict(self.imgs), self.depths,
                             self.letters, self.adjoint_cost)

    @property
    def interior(self) -> np.ndarray:
        return (_family(self) >= 0).all(axis=0)

    @property
    def is_pair(self) -> bool:
        return not isinstance(self.presentation, Presentation)

    def mask(self, forward: int = 0, adjoint: int = 0) -> np.ndarray:
        """Columns interior to an identity with the given op counts."""
        budget = self.depth - forward - adjoint * self.adjoint_cost
        return self.depths <= budget


def materialize(p: Union[Presentation, PairPresentation],
                depth: int) -> OracleModel:
    """Build the truncated matrix model of a presentation.

    The action is recomputed from the raw edge dictionaries, so a
    corrupted presentation materializes to matrices that expose the
    corruption instead of hiding it.  A single family's basis and arrays
    come in closed form from the layer layout (``_single_model``):
    ``S_i`` maps layer L >= 1 onto a run of layer L + 1, and only the
    |base| depth-zero columns are looked up in the edges.  A pair's
    basis and arrays are computed on integer word codes
    (``_pair_basis_codes``, ``_pair_images``).  A truncation over
    ``BASIS_BUDGET`` vectors raises ``ResourceExceeded`` before any
    basis element is built, and before numpy is loaded when a
    closed-form count (a pair's lower bound) is already over the budget.
    A depth that is not an ``int``, or is below 1, is a ValidationError.
    """
    _require_depth(depth, 1)
    keys = tuple(("s", i) for i in range(1, p.m + 1))
    if not isinstance(p, Presentation):
        if _pair_basis_lower_bound(p, depth) > BASIS_BUDGET:
            raise _over_budget(depth)
        from .pair import PairElem

        tables = _PairTables(p, depth)
        t, s, pos = _pair_basis_codes(tables, depth)
        basis = _LazyBasis(PairElem, (tables.t_words, tables.s_words),
                           (t, s), pos, p.base)
        stack = _pair_images(p, tables, t, s, pos)
        letters = {"s": tables.s_words.length[s],
                   "t": tables.t_words.length[t]}
        depths = (letters["s"] + letters["t"]).astype("int64")
        adj = max(0, len(p.base) - 1)
        keys += tuple(("t", j) for j in range(1, p.n + 1))
    else:
        free = _free_slots(p)
        if _single_basis_size(p, depth, free) > BASIS_BUDGET:
            raise _over_budget(depth)
        basis, stack, depths = _single_model(p, depth, free)
        letters = {"s": depths}
        adj = 0
    return OracleModel(p, depth, basis, keys, stack, depths, letters, adj)


# ------------------------------------------------------------------ kernels
#
# A generator is the partial map its image array stores: column c goes
# to row img[c], or leaves the basis when img[c] is -1.  A family's
# arrays are one (count, n) stack, row k - 1 for label k, sliced from
# the model's stack or from its restacked ``imgs`` once one is replaced.
# Where a product needs the entries themselves, an operator is a pair
# (rows, cols) of int64 arrays: one entry of value 1 at each (rows[k],
# cols[k]), repeated pairs adding up.  A block operator over H^r x H^c,
# n = |basis|, puts entry (i, j) of block (R, C) at (R*n + i, C*n + j).


def _family(model: OracleModel, fam: Optional[str] = None) -> np.ndarray:
    """The stack of family ``fam``'s image arrays, or of all, S first."""
    import numpy as np

    stack = model.stack
    arrays = list(map(model.imgs.__getitem__, model.keys))
    if any(a is not b for a, b in zip(arrays, model._views)):
        stack = np.array(arrays, dtype=np.int64).reshape(stack.shape)
    m = model.presentation.m
    return stack if fam is None else stack[:m] if fam == "s" else stack[m:]


def _compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The image arrays of ``outer[k] inner[k]``, row by row: a gather
    where ``inner`` is in the basis, -1 where either step leaves it."""
    import numpy as np

    rows = np.arange(len(outer))[:, None] * outer.shape[-1]
    return np.where(inner >= 0, outer.ravel()[inner + rows], -1)


def _image_counts(stack: np.ndarray, n: int) -> np.ndarray:
    """The diagonal of ``sum G G^T`` over the generators' image arrays.

    ``G G^T`` puts, at (r, r'), the number of columns G sends to both r
    and r', so the sum is diagonal and its entry r counts the columns
    the family sends to r: one ``bincount``, in budget-sized pieces.
    """
    import numpy as np

    counts = np.zeros(n + 1, dtype=np.int64)
    step = max(1, BASIS_BUDGET // max(n, 1))
    for at in range(0, len(stack), step):  # -1, shifted by one, is bin 0
        counts += np.bincount(stack[at:at + step].ravel() + 1, minlength=n + 1)
    return counts[1:]


def _isometry_defects(stack, counts: np.ndarray) -> dict:
    """Where ``V^T V`` differs from the identity, by block.

    V is the row operator ``[G_1 ... G_count]``, given by its
    generators' image arrays.  Column c of block j of ``V^T V`` holds,
    in row block i, every column a with ``G_i e_a = G_j e_c``.  On a
    column ``G_j`` keeps in the basis that is ``e_c`` in block j and
    nothing else unless ``counts`` (the image counts) says its image is
    shared, so only the entries with a shared image are read: two of
    them with one image, in blocks i and j, put (i, j) at the column of
    the one in block j.  Each image's entries are first reduced to one
    row per block, so the pairs formed number at most the shared
    entries times the generators.
    Maps each failing (i, j), in order, to its first column, as
    ``_first_bad_columns`` does.
    """
    import numpy as np

    shared = counts > 1
    if not shared.any():
        return {}
    k, c, image = [], [], []
    for block, row in enumerate(stack):
        cols = np.flatnonzero(shared[row] & (row >= 0))
        k.append(np.full(len(cols), block))
        c.append(cols)
        image.append(row[cols])
    k, c, image = map(np.concatenate, (k, c, image))
    # one row per (image, block), with its entry count: a stable sort by
    # image keeps each image's entries by block, then column, so a row's
    # first entry holds its first column
    order = np.argsort(image, kind="stable")
    k, c, image = k[order], c[order], image[order]
    group = np.r_[True, image[1:] != image[:-1]]
    head = np.flatnonzero(group | np.r_[True, k[1:] != k[:-1]])
    entries = np.diff(np.r_[head, len(k)])
    k, c, group = k[head], c[head], group[head]
    # row r then meets every row r2 of its image, in a run of pairs as
    # long as the image has rows, at most one per block; a row meets
    # itself only when its block sends two columns to that image
    starts = np.flatnonzero(group)
    sizes = np.diff(np.r_[starts, len(k)])
    size = np.repeat(sizes, sizes)  # per row, the rows of its image
    r = np.repeat(np.arange(len(k)), size)
    run = np.repeat(np.cumsum(size) - size, size)  # where r's run starts
    r2 = np.repeat(np.repeat(starts, sizes), size) + np.arange(len(r)) - run
    keep = (r != r2) | (entries[r] > 1)
    count = len(stack)
    key = k[r2[keep]] * count + k[r[keep]]  # (i, j) = (r2's block, r's)
    col = c[r[keep]]
    first = np.lexsort((col, key))
    key, col = key[first], col[first]
    head = np.r_[True, key[1:] != key[:-1]]
    return {divmod(a, count): b for a, b in zip(key[head].tolist(),
                                                col[head].tolist())}


def _block_entries(stack: np.ndarray, n: int, keep=True) -> tuple:
    """The block-diagonal operator with row d of ``stack`` at block d,
    at the entries ``keep`` marks (per column, or per entry)."""
    import numpy as np

    at = np.flatnonzero((stack >= 0) & keep)  # d * n + column
    return stack.ravel()[at] + (at - at % n), at


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


def _first_bad_columns(lhs: tuple, rhs: tuple, size: int, rows: int) -> dict:
    """Where two block operators differ, by block.

    Maps each (row block, column block) of ``size``-wide blocks where
    ``lhs`` and ``rhs`` differ to the first column where they do,
    counted within its block, in block order.  Row indices are below
    ``rows``.  The sorted entry keys are compared first, which is exact
    for multisets; only two unequal sides are split by block.
    """
    import numpy as np

    left, right = (np.sort(op[1] * rows + op[0]) for op in (lhs, rhs))
    if len(left) == len(right) and np.array_equal(left, right):
        return {}
    uniq, inv = np.unique(np.concatenate((left, right)), return_inverse=True)
    net = (np.bincount(inv[:len(left)], minlength=len(uniq))
           - np.bincount(inv[len(left):], minlength=len(uniq)))
    cols, at = np.divmod(uniq[net != 0], rows)  # in column order
    width = int(cols[-1]) // size + 1  # past the last column block cited
    cells, first = np.unique(at // size * width + cols // size,
                             return_index=True)
    return {divmod(int(cell), width): int(cols[k] % size)
            for cell, k in zip(cells.tolist(), first.tolist())}


# ------------------------------------------------------------------- reports

class Report(_Record):
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
    the identity.  Both read one ``bincount`` of the family's images:
    ``V V^T`` is its diagonal, and ``V^T V`` differs from I only at
    the columns whose image is counted more than once.  Pairs
    additionally: the twisted commutation identity and both
    doubly-commuting displays, term sets read off the twist.  Which
    vectors the range projection fixes and which it kills is a claim
    on a subspace, checked by :func:`verify_subspace` (``unitary-on``,
    ``wandering``).
    """
    import numpy as np

    cited: list = []
    n = len(model.basis)
    pair = model.is_pair
    for fam in ("s", "t") if pair else ("s",):
        stack = _family(model, fam)
        counts = _image_counts(stack, n)
        # adjoint rows are exact, at no cost, where forward images are in-basis
        bad = _isometry_defects(stack, counts)
        cited.extend((f"{fam}[{i+1}]^T {fam}[{j+1}]: differs at column ",
                      col) for (i, j), col in bad.items())
        over = (counts > 1) & (model.mask(adjoint=1) if pair else True)
        if over.any():
            cited.append((f"sum {fam}{fam}^T exceeds identity at ",
                          int(np.argmax(over))))
    if pair:
        _verify_pair_relations(cited, model)
    return _report(model.basis, cited)


def _report(basis: _LazyBasis, cited: list) -> Report:
    """The rows ``text + repr(name)`` for each cited ``(text, column)``.

    Every distinct column is named once, all of them in one decode.
    """
    if not cited:
        return Report(())
    shown = {col: repr(x) for col, x in
             basis.names(col for _, col in cited).items()}
    return Report(tuple(text + shown[col] for text, col in cited))


def _verify_pair_relations(cited: list, model: OracleModel) -> None:
    """The twisted commutation rows, then both displays per label pair.

    Every forward product is a gather: ``S_i T_j`` and ``T_j2 S_i2``
    are composed image arrays, compared on the columns where both stay
    in the basis, and each display term ``S_k T_jk^T`` (or ``T_k
    S_ik^T``) sends ``T_jk e_a`` to ``S_k e_a``.  Only a display's left
    side, an adjoint times a generator, is a join (``_mul``), so the
    displays are compared as block operators, block d holding one
    display, with one comparison for all of them.  Both sides are built
    on kept columns only: the generator's entries there, the adjoint's
    at the rows those reach, and a term where its column ``T_jk e_a``
    is kept, so the comparison masks nothing.
    """
    import numpy as np

    pp = model.presentation
    n = len(model.basis)
    G, t_row = _family(model), pp.m - 1  # S over T: T_k is row t_row + k
    entries = sorted(pp.theta.map.items())
    i, j, i2, j2 = np.array([a + b for a, b in entries],
                            dtype=np.int64).reshape(-1, 4).T - 1
    lhs = _compose(G[i], G[j + pp.m])
    rhs = _compose(G[j2 + pp.m], G[i2])
    bad = (lhs >= 0) & (rhs >= 0) & (lhs != rhs)
    for e in np.flatnonzero(bad.any(axis=1)).tolist():
        (a, b), (a2, b2) = entries[e]
        cited.append((f"S{a} T{b} = T{b2} S{a2}: differs at column ",
                      int(np.argmax(bad[e]))))
    kept = model.mask(forward=1, adjoint=1)
    if not kept.any():  # no display has a column to compare
        return
    # doubly-commuting displays, block d holding one.  Each sum has at
    # most one live term per column because predecessors are unique
    labels, left, right, one, two = [], [], [], {}, {}
    for a in range(1, pp.m + 1):
        for b in range(1, pp.n + 1):
            one[(a, b)], two[(a, b)] = len(labels), len(labels) + 1
            labels += [f"T{b}^T S{a} display", f"S{a}^T T{b} display"]
            left += [(t_row + b, a - 1), (a - 1, t_row + b)]
    # display one reads theta(k, jj) = (ii, jk) through inverse_map, as
    # check_doubly_commute does; ROADMAP.md item 1 disputes that reading,
    # and its fix waits on a benchmark change rebuilding the golden records
    for (k, jj), (ii, jk) in entries:  # S_k T_jk^T in T_jj^T S_ii
        if (ii, jj) in one:
            right.append((one[(ii, jj)], k - 1, t_row + jk))
    for (ii, k), (ik, jj) in entries:  # T_k S_ik^T in S_ii^T T_jj
        if (ii, jj) in two:
            right.append((two[(ii, jj)], t_row + k, ik - 1))
    adj, fwd = np.array(left, dtype=np.int64).reshape(-1, 2).T
    F = _block_entries(G[fwd], n, kept)
    reach = np.zeros(len(labels) * n, dtype=bool)
    reach[F[0]] = True
    back = G[adj]  # the adjoint's entries at the rows F reaches
    A = _block_entries(back, n, reach[back + n * np.arange(len(adj))[:, None]])
    lhs = _mul((A[1], A[0]), F)  # A^T F
    d, fwd, adj = np.array(right, dtype=np.int64).reshape(-1, 3).T
    # a term sends T_jk e_a to S_k e_a: a gather on the shared column a
    to = G[adj]
    term, col = np.nonzero((G[fwd] >= 0) & (to >= 0) & kept[to])
    rhs = (G[fwd[term], col] + d[term] * n, to[term, col] + d[term] * n)
    # both sides are block diagonal, so each difference is in a block (d, d)
    bad = _first_bad_columns(lhs, rhs, n, len(labels) * n)
    cited.extend((f"{labels[d]}: differs at column ", col)
                 for (_, d), col in bad.items())


# ------------------------------------------------------------ subspace claims

CLAIMS = ("S-invariant", "T-invariant", "S-reducing", "T-reducing",
          "unitary-on", "shift-on", "wandering")


def verify_subspace(model: OracleModel, sub: SubspaceDesc, claims,
                    family: str = "s") -> Report:
    """Check subspace claims as exact matrix identities.

    Q is the diagonal 0/1 projection of the description over the basis:
    a node set over the model's own presentation answers per base node
    (``base_membership``), gathered by each column's base position, and
    any other description per named column (``contains_many``).
    Invariance and reduction are commutator checks against the family's
    row operator V, on its forward-interior columns: invariance compares
    ``V Q^count`` with ``Q V Q^count``, reduction ``Q V`` with
    ``V Q^count``, where ``Q^count`` is Q on each of V's blocks; both
    read, per forward column, whether it and its image are members (a
    gather).  With R = V V^T the range projection of the family, the
    diagonal of image counts, on adjoint-interior columns: unitary-on
    checks R Q = Q; wandering checks that the columns R kills are
    exactly the members whose name carries no letter of the family
    (read off ``model.letters``; the wandering vectors, given as a set
    of depth-zero vectors or as the node set of a pair's dead nodes).
    shift-on follows every member's backward chain at once, by pointer
    doubling (``_shift_on``), and demands certified death, flagging any
    in-basis cycle.  ``family`` picks which family the unitary-on,
    shift-on and wandering claims speak about.  The report names each
    column it cites once, all of them in one decode.
    """
    import numpy as np

    cited: list = []
    if isinstance(claims, str):  # not split into its letters
        raise ValidationError(f"claims must be a collection, got {claims!r}")
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
    answers = sub.base_membership(model.presentation)
    if answers is None:
        member = np.array(sub.contains_many(basis), dtype=bool)
    else:
        member = np.array(answers, dtype=bool)[basis.pos]
    for claim in sorted(set(claims)):
        fam = claim[0].lower() if claim[0] in "ST" else family
        if claim.endswith("-invariant") or claim.endswith("-reducing"):
            # column c of block k: V Q^count holds G_k e_c when c is a
            # member, Q V when its image is, Q V Q^count when both are
            stack = _family(model, fam)
            live, moved = stack >= 0, member[stack]
            if claim.endswith("-invariant"):
                bad = live & member & ~moved
            else:
                bad = live & (moved != member)
            cited.extend((f"{claim} fails for {fam}[{k+1}] at column ",
                          int(np.argmax(bad[k])))
                         for k in np.flatnonzero(bad.any(axis=1)).tolist())
        elif claim in ("unitary-on", "wandering"):
            # R Q = Q on member column c exactly when R's diagonal is 1 there
            counts = _image_counts(_family(model, fam), n)
            if claim == "unitary-on":
                bad = member & model.mask(adjoint=1) & (counts != 1)
            else:
                # R must kill exactly the members whose name carries no
                # letter of the family; whether it exceeds the identity
                # elsewhere is verify_relations' business
                bare = member & (model.letters[fam] == 0)
                bad = model.mask(adjoint=1) & ((counts > 0) == bare)
            if bad.any():
                cited.append((f"{claim} fails at column ",
                              int(np.argmax(bad))))
        elif claim == "shift-on":
            start = _shift_on(model, member, fam)
            if start is not None:
                cited.append(("shift-on fails: cycle through ", start))
    return _report(basis, cited)


def _shift_on(model: OracleModel, member: np.ndarray,
              fam: str) -> Optional[int]:
    """The first member column whose backward chain never stops.

    A chain steps from a column to its predecessor, and stops at a
    column with none (certified death) or at one whose true predecessor
    may lie outside the basis (not adjoint-interior).  With the stops
    sent to a sentinel column that maps to itself, ``jump`` squared
    ``k`` times takes ``2^k`` steps at once; a chain that stops does so
    within n steps, so ``ceil(log2(n + 1)) = n.bit_length()``
    squarings leave on a column other than the sentinel exactly the
    chains that run forever, through an in-basis cycle.  None when
    there is no such member.
    """
    import numpy as np

    n = len(member)
    pred = np.full(n, -1, dtype=np.int64)
    for row in _family(model, fam):  # a later label's predecessor wins
        cols = np.flatnonzero(row >= 0)
        pred[row[cols]] = cols
    jump = np.full(n + 1, n, dtype=np.int64)
    go = model.mask(adjoint=1) & (pred >= 0)
    jump[:n][go] = pred[go]
    for _ in range(n.bit_length()):
        jump = jump[jump]
    bad = member & (jump[:n] != n)
    return int(np.argmax(bad)) if bad.any() else None
