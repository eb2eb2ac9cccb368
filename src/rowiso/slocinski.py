"""Four-fold decomposition of a commuting pair, and the theorems around it.

The decomposition exists iff (1) the unitary part of the S-family, taken
over the joint basis, is closed under the T-family and its adjoint, and
(2) the T-unitary part of what remains is closed under the S-family and
its adjoint.  For a theta-commuting pair closure under the operators
always holds, since ``T_j S_w = S_w' T_j'`` with ``|w'| = |w|``, so
only the adjoint halves are decided, exactly on the base vectors
``e_b`` (see :func:`slocinski`).  Each step there asks whether a
backward predecessor chain runs forever, so the heart of this module
is deciding that for a single basis element, by its node.

The chain verdicts and :func:`slocinski` refuse a pair that is not
jointly isometric, which has no Wold verdict, with the text of its
:func:`check_joint_isometry` report.  They read the base-vector
predecessors that the joint walks leave on the pair.

Key structural facts the deciders rest on, all consequences of the
absorption calculus in :mod:`pair`:

- An element with S-letters always has an S-predecessor (strip the
  outermost letter of the S-outside form).  A forward S-step never
  lengthens the T-prefix, so the S-predecessor of a pure-T state
  ``T_w e_b`` sits at a node f(b) that does not depend on w, and the
  S-verdict of ``T_w S_u e_b`` is that of b (Słociński, 1980).
- For pure-T states, existence of a predecessor depends only on the
  node: the backward un-absorption walk visits a node-determined set,
  and a predecessor exists iff some visited node has an S-in-edge.
  DEAD nodes (no such edge on the whole walk) are exactly where chains
  die, so b is S-shift iff its f-orbit meets a DEAD node.
- The successor's node lies in a node-determined over-approximation
  SUCC(b).  If the live nodes span no cycle of SUCC, every chain dies
  and the S-unitary part is empty: one peel of the live nodes (Kahn's
  algorithm) decides it.  SUCC backs only this certificate,
  :func:`_certified_unitary_empty`.

Verdicts are exact or raise; they never guess.
"""

from __future__ import annotations

from typing import Optional

from .errors import (ContractViolation, ResourceExceeded, ValidationError,
                     _Record)
from .pair import (PairElem, PairPresentation, _base_preds,
                   _require_canonical, _s_pred_raw, _t_pred_raw,
                   check_doubly_commute, check_joint_isometry, mirror)
from .wold import Part, SubspaceDesc, _orbit_ends

DEFAULT_CHAIN_BUDGET = 10_000


# ---------------------------------------------------------------- node data

def _walk_nodes(pp: PairPresentation, b) -> list:
    """Backward t-in-edge walk from b, up to the first revisit."""
    seq = [b]
    seen = {b}
    node = b
    while True:
        step = pp.t_in.get(node)
        if step is None:
            return seq
        node = step[0]
        if node in seen:
            return seq
        seq.append(node)
        seen.add(node)


def _node_data(pp: PairPresentation) -> dict:
    cache = pp._cache
    if "nodes" in cache:
        return cache["nodes"]
    walks = {b: _walk_nodes(pp, b) for b in pp.base}
    dead = frozenset(b for b, seq in walks.items()
                     if all(c not in pp.s_in for c in seq))
    succ: dict = {}
    closure: dict = {}  # forward t-closure, searched once per node
    for b, seq in walks.items():
        targets = set()
        for c in seq:
            hit = pp.s_in.get(c)
            if hit is None:
                continue
            # the predecessor's node is somewhere in the forward
            # t-closure of the un-absorbed edge's source
            src = hit[0]
            if src not in closure:
                frontier = [src]
                reach = {src}
                while frontier:
                    cur = frontier.pop()
                    for j in range(1, pp.n + 1):
                        nxt = pp.t_edges.get((cur, j))
                        if nxt is not None and nxt not in reach:
                            reach.add(nxt)
                            frontier.append(nxt)
                closure[src] = reach
            targets |= closure[src]
        succ[b] = frozenset(targets)
    # SUCC reversed, for the peel of the live nodes' sinks
    preds: dict = {}
    for b in pp.base:
        for c in succ[b]:
            preds.setdefault(c, set()).add(b)
    alive = {b for b in pp.base if b not in dead}
    out = {b: len(succ[b] & alive) for b in alive}
    sinks = [b for b, k in out.items() if k == 0]
    peeled = 0
    while sinks:
        peeled += 1
        for b in preds.get(sinks.pop(), ()):
            if b in alive:
                out[b] -= 1
                if out[b] == 0:
                    sinks.append(b)
    acyclic = peeled == len(alive)
    data = {"walks": walks, "dead": dead, "succ": succ,
            "live_succ_acyclic": acyclic}
    cache["nodes"] = data
    return data


def dead_nodes(pp: PairPresentation) -> frozenset:
    """Base nodes at which pure-T chains have no S-predecessor."""
    return _node_data(pp)["dead"]


# ------------------------------------------------------------ chain verdicts

def _require_jointly_isometric(pp: PairPresentation) -> None:
    # a kept joint report was computed after the pair was found to
    # theta-commute, so it stands for both guards
    report = pp._joint or check_joint_isometry(pp)
    if report.violations:
        raise ContractViolation(report.violations[0])


def _s_verdict(pp: PairPresentation, node) -> Part:
    # the S-verdict of every element at node, read from where the orbit
    # of node ends under f: c -> node of e_c's S-predecessor, undefined
    # at a DEAD node.  pp is jointly isometric; every base node is
    # decided in one pass, memoised on the pair.
    verdicts = pp._cache.get("s_verdict")
    if verdicts is None:
        f = {c: step[1].node for c, step in _base_preds(pp).items()
             if step is not None}
        end = _orbit_ends(pp.base, f.get)
        verdicts = {b: Part.UNITARY if end[b] in f else Part.SHIFT
                    for b in pp.base}
        pp._cache["s_verdict"] = verdicts
    return verdicts[node]


def s_membership(pp: PairPresentation, x: PairElem) -> Part:
    """Wold verdict of the S-family at one joint basis element.

    UNITARY iff the backward S-chain never ends.  The verdict depends
    on ``x.node`` alone and follows the node map f, where f(c) is the
    node of the S-predecessor of the base vector at c: the orbit of
    ``x.node`` under f is SHIFT when it meets a DEAD node, where f has
    no value, and UNITARY when it comes back to a node it visited, at
    most |base| + 1 steps on.  f is the predecessor table that
    :func:`check_joint_isometry` leaves on the pair, and one pass
    decides and memoises every base node.

    The guards run once, at entry: a pair that does not theta-commute,
    or is not jointly isometric, raises ContractViolation with the
    first failure of its report, and x must be canonical.  On a pair
    already checked, the pair's guard reads its kept joint report, and x
    takes one inline check.
    """
    _require_jointly_isometric(pp)
    _require_canonical(pp, x)
    return _s_verdict(pp, x.node)


def t_membership(pp: PairPresentation, x: PairElem) -> Part:
    """Wold verdict of the T-family: the mirror pair's S-verdict.

    The mirror pair keeps every node, so this is decided at ``x.node``
    as in :func:`s_membership`.  The guards are the pair's own, so a
    refusal is named in the pair's families.
    """
    _require_jointly_isometric(pp)
    _require_canonical(pp, x)
    return _s_verdict(mirror(pp), x.node)


def _s_cycle(pp: PairPresentation, x: PairElem) -> bool:
    # s_in_V without the guards: pp is jointly isometric, x canonical
    if x.s_prefix:
        # the strip step shortens the S-prefix, so the chain can never
        # come back to x
        return False
    memo = pp._cache.setdefault("s_cycle", {})
    if x in memo:
        return memo[x]
    preds = _base_preds(pp)
    trail: list[PairElem] = []
    position: dict[PairElem, int] = {}
    cur = x
    for _ in range(DEFAULT_CHAIN_BUDGET):
        if cur in position:
            k = position[cur]
            memo.update(dict.fromkeys(trail[:k], False))
            memo.update(dict.fromkeys(trail[k:], True))
            return memo[x]
        # forward applications never lengthen the T-prefix, so backward
        # chains have non-decreasing T-length; once it outgrows x's, no
        # gathered state can ever recur.  At a DEAD node the chain ends.
        if len(cur.t_prefix) > len(x.t_prefix) or preds[cur.node] is None:
            memo.update(dict.fromkeys(trail, False))
            return False
        position[cur] = len(trail)
        trail.append(cur)
        cur = _s_pred_raw(pp, cur)[1]
    raise ResourceExceeded(
        f"S-cycle test from {x!r} undecided after "
        f"{DEFAULT_CHAIN_BUDGET} steps")


def s_in_V(pp: PairPresentation, x: PairElem) -> bool:
    """Is x on a finite S-cycle (equal to some S_w x with w nonempty)?

    These elements span the finite slices the structure projection
    keeps; everything else either dies or merely feeds a cycle.
    Guarded once at entry, like :func:`s_membership`.  The chain is
    walked element by element, and can be exponentially long, so past
    ``DEFAULT_CHAIN_BUDGET`` steps the test raises ResourceExceeded.
    """
    _require_jointly_isometric(pp)
    _require_canonical(pp, x)
    return _s_cycle(pp, x)


def t_in_V(pp: PairPresentation, x: PairElem) -> bool:
    """Is x on a finite T-cycle?  :func:`s_in_V` for the T-family.

    The strip step shortens the T-prefix, so an element with T-letters
    is on no T-cycle.  A pure-S element ``S_s e_b`` is the pure-T
    element ``T_s e_b`` of the mirror pair.
    """
    _require_jointly_isometric(pp)
    _require_canonical(pp, x)
    if x.t_prefix:
        return False
    return _s_cycle(mirror(pp), PairElem(x.s_prefix, (), x.node))


# ------------------------------------------------------------- multiplicity

class Multiplicity(_Record):
    """Shift multiplicity: an exact count, or countably infinite.

    ``count`` is None exactly when infinite; ``generators`` lists one
    row per wandering base node: (node, labels of the T-family missing
    there).  Each missing label spawns an infinite family of wandering
    vectors over that node, which is the only way infinity arises.
    """

    count: Optional[int]
    generators: tuple

    @property
    def is_finite(self) -> bool:
        return self.count is not None

    def __repr__(self) -> str:
        shown = self.count if self.is_finite else "infinite"
        return f"Multiplicity({shown})"


def s_shift_multiplicity(pp: PairPresentation) -> Multiplicity:
    """Multiplicity of the S-shift part over the joint basis."""
    pp.require_commuting()
    rows = []
    infinite = False
    for b in pp.base:
        if b not in dead_nodes(pp):
            continue
        missing = tuple(j for j in range(1, pp.n + 1)
                        if (b, j) not in pp.t_edges)
        rows.append((b, missing))
        if missing:
            infinite = True
    return Multiplicity(None if infinite else len(rows), tuple(rows))


def t_shift_multiplicity(pp: PairPresentation) -> Multiplicity:
    return s_shift_multiplicity(mirror(pp))


# ------------------------------------------------------------- decomposition

class FailureWitness(_Record):
    """Which closure condition failed, at which element."""

    condition: str
    element: PairElem
    detail: str


class SlocinskiResult(_Record):
    """Existence verdict and the four corners, as subspace descriptions.

    Each corner is a node set: the base nodes whose S- and T-verdicts
    match the corner.  When ``exists`` is true the corners are jointly
    reducing, so membership is determined by the node.  When it is
    false the node sets still record the per-node verdict intersection,
    but no partition claim is made and ``failure_witness`` explains
    why.
    """

    exists: bool
    H_uu: SubspaceDesc
    H_us: SubspaceDesc
    H_su: SubspaceDesc
    H_ss: SubspaceDesc
    failure_witness: Optional[FailureWitness]


def _condition_one(pp: PairPresentation) -> Optional[FailureWitness]:
    # the S-unitary part must be closed under every T_j^*; closure under
    # T_j always holds (see slocinski).  pp theta-commutes, so the
    # kernel runs unguarded
    for b in pp.base:
        if _s_verdict(pp, b) is not Part.UNITARY:
            continue
        x = PairElem((), (), b)
        step = _t_pred_raw(pp, x)
        if (step is not None
                and _s_verdict(pp, step[1].node) is not Part.UNITARY):
            return FailureWitness(
                "unitary-part-of-S-closed-under-T-adjoint", x,
                f"its T-predecessor {step[1]!r} is S-shift")
    return None


def _condition_two(pp: PairPresentation) -> Optional[FailureWitness]:
    # the T-unitary part of the S-shift part must be closed under every
    # S_i^*: staying S-shift is automatic (chains factor through the
    # original element), the T-verdict is the live question; closure
    # under S_i always holds (see slocinski)
    twin = mirror(pp)
    for b in pp.base:
        if (_s_verdict(pp, b) is not Part.SHIFT
                or _s_verdict(twin, b) is not Part.UNITARY):
            continue
        x = PairElem((), (), b)
        step = _s_pred_raw(pp, x)
        if (step is not None
                and _s_verdict(twin, step[1].node) is not Part.UNITARY):
            return FailureWitness(
                "T-unitary-part-of-S-shift-closed-under-S-adjoint", x,
                f"its S-predecessor {step[1]!r} is T-shift")
    return None


def _corner_descs(pp: PairPresentation) -> dict:
    corners = {"uu": [], "us": [], "su": [], "ss": []}
    twin = mirror(pp)
    for b in pp.base:
        s_u = _s_verdict(pp, b) is Part.UNITARY
        t_u = _s_verdict(twin, b) is Part.UNITARY
        key = ("u" if s_u else "s") + ("u" if t_u else "s")
        corners[key].append(b)
    return {key: SubspaceDesc(tuple(PairElem((), (), b) for b in nodes),
                              frozenset(nodes), pp)
            for key, nodes in corners.items()}


def slocinski(pp: PairPresentation, order: str = "st") -> SlocinskiResult:
    """Decide and assemble the four-fold decomposition.

    A reducing subspace is closed under the operators and their
    adjoints.  On a jointly isometric theta-commuting pair the closure
    under the operators always holds:

    - Condition one: the S-unitary part is T-invariant.  An S-unitary
      x has backward S-chains of every length k, ``x = S_w y`` with
      ``|w| = k``, and ``T_j S_w = S_w' T_j'`` with ``|w'| = |w|``, so
      ``T_j x = S_w' T_j' y`` has them too.  Predecessors are unique,
      so its one backward S-chain never ends.
    - Condition two: by the mirror of that argument the T-unitary part
      is S-invariant, and an S-step keeps the S-shift part (the S-chain
      of ``S_i z`` runs through z).

    So only the adjoint halves are decided, exactly on the |base| base
    vectors ``e_b``, condition one at every b and then condition two;
    the first failure is the witness.  A sweep of every element to any
    depth, checking both halves, meets the base vectors first, at depth
    0 in base order, and returns the same witness, because the forward
    halves never fail and an adjoint failure at an element at node b
    implies one at ``e_b``:

    - Verdicts depend on the node alone.
    - An element carrying letters of the family whose adjoint is taken
      keeps its node when the outer one is stripped (for condition two,
      read it in S-outside form ``S_u T_w e_b`` with u non-empty).
    - Any other element is ``S_s e_b`` (condition one) or ``T_w e_b``
      (condition two), and its predecessor sits at a node that depends
      only on b.

    The matrix oracle re-verifies the claimed corners independently.

    ``order`` picks which family's Wold decomposition is taken first;
    "ts" runs the criterion with the roles swapped (the two orders may
    genuinely disagree about the middle corners), and a base vector is
    its own name in the mirror pair.

    A pair that is not jointly isometric is refused in either order,
    with the pair's joint report, as in :func:`s_membership`.
    """
    if order not in ("st", "ts"):
        raise ValidationError(f"order must be 'st' or 'ts', got {order!r}")
    _require_jointly_isometric(pp)
    first = mirror(pp) if order == "ts" else pp
    witness = _condition_one(first) or _condition_two(first)
    if witness is not None and order == "ts":
        witness = FailureWitness("mirror:" + witness.condition,
                                 witness.element, witness.detail)
    corners = _corner_descs(pp)
    return SlocinskiResult(
        exists=witness is None,
        H_uu=corners["uu"], H_us=corners["us"],
        H_su=corners["su"], H_ss=corners["ss"],
        failure_witness=witness)


# ----------------------------------------------------------------- theorems

class HypothesisReport(_Record):
    """Hypotheses of the sufficient-condition theorems, each certified.

    Flags are sound, not complete: True is only reported when the
    property is certified, so a False may mean "could not certify".
    Each flag is computed independently of the decomposition.
    """

    doubly_commuting: bool
    s_unitary_singular: bool
    t_unitary_singular: bool
    s_shift_finite_multiplicity: bool
    n_at_least_2_or_theta_identity: bool


def _certified_unitary_empty(pp: PairPresentation) -> bool:
    # acyclic live SUCC digraph: every chain must eventually reach a
    # dead node, so the S-unitary part is empty
    return _node_data(pp)["live_succ_acyclic"]


def _single_label_drift_singular(pp: PairPresentation) -> bool:
    """m = n = 1: is every live S-chain eventually periodic?

    Pure-T states are (length, node) pairs.  For large lengths the
    step map is affine per node: un-absorb k(b) letters to reach the
    S-in-edge, then re-absorb along the forward t-chain from its source
    until the first missing edge, F(b) letters away.  An aperiodic live
    chain exists iff the large-length node map has a cycle with
    positive total drift sum(k - F); cycles through nodes whose forward
    t-chain loops (F infinite) reset the length to zero and stay tame.
    """
    data = _node_data(pp)
    step: dict = {}
    drift: dict = {}
    for b in pp.base:
        if b in data["dead"]:
            continue
        walk = data["walks"][b]
        k = next(idx for idx, c in enumerate(walk) if c in pp.s_in)
        src = pp.s_in[walk[k]][0]
        # forward 1-label t-chain from src: length to first missing edge
        cur = src
        f = 0
        seen = {cur}
        endnode = None
        while True:
            nxt = pp.t_edges.get((cur, 1))
            if nxt is None:
                endnode = cur
                break
            f += 1
            cur = nxt
            if cur in seen:
                break  # forward loop: lengths reset, never pumps
            seen.add(cur)
        if endnode is None:
            continue
        step[b] = endnode
        drift[b] = k - f
    end = _orbit_ends(step, step.get)
    summed: set = set()
    for b in step:
        if end[b] != b or b in summed:
            continue
        # b is a cycle node: sum the drift once around its cycle
        total, cur = 0, b
        while cur not in summed:
            summed.add(cur)
            total += drift[cur]
            cur = step[cur]
        if total > 0:
            return False
    return True


def _unitary_part_singular(pp: PairPresentation) -> bool:
    if _certified_unitary_empty(pp):
        return True
    if pp.m >= 2:
        # a nonempty unitary part branches freely off its cycles, which
        # is dilation type, never singular
        return False
    if not pp.t_edges:
        # chains transform the T-word bijectively without changing its
        # length, so every live chain revisits a full state: periodic
        return True
    if pp.n == 1:
        return _single_label_drift_singular(pp)
    return False  # single S-label, several T-labels: not certified


def check_hypotheses(pp: PairPresentation) -> HypothesisReport:
    """Evaluate each sufficient-condition hypothesis independently."""
    pp.require_commuting()
    return HypothesisReport(
        doubly_commuting=check_doubly_commute(pp).ok,
        s_unitary_singular=_unitary_part_singular(pp),
        t_unitary_singular=_unitary_part_singular(mirror(pp)),
        s_shift_finite_multiplicity=s_shift_multiplicity(pp).is_finite,
        n_at_least_2_or_theta_identity=(pp.n >= 2
                                        or pp.theta.is_identity),
    )


class ImplicationRow(_Record):
    name: str
    hypotheses_hold: bool
    conclusion_holds: Optional[bool]
    witness: Optional[object] = None

    @property
    def ok(self) -> bool:
        return not self.hypotheses_hold or bool(self.conclusion_holds)


class ImplicationReport(_Record):
    rows: tuple[ImplicationRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def __repr__(self) -> str:
        bad = [row.name for row in self.rows if not row.ok]
        if not bad:
            return f"ImplicationReport(ok, {len(self.rows)} rows)"
        return f"ImplicationReport(violated: {', '.join(bad)})"


def verify_theorem_implications(pp: PairPresentation) -> ImplicationReport:
    """Check every sufficient-condition theorem against this pair.

    A conditional theorem is asserted only when its hypotheses are
    certified; the zero-space row asserts that its hypotheses force an
    empty base.  Every row is decided exactly and none builds a window.
    Any violated row is a bug in either this package or the structure
    theory, never acceptable data.  The standalone lemmas are not rows;
    the one the decomposition rests on, that each unitary part is
    invariant under the other family, is proved at :func:`slocinski`.
    """
    pp.require_commuting()
    hyp = check_hypotheses(pp)
    res = slocinski(pp)
    rows = [
        ImplicationRow(
            "doubly-commuting-implies-decomposition",
            hyp.doubly_commuting, res.exists, res.failure_witness),
        ImplicationRow(
            "singular-unitary-parts-imply-decomposition",
            hyp.s_unitary_singular and hyp.t_unitary_singular,
            res.exists, res.failure_witness),
        ImplicationRow(
            "singular-S-with-finite-shift-implies-decomposition",
            (hyp.s_unitary_singular and hyp.s_shift_finite_multiplicity
             and hyp.n_at_least_2_or_theta_identity),
            res.exists, res.failure_witness),
    ]
    zero_hyp = (pp.n >= 2
                and _certified_unitary_empty(pp)
                and s_shift_multiplicity(pp).is_finite
                and not dead_nodes(mirror(pp)))
    rows.append(ImplicationRow(
        "finite-S-shift-against-T-row-unitary-forces-zero-space",
        zero_hyp, len(pp.base) == 0 if zero_hyp else None))
    return ImplicationReport(tuple(rows))
