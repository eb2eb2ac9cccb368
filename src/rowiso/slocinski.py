"""Four-fold decomposition of a commuting pair, and the theorems around it.

The decomposition exists iff (1) the unitary part of the S-family, taken
over the joint basis, is closed under the T-family and its adjoint, and
(2) the T-unitary part of what remains is closed under the S-family and
its adjoint.  Both conditions reduce to per-element questions about
backward predecessor chains, so the heart of this module is deciding,
for a single basis element, whether its S-chain (or T-chain) runs
forever.

Key structural facts the deciders rest on, all consequences of the
absorption calculus in :mod:`pair`:

- An element with S-letters always has an S-predecessor (strip the
  outermost letter of the S-outside form), so chains settle into
  pure-T states ``T_w e_b`` after finitely many steps.
- For pure-T states, existence of a predecessor depends only on the
  node: the backward un-absorption walk visits a node-determined set,
  and a predecessor exists iff some visited node has an S-in-edge.
  DEAD nodes (no such edge on the whole walk) are exactly where chains
  die.
- The successor's node lies in a node-determined over-approximation
  SUCC(b); if no DEAD node is reachable from b in the SUCC digraph, no
  chain through b can ever die ("eternal" nodes, a soundness
  certificate for unitarity).
- When the T-family has a single label, pure-T states are pairs
  (length, node) and a revisited node with strictly larger length and
  no depth-zero state in between certifies an ever-growing, hence
  eternal, chain.  This makes single-T-label verdicts exact without
  budgets.

Verdicts are exact or raise; they never guess.  Chains that outlive
their budget without triggering any certificate raise ResourceExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ResourceExceeded, ValidationError
from .pair import (PairElem, PairPresentation, _require_canonical,
                   _s_pred_raw, check_doubly_commute, enumerate_pair, mirror,
                   mirror_elem, s_apply, s_pred, t_apply, t_pred)
from .wold import Part, SubspaceDesc

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
    for b, seq in walks.items():
        targets = set()
        for c in seq:
            hit = pp.s_in.get(c)
            if hit is None:
                continue
            # the predecessor's node is somewhere in the forward
            # t-closure of the un-absorbed edge's source
            frontier = [hit[0]]
            reach = {hit[0]}
            while frontier:
                cur = frontier.pop()
                for j in range(1, pp.n + 1):
                    nxt = pp.t_edges.get((cur, j))
                    if nxt is not None and nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
            targets |= reach
        succ[b] = frozenset(targets)
    # nodes that can reach a dead node in the SUCC digraph
    doomed = set(dead)
    changed = True
    while changed:
        changed = False
        for b in pp.base:
            if b not in doomed and succ[b] & doomed:
                doomed.add(b)
                changed = True
    eternal = frozenset(b for b in pp.base if b not in doomed)
    # acyclicity of SUCC restricted to live nodes certifies that every
    # chain eventually dies (no element is unitary for the S-family)
    alive = [b for b in pp.base if b not in dead]
    index = {b: k for k, b in enumerate(alive)}
    state = dict.fromkeys(alive, 0)
    acyclic = True

    def visit(v) -> bool:
        stack = [(v, iter(sorted(succ[v] & set(index), key=index.get)))]
        state[v] = 1
        while stack:
            cur, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == 1:
                    return False
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(sorted(succ[w] & set(index),
                                                 key=index.get))))
                    advanced = True
                    break
            if not advanced:
                state[cur] = 2
                stack.pop()
        return True

    for v in alive:
        if state[v] == 0 and not visit(v):
            acyclic = False
            break
    data = {"walks": walks, "dead": dead, "succ": succ, "eternal": eternal,
            "live_succ_acyclic": acyclic}
    cache["nodes"] = data
    return data


def dead_nodes(pp: PairPresentation) -> frozenset:
    """Base nodes at which pure-T chains have no S-predecessor."""
    return _node_data(pp)["dead"]


# ------------------------------------------------------------ chain verdicts

def _strip_s(pp: PairPresentation, x: PairElem) -> PairElem:
    # elements with S-letters always have a predecessor; each step
    # shortens the S-prefix, so this reaches a pure-T state
    while x.s_prefix:
        x = _s_pred_raw(pp, x)[1]
    return x


def s_membership(pp: PairPresentation, x: PairElem,
                 budget: int = DEFAULT_CHAIN_BUDGET) -> Part:
    """Wold verdict of the S-family at one joint basis element.

    UNITARY iff the backward S-chain never ends.  Exact: decided by
    death, an exact state revisit, the eternal-node certificate, or
    (single T-label only) the growing-revisit rule; if none of those
    fires within the budget, raises ResourceExceeded rather than guess.

    The guards run once, at entry; the chain walk uses the unguarded
    predecessor kernel.
    """
    pp.require_commuting()
    memo = pp._cache.setdefault("s_verdict", {})
    if x in memo:
        return memo[x]
    _require_canonical(pp, x)
    data = _node_data(pp)
    x = _strip_s(pp, x)
    trail: list[PairElem] = []
    seen: set[PairElem] = set()
    min_len: dict = {}
    verdict: Optional[Part] = None
    cur = x
    for _ in range(budget):
        if cur in memo:
            verdict = memo[cur]
            break
        if cur in seen:
            verdict = Part.UNITARY
            break
        if cur.node in data["eternal"]:
            verdict = Part.UNITARY
            break
        if cur.node in data["dead"]:
            verdict = Part.SHIFT
            break
        if pp.n == 1:
            length = len(cur.t_prefix)
            if length == 0:
                min_len.clear()
            else:
                best = min_len.get(cur.node)
                if best is not None and best < length:
                    verdict = Part.UNITARY  # chain grows forever
                    break
                min_len[cur.node] = length
        seen.add(cur)
        trail.append(cur)
        cur = _s_pred_raw(pp, cur)[1]
    if verdict is None:
        raise ResourceExceeded(
            f"S-chain from {x!r} undecided after {budget} steps")
    for state in trail:
        memo[state] = verdict
    memo[x] = verdict
    return verdict


def t_membership(pp: PairPresentation, x: PairElem,
                 budget: int = DEFAULT_CHAIN_BUDGET) -> Part:
    """Wold verdict of the T-family; delegates to the mirror pair."""
    return s_membership(mirror(pp), mirror_elem(pp, x), budget)


def s_in_V(pp: PairPresentation, x: PairElem,
           budget: int = DEFAULT_CHAIN_BUDGET) -> bool:
    """Is x on a finite S-cycle (equal to some S_w x with w nonempty)?

    These elements span the finite slices the structure projection
    keeps; everything else either dies or merely feeds a cycle.
    Guarded once at entry, like :func:`s_membership`.
    """
    pp.require_commuting()
    memo = pp._cache.setdefault("s_cycle", {})
    if x in memo:
        return memo[x]
    _require_canonical(pp, x)
    if x.s_prefix:
        # the strip step shortens the S-prefix, so the chain can never
        # come back to x
        memo[x] = False
        return False
    data = _node_data(pp)
    trail: list[PairElem] = []
    position: dict[PairElem, int] = {}
    cur = x
    for _ in range(budget):
        if cur in position:
            k = position[cur]
            for state in trail[:k]:
                memo[state] = False
            for state in trail[k:]:
                memo[state] = True
            return memo[x]
        # forward applications never lengthen the T-prefix, so backward
        # chains have non-decreasing T-length; once it outgrows x's, no
        # gathered state can ever recur
        if len(cur.t_prefix) > len(x.t_prefix):
            for state in trail:
                memo[state] = False
            return False
        if cur.node in data["dead"]:
            for state in trail:
                memo[state] = False
            memo[cur] = False
            return False
        position[cur] = len(trail)
        trail.append(cur)
        cur = _s_pred_raw(pp, cur)[1]
    raise ResourceExceeded(
        f"S-cycle test from {x!r} undecided after {budget} steps")


def t_in_V(pp: PairPresentation, x: PairElem,
           budget: int = DEFAULT_CHAIN_BUDGET) -> bool:
    return s_in_V(mirror(pp), mirror_elem(pp, x), budget)


# ------------------------------------------------------------- multiplicity

@dataclass(frozen=True)
class Multiplicity:
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


def joint_wandering(pp: PairPresentation) -> tuple[PairElem, ...]:
    """Base vectors wandering for both families at once.

    The doubly-shift corner of the decomposition is the free orbit of
    exactly these vectors.
    """
    pp.require_commuting()
    dead_s = dead_nodes(pp)
    dead_t = dead_nodes(mirror(pp))
    return tuple(PairElem((), (), b) for b in pp.base
                 if b in dead_s and b in dead_t)


# ------------------------------------------------------------- decomposition

@dataclass(frozen=True)
class FailureWitness:
    """Which closure condition failed, at which element."""

    condition: str
    element: PairElem
    detail: str


@dataclass(frozen=True)
class SlocinskiResult:
    """Existence verdict and the four corners, as subspace descriptions.

    When ``exists`` is true the corners are jointly reducing, so their
    membership tests are node-determined and the descriptions are
    forward closures of depth-zero seeds.  When it is false the seed
    sets still record the per-node verdict intersection, but no
    partition claim is made and ``failure_witness`` explains why.
    """

    exists: bool
    H_uu: SubspaceDesc
    H_us: SubspaceDesc
    H_su: SubspaceDesc
    H_ss: SubspaceDesc
    failure_witness: Optional[FailureWitness]


def _condition_one(pp: PairPresentation, elems) -> Optional[FailureWitness]:
    # the S-unitary part must be closed under every T_j and its adjoint
    for x in elems:
        if s_membership(pp, x) is not Part.UNITARY:
            continue
        for j in range(1, pp.n + 1):
            y = t_apply(pp, j, x)
            if s_membership(pp, y) is not Part.UNITARY:
                return FailureWitness(
                    "unitary-part-of-S-invariant-under-T", x,
                    f"T_{j} maps it to {y!r}, which is S-shift")
        step = t_pred(pp, x)
        if step is not None and s_membership(pp, step[1]) is not Part.UNITARY:
            return FailureWitness(
                "unitary-part-of-S-closed-under-T-adjoint", x,
                f"its T-predecessor {step[1]!r} is S-shift")
    return None


def _condition_two(pp: PairPresentation, elems) -> Optional[FailureWitness]:
    # the T-unitary part of the S-shift part must be closed under every
    # S_i and its adjoint; staying S-shift is automatic (chains factor
    # through the original element), the T-verdict is the live question
    for x in elems:
        if (s_membership(pp, x) is not Part.SHIFT
                or t_membership(pp, x) is not Part.UNITARY):
            continue
        for i in range(1, pp.m + 1):
            y = s_apply(pp, i, x)
            if t_membership(pp, y) is not Part.UNITARY:
                return FailureWitness(
                    "T-unitary-part-of-S-shift-invariant-under-S", x,
                    f"S_{i} maps it to {y!r}, which is T-shift")
        step = s_pred(pp, x)
        if step is not None and t_membership(pp, step[1]) is not Part.UNITARY:
            return FailureWitness(
                "T-unitary-part-of-S-shift-closed-under-S-adjoint", x,
                f"its S-predecessor {step[1]!r} is T-shift")
    return None


def _corner_descs(pp: PairPresentation) -> dict:
    corners = {"uu": [], "us": [], "su": [], "ss": []}
    for b in pp.base:
        e = PairElem((), (), b)
        s_u = s_membership(pp, e) is Part.UNITARY
        t_u = t_membership(pp, e) is Part.UNITARY
        key = ("u" if s_u else "s") + ("u" if t_u else "s")
        corners[key].append(e)
    return {key: SubspaceDesc(tuple(seeds), "forward-closure", pp)
            for key, seeds in corners.items()}


def slocinski(pp: PairPresentation, order: str = "st") -> SlocinskiResult:
    """Decide and assemble the four-fold decomposition.

    Conditions are tested over every canonical element of joint depth
    at most max(4, |base| + 2).  A violation found there is a genuine
    counterexample; a clean sweep is taken as existence, leaning on the
    node-determined structure of chains, and the matrix oracle
    re-verifies the claimed corners independently.

    ``order`` picks which family's Wold decomposition is taken first;
    "ts" runs the criterion with the roles swapped (the two orders may
    genuinely disagree about the middle corners).
    """
    if order not in ("st", "ts"):
        raise ValidationError(f"order must be 'st' or 'ts', got {order!r}")
    pp.require_commuting()
    if order == "ts":
        twin = mirror(pp)
        res = slocinski(twin, "st")
        corners = _corner_descs(pp)
        witness = res.failure_witness
        if witness is not None:
            witness = FailureWitness(
                "mirror:" + witness.condition,
                mirror_elem(twin, witness.element), witness.detail)
        return SlocinskiResult(
            exists=res.exists,
            H_uu=corners["uu"], H_us=corners["us"],
            H_su=corners["su"], H_ss=corners["ss"],
            failure_witness=witness)
    depth = max(4, len(pp.base) + 2)
    elems = enumerate_pair(pp, depth)
    witness = _condition_one(pp, elems)
    if witness is None:
        witness = _condition_two(pp, elems)
    corners = _corner_descs(pp)
    return SlocinskiResult(
        exists=witness is None,
        H_uu=corners["uu"], H_us=corners["us"],
        H_su=corners["su"], H_ss=corners["ss"],
        failure_witness=witness)


# ----------------------------------------------------------------- theorems

@dataclass(frozen=True)
class HypothesisReport:
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
    visited: set = set()
    for b in list(step):
        if b in visited:
            continue
        path = []
        index = {}
        cur = b
        while cur in step and cur not in index:
            if cur in visited:
                break
            index[cur] = len(path)
            path.append(cur)
            cur = step[cur]
        if cur in index:
            cycle = path[index[cur]:]
            if sum(drift[c] for c in cycle) > 0:
                return False
        visited.update(path)
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


@dataclass(frozen=True)
class ImplicationRow:
    name: str
    hypotheses_hold: bool
    conclusion_holds: Optional[bool]
    witness: Optional[object] = None

    @property
    def ok(self) -> bool:
        return not self.hypotheses_hold or bool(self.conclusion_holds)


@dataclass(frozen=True)
class ImplicationReport:
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
    """Check every theorem and standalone lemma against this pair.

    Conditional theorems are asserted only when their hypotheses are
    certified; the lemmas are asserted outright (on a truncation, with
    exact per-element verdicts).  Any violated row is a bug in either
    this package or the structure theory, never acceptable data.
    """
    pp.require_commuting()
    hyp = check_hypotheses(pp)
    res = slocinski(pp)
    depth = max(4, len(pp.base) + 2)
    elems = enumerate_pair(pp, depth)
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
    bad = None
    for x in elems:
        if s_membership(pp, x) is not Part.UNITARY:
            continue
        for j in range(1, pp.n + 1):
            y = t_apply(pp, j, x)
            if s_membership(pp, y) is not Part.UNITARY:
                bad = FailureWitness(
                    "S-unitary-part-T-invariance", x,
                    f"T_{j} maps it to {y!r}, which is S-shift")
                break
        if bad is not None:
            break
    rows.append(ImplicationRow(
        "S-unitary-part-always-T-invariant", True, bad is None, bad))
    if pp.m >= 2:
        bad = None
        for x in elems:
            if not s_in_V(pp, x):
                continue
            step = t_pred(pp, x)
            if step is not None and not s_in_V(pp, step[1]):
                bad = FailureWitness(
                    "structure-support-closed-under-T-adjoint", x,
                    f"T-predecessor {step[1]!r} left the cycle slice")
                break
        rows.append(ImplicationRow(
            "structure-support-closed-under-T-adjoint-when-branching",
            True, bad is None, bad))
    zero_hyp = (pp.n >= 2
                and _certified_unitary_empty(pp)
                and s_shift_multiplicity(pp).is_finite
                and not dead_nodes(mirror(pp)))
    rows.append(ImplicationRow(
        "finite-S-shift-against-T-row-unitary-forces-zero-space",
        zero_hyp, len(pp.base) == 0 if zero_hyp else None))
    return ImplicationReport(tuple(rows))
