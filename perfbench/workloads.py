"""The four workloads: seeded plain-data inputs and the item bodies.

Inputs are generated from the seed as plain Python data (tuples of
node names, edge triples and twist quadruples) without calling rowiso.
Every ``Presentation`` and ``PairPresentation`` is built inside the
item body, so the per-object caches of one pass never reach the next.

An item body returns its verdict as a dict of plain fields; the
golden record holds the same fields for every item of the workload's
universe (see ``golden.py``).

Why each workload exists, in short (the note next to this file has the
long form):

- ``pairs-small``: a stratified sample of the 11,465-candidate
  acceptance pair space plus 3x3 twists of the free one-node pair.
  Per-pair fixed costs dominate: construction, the guards re-run on
  every call, the doubly-commute check that ``check_hypotheses`` runs
  again.
- ``pairs-wide``: few large pairs, the window depth |base|+2 makes the
  cost exponential in |base|; the oracle is a small share.
- ``singles``: single-family presentations through the c1 and c3
  bodies; no pair code runs, and the scipy-sparse oracle dominates.
- ``cli``: ``python -m rowiso.cli`` subprocesses on fixed documents;
  interpreter start and ``import rowiso`` dominate.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple, Optional

from cli_items import cli_items

WORKLOADS = ("pairs-small", "pairs-wide", "singles", "cli")

# items per pass of pairs-small: acceptance candidates and 3x3 twists
PAIRS_SMALL_CANDIDATES = 150
PAIRS_SMALL_TWISTS = 300
# the cli items the self-test keeps
SMALL_CLI = ("cli-validate-two-cycle", "cli-validate-invalid")


# --------------------------------------------------------------- plain data

def edge_maps(nodes: tuple, labels: int):
    """Every edge map with global in-degree at most one, as triples."""
    slots = [(node, lab) for node in nodes for lab in range(1, labels + 1)]
    options = (None,) + tuple(nodes)
    for combo in itertools.product(options, repeat=len(slots)):
        targets = [t for t in combo if t is not None]
        if len(targets) != len(set(targets)):
            continue
        yield tuple((src, lab, dst) for (src, lab), dst in zip(slots, combo)
                    if dst is not None)


def twists(m: int, n: int):
    """Every bijective twist of [m] x [n], as sorted quadruples."""
    grid = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    for perm in itertools.permutations(grid):
        yield tuple((i, j, i2, j2) for (i, j), (i2, j2) in zip(grid, perm))


def identity_twist(m: int, n: int) -> tuple:
    return tuple((i, j, i, j) for i in range(1, m + 1)
                 for j in range(1, n + 1))


def pair_space() -> list:
    """The acceptance pair space, in the order the acceptance suite
    builds it: |base| <= 2, m, n <= 2, every twist.  Each entry is
    ``(m, n, theta, nodes, s_edges, t_edges)``."""
    out = []
    for m in (1, 2):
        for n in (1, 2):
            thetas = list(twists(m, n))
            for k in (1, 2):
                nodes = tuple("ab"[:k])
                smaps = list(edge_maps(nodes, m))
                tmaps = list(edge_maps(nodes, n))
                for theta in thetas:
                    for se in smaps:
                        for te in tmaps:
                            out.append((m, n, theta, nodes, se, te))
    return out


def single_space() -> list:
    """The 1,091 single-family presentations with m, |base| <= 3."""
    out = []
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            nodes = tuple("abc"[:k])
            for edges in edge_maps(nodes, m):
                out.append((m, nodes, edges))
    return out


def wide_ladder() -> list:
    """Edge-free pairs with the identity twist: 2x2 at |base| 1..4 and
    3x3 at |base| 1..2."""
    out = []
    for m, top in ((2, 4), (3, 2)):
        for k in range(1, top + 1):
            nodes = tuple(f"b{q}" for q in range(k))
            out.append((f"ladder-{m}x{m}-b{k}",
                        (m, m, identity_twist(m, m), nodes, (), ())))
    return out


POOL_SEED = 20220307
# (|base|, m, n) cells of the random pairs; 2x2 at |base| 4 is left to
# the ladder, because a random pair there costs 2-6 s against 0.01-1 s
# in the other cells
POOL_CELLS = tuple((k, m, n) for k in (3, 4) for m in (1, 2) for n in (1, 2)
                   if (k, m, n) != (4, 2, 2))


def wide_pool() -> list:
    """Random pairs at |base| 3-4 with m, n in {1, 2}, drawn once.

    One pair per cell has a random S-family and an edge-free T-family,
    which makes it commute and pass the joint-isometry filter whatever
    the S-edges; two more draw both families and a twist at random, and
    show the filters rejecting.  The draw is fixed so that every run
    does the same work; runs vary the names and order of the nodes.
    """
    rng = random.Random(POOL_SEED)
    out = []
    cells = [(cell, False) for cell in POOL_CELLS]
    cells += [((3, 2, 2), True), ((4, 2, 1), True)]
    for (k, m, n), both in cells:
        nodes = tuple(f"b{r}" for r in range(k))
        theta = rng.choice(list(twists(m, n)))
        se = _random_edges(rng, nodes, m)
        te = _random_edges(rng, nodes, n) if both else ()
        name = f"pool-{k}-{m}x{n}-{'st' if both else 's'}"
        out.append((name, (m, n, theta, nodes, se, te)))
    return out


def relabel(rng: random.Random, data) -> tuple:
    """The same pair under seeded node names and base order.

    Every verdict field the benchmark checks is invariant under this
    renaming, and so is the work the deciders do.
    """
    m, n, theta, nodes, se, te = data
    names = {b: f"v{x}" for b, x in zip(nodes, rng.sample(range(100),
                                                          len(nodes)))}
    order = [names[b] for b in nodes]
    rng.shuffle(order)
    return (m, n, theta, tuple(order),
            tuple((names[s], lab, names[d]) for s, lab, d in se),
            tuple((names[s], lab, names[d]) for s, lab, d in te))


def _random_edges(rng: random.Random, nodes: tuple, labels: int) -> tuple:
    slots = [(node, lab) for node in nodes for lab in range(1, labels + 1)]
    free = list(nodes)
    rng.shuffle(free)
    edges = []
    for src, lab in slots:
        if free and rng.random() < 0.5:
            edges.append((src, lab, free.pop()))
    return tuple(edges)


# ----------------------------------------------------------------- sampling

def stratified(rng: random.Random, keys_by_stratum: dict, total: int) -> list:
    """Draw ``total`` keys, each stratum in proportion to its size.

    Largest-remainder rounding keeps the per-stratum counts, and so the
    work mix, identical for every seed; only which members are drawn
    changes.
    """
    size = sum(len(v) for v in keys_by_stratum.values())
    quotas = {s: total * len(v) / size for s, v in keys_by_stratum.items()}
    counts = {s: int(q) for s, q in quotas.items()}
    short = total - sum(counts.values())
    by_remainder = sorted(quotas, key=lambda s: (counts[s] - quotas[s], s))
    for s in by_remainder[:short]:
        counts[s] += 1
    out = []
    for s in sorted(keys_by_stratum):
        out.extend(rng.sample(keys_by_stratum[s], counts[s]))
    return out


# ------------------------------------------------------------------- inputs

class Item(NamedTuple):
    """One unit of work: a golden key, a body and its plain-data input.

    ``run`` is None for cli items, which run as subprocesses.
    """

    key: str
    run: Optional[Callable]
    data: object


def _verdict_class(rec: dict) -> str:
    if not rec.get("commuting"):
        return "0-noncommuting"
    if not rec.get("injective"):
        return "1-not-injective"
    if not rec.get("doubly"):
        return "2-not-doubly"
    return "3-doubly"


def build_items(workload: str, seed: int, golden: dict,
                scale: float = 1.0) -> list:
    """The seeded item list of one pass, in run order.

    ``scale`` shrinks the sample for the benchmark's self-test; runs use
    the full size.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pairs-small":
        space = pair_space()
        # stratum: the pair's shape and how far its golden verdict gets
        # through the filters, which sets how much of the body runs
        strata: dict = {}
        for q, data in enumerate(space):
            key = (data[0], data[1], len(data[3]),
                   _verdict_class(golden[f"cand-{q}"]))
            strata.setdefault(key, []).append(q)
        picks = stratified(rng, strata,
                           max(8, int(PAIRS_SMALL_CANDIDATES * scale)))
        items = [Item(f"cand-{q}", pair_candidate, space[q]) for q in picks]
        grid = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        for _ in range(max(4, int(PAIRS_SMALL_TWISTS * scale))):
            perm = rng.sample(grid, len(grid))
            theta = tuple((i, j, i2, j2)
                          for (i, j), (i2, j2) in zip(grid, perm))
            items.append(Item("twist", twist_item, theta))
    elif workload == "pairs-wide":
        pairs = wide_ladder() + wide_pool()
        if scale < 1.0:
            pairs = pairs[:2] + pairs[-2:]
        items = [Item(f"wide-{name}", wide_pair, relabel(rng, data))
                 for name, data in pairs]
    elif workload == "singles":
        # every third presentation of the enumeration, from a seeded
        # offset: neighbours in the enumeration cost alike, so the
        # three thirds agree within 1% in total and in median item time
        space = single_space()
        items = [Item(f"single-{q}", single_item, space[q])
                 for q in range(seed % 3, len(space), 3)]
        if scale < 1.0:
            items = items[:max(9, int(len(items) * scale))]
    elif workload == "cli":
        items = [Item(key, None, data) for key, data in cli_items()]
        if scale < 1.0:
            items = [it for it in items if it.key in SMALL_CLI]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def warmup_item(workload: str) -> Item:
    """A small item that touches every code path of the workload, run
    before timing so that lazily loaded modules count in set-up."""
    if workload == "pairs-small":
        return Item("cand-0", pair_candidate, pair_space()[0])
    if workload == "pairs-wide":
        name, data = wide_ladder()[0]
        return Item(f"wide-{name}", wide_pair, data)
    if workload == "singles":
        return Item("single-0", single_item, single_space()[0])
    return next(Item(key, None, data) for key, data in cli_items()
                if key == "cli-validate-two-cycle")


# ------------------------------------------------------------------- bodies

def _build_pair(L, data):
    m, n, quads, nodes, se, te = data
    theta = L.words.Theta(m, n, {(i, j): (i2, j2) for i, j, i2, j2 in quads})
    return L.pair.PairPresentation(
        theta, nodes, {(s, lab): d for s, lab, d in se},
        {(s, lab): d for s, lab, d in te})


def _mult(mult):
    return mult.count if mult.is_finite else "infinite"


def _hyp_fields(hyp) -> dict:
    return {"doubly_commuting": hyp.doubly_commuting,
            "s_unitary_singular": hyp.s_unitary_singular,
            "t_unitary_singular": hyp.t_unitary_singular,
            "s_shift_finite_multiplicity": hyp.s_shift_finite_multiplicity,
            "n_at_least_2_or_theta_identity":
                hyp.n_at_least_2_or_theta_identity}


_CORNER_CLAIMS = (
    ("H_uu", "unitary-on", "unitary-on"),
    ("H_us", "unitary-on", "shift-on"),
    ("H_su", "shift-on", "unitary-on"),
    ("H_ss", "shift-on", "shift-on"),
)


def pair_candidate(L, data) -> dict:
    """The c4/c5/c6 bodies of the acceptance suite on one candidate."""
    pp = _build_pair(L, data)
    out = {"commuting": L.pair.check_theta_commute(pp).ok}
    out["injective"] = (out["commuting"]
                        and L.pair.check_joint_isometry(pp).ok)
    if not out["injective"]:
        return out
    out["doubly"] = L.pair.check_doubly_commute(pp, len(pp.base) + 2).ok
    res = L.slocinski.slocinski(pp)
    out["exists"] = res.exists
    out["witness"] = (res.failure_witness.condition
                      if res.failure_witness else None)
    out["hypotheses"] = _hyp_fields(L.slocinski.check_hypotheses(pp))
    out["lemma_violations"] = _lemma_loop(L, pp)
    if out["doubly"] and res.exists:
        model = L.oracle.materialize(pp, 4)
        ok = True
        for name, s_claim, t_claim in _CORNER_CLAIMS:
            part = getattr(res, name)
            rep_s = L.oracle.verify_subspace(
                model, part, ("S-reducing", "T-reducing", s_claim),
                family="s")
            rep_t = L.oracle.verify_subspace(model, part, (t_claim,),
                                             family="t")
            ok = ok and rep_s.ok and rep_t.ok
        out["oracle_ok"] = ok
        out["basis"] = len(model.basis)
    return out


def _lemma_loop(L, pp) -> int:
    # the c5 lemma suite on one injective pair; returns the violations.
    # Wold verdicts are str enums, so they compare equal to their values
    violations = 0
    elems = L.pair.enumerate_pair(pp, 3)
    for x in elems:
        if L.slocinski.s_membership(pp, x) == "unitary":
            for j in range(1, pp.n + 1):
                y = L.pair.t_apply(pp, j, x)
                if L.slocinski.s_membership(pp, y) != "unitary":
                    violations += 1
                    break
    if pp.m >= 2:
        for x in elems:
            if L.slocinski.s_in_V(pp, x):
                step = L.pair.t_pred(pp, x)
                if step is not None and not L.slocinski.s_in_V(pp, step[1]):
                    violations += 1
                    break
    if pp.base and pp.n >= 2:
        all_shift = all(
            L.slocinski.s_membership(pp, L.pair.PairElem((), (), b))
            == "shift" for b in pp.base)
        if (all_shift and L.slocinski.s_shift_multiplicity(pp).is_finite
                and not L.slocinski.dead_nodes(L.pair.mirror(pp))):
            violations += 1
    return violations


def twist_item(L, quads) -> dict:
    """One 3x3 twist of the free one-node pair: the 9! sweep's body."""
    pp = _build_pair(L, (3, 3, quads, ("b",), (), ()))
    return {"commuting": L.pair.check_theta_commute(pp).ok}


def wide_pair(L, data) -> dict:
    """What ``rowiso slocinski``, ``check-doubly`` and ``oracle`` do, as
    library calls."""
    pp = _build_pair(L, data)
    out = {"commuting": L.pair.check_theta_commute(pp).ok}
    out["injective"] = (out["commuting"]
                        and L.pair.check_joint_isometry(pp).ok)
    if not out["injective"]:
        return out
    out["doubly"] = L.pair.check_doubly_commute(pp).ok
    res = L.slocinski.slocinski(pp)
    out["exists"] = res.exists
    out["witness"] = (res.failure_witness.condition
                      if res.failure_witness else None)
    out["hypotheses"] = _hyp_fields(L.slocinski.check_hypotheses(pp))
    out["s_multiplicity"] = _mult(L.slocinski.s_shift_multiplicity(pp))
    out["t_multiplicity"] = _mult(L.slocinski.t_shift_multiplicity(pp))
    model = L.oracle.materialize(pp, max(4, len(pp.base) + 2))
    out["oracle_ok"] = L.oracle.verify_relations(model).ok
    out["basis"] = len(model.basis)
    return out


def single_item(L, data) -> dict:
    """The c1 and c3 bodies of the acceptance suite on one presentation."""
    m, nodes, edges = data
    p = L.presentation.Presentation(m, nodes,
                                    {(s, lab): d for s, lab, d in edges})
    contains = L.wold.contains
    # c1: Wold split, re-checked by the oracle, and a partition
    res = L.wold.wold(p)
    out = {"unitary_seeds": [e.node for e in res.unitary_part.seeds],
           "wandering": [e.node for e in res.wandering],
           "multiplicity": res.multiplicity}
    model = L.oracle.materialize(p, 4)
    rel = L.oracle.verify_relations(model)
    unit = L.oracle.verify_subspace(model, res.unitary_part,
                                    ("S-reducing", "unitary-on"))
    shift = L.oracle.verify_subspace(model, res.shift_part,
                                     ("S-reducing", "shift-on"))
    out["oracle_ok"] = rel.ok and unit.ok and shift.ok
    out["basis"] = len(model.basis)
    out["partition"] = all(
        contains(res.unitary_part, x) + contains(res.shift_part, x) == 1
        for x in L.presentation.enumerate(p, 4))
    # c3: cycle components, PH closure, escape, singular membership
    cls = L.lebesgue.classify_unitary(p)
    out["kinds"] = [comp.kind.value for comp in cls.components]
    closed = True
    for x in L.presentation.enumerate(p, 4):
        if contains(cls.PH, x):
            step = L.presentation.pred(p, x)
            if step is not None and not contains(cls.PH, step[1]):
                closed = False
                break
    out["ph_closed"] = closed
    escape_bound = len(p.base) + 1
    escapes = True
    for comp in cls.components:
        if comp.kind != "dilation-type":
            continue
        frontier = list(comp.V.seeds)
        escaped = False
        for _ in range(escape_bound):
            nxt = []
            for v in frontier:
                for i in range(1, p.m + 1):
                    y = L.presentation.apply(p, i, v)
                    if not contains(cls.PH, y):
                        escaped = True
                    else:
                        nxt.append(y)
            if escaped:
                break
            frontier = nxt
        escapes = escapes and escaped
    out["escapes"] = escapes
    agrees = True
    for x in L.presentation.enumerate(p, 3):
        if contains(cls.PH, x):
            got = L.lebesgue.sing_membership_test(p, x, escape_bound)
            if got != contains(cls.H_sing, x):
                agrees = False
                break
    out["sing_agrees"] = agrees
    return out
