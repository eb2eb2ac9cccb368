"""The acceptance gate: every advertised guarantee, swept at full scale.

Each test covers one guarantee over its complete stated space and ends
with a single PASS/FAIL line (visible under ``pytest -s``).  The scan
spaces, depths and runtime ceilings are load-bearing; do not shrink
them to make a run faster.
"""

import itertools
import sys
import time

import pytest

from rowiso.lebesgue import UnitaryKind, classify_unitary, sing_membership_test
from rowiso.oracle import materialize, verify_subspace
from rowiso.pair import check_doubly_commute
from rowiso.presentation import Presentation, apply, enumerate, free_presentation, pred, validate
from rowiso.search import _edge_maps, run_fault_injection
from rowiso.slocinski import check_hypotheses, slocinski
from rowiso.wold import SubspaceDesc, wold
from rowiso.words import Theta, normalize, theta_ext

from test_slocinski import lemma_violations


def _verdict(num, slug, violations, elapsed=None, budget=None):
    ok = not violations and (budget is None or elapsed < budget)
    line = f"criterion {num} [{slug}]: {'PASS' if ok else 'FAIL'}"
    if elapsed is not None:
        line += f" ({elapsed:.1f}s)"
    print(line)
    sys.stdout.flush()
    detail = "; ".join(str(v) for v in violations[:3])
    assert not violations, f"{line} first violations: {detail}"
    if budget is not None:
        assert elapsed < budget, f"{line} exceeded {budget}s"


@pytest.fixture(scope="module")
def singles():
    out = []
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            nodes = tuple("abc"[:k])
            for edges in _edge_maps(nodes, m):
                out.append(Presentation(m, nodes, edges))
    assert len(out) == 1091
    return out


# the pair criteria take ``pair_space``, the 11,465-candidate pair space,
# from conftest.py, where test_slocinski.py shares it


def test_c1_wold_verified_exhaustively(singles):
    start = time.monotonic()
    violations = []
    for p in singles:
        res = wold(p)
        model = materialize(p, 4)
        unit = verify_subspace(model, res.unitary_part,
                               ("S-reducing", "unitary-on"))
        shift = verify_subspace(model, res.shift_part,
                                ("S-reducing", "shift-on"))
        wandering = verify_subspace(model, SubspaceDesc(res.wandering),
                                    ("wandering",))
        if not unit.ok:
            violations.append((p.to_dict(), unit.rows[0]))
            continue
        if not shift.ok:
            violations.append((p.to_dict(), shift.rows[0]))
            continue
        if not wandering.ok:
            violations.append((p.to_dict(), wandering.rows[0]))
            continue
        for x in enumerate(p, 4):
            hits = res.unitary_part.contains(x) + res.shift_part.contains(x)
            if hits != 1:
                violations.append((p.to_dict(), f"not a partition at {x!r}"))
                break
    _verdict(1, "wold-exhaustive", violations,
             time.monotonic() - start, 120)


def test_c2_left_regular_benchmark():
    violations = []
    for m in (1, 2, 3):
        res = wold(free_presentation(m))
        if not res.unitary_part.is_empty:
            violations.append(f"m={m}: unitary part not empty")
        if res.multiplicity != 1:
            violations.append(f"m={m}: multiplicity {res.multiplicity}")
    _verdict(2, "left-regular", violations)


def test_c3_unitary_classification(singles):
    start = time.monotonic()
    violations = []
    for p in singles:
        res = classify_unitary(p)
        escape_bound = len(p.base) + 1
        for x in enumerate(p, 4):
            if res.PH.contains(x):
                step = pred(p, x)
                if step is not None and not res.PH.contains(step[1]):
                    violations.append((p.to_dict(),
                                       f"PH not pred-closed at {x!r}"))
                    break
        for comp in res.components:
            if comp.kind is not UnitaryKind.DILATION_TYPE:
                continue
            frontier = list(comp.V.seeds)
            escaped = False
            for _ in range(escape_bound):
                nxt = []
                for v in frontier:
                    for i in range(1, p.m + 1):
                        y = apply(p, i, v)
                        if not res.PH.contains(y):
                            escaped = True
                        else:
                            nxt.append(y)
                if escaped:
                    break
                frontier = nxt
            if not escaped:
                violations.append((p.to_dict(),
                                   f"V never escapes: {comp.cycle}"))
        for x in enumerate(p, 3):
            if res.PH.contains(x):
                got = sing_membership_test(p, x, escape_bound)
                if got != res.H_sing.contains(x):
                    violations.append((p.to_dict(),
                                       f"singular test splits at {x!r}"))
                    break
    _verdict(3, "unitary-classification", violations,
             time.monotonic() - start)


def test_c4_doubly_commuting_theorem(pair_space):
    start = time.monotonic()
    corner_claims = {
        "H_uu": ("unitary-on", "unitary-on"),
        "H_us": ("unitary-on", "shift-on"),
        "H_su": ("shift-on", "unitary-on"),
        "H_ss": ("shift-on", "shift-on"),
    }
    violations = []
    checked = 0
    for pp, commuting, injective in pair_space:
        if not injective:
            continue
        if not check_doubly_commute(pp, len(pp.base) + 2).ok:
            continue
        checked += 1
        res = slocinski(pp)
        if not res.exists:
            violations.append((pp.to_dict(), res.failure_witness))
            continue
        model = materialize(pp, 4)
        for name, (s_claim, t_claim) in corner_claims.items():
            part = getattr(res, name)
            rep_s = verify_subspace(
                model, part, ("S-reducing", "T-reducing", s_claim),
                family="s")
            rep_t = verify_subspace(model, part, (t_claim,), family="t")
            if not (rep_s.ok and rep_t.ok):
                violations.append((pp.to_dict(), name,
                                   (rep_s.rows + rep_t.rows)[0]))
                break
    assert checked > 1000  # the filter must not silently collapse
    _verdict(4, "doubly-commuting-theorem", violations,
             time.monotonic() - start, 600)


def test_c5_lemma_suite(pair_space):
    violations = []
    for pp, commuting, injective in pair_space:
        if injective:
            violations += lemma_violations(pp, 3)
    _verdict(5, "lemma-suite", violations)


def test_c6_singular_hypothesis_theorems(pair_space):
    violations = []
    both_singular = finite_mult = 0
    for pp, commuting, injective in pair_space:
        if not injective:
            continue
        hyp = check_hypotheses(pp)
        twin = hyp.s_unitary_singular and hyp.t_unitary_singular
        fin = (hyp.s_unitary_singular and hyp.s_shift_finite_multiplicity
               and hyp.n_at_least_2_or_theta_identity)
        both_singular += twin
        finite_mult += fin
        if (twin or fin) and not slocinski(pp).exists:
            violations.append(pp.to_dict())
    # the hypotheses must actually fire on a healthy slice of the space
    assert both_singular > 100 and finite_mult > 10
    _verdict(6, "singular-hypotheses", violations)


def test_c7_rewriting_soundness():
    start = time.monotonic()
    rng_seeds = itertools.count(29)
    violations = []
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            grid = [(i, j) for i in range(1, m + 1)
                    for j in range(1, n + 1)]
            if len(grid) <= 4:
                thetas = [Theta(m, n, dict(zip(grid, perm)))
                          for perm in itertools.permutations(grid)]
            else:
                # the full twist group is unreachable here; identity
                # plus seeded shuffles keeps the sweep honest
                import random
                thetas = [Theta.identity(m, n)]
                for _ in range(3):
                    rng = random.Random(next(rng_seeds))
                    perm = grid[:]
                    rng.shuffle(perm)
                    thetas.append(Theta(m, n, dict(zip(perm, grid))))
            letters = ([("s", i) for i in range(1, m + 1)]
                       + [("t", j) for j in range(1, n + 1)])
            for theta in thetas:
                for length in range(0, 7):
                    for word in itertools.product(letters, repeat=length):
                        nf = normalize(theta, word)
                        for k in range(length - 1):
                            (f1, a), (f2, b) = word[k], word[k + 1]
                            if f1 != "s" or f2 != "t":
                                continue
                            i2, j2 = theta.map[(a, b)]
                            flipped = (word[:k] + (("t", j2), ("s", i2))
                                       + word[k + 2:])
                            if normalize(theta, flipped) != nf:
                                violations.append(
                                    (m, n, theta.to_quadruples(), word))
                for k in (1, 2, 3):
                    for l in (1, 2, 3):
                        table = theta_ext(theta, k, l)
                        if sorted(table) != sorted(table.values()):
                            violations.append(
                                (m, n, theta.to_quadruples(), k, l,
                                 "not a bijection"))
    _verdict(7, "rewriting-soundness", violations,
             time.monotonic() - start, 60)


def test_c8_fault_injection():
    results = run_fault_injection()
    violations = [name for name, caught in results.items() if not caught]
    # the first corruption must also fall to plain validation
    dup = Presentation(1, ("a", "b", "c"), {("a", 1): "c", ("b", 1): "c"})
    if validate(dup).ok:
        violations.append("validate missed a duplicated in-edge")
    _verdict(8, "fault-injection", violations)
