"""The benchmark's calls into rowiso resolve and still give its verdicts.

``perfbench`` reaches rowiso only through the names in
``perfbench/layers.py`` ``CALLS``.  A refactor that renames or deletes
one of them, or changes a verdict the golden records pin, breaks the
benchmark; these tests break first.  They only read ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import golden  # noqa: E402
import workloads  # noqa: E402
from layers import Layers, Tracer  # noqa: E402


@pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
@pytest.mark.parametrize("workload", ("pairs-small", "pairs-wide", "singles"))
def test_warmup_item_matches_its_golden_record(workload, traced):
    # building the namespace resolves every name in CALLS
    L = Layers(Tracer()) if traced else Layers()
    item = workloads.warmup_item(workload)
    expected = golden.load(workload)[item.key]
    assert golden.matches(expected, item.run(L, item.data)), item.key


def test_every_pairs_wide_item_matches_its_golden_record():
    # the large pairs are where a decider change that skips work can
    # change a verdict; one seed's pass draws every one of them
    L = Layers()
    expected = golden.load("pairs-wide")
    items = workloads.build_items("pairs-wide", 3, expected)
    assert len(items) == len(expected)
    for item in items:
        assert golden.matches(expected[item.key], item.run(L, item.data)), \
            item.key


def test_every_failing_doubly_candidate_matches_its_golden_record():
    # the jointly isometric candidates that fail the doubly rule are
    # the items whose check_doubly_commute verdict is read without
    # sweeping a window; every one of them is run here
    L = Layers()
    expected = golden.load("pairs-small")
    space = workloads.pair_space()
    keys = [key for key, rec in expected.items()
            if key.startswith("cand-") and rec.get("injective")
            and not rec.get("doubly")]
    assert len(keys) == 1072
    for key in keys:
        data = space[int(key[len("cand-"):])]
        assert golden.matches(expected[key],
                              workloads.pair_candidate(L, data)), key
