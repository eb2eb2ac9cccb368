"""Regenerate the golden verdicts of one or all workloads.

Run from the root of a checkout, on a commit whose tier-1 suite
passes (the golden files in this directory come from the seed commit):

    python3 perfbench/make_golden.py [workload ...]

Every item of the workload's universe, not only a seed's sample, is
run once untraced, and its verdict fields are written to
``perfbench/golden/<workload>.json.gz``.  ``pairs-small`` takes several
minutes; the others take under a minute each.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import golden  # noqa: E402
import workloads  # noqa: E402
from workloads import Item  # noqa: E402


def universe(workload: str) -> list:
    """Every item any seed of the workload can draw."""
    if workload == "pairs-small":
        return [Item(f"cand-{q}", workloads.pair_candidate, data)
                for q, data in enumerate(workloads.pair_space())]
    if workload == "pairs-wide":
        return [Item(f"wide-{name}", workloads.wide_pair, data)
                for name, data in workloads.wide_ladder()
                + workloads.wide_pool()]
    if workload == "singles":
        return [Item(f"single-{q}", workloads.single_item, data)
                for q, data in enumerate(workloads.single_space())]
    from cli_items import cli_items
    return [Item(key, None, data) for key, data in cli_items()]


def compute(workload: str) -> dict:
    from layers import Layers
    from worker import run_cli_item, run_library_item
    L = Layers()
    records = {}
    for item in universe(workload):
        if item.run is None:
            got, error = run_cli_item(item)
        else:
            got, error = run_library_item(L, item)
        if error is not None:
            raise SystemExit(f"{item.key}: {error}")
        records[item.key] = got
    if workload == "pairs-small":
        # every twist of the free one-node pair commutes; the tier-1
        # suite sweeps all 9! of the 3x3 ones
        records["twist"] = {"commuting": True}
    return records


def main(argv) -> int:
    for workload in argv or workloads.WORKLOADS:
        records = compute(workload)
        golden.save(workload, records)
        print(f"{workload}: {len(records)} golden records", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
