"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

Checks, for every workload:

- a run prints, as its last line, every metric BENCHMARK.json names for
  its trace mode, each with the declared unit, and reports no failure;
- two traced runs with one seed report the same work counters;
- a deliberately corrupted golden verdict is reported as a failure (the
  benchmark's own fault injection, as ``run_fault_injection`` is for
  the verifiers).

Exits 0 when every check holds and prints one line per check.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import golden as golden_mod  # noqa: E402
import workloads  # noqa: E402
from worker import Outcome, run_pass  # noqa: E402

SCALE = 0.05


def run_bench(workload: str, trace: int, seed: int = 1) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", str(SCALE)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
        stdin=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def check_metrics(spec: dict, workload: str, trace: int) -> list:
    problems = []
    code, res = run_bench(workload, trace)
    if res is None:
        return [f"exit {code} and no result line"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if code != 0 or not res.get("correct") or res.get("failed"):
        problems.append(f"exit {code}, correct={res.get('correct')}, "
                        f"failed={res.get('failed')}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(n for n in set(wanted) & set(got)
                       if wanted[n] != got[n])
        problems.append(f"missing {missing}, extra {extra}, "
                        f"wrong units {wrong}")
    for name, m in res["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    return problems


def check_counters(workload: str) -> list:
    runs = [run_bench(workload, 1)[1] for _ in range(2)]
    if None in runs:
        return ["a traced run printed no result"]
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] == "count"} for r in runs]
    if counts[0] != counts[1]:
        diff = sorted(n for n in counts[0] if counts[0][n] != counts[1][n])
        return [f"work counters differ between runs: {diff}"]
    return []


def _corrupt(record):
    """Flip the first verdict field of a golden record."""
    bad = copy.deepcopy(record)
    key = sorted(bad)[0]
    value = bad[key]
    if isinstance(value, bool):
        bad[key] = not value
    elif isinstance(value, int):
        bad[key] = value + 1
    else:
        bad[key] = ["corrupted", value]
    return bad


def check_corruption(workload: str) -> list:
    golden = golden_mod.load(workload)
    items = workloads.build_items(workload, 1, golden, SCALE)
    target = items[0].key
    corrupted = dict(golden)
    corrupted[target] = _corrupt(golden[target])
    from layers import Layers
    L = None if workload == "cli" else Layers()
    clean, dirty = Outcome(), Outcome()
    run_pass(items, golden, clean, L)
    run_pass(items, corrupted, dirty, L)
    expected = sum(item.key == target for item in items)
    if clean.failed:
        return [f"clean golden gave {clean.failed} failures"]
    if dirty.failed != expected:
        return [f"corrupted verdict of {target} gave {dirty.failed} "
                f"failures, expected {expected}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in workloads.WORKLOADS:
        checks = [
            ("end-to-end metrics", lambda: check_metrics(spec, workload, 0)),
            ("per-layer metrics", lambda: check_metrics(spec, workload, 1)),
            ("work counters repeat", lambda: check_counters(workload)),
            ("corrupted golden fails", lambda: check_corruption(workload)),
        ]
        for label, check in checks:
            problems = check()
            ok = ok and not problems
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload:12s} {label:24s} {status}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
