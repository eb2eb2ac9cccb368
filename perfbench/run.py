"""Run one workload of the rowiso benchmark and print its metrics.

    python3 perfbench/run.py --workload singles --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory, and
rowiso is imported from its ``src``.  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  The exit code is 0 when every item's verdict matched
its golden record and 1 otherwise; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from cli_items import VERDICT_KEYS  # noqa: E402
from layers import layer_metric_names  # noqa: E402
from worker import REFERENCE_MS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is timed this many times per untraced run, and the median kept
SETUP_REPEATS = 3
# the whole run, set-ups included, must end well inside 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run to the end."""


def start_worker(args, setup_only: bool, deadline: float):
    """Start a worker; returns (process, set-up, watchdog).

    Set-up is ``(raw seconds, seconds at reference speed)``: the worker
    reads the speed gauge once at the end of its set-up and reports the
    reading and how long the reading took.
    """
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.scale != 1.0:
        cmd += ["--scale", str(args.scale)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    fields = proc.stdout.readline().split()
    setup = time.perf_counter() - t0
    if len(fields) != 3 or fields[0] != "READY":
        _finish(proc, watchdog)
        raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    gauge_ms, gauge_s = float(fields[1]), float(fields[2])
    return proc, (setup, (setup - gauge_s) * REFERENCE_MS / gauge_ms), \
        watchdog


def _finish(proc, watchdog) -> str:
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    return rest


def measure(args) -> tuple:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            proc, setup, watchdog = start_worker(args, True, deadline)
            _finish(proc, watchdog)
            if proc.returncode != 0:
                raise BenchError(f"set-up worker exited {proc.returncode}")
            setups.append(setup)
    proc, setup, watchdog = start_worker(args, False, deadline)
    setups.append(setup)
    rest = _finish(proc, watchdog)
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}")
    return setups, json.loads(lines[-1])


def end_to_end(setups: list, res: dict) -> dict:
    summary = res["summary"]
    return {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "wall_s": (summary["wall_s"], "s"),
        "item_p50_ms": (summary["item_p50_ms"], "ms"),
        "item_tail_ms": (summary["item_tail_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict:
    layer = res["layer"]
    out = {}
    for name in layer_metric_names():
        value, unit = layer.get(name, (0, _unit(name)))
        out[name] = (value, unit)
    p50 = res.get("cli_p50_ms", {})
    out["cli.import_s"] = (res.get("cli_import_s", 0.0), "s")
    for sub in VERDICT_KEYS:
        out[f"cli.{sub}.p50_ms"] = (p50.get(sub, 0.0), "ms")
    untraced = res["summary"]["wall_s"]
    out["trace.overhead_frac"] = (res["traced_wall_s"] / untraced - 1.0,
                                  "ratio")
    out["trace.unaccounted_s"] = (res["unaccounted_s"], "s")
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("pass_frac") else "count"


def context(args, load_start) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, stdin=subprocess.DEVNULL,
            ).stdout.strip() or None
        except OSError:
            sha = None
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "git_sha": sha,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions,
            "loadavg_start": load_start, "loadavg_end": os.getloadavg()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rowiso benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help=argparse.SUPPRESS)  # the self-test's small size
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rowiso" / "__init__.py").is_file():
        print(f"error: no rowiso sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    try:
        setups, res = measure(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = per_layer(res) if args.trace else end_to_end(setups, res)

    details = {"context": context(args, load_start),
               "items_per_pass": res["items"], "passes": res["passes"],
               "pass_wall_s": res["summary"]["pass_wall_s"],
               "raw_pass_wall_s": res["summary"]["raw_pass_wall_s"],
               "probe_ms": res["summary"]["probe_ms"],
               "tail_percentile": res["summary"]["tail_percentile"],
               "setups_s": [scaled for _, scaled in setups],
               "raw_setups_s": [raw for raw, _ in setups],
               "failed_frac": res["failed"] / max(1, res["attempted"]),
               "failures": res["failures"]}
    if args.trace:
        details["spans_file"] = res["spans_file"]
        details["busy_sum_s"] = res["busy_sum_s"]
        details["traced_raw_wall_s"] = res["traced_raw_wall_s"]
    print(json.dumps(details, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
