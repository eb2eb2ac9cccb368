"""One benchmark process: set up, signal ready, run the timed phase.

``run.py`` starts this file in a fresh interpreter and times its
set-up from the outside: the clock runs from process start until the
worker prints ``READY``, which it does after importing rowiso,
generating the inputs from the seed and running one warm-up item.
With ``--setup-only`` the worker exits there.  Otherwise it runs whole
passes over the item list until the next pass would end more than
half a pass after ``--seconds``.  With ``--trace 1`` it runs one
untraced pass instead, then one pass with a span around every call
into a rowiso module.  The last line it prints is a JSON object that
``run.py`` turns into the reported metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from cli_items import verdict
from golden import load as load_golden
from golden import matches
from layers import Layers, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

clock = time.perf_counter

# The machine-speed gauge.  On a shared machine the speed of one CPU
# moves between states about a third apart, from second to second, and
# moved every metric by as much from run to run.  A short fixed loop
# slows by the same factor as the items, so every reported time is
# scaled by REFERENCE_MS over the gauge's reading at the time: what the
# time would have been at the reference speed.  REFERENCE_MS is the
# loop's time on a 2-core x86 VM in its fast state.
PROBE_LOOPS = 25_000
REFERENCE_MS = 2.0
PROBE_EVERY_S = 0.1


def child_env() -> dict:
    """Environment for rowiso subprocesses: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Outcome:
    """Verdict checks of the items one phase ran."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, key: str, got, error, golden: dict) -> None:
        self.attempted += 1
        expected = golden.get(key)
        if error is None and expected is not None and matches(expected, got):
            return
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append({"item": key, "error": error,
                                  "expected": expected, "got": got})


def run_library_item(L, item):
    try:
        return item.run(L, item.data), None
    except Exception as exc:  # an unexpected error is a failed item
        return None, f"{type(exc).__name__}: {exc}"


def run_cli_item(item, tracer=None):
    sub, argv, text = item.data
    io_args = ({"input": text} if text is not None
               else {"stdin": subprocess.DEVNULL})

    def call():
        return subprocess.run(
            [sys.executable, "-m", "rowiso.cli", *argv], capture_output=True,
            text=True, cwd=ROOT, env=child_env(), timeout=150, **io_args)

    if tracer is not None:
        call = tracer.wrap(f"cli.{sub}", call, None)
    proc = call()
    try:
        payload = json.loads(proc.stdout) if proc.stdout.strip() else None
    except json.JSONDecodeError as exc:
        return None, f"unreadable --json output: {exc}"
    return verdict(sub, proc.returncode, payload), None


def probe_ms() -> float:
    """The machine-speed gauge: best of two timings of a fixed
    pure-Python loop, in ms."""
    best = float("inf")
    for _ in range(2):
        t0 = clock()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, clock() - t0)
    return best * 1e3


def run_pass(items, golden: dict, outcome: Outcome, L=None,
             tracer=None) -> dict:
    """Run every item once; returns raw and scaled pass and item times.

    The pass is cut into segments of about ``PROBE_EVERY_S``.  The gauge
    is probed at every cut, outside the timed segments, and each
    segment's times are scaled by ``REFERENCE_MS`` over the mean of the
    probes at its two ends.
    """
    raw, scaled, probes = [], [0.0] * len(items), [probe_ms()]
    wall = wall_scaled = 0.0
    segment = []
    seg_start = clock()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        t0 = clock()
        if item.run is None:
            got, error = run_cli_item(item, tracer)
        else:
            got, error = run_library_item(L, item)
        raw.append(clock() - t0)
        outcome.check(item.key, got, error, golden)
        segment.append(index)
        now = clock()
        if now - seg_start >= PROBE_EVERY_S or index == len(items) - 1:
            probes.append(probe_ms())
            factor = REFERENCE_MS / ((probes[-2] + probes[-1]) / 2)
            wall += now - seg_start
            wall_scaled += (now - seg_start) * factor
            for i in segment:
                scaled[i] = raw[i] * factor
            segment = []
            seg_start = clock()
    return {"wall_s": wall, "wall_scaled_s": wall_scaled, "times": raw,
            "scaled": scaled, "probe_ms": statistics.median(probes)}


def tail_index(n: int) -> int:
    """Index, in sorted order, of the highest percentile with at least
    ten items beyond it; never below the (upper) median."""
    return max(n - 11, n // 2)


def summarize(passes: list) -> dict:
    """End-to-end figures of the timed phase, in reference-speed time.

    ``wall_s`` is the mean scaled pass time.  Each item's time is its
    median scaled time over the passes; the item statistics are taken
    over those medians, so the tail percentile is fixed by the number
    of items in a pass.
    """
    per_item = sorted(statistics.median(ts)
                      for ts in zip(*(p["scaled"] for p in passes)))
    k = tail_index(len(per_item))
    return {"wall_s": statistics.fmean(p["wall_scaled_s"] for p in passes),
            "item_p50_ms": statistics.median(per_item) * 1e3,
            "item_tail_ms": per_item[k] * 1e3,
            "tail_percentile": 100.0 * (k + 1) / len(per_item),
            "pass_wall_s": [p["wall_scaled_s"] for p in passes],
            "raw_pass_wall_s": [p["wall_s"] for p in passes],
            "probe_ms": [p["probe_ms"] for p in passes]}


def pin_to_one_cpu() -> None:
    """Keep this process, and the subprocesses it starts, on one CPU.

    Migrations between CPUs showed up as run-to-run noise in the
    sub-millisecond items.  Acts on this process only.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def cli_import_s(repeats: int = 3) -> float:
    """Median time to import rowiso.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import rowiso.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=60, check=True,
                              stdin=subprocess.DEVNULL)
        values.append(float(proc.stdout.strip()))
    return statistics.median(values)


def cli_in_process(items, golden: dict, outcome: Outcome, L) -> None:
    """Call ``rowiso.cli.main`` in this process on every cli item."""
    for item in items:
        sub, argv, text = item.data
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text or "")
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = L.cli.main(argv)
        except Exception as exc:  # an unexpected error is a failed item
            outcome.check(item.key, None, f"{type(exc).__name__}: {exc}",
                          golden)
            continue
        finally:
            sys.stdin = saved
        text_out = out.getvalue()
        payload = json.loads(text_out) if text_out.strip() else None
        outcome.check(item.key, verdict(sub, code, payload), None, golden)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the item sample (self-test only)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    probe_ms()  # the first reading of a fresh process runs cold code
    cli = args.workload == "cli"
    L = None if cli and not args.trace else Layers()
    golden = load_golden(args.workload)
    items = workloads.build_items(args.workload, args.seed, golden,
                                  args.scale)
    warm = Outcome()
    run_pass([workloads.warmup_item(args.workload)], golden, warm, L)
    t0 = clock()
    gauge = probe_ms()
    print(f"READY {gauge} {clock() - t0}", flush=True)
    if args.setup_only:
        return 0

    outcome = Outcome()
    outcome.attempted, outcome.failed = warm.attempted, warm.failed
    outcome.failures = warm.failures
    passes = []
    start = clock()
    while True:
        passes.append(run_pass(items, golden, outcome, L))
        if args.trace:
            break  # one untraced pass is the reference for the traced one
        # stop when another pass would end more than half a pass after
        # --seconds, so a run measures --seconds give or take half a pass
        elapsed = clock() - start
        if elapsed * (len(passes) + 0.5) / len(passes) > args.seconds:
            break
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli
                               else resource.RUSAGE_SELF)
    result = {"summary": summarize(passes), "items": len(items),
              "peak_rss_mb": usage.ru_maxrss / 1024.0}

    if args.trace:
        tracer = Tracer()
        traced_L = Layers(tracer)
        traced = run_pass(items, golden, outcome, traced_L, tracer)
        busy = tracer.busy_total()
        result["traced_wall_s"] = traced["wall_scaled_s"]
        result["traced_raw_wall_s"] = traced["wall_s"]
        result["unaccounted_s"] = traced["wall_s"] - busy
        result["busy_sum_s"] = busy
        if cli:
            durations: dict = {}
            for _, name, t0, t1 in tracer.raw:
                durations.setdefault(name[len("cli."):], []).append(t1 - t0)
            result["cli_p50_ms"] = {sub: statistics.median(v) * 1e3
                                    for sub, v in durations.items()}
            result["cli_import_s"] = cli_import_s()
            cli_in_process(items, golden, outcome, traced_L)
        result["layer"] = tracer.metrics()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-{args.seed}.json"
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["item", "name", "start", "end"],
                       "spans": tracer.raw}, fh)
        result["spans_file"] = str(spans_file.relative_to(ROOT))

    result["passes"] = len(passes)
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  failures=outcome.failures)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
