"""The rowiso functions the benchmark calls, with optional spans around them.

Workload code never imports rowiso directly.  It calls through a
:class:`Layers` namespace, one attribute per module of ``src/rowiso``:
``L.pair.check_theta_commute(pp)``.  Untraced, each attribute is the
library function itself, so the timed phase pays nothing for the
indirection beyond one attribute lookup.  Traced, each attribute is a
span wrapper that counts the call, adds its duration to the function's
busy time and reads a work counter from the return value.

Spans are recorded only at the boundary between the benchmark and a
module.  A wrapped function calls the library's own functions, never
another wrapper, so spans never nest and a span's duration is its
self time.
"""

from __future__ import annotations

import importlib
import time
from types import SimpleNamespace

MODULES = ("words", "presentation", "wold", "lebesgue", "pair", "slocinski",
           "oracle", "cli")

# Work counters, read from return values only.  "ok" and "exists" feed
# pass_frac (the share of calls whose verdict holds); "len" feeds
# elements; "basis" feeds basis_vectors.
_COUNTERS = {
    "ok": ("pass_frac", lambda ret: bool(ret.ok)),
    "exists": ("pass_frac", lambda ret: bool(ret.exists)),
    "len": ("elements", len),
    "basis": ("basis_vectors", lambda ret: len(ret.basis)),
}

# module -> (attribute path in the module, counter kind or None)
CALLS = {
    "words": (("Theta", None),),
    "presentation": (("Presentation", None), ("enumerate", "len"),
                     ("pred", None), ("apply", None)),
    "wold": (("wold", None), ("SubspaceDesc.contains", None)),
    "lebesgue": (("classify_unitary", None),
                 ("sing_membership_test", None)),
    "pair": (("PairPresentation", None), ("PairElem", None),
             ("check_theta_commute", "ok"), ("check_joint_isometry", "ok"),
             ("check_doubly_commute", "ok"), ("enumerate_pair", "len"),
             ("t_apply", None), ("t_pred", None), ("mirror", None)),
    "slocinski": (("slocinski", "exists"), ("check_hypotheses", None),
                  ("s_membership", None), ("s_in_V", None),
                  ("s_shift_multiplicity", None),
                  ("t_shift_multiplicity", None), ("dead_nodes", None)),
    "oracle": (("materialize", "basis"), ("verify_relations", "ok"),
               ("verify_subspace", "ok")),
    "cli": (("main", None),),
}


def _resolve(module, path: str):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Span:
    """Totals for one traced function: calls, busy time, work counter."""

    __slots__ = ("name", "counter", "calls", "busy_s", "count")

    def __init__(self, name: str, counter):
        self.name = name
        self.counter = counter
        self.calls = 0
        self.busy_s = 0.0
        self.count = 0

    def metrics(self) -> dict:
        out = {f"{self.name}.calls": (self.calls, "count"),
               f"{self.name}.busy_s": (self.busy_s, "s")}
        if self.counter is not None:
            stat, _ = _COUNTERS[self.counter]
            if stat == "pass_frac":
                value = self.count / self.calls if self.calls else 0.0
                out[f"{self.name}.pass_frac"] = (value, "ratio")
            else:
                out[f"{self.name}.{stat}"] = (self.count, "count")
        return out


class Tracer:
    """Keeps per-function totals and the raw spans of one traced pass.

    Raw spans are ``(item, name, start, end)`` tuples; the item index
    is the request identifier every span of one item shares.
    """

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.raw: list = []
        self.item = -1

    def wrap(self, name: str, fn, counter):
        rec = self.spans.setdefault(name, Span(name, counter))
        read = _COUNTERS[counter][1] if counter else None
        raw = self.raw
        clock = time.perf_counter

        def span(*args, **kwargs):
            start = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = clock()
                rec.calls += 1
                rec.busy_s += end - start
                raw.append((self.item, name, start, end))
            if read is not None:
                rec.count += read(ret)
            return ret

        return span

    def busy_total(self) -> float:
        return sum(rec.busy_s for rec in self.spans.values())

    def metrics(self) -> dict:
        out = {}
        for rec in self.spans.values():
            out.update(rec.metrics())
        return out


class Layers:
    """One namespace per rowiso module, holding the functions the
    benchmark calls; wrapped in spans when a tracer is given."""

    def __init__(self, tracer: Tracer | None = None):
        for module_name, calls in CALLS.items():
            module = importlib.import_module(f"rowiso.{module_name}")
            ns = SimpleNamespace()
            for path, counter in calls:
                fn = _resolve(module, path)
                if tracer is not None:
                    fn = tracer.wrap(f"{module_name}.{path}", fn, counter)
                setattr(ns, path.rsplit(".", 1)[-1], fn)
            setattr(self, module_name, ns)


def layer_metric_names() -> list:
    """Every per-layer metric name the span wrappers can produce."""
    names = []
    for module_name, calls in CALLS.items():
        for path, counter in calls:
            probe = Span(f"{module_name}.{path}", counter)
            names.extend(probe.metrics())
    return names
