"""The fixed document set and subcommand list of the ``cli`` workload.

Every subcommand appears at least once, on small documents, so the
time of an item is mostly interpreter start and ``import rowiso``.  The
two last items exercise the error exits: an invalid document (exit 2)
and an ``oracle --depth`` whose truncated basis is over the budget
(exit 3).
"""

from __future__ import annotations

import json

DOCS = {
    "two-cycle": {"m": 1, "base": ["a", "b"],
                  "s_edges": [["a", 1, "b"], ["b", 1, "a"]]},
    "dilation-cycle": {"m": 2, "base": ["a", "b"],
                       "s_edges": [["a", 1, "b"], ["b", 1, "a"]]},
    "free-m3": {"m": 3, "base": ["b"], "s_edges": []},
    "four-corners": {
        "m": 1, "n": 1, "theta": [[1, 1, 1, 1]],
        "base": ["a", "b", "c", "d"],
        "s_edges": [["a", 1, "a"], ["b", 1, "b"]],
        "t_edges": [["a", 1, "a"], ["c", 1, "c"]]},
    "bilateral": {
        "m": 1, "n": 1, "theta": [[1, 1, 1, 1]], "base": ["b", "c"],
        "s_edges": [["b", 1, "c"]], "t_edges": [["c", 1, "b"]]},
    "twisted-free-2x2": {
        "m": 2, "n": 2,
        "theta": [[1, 1, 2, 2], [1, 2, 1, 1], [2, 1, 2, 1], [2, 2, 1, 2]],
        "base": ["b"], "s_edges": [], "t_edges": []},
    "edge-free-2x2-b2": {
        "m": 2, "n": 2,
        "theta": [[1, 1, 1, 1], [1, 2, 1, 2], [2, 1, 2, 1], [2, 2, 2, 2]],
        "base": ["b0", "b1"], "s_edges": [], "t_edges": []},
    "invalid": {"m": 1, "base": ["a"], "s_edges": [], "colour": "red"},
}

# (item name, subcommand, document or None, extra arguments)
_RUNS = (
    ("validate-two-cycle", "validate", "two-cycle", ()),
    ("wold-two-cycle", "wold", "two-cycle", ()),
    ("classify-dilation-cycle", "classify", "dilation-cycle", ()),
    ("wold-free-m3", "wold", "free-m3", ()),
    ("oracle-dilation-cycle", "oracle", "dilation-cycle", ()),
    ("export-dot-four-corners", "export-dot", "four-corners", ()),
    ("check-commute-bilateral", "check-commute", "bilateral", ()),
    ("check-doubly-four-corners", "check-doubly", "four-corners", ()),
    ("slocinski-four-corners", "slocinski", "four-corners", ()),
    ("slocinski-twisted-free-2x2", "slocinski", "twisted-free-2x2", ()),
    ("check-doubly-edge-free-2x2-b2", "check-doubly", "edge-free-2x2-b2",
     ()),
    ("oracle-edge-free-2x2-b2", "oracle", "edge-free-2x2-b2", ()),
    ("search-no-slocinski", "search", None,
     ("--max-base", "1", "--m", "1", "--n", "1", "--theta-all",
      "--property", "no-slocinski")),
    ("search-doubly-commuting", "search", None,
     ("--max-base", "2", "--m", "1", "--n", "1",
      "--property", "doubly-commuting")),
    ("validate-invalid", "validate", "invalid", ()),
    ("oracle-over-budget", "oracle", "free-m3", ("--depth", "11")),
)

# the payload keys of each subcommand's --json output that carry its
# verdict; the golden record keeps only these
VERDICT_KEYS = {
    "validate": ("valid",),
    "wold": ("multiplicity", "row_unitary", "wandering"),
    "classify": ("components",),
    "check-commute": ("commuting",),
    "check-doubly": ("doubly_commuting",),
    "slocinski": ("exists", "hypotheses", "s_shift_multiplicity",
                  "t_shift_multiplicity"),
    "oracle": ("ok", "basis_size", "depth"),
    "search": ("candidates",),
    "export-dot": ("dot",),
}

# inside a verdict key, the sub-fields that carry the verdict
_SUB_KEYS = {"components": ("kind",), "s_shift_multiplicity": ("count",),
             "t_shift_multiplicity": ("count",)}


def cli_items() -> list:
    """``(key, (subcommand, argv, stdin text or None))`` for every run."""
    out = []
    for name, sub, doc, extra in _RUNS:
        argv = [sub] + (["-"] if doc is not None else []) + list(extra)
        text = json.dumps(DOCS[doc]) if doc is not None else None
        out.append((f"cli-{name}", (sub, argv + ["--json"], text)))
    return out


def verdict(sub: str, code: int, payload) -> dict:
    """The verdict fields of one run: exit code plus the verdict keys."""
    out = {"exit": code}
    if isinstance(payload, dict):
        for key in VERDICT_KEYS[sub]:
            if key not in payload:
                continue
            value = payload[key]
            keep = _SUB_KEYS.get(key)
            if keep and isinstance(value, list):
                value = [{k: v[k] for k in keep if k in v} for v in value]
            elif keep and isinstance(value, dict):
                value = {k: value[k] for k in keep if k in value}
            out[key] = value
    return out
