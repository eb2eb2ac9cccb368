"""Golden verdicts: load, save and compare.

A golden record maps an item key to the verdict fields the seed commit
gave for it.  Records cover each workload's whole universe (every item
any seed can draw), so a run with a seed never seen before is still
checked.  Comparison is by field: only the fields in the golden record
are compared, so output fields added later do not count as failures.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict:
    with gzip.open(golden_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save(workload: str, records: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file byte-identical when the verdicts are
    with gzip.GzipFile(golden_path(workload), "wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))


def matches(expected, actual) -> bool:
    """Does ``actual`` carry every field of ``expected``, equal?

    Dicts compare on the expected keys only; lists compare element by
    element and must have the same length; anything else by equality.
    """
    if isinstance(expected, dict):
        return (isinstance(actual, dict)
                and all(key in actual and matches(value, actual[key])
                        for key, value in expected.items()))
    if isinstance(expected, list):
        return (isinstance(actual, (list, tuple))
                and len(expected) == len(actual)
                and all(matches(e, a) for e, a in zip(expected, actual)))
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual  # True == 1 must not pass
    return expected == actual
