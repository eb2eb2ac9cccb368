"""Command-line front end: strict JSON in, deterministic reports out.

Input documents carry exactly the keys m, base, s_edges and optionally
n, theta, t_edges (the last three together describe a commuting pair).
Unknown keys are rejected outright; silent typos have ruined enough
experiments.  Node names are JSON strings, edge rows are
``[node, label, node]`` and theta rows are four integers
``[i, j, i', j']``.  Labels are 1-based everywhere, matching the
library.  :func:`parse` is the one reader of this schema and returns
the built presentation; every subcommand that takes a document,
``export-dot`` included, refuses the same malformed documents.

Exit codes: 0 the property holds / success, 1 the property fails (not
commuting, no decomposition, oracle violation), 2 invalid input, 3
resource budget exceeded.

Each subcommand loads only the rowiso modules it runs.  This module
imports ``errors``, ``presentation`` and ``properties``, which names
the ``--property`` choices, so that only ``search`` loads
:mod:`rowiso.search`; :func:`parse` adds ``words`` and ``pair`` for a pair
document; each handler imports its deciders in its own body.  So
single-family ``validate`` loads nothing more, ``classify`` adds
``wold`` and ``lebesgue`` but no ``pair``, ``search`` loads no
``oracle``, and only the ``oracle`` subcommand loads numpy, once its
truncation passes the closed-form size check (exact for a single
family, a lower bound for a pair).  No subcommand loads
:mod:`dataclasses`, which pulls in :mod:`inspect` and :mod:`ast`: the
result records are built on ``errors._Record``.  So only ``oracle``
loads :mod:`inspect`, through numpy's own import.
"""

from __future__ import annotations

import argparse
import enum
import json
import sys
from typing import TYPE_CHECKING

from .errors import (ContractViolation, ResourceExceeded, ValidationError,
                     _Record)
from .presentation import Elem, Presentation, validate
from .properties import PROPERTIES

if TYPE_CHECKING:
    from .pair import PairPresentation

_DOC_KEYS = {"m", "n", "theta", "base", "s_edges", "t_edges"}


def parse(text: str) -> Presentation | PairPresentation:
    """Parse a strict JSON document into a Presentation or PairPresentation.

    This is the one reader of the document schema.  Malformed JSON
    reports line and column; schema violations name the offending key.
    Type and range checks beyond the document's shape live in the
    constructors; semantic checks (edge targets, label ranges) are
    deferred to the validate machinery.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except RecursionError:
        raise ValidationError("malformed JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ValidationError("document must be a JSON object")
    unknown = set(raw) - _DOC_KEYS
    if unknown:
        raise ValidationError(f"unknown keys: {sorted(unknown)}")
    for key in ("m", "base", "s_edges"):
        if key not in raw:
            raise ValidationError(f"missing required key {key!r}")
    if not isinstance(raw["m"], int):
        raise ValidationError("m must be an integer")
    base = raw["base"]
    if not isinstance(base, list) or not all(isinstance(b, str)
                                             for b in base):
        raise ValidationError("base must be a list of node names")
    n = raw.get("n")
    if n is not None and not isinstance(n, int):
        raise ValidationError("n must be an integer")
    if (n is None) != ("theta" not in raw):
        raise ValidationError("theta is required exactly when n is present")
    if n is None:
        if "t_edges" in raw:
            raise ValidationError("t_edges requires n")
    else:
        from .words import Theta

        rows = raw["theta"]
        if (not isinstance(rows, list)
                or any(not isinstance(r, list) or len(r) != 4 for r in rows)):
            raise ValidationError("theta must be a list of quadruples")
        theta = Theta.from_quadruples(raw["m"], n, rows)
    edges = {}
    for name in ("s_edges", "t_edges"):
        rows = raw.get(name, [])
        if not isinstance(rows, list):
            raise ValidationError(
                f"{name} must be a list of [node, label, node]")
        edges[name] = family = {}
        for row in rows:
            if (not isinstance(row, list) or len(row) != 3
                    or not isinstance(row[0], str)
                    or not isinstance(row[1], int)
                    or not isinstance(row[2], str)):
                raise ValidationError(
                    f"{name} rows must be [node, label, node], got {row!r}")
            src, lab, dst = row
            if (src, lab) in family:
                raise ValidationError(f"edge ({src}, {lab}) declared twice")
            family[(src, lab)] = dst
    if n is None:
        return Presentation(raw["m"], base, edges["s_edges"])
    from .pair import PairPresentation

    return PairPresentation(theta, base, edges["s_edges"], edges["t_edges"])


# ---------------------------------------------------------------- rendering

def _loaded(module: str, name: str) -> tuple:
    """``(cls,)`` for the class ``name`` of a rowiso module already
    loaded, else ``()``: no object is an instance of a class that was
    never defined, so rendering loads no module to test for one."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return (getattr(loaded, name),) if loaded else ()


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (Elem, *_loaded("pair", "PairElem"))):
        return repr(obj)
    if isinstance(obj, _loaded("words", "Theta")):
        return [list(q) for q in obj.to_quadruples()]
    if isinstance(obj, _loaded("wold", "SubspaceDesc")):
        mode = "explicit-finite" if obj.nodes is None else "forward-closure"
        return {"mode": mode, "seeds": [_jsonable(s) for s in obj.seeds]}
    if isinstance(obj, _Record):
        return {f: _jsonable(getattr(obj, f)) for f in obj._shown}
    if isinstance(obj, (list, tuple, frozenset, set)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_jsonable(v) for v in items]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(),
                                                        key=lambda kv:
                                                        str(kv[0]))}
    return repr(obj)


def render(payload: dict) -> str:
    """Render a report dict as stable line-oriented text."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, list):
            if not value:
                lines.append(f"{key}: (none)")
            else:
                lines.append(f"{key}:")
                for item in value:
                    lines.append(f"  - {_flat(item)}")
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            for sub, val in value.items():
                lines.append(f"  {sub}: {_flat(val)}")
        else:
            lines.append(f"{key}: {_flat(value)}")
    return "\n".join(lines) + "\n"


def _flat(value) -> str:
    if isinstance(value, dict):
        inner = ", ".join(f"{k}={_flat(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def export_dot(p: Presentation | PairPresentation) -> str:
    """Graphviz rendering: solid s-edges, dashed t-edges, stable order."""
    doc = p.to_dict()
    lines = ["digraph presentation {"]
    for node in doc["base"]:
        lines.append(f'  "{node}";')
    for src, lab, dst in doc["s_edges"]:
        lines.append(f'  "{src}" -> "{dst}" [style=solid, label="s {lab}"];')
    for src, lab, dst in doc.get("t_edges", ()):
        lines.append(f'  "{src}" -> "{dst}" [style=dashed, label="t {lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- subcommands
# parse builds a Presentation or a PairPresentation, so a document that
# is not a Presentation is a pair

def _need_pair(built) -> PairPresentation:
    if isinstance(built, Presentation):
        raise ValidationError("this subcommand needs a pair document "
                              "(keys n, theta)")
    return built


def _need_single(built) -> Presentation:
    if not isinstance(built, Presentation):
        raise ValidationError("this subcommand needs a single-family "
                              "document (no n/theta keys)")
    return built


def _cmd_validate(built, args) -> tuple:
    if isinstance(built, Presentation):
        report = validate(built)
    else:
        from .pair import validate_pair

        report = validate_pair(built)
    payload = {"valid": report.ok,
               "violations": [_jsonable(v) for v in report.violations]}
    return (0 if report.ok else 1), payload


def _cmd_wold(built, args) -> tuple:
    from .wold import is_row_unitary, wold

    p = _need_single(built)
    res = wold(p)
    payload = {
        "unitary_part": _jsonable(res.unitary_part),
        "shift_part": _jsonable(res.shift_part),
        "wandering": [_jsonable(x) for x in res.wandering],
        "multiplicity": res.multiplicity,
        "row_unitary": is_row_unitary(p),
    }
    return 0, payload


def _cmd_classify(built, args) -> tuple:
    from .lebesgue import classify_unitary

    p = _need_single(built)
    res = classify_unitary(p)
    payload = {
        "components": [
            {"cycle": [[node, lab] for node, lab in comp.cycle],
             "kind": comp.kind.value,
             "span": _jsonable(comp.span),
             "V": _jsonable(comp.V)}
            for comp in res.components
        ],
        "H_sing": _jsonable(res.H_sing),
        "H_dil": _jsonable(res.H_dil),
        "H_abs": _jsonable(res.H_abs),
        "PH": _jsonable(res.PH),
    }
    return 0, payload


def _cmd_check_commute(built, args) -> tuple:
    from .pair import check_theta_commute

    pp = _need_pair(built)
    report = check_theta_commute(pp)
    payload = {"commuting": report.ok,
               "failures": [_jsonable(f) for f in report.failures]}
    return (0 if report.ok else 1), payload


def _cmd_check_doubly(built, args) -> tuple:
    from .pair import check_doubly_commute

    pp = _need_pair(built)
    report = check_doubly_commute(pp)
    payload = {"doubly_commuting": report.ok, "failures": []}
    if not report.ok:
        # the verdict is exact even when the window that lists the
        # failures is over budget: then the listing alone is withheld
        try:
            payload["failures"] = [_jsonable(f) for f in report.failures]
        except ResourceExceeded as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            payload["failures"] = None
    return (0 if report.ok else 1), payload


def _cmd_slocinski(built, args) -> tuple:
    from .slocinski import (check_hypotheses, s_shift_multiplicity,
                            slocinski, t_shift_multiplicity)

    pp = _need_pair(built)
    res = slocinski(pp, order=args.order)
    hyp = check_hypotheses(pp)
    payload = {
        "exists": res.exists,
        "H_uu": _jsonable(res.H_uu),
        "H_us": _jsonable(res.H_us),
        "H_su": _jsonable(res.H_su),
        "H_ss": _jsonable(res.H_ss),
        "failure_witness": _jsonable(res.failure_witness),
        "hypotheses": _jsonable(hyp),
        "s_shift_multiplicity": _jsonable(
            s_shift_multiplicity(pp)),
        "t_shift_multiplicity": _jsonable(
            t_shift_multiplicity(pp)),
    }
    return (0 if res.exists else 1), payload


def _oracle_claims(built) -> list:
    """(description, claim, family) for each family's wandering vectors
    and unitary part; a pair's are node sets, its verdicts per node."""
    from .wold import Part, SubspaceDesc, wold

    if isinstance(built, Presentation):
        res = wold(built)
        return [(SubspaceDesc(res.wandering), "wandering", "s"),
                (res.unitary_part, "unitary-on", "s")]
    from .pair import PairElem, mirror
    from .slocinski import dead_nodes, s_membership, t_membership

    claims = []
    for fam, twin, verdict in (("s", built, s_membership),
                               ("t", mirror(built), t_membership)):
        unitary = {b for b in built.base
                   if verdict(built, PairElem((), (), b)) is Part.UNITARY}
        for nodes, claim in ((dead_nodes(twin), "wandering"),
                             (unitary, "unitary-on")):
            seeds = tuple(PairElem((), (), b) for b in built.base
                          if b in nodes)
            sub = SubspaceDesc(seeds, frozenset(nodes), built)
            claims.append((sub, claim, fam))
    return claims


def _cmd_oracle(built, args) -> tuple:
    from .oracle import materialize, verify_relations, verify_subspace

    # compile the modules of _oracle_claims before materialize loads
    # numpy: compiled after it, their parser memory adds to numpy's in
    # the process's peak RSS
    from .wold import wold  # noqa: F401
    if not isinstance(built, Presentation):
        from .slocinski import slocinski  # noqa: F401
    built.require_valid()
    depth = (args.depth if args.depth is not None
             else max(4, len(built.base) + 2))
    model = materialize(built, depth)
    rows = list(verify_relations(model).rows)
    if not rows:
        # the deciders behind the claims refuse a pair whose identities
        # already fail, so the claims run only on a clean truncation
        for sub, claim, family in _oracle_claims(built):
            rows += verify_subspace(model, sub, (claim,), family).rows
    payload = {
        "depth": depth,
        "basis_size": len(model.basis),
        "ok": not rows,
        "violations": rows,
    }
    return (0 if not rows else 1), payload


def _cmd_search(args) -> tuple:
    from .search import SearchSpace, all_thetas, search
    from .words import Theta

    thetas = (all_thetas(args.m, args.n) if args.theta_all
              else (Theta.identity(args.m, args.n),))
    space = SearchSpace(args.max_base, args.m, args.n, thetas)
    hits = search(space, args.property)
    payload = {
        "property": args.property,
        "candidates": len(hits),
        "hits": [_jsonable(pp.to_dict()) for pp in hits],
    }
    return 0, payload


def _cmd_export_dot(built, args) -> tuple:
    return 0, {"dot": export_dot(built)}


def _read_input(args) -> str:
    try:
        if args.file == "-":
            text = sys.stdin.read()
            # stdin may decode bad bytes to lone surrogates instead of
            # failing; encoding them back fails
            text.encode("utf-8")
            return text
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeError as exc:
        raise ValidationError(f"input is not UTF-8: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rowiso",
        description="permutative row-isometries: decompositions, "
                    "pair criteria, matrix verification")
    subs = top.add_subparsers(dest="command", required=True)

    def file_sub(name: str, help_text: str):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("file", help="input document path, or - for stdin")
        sub.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")
        return sub

    file_sub("validate", "structural validity of a document")
    file_sub("wold", "unitary/shift split of a single family")
    file_sub("classify", "cycle components and spectral kind")
    file_sub("check-commute", "twisted commutation of a pair")
    file_sub("check-doubly", "doubly-commuting displays of a pair")
    sub = file_sub("slocinski", "four-fold decomposition of a pair")
    sub.add_argument("--order", choices=("st", "ts"), default="st",
                     help="which family's split is taken first")
    sub = file_sub("oracle", "matrix verification on a truncation")
    sub.add_argument("--depth", type=int, default=None,
                     help="truncation depth (default max(4, |base|+2))")
    sub = subs.add_parser("search", help="exhaustive sweep for a property")
    sub.add_argument("--max-base", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--theta-all", action="store_true",
                     help="sweep every bijective twist, not just identity")
    sub.add_argument("--property", required=True,
                     choices=sorted(PROPERTIES))
    sub.add_argument("--json", action="store_true")
    file_sub("export-dot", "Graphviz rendering of the edge graphs")
    return top


_HANDLERS = {
    "validate": _cmd_validate,
    "wold": _cmd_wold,
    "classify": _cmd_classify,
    "check-commute": _cmd_check_commute,
    "check-doubly": _cmd_check_doubly,
    "slocinski": _cmd_slocinski,
    "oracle": _cmd_oracle,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "search":
            code, payload = _cmd_search(args)
        else:
            built = parse(_read_input(args))
            code, payload = _HANDLERS[args.command](built, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"property fails: {exc}", file=sys.stderr)
        return 1
    except ResourceExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "export-dot" and not args.json:
        sys.stdout.write(payload["dot"])
        return code
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        sys.stdout.write(render(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
