"""End-to-end tests for the command-line front end.

Everything drives ``main(argv)`` directly: the return value is the
exit code and capsys picks up the rendered output, so the full
parse -> compute -> render path is exercised without subprocesses.
The cold-start guard is the exception: which libraries a command
loads can only be read in a fresh interpreter.
"""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rowiso.cli import _jsonable, export_dot, main, parse, render
from rowiso.errors import ValidationError
from rowiso.pair import PairPresentation
from rowiso.presentation import Elem, Presentation

from test_oracle import single_space

FREE2_DOC = {"m": 2, "base": ["b"], "s_edges": []}
CYCLE_DOC = {"m": 1, "base": ["a", "b"],
             "s_edges": [["a", 1, "b"], ["b", 1, "a"]]}
FOUR_CORNERS_DOC = {
    "m": 1, "n": 1, "theta": [[1, 1, 1, 1]],
    "base": ["a", "b", "c", "d"],
    "s_edges": [["a", 1, "a"], ["b", 1, "b"]],
    "t_edges": [["a", 1, "a"], ["c", 1, "c"]],
}
# a twist that moves three of the four letter pairs
TWISTED_FREE_DOC = {
    "m": 2, "n": 2,
    "theta": [[1, 1, 2, 2], [1, 2, 1, 1], [2, 1, 2, 1], [2, 2, 1, 2]],
    "base": ["b"], "s_edges": [], "t_edges": [],
}
COLLISION_DOC = {
    "m": 1, "n": 1, "theta": [[1, 1, 1, 1]],
    "base": ["a", "c"],
    "s_edges": [["c", 1, "a"]], "t_edges": [["a", 1, "a"]],
}
# honest pairs whose four-fold decomposition fails
FAILING_A_DOC = {
    "m": 1, "n": 3, "theta": [[1, 1, 1, 3], [1, 2, 1, 1], [1, 3, 1, 2]],
    "base": ["n0", "n1", "n2", "n3"],
    "s_edges": [["n3", 1, "n1"]],
    "t_edges": [["n0", 1, "n0"], ["n0", 2, "n1"]],
}
FAILING_B_DOC = {
    "m": 2, "n": 3,
    "theta": [[1, 1, 2, 1], [1, 2, 2, 2], [1, 3, 2, 3],
              [2, 1, 1, 1], [2, 2, 1, 3], [2, 3, 1, 2]],
    "base": ["n0", "n1", "n2", "n3"],
    "s_edges": [["n3", 1, "n1"], ["n3", 2, "n3"]],
    "t_edges": [["n2", 3, "n1"]],
}
NONCOMMUTING_DOC = {
    "m": 1, "n": 1, "theta": [[1, 1, 1, 1]],
    "base": ["a", "b"],
    "s_edges": [["a", 1, "b"]], "t_edges": [["a", 1, "a"]],
}


def doc_file(tmp_path, payload, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# -- parsing -----------------------------------------------------------------


class TestParse:
    def test_single_round_trip(self):
        built = parse(json.dumps(CYCLE_DOC))
        assert isinstance(built, Presentation)
        assert built.base == ("a", "b")
        assert built.edges == {("a", 1): "b", ("b", 1): "a"}

    def test_pair_round_trip(self):
        built = parse(json.dumps(FOUR_CORNERS_DOC))
        assert isinstance(built, PairPresentation)
        assert built.theta.is_identity
        assert built.t_edges == {("a", 1): "a", ("c", 1): "c"}

    def test_unknown_keys_rejected(self):
        bad = dict(FREE2_DOC, generators=2)
        with pytest.raises(ValidationError, match="unknown keys"):
            parse(json.dumps(bad))

    def test_missing_required_key(self):
        with pytest.raises(ValidationError, match="missing required key"):
            parse(json.dumps({"m": 1, "base": ["b"]}))

    def test_theta_exactly_when_n(self):
        with pytest.raises(ValidationError, match="theta is required"):
            parse(json.dumps(dict(FREE2_DOC, n=2)))
        with pytest.raises(ValidationError, match="theta is required"):
            parse(json.dumps(dict(FREE2_DOC, theta=[[1, 1, 1, 1]])))

    def test_t_edges_requires_n(self):
        with pytest.raises(ValidationError, match="t_edges requires n"):
            parse(json.dumps(dict(FREE2_DOC, t_edges=[])))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ValidationError, match="line 1, column"):
            parse("{\"m\": }")

    def test_document_must_be_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            parse("[1, 2]")

    def test_deep_nesting_is_malformed(self):
        with pytest.raises(ValidationError, match="nested too deeply"):
            parse('{"m": ' + "[" * 100000)

    def test_edge_rows_shape_checked(self):
        bad = dict(FREE2_DOC, s_edges=[["a", "one", "a"]])
        with pytest.raises(ValidationError, match="node, label, node"):
            parse(json.dumps(bad))

    def test_pair_without_t_edges_defaults_empty(self):
        built = parse(json.dumps({"m": 1, "n": 1, "theta": [[1, 1, 1, 1]],
                                  "base": ["b"], "s_edges": []}))
        assert built.t_edges == {}

    def test_duplicate_edge_slot_rejected_on_build(self):
        with pytest.raises(ValidationError, match="declared twice"):
            parse(json.dumps(dict(
                CYCLE_DOC, s_edges=[["a", 1, "b"], ["a", 1, "a"]])))

    def test_every_presentation_round_trips(self, pair_space):
        for x in single_space() + [pp for pp, _, _ in pair_space[::23]]:
            assert parse(json.dumps(x.to_dict())) == x


# -- rendering ---------------------------------------------------------------


class TestRender:
    def test_scalars_lists_and_dicts(self):
        text = render({"ok": True, "depth": 3, "witness": None,
                       "rows": [], "parts": {"left": [1, 2], "right": False}})
        assert text == ("ok: true\n"
                        "depth: 3\n"
                        "witness: -\n"
                        "rows: (none)\n"
                        "parts:\n"
                        "  left: [1, 2]\n"
                        "  right: false\n")

    def test_export_dot_exact_bytes(self):
        pp = parse(json.dumps({
            "m": 1, "n": 1, "theta": [[1, 1, 1, 1]],
            "base": ["a", "b"],
            "s_edges": [["a", 1, "b"]], "t_edges": [["b", 1, "a"]]}))
        assert export_dot(pp) == (
            'digraph presentation {\n'
            '  "a";\n'
            '  "b";\n'
            '  "a" -> "b" [style=solid, label="s 1"];\n'
            '  "b" -> "a" [style=dashed, label="t 1"];\n'
            '}\n')


# -- exit codes --------------------------------------------------------------


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        assert main(["wold", doc_file(tmp_path, CYCLE_DOC)]) == 0
        out = capsys.readouterr().out
        assert "row_unitary: true" in out

    def test_invalid_input_is_two(self, tmp_path, capsys):
        bad = doc_file(tmp_path, dict(FREE2_DOC, typo=1))
        assert main(["wold", bad]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_large_partial_theta_is_two(self, tmp_path, capsys):
        doc = {"m": 1000, "n": 1000, "theta": [], "base": [], "s_edges": []}
        assert main(["validate", doc_file(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "error: theta domain must be all of [m] x [n]\n")

    def test_wrong_document_kind_is_two(self, tmp_path, capsys):
        assert main(["slocinski", doc_file(tmp_path, FREE2_DOC)]) == 2
        assert "pair document" in capsys.readouterr().err
        assert main(["wold", doc_file(tmp_path, FOUR_CORNERS_DOC)]) == 2

    def test_missing_file_is_two(self, capsys):
        assert main(["wold", "/nonexistent/doc.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_property_failure_is_one(self, tmp_path, capsys):
        path = doc_file(tmp_path, NONCOMMUTING_DOC)
        assert main(["check-commute", path]) == 1
        assert "commuting: false" in capsys.readouterr().out

    def test_contract_violation_is_one(self, tmp_path, capsys):
        # jointly non-injective pair: the decomposition walk trips the
        # predecessor contract
        path = doc_file(tmp_path, COLLISION_DOC)
        assert main(["slocinski", path]) == 1
        assert "property fails" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, condition, detail", [
        (FAILING_A_DOC, "T-unitary-part-of-S-shift-closed-under-S-adjoint",
         "its S-predecessor <n3> is T-shift"),
        (FAILING_B_DOC, "unitary-part-of-S-closed-under-T-adjoint",
         "its T-predecessor <n2> is S-shift"),
    ], ids=("A", "B"))
    def test_failing_decomposition_is_one(self, tmp_path, capsys, doc,
                                          condition, detail):
        path = doc_file(tmp_path, doc)
        assert main(["slocinski", path]) == 1
        assert "exists: false" in capsys.readouterr().out
        assert main(["slocinski", path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is False
        assert payload["failure_witness"] == {
            "condition": condition, "element": "<n1>", "detail": detail}

    def test_validate_reports_violations_with_one(self, tmp_path, capsys):
        bad = {"m": 1, "base": ["a"], "s_edges": [["a", 2, "a"]]}
        assert main(["validate", doc_file(tmp_path, bad)]) == 1
        out = capsys.readouterr().out
        assert "valid: false" in out
        assert "violations:" in out

    def test_budget_exceeded_is_three(self, capsys):
        code = main(["search", "--max-base", "4", "--m", "2", "--n", "2",
                     "--theta-all", "--property", "doubly-commuting"])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_over_budget_doubly_window_gives_the_verdict(self, tmp_path,
                                                         capsys):
        # the default window |base| + 2 = 14 of an edge-free 2x2 pair
        # holds far more than a million free words: the failure listing
        # is refused up front, the exact verdict is not
        doc = dict(TWISTED_FREE_DOC, base=[f"b{q}" for q in range(12)])
        assert main(["check-doubly", doc_file(tmp_path, doc)]) == 1
        assert "budget exceeded: pair window at depth 14" in \
            capsys.readouterr().err
        assert main(["check-doubly", doc_file(tmp_path, doc), "--json"]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out) == {"doubly_commuting": False,
                                       "failures": None}
        assert "budget exceeded: pair window at depth 14" in out.err

    def test_over_budget_pair_slocinski_answers(self, tmp_path, capsys):
        # the same pair's decomposition and hypotheses sweep no window,
        # so they answer exactly where check-doubly's listing is refused
        doc = dict(TWISTED_FREE_DOC, base=[f"b{q}" for q in range(12)])
        assert main(["slocinski", doc_file(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is True
        assert payload["hypotheses"]["doubly_commuting"] is False
        assert payload["H_ss"]["seeds"] == [f"<b{q}>" for q in range(12)]


# -- malformed input ---------------------------------------------------------

# the fuzz test's replacement values: one of every JSON type, with the
# float, bool and string lookalikes of an integer
JUNK = (None, [], ["x"], {}, {"x": 1}, 1.5, True, "1")


def _slots(value, path=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _slots(item, path + (key,))


def mutant(doc: dict, rng: random.Random) -> dict:
    """``doc`` with one key dropped, or one value or row entry replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = rng.choice(list(_slots(doc)))
    holder = doc
    for key in parents:
        holder = holder[key]
    if isinstance(holder, dict) and rng.random() < 0.25:
        del holder[last]
    else:
        holder[last] = rng.choice(JUNK)
    return doc


class TestMalformedInput:
    def test_fuzzed_documents_never_escape_main(self, capsys, monkeypatch):
        rng = random.Random(8)
        docs = (FREE2_DOC, CYCLE_DOC, FOUR_CORNERS_DOC, TWISTED_FREE_DOC,
                COLLISION_DOC, NONCOMMUTING_DOC)
        codes = set()
        for _ in range(300):
            text = json.dumps(mutant(rng.choice(docs), rng))
            for command in ("validate", "export-dot"):
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                codes.add(main([command, "-"]))
        capsys.readouterr()
        assert codes == {0, 1, 2}

    @pytest.mark.parametrize("doc, message", [
        (dict(FREE2_DOC, base=[["x"]]), "base must be a list of node names"),
        (dict(FREE2_DOC, base=[1]), "base must be a list of node names"),
        (dict(CYCLE_DOC, s_edges=[["a", 1, {"x": 1}]]), "node, label, node"),
        (dict(CYCLE_DOC, s_edges=[["a", 1, 5]]), "node, label, node"),
        (dict(FOUR_CORNERS_DOC, theta=[[1, 1, 1.5, 1]]), "non-integer"),
        (dict(FOUR_CORNERS_DOC, theta=[[1, 1, [1], 1]]), "non-integer"),
        (dict(FOUR_CORNERS_DOC, theta=[[1, 1, "1", 1]]), "non-integer"),
    ])
    def test_malformed_document_is_two(self, tmp_path, capsys, doc, message):
        for command in ("validate", "export-dot"):
            assert main([command, doc_file(tmp_path, doc)]) == 2
            assert message in capsys.readouterr().err

    def test_non_utf8_input_is_two(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"m": 2, "base": ["\xff"], "s_edges": []}')
        assert main(["validate", str(path)]) == 2
        assert "error: input is not UTF-8" in capsys.readouterr().err
        # stdin decodes undecodable bytes to lone surrogates
        text = path.read_bytes().decode("utf-8", "surrogateescape")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["validate", "-"]) == 2
        assert "error: input is not UTF-8" in capsys.readouterr().err

    def test_export_dot_refuses_a_duplicate_slot(self, tmp_path, capsys):
        doc = dict(CYCLE_DOC, s_edges=[["a", 1, "b"], ["a", 1, "a"]])
        assert main(["export-dot", doc_file(tmp_path, doc)]) == 2
        assert "declared twice" in capsys.readouterr().err


# -- subcommands -------------------------------------------------------------


class TestSubcommands:
    def test_wold_free_family(self, tmp_path, capsys):
        assert main(["wold", doc_file(tmp_path, FREE2_DOC)]) == 0
        out = capsys.readouterr().out
        assert "multiplicity: 1" in out
        assert "row_unitary: false" in out

    def test_classify_cycle(self, tmp_path, capsys):
        assert main(["classify", doc_file(tmp_path, CYCLE_DOC)]) == 0
        out = capsys.readouterr().out
        assert "components:" in out
        assert "H_sing:" in out

    def test_check_commute_ok(self, tmp_path, capsys):
        assert main(["check-commute",
                     doc_file(tmp_path, FOUR_CORNERS_DOC)]) == 0
        assert "commuting: true" in capsys.readouterr().out

    def test_check_doubly_four_corners(self, tmp_path, capsys):
        assert main(["check-doubly",
                     doc_file(tmp_path, FOUR_CORNERS_DOC)]) == 0
        assert "doubly_commuting: true" in capsys.readouterr().out

    def test_twisted_free_pair_commutes_but_not_doubly(self, tmp_path,
                                                       capsys):
        # the twist scrambles the adjoint displays even with no edges
        path = doc_file(tmp_path, TWISTED_FREE_DOC)
        assert main(["check-commute", path]) == 0
        assert "commuting: true" in capsys.readouterr().out
        assert main(["check-doubly", path]) == 1
        assert "doubly_commuting: false" in capsys.readouterr().out

    def test_check_doubly_failure(self, tmp_path, capsys):
        assert main(["check-doubly", doc_file(tmp_path, COLLISION_DOC)]) == 1
        assert "doubly_commuting: false" in capsys.readouterr().out

    def test_slocinski_four_corners(self, tmp_path, capsys):
        path = doc_file(tmp_path, FOUR_CORNERS_DOC)
        assert main(["slocinski", path]) == 0
        out = capsys.readouterr().out
        assert "exists: true" in out
        assert main(["slocinski", path, "--order", "ts"]) == 0

    def test_oracle_subcommand(self, tmp_path, capsys):
        assert main(["oracle", doc_file(tmp_path, FOUR_CORNERS_DOC),
                     "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "ok: true" in out
        assert "depth: 4" in out

    def test_oracle_depth_budget(self, tmp_path, capsys):
        free3 = {"m": 3, "base": ["b"], "s_edges": []}
        assert main(["oracle", doc_file(tmp_path, free3),
                     "--depth", "11"]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_oracle_depth_below_one_is_two(self, tmp_path, capsys):
        path = doc_file(tmp_path, CYCLE_DOC)
        for depth in ("0", "-1"):
            assert main(["oracle", path, "--depth", depth]) == 2
            assert "depth must be at least 1" in capsys.readouterr().err

    def test_search_subcommand(self, capsys):
        code = main(["search", "--max-base", "1", "--m", "1", "--n", "1",
                     "--property", "doubly-commuting", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["candidates"] == 4
        assert len(payload["hits"]) == 4

    def test_property_choices_are_the_predicates(self, capsys):
        from rowiso.properties import PROPERTIES
        from rowiso.search import PREDICATES

        assert tuple(PREDICATES) == PROPERTIES
        with pytest.raises(SystemExit) as exc:
            main(["search", "--help"])
        assert exc.value.code == 0
        assert "{" + ",".join(sorted(PREDICATES)) + "}" in \
            capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["search", "--max-base", "1", "--m", "1", "--n", "1",
                  "--property", "unknown"])
        assert exc.value.code == 2
        assert ", ".join(map(repr, sorted(PREDICATES))) in \
            capsys.readouterr().err

    def test_export_dot_to_stdout(self, tmp_path, capsys):
        assert main(["export-dot", doc_file(tmp_path, FOUR_CORNERS_DOC)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph presentation {")
        assert out.endswith("}\n")
        assert '"b" -> "b" [style=solid, label="s 1"];' in out

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CYCLE_DOC)))
        assert main(["wold", "-"]) == 0
        assert "row_unitary: true" in capsys.readouterr().out


# -- machine output ----------------------------------------------------------


def closure_json(*seeds):
    return {"mode": "forward-closure", "seeds": list(seeds)}


def explicit_json(*seeds):
    return {"mode": "explicit-finite", "seeds": list(seeds)}


# full --json payloads, fixed before descriptions became node sets
CYCLE_WOLD_JSON = {
    "multiplicity": 0, "row_unitary": True,
    "shift_part": closure_json(),
    "unitary_part": closure_json("<a>", "<b>"),
    "wandering": [],
}
CYCLE_CLASSIFY_JSON = {
    "H_abs": explicit_json(),
    "H_dil": closure_json(),
    "H_sing": explicit_json("<a>", "<b>"),
    "PH": explicit_json("<a>", "<b>"),
    "components": [{
        "V": explicit_json("<a>", "<b>"),
        "cycle": [["a", 1], ["b", 1]],
        "kind": "singular",
        "span": closure_json("<a>", "<b>"),
    }],
}
FOUR_CORNERS_SLOCINSKI_JSON = {
    "H_ss": closure_json("<d>"),
    "H_su": closure_json("<c>"),
    "H_us": closure_json("<b>"),
    "H_uu": closure_json("<a>"),
    "exists": True,
    "failure_witness": None,
    "hypotheses": {
        "doubly_commuting": True,
        "n_at_least_2_or_theta_identity": True,
        "s_shift_finite_multiplicity": False,
        "s_unitary_singular": True,
        "t_unitary_singular": True,
    },
    "s_shift_multiplicity": {"count": None,
                             "generators": [["c", []], ["d", [1]]]},
    "t_shift_multiplicity": {"count": None,
                             "generators": [["b", []], ["d", [1]]]},
}


class TestJsonOutput:
    def test_json_is_canonical(self, tmp_path, capsys):
        path = doc_file(tmp_path, FOUR_CORNERS_DOC)
        assert main(["slocinski", path, "--json"]) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert first == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert payload["exists"] is True
        assert payload["hypotheses"]["doubly_commuting"] in (True, False)
        assert main(["slocinski", path, "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_json_pair_elements_are_their_names(self, tmp_path, capsys):
        # a pair element is a tuple, which json would write as a list;
        # it must render as its name, like every other element
        assert main(["check-doubly", doc_file(tmp_path, TWISTED_FREE_DOC),
                     "--json"]) == 1
        first = json.loads(capsys.readouterr().out)["failures"][0]
        assert first["element"] == "<t1|b>"
        assert (first["lhs"], first["rhs"]) == ("<s2|b>", "<s1|b>")
        assert main(["slocinski", doc_file(tmp_path, FOUR_CORNERS_DOC),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [payload[key]["seeds"] for key in
                ("H_uu", "H_us", "H_su", "H_ss")] == \
            [["<a>"], ["<b>"], ["<c>"], ["<d>"]]

    def test_json_wold(self, tmp_path, capsys):
        assert main(["wold", doc_file(tmp_path, FREE2_DOC), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["multiplicity"] == 1
        assert payload["unitary_part"]["seeds"] == []

    def test_json_single_elements_are_their_names(self, tmp_path, capsys):
        # an element is a tuple, which json would write as a list; it
        # must render as its name
        doc = {"m": 2, "base": ["a", "b", "c"],
               "s_edges": [["a", 1, "b"], ["b", 1, "a"]]}
        path = doc_file(tmp_path, doc)
        assert main(["wold", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unitary_part"]["seeds"] == ["<a>", "<b>"]
        assert payload["shift_part"]["seeds"] == ["<c>"]
        assert payload["wandering"] == ["<c>"]
        assert main(["classify", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["PH"]["seeds"] == ["<a>", "<b>"]
        assert payload["components"][0]["V"]["seeds"] == ["<a>", "<b>"]
        assert _jsonable([Elem((1,), "b"), Elem((2, 1), "c")]) == \
            ["<s1|b>", "<s2 s1|c>"]

    @pytest.mark.parametrize("command, doc, payload", [
        ("wold", CYCLE_DOC, CYCLE_WOLD_JSON),
        ("classify", CYCLE_DOC, CYCLE_CLASSIFY_JSON),
        ("slocinski", FOUR_CORNERS_DOC, FOUR_CORNERS_SLOCINSKI_JSON),
    ])
    def test_json_payloads_pinned(self, tmp_path, capsys, command, doc,
                                  payload):
        assert main([command, doc_file(tmp_path, doc), "--json"]) == 0
        assert capsys.readouterr().out == \
            json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_json_validate_violations(self, tmp_path, capsys):
        bad = {"m": 1, "base": ["a"], "s_edges": [["a", 2, "a"]]}
        assert main(["validate", doc_file(tmp_path, bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is False
        assert payload["violations"]


# -- cold start --------------------------------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")

# runs in a fresh interpreter: after each step, record the exit code,
# which of numpy, scipy, dataclasses and inspect are loaded and which
# rowiso modules
COLD_PROBE = """
import contextlib, io, json, sys

def heavy():
    return sorted({name.split(".")[0] for name in sys.modules}
                  & {"numpy", "scipy", "dataclasses", "inspect"})

def ours():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "rowiso")

steps = []
import rowiso
steps.append(["import rowiso", None, heavy(), ours()])
import rowiso.cli
steps.append(["import rowiso.cli", None, heavy(), ours()])
for argv in json.loads(sys.argv[1]):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = rowiso.cli.main(argv)
    steps.append([argv[0], code, heavy(), ours()])
print(json.dumps(steps))
"""

# importing the cli loads the package, errors, presentation and
# properties, which names the --property choices
CLI_IMPORTS = {"rowiso", "rowiso.cli", "rowiso.errors",
               "rowiso.presentation", "rowiso.properties"}
# (id, argv, exit code, what the subcommand loads beyond those five)
MODULE_TABLE = [
    ("validate-single", ["validate", "cycle"], 0, set()),
    ("validate-pair", ["validate", "corners"], 0, {"words", "pair"}),
    ("wold", ["wold", "cycle"], 0, {"wold"}),
    ("classify", ["classify", "cycle"], 0, {"wold", "lebesgue"}),
    ("check-commute", ["check-commute", "corners"], 0, {"words", "pair"}),
    ("check-doubly", ["check-doubly", "corners"], 0, {"words", "pair"}),
    ("slocinski", ["slocinski", "corners"], 0,
     {"words", "pair", "wold", "slocinski"}),
    # the claims come from wold; a single family needs no pair module
    ("oracle", ["oracle", "cycle"], 0, {"oracle", "wold"}),
    ("search", ["search", "--max-base", "1", "--m", "1", "--n", "1",
                "--property", "doubly-commuting"], 0,
     {"search", "words", "pair"}),
    ("export-dot", ["export-dot", "corners"], 0, {"words", "pair"}),
    ("invalid", ["validate", "invalid"], 2, set()),
]


def cold_run(runs: list) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", COLD_PROBE,
                           json.dumps(runs)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [tuple(step) for step in json.loads(proc.stdout)]


class TestColdStart:
    def test_only_the_oracle_loads_numpy(self, tmp_path):
        cycle = doc_file(tmp_path, CYCLE_DOC, "cycle.json")
        corners = doc_file(tmp_path, FOUR_CORNERS_DOC, "corners.json")
        free3 = doc_file(tmp_path, {"m": 3, "base": ["b"], "s_edges": []},
                         "free3.json")
        symbolic = [
            ["validate", cycle],
            ["wold", cycle],
            ["classify", cycle],
            ["check-commute", corners],
            ["check-doubly", corners],
            ["slocinski", corners],
            ["search", "--max-base", "1", "--m", "1", "--n", "1",
             "--property", "doubly-commuting"],
            ["export-dot", corners],
            ["oracle", free3, "--depth", "11"],
        ]
        steps = cold_run(symbolic + [["oracle", cycle]])
        *light, (label, code, heavy, _) = steps
        assert [step[1] for step in light] == [None, None] + [0] * 8 + [3]
        assert [step for step in light if step[2]] == []
        # numpy's own import loads inspect; nothing loads dataclasses
        assert (label, code, heavy) == ("oracle", 0, ["inspect", "numpy"])

    @pytest.mark.parametrize("argv,exit_code,extra",
                             [row[1:] for row in MODULE_TABLE],
                             ids=[row[0] for row in MODULE_TABLE])
    def test_each_subcommand_loads_its_modules(self, tmp_path, argv,
                                               exit_code, extra):
        docs = {"cycle": CYCLE_DOC, "corners": FOUR_CORNERS_DOC,
                "invalid": {"m": 1, "base": ["a"], "s_edges": [],
                            "colour": "red"}}
        argv = [doc_file(tmp_path, docs[a], f"{a}.json") if a in docs
                else a for a in argv]
        package, cli, run = cold_run([argv])
        assert package[3] == ["rowiso"]
        assert set(cli[3]) == CLI_IMPORTS
        assert run[1] == exit_code
        assert set(run[3]) == CLI_IMPORTS | {f"rowiso.{m}" for m in extra}
        # no step loads dataclasses; only the oracle's numpy loads inspect
        assert package[2] == cli[2] == []
        assert run[2] == (["inspect", "numpy"] if argv[0] == "oracle"
                          else [])

    def test_the_oracle_runs_without_scipy(self, tmp_path):
        # scipy made unimportable: the fault library, a pair model and
        # the oracle subcommand must all still pass
        probe = """
import contextlib, io, sys
sys.modules["scipy"] = None
from rowiso.cli import main
from rowiso.oracle import materialize, verify_relations
from rowiso.pair import PairPresentation
from rowiso.search import run_fault_injection
from rowiso.words import Theta
faults = run_fault_injection()
assert all(faults.values()), faults
pp = PairPresentation(Theta.identity(1, 1), ("b", "c"), {("b", 1): "c"},
                      {("c", 1): "b"})
assert verify_relations(materialize(pp, 4)).ok
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["oracle", sys.argv[1]]) == 0
print("ok")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        proc = subprocess.run(
            [sys.executable, "-c", probe,
             doc_file(tmp_path, CYCLE_DOC, "cycle.json")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
