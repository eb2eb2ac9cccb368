"""The package namespace: every public name, loaded on first access.

``import rowiso`` loads no submodule; each name is imported from its
home module when first read.  Three public functions share their
module's name (``wold``, ``search``, ``slocinski``); importing those
modules must not replace the functions on the package.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rowiso

SRC = str(Path(__file__).resolve().parent.parent / "src")

ALL = [
    "CommutationFailure", "CommutationReport", "ContractViolation", "Elem",
    "FailureWitness", "HypothesisReport", "ImplicationReport",
    "ImplicationRow", "LebesgueResult", "Multiplicity", "NotCommuting",
    "OracleModel", "PairElem", "PairPresentation", "Part", "Presentation",
    "Report", "ResourceExceeded", "RowisoError", "SearchSpace",
    "SlocinskiResult", "SubspaceDesc", "Theta", "UnitaryComponent",
    "UnitaryKind", "ValidationError", "ValidationReport", "WoldResult",
    "all_thetas", "apply", "check_commutant_reduces_sing",
    "check_doubly_commute", "check_hypotheses", "check_joint_isometry",
    "check_theta_commute", "classify_unitary", "commute_s_left",
    "commute_s_right", "commute_t_left", "commute_t_right", "dead_nodes",
    "denormalize", "enumerate_basis", "enumerate_pair", "errors",
    "fault_library", "free_pair", "free_presentation", "is_row_unitary",
    "lebesgue", "materialize", "membership", "mirror", "mirror_elem",
    "normal_form_parts", "normalize", "oracle", "pair", "pred",
    "presentation", "run_fault_injection", "s_apply", "s_in_V",
    "s_membership", "s_outside_to_t_outside", "s_pred",
    "s_shift_multiplicity", "search", "sing_membership_test", "slocinski",
    "t_apply", "t_in_V", "t_membership", "t_pred", "t_shift_multiplicity",
    "theta_ext", "validate", "validate_pair", "validate_word",
    "verify_relations", "verify_subspace", "verify_theorem_implications",
    "wold", "words",
]
SUBMODULES = {"errors", "lebesgue", "oracle", "pair", "presentation",
              "words"}


def fresh(code: str):
    """Run ``code`` in a fresh interpreter; its last line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_all_is_unchanged():
    assert len(ALL) == 84
    assert rowiso.__all__ == ALL


def test_each_name_is_its_home_object():
    for name in ALL:
        value = getattr(rowiso, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"rowiso.{name}"]
            continue
        # the object its defining module binds under its own name
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("rowiso."), name
        assert getattr(home, value.__name__) is value, name


def test_star_import_binds_every_name():
    ns = {}
    exec("from rowiso import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == ALL
    assert all(ns[name] is getattr(rowiso, name) for name in ALL)


def test_dir_lists_every_name():
    assert set(ALL) <= set(dir(rowiso))


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rowiso.no_such_name
    assert not hasattr(rowiso, "cli_main")


def test_import_loads_nothing_and_functions_keep_their_names():
    loaded, kinds = fresh("""
import json, sys, types
import rowiso
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "rowiso")
import rowiso.wold, rowiso.search, rowiso.slocinski
from rowiso import wold, search, slocinski
kinds = [type(f).__name__ for f in (wold, search, slocinski,
                                     rowiso.wold, rowiso.search,
                                     rowiso.slocinski)]
print(json.dumps([loaded, kinds]))
""")
    assert loaded == ["rowiso"]
    assert kinds == ["function"] * 6
    assert isinstance(rowiso.wold, types.FunctionType)
