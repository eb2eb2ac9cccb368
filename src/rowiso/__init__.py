"""Symbolic row-isometries on a countable basis, with exact decompositions.

A finitely presented action of one or two families of isometries on an
orthonormal basis, where every structural question (Wold split,
spectral kind of the unitary part, existence of the four-fold pair
decomposition) is answered exactly as a statement about basis index
sets, then independently re-verified by exact integer matrix identities on a
truncation.

The namespace is lazy (PEP 562): ``import rowiso`` loads no submodule,
and each public name is imported from its submodule on first access.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": ("ContractViolation", "NotCommuting", "ResourceExceeded",
               "RowisoError", "ValidationError"),
    "lebesgue": ("LebesgueResult", "UnitaryComponent", "UnitaryKind",
                 "check_commutant_reduces_sing", "classify_unitary",
                 "sing_membership_test"),
    "oracle": ("OracleModel", "Report", "materialize", "verify_relations",
               "verify_subspace"),
    "pair": ("CommutationFailure", "CommutationReport", "PairElem",
             "PairPresentation", "check_doubly_commute",
             "check_joint_isometry", "check_theta_commute", "enumerate_pair",
             "free_pair", "mirror", "mirror_elem", "s_apply", "s_pred",
             "t_apply", "t_pred", "validate_pair"),
    "presentation": ("Elem", "Presentation", "ValidationReport", "apply",
                     "free_presentation", "pred", "validate",
                     "enumerate_basis"),
    "search": ("SearchSpace", "all_thetas", "fault_library",
               "run_fault_injection", "search"),
    "slocinski": ("FailureWitness", "HypothesisReport", "ImplicationReport",
                  "ImplicationRow", "Multiplicity", "SlocinskiResult",
                  "check_hypotheses", "dead_nodes", "s_in_V", "s_membership",
                  "s_shift_multiplicity", "slocinski", "t_in_V",
                  "t_membership", "t_shift_multiplicity",
                  "verify_theorem_implications"),
    "wold": ("Part", "SubspaceDesc", "WoldResult", "is_row_unitary",
             "membership", "wold"),
    "words": ("Theta", "commute_s_left", "commute_s_right", "commute_t_left",
              "commute_t_right", "denormalize", "normal_form_parts",
              "normalize", "s_outside_to_t_outside", "theta_ext",
              "validate_word"),
}
_RENAMED = {"enumerate_basis": "enumerate"}
# submodules that are public names themselves
_SUBMODULES = ("errors", "lebesgue", "oracle", "pair", "presentation",
               "words")

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
# functions named like the submodule that defines them
_SHADOWED = _HOME.keys() & _EXPORTS.keys()

__all__ = sorted({*_HOME, *_SUBMODULES})


def __getattr__(name):
    if name in _HOME:
        module = importlib.import_module(f"{__name__}.{_HOME[name]}")
        value = getattr(module, _RENAMED.get(name, name))
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing a submodule binds it on its package; where a public
        # function has the submodule's name, the function keeps the name
        if name in _SHADOWED and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
