"""Symbolic row-isometries on a countable basis, with exact decompositions.

A finitely presented action of one or two families of isometries on an
orthonormal basis, where every structural question (Wold split,
spectral kind of the unitary part, existence of the four-fold pair
decomposition) is answered exactly as a statement about basis index
sets, then independently re-verified by exact integer matrix identities on a
truncation.
"""

from .errors import (ContractViolation, NotCommuting, ResourceExceeded,
                     RowisoError, ValidationError)
from .lebesgue import (LebesgueResult, UnitaryComponent, UnitaryKind,
                       check_commutant_reduces_sing, classify_unitary,
                       sing_membership_test)
from .oracle import (OracleModel, Report, materialize, verify_relations,
                     verify_subspace)
from .pair import (CommutationFailure, CommutationReport, PairElem,
                   PairPresentation, check_doubly_commute,
                   check_joint_isometry, check_theta_commute, enumerate_pair,
                   free_pair, mirror, mirror_elem, s_apply, s_pred,
                   t_apply, t_pred, validate_pair)
from .presentation import (Elem, Presentation, ValidationReport, apply,
                           free_presentation, pred, validate)
from .presentation import enumerate as enumerate_basis
from .search import (SearchSpace, all_thetas, fault_library,
                     run_fault_injection, search)
from .slocinski import (FailureWitness, HypothesisReport, ImplicationReport,
                        ImplicationRow, Multiplicity, SlocinskiResult,
                        check_hypotheses, dead_nodes, s_in_V, s_membership,
                        s_shift_multiplicity, slocinski, t_in_V, t_membership,
                        t_shift_multiplicity, verify_theorem_implications)
from .wold import (Part, SubspaceDesc, WoldResult, is_row_unitary, membership,
                   wold)
from .words import (Theta, commute_s_left, commute_s_right, commute_t_left,
                    commute_t_right, denormalize, normal_form_parts,
                    normalize, s_outside_to_t_outside, theta_ext,
                    validate_word)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
