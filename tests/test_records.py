"""The result records: slotted values with one compiled ``__init__`` each.

Every result type in :data:`rowiso.__all__` but the mutable
``OracleModel`` is a record.  A record is built by position or by
keyword and is equal only to a record of its own class, with a hash to
match.  Assignment is refused, and it pickles and copies.  Its repr is
the one the package printed when the records were frozen dataclasses.
``SubspaceDesc.presentation`` stays out of equality, hash and repr.
"""

import copy
import pickle

import pytest

import rowiso
from rowiso.errors import _Record
from rowiso.lebesgue import LebesgueResult, UnitaryComponent, UnitaryKind
from rowiso.oracle import OracleModel, Report, materialize
from rowiso.pair import CommutationFailure, PairElem
from rowiso.presentation import Elem, Presentation, ValidationReport
from rowiso.search import SearchSpace
from rowiso.slocinski import (FailureWitness, HypothesisReport,
                              ImplicationReport, ImplicationRow,
                              Multiplicity, SlocinskiResult)
from rowiso.wold import SubspaceDesc, WoldResult

P = Presentation(1, ("a", "b"), {("a", 1): "b"})
D = SubspaceDesc((Elem((), "a"),), frozenset({"a"}), P)
E = SubspaceDesc((Elem((1,), "a"),))
ROW = ImplicationRow("n", True, False)

# one record of each class, with its repr as a frozen dataclass wrote it
CASES = [
    (ValidationReport(("x",)), "ValidationReport(x)"),
    (D, "SubspaceDesc(seeds=(<a>,), nodes=frozenset({'a'}))"),
    (WoldResult(D, E, (Elem((), "a"),), 1),
     "WoldResult(unitary_part=SubspaceDesc(seeds=(<a>,), "
     "nodes=frozenset({'a'})), shift_part=SubspaceDesc(seeds=(<s1|a>,), "
     "nodes=None), wandering=(<a>,), multiplicity=1)"),
    (UnitaryComponent((("a", 1),), D, UnitaryKind.SINGULAR, E),
     "UnitaryComponent(cycle=(('a', 1),), span=SubspaceDesc(seeds=(<a>,), "
     "nodes=frozenset({'a'})), kind=<UnitaryKind.SINGULAR: 'singular'>, "
     "V=SubspaceDesc(seeds=(<s1|a>,), nodes=None))"),
    (LebesgueResult((), E, E, E, E),
     "LebesgueResult(components=(), "
     "H_sing=SubspaceDesc(seeds=(<s1|a>,), nodes=None), "
     "H_dil=SubspaceDesc(seeds=(<s1|a>,), nodes=None), "
     "H_abs=SubspaceDesc(seeds=(<s1|a>,), nodes=None), "
     "PH=SubspaceDesc(seeds=(<s1|a>,), nodes=None))"),
    (Report((("r", 1),)), "Report(1 violations; first: ('r', 1))"),
    (CommutationFailure("id", PairElem((), (1,), "a"), 1, 2, None, "z"),
     "CommutationFailure(identity='id', element=<s1|a>, i=1, j=2, "
     "lhs=None, rhs='z')"),
    (SearchSpace(1, 1, 1, ()), "SearchSpace(max_base=1, m=1, n=1, thetas=())"),
    (Multiplicity(None, (("a", (1,)),)), "Multiplicity(infinite)"),
    (FailureWitness("c1", PairElem((1,), (), "b"), "detail"),
     "FailureWitness(condition='c1', element=<t1|b>, detail='detail')"),
    (SlocinskiResult(False, E, E, E, E, None),
     "SlocinskiResult(exists=False, "
     "H_uu=SubspaceDesc(seeds=(<s1|a>,), nodes=None), "
     "H_us=SubspaceDesc(seeds=(<s1|a>,), nodes=None), "
     "H_su=SubspaceDesc(seeds=(<s1|a>,), nodes=None), "
     "H_ss=SubspaceDesc(seeds=(<s1|a>,), nodes=None), failure_witness=None)"),
    (HypothesisReport(True, False, True, False, True),
     "HypothesisReport(doubly_commuting=True, s_unitary_singular=False, "
     "t_unitary_singular=True, s_shift_finite_multiplicity=False, "
     "n_at_least_2_or_theta_identity=True)"),
    (ImplicationRow("n", True, None),
     "ImplicationRow(name='n', hypotheses_hold=True, conclusion_holds=None, "
     "witness=None)"),
    (ImplicationReport((ROW,)), "ImplicationReport(violated: n)"),
]
RECORDS = [record for record, _ in CASES]
IDS = [type(record).__name__ for record in RECORDS]


def values(record) -> tuple:
    return tuple(getattr(record, f) for f in type(record)._fields)


def test_every_record_class_has_a_case():
    public = {name for name in rowiso.__all__
              if isinstance(getattr(rowiso, name), type)
              and issubclass(getattr(rowiso, name), _Record)}
    assert public == set(IDS)
    assert len(public) == 14


@pytest.mark.parametrize("record,text", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_built_by_position_or_keyword(record):
    cls = type(record)
    by_position = cls(*values(record))
    by_keyword = cls(**{f: getattr(record, f) for f in cls._fields})
    assert by_position == record == by_keyword
    assert by_position is not record
    assert hash(by_position) == hash(record) == hash(by_keyword)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equal_only_within_its_class(record):
    assert record != values(record)
    assert record.__eq__(values(record)) is NotImplemented
    for other in RECORDS:
        assert (other == record) is (other is record)
    # the same field values in another record class
    assert ValidationReport(("x",)) != Report(("x",))
    assert Report(("x",)) == Report(("x",))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_assignment_is_refused(record):
    field = type(record)._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record):
    for again in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert type(again) is type(record)
        assert again == record and hash(again) == hash(record)
        assert repr(again) == repr(record)
    assert pickle.loads(pickle.dumps(D)).presentation == P
    assert copy.copy(D).presentation is P


def test_defaults_trail():
    assert ValidationReport() == ValidationReport(())
    assert repr(ValidationReport()) == "ValidationReport(ok)"
    assert SubspaceDesc(E.seeds) == E
    assert E.nodes is None and E.presentation is None
    assert ImplicationRow("n", True, False).witness is None
    with pytest.raises(TypeError, match="SubspaceDesc.__init__"):
        SubspaceDesc()


def test_a_description_ignores_its_presentation():
    twin = Presentation(1, ("a", "b"), {("b", 1): "a"})
    for other in (twin, None, "anything"):
        same = SubspaceDesc(D.seeds, D.nodes, other)
        assert same == D and hash(same) == hash(D)
        assert repr(same) == repr(D)
    assert SubspaceDesc(D.seeds, frozenset({"b"}), P) != D


def test_the_oracle_model_stays_mutable():
    model = materialize(P, 2)
    again = OracleModel(
        presentation=P, depth=2, basis=model.basis, keys=model.keys,
        imgs=dict(model.imgs), depths=model.depths, letters=model.letters,
        adjoint_cost=model.adjoint_cost)
    assert again.depth == model.depth and again.keys == model.keys
    assert all(not again.imgs[key].flags.writeable for key in again.keys)
    again.depth = 1
    assert again.depth == 1
