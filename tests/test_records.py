"""The record classes keep what their callers rely on: value equality and
hashing for the frozen ones, which refuse assignment and validate a copy as
they validate a new record, the set-up store keyed by equal parameters, and
a fresh check list for each report."""

import pytest

from degenq import reps
from degenq.errors import InvalidInput, StrandMismatch
from degenq.expr import e
from degenq.invariants import BraidWord, InvariantResult
from degenq.relations import RelationEntry
from degenq.reports import Report
from degenq.rmatrix import RMatrixBundle, build_bundle
from degenq.scalars import GLParams, RatFn
from degenq.sl21 import HighestWeightSL21

ONE = RatFn.one()


def _frozen():
    """Each frozen record built twice, by position and by keyword, with the
    name of one of its fields."""
    params, word, q2 = GLParams(2, 1), BraidWord(2, (1, -1)), RatFn.q(2)
    bundle = build_bundle(params)
    mats = {name: getattr(bundle, name) for name in ("R", "Rinv", "Rcheck", "Rcheckinv", "T")}
    return [
        (GLParams(2, 1), GLParams(m=2, n=1), "m"),
        (BraidWord(2, (1, -1)), BraidWord(strands=2, letters=(1, -1)), "letters"),
        (
            InvariantResult(params, word, ONE, ONE, 0),
            InvariantResult(params=params, braid=word, markov_trace=ONE, invariant=ONE, writhe=0),
            "invariant",
        ),
        (RelationEntry("fam", "label", e(1)), RelationEntry(family="fam", label="label", expr=e(1)), "expr"),
        (bundle, RMatrixBundle(params=params, **mats), "R"),
        (HighestWeightSL21(0, 1, q2), HighestWeightSL21(ell=0, sign1=1, lambda2=q2), "lambda2"),
    ]


FROZEN = _frozen()


@pytest.mark.parametrize("a, b, field", FROZEN, ids=[type(a).__name__ for a, _, _ in FROZEN])
def test_frozen_records_compare_by_value_and_refuse_assignment(a, b, field):
    assert a is not b and a == b and not a != b
    if isinstance(a, RMatrixBundle):
        with pytest.raises(TypeError):  # SparseMat refuses hashing
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1


def test_a_copy_is_validated_as_a_new_record_is():
    assert GLParams(2, 1)._replace(n=3) == GLParams(2, 3)
    with pytest.raises(InvalidInput):
        GLParams(2, 1)._replace(m=0)
    with pytest.raises(StrandMismatch):
        BraidWord(3, (2,))._replace(strands=2)
    with pytest.raises(InvalidInput):
        HighestWeightSL21(0, 1, ONE)._replace(sign1=2)


def test_a_frozen_record_differs_in_any_field():
    assert GLParams(2, 1) != GLParams(1, 2)
    assert BraidWord(3, (1,)) != BraidWord(2, (1,))
    assert HighestWeightSL21(0, 1, ONE) != HighestWeightSL21(0, -1, ONE)
    assert len({GLParams(2, 1), GLParams(2, 1), GLParams(1, 2)}) == 2


def test_equal_params_share_one_setup_store():
    assert reps.setup(GLParams(2, 1)) is reps.setup(GLParams(2, 1))
    assert reps.setup(GLParams(2, 1)) is not reps.setup(GLParams(1, 2))


def test_each_report_has_its_own_check_list():
    first, second = Report(), Report()
    assert first.checks is not second.checks
    first.add("suite", "name", True)
    assert (len(first.checks), second.checks) == (1, [])
