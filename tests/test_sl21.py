import pytest

from degenq.expr import eval_in_rep
from degenq.linalg import Vec
from degenq.relations import odd_pair_element
from degenq.reps import verify_relations
from degenq.scalars import RatFn
from degenq.sl21 import (
    P21,
    HighestWeightSL21,
    ModuleType,
    atypicality_type,
    check_structural_identities,
    simple_quotient,
    verma_module,
)

rfq = RatFn.q


def hw(ell, sign1=1, lambda2=None):
    return HighestWeightSL21(ell, sign1, lambda2 if lambda2 is not None else rfq(3))


# -- classification ------------------------------------------------------------------


def test_atypicality_trichotomy():
    assert atypicality_type(hw(2, 1, rfq(5))) == (ModuleType.TYPICAL, 12)
    assert atypicality_type(hw(3, 1, RatFn.integer(-1))) == (ModuleType.ATYPICAL_A, 7)
    assert atypicality_type(hw(2, 1, rfq(-3))) == (ModuleType.ATYPICAL_B, 7)
    assert atypicality_type(hw(0, 1, rfq(-1))) == (ModuleType.ATYPICAL_B, 3)


def test_atypicality_cases_mutually_exclusive():
    # lambda2 = +-1 and lambda2 = +-q^-1 lambda1^-1 cannot hold at once for
    # lambda1 = +-q^ell, so each tested weight lands in exactly one class.
    for ell in range(4):
        for sign1 in (1, -1):
            for lam2 in (rfq(3), RatFn.one(), RatFn.integer(-1), rfq(-1 - ell, sign1)):
                kinds = []
                l1 = rfq(ell, sign1)
                if lam2 in (RatFn.one(), RatFn.integer(-1)):
                    kinds.append("a")
                if not (rfq(1) * l1 * lam2 - rfq(-1) * l1.inv() * lam2.inv()):
                    kinds.append("b")
                assert len(kinds) <= 1, (ell, sign1, str(lam2))


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        HighestWeightSL21(-1, 1, rfq(1))
    with pytest.raises(ValueError):
        HighestWeightSL21(0, 2, rfq(1))
    with pytest.raises(ValueError):
        HighestWeightSL21(0, 1, RatFn.zero())


# -- induced module -------------------------------------------------------------------


def test_verma_dimension():
    for ell in range(4):
        assert verma_module(hw(ell)).dim == 4 * (ell + 1)


@pytest.mark.parametrize("ell", [0, 1, 2])
@pytest.mark.parametrize("sign1", [1, -1])
@pytest.mark.parametrize("lam2", [rfq(3), RatFn.integer(-1), rfq(-2)])
def test_verma_passes_relation_catalog(ell, sign1, lam2):
    vm = verma_module(HighestWeightSL21(ell, sign1, lam2))
    report = verify_relations(vm.rep)
    assert report.all_passed, [c.name for c in report.failures]


def test_verma_k2_eigenvalue_on_f2_layer():
    # k_2 acts on f_2 f_1^k v by -q^k lambda2
    lam2 = rfq(3)
    vm = verma_module(hw(2, 1, lam2))
    k2 = vm.rep.gen("K", 2) * vm.rep.gen("Kinv", 3)
    for k in range(3):
        col = vm.basis_labels.index((0, 1, k))
        v = Vec.unit(vm.dim, col)
        assert k2.apply(v) == v.scale(-rfq(k) * lam2)


def test_verma_highest_vector_annihilated():
    vm = verma_module(hw(2))
    v = Vec.unit(vm.dim, vm.highest_index)
    assert not vm.rep.gen("e", 1).apply(v)
    assert not vm.rep.gen("e", 2).apply(v)


def test_f_cap_squares_to_zero_and_twists():
    vm = verma_module(hw(3))
    rep = vm.rep
    F = eval_in_rep(odd_pair_element(P21), rep)
    assert (F * F).is_zero()
    f1, f2 = rep.gen("f", 1), rep.gen("f", 2)
    assert f1 * F == F.scale(rfq(-1)) * f1
    assert f2 * F == F.scale(rfq(-1, -1)) * f2


# -- simple quotients -------------------------------------------------------------------


def test_typical_quotient_is_whole_verma():
    vm = verma_module(hw(1, 1, rfq(3)))
    simple = simple_quotient(vm)
    assert simple.dim == 8


def test_atypical_a_quotient():
    simple = simple_quotient(verma_module(hw(1, 1, RatFn.one())))
    assert simple.dim == 3
    labels = set(simple.basis_labels)
    assert (0, 0, 0) in labels and (0, 0, 1) in labels


def test_atypical_b_quotient_ell0():
    # lambda1 = 1, lambda2 = q^-1: three dimensional with basis {v, f2 v, F v = f1 f2 v}
    simple = simple_quotient(verma_module(hw(0, 1, rfq(-1))))
    assert simple.dim == 3
    rep = simple.rep
    v = Vec.unit(3, simple.highest_index)
    f2v = rep.gen("f", 2).apply(v)
    ff2v = rep.gen("f", 1).apply(f2v)
    assert f2v and ff2v
    assert eval_in_rep(odd_pair_element(P21), rep).apply(v) == ff2v  # F v = f1 f2 v since f2 f1 v = 0


@pytest.mark.parametrize("sign1", [1, -1])
@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_dimension_matches_classification(ell, sign1):
    for lam2 in (rfq(3), RatFn.one(), RatFn.integer(-1), rfq(-1 - ell, sign1), rfq(-1 - ell, -sign1)):
        weight = HighestWeightSL21(ell, sign1, lam2)
        kind, expected = atypicality_type(weight)
        simple = simple_quotient(verma_module(weight))
        assert simple.dim == expected, (ell, sign1, str(lam2), kind)


def test_quotients_pass_relation_catalog():
    for weight in (hw(2, 1, rfq(3)), hw(2, 1, RatFn.one()), hw(2, 1, rfq(-3))):
        simple = simple_quotient(verma_module(weight))
        report = verify_relations(simple.rep)
        assert report.all_passed, [c.name for c in report.failures]


def test_structural_identities_in_atypical_quotients():
    for weight in (
        hw(2, 1, RatFn.one()),
        hw(3, -1, RatFn.integer(-1)),
        hw(2, 1, rfq(-3)),
        hw(3, 1, rfq(-4, -1)),
    ):
        simple = simple_quotient(verma_module(weight))
        checks = check_structural_identities(simple)
        assert checks
        for name, ok in checks:
            assert ok, (str(weight.lambda2), name)


def test_typical_has_no_structural_constraints():
    simple = simple_quotient(verma_module(hw(1, 1, rfq(3))))
    assert check_structural_identities(simple) == []
