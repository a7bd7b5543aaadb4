import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenq import expr
from degenq.expr import eval_in_rep
from degenq.linalg import Vec
from degenq.relations import odd_pair_element
from degenq.reps import verify_relations
from degenq.scalars import Q_MINUS_QINV, RatFn, _digit_bits, parse_scalar, quantum_int
from degenq.sl21 import (
    P21,
    HighestWeightSL21,
    ModuleType,
    _monomial_lambda2_bits,
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
        HighestWeightSL21(ell=-1, sign1=1, lambda2=RatFn.one())
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


def _verma_reference(weight):
    """{generator: entries} of the induced module with the raising
    coefficients written as divisions, as the commutation rules state them:
    [e_1, f_1^k] v = [k] (k_1 q^(1-k) - k_1^-1 q^(k-1))/(q - q^-1) f_1^(k-1) v,
    and e_2 on F f_2 f_1^k v has the diagonal coefficient [mu] + lambda2 q^(k+1),
    with [mu] = (mu - mu^-1)/(q - q^-1) at mu = lambda2 q^k."""
    ell, l1, l2 = weight.ell, weight.lambda1, weight.lambda2
    one, q = RatFn.one(), rfq(1)
    raise_e1 = [
        RatFn(quantum_int(k)) * (l1 * rfq(1 - k) - l1.inv() * rfq(k - 1)) / Q_MINUS_QINV
        for k in range(ell + 1)
    ]
    d = [(mu - mu.inv()) / Q_MINUS_QINV for mu in (l2 * rfq(k) for k in range(ell + 1))]
    # (generator, source (eF, e2), target (eF, e2), shift of k, coefficient at k)
    rules = [
        ("f1", (0, 0), (0, 0), 1, lambda k: one),
        ("f1", (0, 1), (1, 0), 0, lambda k: one),
        ("f1", (0, 1), (0, 1), 1, lambda k: q),
        ("f1", (1, 0), (1, 0), 1, lambda k: q.inv()),
        ("f1", (1, 1), (1, 1), 1, lambda k: one),
        ("f2", (0, 0), (0, 1), 0, lambda k: one),
        ("f2", (1, 0), (1, 1), 0, lambda k: -q.inv()),
        ("e2", (0, 1), (0, 0), 0, lambda k: d[k]),
        ("e2", (1, 0), (0, 0), 1, lambda k: -l2 * rfq(k + 1)),
        ("e2", (1, 1), (1, 0), 0, lambda k: d[k] + l2 * rfq(k + 1)),
        ("e2", (1, 1), (0, 1), 1, lambda k: l2 * rfq(k + 2)),
        ("e1", (1, 0), (0, 1), 0, lambda k: l1.inv() * rfq(2 * k)),
    ]
    rules += [("e1", part, part, -1, lambda k: raise_e1[k]) for part in ((0, 0), (0, 1), (1, 0), (1, 1))]
    labels = [(eF, e2, k) for eF in (0, 1) for e2 in (0, 1) for k in range(ell + 1)]
    pos = {label: t for t, label in enumerate(labels)}
    mats = {name: {} for name in ("e1", "e2", "f1", "f2", "K1", "K2", "K3", "Kinv1", "Kinv2", "Kinv3")}
    for (eF, e2, k), col in pos.items():
        for name, source, target, shift, coeff in rules:
            row = pos.get((*target, k + shift))
            if source == (eF, e2) and row is not None and coeff(k):
                mats[name][(row, col)] = mats[name].get((row, col), RatFn.zero()) + coeff(k)
        n1, n2 = k + eF, e2 + eF  # the f_1 and the f_2 letters
        for b, value in enumerate((l1 * l2 * rfq(-n1), l2 * rfq(n1 - n2), rfq(-1, -1) ** n2), 1):
            mats[f"K{b}"][(col, col)] = value
            mats[f"Kinv{b}"][(col, col)] = one / value
    return mats


_SIGNS = st.sampled_from((1, -1))


@st.composite
def _highest_weights(draw):
    ell, sign1 = draw(st.integers(0, 10)), draw(_SIGNS)
    lambda1 = rfq(ell, sign1)
    lambda2 = draw(
        st.one_of(
            st.builds(rfq, st.integers(-12, 12), _SIGNS),
            st.just(parse_scalar("(q+2)/(q-3)")),
            st.builds(RatFn.integer, _SIGNS),
            st.builds(lambda s: rfq(-1, s) * lambda1.inv(), _SIGNS),
        )
    )
    return HighestWeightSL21(ell, sign1, lambda2)


@settings(max_examples=60, deadline=None)
@given(_highest_weights())
def test_verma_matrices_match_the_division_formulas(weight):
    vm = verma_module(weight)
    reference = _verma_reference(weight)
    got = {f"{kind}{index}": mat.entries for (kind, index), mat in vm.rep.gens.items()}
    assert got == reference
    assert vm.basis_labels[vm.highest_index] == (0, 0, 0)


@pytest.mark.parametrize("ell", [0, 1, 3])
def test_the_monomial_lambda2_refusal_is_within_evaluations(ell):
    # module_report refuses lambda2 = +-q^E by this product; evaluation refuses
    # by B (deg + 1) over e2's entries, which is never smaller.
    for size in (2, 7, 100, 1000, 5000):
        for exp in (size, -size):
            for sign in (1, -1):
                e2 = verma_module(hw(ell, 1, rfq(exp, sign))).rep.gens[("e", 2)]
                enc = expr._Encoding(e2)
                assert _monomial_lambda2_bits(exp) <= _digit_bits(enc.bound) * (enc.deg + 1), (exp, sign)


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
