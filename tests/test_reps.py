import random

import pytest

from degenq import reps, scalars
from degenq.errors import InvalidInput, MissingGenerator, NotSimultaneouslyDiagonal, ParamsMismatch, ResourceLimit
from degenq.expr import Expr, Gen, Program, cartan, cartan_inv, eval_in_rep, parse_expr
from degenq.expr import one as one_expr
from degenq.linalg import SparseMat, Subspace, nullspace
from degenq.relations import k2rho_expr
from degenq.reps import (
    Representation,
    _catalog,
    _weight_spaces,
    check_cap,
    check_hopf_axioms,
    dual_rep,
    generator_atoms,
    highest_weight_vectors,
    iterated_tensor,
    natural_rep,
    quotient_rep,
    submodule_closure,
    tensor_rep,
    trivial_rep,
    verify_relations,
)
from degenq.scalars import GLParams, RatFn, parse_scalar
from degenq.sl21 import HighestWeightSL21, simple_quotient, verma_module

P21 = GLParams(2, 1)
P11 = GLParams(1, 1)

rfq = RatFn.q
one = RatFn.one()


def weight_decomposition(rep: Representation) -> list[tuple[tuple[RatFn, ...], list[SparseMat]]]:
    """Simultaneous K eigenspaces; requires diagonal K matrices in the working basis."""
    return [(weight, [unit(rep.dim, i) for i in indices]) for weight, indices in _weight_spaces(rep)]


def unit(dim, i):
    return SparseMat.column(dim, {i: one})


# -- natural representation ---------------------------------------------------------


def test_natural_rep_matrices_21():
    rep = natural_rep(P21)
    assert rep.dim == 3
    assert rep.gen("K", 3) == SparseMat.diagonal([one, one, rfq(-1, -1)])
    assert rep.gen("f", 2) == SparseMat.unit(3, 3, 2, 1)
    assert rep.gen("e", 1) == SparseMat.unit(3, 3, 0, 1)


def test_natural_rep_ef_commutator_identity():
    # [e_a, f_a] = (k_a - k_a^-1)/(q - q^-1) exactly, for several (m, n)
    for params in (P11, P21, GLParams(1, 2), GLParams(3, 2)):
        rep = natural_rep(params)
        denom = rfq(1) - rfq(-1)
        for a in params.iprime:
            lhs = rep.gen("e", a) * rep.gen("f", a) - rep.gen("f", a) * rep.gen("e", a)
            rhs = (eval_in_rep(cartan(a), rep) - eval_in_rep(cartan_inv(a), rep)).scale(
                denom.inv()
            )
            assert lhs == rhs, (params, a)


def test_natural_rep_passes_all_relations():
    for params in (P11, P21, GLParams(1, 2), GLParams(2, 2)):
        report = verify_relations(natural_rep(params))
        assert report.all_passed, [c.name for c in report.failures]


def _given_gens(params):
    """e_a, f_a and K_b of V, the atoms a module is built from."""
    rep = natural_rep(params)
    return {(g.kind, g.index): rep.gen(g.kind, g.index) for g in generator_atoms(params)}


def _with_cartan(k1):
    gens = _given_gens(P21)
    gens[("K", 1)] = k1
    return Representation(P21, 3, gens, label="test")


def test_representation_rejects_a_wrong_cartan_inverse():
    # K_b^-1 is derived, never given, so the constructor refuses any K_b it
    # cannot invert entrywise, a K_b^-1 passed in, and a missing K_b.
    q = rfq(1)
    with pytest.raises(InvalidInput, match="K1"):  # a zero on K1's diagonal
        _with_cartan(SparseMat.diagonal([q, RatFn.zero(), one]))
    with pytest.raises(InvalidInput, match="K1"):  # invertible, but not diagonal
        _with_cartan(SparseMat(3, 3, {(0, 0): one, (0, 1): q, (1, 1): one, (2, 2): one}))
    gens = _given_gens(P21)
    gens[("Kinv", 1)] = SparseMat.diagonal([q.inv(), one, one])
    with pytest.raises(InvalidInput, match="K1"):
        Representation(P21, 3, gens)
    gens = _given_gens(P21)
    del gens[("K", 3)]
    with pytest.raises(MissingGenerator, match="K3"):
        Representation(P21, 3, gens)


def _assert_inverses(rep, expected):
    """Each K_b^-1 of rep inverts K_b on both sides by the full product and
    equals expected[b]."""
    ident = SparseMat.identity(rep.dim)
    for b in rep.params.index_set:
        k, kinv = rep.gen("K", b), rep.gen("Kinv", b)
        assert k * kinv == ident and kinv * k == ident, (rep.label, b)
        assert kinv == expected[b], (rep.label, b)


def _inverted_diagonals(rep):
    """{b: diag(v.inv()) over the diagonal v of K_b}."""
    index_set = rep.params.index_set
    return {b: SparseMat.diagonal([v.inv() for v in rep.gen("K", b).diagonal_values()]) for b in index_set}


_GRID = [GLParams(m, n) for m, n in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2))]


@pytest.mark.parametrize("params", _GRID, ids=lambda p: f"{p.m}{p.n}")
def test_derived_cartan_inverses_match_their_closed_forms(params):
    # Each derived K_b^-1 against the closed form its module's builder once
    # stated: diag(v.inv()) on V, 1 on the trivial module, the transpose of
    # K_b on the dual, and the kron of the factors' inverses on a tensor power.
    rep = natural_rep(params)
    _assert_inverses(rep, _inverted_diagonals(rep))
    _assert_inverses(trivial_rep(params), {b: SparseMat.identity(1) for b in params.index_set})
    _assert_inverses(dual_rep(rep), {b: rep.gen("K", b).transpose() for b in params.index_set})
    for side in ("Delta", "DeltaPrime"):
        power = rep
        for _ in (2, 3):
            left, power = power, tensor_rep(power, rep, side)
            _assert_inverses(
                power, {b: left.gen("Kinv", b).kron(rep.gen("Kinv", b)) for b in params.index_set}
            )
        # Equal entries of the cube's K_b^-1, over every b, are one object.
        first = {}
        for b in params.index_set:
            assert all(first.setdefault(x, x) is x for x in power.gen("Kinv", b).entries.values())


@pytest.mark.parametrize("ell", [0, 1, 2, 5])
def test_derived_cartan_inverses_on_induced_modules_and_simple_quotients(ell):
    # An induced module's K_b^-1 is diag(v.inv()); its simple quotient's is
    # the induced module's restricted to the basis labels that survive.
    for weight in _induced_weights(ell):
        verma = verma_module(weight)
        _assert_inverses(verma.rep, _inverted_diagonals(verma.rep))
        simple = simple_quotient(verma)
        pos = {label: t for t, label in enumerate(verma.basis_labels)}
        restricted = {
            b: SparseMat.diagonal([verma.rep.gen("Kinv", b)[pos[lab], pos[lab]] for lab in simple.basis_labels])
            for b in P21.index_set
        }
        _assert_inverses(simple.rep, restricted)


def test_corrupted_rep_fails_conjugation_relation():
    rep = natural_rep(P21)
    rep.gens[("e", 1)] = SparseMat(3, 3, {(0, 1): one, (0, 2): one})
    report = verify_relations(rep)
    assert not report.all_passed
    assert any("cartan-conj-e" in c.name for c in report.failures)


def test_failure_detail_pins_witness_entry():
    # e1 scaled by the rational c = (q+2)/(q-3): each failing identity reports
    # the nnz of its value and its first nonzero entry, in canonical text.
    rep = natural_rep(P21)
    rep.gens[("e", 1)] = rep.gen("e", 1).scale(parse_scalar("(q+2)/(q-3)"))
    report = verify_relations(rep)
    assert [(c.name, c.detail) for c in report.failures] == [
        (
            "ef-commutator: (q - q^-1)*[e1, f1] - (k1 - k1^-1)",
            "2 nonzero entries; entry (0, 0) = (5*q - 5*q^-1)/(q - 3)",
        ),
        ("odd-pair: [e1, F] - f2*k1^-1", "1 nonzero entries; entry (2, 1) = (5*q)/(q - 3)"),
        (
            "cross-commutator: [f1, E[13]] - e2*k1^-1",
            "1 nonzero entries; entry (1, 2) = (5)/(q - 3)",
        ),
    ]


def test_verify_relations_does_no_field_arithmetic_on_a_passing_module(monkeypatch):
    # With one denominator per node, a catalog that vanishes costs no RatFn
    # product and no canonical form (gcd), even on a module with a rational weight.
    module = simple_quotient(verma_module(HighestWeightSL21(2, 1, parse_scalar("(q+2)/(q-3)"))))
    assert any(not v.is_polynomial() for v in module.rep.gen("e", 2).entries.values())
    params = module.rep.params
    entries, _ = reps.setup(params).get("catalog", _catalog, params)  # building is not evaluation
    calls = {"mul": 0, "canonical": 0}
    mul, canonical = RatFn.__mul__, scalars._canonical_pair

    def counting_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    def counting_canonical(num, den):
        calls["canonical"] += 1
        return canonical(num, den)

    monkeypatch.setattr(RatFn, "__mul__", counting_mul)
    monkeypatch.setattr(scalars, "_canonical_pair", counting_canonical)
    report = verify_relations(module.rep)
    assert report.all_passed and len(report.checks) == len(entries)
    assert calls == {"mul": 0, "canonical": 0}


# -- dual -----------------------------------------------------------------------------


def test_dual_rep_explicit_action_21():
    dual = dual_rep(natural_rep(P21))
    # K_b vbar_c = q_b^{-delta_bc} vbar_c
    assert dual.gen("K", 3) == SparseMat.diagonal([one, one, rfq(1, -1)])
    # e_a vbar_c = -delta_{ac} q_{a+1} vbar_{a+1}
    assert dual.gen("e", 1) == SparseMat.unit(3, 3, 1, 0, rfq(1, -1))
    assert dual.gen("e", 2) == SparseMat.unit(3, 3, 2, 1, rfq(-1))  # q_3 = -q^-1
    # f_a vbar_c = -delta_{a+1,c} q_{a+1}^-1 vbar_a
    assert dual.gen("f", 1) == SparseMat.unit(3, 3, 0, 1, rfq(-1, -1))
    assert dual.gen("f", 2) == SparseMat.unit(3, 3, 1, 2, rfq(1))  # -p^-1 = q


def test_dual_rep_satisfies_relations():
    for params in (P11, P21, GLParams(3, 1)):
        assert verify_relations(dual_rep(natural_rep(params))).all_passed


def test_dual_highest_weight_vector():
    dual = dual_rep(natural_rep(P21))
    hw = highest_weight_vectors(dual)
    assert len(hw) == 1
    weight, v = hw[0]
    assert v == unit(3, 2)  # vbar_{m+n}
    assert weight == (one, one, rfq(1, -1))  # (1, ..., 1, p^-1) with p^-1 = -q


def test_dual_of_dual_same_dimension():
    rep = natural_rep(P21)
    assert dual_rep(dual_rep(rep)).dim == rep.dim


# -- tensor products ------------------------------------------------------------------


def test_tensor_action_on_v2v2():
    rep = natural_rep(P21)
    vv = tensor_rep(rep, rep, "Delta")
    v22 = unit(9, 1 * 3 + 1)
    image = vv.gen("e", 1).apply(v22)
    # Delta(e_1)(v_2 (x) v_2) = q^-1 v_1 (x) v_2 + v_2 (x) v_1
    assert image == SparseMat.column(9, {0 * 3 + 1: rfq(-1), 1 * 3 + 0: one})


def test_tensor_cartan_eigenvalue():
    rep = natural_rep(P21)
    vv = tensor_rep(rep, rep, "Delta")
    for b in P21.index_set:
        qb = P21.q_sub(b)
        for a in P21.index_set:
            idx = (a - 1) * 3 + (a - 1)
            expected = qb ** (2 if a == b else 0)
            assert vv.gen("K", b).apply(unit(9, idx)) == SparseMat.column(9, {idx: expected})


def test_tensor_rep_passes_relations_both_sides():
    rep = natural_rep(P21)
    for side in ("Delta", "DeltaPrime"):
        assert verify_relations(tensor_rep(rep, rep, side)).all_passed


def test_tensor_params_mismatch():
    with pytest.raises(ParamsMismatch):
        tensor_rep(natural_rep(P21), natural_rep(P11))


def test_iterated_tensor_dims_and_cap():
    rep = natural_rep(P21)
    assert iterated_tensor(rep, 1) is rep
    assert iterated_tensor(rep, 3).dim == 27
    with pytest.raises(ResourceLimit):
        iterated_tensor(rep, 3, max_dim=20)


def test_check_cap_is_exact_and_forms_no_huge_power():
    for d in range(1, 6):
        for r in range(12):
            for cap in (-5, 0, 1, 2, 7, 8, 9, 26, 27, 28, 243, 20000):
                refused = d**r > cap
                try:
                    check_cap(d, r, cap)
                except ResourceLimit:
                    assert refused
                else:
                    assert not refused
    with pytest.raises(ResourceLimit, match=r"^dimension 3\^100000000000 exceeds cap 20000$"):
        check_cap(3, 10**11, 20000)
    check_cap(1, 10**11, 1)
    # A 1-dimensional module has 1-dimensional tensor powers under any cap >= 1.
    trivial = simple_quotient(verma_module(HighestWeightSL21(0, 1, RatFn.one()))).rep
    assert trivial.dim == 1
    assert iterated_tensor(trivial, 12, max_dim=1).dim == 1


def test_iterated_tensor_cube_passes_relations():
    rep = natural_rep(P21)
    assert verify_relations(iterated_tensor(rep, 3, "Delta")).all_passed


# -- weights and highest weight vectors --------------------------------------------------


def test_weight_decomposition_natural_21():
    rep = natural_rep(P21)
    decomp = weight_decomposition(rep)
    weights = {w for w, _ in decomp}
    p = rfq(-1, -1)
    assert weights == {
        (rfq(1), one, one),
        (one, rfq(1), one),
        (one, one, p),
    }
    assert sum(len(basis) for _, basis in decomp) == 3


def test_weight_of_v1v1():
    rep = natural_rep(P21)
    vv = tensor_rep(rep, rep)
    for w, basis in weight_decomposition(vv):
        if unit(9, 0) in basis:
            assert w == (rfq(2), one, one)
            break
    else:
        pytest.fail("v1 (x) v1 not found in any weight space")


def test_weight_decomposition_requires_diagonal():
    rep = natural_rep(P21)
    bad = tensor_rep(rep, rep)
    bad.gens[("K", 1)] = bad.gen("K", 1) + SparseMat.unit(9, 9, 0, 1)
    with pytest.raises(NotSimultaneouslyDiagonal):
        weight_decomposition(bad)


def test_highest_weight_vectors_natural():
    rep = natural_rep(P21)
    hw = highest_weight_vectors(rep)
    assert len(hw) == 1
    weight, v = hw[0]
    assert v == unit(3, 0)
    assert weight == (rfq(1), one, one)


def test_highest_weight_vectors_tensor_square():
    rep = natural_rep(P21)
    vv = tensor_rep(rep, rep)
    hw = highest_weight_vectors(vv)
    assert len(hw) == 2
    span = Subspace(9, [v for _, v in hw])
    w_sym = unit(9, 0)  # v1 (x) v1
    w_asym = SparseMat.column(9, {0 * 3 + 1: one, 1 * 3 + 0: rfq(-1, -1)})  # v1 (x) v2 - q^-1 v2 (x) v1
    assert span.reduce(w_sym).is_zero() and span.reduce(w_asym).is_zero()
    p = rfq(-1, -1)
    assert all(w != (one, one, p * p) for w, _ in hw)


# -- submodule closure ---------------------------------------------------------------------


def _ls_basis_vectors_21(opposite: bool):
    """Explicit basis of the symmetric-type summand of V (x) V at (2, 1).

    For the module built from the opposite comultiplication the mixing
    coefficients are q^-1 and -p; for the standard one they invert.
    """
    p = rfq(-1, -1)
    mix = rfq(-1) if opposite else rfq(1)
    mixed = -p if opposite else -p.inv()
    idx = lambda a, b: (a - 1) * 3 + (b - 1)
    vs = [unit(9, idx(1, 1)), unit(9, idx(2, 2))]
    vs.append(SparseMat.column(9, {idx(1, 2): one, idx(2, 1): mix}))
    for i in (1, 2):
        vs.append(SparseMat.column(9, {idx(i, 3): one, idx(3, i): mixed}))
    return vs


def test_closure_of_v1v1_matches_explicit_basis():
    rep = natural_rep(P21)
    for side, opposite in (("DeltaPrime", True), ("Delta", False)):
        vv = tensor_rep(rep, rep, side)
        closure = submodule_closure(vv, [unit(9, 0)])
        explicit = Subspace(9, _ls_basis_vectors_21(opposite))
        assert closure.rank == 5 and explicit.rank == 5
        assert closure == explicit, side


def test_closure_trivial_cases():
    rep = natural_rep(P21)
    assert submodule_closure(rep, []).rank == 0
    assert submodule_closure(rep, [SparseMat(3, 1)]).rank == 0
    full = submodule_closure(rep, [unit(3, i) for i in range(3)])
    assert full.rank == 3


def test_closure_requires_diagonal():
    rep = natural_rep(P21)
    bad = tensor_rep(rep, rep)
    bad.gens[("K", 1)] = bad.gen("K", 1) + SparseMat.unit(9, 9, 0, 1)
    with pytest.raises(NotSimultaneouslyDiagonal):
        submodule_closure(bad, [unit(9, 0)])


# -- the per-weight paths against the global paths they replace -----------------------------


def _closure_reference(rep, seeds):
    """The closure under every atom, K's included, over one global Subspace."""
    space = Subspace(rep.dim, [])
    frontier = [s for s in seeds if space.add_vector(s) is not None]
    mats = list(rep.gens.values())
    while frontier:
        next_frontier = []
        for v in frontier:
            for mat in mats:
                w = mat.apply(v)
                if not w.is_zero() and space.add_vector(w) is not None:
                    next_frontier.append(w)
        frontier = next_frontier
    return space


def _singular_reference(rep):
    """The null space of the stacked e_a images of every weight space, by apply."""
    raising = [rep.gen("e", a) for a in rep.params.iprime]
    found = []
    for weight, basis in weight_decomposition(rep):
        entries = {}
        for block, mat in enumerate(raising):
            for t, v in enumerate(basis):
                for (i, _), val in mat.apply(v).entries.items():
                    entries[(block * rep.dim + i, t)] = val
        stacked = SparseMat(len(raising) * rep.dim, len(basis), entries)
        for combo in nullspace(stacked):
            v = SparseMat(rep.dim, 1)
            for (t, _), c in combo.entries.items():
                v = v + basis[t].scale(c)
            found.append((weight, v))
    return found


def _mixed_vector(dim):
    """A vector with components in two weight spaces (the global reference
    path grows fast with more)."""
    return SparseMat.column(dim, {1: one, dim - 1: RatFn.integer(2)})


def _assert_closures_agree(rep, seeds):
    fast, ref = submodule_closure(rep, seeds), _closure_reference(rep, seeds)
    assert fast.pivot_columns() == ref.pivot_columns()
    assert fast.basis() == ref.basis()
    return fast


def _induced_weights(ell):
    """One highest weight per sign and family: typical polynomial and rational,
    atypical A, and atypical B with either sign of lambda2."""
    for sign1 in (1, -1):
        for lam2 in (
            rfq(2, -1),
            parse_scalar("(q+2)/(q-3)"),
            one,
            rfq(-1 - ell, sign1),
            rfq(-1 - ell, -sign1),
        ):
            yield HighestWeightSL21(ell, sign1, lam2)


# ell 11 and 16 are atypical-B weights among the slowest simple-module jobs.
@pytest.mark.parametrize("ell", [*range(6), 11, 16])
def test_per_weight_paths_match_reference_on_induced_modules(ell):
    for weight in _induced_weights(ell):
        rep = verma_module(weight).rep
        top = tuple(rep.gen("K", b)[0, 0] for b in rep.params.index_set)
        _assert_closures_agree(rep, [_mixed_vector(rep.dim)])
        # Every round of the simple quotient, down to the simple module.
        while True:
            found = highest_weight_vectors(rep)
            assert found == _singular_reference(rep)
            seeds = [v for w, v in found if w != top]
            if not seeds:
                break
            rep = quotient_rep(rep, _assert_closures_agree(rep, seeds))


@pytest.mark.parametrize("params", [P21, GLParams(1, 2), GLParams(2, 2)])
def test_per_weight_paths_match_reference_on_tensor_squares(params):
    rep = natural_rep(params)
    vv = tensor_rep(rep, rep)
    assert highest_weight_vectors(vv) == _singular_reference(vv)
    for j in range(vv.dim):
        _assert_closures_agree(vv, [unit(vv.dim, j)])
    _assert_closures_agree(vv, [_mixed_vector(vv.dim)])
    _assert_closures_agree(vv, [v for _, v in highest_weight_vectors(vv)])


def _twisted_double(rep, c):
    """rep (+) rep with every K_b scaled by c on the second copy: e_a and f_a
    act alike on both copies, so only the K's tell their weights apart."""
    d = rep.dim
    gens = {}
    for g in generator_atoms(rep.params):
        mat = rep.gen(g.kind, g.index)
        scale = c if g.kind == "K" else one
        entries = dict(mat.entries)
        entries.update({(i + d, j + d): scale * v for (i, j), v in mat.entries.items()})
        gens[(g.kind, g.index)] = SparseMat(2 * d, 2 * d, entries)
    return Representation(rep.params, 2 * d, gens)


def test_closure_splits_seeds_that_only_the_ks_separate():
    double = _twisted_double(natural_rep(P21), rfq(2))
    assert verify_relations(double).all_passed
    seed = SparseMat.column(6, {0: one, 3: one})
    closure = _assert_closures_agree(double, [seed])
    assert closure.rank == 6


# -- Hopf axioms -----------------------------------------------------------------------------


def test_hopf_axioms_21():
    report = check_hopf_axioms(natural_rep(P21))
    assert report.all_passed, [c.name for c in report.failures]


def test_hopf_axioms_11_and_12():
    assert check_hopf_axioms(natural_rep(P11)).all_passed
    assert check_hopf_axioms(natural_rep(GLParams(1, 2))).all_passed


def test_hopf_s2_fails_where_k1_acts_as_k2():
    # K1 replaced by K2 keeps K1*K1^-1 = 1; the dual module then breaks six
    # catalog entries, and S^2 on e2 and f2 differs from conjugation by K2rho.
    # The store keeps V*, derived from its own V, which serves no other module.
    assert check_hopf_axioms(reps.shared_power(P21, 1)).all_passed
    rep = natural_rep(P21)
    rep.gens[("K", 1)] = rep.gen("K", 2)
    rep.gens[("Kinv", 1)] = rep.gen("Kinv", 2)
    report = check_hopf_axioms(rep)
    # 45 catalog entries for the counit, 45 for the antipode, 7 for S^2.
    assert len(report.checks) == 97
    assert any(c.suite == "hopf-antipode" for c in report.failures)
    s2_failures = [c.name for c in report.failures if c.suite == "hopf-s2"]
    assert s2_failures == ["S^2 = Ad(K2rho) on e2", "S^2 = Ad(K2rho) on f2"]


def test_hopf_fails_on_random_signed_monomial_module():
    # Dense signed monomials for e and f satisfy no relation, so the dual
    # module fails the catalog and S^2 fails off the Cartan part; the counit
    # does not read the module.
    rng = random.Random(7)
    rep = natural_rep(P21)
    for a in P21.iprime:
        for kind in ("e", "f"):
            rep.gens[(kind, a)] = SparseMat(
                3,
                3,
                {
                    (i, j): RatFn.integer(rng.choice((1, -1))) * rfq(rng.randint(-2, 2))
                    for i in range(3)
                    for j in range(3)
                },
            )
    failed = {c.suite for c in check_hopf_axioms(rep).failures}
    assert failed == {"hopf-antipode", "hopf-s2"}


def test_hopf_antipode_fails_with_flipped_sign_of_s_e(monkeypatch):
    from degenq.expr import antipode

    def flipped(x):
        image = antipode(x)
        return -image if isinstance(x, Gen) and x.kind == "e" else image

    monkeypatch.setattr("degenq.reps.antipode", flipped)
    report = check_hopf_axioms(natural_rep(P21))
    assert any(c.suite == "hopf-antipode" for c in report.failures)


def test_hopf_counit_fails_when_k_goes_to_q(monkeypatch):
    def k_to_q(params):
        rep = trivial_rep(params)
        rep.gens[("K", 1)] = SparseMat.diagonal([rfq(1)])
        rep.gens[("Kinv", 1)] = SparseMat.diagonal([rfq(-1)])
        return rep

    monkeypatch.setattr("degenq.reps.trivial_rep", k_to_q)
    report = check_hopf_axioms(natural_rep(P21))
    assert [(c.suite, c.name, c.detail) for c in report.failures] == [
        (
            "hopf-counit",
            "ef-commutator: (q - q^-1)*[e1, f1] - (k1 - k1^-1)",
            "1 nonzero entries; entry (0, 0) = -q + q^-1",
        )
    ]


def test_a_spoiled_space_fails_only_under_its_own_label():
    # One plan over V, a spoiled V (K1 acting as K2) and V (x) V: only the
    # spoiled space's checks fail, each with the witness it gets alone.
    nat = natural_rep(P21)
    spoiled = natural_rep(P21)
    spoiled.gens[("K", 1)], spoiled.gens[("Kinv", 1)] = spoiled.gen("K", 2), spoiled.gen("Kinv", 2)
    spaces = [nat, spoiled, tensor_rep(nat, nat)]
    labels = [("relations", f"{name}: ") for name in ("V", "spoiled", "V^(x)2")]
    report = verify_relations(*spaces, labels=labels)
    alone = verify_relations(spoiled)
    assert alone.failures
    assert [(c.name, c.detail) for c in report.failures] == [
        (f"spoiled: {c.name}", c.detail) for c in alone.failures
    ]
    per_space = len(report.checks) // 3
    assert len(report.checks) == 3 * per_space == 3 * len(alone.checks)
    names = [c.name for c in report.checks[per_space : 2 * per_space]]
    assert names == [f"spoiled: {c.name}" for c in alone.checks]


def test_verify_relations_refuses_modules_of_two_parameter_sets():
    with pytest.raises(ParamsMismatch):
        verify_relations(natural_rep(P21), natural_rep(GLParams(1, 2)))


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (4, 3), (6, 6)])
def test_the_relation_suites_shared_width_is_its_largest_spaces_own(m, n):
    # The relations suite's five spaces share one plan, at the width of
    # V^(x)3 alone, and the hopf suite's trivial module and V* at the width
    # of V* alone: a refusal by MAX_ENTRY_BITS falls where it fell when each
    # space had a plan of its own.
    params = GLParams(m, n)
    spaces = [reps.shared_power(params, 1)]
    spaces += [reps.shared_power(params, r, side) for r in (2, 3) for side in ("Delta", "DeltaPrime")]
    _, program = reps.setup(params).get("catalog", _catalog, params)
    own = [program._plan([space])[2] for space in spaces]
    assert program._plan(spaces)[2] == own[3] == own[4] == max(own)
    dual = dual_rep(spaces[0])
    assert program._plan([trivial_rep(params), dual])[2] == program._plan([dual])[2]


def test_hopf_counit_is_one_run_of_the_catalog_on_the_trivial_module(monkeypatch):
    runs = []
    run_each = Program.run_each

    def recording_run_each(self, modules):
        runs.append((self, [rep.dim for rep in modules]))
        return run_each(self, modules)

    monkeypatch.setattr(Program, "run_each", recording_run_each)
    report = check_hopf_axioms(natural_rep(P21))
    entries, program = reps.setup(P21).get("catalog", None)
    assert [p for p, dims in runs if 1 in dims] == [program]
    counit = [c for c in report.checks if c.suite == "hopf-counit"]
    assert [c.name for c in counit] == [entry.name for entry in entries]
    assert all(c.ok and c.detail == "" for c in counit)


def test_hopf_failure_detail_pins_witness_entry():
    # The K1 -> K2 module of the test above: a failing Hopf identity reports
    # the nnz of its difference and its first nonzero entry; passing ones none.
    rep = natural_rep(P21)
    rep.gens[("K", 1)] = rep.gen("K", 2)
    rep.gens[("Kinv", 1)] = rep.gen("Kinv", 2)
    report = check_hopf_axioms(rep)
    details = {c.name: c.detail for c in report.failures}
    assert details["S^2 = Ad(K2rho) on e2"] == "1 nonzero entries; entry (1, 2) = q - 1"
    assert details["S^2 = Ad(K2rho) on f2"] == "1 nonzero entries; entry (2, 1) = -1 + q^-1"
    assert all(c.detail == "" for c in report.checks if c.ok)


def test_antipode_identity_e2_explicit():
    # nu(S(e_2)) nu(k_2) + nu(e_2) = 0 in the natural rep at (2, 1)
    rep = natural_rep(P21)
    from degenq.expr import antipode

    s_e2 = eval_in_rep(antipode(Gen("e", 2)), rep)
    k2 = eval_in_rep(cartan(2), rep)
    assert (s_e2 * k2 + rep.gen("e", 2)).is_zero()


def test_coassociativity_matches_explicit_expansion():
    # (Delta (x) id)Delta(f_1) = f1 (x) 1 (x) 1 + k1^-1 (x) f1 (x) 1 + k1^-1 (x) k1^-1 (x) f1
    rep = natural_rep(P21)
    cube_left = tensor_rep(tensor_rep(rep, rep), rep)
    f1 = rep.gen("f", 1)
    k1inv = eval_in_rep(cartan_inv(1), rep)
    ident = SparseMat.identity(3)
    expect = (
        f1.kron(ident).kron(ident)
        + k1inv.kron(f1).kron(ident)
        + k1inv.kron(k1inv).kron(f1)
    )
    assert cube_left.gen("f", 1) == expect


def coproduct_terms(g: Gen, side: str = "Delta") -> list[tuple[Expr, Expr]]:
    """The coproduct of a generator as a list of (left, right) tensor legs.

    side 'Delta':      e_a -> e_a (x) k_a + 1 (x) e_a,   f_a -> f_a (x) 1 + k_a^-1 (x) f_a
    side 'DeltaPrime': e_a -> e_a (x) 1 + k_a (x) e_a,   f_a -> f_a (x) k_a^-1 + 1 (x) f_a
    K_b -> K_b (x) K_b on both sides.
    """
    a = g.index
    if g.kind in ("K", "Kinv"):
        return [(g, g)]
    if side == "Delta":
        if g.kind == "e":
            return [(g, cartan(a)), (one_expr(), g)]
        return [(g, one_expr()), (cartan_inv(a), g)]
    if side == "DeltaPrime":
        if g.kind == "e":
            return [(g, one_expr()), (cartan(a), g)]
        return [(g, cartan_inv(a)), (one_expr(), g)]
    raise ValueError(f"unknown coproduct side {side!r}")


@pytest.mark.parametrize("params", [P21, GLParams(1, 2), GLParams(2, 2)], ids=lambda p: f"{p.m}{p.n}")
def test_tensor_rep_matches_coproduct_terms(params):
    # The hand-written legs of tensor_rep agree with the expression-level
    # Delta and Delta' on every atom.
    rep = natural_rep(params)
    d = rep.dim
    for side in ("Delta", "DeltaPrime"):
        vv = tensor_rep(rep, rep, side)
        for kind, index in rep.gens:
            expect = SparseMat.zero(d * d, d * d)
            for lhs, rhs in coproduct_terms(Gen(kind, index), side):
                expect = expect + eval_in_rep(lhs, rep).kron(eval_in_rep(rhs, rep))
            assert vv.gen(kind, index) == expect, (side, kind, index)


def test_k2rho_images():
    # (2, 1): K_2rho = K1 K2^-1 K3 -> diag(q, q^-1, -q^-1)
    rep = natural_rep(P21)
    mat = eval_in_rep(k2rho_expr(P21), rep)
    assert mat == SparseMat.diagonal([rfq(1), rfq(-1), rfq(-1, -1)])
    # (1, 1): K_2rho = K1^-1 K2 -> diag(q^-1, -q^-1)
    rep11 = natural_rep(P11)
    mat11 = eval_in_rep(k2rho_expr(P11), rep11)
    assert mat11 == SparseMat.diagonal([rfq(-1), rfq(-1, -1)])


def test_s2_conjugation_on_degenerate_node():
    # K_2rho e_m K_2rho^-1 = -e_m = k_m e_m k_m^-1
    for params in (P21, P11, GLParams(2, 2)):
        rep = natural_rep(params)
        m = params.m
        k2rho = eval_in_rep(k2rho_expr(params), rep)
        k2rho_inv = eval_in_rep(parse_expr("1", params), rep)  # placeholder replaced below
        from degenq.expr import antipode

        k2rho_inv = eval_in_rep(antipode(k2rho_expr(params)), rep)
        em = rep.gen("e", m)
        assert k2rho * em * k2rho_inv == -em
        km = eval_in_rep(cartan(m), rep)
        kminv = eval_in_rep(cartan_inv(m), rep)
        assert km * em * kminv == -em


def test_tensor_sides_equal_dims_and_k_spectra():
    rep = natural_rep(P21)
    a = tensor_rep(rep, rep, "Delta")
    b = tensor_rep(rep, rep, "DeltaPrime")
    assert a.dim == b.dim
    for k in P21.index_set:
        assert a.gen("K", k) == b.gen("K", k)


def test_weight_of_top_vector_in_tensor_powers():
    rep = natural_rep(P21)
    for r in (2, 3):
        power = iterated_tensor(rep, r)
        diag = [power.gen("K", b)[0, 0] for b in P21.index_set]
        assert diag == [rfq(r), one, one]


def test_dual_rep_explicit_action_12():
    # Same closed formulas at (1, 2), where both raised indices carry p.
    dual = dual_rep(natural_rep(GLParams(1, 2)))
    assert dual.gen("e", 1) == SparseMat.unit(3, 3, 1, 0, rfq(-1))  # -q_2 = q^-1
    assert dual.gen("e", 2) == SparseMat.unit(3, 3, 2, 1, rfq(-1))
    assert dual.gen("f", 1) == SparseMat.unit(3, 3, 0, 1, rfq(1))  # -q_2^-1 = q
    assert dual.gen("f", 2) == SparseMat.unit(3, 3, 1, 2, rfq(1))
    assert dual.gen("K", 2) == SparseMat.diagonal([one, rfq(1, -1), one])
