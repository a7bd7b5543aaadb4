import sys

import pytest

from degenq import cli, linalg, rmatrix
from degenq.errors import ResourceLimit
from degenq.expr import eval_batch
from degenq.linalg import SparseMat, Subspace, Vec, nullspace
from degenq.reports import Report, witness
from degenq.reps import natural_rep, setup, shared_power, submodule_closure, tensor_rep
from degenq.rmatrix import (
    antisymmetric_type_dim,
    build_bundle,
    leg_operator,
    perturbed_r,
    symmetric_type_dim,
    verify_hecke_and_spectrum,
    verify_intertwiner,
    verify_tensor_iso,
    verify_ybe,
)
from degenq.scalars import GLParams, Q_MINUS_QINV, RatFn

P21 = GLParams(2, 1)
P11 = GLParams(1, 1)
rfq = RatFn.q
one = RatFn.one()

ALL_PARAMS = [P11, P21, GLParams(1, 2), GLParams(2, 2), GLParams(3, 1), GLParams(3, 2)]
R_SUITES = ("ybe", "hecke", "intertwiner")


def test_r_piecewise_action_21():
    bundle = build_bundle(P21)
    d = 3
    idx = lambda a, b: (a - 1) * d + (b - 1)
    # a < b fixed
    assert bundle.R.apply(Vec.unit(9, idx(1, 2))) == Vec.unit(9, idx(1, 2))
    # diagonal scaled by q_a
    assert bundle.R.apply(Vec.unit(9, idx(1, 1))) == Vec.unit(9, idx(1, 1)).scale(rfq(1))
    assert bundle.R.apply(Vec.unit(9, idx(3, 3))) == Vec.unit(9, idx(3, 3)).scale(rfq(-1, -1))
    # a > b picks up the braiding tail
    image = bundle.R.apply(Vec.unit(9, idx(2, 1)))
    assert image == Vec(9, {idx(2, 1): one, idx(1, 2): rfq(1) - rfq(-1)})


def test_r_agrees_with_t_off_diagonal():
    for params in (P21, GLParams(2, 2)):
        bundle = build_bundle(params)
        d = params.size
        diff = bundle.R - bundle.T
        for (i, j) in diff.entries:
            a, b = divmod(i, d)
            assert i == j and a == b and a >= params.m


def test_leg_operator_matches_conjugation_construction():
    bundle = build_bundle(P21)
    for (i, j, r) in [(1, 2, 3), (1, 3, 3), (2, 3, 3), (2, 4, 4)]:
        direct = leg_operator(bundle.R, i, j, r, 3)
        conj = leg_operator_by_conjugation(bundle.R, i, j, r, 3)
        assert direct == conj, (i, j, r)
    for legs, r, op in (((2, 1), 3, bundle.R), ((1, 4), 3, bundle.R), ((1, 2), 2, SparseMat.identity(3))):
        with pytest.raises(ValueError):
            leg_operator(op, *legs, r, 3)


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: f"{p.m}{p.n}")
def test_ybe_suite(params):
    report = verify_ybe(build_bundle(params))
    assert report.all_passed, [c.name for c in report.failures]


SPOILED_R_WITNESSES = {
    "R braids exactly": "2 nonzero entries; entry (8, 24) = 2*q - 4*q^-1 + 2*q^-3",
    "R invertible": "1 nonzero entries; entry (8, 8) = -2",
    "R Delta(e2) = Delta'(e2) R": "2 nonzero entries; entry (5, 8) = -2*q^-1",
    "R Delta(f2) = Delta'(f2) R": "2 nonzero entries; entry (8, 5) = 2*q^-1",
}


def _assert_spoiled_copies_fail_with_witnesses(bundle):
    spoiled = bundle._replace(R=perturbed_r(P21))
    report = verify_ybe(spoiled)
    report.extend(verify_intertwiner(spoiled))
    failed = {c.name: c.detail for c in report.failures}
    assert failed == SPOILED_R_WITNESSES
    assert all(c.detail == "" for c in report.checks if c.ok)
    hecke = verify_hecke_and_spectrum(bundle._replace(Rcheck=bundle.Rcheck.scale(rfq(1))))
    failed = {c.name: c.detail for c in hecke.failures}
    assert failed["(Rcheck - q)(Rcheck + q^-1) = 0"] == "15 nonzero entries; entry (0, 0) = q^4 - q^3 + q - 1"
    # q Rcheck has eigenvalues q^2 and -1, so neither rank drops.
    assert failed["q-eigenspace dimension = 5"] == failed["(-q^-1)-eigenspace dimension = 4"] == "rank 9"


def test_failed_identities_print_a_witness():
    # R with its degenerate diagonal spoiled: each failed identity names the
    # nnz of lhs - rhs and its first nonzero entry; passing checks stay bare.
    _assert_spoiled_copies_fail_with_witnesses(build_bundle(P21))


def test_spoiled_copies_of_the_warm_verify_bundle_fail_alike():
    # A ``_replace`` copy of verify's stored bundle, whose suites'
    # set-up is in the store, builds its own set-up from its operators and
    # leaves the store's as it was.
    assert cli.run_verify(P21, suites=R_SUITES).all_passed
    store = setup(P21)
    keys = ("ybe", "hecke", "intertwiner", ("tensor-iso", 3))
    kept = [store.get(key, None) for key in keys]
    _assert_spoiled_copies_fail_with_witnesses(rmatrix.shared_bundle(P21))
    assert [store.get(key, None) for key in keys] == kept
    assert cli.run_verify(P21, suites=R_SUITES).all_passed


def test_failed_eigenvector_checks_print_a_witness():
    # One mutated entry of Rcheck: each eigenvector check it spoils names the
    # nnz of Rcheck w - c w and its first nonzero entry.
    bundle = build_bundle(P21)
    top = "Rcheck(v1 x v1) = q v1 x v1"
    mixed = "Rcheck(v1 x v2 - q^-1 v2 x v1) = -q^-1 (...)"
    for (i, j), want in (((0, 0), {top: "1 nonzero entries; entry 0 = 1"}),
                         ((4, 1), {mixed: "1 nonzero entries; entry 4 = 1"})):
        entries = dict(bundle.Rcheck.entries)
        entries[(i, j)] = entries.get((i, j), RatFn.zero()) + one
        rc = SparseMat(9, 9, entries)
        report = verify_hecke_and_spectrum(bundle._replace(Rcheck=rc))
        failed = {c.name: c.detail for c in report.failures if c.name in (top, mixed)}
        assert failed == want
    passed = verify_hecke_and_spectrum(bundle)
    assert all(c.detail == "" for c in passed.checks if c.name in (top, mixed))


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: f"{p.m}{p.n}")
def test_hecke_suite(params):
    report = verify_hecke_and_spectrum(build_bundle(params))
    assert report.all_passed, [c.name for c in report.failures]


def test_eigenspace_dimensions_21():
    assert symmetric_type_dim(P21) == 5
    assert antisymmetric_type_dim(P21) == 4
    assert symmetric_type_dim(GLParams(3, 1)) == 9
    assert antisymmetric_type_dim(GLParams(3, 1)) == 7


@pytest.mark.parametrize("params", [P11, P21, GLParams(1, 2), GLParams(2, 2)], ids=lambda p: f"{p.m}{p.n}")
def test_intertwiner_suite(params):
    report = verify_intertwiner(build_bundle(params))
    assert report.all_passed, [c.name for c in report.failures]


@pytest.mark.parametrize("r", [2, 3])
def test_tensor_iso_intertwines(r):
    report = verify_tensor_iso(build_bundle(P21), r)
    assert report.all_passed, [c.name for c in report.failures]


def test_tensor_iso_11_r3():
    report = verify_tensor_iso(build_bundle(P11), 3)
    assert report.all_passed


@pytest.mark.parametrize("r", [1, 0, -1])
@pytest.mark.parametrize("legs", ["R", "Rinv"], ids=["tensor_iso", "tensor_iso_inverse"])
def test_tensor_iso_pair_refuses_r_below_2(legs, r):
    # The suite refuses r < 2 before it reads a leg: with R's legs, and with
    # the inverse's R^-1 legs put in R's place.
    bundle = build_bundle(P21)
    bundle = bundle._replace(R=getattr(bundle, legs))
    with pytest.raises(ValueError, match="r >= 2"):
        verify_tensor_iso(bundle, r)


def test_tensor_iso_resource_cap():
    with pytest.raises(ResourceLimit):
        verify_tensor_iso(build_bundle(P21), 4, max_dim=30)


def test_tensor_iso_leaves_invertibility_to_ybe():
    # R's invertibility is one fact, checked once: a spoiled Rinv fails ybe's
    # "R invertible" and nothing in the tensor-iso suite.
    spoiled = _spoiled(P21)["Rinv entry"]
    assert verify_tensor_iso(spoiled, 3).all_passed
    assert [c.name for c in verify_ybe(spoiled).failures] == ["R invertible"]


def test_projector_images_match_closures():
    for params in (P21, GLParams(1, 2)):
        report = eigenspace_closures_match(params)
        assert report.all_passed, [c.name for c in report.failures]


# -- cross-check constructions ---------------------------------------------------------


def leg_operator_by_conjugation(op: SparseMat, i: int, j: int, r: int, d: int) -> SparseMat:
    """Same operator via permutation conjugation of op (x) id^(r-2); cross-check path."""
    full = op
    for _ in range(r - 2):
        full = full.kron(SparseMat.identity(d))
    # Build the permutation sending slot 1 -> i, slot 2 -> j, rest in order.
    target = [i - 1, j - 1] + [t for t in range(r) if t not in (i - 1, j - 1)]
    perm_entries = {}
    for idx in range(d**r):
        digits = []
        rem = idx
        for _ in range(r):
            digits.append(rem % d)
            rem //= d
        digits.reverse()
        new_digits = [0] * r
        for slot, pos in enumerate(target):
            new_digits[pos] = digits[slot]
        new_idx = 0
        for t in range(r):
            new_idx = new_idx * d + new_digits[t]
        perm_entries[(new_idx, idx)] = RatFn.one()
    perm = SparseMat(d**r, d**r, perm_entries)
    return perm * full * perm.transpose()


def intersect(a, b):
    """The intersection of two subspaces: the a-parts of the kernel of the
    matrix whose columns are the basis of a, then minus the basis of b."""
    basis_a, basis_b = a.basis(), b.basis()
    if not basis_a or not basis_b:
        return Subspace(a.dim)
    cols = basis_a + [v.scale(-RatFn.one()) for v in basis_b]
    entries = {(i, t): x for t, v in enumerate(cols) for i, x in v.entries.items()}
    vectors = []
    for combo in nullspace(SparseMat(a.dim, len(cols), entries)):
        v = Vec(a.dim)
        for t, u in enumerate(basis_a):
            if combo[t]:
                v = v + u.scale(combo[t])
        vectors.append(v)
    return Subspace(a.dim, vectors)


def eigenspace_closures_match(params: GLParams) -> Report:
    """The projector images are exactly the closures of the two top vectors."""
    report = Report()
    bundle = build_bundle(params)
    rep = natural_rep(params)
    vv = tensor_rep(rep, rep, "Delta")
    d = params.size
    q = RatFn.q(1)
    proj_s, proj_a = ref_projectors(bundle.Rcheck)

    sym_closure = submodule_closure(vv, [Vec.unit(d * d, 0)])
    w = Vec(d * d, {0 * d + 1: RatFn.one(), 1 * d + 0: -q.inv()})
    asym_closure = submodule_closure(vv, [w])

    image_s = Subspace(d * d, [Vec(d * d, col) for col in proj_s.columns()])
    image_a = Subspace(d * d, [Vec(d * d, col) for col in proj_a.columns()])
    report.add("spectrum", "P_s image = closure(v1 x v1)", image_s == sym_closure)
    report.add("spectrum", "P_a image = closure(v1 x v2 - q^-1 v2 x v1)", image_a == asym_closure)
    report.add(
        "spectrum",
        "closures intersect trivially and fill the space",
        intersect(sym_closure, asym_closure).rank == 0
        and sym_closure.rank + asym_closure.rank == d * d,
    )
    return report


# -- the RatFn matrix-product reference of the four suites ------------------------------
#
# The suites evaluate each identity as one expression over the integers at
# q = 2^B (degenq.expr.eval_batch).  The reference below forms both sides as
# SparseMat products over Q(q) and compares them; both must report the same
# statuses and the same witness text.


def _ref_zero_part(params: GLParams, diag_values) -> SparseMat:
    d = params.size
    entries = {}
    for a in range(d):
        for b in range(d):
            i = a * d + b
            entries[(i, i)] = diag_values(a + 1) if a == b else RatFn.one()
    return SparseMat(d * d, d * d, entries)


def _ref_theta(params: GLParams, sign: int = 1) -> SparseMat:
    d = params.size
    coeff = Q_MINUS_QINV if sign > 0 else -Q_MINUS_QINV
    entries = dict(SparseMat.identity(d * d).entries)
    for a in range(d):
        for b in range(a + 1, d):
            entries[(a * d + b, b * d + a)] = coeff
    return SparseMat(d * d, d * d, entries)


def ref_bundle(params: GLParams) -> rmatrix.RMatrixBundle:
    """R = R0 Theta and the other operators as matrix products."""
    d = params.size
    r0inv = _ref_zero_part(params, lambda a: params.q_sub(a).inv())
    P = SparseMat(d * d, d * d, {(a * d + b, b * d + a): RatFn.one() for a in range(d) for b in range(d)})
    R = _ref_zero_part(params, params.q_sub) * _ref_theta(params, +1)
    Rinv = _ref_theta(params, -1) * r0inv
    T = _ref_zero_part(params, lambda a: RatFn.q(1)) * _ref_theta(params, +1)
    return rmatrix.RMatrixBundle(params, R, Rinv, P * R, Rinv * P, T)


def ref_perturbed_r(params: GLParams) -> SparseMat:
    bad = _ref_zero_part(params, lambda a: RatFn.q(1) if a <= params.m else RatFn.q(-1))
    return bad * _ref_theta(params, +1)


def _ref_identity(report, suite, name, lhs, rhs):
    ok = lhs == rhs
    report.add(suite, name, ok, "" if ok else witness(lhs - rhs))


def _ref_braid_sides(mat: SparseMat, d: int):
    r12, r13, r23 = (leg_operator(mat, i, j, 3, d) for i, j in ((1, 2), (1, 3), (2, 3)))
    return r12 * r13 * r23, r23 * r13 * r12


def ref_ybe(bundle) -> Report:
    report = Report()
    d = bundle.params.size
    for name, mat in (("R", bundle.R), ("T", bundle.T)):
        _ref_identity(report, "ybe", f"{name} braids exactly", *_ref_braid_sides(mat, d))
    _ref_identity(report, "ybe", "R invertible", bundle.R * bundle.Rinv, SparseMat.identity(d * d))
    lhs, rhs = _ref_braid_sides(ref_perturbed_r(bundle.params), d)
    report.add("ybe", "negative control (degenerate diagonal spoiled) fails", lhs != rhs)
    return report


def ref_projectors(rc: SparseMat):
    ident = SparseMat.identity(rc.nrows)
    q = RatFn.q(1)
    denom = (q + q.inv()).inv()
    return (rc + ident.scale(q.inv())).scale(denom), (ident.scale(q) - rc).scale(denom)


def ref_hecke(bundle) -> Report:
    report = Report()
    params = bundle.params
    d = params.size
    rc = bundle.Rcheck
    ident = SparseMat.identity(d * d)
    q = RatFn.q(1)
    hecke = (rc - ident.scale(q)) * (rc + ident.scale(q.inv()))
    report.add("hecke", "(Rcheck - q)(Rcheck + q^-1) = 0", hecke.is_zero(), witness(hecke))
    proj_s, proj_a = ref_projectors(rc)
    dim_s, dim_a = symmetric_type_dim(params), antisymmetric_type_dim(params)
    report.add("hecke", f"q-eigenspace dimension = {dim_s}", proj_s.rank() == dim_s, f"rank {proj_s.rank()}")
    report.add(
        "hecke", f"(-q^-1)-eigenspace dimension = {dim_a}", proj_a.rank() == dim_a, f"rank {proj_a.rank()}"
    )
    v11 = Vec.unit(d * d, 0)
    _ref_identity(report, "hecke", "Rcheck(v1 x v1) = q v1 x v1", rc.apply(v11), v11.scale(q))
    if d >= 2:
        w = Vec(d * d, {1: RatFn.one(), d: -q.inv()})
        name = "Rcheck(v1 x v2 - q^-1 v2 x v1) = -q^-1 (...)"
        _ref_identity(report, "hecke", name, rc.apply(w), w.scale(-q.inv()))
    return report


def ref_intertwiner(bundle) -> Report:
    report = Report()
    rep = natural_rep(bundle.params)
    vv_delta, vv_prime = tensor_rep(rep, rep, "Delta"), tensor_rep(rep, rep, "DeltaPrime")
    for g in vv_delta.generator_atoms():
        name = f"{g.kind}{g.index}"
        delta_mat = vv_delta.gen(g.kind, g.index)
        prime_mat = vv_prime.gen(g.kind, g.index)
        _ref_identity(report, "intertwiner", f"R Delta({name}) = Delta'({name}) R",
                      bundle.R * delta_mat, prime_mat * bundle.R)
        _ref_identity(report, "intertwiner", f"[Rcheck, Delta({name})] = 0",
                      bundle.Rcheck * delta_mat, delta_mat * bundle.Rcheck)
    return report


def ref_leg_product(bundle, r: int) -> SparseMat:
    d = bundle.params.size
    out = SparseMat.identity(d**r)
    for i, j in rmatrix._halftwist_pairs(r):
        out = out * leg_operator(bundle.R, i, j, r, d)
    return out


def ref_tensor_iso(bundle, r: int) -> Report:
    report = Report()
    params = bundle.params
    iso = ref_leg_product(bundle, r)
    power_delta = shared_power(params, r, "Delta")
    power_prime = shared_power(params, r, "DeltaPrime")
    for g in power_delta.generator_atoms():
        name = f"{g.kind}{g.index}"
        lhs = iso * power_delta.gen(g.kind, g.index)
        rhs = power_prime.gen(g.kind, g.index) * iso
        _ref_identity(report, "tensor-iso", f"r={r}: intertwines {name}", lhs, rhs)
    return report


def _rows(report: Report):
    return [(c.suite, c.name, c.status, c.detail) for c in report.checks]


def _mutated(mat: SparseMat, key) -> SparseMat:
    entries = dict(mat.entries)
    entries[key] = entries.get(key, RatFn.zero()) + one
    return SparseMat(mat.nrows, mat.ncols, entries)


def _spoiled(params: GLParams) -> dict[str, rmatrix.RMatrixBundle]:
    """The bundle itself and six spoiled copies, each failing some checks."""
    bundle = build_bundle(params)
    d = params.size
    square = SparseMat(d * d, d * d, {**bundle.Rcheck.entries, (1, 1): rfq(2)})
    return {
        "exact": bundle,
        "perturbed R": bundle._replace(R=perturbed_r(params)),
        "Rcheck scaled by q": bundle._replace(Rcheck=bundle.Rcheck.scale(rfq(1))),
        "Rcheck entry": bundle._replace(Rcheck=_mutated(bundle.Rcheck, (d, 1))),
        "Rcheck entry (0, 0) plus 1": bundle._replace(Rcheck=_mutated(bundle.Rcheck, (0, 0))),
        "Rcheck entry (1, 1) set to q^2": bundle._replace(Rcheck=square),
        "Rinv entry": bundle._replace(Rinv=_mutated(bundle.Rinv, (d * d - 1, 0))),
    }


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: f"{p.m}{p.n}")
def test_bundle_matches_the_product_construction(params):
    bundle, ref = build_bundle(params), ref_bundle(params)
    assert bundle == ref
    assert perturbed_r(params) == ref_perturbed_r(params)
    # BraidEvaluator starts each column from its first entry, so the braid
    # forms keep the products' order within every column.
    for name in ("Rcheck", "Rcheckinv"):
        orders = [{}, {}]
        for order, mat in zip(orders, (getattr(bundle, name), getattr(ref, name))):
            for i, j in mat.entries:
                order.setdefault(j, []).append(i)
        assert orders[0] == orders[1], name


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: f"{p.m}{p.n}")
def test_suites_match_the_product_reference(params):
    # Same statuses and witness text, and every spoiled bundle fails a check.
    for label, bundle in _spoiled(params).items():
        pairs = [
            (verify_ybe(bundle), ref_ybe(bundle)),
            (verify_hecke_and_spectrum(bundle), ref_hecke(bundle)),
            (verify_intertwiner(bundle), ref_intertwiner(bundle)),
            (verify_tensor_iso(bundle, 3), ref_tensor_iso(bundle, 3)),
        ]
        for got, want in pairs:
            assert _rows(got) == _rows(want), label
        assert all(got.all_passed for got, _ in pairs) == (label == "exact"), label


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: f"{p.m}{p.n}")
@pytest.mark.parametrize("r", [2, 3])
def test_tensor_iso_matches_the_product_reference(params, r):
    # The suite's isomorphism, the half-twist product of R legs, as a matrix.
    bundle = build_bundle(params)
    space = rmatrix._space(r, params.size, {"R": bundle.R})
    assert next(eval_batch([rmatrix._iso_expr(r)], space)) == ref_leg_product(bundle, r)


def test_suites_form_no_rational_matrix_product(monkeypatch):
    bundles = [build_bundle(params) for params in (P21, GLParams(2, 2))]
    rational = []
    mul = SparseMat.__mul__

    def watched(a, b):
        if any(isinstance(v, RatFn) for m in (a, b) for v in m.entries.values()):
            rational.append((a.nrows, b.ncols))
        return mul(a, b)

    monkeypatch.setattr(SparseMat, "__mul__", watched)
    for bundle in bundles:
        verify_ybe(bundle)
        verify_hecke_and_spectrum(bundle)
        verify_intertwiner(bundle)
        verify_tensor_iso(bundle, 3)
    assert rational == []


def test_hecke_ranks_each_projector_once(monkeypatch):
    calls = []
    echelon = linalg.echelon_rows

    def counting(*args, **kwargs):
        calls.append(1)
        return echelon(*args, **kwargs)

    monkeypatch.setattr(linalg, "echelon_rows", counting)
    report = verify_hecke_and_spectrum(build_bundle(P21))
    assert report.all_passed
    assert len(calls) == 2


def test_every_bundle_reader_shares_one_bundle_per_params(monkeypatch, capsys):
    # verify's suites, the invariant's evaluators, decompose and
    # shared_bundle all read the store's one bundle of (2, 1): one build per
    # process, kept for the next job.
    calls = []
    build = rmatrix.build_bundle

    def counting(params):
        calls.append(params)
        return build(params)

    # Every degenq module that imported the builder by name.
    for name, module in list(sys.modules.items()):
        if name.startswith("degenq") and vars(module).get("build_bundle") is build:
            monkeypatch.setattr(module, "build_bundle", counting)
    for _ in range(2):
        assert cli.main(["verify", "--m", "2", "--n", "1", "--suite", "intertwiner"]) == cli.EXIT_OK
        assert "r=3: intertwines e1" in capsys.readouterr().out
    for argv in (
        ["verify", "--m", "2", "--n", "1", "--suite", "all", "--samples", "2"],
        ["invariant", "--m", "2", "--n", "1", "--braid", "1 1 1"],
        ["decompose", "--m", "2", "--n", "1"],
    ):
        assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert verify_tensor_iso(rmatrix.shared_bundle(P21), 3).all_passed
    assert calls == [P21]


def _fresh_suite(params: GLParams, suite: str) -> Report:
    """What run_verify reports for one R-matrix suite, from a fresh bundle."""
    bundle = build_bundle(params)
    if suite == "ybe":
        return verify_ybe(bundle)
    if suite == "hecke":
        return verify_hecke_and_spectrum(bundle)
    report = verify_intertwiner(bundle)
    report.extend(verify_tensor_iso(bundle, 3))
    return report


@pytest.mark.parametrize("suite", R_SUITES)
@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: f"{p.m}{p.n}")
def test_kept_setup_reports_what_a_fresh_bundle_reports(params, suite):
    # verify's suites from a cold store, from the warm store (the suite's
    # set-up kept), and from a caller's fresh bundle: the same checks,
    # statuses and details, in the same order.
    cold = _rows(cli.run_verify(params, suites=(suite,)))
    assert setup(params).get(suite, None)
    warm = _rows(cli.run_verify(params, suites=(suite,)))
    assert cold == warm == _rows(_fresh_suite(params, suite))
    assert cold and all(status == "pass" for _, _, status, _ in cold)
