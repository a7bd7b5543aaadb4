import dataclasses

import pytest

from degenq.errors import ResourceLimit
from degenq.linalg import SparseMat, Vec
from degenq.rmatrix import (
    antisymmetric_type_dim,
    build_bundle,
    eigenspace_closures_match,
    leg_operator,
    leg_operator_by_conjugation,
    perturbed_r,
    symmetric_type_dim,
    tensor_iso,
    tensor_iso_inverse,
    verify_hecke_and_spectrum,
    verify_intertwiner,
    verify_tensor_iso,
    verify_ybe,
)
from degenq.scalars import GLParams, RatFn

P21 = GLParams(2, 1)
P11 = GLParams(1, 1)
rfq = RatFn.q
one = RatFn.one()

ALL_PARAMS = [P11, P21, GLParams(1, 2), GLParams(2, 2), GLParams(3, 1), GLParams(3, 2)]


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


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: f"{p.m}{p.n}")
def test_ybe_suite(params):
    report = verify_ybe(build_bundle(params))
    assert report.all_passed, [c.name for c in report.failures]


def test_failed_identities_print_a_witness():
    # R with its degenerate diagonal spoiled: each failed identity names the
    # nnz of lhs - rhs and its first nonzero entry; passing checks stay bare.
    bundle = build_bundle(P21)
    spoiled = dataclasses.replace(bundle, R=perturbed_r(P21))
    report = verify_ybe(spoiled)
    report.extend(verify_intertwiner(spoiled))
    failed = {c.name: c.detail for c in report.failures}
    assert failed == {
        "R braids exactly": "2 nonzero entries; entry (8, 24) = 2*q - 4*q^-1 + 2*q^-3",
        "R invertible": "1 nonzero entries; entry (8, 8) = -2",
        "R Delta(e2) = Delta'(e2) R": "2 nonzero entries; entry (5, 8) = -2*q^-1",
        "R Delta(f2) = Delta'(f2) R": "2 nonzero entries; entry (8, 5) = 2*q^-1",
    }
    assert all(c.detail == "" for c in report.checks if c.ok)
    hecke = verify_hecke_and_spectrum(dataclasses.replace(bundle, Rcheck=bundle.Rcheck.scale(rfq(1))))
    failed = {c.name: c.detail for c in hecke.failures}
    assert failed["(Rcheck - q)(Rcheck + q^-1) = 0"] == "15 nonzero entries; entry (0, 0) = q^4 - q^3 + q - 1"
    assert failed["P_s P_a = 0"].startswith("15 nonzero entries; entry (0, 0) = ")


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
        report = verify_hecke_and_spectrum(dataclasses.replace(bundle, Rcheck=rc))
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


def test_tensor_iso_r2_is_r():
    bundle = build_bundle(P21)
    assert tensor_iso(P21, 2) == bundle.R


@pytest.mark.parametrize("r", [2, 3])
def test_tensor_iso_intertwines(r):
    report = verify_tensor_iso(P21, r)
    assert report.all_passed, [c.name for c in report.failures]


def test_tensor_iso_11_r3():
    report = verify_tensor_iso(P11, 3)
    assert report.all_passed


def test_tensor_iso_inverse_round_trip():
    iso = tensor_iso(P21, 3)
    inv = tensor_iso_inverse(P21, 3)
    assert iso * inv == SparseMat.identity(27)


def test_tensor_iso_resource_cap():
    with pytest.raises(ResourceLimit):
        tensor_iso(P21, 4, max_dim=30)


def test_projector_images_match_closures():
    for params in (P21, GLParams(1, 2)):
        report = eigenspace_closures_match(params)
        assert report.all_passed, [c.name for c in report.failures]
