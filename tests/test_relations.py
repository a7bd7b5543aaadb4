import hashlib

import pytest

from degenq.expr import e, f, parse_expr
from degenq.relations import (
    k2rho_expr,
    odd_pair_element,
    quartic_elements,
    relation_catalog,
    root_vector,
)
from degenq.reps import iterated_tensor, natural_rep, tensor_rep, verify_relations
from degenq.scalars import GLParams, RatFn
from test_expr import expr_to_text, gamma_monomials

P11 = GLParams(1, 1)
P21 = GLParams(2, 1)
P12 = GLParams(1, 2)
P22 = GLParams(2, 2)
P32 = GLParams(3, 2)


def entries_by_family(params):
    out = {}
    for entry in relation_catalog(params):
        out.setdefault(entry.family, []).append(entry)
    return out


def test_catalog_contains_degenerate_nilpotents():
    fams = entries_by_family(P21)
    labels = {e.label for e in fams["nilpotent-degenerate"]}
    assert labels == {"e2^2", "f2^2"}
    fams32 = entries_by_family(P32)
    labels32 = {e.label for e in fams32["nilpotent-degenerate"]}
    assert labels32 == {"e3^2", "f3^2"}


def test_quartic_entries_only_when_both_ranks_at_least_two():
    assert "serre-quartic" not in entries_by_family(P11)
    assert "serre-quartic" not in entries_by_family(P21)
    assert "serre-quartic" not in entries_by_family(P12)
    assert "serre-quartic" in entries_by_family(P22)
    assert {e.label for e in entries_by_family(P32)["serre-quartic"]} == {"Q+", "Q-"}


def test_the_21_serre_elements_are_general_entries():
    # The rank-(2,1) presentation's S12+-, S2+- are the cubic Serre entries at
    # a = 1 and the degenerate node's squares, as the same expressions, so the
    # catalog states each once and has no rank-specific family.
    q = RatFn.q(1)
    coeff = q + q.inv()
    elements = [
        e(1) ** 2 * e(2) - coeff * (e(1) * e(2) * e(1)) + e(2) * e(1) ** 2,
        f(1) ** 2 * f(2) - coeff * (f(1) * f(2) * f(1)) + f(2) * f(1) ** 2,
        e(2) ** 2,
        f(2) ** 2,
    ]
    catalog = relation_catalog(P21)
    family = {entry.expr: entry.family for entry in catalog}
    assert len(family) == len(catalog) == 45
    assert [family[x] for x in elements] == [
        "serre-cubic-e",
        "serre-cubic-f",
        "nilpotent-degenerate",
        "nilpotent-degenerate",
    ]
    assert all("serre-element" not in entries_by_family(p) for p in (P11, P21, P12, P22, P32))


def test_cross_commutator_counts():
    assert "cross-commutator" not in entries_by_family(P11)
    assert "cross-commutator" not in entries_by_family(P12)  # needs m >= 2
    assert len(entries_by_family(P21)["cross-commutator"]) == 2  # n = 1 subset
    assert len(entries_by_family(P22)["cross-commutator"]) == 5
    assert len(entries_by_family(P32)["cross-commutator"]) == 5


def test_odd_pair_entries_need_m_at_least_two():
    assert "odd-pair" not in entries_by_family(P11)
    assert "odd-pair" in entries_by_family(P21)
    assert "odd-pair" in entries_by_family(GLParams(3, 1))


def test_quartic_elements_shape_32():
    qp, qm = quartic_elements(P32)
    # Q+ commutes e_m with the raising root vector to position m+2 = 5 from m-1 = 2.
    e_far = root_vector(2, 5, P32)
    f_far = root_vector(5, 2, P32)
    from degenq.expr import e as gen_e, f as gen_f

    assert qp == gen_e(3) * e_far - e_far * gen_e(3)
    assert qm == gen_f(3) * f_far - f_far * gen_f(3)


def test_families_stable_list():
    fams = list(dict.fromkeys(e.family for e in relation_catalog(P21)))
    assert fams[0] == "cartan-unit"
    assert "root-nilpotent" in fams
    assert "ef-commutator" in fams


@pytest.mark.parametrize("params", [P11, P21, P12, P22], ids=lambda p: f"{p.m}{p.n}")
def test_catalog_vanishes_in_natural_and_tensor_square(params):
    rep = natural_rep(params)
    assert verify_relations(rep).all_passed
    for side in ("Delta", "DeltaPrime"):
        assert verify_relations(tensor_rep(rep, rep, side)).all_passed


def test_catalog_vanishes_on_cube_22():
    cube = iterated_tensor(natural_rep(P22), 3, "Delta")
    report = verify_relations(cube)
    assert report.all_passed, [c.name for c in report.failures]


def test_root_nilpotency_in_tensor_square():
    # E_{ki}^2 = 0 for i <= m < k holds in V and V (x) V for several params.
    for params in (P21, P22, P12):
        rep = natural_rep(params)
        vv = tensor_rep(rep, rep)
        from degenq.expr import eval_in_rep, make_prod

        for i in range(1, params.m + 1):
            for k in range(params.m + 1, params.size + 1):
                sq = make_prod([root_vector(k, i, params)] * 2)
                assert eval_in_rep(sq, rep).is_zero()
                assert eval_in_rep(sq, vv).is_zero()


def test_gamma_monomials_are_catalog_compatible():
    # Squares of the generating root vectors of the monomials vanish, so each
    # monomial with a repeated slot would be zero; the 2^{mn} list has none.
    mons = gamma_monomials(P22)
    assert len(set(expr_to_text(m) for m in mons)) == 16


def test_k2rho_round_trip_and_eval():
    for params in (P11, P21, P32):
        x = k2rho_expr(params)
        assert parse_expr(expr_to_text(x), params) == x


def test_odd_pair_element_is_root_vector_cousin():
    # F uses the opposite q-twist from the lowering root vector E_{m+1, m-1}.
    F = odd_pair_element(P21)
    assert expr_to_text(F) == "f1*f2 - q*f2*f1"


# One sha256 per point over every entry's (family, label, repr(expr)), in
# catalog order, recorded from the catalog as written family by family.  repr
# is structural and the same in every process, so any change to an entry's
# name, position or tree changes the digest.
_CATALOG_DIGESTS = {
    (1, 1): "c8690a3eb2454c68ae9a827f01da63b96f375c094215694438fb982a8965ef3c",
    (2, 1): "6eb3a7c73c6dbb0292cf4561894954a7ccfe317d7486edd382bc429a062b0251",
    (1, 2): "16ac2d5fceba90efa0506de98c30ad3ce337b19bbeb3aca5050e5836b8fb4bcd",
    (2, 2): "bc47da4d257232549c954440c7e436f99848fbbdd0819ca49a815fd981c8aef4",
    (3, 1): "95cc45ac31ee8bc8dd9b2a5ae327420754ff7894addd27821277876b6c920a8b",
    (3, 2): "2db7ec3f3d070ed7e0cc774ae46fa6b2a80c1e45ad3b439ab997e12e561a1075",
    (4, 3): "ee93344cd627f1477625bb2c0aa7f3d75e894153666b4600876f6c771281f9e9",
}


@pytest.mark.parametrize("mn", list(_CATALOG_DIGESTS), ids=lambda mn: f"{mn[0]}{mn[1]}")
def test_catalog_entries_are_pinned(mn):
    digest = hashlib.sha256()
    for entry in relation_catalog(GLParams(*mn)):
        digest.update(f"{entry.family}\x00{entry.label}\x00{entry.expr!r}\n".encode())
    assert digest.hexdigest() == _CATALOG_DIGESTS[mn]
