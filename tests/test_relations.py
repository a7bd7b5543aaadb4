import hashlib
import math
import sys

import pytest

from degenq.expr import Pow, Prod, Sum, e, f, parse_expr
from degenq.relations import (
    k2rho_expr,
    odd_pair_element,
    quartic_elements,
    relation_catalog,
    root_vectors,
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
    E = root_vectors(P32)
    e_far, f_far = E[(2, 5)], E[(5, 2)]
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

        E = root_vectors(params)
        for i in range(1, params.m + 1):
            for k in range(params.m + 1, params.size + 1):
                sq = make_prod([E[(k, i)]] * 2)
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
# catalog order, recorded from the catalog as written family by family, with
# each tree kept at its first entry.  repr is structural and the same in every
# process, so any change to an entry's name, position or tree changes the
# digest.
_CATALOG_DIGESTS = {
    (1, 1): "c8690a3eb2454c68ae9a827f01da63b96f375c094215694438fb982a8965ef3c",
    (2, 1): "6eb3a7c73c6dbb0292cf4561894954a7ccfe317d7486edd382bc429a062b0251",
    (1, 2): "16ac2d5fceba90efa0506de98c30ad3ce337b19bbeb3aca5050e5836b8fb4bcd",
    (2, 2): "8c40d2e6b803c5a95365b3398203612871dbc680baa361b6d07b6eb87d6cc198",
    (3, 1): "6ad6031e95e026f3bc4a37fb6a248e69397aa51bc0c36777ca3123cb713b240f",
    (3, 2): "dfbf5b433722990dc017f657a30596bbbe7a9d14d8f12c21e0617629dafea52e",
    (4, 3): "3c1d7071ab06572b8f77d37b90c2ea3c2bd469ec061fbee636ccb66f6a0d2f08",
}


@pytest.mark.parametrize("mn", list(_CATALOG_DIGESTS), ids=lambda mn: f"{mn[0]}{mn[1]}")
def test_catalog_entries_are_pinned(mn):
    digest = hashlib.sha256()
    for entry in relation_catalog(GLParams(*mn)):
        digest.update(f"{entry.family}\x00{entry.label}\x00{entry.expr!r}\n".encode())
    assert digest.hexdigest() == _CATALOG_DIGESTS[mn]


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_no_two_entries_share_a_tree(m, n):
    catalog = relation_catalog(GLParams(m, n))
    assert len({entry.expr for entry in catalog}) == len(catalog)


# The restatements the catalog drops, each the tree of an earlier entry: a
# distant-commute [f_a, f_b] or serre-quartic Q-.
_DROPPED = {
    (2, 2): ["[E[21], E[43]] (i<j<k<l)", "[E[32], E[41]] (k<i<j<l)"],
    (3, 1): ["[E[21], E[43]] (i<j<k<l)"],
    (3, 2): ["[E[21], E[43]] (i<j<k<l)", "[E[21], E[54]] (i<j<k<l)", "[E[32], E[54]] (i<j<k<l)",
             "[E[43], E[52]] (k<i<j<l)"],
}


@pytest.mark.parametrize("mn", list(_DROPPED), ids=lambda mn: f"{mn[0]}{mn[1]}")
def test_root_commute_drops_exactly_the_restated_trees(mn):
    params = GLParams(*mn)
    labels = [entry.label for entry in relation_catalog(params) if entry.family == "root-commute"]
    assert not set(labels) & set(_DROPPED[mn])
    assert len(labels) == 2 * math.comb(params.size, 4) - len(_DROPPED[mn])


def _reachable_nodes(roots) -> int:
    seen, stack = {}, list(roots)
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            if isinstance(x, Sum):
                stack.extend(x.terms)
            elif isinstance(x, Prod):
                stack.extend(x.factors)
            elif isinstance(x, Pow):
                stack.append(x.base)
    return len(seen)


@pytest.mark.parametrize("mn", [(12, 12), (20, 20)], ids=lambda mn: f"{mn[0]}{mn[1]}")
def test_root_vectors_share_their_shorter_entries(mn):
    # Each E_ij holds the entry one step shorter, not a copy of it: O(d^2)
    # distinct nodes for d = m + n, not O(d^3).
    d = sum(mn)
    assert _reachable_nodes(root_vectors(GLParams(*mn)).values()) <= 5 * d**2


def test_root_vectors_build_without_recursion():
    # E_(80,1) is 79 brackets deep; the table builds it in a loop.
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        table = root_vectors(GLParams(40, 40))
    finally:
        sys.setrecursionlimit(limit)
    assert len(table) == 80 * 79
