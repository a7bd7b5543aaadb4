import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenq import linalg
from degenq.errors import DimensionMismatch
from degenq.linalg import SparseMat, Subspace, nullspace
from degenq.reps import highest_weight_vectors, natural_rep, submodule_closure
from degenq.rmatrix import build_bundle, verify_hecke_and_spectrum
from degenq.scalars import GLParams, LaurentPoly, RatFn, _lcm, _poly_divexact_dict, _poly_gcd_dict
from degenq.sl21 import HighestWeightSL21, verma_module


def intersect(a, b):
    """The intersection of two subspaces: the a-parts of the kernel of the
    matrix whose columns are the basis of a, then minus the basis of b."""
    basis_a, basis_b = a.basis(), b.basis()
    if not basis_a or not basis_b:
        return Subspace(a.dim)
    cols = basis_a + [v.scale(-RatFn.one()) for v in basis_b]
    entries = {(i, t): x for t, v in enumerate(cols) for (i, _), x in v.entries.items()}
    vectors = []
    for combo in nullspace(SparseMat(a.dim, len(cols), entries)):
        v = SparseMat(a.dim, 1)
        for t, u in enumerate(basis_a):
            if combo[t, 0]:
                v = v + u.scale(combo[t, 0])
        vectors.append(v)
    return Subspace(a.dim, vectors)


col = SparseMat.column


def unit(dim, i):
    return col(dim, {i: RatFn.one()})


def rfq(e=1, c=1):
    return RatFn.q(e, c)


def rfi(n):
    return RatFn.integer(n)


def random_ratfn(rng):
    num = LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(0, 2))})
    return RatFn(num)


def random_mat(rng, nrows, ncols, density=0.6):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                entries[(i, j)] = random_ratfn(rng)
    return SparseMat(nrows, ncols, entries)


# -- products -----------------------------------------------------------------


def test_identity_is_neutral():
    rng = random.Random(7)
    a = random_mat(rng, 4, 4)
    assert SparseMat.identity(4) * a == a
    assert a * SparseMat.identity(4) == a


def test_matrix_unit_calculus():
    e12 = SparseMat.unit(3, 3, 0, 1)
    e23 = SparseMat.unit(3, 3, 1, 2)
    e13 = SparseMat.unit(3, 3, 0, 2)
    assert e12 * e23 == e13
    assert (e12 * e13).is_zero()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        SparseMat.zero(2, 3) * SparseMat.zero(2, 3)
    with pytest.raises(DimensionMismatch):
        SparseMat.zero(2, 3) + SparseMat.zero(3, 2)


# -- kron -----------------------------------------------------------------------


def test_kron_identity():
    assert SparseMat.identity(2).kron(SparseMat.identity(3)) == SparseMat.identity(6)


def test_kron_dims_multiply():
    a = SparseMat.zero(2, 3)
    b = SparseMat.zero(3, 2)
    k = a.kron(b)
    assert (k.nrows, k.ncols) == (6, 6)


def test_kron_mixed_product_law():
    rng = random.Random(11)
    for _ in range(5):
        a, b, c, d = (random_mat(rng, 2, 2) for _ in range(4))
        assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_kron_index_convention_left_most_significant():
    # (a (x) b)(v_i (x) v_j) = (a v_i) (x) (b v_j) with index i*dim + j
    a = SparseMat.unit(2, 2, 0, 1)  # v_1 -> v_0
    b = SparseMat.identity(2)
    k = a.kron(b)
    v = unit(4, 1 * 2 + 0)  # v_1 (x) v_0
    assert k.apply(v) == unit(4, 0 * 2 + 0)


# Entries of kron's factors: the one singleton, a second object equal to 1,
# signed monomials and a rational function.
_KRON_ENTRIES = st.sampled_from(
    [
        RatFn.one(),
        RatFn.integer(1),
        rfq(1),
        rfq(-1, -1),
        rfi(3),
        RatFn.of(LaurentPoly({1: 1, 0: 2}), LaurentPoly({1: 1, 0: -3})),
    ]
)


@st.composite
def _kron_factor(draw):
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    keys = draw(st.sets(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))))
    return SparseMat(nrows, ncols, {key: draw(_KRON_ENTRIES) for key in sorted(keys)})


@settings(max_examples=80, deadline=None)
@given(_kron_factor(), _kron_factor())
def test_kron_matches_entrywise_products(a, b):
    # The reference multiplies every pair; kron shares the other entry where
    # one factor's entry is 1.
    reference = {
        (i * b.nrows + k, j * b.ncols + l): x * y
        for (i, j), x in a.entries.items()
        for (k, l), y in b.entries.items()
    }
    got = a.kron(b)
    assert (got.nrows, got.ncols) == (a.nrows * b.nrows, a.ncols * b.ncols)
    assert got.entries == reference
    for (i, j), x in a.entries.items():
        for (k, l), y in b.entries.items():
            if x.is_one():
                assert got.entries[(i * b.nrows + k, j * b.ncols + l)] is y


# -- vectors ----------------------------------------------------------------------

# Entries of apply's operands: signed units and monomials, whose products can
# cancel in a sum, and a rational function.
_APPLY_ENTRIES = st.sampled_from(
    [
        RatFn.one(),
        rfi(-1),
        rfq(1),
        rfq(1, -1),
        rfi(3),
        RatFn.of(LaurentPoly({1: 1, 0: 2}), LaurentPoly({1: 1, 0: -3})),
    ]
)


@st.composite
def _matrix_and_column(draw):
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):  # diagonal
        ncols = nrows
        keys = {(i, i) for i in draw(st.sets(st.integers(0, nrows - 1)))}
    else:
        keys = draw(st.sets(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))))
    mat = SparseMat(nrows, ncols, {key: draw(_APPLY_ENTRIES) for key in sorted(keys)})
    coords = draw(st.sets(st.integers(0, ncols - 1)))
    return mat, col(ncols, {i: draw(_APPLY_ENTRIES) for i in sorted(coords)})


@settings(max_examples=150, deadline=None)
@example((SparseMat.identity(3), SparseMat(3, 1)))
@example((SparseMat.diagonal([rfq(1), rfi(-1), rfi(3)]), col(3, {0: rfq(1, -1), 2: rfi(1)})))
# Row 0's two products cancel.
@example((SparseMat(2, 2, {(0, 0): rfi(1), (0, 1): rfq(1), (1, 1): rfi(3)}), col(2, {0: rfq(1), 1: rfi(-1)})))
# A column whose one entry is at (0, 0) is diagonal to _row_index, so the
# product takes its right-diagonal branch.
@example((SparseMat(2, 3, {(0, 0): rfq(1), (1, 0): rfi(3), (1, 2): rfi(1)}), col(3, {0: rfq(1, -1)})))
@given(_matrix_and_column())
def test_apply_matches_the_product(case):
    mat, v = case
    assert mat.apply(v) == mat * v


@pytest.mark.parametrize(
    "bad",
    [col(4, {0: rfi(1)}), SparseMat(3, 2, {(0, 1): rfi(1)}), SparseMat(1, 3, {(0, 0): rfi(1)})],
    ids=["longer-column", "two-columns", "row"],
)
def test_only_a_column_of_the_right_dim_is_a_vector(bad):
    full = Subspace(3, [unit(3, i) for i in range(3)])
    refusals = [
        lambda: SparseMat.identity(3).apply(bad),
        lambda: Subspace(3, [bad]),
        lambda: Subspace(3, []).reduce(bad),
        lambda: Subspace(3, []).add_vector(bad),
        lambda: full.add_vector(bad),  # a full space reduces nothing, but still checks
        lambda: submodule_closure(natural_rep(GLParams(2, 1)), [bad]),
    ]
    for refuse in refusals:
        with pytest.raises(DimensionMismatch):
            refuse()


# -- nullspace --------------------------------------------------------------------


def test_nullspace_identity_empty():
    assert nullspace(SparseMat.identity(5)) == []


def test_nullspace_zero_matrix_full():
    basis = nullspace(SparseMat.zero(4, 4))
    assert len(basis) == 4
    assert Subspace(4, basis).rank == 4


def test_nullspace_rank_one_example():
    # [[q, 1], [q^2, q]] has kernel spanned by (1, -q): substitute back, rows vanish.
    a = SparseMat(2, 2, {(0, 0): rfq(1), (0, 1): rfi(1), (1, 0): rfq(2), (1, 1): rfq(1)})
    basis = nullspace(a)
    assert len(basis) == 1
    v = basis[0]
    assert a.apply(v).is_zero()
    # proportional to (1, -q)
    witness = col(2, {0: rfi(1), 1: rfq(1, -1)})
    assert Subspace(2, [v]) == Subspace(2, [witness])


def test_nullspace_random_verifies_and_counts():
    rng = random.Random(23)
    for _ in range(8):
        a = random_mat(rng, 4, 6, density=0.5)
        basis = nullspace(a)
        for v in basis:
            assert a.apply(v).is_zero()
        assert a.rank() + len(basis) == a.ncols


def test_rank_plus_nullity_square():
    rng = random.Random(5)
    a = random_mat(rng, 5, 5, density=0.4)
    assert a.rank() + len(nullspace(a)) == 5


# -- subspaces ---------------------------------------------------------------------


def test_span_collinear_rank_one():
    v = col(3, {0: rfq(2), 2: rfi(1)})
    s = Subspace(3, [v, v.scale(rfi(2))])
    assert s.rank == 1
    assert s.reduce(v.scale(rfq(-1, 7))).is_zero()


def test_complementary_coordinate_subspaces_intersect_trivially():
    a = Subspace(4, [unit(4, 0), unit(4, 1)])
    b = Subspace(4, [unit(4, 2), unit(4, 3)])
    assert intersect(a, b).rank == 0
    assert Subspace(4, a.basis() + b.basis()).rank == 4


def test_sum_of_independent_rank_one_spans():
    a = Subspace(3, [col(3, {0: rfi(1), 1: rfq(1)})])
    b = Subspace(3, [col(3, {1: rfi(1), 2: rfq(-1)})])
    u = Subspace(3, a.basis() + b.basis())
    assert u.rank == 2
    assert u.reduce(col(3, {0: rfi(1), 1: rfq(1)})).is_zero()


def test_intersection_nontrivial():
    common = col(3, {0: rfi(1), 1: rfq(1), 2: rfq(2)})
    a = Subspace(3, [common, unit(3, 0)])
    b = Subspace(3, [common, unit(3, 1)])
    inter = intersect(a, b)
    assert inter.rank == 1
    assert inter.reduce(common).is_zero()


def test_add_vector_grows_rank():
    s = Subspace(3, [])
    assert s.add_vector(col(3, {0: rfi(1)})) is not None
    assert s.add_vector(col(3, {0: rfq(3)})) is None
    assert s.add_vector(col(3, {1: rfi(1), 2: rfi(1)})) is not None
    assert s.rank == 2


def test_add_vector_returns_a_copy_of_the_row_it_adds():
    s = Subspace(3, [])
    first = s.add_vector(col(3, {0: rfq(2), 1: rfi(4)}))
    assert first == col(3, {0: rfi(1), 1: rfq(-2, 4)})
    assert s.add_vector(col(3, {0: rfq(5), 1: rfq(3, 4)})) is None
    # The next row clears column 1 from the first; the returned copy keeps it.
    second = s.add_vector(col(3, {1: rfq(1), 2: rfi(-1)}))
    assert second == col(3, {1: rfi(1), 2: rfq(-1, -1)})
    assert first == col(3, {0: rfi(1), 1: rfq(-2, 4)})
    assert s.basis()[0] == col(3, {0: rfi(1), 2: rfq(-3, 4)})
    second.entries.clear()
    assert s.basis()[1] == col(3, {1: rfi(1), 2: rfq(-1, -1)})


def test_add_vector_to_a_full_space_reduces_nothing(monkeypatch):
    s = Subspace(3, [col(3, {0: rfi(1), 2: rfq(1)}), col(3, {1: rfq(2)}), col(3, {2: rfi(3)})])
    assert s.rank == 3
    calls = [0]
    reduce = Subspace.reduce

    def counting_reduce(self, v):
        calls[0] += 1
        return reduce(self, v)

    monkeypatch.setattr(Subspace, "reduce", counting_reduce)
    assert s.add_vector(col(3, {0: RatFn.of(1, 2), 1: rfq(-3)})) is None
    assert calls[0] == 0
    assert Subspace(3, []).add_vector(col(3, {1: rfi(1)})) is not None
    assert calls[0] == 1


def test_elimination_handles_denominators():
    half = RatFn.of(1, 2)
    a = SparseMat(2, 3, {(0, 0): half, (0, 1): rfq(-2), (1, 0): rfq(1), (1, 2): rfi(3)})
    basis = nullspace(a)
    assert len(basis) == 1
    assert a.apply(basis[0]).is_zero()


def test_echelon_rows_does_no_field_arithmetic_for_empty_rows(monkeypatch):
    from degenq import linalg, scalars

    calls = [0]
    canonical = scalars._canonical_pair

    def counting_canonical(num, den):
        calls[0] += 1
        return canonical(num, den)

    monkeypatch.setattr(scalars, "_canonical_pair", counting_canonical)
    rng = random.Random(11)
    rows = random_mat(rng, 4, 5).rows() + [{0: RatFn.of(1, 2), 3: rfq(-1)}]
    counts, results = [], []
    for padded in (rows, [{}] + rows[:2] + [{}, {}] + rows[2:] + [{}]):
        calls[0] = 0
        results.append(linalg.echelon_rows(padded, 5))
        counts.append(calls[0])
    assert results[0] == results[1]
    assert counts[0] == counts[1] > 0


# -- elimination against the fraction-free reference ---------------------------------
#
# Reduced row echelon form by fraction-free elimination over Z[q]: rows are
# cleared of denominators, updated by cross-multiplication and stripped of
# integer, polynomial and q-power content after each step, pivots chosen by
# fewest terms, then back-substituted and normalised over the field.  The
# reduced echelon basis of a span is unique, so Subspace.add_vector must give
# exactly these rows and pivots.


def _clear_row(row):
    """Scale a row by the lcm of its denominators, then strip content."""
    den = LaurentPoly.one()
    for v in row.values():
        den = _lcm(den, v.den)
    scale = RatFn(den)
    return _strip_content({j: (v * scale).num for j, v in row.items()})


def _strip_content(row):
    """Divide a Z[q] row by its common content (integer and polynomial) and q-shift."""
    row = {j: p for j, p in row.items() if p}
    if not row:
        return row
    shift = min(p.valuation for p in row.values())
    if shift:
        row = {j: p.shift(-shift) for j, p in row.items()}
    g = None
    for p in row.values():
        g = p.terms if g is None else _poly_gcd_dict(g, p.terms)
        if g == {0: 1}:
            return row
    return {j: LaurentPoly(_poly_divexact_dict(p.terms, g)) for j, p in row.items()}


def _ff_update(r, pv, c, pivot_row):
    """r <- pv*r - c*pivot_row, which stays in Z[q], with its content stripped."""
    out = {j: p * pv for j, p in r.items()}
    for j, p in pivot_row.items():
        s = out.get(j, LaurentPoly.zero()) - p * c
        if s:
            out[j] = s
        else:
            out.pop(j, None)
    return _strip_content(out)


def fraction_free_echelon(rows, ncols):
    work = [r for r in (_clear_row(r) for r in rows if r) if r]
    done, pivots = [], []
    while work:
        lead = min(min(r) for r in work)
        candidates = [r for r in work if min(r) == lead]
        pivot_row = min(candidates, key=lambda r: (len(r), sum(len(p.terms) for p in r.values())))
        work.remove(pivot_row)
        pv = pivot_row[lead]
        new_work = []
        for r in work:
            c = r.get(lead)
            out = r if c is None else _ff_update(r, pv, c, pivot_row)
            if out:
                new_work.append(out)
        work = new_work
        done.append(pivot_row)
        pivots.append(lead)
    for idx in range(len(done) - 1, -1, -1):
        col, prow = pivots[idx], done[idx]
        for upper in range(idx):
            c = done[upper].get(col)
            if c is not None:
                done[upper] = _ff_update(done[upper], prow[col], c, prow)
    result = []
    for prow, col in zip(done, pivots):
        inv = RatFn(prow[col]).inv()
        result.append({j: RatFn(p) * inv for j, p in prow.items()})
    order = sorted(range(len(pivots)), key=lambda t: pivots[t])
    return [result[t] for t in order], sorted(pivots)


def _echelon_inputs(run):
    """The (rows, ncols) of every echelon_rows call that run() makes."""
    with mock.patch.object(linalg, "echelon_rows", wraps=linalg.echelon_rows) as spy:
        run()
    return [call.args for call in spy.call_args_list]


_GRID = [GLParams(m, n) for m, n in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2))]
# Rcheck + q^-1 and Rcheck - q, multiples of the Hecke projectors, whose ranks
# are the eigenspace dimensions.
_PROJECTORS = [
    case
    for params in _GRID
    for case in _echelon_inputs(lambda: verify_hecke_and_spectrum(build_bundle(params)))
]
# The stacked e-columns of each two-dimensional weight space of the induced
# module, one lambda2 per simple-modules family.
_LAMBDA2 = {
    "typical-poly": lambda ell: RatFn.q(2),
    "typical-rational": lambda ell: RatFn.of(LaurentPoly({2: 1, 0: 1}), LaurentPoly({1: 1, 0: -2})),
    "atypical-A": lambda ell: RatFn.one(),
    "atypical-B": lambda ell: RatFn.q(-ell - 1),
}
_STACKED_E_COLUMNS = [
    case
    for ell in range(5)
    for lambda2 in _LAMBDA2.values()
    for case in _echelon_inputs(
        lambda: highest_weight_vectors(verma_module(HighestWeightSL21(ell, (-1) ** ell, lambda2(ell))).rep)
    )
]

_HALF = RatFn.of(1, 2)
_Q_PLUS_1 = LaurentPoly({1: 1, 0: 1})
_ELIM_ENTRIES = st.sampled_from(
    [
        RatFn.one(),
        -RatFn.one(),
        rfi(2),
        _HALF,
        rfq(1),
        rfq(-1, -3),
        RatFn(_Q_PLUS_1),
        RatFn.of(1, _Q_PLUS_1),
        RatFn.of(LaurentPoly({1: 1, 0: -2}), _Q_PLUS_1),
        RatFn.of(LaurentPoly({2: 1, 0: 1}), LaurentPoly({1: 2, 0: -1})),
    ]
)


@st.composite
def _row_lists(draw):
    """Sparse rows over Q(q) plus zero rows, repeats and combinations of them."""
    ncols = draw(st.integers(1, 6))
    row = st.dictionaries(st.integers(0, ncols - 1), _ELIM_ENTRIES, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for kind, i, j, c in draw(
        st.lists(st.tuples(st.sampled_from("zrc"), st.integers(0), st.integers(0), _ELIM_ENTRIES), max_size=4)
    ):
        a, b = rows[i % len(rows)], rows[j % len(rows)]
        if kind == "z":
            rows.append({})
        elif kind == "r":
            rows.append(dict(a))
        else:
            combo = {k: a.get(k, RatFn.zero()) * c + b.get(k, RatFn.zero()) for k in a.keys() | b.keys()}
            rows.append({k: v for k, v in combo.items() if v})
    return draw(st.permutations(rows)), ncols


def _with_workload_examples(test):
    for case in _PROJECTORS + _STACKED_E_COLUMNS:
        test = example(case)(test)
    return test


def test_workload_examples_are_collected():
    # Each grid point ranks Rcheck + q^-1 and Rcheck - q; each induced module
    # stacks the e-columns of each of its two-dimensional weight spaces.
    assert len(_PROJECTORS) == 2 * len(_GRID)
    assert len(_STACKED_E_COLUMNS) == 40
    assert {ncols for _, ncols in _STACKED_E_COLUMNS} == {2}


@settings(max_examples=150, deadline=None)
@_with_workload_examples
@given(_row_lists())
def test_elimination_matches_fraction_free_reference(case):
    rows, ncols = case
    expected = fraction_free_echelon(rows, ncols)
    assert linalg.echelon_rows(rows, ncols) == expected
    space = Subspace(ncols, [col(ncols, r) for r in rows])
    basis = [{i: x for (i, _), x in v.entries.items()} for v in space.basis()]
    assert (basis, space.pivot_columns()) == expected
