import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenq import invariants, reps, scalars
from degenq.errors import (
    DegenqError,
    DimensionMismatch,
    EqualMNUnsupported,
    IndexOutOfRange,
    InvalidInput,
    ResourceLimit,
    StrandMismatch,
)
from degenq.invariants import (
    MAX_SAMPLES,
    BraidEvaluator,
    BraidWord,
    _weight_class,
    braid_rep,
    homfly_variables,
    link_invariant,
    markov_trace,
    oracle_invariant,
    quantum_dimension,
    random_word,
    reduce_letters,
    verify_markov,
    verify_skein,
)
from degenq.expr import eval_in_rep
from degenq.linalg import SparseMat
from degenq.relations import k2rho_expr, k2rho_weights
from degenq.reps import Representation, generator_atoms, iterated_tensor, natural_rep, tensor_rep
from degenq.rmatrix import build_bundle, leg_operator
from degenq.scalars import GLParams, LaurentPoly, RatFn, quantum_int

P21 = GLParams(2, 1)
P31 = GLParams(3, 1)
rfq = RatFn.q


def k2rho_matrix(rep: Representation) -> SparseMat:
    """The image of the trace element; conjugation by it squares the antipode."""
    return eval_in_rep(k2rho_expr(rep.params), rep)


def quantum_trace(mat: SparseMat, rep: Representation) -> RatFn:
    """tr(nu(K_2rho) A), linear in A."""
    if mat.nrows != rep.dim or mat.ncols != rep.dim:
        raise DimensionMismatch(f"operator is not {rep.dim}x{rep.dim}")
    kd = k2rho_matrix(rep)
    total = RatFn.zero()
    for (i, j), v in mat.entries.items():
        if i == j:
            total = total + kd[i, i] * v
    return total


def partial_qtrace(gamma: SparseMat, params: GLParams) -> SparseMat:
    """(id (x) qtrace) of an operator on V (x) V, landing in operators on V."""
    d = params.size
    if gamma.nrows != d * d or gamma.ncols != d * d:
        raise DimensionMismatch(f"operator is not {d * d}x{d * d}")
    kd = [RatFn.q(e, sign) for sign, e in k2rho_weights(params)]
    out: dict[tuple[int, int], RatFn] = {}
    for (row, col), v in gamma.entries.items():
        i, s = divmod(row, d)
        j, t = divmod(col, d)
        if s != t:
            continue
        key = (i, j)
        add = kd[s] * v
        acc = out.get(key)
        acc = add if acc is None else acc + add
        if acc:
            out[key] = acc
        else:
            del out[key]
    return SparseMat(d, d, out)


# -- braid words ---------------------------------------------------------------------


def test_braid_word_basics():
    b = BraidWord(3, (1, -2, 1, -2))
    assert b.writhe == 0
    assert BraidWord(2, (1, 1, 1)).writhe == 3
    assert (b * b).letters == (1, -2, 1, -2, 1, -2, 1, -2)
    assert b.inverse().letters == (2, -1, 2, -1)
    assert b.stabilized().letters == (1, -2, 1, -2, 3)
    assert b.stabilized().strands == 4


def test_braid_word_validation():
    with pytest.raises(StrandMismatch):
        BraidWord(1, (1,))
    with pytest.raises(StrandMismatch):
        BraidWord(strands=0, letters=())
    with pytest.raises(StrandMismatch):
        BraidWord(2, (0,))
    with pytest.raises(StrandMismatch):
        BraidWord(2, (2,))
    with pytest.raises(StrandMismatch):
        BraidWord(3, (1,)) * BraidWord(2, (1,))


# -- quantum trace machinery ------------------------------------------------------------


def test_k2rho_image_21():
    rep = natural_rep(P21)
    assert k2rho_matrix(rep) == SparseMat.diagonal([rfq(1), rfq(-1), rfq(-1, -1)])


def test_k2rho_weights_are_the_diagonal_of_k2rho_on_the_natural_module():
    for m in range(1, 6):
        for n in range(1, 7 - m):
            params = GLParams(m, n)
            diagonal = k2rho_matrix(natural_rep(params)).diagonal_values()
            assert [rfq(e, sign) for sign, e in k2rho_weights(params)] == diagonal, (m, n)


def test_quantum_dimension_values():
    assert quantum_dimension(P21) == rfq(1)  # odd: q [1]_q
    assert quantum_dimension(P31) == rfq(1) + rfq(-1)  # even: [2]_q
    assert quantum_dimension(GLParams(1, 1)) == RatFn.zero()
    assert quantum_dimension(GLParams(1, 2)) == -rfq(1)  # odd: q [-1]_q


def test_quantum_dimension_matches_trace():
    for params in (P21, P31, GLParams(1, 1), GLParams(1, 2), GLParams(3, 2), GLParams(2, 2)):
        rep = natural_rep(params)
        assert quantum_trace(SparseMat.identity(rep.dim), rep) == quantum_dimension(params)


def test_quantum_trace_linear_and_zero():
    rep = natural_rep(P21)
    assert quantum_trace(SparseMat.zero(3, 3), rep) == RatFn.zero()
    a = SparseMat.unit(3, 3, 0, 0, rfq(2))
    b = SparseMat.unit(3, 3, 1, 1)
    assert quantum_trace(a + b, rep) == quantum_trace(a, rep) + quantum_trace(b, rep)


def test_quantum_trace_ad_invariance_spot():
    # tr_q(nu(x_(1)) A nu(S(x_(2)))) = eps(x) tr_q(A) for x = e_1 on a random A.
    from degenq.expr import Gen, antipode, cartan, eval_in_rep, one

    rep = natural_rep(P21)
    rng = random.Random(3)
    entries = {}
    for i in range(3):
        for j in range(3):
            if rng.random() < 0.7:
                entries[(i, j)] = rfq(rng.randint(-2, 2), rng.randint(-3, 3))
    a = SparseMat(3, 3, entries)
    total = RatFn.zero()
    e1 = Gen("e", 1)
    for lhs, rhs in ((e1, cartan(1)), (one(), e1)):  # Delta(e_1) = e_1 (x) k_1 + 1 (x) e_1
        total = total + quantum_trace(
            eval_in_rep(lhs, rep) * a * eval_in_rep(antipode(rhs), rep), rep
        )
    assert total == RatFn.zero()  # eps(e_1) = 0


def test_quantum_trace_multiplicative_under_tensor():
    rep = natural_rep(P21)
    vv = tensor_rep(rep, rep)
    rng = random.Random(5)
    for _ in range(3):
        a = SparseMat(3, 3, {(rng.randrange(3), rng.randrange(3)): rfq(rng.randint(-2, 2))})
        b = SparseMat(3, 3, {(rng.randrange(3), rng.randrange(3)): rfq(rng.randint(-2, 2))})
        assert quantum_trace(a.kron(b), vv) == quantum_trace(a, rep) * quantum_trace(b, rep)


# -- partial trace -------------------------------------------------------------------------


def test_partial_trace_of_identity():
    d = P21.size
    out = partial_qtrace(SparseMat.identity(d * d), P21)
    assert out == SparseMat.identity(d).scale(quantum_dimension(P21))


@pytest.mark.parametrize("params", [P21, P31, GLParams(3, 2)], ids=lambda p: f"{p.m}{p.n}")
def test_partial_trace_of_rcheck_scalars(params):
    bundle = build_bundle(params)
    d = params.size
    mn = params.m - params.n
    dimq = quantum_dimension(params)
    for mat, sign in ((bundle.Rcheck, 1), (bundle.Rcheckinv, -1)):
        out = partial_qtrace(mat, params)
        expected_ratio = rfq(sign * mn) / RatFn(quantum_int(mn))
        assert out == SparseMat.identity(d).scale(dimq * expected_ratio)


def test_partial_trace_21_rcheck_value():
    # gamma_+ at (2,1): q^(m-n+1) = q^2 times the identity
    bundle = build_bundle(P21)
    assert partial_qtrace(bundle.Rcheck, P21) == SparseMat.identity(3).scale(rfq(2))


def test_partial_trace_preserves_equivariance():
    rep = natural_rep(P21)
    vv = tensor_rep(rep, rep)
    bundle = build_bundle(P21)
    for gamma in (bundle.Rcheck, bundle.Rcheckinv, bundle.Rcheck * bundle.Rcheck):
        out = partial_qtrace(gamma, P21)
        for g in generator_atoms(rep.params):
            mat = rep.gen(g.kind, g.index)
            assert out * mat == mat * out


# -- braid representation ---------------------------------------------------------------------


def test_braid_rep_empty_word():
    assert braid_rep(BraidWord(2, ()), P21) == SparseMat.identity(9)


def test_braid_rep_relation():
    lhs = braid_rep(BraidWord(3, (1, 2, 1)), P21)
    rhs = braid_rep(BraidWord(3, (2, 1, 2)), P21)
    assert lhs == rhs


def test_braid_rep_distant_commute():
    lhs = braid_rep(BraidWord(4, (1, 3)), GLParams(1, 1))
    rhs = braid_rep(BraidWord(4, (3, 1)), GLParams(1, 1))
    assert lhs == rhs


def test_braid_rep_hecke_quadratic():
    for r, i in ((2, 1), (3, 2)):
        mat = braid_rep(BraidWord(r, (i,)), P21)
        d = 3**r
        ident = SparseMat.identity(d)
        q = rfq(1)
        assert ((mat - ident.scale(q)) * (mat + ident.scale(q.inv()))).is_zero()


def test_braid_rep_inverse_letters():
    assert braid_rep(BraidWord(2, (1, -1)), P21) == SparseMat.identity(9)


def test_braid_rep_resource_cap():
    with pytest.raises(ResourceLimit):
        braid_rep(BraidWord(8, (1,)), P21, max_dim=1000)


# -- Markov trace and invariant ------------------------------------------------------------------


def test_markov_trace_base_values():
    assert markov_trace(BraidWord(1, ()), P21) == RatFn.one()
    mn = 1
    assert markov_trace(BraidWord(2, (1,)), P21) == rfq(mn) / RatFn(quantum_int(mn))
    assert markov_trace(BraidWord(2, (-1,)), P21) == rfq(-mn) / RatFn(quantum_int(mn))


def test_markov_trace_values_31():
    mn = 2
    got = markov_trace(BraidWord(2, (1,)), P31)
    assert got == rfq(mn) / RatFn(quantum_int(mn))


def test_markov_trace_restriction_consistency():
    # A word in B_2 viewed inside B_3 has the same trace.
    word2 = BraidWord(2, (1, 1))
    word3 = BraidWord(3, (1, 1))
    assert markov_trace(word2, P21) == markov_trace(word3, P21)
    assert markov_trace(word2, P31) == markov_trace(word3, P31)


def test_markov_trace_rejects_equal_mn():
    with pytest.raises(EqualMNUnsupported):
        markov_trace(BraidWord(2, (1,)), GLParams(2, 2))
    with pytest.raises(EqualMNUnsupported):
        link_invariant(BraidWord(2, (1,)), GLParams(1, 1))


def test_unknot_normalizations():
    for params in (P21, P31, GLParams(1, 2)):
        assert link_invariant(BraidWord(1, ()), params).invariant == RatFn.one()
        assert link_invariant(BraidWord(2, (1,)), params).invariant == RatFn.one()
        assert link_invariant(BraidWord(2, (-1,)), params).invariant == RatFn.one()


def test_invariant_result_fields():
    res = link_invariant(BraidWord(2, (1, 1, 1)), P31)
    assert res.writhe == 3
    assert res.braid.strands == 2
    mn = 2
    expected = rfq(-mn * 3) * RatFn(quantum_int(mn)) * res.markov_trace
    assert res.invariant == expected


# -- engine vs oracle ---------------------------------------------------------------------------


def test_trefoil_and_friends_match_oracle():
    words = {
        "trefoil": BraidWord(2, (1, 1, 1)),
        "figure-eight": BraidWord(3, (1, -2, 1, -2)),
        "hopf": BraidWord(2, (1, 1)),
    }
    for params in (P21, P31):
        for name, word in words.items():
            engine = link_invariant(word, params).invariant
            oracle = oracle_invariant(word, params)
            assert engine == oracle, (params, name)


def test_invariant_depends_only_on_mn_difference():
    words = (BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2)), BraidWord(2, (1, 1)))
    pairs = (((2, 1), (3, 2)), ((3, 1), (4, 2)), ((1, 3), (2, 4)))
    for small, big in pairs:
        for word in words:
            assert (
                link_invariant(word, GLParams(*small)).invariant
                == link_invariant(word, GLParams(*big)).invariant
            ), (small, big, word)
    # At m - n = +-1 these words all give +-1; at +-2 they do not, so the
    # comparison above can fail.
    for word in words:
        assert link_invariant(word, P31).invariant != link_invariant(word, P21).invariant


def test_invariant_31_trefoil_nontrivial():
    value = link_invariant(BraidWord(2, (1, 1, 1)), P31).invariant
    assert value == rfq(-2) + rfq(-6) - rfq(-8)
    assert value != RatFn.one()


def test_random_words_match_oracle():
    rng = random.Random(77)
    for _ in range(6):
        word = random_word(rng, 3, 2, 5)
        for params in (P21, P31):
            assert link_invariant(word, params).invariant == oracle_invariant(word, params)


# -- column propagation against the replaced paths -----------------------------------------------


@st.composite
def braid_words(draw, min_strands, max_strands, max_len, min_len=0):
    strands = draw(st.integers(min_strands, max_strands))
    letter = st.integers(1, max(1, strands - 1)).flatmap(lambda i: st.sampled_from((i, -i)))
    letters = draw(st.lists(letter, min_size=min_len, max_size=max_len)) if strands > 1 else []
    return BraidWord(strands, tuple(letters))


def params_and_words(params_choices, min_strands, max_strands, max_len):
    return st.tuples(
        st.sampled_from(params_choices), braid_words(min_strands, max_strands, max_len)
    )


def _generator_product(word, params):
    """The braid image as a product of leg-placed Rcheck/Rcheckinv SparseMats."""
    bundle = build_bundle(params)
    d = params.size
    out = SparseMat.identity(d**word.strands)
    for letter in word.letters:
        i = abs(letter)
        gen = bundle.Rcheck if letter > 0 else bundle.Rcheckinv
        out = out * leg_operator(gen, i, i + 1, word.strands, d)
    return out


_SMALL_PARAMS = (P21, GLParams(1, 2), P31, GLParams(1, 3))


@settings(max_examples=30, deadline=None)
@given(params_and_words(_SMALL_PARAMS, 1, 4, 8))
def test_braid_rep_equals_generator_product(case):
    params, word = case
    assert braid_rep(word, params) == _generator_product(word, params)


@settings(max_examples=20, deadline=None)
@given(params_and_words(_SMALL_PARAMS + (GLParams(3, 2),), 2, 3, 8))
def test_markov_trace_equals_quantum_trace_of_generator_product(case):
    params, word = case
    tensor = iterated_tensor(natural_rep(params), word.strands)
    expected = quantum_trace(_generator_product(word, params), tensor) / (
        quantum_dimension(params) ** word.strands
    )
    assert markov_trace(word, params) == expected


_P41, _P14 = GLParams(4, 1), GLParams(1, 4)

# Short words on 6 and 7 strands, where (2, 1) has dimension 729 and 2187.
_LONG_STRAND_WORDS = params_and_words((P21,), 6, 7, 5)


@settings(max_examples=12, deadline=None)
@given(params_and_words((P31, GLParams(1, 3), _P41, _P14), 4, 5, 9))
def test_four_and_five_strand_words_match_oracle(case):
    params, word = case
    assert link_invariant(word, params).invariant == oracle_invariant(word, params)


@settings(max_examples=6, deadline=None)
@given(_LONG_STRAND_WORDS)
def test_six_and_seven_strand_words_match_oracle(case):
    params, word = case
    assert link_invariant(word, params).invariant == oracle_invariant(word, params)


# -- integer columns against the Laurent-polynomial reference ------------------------------------


def _reference_columns(word, params):
    """The braid image as columns {row: LaurentPoly}, propagated one letter at
    a time with a Laurent multiply for every entry."""
    bundle = build_bundle(params)
    d = params.size
    r = word.strands
    cols = [{c: LaurentPoly.one()} for c in range(d**r)]
    for letter in word.letters:
        op = bundle.Rcheck if letter > 0 else bundle.Rcheckinv
        pair_cols = [[] for _ in range(d * d)]
        for (y, x), v in op.entries.items():
            assert v.is_polynomial()
            pair_cols[x].append((y, v.num))
        # Legs i, i+1 hold the base-d^2 digit of place value d^(r-1-i).
        place = d ** (r - 1 - abs(letter))
        new = []
        for c in range(d**r):
            x = (c // place) % (d * d)
            base = c - x * place
            out = {}
            for y, coeff in pair_cols[x]:
                for row, v in cols[base + y * place].items():
                    acc = out.get(row, LaurentPoly.zero()) + coeff * v
                    if acc:
                        out[row] = acc
                    else:
                        out.pop(row, None)
            new.append(out)
        cols = new
    return cols


def _reference_matrix(word, params):
    d = params.size**word.strands
    cols = _reference_columns(word, params)
    entries = {(row, c): RatFn(v) for c, col in enumerate(cols) for row, v in col.items()}
    return SparseMat(d, d, entries)


def _reference_trace(word, params):
    """The diagonal weighted by products of the K_2rho entries, then one division."""
    kd = [v.num for v in k2rho_matrix(natural_rep(params)).diagonal_values()]
    weights = [LaurentPoly.one()]
    for _ in range(word.strands):
        weights = [w * k for w in weights for k in kd]
    total = LaurentPoly.zero()
    for c, col in enumerate(_reference_columns(word, params)):
        if c in col:
            total = total + weights[c] * col[c]
    return RatFn(total, quantum_dimension(params).num ** word.strands)


_ALL_PARAMS = _SMALL_PARAMS + (GLParams(3, 2),)


@settings(max_examples=40, deadline=None)
@given(st.one_of(params_and_words(_ALL_PARAMS + (_P41, _P14), 1, 5, 8), _LONG_STRAND_WORDS))
@example((P21, BraidWord(1, ())))
@example((GLParams(1, 3), BraidWord(3, ())))
@example((GLParams(3, 2), BraidWord(5, (1, -4))))
@example((P31, BraidWord(2, (-1,))))
@example((GLParams(1, 2), BraidWord(4, (1, -2, 3, 2, -1))))
@example((P21, BraidWord(4, (1, -2, 3, -1, 2, 2, -3, 1, 3, -2, -1, 3, 2, -1, -3, 2, 1, -2, 3, 1, -1))))
def test_markov_trace_equals_laurent_reference(case):
    # trace contracts the images of the word's two halves; the examples give
    # an empty first half, an odd length, and a 21-letter word.
    params, word = case
    assert markov_trace(word, params) == _reference_trace(word, params)


def test_seeded_long_six_strand_word_matches_oracle():
    # An 18-letter word on 6 strands at (2, 1): two 9-letter halves on blocks
    # of up to 90 columns.
    word = random_word(random.Random(1306), 6, 18, 18)
    assert len(word.letters) == 18
    assert link_invariant(word, P21).invariant == oracle_invariant(word, P21)


@pytest.mark.parametrize("m, n, strands", [(4, 1, 6), (3, 1, 7), (1, 4, 6)])
def test_seeded_42_letter_words_match_oracle(m, n, strands):
    # 42 letters on 6 or 7 strands, under the default cap: out of reach of a
    # skein recursion, at most 7! 42 term updates for the Ocneanu trace.
    params = GLParams(m, n)
    word = random_word(random.Random(4200 + strands), strands, 42, 42)
    value = oracle_invariant(word, params)
    assert value != RatFn.one()
    assert link_invariant(word, params).invariant == value


def _block_traces(word, params):
    """The plain trace of the braid image on each weight block, read from the
    Laurent reference fold: {composition: LaurentPoly}."""
    d, r = params.size, word.strands
    out = {}
    for c, col in enumerate(_reference_columns(word, params)):
        digits = [c // d ** (r - 1 - i) % d for i in range(r)]
        counts = tuple(digits.count(a) for a in range(d))
        out[counts] = out.get(counts, LaurentPoly.zero()) + col.get(c, LaurentPoly.zero())
    return out


# The class lemma on its own: rearranging a weight block's composition within
# the even and within the odd indices keeps its plain trace, and so does
# changing the parity of an index of multiplicity 1, whose q_a no letter reads.
# sigma_1 on 2 strands separates the classes (2,0,0) and (0,0,2) at (2, 1),
# with traces q and -q^-1, so a key that forgets a repeated index's parity
# fails here; the same word puts (1,1,0), (1,0,1) and (0,1,1) in one class.
def test_weight_class_key_merges_singletons_of_either_parity():
    assert _weight_class((2, 0, 0), 2) != _weight_class((0, 0, 2), 2)
    assert len({_weight_class(c, 2) for c in ((1, 1, 0), (1, 0, 1), (0, 1, 1))}) == 1
    assert _weight_class((0, 2, 1, 0, 1), 3) == _weight_class((1, 0, 2, 1, 0), 3) == ((2,), (), 2)
    assert _weight_class((0, 2, 1, 0, 1), 3) != _weight_class((1, 1, 0, 2, 0), 3)


@settings(max_examples=30, deadline=None)
@given(params_and_words((P21, GLParams(1, 2), P31, GLParams(3, 2), GLParams(2, 3), _P41), 1, 5, 6))
@example((P21, BraidWord(2, (1,))))
@example((GLParams(3, 2), BraidWord(4, (1, -2, 3, 2))))
@example((GLParams(2, 3), BraidWord(3, (1, 2, -1, 2))))
def test_block_traces_are_equal_within_a_weight_class(case):
    params, word = case
    by_class = {}
    for counts, value in _block_traces(word, params).items():
        by_class.setdefault(_weight_class(counts, params.m), set()).add(value)
    assert all(len(values) == 1 for values in by_class.values()), by_class


@settings(max_examples=25, deadline=None)
@given(params_and_words(_ALL_PARAMS, 1, 5, 6))
@example((GLParams(1, 2), BraidWord(1, ())))
@example((P31, BraidWord(4, ())))
def test_braid_rep_equals_laurent_reference(case):
    params, word = case
    assert braid_rep(word, params) == _reference_matrix(word, params)


# Long words.  sigma1^+-40 runs 40 letters of q^+-1 shifts through the
# offset, though by the Hecke relation its entries stay in {0, +-1}.
# Alternating letters on 3 strands grow the coefficients: at (3, 1) an entry
# of the image of (sigma1 sigma2^-1)^15 reaches 387,573 and its trace
# numerator 197,574, so a digit width too narrow for the decode gives a wrong
# value.
_LONG_WORDS = {
    "sigma1^40": BraidWord(2, (1,) * 40),
    "sigma1^-40": BraidWord(2, (-1,) * 40),
    "(sigma1 sigma2^-1)^15": BraidWord(3, (1, -2) * 15),
}


@pytest.mark.parametrize("name", sorted(_LONG_WORDS))
def test_long_words_match_oracle_and_reference(name):
    word = _LONG_WORDS[name]
    for params in (P31, GLParams(1, 3)):
        assert link_invariant(word, params).invariant == oracle_invariant(word, params)
        assert markov_trace(word, params) == _reference_trace(word, params)
        assert braid_rep(word, params) == _reference_matrix(word, params)


# -- cancelling inverse letters -----------------------------------------------------------------


@pytest.mark.parametrize(
    "letters, reduced",
    [
        ((1, 2, -1), (1, 2, -1)),  # sigma_2 is adjacent to sigma_1: kept
        ((1, 3, -1), (3,)),  # sigma_3 commutes with sigma_1
        ((2, 4, -4, -2), ()),
        ((1, 3, -1, -3, 2, 4, -4, -2), ()),
        ((1, 1, -1), (1,)),
        ((-2, 1, 2), (-2, 1, 2)),
        ((2, -1, 1, -2), ()),
        ((1, 4, 3, -1), (4, 3)),
        ((1, 3, 2, -3, -1), (1, 3, 2, -3, -1)),
        ((), ()),
        # sigma1^+-40 and (sigma1 sigma2^-1)^15 have nothing to cancel.
        *((word.letters, word.letters) for word in _LONG_WORDS.values()),
    ],
)
def test_reduce_letters_cancels_across_far_letters_only(letters, reduced):
    assert reduce_letters(letters) == reduced


@st.composite
def words_with_inverse_pairs(draw):
    """(params, word): a random word with 1-3 pairs x ... -x inserted, each
    with up to two letters at least 2 strands from x between them."""
    params = draw(st.sampled_from(_ALL_PARAMS))
    strands = draw(st.integers(2, 5))
    letters = list(draw(braid_words(strands, strands, 4)).letters)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, strands - 1))
        far = [s * j for j in range(1, strands) if abs(j - i) > 1 for s in (1, -1)]
        between = draw(st.lists(st.sampled_from(far), max_size=2)) if far else []
        x = draw(st.sampled_from((i, -i)))
        at = draw(st.integers(0, len(letters)))
        letters[at:at] = [x, *between, -x]
    return params, BraidWord(strands, tuple(letters))


@settings(max_examples=30, deadline=None)
@given(words_with_inverse_pairs())
@example((GLParams(3, 2), BraidWord(5, (1, 3, -1, -3, 2, 4, -4, -2))))
@example((P31, BraidWord(4, (2, -1, 3, 1, -3, -2))))
@example((GLParams(1, 2), BraidWord(3, (1, 2, -2, -1, 2))))
def test_trace_of_a_word_with_inverse_pairs_equals_the_unreduced_reference(case):
    # The trace runs the reduced word; the reference and the oracle run the
    # word as drawn.
    params, word = case
    assert len(reduce_letters(word.letters)) < len(word.letters)
    assert markov_trace(word, params) == _reference_trace(word, params)
    assert link_invariant(word, params).invariant == oracle_invariant(word, params)


@pytest.mark.parametrize("spoil", ["Rcheck", "negated"])
def test_braid_evaluator_rejects_tables_that_are_not_mutual_inverses(spoil):
    bundle = build_bundle(P21)
    inv = bundle.Rcheck if spoil == "Rcheck" else bundle.Rcheckinv.scale(-RatFn.one())
    with pytest.raises(DegenqError, match="not mutual inverses"):
        BraidEvaluator(bundle._replace(Rcheckinv=inv), 2)


# -- properties over the (m, n) grid --------------------------------------------------------------

_UNEQUAL_MN = [(m, n) for m in range(1, 5) for n in range(1, 6 - m) if m != n]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_UNEQUAL_MN), braid_words(1, 4, 7))
def test_invariant_equals_oracle_over_unequal_mn(mn, word):
    params = GLParams(*mn)
    assert link_invariant(word, params).invariant == oracle_invariant(word, params)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([((2, 1), (3, 2)), ((1, 2), (2, 3)), ((3, 1), (4, 2)), ((1, 3), (2, 4))]),
    braid_words(1, 4, 7),
)
def test_invariant_depends_only_on_m_minus_n(pair, word):
    small, big = (GLParams(*mn) for mn in pair)
    assert link_invariant(word, small).invariant == link_invariant(word, big).invariant


def test_markov_trace_does_no_full_size_products(monkeypatch):
    # The trace must not multiply d^r x d^r matrices, and its canonicalizing
    # (gcd) work must not grow with the word.
    dims = []
    mul = SparseMat.__mul__

    def counting_mul(a, b):
        dims.extend((a.nrows, a.ncols, b.nrows, b.ncols))
        return mul(a, b)

    canonical_calls = [0]
    canonical = scalars._canonical_pair

    def counting_canonical(num, den):
        canonical_calls[0] += 1
        return canonical(num, den)

    monkeypatch.setattr(SparseMat, "__mul__", counting_mul)
    monkeypatch.setattr(scalars, "_canonical_pair", counting_canonical)
    short = BraidWord(4, (1, -2, 3, 2))
    long = BraidWord(4, (1, -2, 3, 2, -1, -3, 2, 1, 3, -2, -1, 3))
    counts = []
    for word in (short, long):
        # Both traces pay the evaluator set-up, as neither finds it in the store.
        reps.clear_setups()
        canonical_calls[0] = 0
        markov_trace(word, P31)
        counts.append(canonical_calls[0])
    assert P31.size**4 not in dims
    assert counts[0] == counts[1]


def test_trace_propagates_one_block_per_class_and_matrix_every_block(monkeypatch):
    sizes = []
    block = BraidEvaluator._block

    def counting_block(self, word, counts, scale):
        members, cols = block(self, word, counts, scale)
        sizes.append(len(members))
        return members, cols

    monkeypatch.setattr(BraidEvaluator, "_block", counting_block)
    params = GLParams(3, 2)
    word = BraidWord(5, (1, -2, 3, -4, 2))
    assert markov_trace(word, params) == _reference_trace(word, params)
    # 16 classes of weight blocks on (3, 2, 5), 422 of the 3,125 columns,
    # each propagated twice: through the first half of the word and the second.
    assert (len(sizes), sum(sizes)) == (32, 844)
    sizes.clear()
    braid_rep(word, params)
    # All 126 blocks, one at a time; the largest, (1,1,1,1,1), has 5! columns.
    assert (len(sizes), sum(sizes), max(sizes)) == (126, 3125, 120)


def _per_class_trace(evaluator, word):
    """The trace with each class's plain trace times its K_2rho weight encoded
    at B, class by class: the formula that the weight buckets replace."""
    letters = reduce_letters(word.letters)
    bits, _ = scale = evaluator._scale(word, len(letters))
    half = len(letters) // 2
    total = 0
    for layout, weight in evaluator._classes:
        _, p = evaluator._block(letters[:half], layout, scale)
        _, q = evaluator._block(letters[half:], layout, scale)
        plain = sum(v * q[i].get(j, 0) for j, col in enumerate(p) for i, v in col.items())
        total += plain * scalars._encode(weight, bits, evaluator._k)
    value = scalars._decode(total, bits, -len(letters) * evaluator._lag - evaluator._k)
    return RatFn(value, evaluator._dimq_r)


@pytest.mark.parametrize("params", [P21, GLParams(1, 2), P31, GLParams(3, 2)], ids=str)
def test_trace_by_weight_buckets_equals_the_per_class_formula(params):
    # Seeded words on 2-5 strands, with inverse letters, at the grid points
    # with m != n: the bucketed sum is the per-class sum, exactly.
    rng = random.Random(4000 + 10 * params.m + params.n)
    for strands in (2, 3, 4, 5):
        evaluator = invariants._evaluator(params, strands, reps.DEFAULT_MAX_DIM)
        assert len({e for _, weight in evaluator._classes for e in weight.terms}) > 1
        for _ in range(4):
            word = random_word(rng, strands, 1, 3 * strands)
            assert evaluator.trace(word) == _per_class_trace(evaluator, word)


# -- the evaluator's kept layouts and letter tables -----------------------------------------------


@st.composite
def warm_cases(draw):
    """(params, warm-up words, word) on one strand count: warm-up words of
    0-2, 6-10 and 14-20 letters, so that B changes from one trace to the next."""
    params = draw(st.sampled_from((P21, GLParams(1, 2), P31, GLParams(3, 2))))
    strands = draw(st.integers(1, 5))
    warm = tuple(draw(braid_words(strands, strands, hi, lo)) for lo, hi in ((6, 10), (0, 2), (14, 20)))
    return params, warm, draw(braid_words(strands, strands, 8))


@settings(max_examples=25, deadline=None)
@given(warm_cases())
@example((P31, (BraidWord(3, (1, -2) * 15), BraidWord(3, (2,))), BraidWord(3, ())))
@example((GLParams(3, 2), (BraidWord(4, (1, -2, 3) * 5), BraidWord(4, ())), BraidWord(4, (-3,))))
@example((P31, (BraidWord(3, (2, 1)), BraidWord(3, (-1,) * 9)), BraidWord(3, (1, -2) * 15)))
def test_warm_evaluator_trace_equals_fresh_and_reference(case):
    # The warm-up words leave tables built at other digit widths on the
    # memo's evaluator; the word's trace must not depend on them.
    params, warm, word = case
    for w in warm:
        markov_trace(w, params)
    got = markov_trace(word, params)
    assert got == BraidEvaluator(build_bundle(params), word.strands).trace(word)
    assert got == _reference_trace(word, params)
    assert link_invariant(word, params).invariant == oracle_invariant(word, params)


def test_warm_trace_builds_no_layout_or_table(monkeypatch):
    built = {"_layout": 0, "_table": 0}

    def counting(name):
        method = getattr(BraidEvaluator, name)

        def wrapper(self, *args):
            built[name] += 1
            return method(self, *args)

        return wrapper

    for name in built:
        monkeypatch.setattr(BraidEvaluator, name, counting(name))
    evaluator = BraidEvaluator(build_bundle(GLParams(3, 2)), 5)
    evaluator.trace(BraidWord(5, (1, 2, 3, 4, -1, -2, -3, -4)))
    # One layout per class of weight blocks on (3, 2, 5), and at most one
    # table per class for each of the 8 letters.
    assert built["_layout"] == len(evaluator._classes) == 16
    assert sum(len(tables) for (_, _, tables), _ in evaluator._classes) <= 16 * 8
    for word in (BraidWord(5, ()), BraidWord(5, (-4,)), random_word(random.Random(5), 5, 30, 30)):
        built.update(_layout=0, _table=0)
        evaluator.trace(word)
        assert built == {"_layout": 0, "_table": 0}


def test_braid_evaluator_rejects_rational_entries():
    bundle = build_bundle(P21)
    half = RatFn.one() / RatFn.integer(2)
    with pytest.raises(DegenqError, match="not a Laurent polynomial"):
        BraidEvaluator(bundle._replace(Rcheck=bundle.Rcheck.scale(half)), 2)


# -- verification suites ----------------------------------------------------------------------


def test_verify_markov_21():
    report = verify_markov(P21, samples=8)
    assert report.all_passed, [c.name for c in report.failures]


def test_verify_markov_31():
    report = verify_markov(P31, samples=6)
    assert report.all_passed, [c.name for c in report.failures]


@pytest.mark.parametrize("samples", [10, 20])
def test_conjugation_pairs_reduce_to_distinct_words(monkeypatch, samples):
    # With the suite's seed, 1 of the first 10 drawn pairs and 3 of the first
    # 20 have b c and c b that reduce to one word; those are redrawn.
    words = []
    trace = invariants.markov_trace

    def recording(word, params, max_dim):
        words.append(word)
        return trace(word, params, max_dim)

    monkeypatch.setattr(invariants, "markov_trace", recording)
    assert verify_markov(P21, samples=samples).all_passed
    pairs = words[: 2 * samples]
    assert {w.strands for w in pairs} == {3}
    for bc, cb in zip(pairs[::2], pairs[1::2]):
        assert reduce_letters(bc.letters) != reduce_letters(cb.letters), (bc, cb)


def test_verify_markov_rejects_a_negative_sample_count():
    # Called as a library function, not only through the CLI.
    for params in (P21, GLParams(2, 2)):
        with pytest.raises(InvalidInput, match="nonnegative"):
            verify_markov(params, samples=-1)


def test_verify_markov_refuses_a_sample_count_above_the_limit_before_any_trace(monkeypatch):
    def no_trace(self, word):
        raise AssertionError("a trace was computed")

    monkeypatch.setattr(BraidEvaluator, "trace", no_trace)
    for params in (P21, GLParams(2, 2)):
        with pytest.raises(ResourceLimit, match=f"exceeds the limit {MAX_SAMPLES}"):
            verify_markov(params, samples=MAX_SAMPLES + 1)


def test_homfly_variables_are_a_power_of_q_and_q_minus_q_inverse():
    z = RatFn.q(1) - RatFn.q(-1)
    assert homfly_variables(P21) == (RatFn.q(1), z)
    assert homfly_variables(GLParams(1, 3)) == (RatFn.q(-2), z)


def test_invariant_suites_build_one_evaluator_per_strand_count(monkeypatch):
    strands = []
    init = BraidEvaluator.__init__

    def counting_init(self, bundle, r):
        strands.append(r)
        init(self, bundle, r)

    monkeypatch.setattr(BraidEvaluator, "__init__", counting_init)
    assert verify_markov(P21, samples=4).all_passed
    assert verify_skein(P21, [(BraidWord(3, (1, -2, 1)), 1)]).all_passed
    # The skein suite reuses both of the Markov suite's evaluators.
    assert sorted(strands) == [2, 3]


def test_evaluator_memo_is_keyed_on_params_and_strands(monkeypatch):
    built = []
    init = BraidEvaluator.__init__

    def counting_init(self, bundle, r):
        built.append((bundle.params, r))
        init(self, bundle, r)

    monkeypatch.setattr(BraidEvaluator, "__init__", counting_init)
    for params in (P21, GLParams(1, 2), P31):
        for r in (2, 3, 2):
            assert invariants._evaluator(params, r, 20000) is reps.setup(params).get(("evaluator", r), None)
    assert len(built) == len(set(built)) == 6


def test_memo_hit_still_checks_the_dimension_cap():
    word = BraidWord(5, (1, 2, 3, 4))
    markov_trace(word, P21)
    with pytest.raises(ResourceLimit, match="exceeds cap 100"):
        markov_trace(word, P21, max_dim=100)
    with pytest.raises(ResourceLimit, match="exceeds cap 100"):
        braid_rep(word, P21, max_dim=100)


def test_suite_invariant_matches_link_invariant():
    # The suites compute phi and I through the memo; the memo's values agree
    # with a fresh evaluator's.
    rng = random.Random(5)
    for params in (P21, GLParams(1, 2), P31):
        for r in (2, 3):
            word = random_word(rng, r)
            fresh = BraidEvaluator(build_bundle(params), r).trace(word)
            assert markov_trace(word, params) == fresh
            expected = invariants._normalize(fresh, word, params)
            assert link_invariant(word, params).invariant == expected


def test_invariant_checks_print_both_values_when_they_fail(monkeypatch):
    q = rfq(1)
    monkeypatch.setattr(invariants, "markov_trace", lambda word, params, max_dim=None: q)
    details = {c.name: (c.status, c.detail) for c in verify_markov(P31, samples=1).checks}
    assert details == {
        "conjugation invariance on 1 random pairs in B_3": ("pass", "1/1 exact"),
        "stabilization invariance of the normalized invariant": ("fail", "0/2 exact"),
        "negative control: unnormalized trace moves under stabilization": (
            "fail",
            "phi_2(1 1) = q; phi_3(1 1 2) = q",
        ),
        "positive stabilization factor q^(m-n)/[m-n]_q": (
            "fail",
            "phi_2(1) = q; q^(m-n)/[m-n]_q = (q^3)/(q^2 + 1)",
        ),
        "negative stabilization factor q^(n-m)/[m-n]_q": (
            "fail",
            "phi_2(-1) = q; q^(n-m)/[m-n]_q = (q^-1)/(q^2 + 1)",
        ),
        "empty braid traces to 1": ("fail", "phi_2() = q; expected = 1"),
    }
    trefoil = BraidWord(2, (1, 1, 1))
    for value, skein, control in (
        (RatFn.one(), "q^(m-n) I(L+) - q^(n-m) I(L-) = q^2 - q^-2; (q - q^-1) I(L0) = q - q^-1", ""),
        (RatFn.zero(), "", "q^(n-m) I(1 1 1) - q^(m-n) I(-1 1 1) = 0; (q - q^-1) I(1 1) = 0"),
    ):
        monkeypatch.setattr(invariants, "_normalize", lambda phi, word, params: value)
        report = verify_skein(P31, [(trefoil, 0)])
        assert [c.detail for c in report.checks] == [skein, control]


def test_passing_invariant_checks_have_no_value_detail():
    report = verify_markov(P21, samples=2)
    report.extend(verify_skein(P31, [(BraidWord(3, (1, -2, 1)), 1)]))
    assert report.all_passed
    assert all(c.detail == "" or c.detail.endswith(" exact") for c in report.checks)


def test_verify_markov_equal_mn_unsupported():
    report = verify_markov(GLParams(2, 2), samples=2)
    assert report.unsupported


def test_verify_skein_on_fixed_and_random_words():
    sites = [(BraidWord(2, (1, 1, 1)), 0)]
    rng = random.Random(31)
    for _ in range(4):
        word = random_word(rng, 3, 2, 4)
        sites.append((word, rng.randrange(len(word.letters))))
    for params in (P21, P31):
        report = verify_skein(params, sites)
        assert report.all_passed, (params, [c.name for c in report.failures])
        # One check per site, named by its position and letters, then the
        # negative control once.
        assert len(report.checks) == len(sites) + 1
        assert report.checks[0].name == "skein at position 0 of 1 1 1"
    with pytest.raises(IndexOutOfRange, match="position 3 outside the word 1 1 1"):
        verify_skein(P21, [(BraidWord(2, (1, 1, 1)), 3)])


def test_partial_trace_equivariance_includes_projectors():
    rep = natural_rep(P21)
    bundle = build_bundle(P21)
    q = rfq(1)
    ident = SparseMat.identity(9)
    denom = (q + q.inv()).inv()
    proj_s = (bundle.Rcheck + ident.scale(q.inv())).scale(denom)
    proj_a = (ident.scale(q) - bundle.Rcheck).scale(denom)
    for gamma in (proj_s, proj_a):
        out = partial_qtrace(gamma, P21)
        for g in generator_atoms(rep.params):
            mat = rep.gen(g.kind, g.index)
            assert out * mat == mat * out


def test_braid_word_concatenation_monoid():
    b = BraidWord(3, (1, -2))
    c = BraidWord(3, (2,))
    d = BraidWord(3, (-1, 1))
    assert ((b * c) * d).letters == (b * (c * d)).letters
    empty = BraidWord(3, ())
    assert (b * empty).letters == b.letters
    assert (empty * b).letters == b.letters
