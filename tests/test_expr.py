import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenq import expr as expr_module
from degenq.errors import ExprSyntaxError, IndexOutOfRange, MissingGenerator, ResourceLimit
from degenq.expr import (
    MAX_ENTRY_BITS,
    Expr,
    Gen,
    Pow,
    Prod,
    Scalar,
    Sum,
    antipode,
    cartan,
    cartan_inv,
    compile_batch,
    e,
    eval_batch,
    eval_in_rep,
    f,
    K,
    Kinv,
    make_pow,
    make_prod,
    make_sum,
    negate,
    one,
    parse_expr,
)
from degenq.linalg import SparseMat
from degenq.relations import relation_catalog, root_vectors
from degenq.reps import dual_rep, iterated_tensor, natural_rep, tensor_rep, trivial_rep
from degenq.scalars import GLParams, LaurentPoly, RatFn, _digit_bits, parse_scalar, scalar_to_text
from degenq.sl21 import HighestWeightSL21, simple_quotient, verma_module

P21 = GLParams(2, 1)
P32 = GLParams(3, 2)


# -- printer and lowering monomials, for the tests ---------------------------------


def _signed(v: RatFn) -> tuple[str, RatFn]:
    return ("-", -v) if v.num and v.num.leading_coeff() < 0 else ("+", v)


def _scalar_factor_text(v: RatFn) -> str:
    """A scalar as a product factor, parenthesized unless a positive monomial."""
    text = scalar_to_text(v)
    monomial = v.is_polynomial() and len(v.num.terms) == 1 and v.num.leading_coeff() > 0
    return text if monomial else f"({text})"


def _factor_text(x: Expr) -> str:
    if isinstance(x, Scalar):
        return _scalar_factor_text(x.value)
    if isinstance(x, Pow) and isinstance(x.base, Gen) and x.base.kind == "Kinv":
        return f"K{x.base.index}^-{x.exp}"
    if isinstance(x, Pow):
        base = x.base
        return (_factor_text(base) if isinstance(base, Gen) else f"({expr_to_text(base)})") + f"^{x.exp}"
    if isinstance(x, Gen):
        return f"K{x.index}^-1" if x.kind == "Kinv" else f"{x.kind}{x.index}"
    return f"({expr_to_text(x)})"


def _term_text(x: Expr) -> tuple[str, str]:
    """(sign, body): the sign '+' or '-' and the term's text without it."""
    if isinstance(x, Scalar):
        sign, v = _signed(x.value)
        # A multi-term polynomial is parenthesized to re-parse as one leaf; a
        # rational function already prints in parseable (num)/(den) form.
        multi = v.is_polynomial() and len(v.num.terms) > 1
        return sign, f"({scalar_to_text(v)})" if multi else scalar_to_text(v)
    factors = x.factors if isinstance(x, Prod) else (x,)
    sign, parts = "+", [_factor_text(t) for t in factors]
    if isinstance(factors[0], Scalar):
        sign, v = _signed(factors[0].value)
        parts[:1] = [] if v.is_one() else [_scalar_factor_text(v)]
    return sign, "*".join(parts)


def expr_to_text(x: Expr) -> str:
    """Expression text that parse_expr reads back as x."""
    out = ""
    for t in x.terms if isinstance(x, Sum) else (x,):
        sign, body = _term_text(t)
        if out:
            out += f" {sign} {body}"
        else:
            out = body if sign == "+" else f"-{body}"
    return out


def gamma_monomials(params: GLParams) -> list[Expr]:
    """The 2^(m*n) ordered monomials in the lowering root vectors E_{m+j, i}.

    For each i the block runs E_{m+n,i}, E_{m+n-1,i}, ..., E_{m+1,i} with
    exponents in {0, 1}; blocks are concatenated for i = 1..m.
    """
    m, n = params.m, params.n
    E = root_vectors(params)
    slots = [E[(m + j, i)] for i in range(1, m + 1) for j in range(n, 0, -1)]
    monomials = []
    for mask in range(1 << (m * n)):
        chosen = [slots[t] for t in range(m * n) if (mask >> (m * n - 1 - t)) & 1]
        monomials.append(make_prod(chosen) if chosen else one())
    return monomials


# -- parsing ----------------------------------------------------------------------


def test_parse_q_commutator_shape():
    x = parse_expr("e1*e2 - (q^-1)*e2*e1", P21)
    expected = e(1) * e(2) - RatFn.q(-1) * (e(2) * e(1))
    assert x == expected
    assert isinstance(x, Sum) and len(x.terms) == 2
    second = x.terms[1]
    assert isinstance(second, Prod) and isinstance(second.factors[0], Scalar)
    assert second.factors[0].value == RatFn.q(-1, -1)


def test_parse_serre_element():
    x = parse_expr("f1^2*f2 - (q + q^-1)*f1*f2*f1 + f2*f1^2", P21)
    coeff = RatFn.q(1) + RatFn.q(-1)
    expected = f(1) ** 2 * f(2) - coeff * (f(1) * f(2) * f(1)) + f(2) * f(1) ** 2
    assert x == expected


def test_parse_k_inverse_atom():
    assert parse_expr("K3^-1", P21) == Kinv(3)
    assert parse_expr("K3^-2", P21) == make_pow(Kinv(3), 2)
    assert parse_expr("k1", P21) == cartan(1)
    assert parse_expr("k2^-1", P21) == cartan_inv(2)


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError):
        parse_expr("e1 *", P21)
    with pytest.raises(ExprSyntaxError):
        parse_expr("e1 + + e2$", P21)
    with pytest.raises(ExprSyntaxError):
        parse_expr("e1^-1", P21)
    with pytest.raises(IndexOutOfRange):
        parse_expr("e3", P21)  # e-index must be in I'
    with pytest.raises(IndexOutOfRange):
        parse_expr("K4", P21)
    with pytest.raises(IndexOutOfRange):
        parse_expr("k3", P21)  # k-index must be in I'


@pytest.mark.parametrize("text", ["R12", "Rcheck", "e1'", "top0"])
def test_parser_builds_no_matrix_atom_of_the_rmatrix_suites(text):
    # degenq.rmatrix names its fixed matrices by Gen kinds such as "R" and
    # "e'"; the grammar has no token for them.
    with pytest.raises(ExprSyntaxError):
        parse_expr(text, P21)


def test_parse_scalar_folding():
    x = parse_expr("(q + q^-1)", P21)
    assert x == Scalar(RatFn.q(1) + RatFn.q(-1))
    y = parse_expr("(2)*(3)", P21)
    assert y == Scalar(RatFn.integer(6))


def test_sums_fold_their_scalars_where_the_first_stood():
    assert parse_expr("q + 1 + e1", P21) == Sum((Scalar(RatFn.q(1) + RatFn.one()), e(1)))
    assert parse_expr("1 - 1 + e1", P21) == e(1)
    assert parse_expr("e1 + q - q + 1", P21) == Sum((e(1), Scalar(RatFn.one())))
    x = make_sum([e(1), Scalar(RatFn.q(1)), f(1) + 2, -Scalar(RatFn.q(1))])
    assert x == Sum((e(1), Scalar(RatFn.integer(2)), f(1)))
    # Over two denominators: 1/(q+2) + 1/(q+3) = (2q+5)/((q+2)(q+3)).
    assert parse_scalar("(1)/(q+2) + (1)/(q+3)") == RatFn(LaurentPoly({1: 2, 0: 5}), LaurentPoly({2: 1, 1: 5, 0: 6}))


def test_parse_implicit_coefficient():
    assert parse_expr("2q^3*e1", P21) == RatFn.q(3, 2) * e(1)


# -- printing round trips ------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "e1*e2 - (q^-1)*e2*e1",
        "f1^2*f2 - (q + q^-1)*f1*f2*f1 + f2*f1^2",
        "K3^-1",
        "K1*K2^-1",
        "e1",
        "-e1*f1",
        "k1 - k1^-1",
        "(q - q^-1)*e1*f1 + K2^-3*e1^2",
        "2*e1 + 3*q^2*f2",
    ],
)
def test_print_parse_round_trip(text):
    x = parse_expr(text, P21)
    assert parse_expr(expr_to_text(x), P21) == x


def test_round_trip_rational_coefficient():
    coeff = RatFn.one() / (RatFn.q(1) - RatFn.q(-1))
    x = coeff * (e(1) * f(1))
    assert parse_expr(expr_to_text(x), P21) == x


def test_round_trip_catalog_and_root_vectors():
    from degenq.relations import relation_catalog

    for params in (P21, GLParams(2, 2)):
        for entry in relation_catalog(params):
            assert parse_expr(expr_to_text(entry.expr), params) == entry.expr, entry.name


_ATOMS = [e(1), e(2), f(1), f(2), K(1), K(3), Kinv(2), cartan(1), cartan_inv(2)]
_DENOMINATORS = [LaurentPoly.one(), LaurentPoly({1: 1, 0: 1}), LaurentPoly({2: 1, 0: -2})]


@st.composite
def _scalar_leaves(draw):
    num = LaurentPoly({draw(st.integers(-2, 2)): draw(st.integers(-3, 3))})
    return Scalar(RatFn(num, draw(st.sampled_from(_DENOMINATORS))))


def _compound(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(make_sum),
        st.lists(children, min_size=2, max_size=3).map(make_prod),
        st.tuples(children, st.integers(0, 3)).map(lambda t: make_pow(*t)),
        children.map(negate),
    )


_EXPRS = st.recursive(st.one_of(st.sampled_from(_ATOMS), _scalar_leaves()), _compound, max_leaves=8)


@settings(max_examples=80, deadline=None)
@given(_EXPRS)
def test_printed_text_evaluates_like_the_tree(x):
    rep = natural_rep(P21)
    assert eval_in_rep(parse_expr(expr_to_text(x), P21), rep) == eval_in_rep(x, rep)


@functools.cache
def _test_reps():
    """natural_rep(2,1), its dual, its tensor square, and a typical module with
    a rational lambda2, whose generators have nontrivial denominators."""
    nat = natural_rep(P21)
    lambda2 = RatFn.of(LaurentPoly({1: 1, 0: 2}), LaurentPoly({1: 1, 0: -3}))  # (q+2)/(q-3)
    typical = simple_quotient(verma_module(HighestWeightSL21(1, 1, lambda2)))
    return (nat, dual_rep(nat), tensor_rep(nat, nat), typical.rep)


def _reference_eval(x, rep):
    """The fold over RatFn SparseMat operations, node by node, with no sharing."""
    dim = rep.dim
    if isinstance(x, Gen):
        return rep.gen(x.kind, x.index)
    if isinstance(x, Scalar):
        return SparseMat.identity(dim).scale(x.value)
    if isinstance(x, Sum):
        out = SparseMat.zero(dim, dim)
        for t in x.terms:
            out = out + _reference_eval(t, rep)
        return out
    if isinstance(x, Prod):
        out = SparseMat.identity(dim)
        for t in x.factors:
            out = out * _reference_eval(t, rep)
        return out
    return _reference_eval(x.base, rep) ** x.exp


_REP_INDEX = st.integers(0, 3)


@settings(max_examples=60, deadline=None)
@given(_EXPRS, _REP_INDEX)
def test_eval_matches_ratfn_reference(x, which):
    rep = _test_reps()[which]
    assert eval_in_rep(x, rep) == _reference_eval(x, rep)


@settings(max_examples=60, deadline=None)
@given(_EXPRS, _EXPRS, _REP_INDEX)
def test_eval_is_a_homomorphism(x, y, which):
    rep = _test_reps()[which]
    ex, ey = eval_in_rep(x, rep), eval_in_rep(y, rep)
    assert eval_in_rep(x * y, rep) == ex * ey
    assert eval_in_rep(x + y, rep) == ex + ey


@settings(max_examples=60, deadline=None)
@given(_EXPRS, _EXPRS)
def test_antipode_is_an_anti_homomorphism(x, y):
    rep = natural_rep(P21)
    s_x, s_y = eval_in_rep(antipode(x), rep), eval_in_rep(antipode(y), rep)
    assert eval_in_rep(antipode(x * y), rep) == s_y * s_x


@settings(max_examples=40, deadline=None)
@given(st.lists(_EXPRS, min_size=1, max_size=3), _REP_INDEX)
def test_batch_with_shared_subexpressions_matches_single_evaluations(xs, which):
    # Repeats and products of earlier entries make nodes recur across the batch.
    rep = _test_reps()[which]
    batch = xs + [xs[0]] + [a * b for a, b in zip(xs, xs[1:])] + [xs[-1] - xs[0]]
    assert list(eval_batch(batch, rep)) == [eval_in_rep(x, rep) for x in batch]


def _spy_digit_bits(monkeypatch):
    """Record every digit width B that eval_batch picks."""
    widths = []
    digit_bits = expr_module._digit_bits

    def spy(bound):
        widths.append(digit_bits(bound))
        return widths[-1]

    monkeypatch.setattr(expr_module, "_digit_bits", spy)
    return widths


def test_eval_matches_reference_on_a_rational_dual_with_wide_digits(monkeypatch):
    # The dual of a typical module with lambda2 = (q+2)/(q-3) has Laurent
    # entries (K^-1, q^-1 factors) and rational ones; powers up to 7 drive the
    # row-norm bound past 2^63, so the ints are wider than a machine word.
    rep = dual_rep(_test_reps()[3])
    assert any(not v.is_polynomial() for g in rep.gens.values() for v in g.entries.values())
    assert any(min(v.num.terms) < 0 for g in rep.gens.values() for v in g.entries.values())
    e1, e2, f1, f2 = e(1), e(2), f(1), f(2)
    coeff = RatFn.of(LaurentPoly({1: 1, -1: -1}), LaurentPoly({0: 1, 1: 1}))  # (q - q^-1)/(1 + q)
    exprs = []
    for k in range(1, 8):
        exprs += [
            make_pow(e1 * f1 + coeff * (f2 * e2), k),
            make_pow(e2 + f2, k) - make_pow(f2 + e2, k),  # zero, over a nontrivial denominator
            make_pow(K(1) * e2 + coeff * Kinv(3) * f2, k) * e1,
            make_pow(cartan(1) - RatFn.q(-2) * cartan_inv(2), k) + coeff * e2 * f2,
        ]
    widths = _spy_digit_bits(monkeypatch)
    got = list(eval_batch(exprs, rep))
    assert len(widths) == 1 and widths[0] > 64
    assert got == [_reference_eval(x, rep) for x in exprs]
    assert got[1].is_zero()


def test_eval_is_exact_with_coefficients_at_the_bound(monkeypatch):
    # e1 acting by 3q on a cyclic permutation of the basis has row norm 3, and
    # every entry of a product or power of k copies is 3^k q^k: its one
    # coefficient equals the row-norm bound.  A sum with the product over 4
    # has quotients 4 and 1, and its entries 5 * 3^k q^k equal the sum's bound;
    # the K3 term aligns a q^-1 lag.  Each kind of node runs in a batch of its
    # own, so that its bound alone sets B, and dropping any factor of that
    # bound (a factor 3, a power of 3, a quotient's 1-norm) leaves B too
    # narrow for an exact result.  The row sums count as well: f1 = q (1 + P)
    # has row norm 2, f2 puts 3 in column 0 of every row, and f1^k f2 gathers
    # each row of f1^k, of 1-norm 2^k, into one entry 3 * 2^k q^k.
    rep = natural_rep(P21)
    three_q = RatFn.q(1, 3)
    cycle = [(0, 1), (1, 2), (2, 0)]
    rep.gens[("e", 1)] = SparseMat(3, 3, {ij: three_q for ij in cycle})
    rep.gens[("f", 1)] = SparseMat(3, 3, {ij: RatFn.q(1) for ij in cycle + [(0, 0), (1, 1), (2, 2)]})
    rep.gens[("f", 2)] = SparseMat(3, 3, {(i, 0): RatFn.integer(3) for i in range(3)})
    quarter = RatFn.of(1, 4)
    powers = [make_pow(e(1), k) for k in range(1, 7)]
    products = [make_prod([e(1)] * k) for k in range(1, 7)]
    sums = [p + quarter * x for p, x in zip(powers, products)]
    gathered = [make_prod([make_pow(f(1), k), f(2)]) for k in range(1, 7)]
    aligned = [x - K(3) * p for p, x in zip(powers, products)]
    widths = _spy_digit_bits(monkeypatch)
    for batch in (powers, products, sums, gathered, aligned):
        got = list(eval_batch(batch, rep))
        assert got == [_reference_eval(x, rep) for x in batch]
    bounds = [3**6, 3**6, 5 * 3**6, 3 * 2**6]
    assert widths[:4] == [_digit_bits(b) for b in bounds]
    assert eval_in_rep(gathered[5], rep)[0, 0] == RatFn.q(6, 3 * 2**6)
    top = RatFn.q(6, 3**6)  # the entry of e1^6 in row 0
    assert eval_in_rep(powers[5], rep)[0, 0] == top
    assert eval_in_rep(products[5], rep)[0, 0] == top


def test_eval_is_exact_on_sums_mixing_denominator_one_and_rational_nodes():
    # The pre-pass skips lcm and quotient work for denominator-1 nodes; a Sum
    # of such nodes with rational ones (a rational scalar factor, generators
    # of a module with a rational weight, a power of a rational node) and a
    # scalar whose 1 denominator is a separate object must still be exact.
    rational = RatFn.of(LaurentPoly({1: 1, -1: -1}), LaurentPoly({0: 1, 1: 1}))  # (q - q^-1)/(1 + q)
    one_over_one = Scalar(RatFn(LaurentPoly({2: 3}), LaurentPoly({0: 1})))
    assert one_over_one.value.den is not LaurentPoly.one()
    rat = rational * (e(2) * f(2))
    exprs = [
        make_sum([e(1) * f(1), rat, K(1)]),
        make_sum([make_pow(rat, 2), e(1), one_over_one * f(1)]),
        make_prod([make_sum([e(1), rat]), make_sum([f(2), one_over_one])]),
        make_sum([rat, -rat, e(2) * f(2) - f(2) * e(2)]),
    ]
    for rep in _test_reps():
        assert list(eval_batch(exprs, rep)) == [_reference_eval(x, rep) for x in exprs]


@functools.cache
def _program_modules():
    """V(2,1), its tensor square under both sides, its cube, and the dual of a
    typical module with a rational lambda2 (rational and Laurent entries)."""
    nat, typical = _test_reps()[0], _test_reps()[3]
    return (
        nat,
        tensor_rep(nat, nat, "Delta"),
        tensor_rep(nat, nat, "DeltaPrime"),
        iterated_tensor(nat, 3),
        dual_rep(typical),
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(_EXPRS, min_size=1, max_size=3))
def test_one_compiled_batch_runs_exactly_on_every_module(xs):
    batch = xs + [a * b for a, b in zip(xs, xs[1:])] + [xs[0]]
    program = compile_batch(batch)
    for rep in _program_modules():
        assert list(program.run(rep)) == [_reference_eval(x, rep) for x in batch]


def test_compiling_the_catalog_compares_and_hashes_no_tree(monkeypatch):
    # Equal subtrees built apart would cost a structural walk per lookup in a
    # dict keyed by nodes; compile visits each node object once, by its id.
    entries = relation_catalog(GLParams(6, 6))
    calls = {"eq": 0, "hash": 0}
    eq, hash_ = Expr.__eq__, Expr.__hash__

    def counting_eq(a, b):
        calls["eq"] += 1
        return eq(a, b)

    def counting_hash(a):
        calls["hash"] += 1
        return hash_(a)

    monkeypatch.setattr(Expr, "__eq__", counting_eq)
    monkeypatch.setattr(Expr, "__hash__", counting_hash)
    program = compile_batch([entry.expr for entry in entries])
    assert calls == {"eq": 0, "hash": 0}
    assert len(program.ops) == 8530


@pytest.mark.parametrize(
    "mn, slots",
    [((1, 1), 44), ((2, 1), 159), ((1, 2), 122), ((2, 2), 310), ((3, 1), 297), ((3, 2), 527)],
)
def test_the_catalog_programs_keep_one_slot_per_distinct_node(mn, slots):
    entries = relation_catalog(GLParams(*mn))
    assert len(compile_batch([entry.expr for entry in entries]).ops) == slots


def test_a_scalar_inside_a_hand_built_product_is_an_ordinary_factor():
    rep = natural_rep(P21)
    x = Prod((Scalar(RatFn.integer(2)), e(1), Scalar(RatFn.q(1)), f(1)))
    assert eval_in_rep(x, rep) == eval_in_rep(RatFn.q(1, 2) * e(1) * f(1), rep)
    assert [(code, kids) for code, kids, _ in compile_batch([x]).ops].count((expr_module._PROD, ())) == 1


def test_a_replaced_generator_is_read_afresh_by_the_next_run():
    rep = natural_rep(P21)
    batch = [e(1) * f(1) + K(1), e(1)]
    program = compile_batch(batch)
    first = list(program.run(rep))
    assert first == [_reference_eval(x, rep) for x in batch]
    rep.gens[("e", 1)] = SparseMat(3, 3, {(0, 1): RatFn.q(2, 5), (2, 1): RatFn.of(1, 3)})
    second = list(program.run(rep))
    assert second == [_reference_eval(x, rep) for x in batch]
    assert second[1] == rep.gen("e", 1) != first[1]


def test_eval_admits_q_plus_one_to_the_2000():
    binomial = LaurentPoly({i: math.comb(2000, i) for i in range(2001)})  # (q + 1)^2000
    for x in (Scalar(RatFn(binomial)) * e(1), parse_expr("(q+1)^2000*e1", P21)):
        assert eval_in_rep(x, natural_rep(P21)) == SparseMat.unit(3, 3, 0, 1, RatFn(binomial))


def test_eval_refuses_entries_above_the_budget():
    # At B = 2 an entry of degree t is an int of 2 (t + 1) bits.
    rep = natural_rep(P21)
    top = MAX_ENTRY_BITS // 2 - 1
    assert eval_in_rep(Scalar(RatFn.q(top)) * e(1), rep) == SparseMat.unit(3, 3, 0, 1, RatFn.q(top))
    with pytest.raises(ResourceLimit):
        eval_in_rep(Scalar(RatFn.q(top + 1)) * e(1), rep)


@pytest.mark.parametrize(
    "base",
    [Kinv(1), e(1) + f(1), Scalar(RatFn.of(1, LaurentPoly({1: 1, 0: 1}))) * e(1)],
    ids=["degree", "bound", "denominator"],
)
def test_eval_refuses_a_huge_power_before_forming_it(base):
    # K1^-1 has degree 1, e1 + f1 the bound 2 and (1/(q+1)) e1 a denominator of
    # degree 1, so their 10^11-th powers exceed the budget; a nilpotent e1 and
    # the scalar -1 have none of these and still evaluate.
    rep = natural_rep(P21)
    with pytest.raises(ResourceLimit):
        eval_in_rep(Pow(base, 10**11), rep)
    assert eval_in_rep(Pow(e(1), 10**11), rep).is_zero()
    assert eval_in_rep(Pow(Scalar(RatFn.integer(-1)), 10**11), rep) == SparseMat.identity(3)


@pytest.mark.parametrize(
    "text",
    ["(q+1)^4000", "3^999999999", "(2q^-1)^-99999999999", "((1)/(q+2))^-5000"],
    ids=["binomial", "integer", "monomial", "denominator"],
)
def test_parser_refuses_a_huge_scalar_power_before_forming_it(text, monkeypatch):
    def no_power(*args):
        raise AssertionError("formed a scalar power")

    monkeypatch.setattr(RatFn, "__pow__", no_power)
    with pytest.raises(ResourceLimit):
        parse_expr(f"{text}*e1", P21)
    with pytest.raises(ResourceLimit):
        parse_scalar(text)


@pytest.mark.parametrize(
    "text",
    ["(q+1)^2000*(q+1)^2000", "(q+1)^1000*(q+1)^1000*(q+1)^1000*(q+1)^1000", "((1)/(q+2))^1500*((1)/(q+2))^1500"],
    ids=["two-factors", "four-factors", "denominators"],
)
def test_parser_refuses_a_huge_scalar_product_before_forming_it(text, monkeypatch):
    # Each factor passes the power estimate, and (q+1)^1000 squared the
    # product estimate; the next product does not, and is never formed.
    multiply = RatFn.__mul__

    def small_only(a, b):
        if sum(len(p.terms) for x in (a, b) for p in (x.num, x.den)) > 3000:
            raise AssertionError("formed a huge scalar product")
        return multiply(a, b)

    monkeypatch.setattr(RatFn, "__mul__", small_only)
    with pytest.raises(ResourceLimit, match="the scalar product"):
        parse_expr(f"{text}*e1", P21)
    with pytest.raises(ResourceLimit, match="the scalar product"):
        parse_scalar(text)


def test_parser_refuses_a_huge_scalar_sum_before_forming_it(monkeypatch):
    # Each quotient passes the power estimate, and so do the numerators' cross
    # products; the common denominator (q+2)^1500 (q+3)^1500 does not, and no
    # cross product of two large polynomials is formed.
    text = "(1)/((q+2)^1500) + (1)/((q+3)^1500)"
    multiply = LaurentPoly.__mul__

    def small_only(a, b):
        if min(len(a.terms), len(b.terms)) > 1000:
            raise AssertionError("formed a huge cross product")
        return multiply(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", small_only)
    with pytest.raises(ResourceLimit, match="the scalar sum"):
        parse_expr(f"{text} + e1", P21)
    with pytest.raises(ResourceLimit, match="the scalar sum"):
        parse_scalar(text)


def test_scalar_products_within_the_budget_are_formed():
    # (q+1)^1000 squared is estimated at 2000 bits times 2001 coefficients.
    binomial = LaurentPoly({i: math.comb(2000, i) for i in range(2001)})
    assert parse_scalar("(q+1)^1000*(q+1)^1000") == RatFn(binomial)
    assert parse_expr("(q+1)^1000*(q+1)^1000*e1", P21) == Scalar(RatFn(binomial)) * e(1)


def test_scalar_powers_within_the_budget_are_formed():
    # 2^k costs k bits, at the boundary; a power of +-q^e costs nothing.
    two, half = Scalar(RatFn.integer(2)), Scalar(RatFn.of(1, 2))
    top = Scalar(RatFn.integer(1 << MAX_ENTRY_BITS))
    assert make_pow(two, MAX_ENTRY_BITS) == make_pow(half, -MAX_ENTRY_BITS) == top
    for base in (two, half):
        with pytest.raises(ResourceLimit):
            make_pow(base, (MAX_ENTRY_BITS + 1) * (1 if base is two else -1))
    assert parse_scalar("(-q^3)^99999999999") == RatFn.q(3 * 99999999999, -1)
    assert parse_scalar("(q^-2)^-99999999999") == RatFn.q(2 * 99999999999)


# -- structural helpers ---------------------------------------------------------------


def test_equal_trees_built_apart_are_equal_with_equal_hashes():
    def build():
        return Sum((Prod((Scalar(RatFn.q(2)), e(1), Pow(f(2), 3))), Gen("K", 1)))

    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert parse_expr(expr_to_text(a), P21) == a


def test_nodes_of_other_classes_or_fields_differ():
    a, b = e(1), f(1)
    assert Sum((a, b)) != Prod((a, b))
    assert Sum((a, b)) != Sum((b, a))
    assert Pow(a, 2) != Pow(a, 3) and Pow(a, 2) == Pow(e(1), 2)
    assert Gen("K", 1) != Gen("Kinv", 1) and Gen("e", 1) != Gen("e", 2)
    assert Scalar(RatFn.q(1)) != Scalar(RatFn.q(-1))
    assert e(1) != "e1" and Scalar(RatFn.one()) != RatFn.one()


def test_node_repr_names_the_class_and_fields():
    assert repr(Gen("e", 1)) == "Gen('e', 1)"
    assert repr(Pow(Gen("K", 2), 3)) == "Pow(Gen('K', 2), 3)"
    assert repr(Sum((e(1), f(1)))) == "Sum((Gen('e', 1), Gen('f', 1)))"


def test_make_prod_folds_scalars():
    x = make_prod([Scalar(RatFn.q(1)), e(1), Scalar(RatFn.q(-1))])
    assert x == e(1)


def test_counit_values():
    # The counit is the action on the trivial module.
    trivial = trivial_rep(P21)
    assert eval_in_rep(e(1), trivial) == SparseMat.zero(1, 1)
    assert eval_in_rep(K(2), trivial) == SparseMat.identity(1)
    assert eval_in_rep(cartan(1) - cartan_inv(1), trivial) == SparseMat.zero(1, 1)
    value = eval_in_rep(parse_expr("(q+q^-1)*K1*K2", P21), trivial)
    assert value == SparseMat.diagonal([RatFn.q(1) + RatFn.q(-1)])


def test_antipode_on_generators():
    # S(e_a) = -e_a k_a^-1, S(f_a) = -k_a f_a, S(K) = K^-1
    assert antipode(e(1)) == -(e(1) * cartan_inv(1))
    assert antipode(f(2)) == -(cartan(2) * f(2))
    assert antipode(K(3)) == Kinv(3)
    assert antipode(Kinv(3)) == K(3)


def test_antipode_reverses_products():
    x = e(1) * f(2)
    assert antipode(x) == make_prod([antipode(f(2)), antipode(e(1))])


# -- evaluation ------------------------------------------------------------------------


def test_eval_generator_in_natural_rep():
    rep = natural_rep(P21)
    assert eval_in_rep(e(1), rep) == SparseMat.unit(3, 3, 0, 1)
    assert eval_in_rep(f(2), rep) == SparseMat.unit(3, 3, 2, 1)


def test_eval_cartan_diag():
    rep = natural_rep(P21)
    k1 = eval_in_rep(cartan(1), rep)
    assert k1 == SparseMat.diagonal([RatFn.q(1), RatFn.q(-1), RatFn.one()])


def test_eval_difference_is_zero():
    rep = natural_rep(P21)
    x = parse_expr("e1*e2 - (q^-1)*e2*e1", P21)
    assert eval_in_rep(x - x, rep).is_zero()


def test_eval_missing_generator():
    rep = natural_rep(P21)
    with pytest.raises(MissingGenerator):
        eval_in_rep(Gen("e", 5), rep)


# -- root vectors and gamma monomials ------------------------------------------------------


def test_root_vector_base_cases():
    E = root_vectors(P21)
    assert E[(2, 1)] == f(1)
    assert E[(1, 2)] == e(1)


def test_root_vector_depth_two():
    E = root_vectors(P21)
    assert E[(1, 3)] == e(1) * e(2) - RatFn.q(-1) * (e(2) * e(1))
    assert E[(3, 1)] == f(2) * f(1) - RatFn.q(1) * (f(1) * f(2))


def test_root_vector_signed_parameter():
    # For (1, 2), index 2 carries p = -q^-1: E_13 uses -(-q) = +q coefficient.
    x = root_vectors(GLParams(1, 2))[(1, 3)]
    assert x == e(1) * e(2) - RatFn.q(1, -1) * (e(2) * e(1))


def test_gamma_monomial_counts():
    assert len(gamma_monomials(GLParams(1, 1))) == 2
    assert len(gamma_monomials(P21)) == 4
    assert len(gamma_monomials(GLParams(2, 2))) == 16


def test_gamma_monomials_21_contents():
    mons = gamma_monomials(P21)
    E = root_vectors(P21)
    e31, e32 = E[(3, 1)], E[(3, 2)]
    assert one() in mons
    assert e31 in mons
    assert e32 in mons
    assert make_prod([e31, e32]) in mons


def test_gamma_monomials_11():
    mons = gamma_monomials(GLParams(1, 1))
    assert mons == [one(), f(1)] or mons == [f(1), one()]
