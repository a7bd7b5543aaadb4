import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenq.errors import DivisionByZero, ExprSyntaxError, IndexOutOfRange, ResourceLimit
from degenq.scalars import (
    GLParams,
    LaurentPoly,
    Q_MINUS_QINV,
    RatFn,
    _decode,
    _digit_bits,
    _encode,
    _poly_gcd_dict,
    _power,
    parse_scalar,
    poly_to_text,
    quantum_int,
    scalar_to_text,
)


def lp(terms):
    return LaurentPoly(terms)


def rf(num, den=None):
    return RatFn(lp(num), lp(den) if den is not None else LaurentPoly.one())


# -- Laurent polynomial basics ------------------------------------------------


def test_poly_mul_difference_of_squares():
    a = lp({1: 1, -1: -1})  # q - q^-1
    b = lp({1: 1, -1: 1})  # q + q^-1
    assert a * b == lp({2: 1, -2: -1})


def test_poly_add_identity_and_cancellation():
    p = lp({3: 2, 0: -1, -2: 5})
    assert p + LaurentPoly.zero() == p
    assert p - p == LaurentPoly.zero()


def test_poly_no_zero_coefficients_stored():
    p = lp({2: 1}) + lp({2: -1, 0: 3})
    assert p.terms == {0: 3}


def test_quantum_int_values():
    assert quantum_int(0) == LaurentPoly.zero()
    assert quantum_int(1) == LaurentPoly.one()
    assert quantum_int(2) == lp({1: 1, -1: 1})
    assert quantum_int(3) == lp({2: 1, 0: 1, -2: 1})
    for k in range(-5, 6):
        assert quantum_int(-k) == -quantum_int(k)


def test_quantum_int_matches_defining_ratio():
    # (q^k - q^-k) / (q - q^-1), computed through exact division
    for k in range(1, 8):
        ratio = RatFn(lp({k: 1, -k: -1}), lp({1: 1, -1: -1}))
        assert ratio == RatFn(quantum_int(k))


# -- rational function canonical form ------------------------------------------


def test_exact_cancellation():
    x = rf({2: 1, -2: -1}, {1: 1, -1: -1})  # (q^2-q^-2)/(q-q^-1)
    assert x == rf({1: 1, -1: 1})
    assert x.is_polynomial()


def test_inverse_of_signed_parameter():
    p = rf({-1: -1})  # -q^-1
    assert p.inv() == rf({1: -1})
    assert p * p.inv() == RatFn.one()


def test_canonical_den_positive_leading_and_coprime():
    x = rf({3: 2}, {2: -4, 1: -4})  # 2q^3 / (-4q^2 - 4q) = -q^2/(2q + 2)... reduced
    assert x.den.leading_coeff() > 0
    assert x.den.valuation == 0
    # gcd of shifted num and den is 1: multiply back and compare
    assert RatFn(x.num) / RatFn(x.den) == x


def test_canonicalization_idempotent():
    x = rf({5: 6, 3: -6}, {2: 4})
    again = RatFn(x.num, x.den)
    assert again.num == x.num and again.den == x.den


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        rf({0: 1}, {0: 0})
    with pytest.raises(DivisionByZero):
        RatFn.one() / RatFn.zero()
    with pytest.raises(DivisionByZero):
        RatFn.zero().inv()


def test_div_mul_round_trip():
    a = rf({2: 3, 0: 1, -1: 4})
    b = rf({1: 7, -2: -2})
    assert (a / b) * b == a


# -- field axioms on random triples ---------------------------------------------

_coeffs = st.integers(min_value=-6, max_value=6)
_exps = st.integers(min_value=-4, max_value=4)


@st.composite
def laurent_polys(draw, nonzero=False):
    pairs = draw(st.dictionaries(_exps, _coeffs, max_size=4))
    p = LaurentPoly(pairs)
    if nonzero and not p:
        p = LaurentPoly({draw(_exps): draw(_coeffs.filter(lambda c: c != 0))})
    return p


@st.composite
def ratfns(draw):
    return RatFn(draw(laurent_polys()), draw(laurent_polys(nonzero=True)))


@settings(max_examples=60, deadline=None)
@given(ratfns(), ratfns(), ratfns())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inv() == RatFn.one()


@settings(max_examples=60, deadline=None)
@given(ratfns(), ratfns())
def test_equality_agrees_with_cross_multiplication(a, b):
    lhs = a.num * b.den
    rhs = b.num * a.den
    assert (a == b) == (lhs == rhs)


@settings(max_examples=60, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_add_of_polynomials_is_canonical(p, r):
    # The denominator-1 fast path of RatFn.__add__ against the canonicalizing
    # constructor it skips.
    a, b = RatFn(p), RatFn(r)
    total = a + b
    assert total == RatFn(a.num + b.num, a.den)
    assert hash(total) == hash(RatFn(p + r))
    assert bool(total) == bool(p + r)


@settings(max_examples=100, deadline=None)
@given(ratfns())
def test_inv_matches_the_canonicalizing_constructor(x):
    # inv swaps the canonical pair with no gcd; RatFn(den, num) runs one.
    if x:
        assert x.inv() == RatFn(x.den, x.num)
        assert x.inv().inv() == x


def _inv_by_shift(x):
    """RatFn.inv's general path: the canonical pair swapped, shifted and signed."""
    vn = x.num.valuation
    num, den = x.den.shift(-vn), x.num.shift(-vn)
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return RatFn._raw(num, den)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-9, max_value=9),
    st.sampled_from([1, -1, 2, -3]),
    st.one_of(st.just(LaurentPoly.one()), laurent_polys(nonzero=True)),
)
def test_inv_of_a_unit_matches_the_general_path(k, c, den):
    # The unit fast path (+-q^k over 1) against the general path and the
    # canonicalizing constructor, on monomials with unit and non-unit
    # coefficients, over 1 and over other denominators, and on non-monomials.
    for x in (RatFn(LaurentPoly.q(k, c), den), RatFn(LaurentPoly({k: c, k + 2: 1}), den)):
        inv = x.inv()
        assert inv == _inv_by_shift(x) == RatFn(x.den, x.num)
        assert hash(inv) == hash(RatFn(x.den, x.num))
        assert inv.inv() == x and x * inv == RatFn.one()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-6, max_value=6), st.sampled_from([1, -1]), ratfns())
def test_unit_product_matches_the_canonicalizing_constructor(k, sign, x):
    # A product with a unit +-q^k keeps the other factor's den and runs no gcd.
    u = RatFn.q(k, sign)
    expected = RatFn(u.num * x.num, u.den * x.den)
    assert u * x == expected
    assert x * u == expected


@settings(max_examples=100, deadline=None)
@given(laurent_polys(), st.integers(min_value=0, max_value=12))
def test_poly_power_matches_repeated_products(p, n):
    # One Kronecker power against the repeated squaring it replaces.
    assert p**n == _power(p, n, LaurentPoly.one())


@settings(max_examples=100, deadline=None)
@given(ratfns(), st.integers(min_value=-8, max_value=8))
def test_ratfn_power_matches_the_canonicalizing_products(x, n):
    # The power of the canonical pair, with no gcd, against the product of the
    # canonicalizing constructor.
    if x or n >= 0:
        base, k = (x, n) if n >= 0 else (RatFn(x.den, x.num), -n)
        expected = _power(base, k, RatFn.one())
        assert x**n == expected
        assert hash(x**n) == hash(expected)


def test_poly_power_of_wide_coefficients():
    p = lp({-2: 3, 0: -7, 5: 11})
    assert p**9 == _power(p, 9, LaurentPoly.one())
    assert lp({4: -3}) ** 5 == lp({20: -243})


@settings(max_examples=60, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_poly_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


# -- signed parameters -----------------------------------------------------------


def test_q_sub_values():
    params = GLParams(2, 1)
    assert params.q_sub(1) == RatFn.q(1)
    assert params.q_sub(2) == RatFn.q(1)
    assert params.q_sub(3) == RatFn.q(-1, -1)
    with pytest.raises(IndexOutOfRange):
        params.q_sub(4)
    with pytest.raises(IndexOutOfRange):
        params.q_sub(0)


def test_q_sub_difference_identity():
    # q_a - q_a^-1 = q - q^-1 for every index, the degenerate key fact
    for m, n in [(1, 1), (2, 1), (3, 2)]:
        params = GLParams(m, n)
        for a in params.index_set:
            qa = params.q_sub(a)
            assert qa - qa.inv() == Q_MINUS_QINV
            assert qa * qa.inv() == RatFn.one()


def test_params_validation():
    with pytest.raises(ValueError):
        GLParams(0, 1)
    with pytest.raises(ValueError):
        GLParams(m=1, n=0)
    assert list(GLParams(2, 1).iprime) == [1, 2]
    assert list(GLParams(1, 1).index_set) == [1, 2]


def test_ratfn_arith_dispatch():
    a, b = rf({1: 1}), rf({0: 2})
    assert a + b == rf({1: 1, 0: 2})
    assert a / b == RatFn(lp({1: 1}), lp({0: 2}))
    assert b.inv() == RatFn(lp({0: 1}), lp({0: 2}))


# -- text form --------------------------------------------------------------------


def test_poly_text_examples():
    assert poly_to_text(lp({1: 1, -1: 1})) == "q + q^-1"
    assert poly_to_text(lp({2: 1, 0: -2, -1: 3})) == "q^2 - 2 + 3*q^-1"
    assert poly_to_text(LaurentPoly.zero()) == "0"
    assert poly_to_text(lp({1: -1})) == "-q"


def test_poly_text_refuses_a_coefficient_above_the_int_text_limit():
    # Python's int-to-text conversion stops at 4300 digits by default.
    assert poly_to_text(lp({0: 10**4299, 2: -(10**4299)})) == f"-{10**4299}*q^2 + {10**4299}"
    for terms in ({0: 10**4300}, {1: -(10**4300)}, {3: 2, -1: 10**5000}):
        with pytest.raises(ResourceLimit, match="more than 4300 decimal digits"):
            poly_to_text(lp(terms))


def test_scalar_text_rational():
    x = RatFn(LaurentPoly.one(), lp({1: 1, -1: -1}))
    # canonical: shifted so den is an ordinary polynomial
    assert scalar_to_text(x) == "(q)/(q^2 - 1)"
    assert x.den == lp({2: 1, 0: -1})
    assert x.num == lp({1: 1})


@settings(max_examples=60, deadline=None)
@given(ratfns())
def test_scalar_text_round_trip(x):
    assert parse_scalar(scalar_to_text(x)) == x


def test_parse_scalar_accepts_loose_syntax():
    assert parse_scalar("2q^3") == RatFn.q(3, 2)
    assert parse_scalar(" 2 * q ^ -3 ") == RatFn.q(-3, 2)
    assert parse_scalar("q^-1") == RatFn.q(-1)
    assert parse_scalar("-q") == RatFn.q(1, -1)
    assert parse_scalar("( q + q^-1 )") == rf({1: 1, -1: 1})
    assert parse_scalar("(q^2 - q^-2)/(q - q^-1)") == rf({1: 1, -1: 1})
    assert parse_scalar("0") == RatFn.zero()


def test_parse_scalar_rejects_garbage():
    for bad in ["", "q^", "(q", "(q)/(0)", "q + ", "x", "1//2"]:
        with pytest.raises((ExprSyntaxError, DivisionByZero)):
            parse_scalar(bad)


def test_parse_scalar_rejects_generators():
    for text in ["e1", "K1", "q + f2", "(k1)/(q)"]:
        with pytest.raises(ExprSyntaxError):
            parse_scalar(text)


def test_parse_scalar_accepts_expression_forms():
    assert parse_scalar("-(q+1)/(q-2)") == RatFn(lp({1: -1, 0: -1}), lp({1: 1, 0: -2}))
    assert parse_scalar("2^3") == RatFn.integer(8)
    assert parse_scalar("+q^+2") == RatFn.q(2)


def test_poly_text_round_trip_simple():
    for text in ["q^2 - 2 + 3*q^-1", "5", "-q + 1", "0"]:
        x = parse_scalar(text)
        assert x.is_polynomial() and poly_to_text(x.num) == text


def test_poly_arith_dispatch():
    a, b = lp({1: 1}), lp({0: 1, -1: 2})
    assert a + b == lp({1: 1, 0: 1, -1: 2})
    assert a - a == LaurentPoly.zero()
    assert a * b == lp({1: 1, 0: 2})


# -- Kronecker substitution ----------------------------------------------------


@st.composite
def _polys_within_digits(draw):
    """(p, B, shift): p's coefficients up to +-(2^(B-1) - 1), both extremes
    included, and shift the least v >= 0 with p * q^v a polynomial.  Up to 150
    terms, so that long values take the split in _decode."""
    bits = draw(st.integers(2, 80))
    top = (1 << (bits - 1)) - 1
    coeffs = st.one_of(st.sampled_from([top, -top, 1, -1]), st.integers(-top, top))
    terms = draw(st.dictionaries(st.integers(-20, 300), coeffs, max_size=150))
    p = lp(terms)
    return p, bits, max([0] + [-e for e in p.terms])


@settings(max_examples=200, deadline=None)
@given(_polys_within_digits())
def test_encode_decode_round_trip(case):
    p, bits, shift = case
    n = _encode(p, bits, shift)
    assert n == sum(c * 2 ** ((e + shift) * bits) for e, c in p.terms.items())
    assert _decode(n, bits, -shift) == p
    assert (n == 0) == (not p)  # a zero test needs no decode
    # Extra powers of q, as from an over-sized shift, come back out exactly.
    assert _decode(_encode(p, bits, shift + 3), bits, -shift - 3) == p


@given(st.integers(0, 2**200))
def test_digit_bits_is_the_least_width_that_holds_the_bound(bound):
    bits = _digit_bits(bound)
    assert bound < 2 ** (bits - 1)
    assert bound == 0 if bits == 1 else bound >= 2 ** (bits - 2)


# -- canonical form over a constant side ---------------------------------------


def _euclid_canonical(num, den):
    """(num, den) made canonical by the primitive-part Euclid loop alone, the
    path that a constant side skips: the reference for the shortcut."""
    from degenq.scalars import _dict_content, _dict_primitive, _poly_divexact_dict, _pseudo_rem

    if not num:
        return LaurentPoly.zero(), LaurentPoly.one()
    den_d = den.shift(-den.valuation).terms
    num = num.shift(-den.valuation)
    num_d = num.shift(-num.valuation).terms
    a, b = _dict_primitive(num_d), _dict_primitive(den_d)
    while b:
        a, b = b, _dict_primitive(_pseudo_rem(a, b))
    g = {e: math.gcd(_dict_content(num_d), _dict_content(den_d)) * v for e, v in a.items()}
    num_d, den_d = _poly_divexact_dict(num_d, g), _poly_divexact_dict(den_d, g)
    sign = -1 if den_d[max(den_d)] < 0 else 1
    return lp({e: sign * c for e, c in num_d.items()}).shift(num.valuation), lp({e: sign * c for e, c in den_d.items()})


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.integers(-8, 40), st.integers(-50, 50), max_size=40),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from([1, -1]),
    st.integers(-6, 6),
)
def test_canonical_form_over_a_constant_side_matches_the_euclid_path(terms, content, c, sign, k):
    # A numerator with a shared content over +-c q^k, and +-c q^k over it:
    # the gcd of the contents, taken at once, gives the Euclid path's form.
    p = lp({e: content * v for e, v in terms.items()})
    mono = LaurentPoly.q(k, sign * c)
    for num, den in ((p, mono), (mono, p)):
        if den:
            x = RatFn(num, den)
            assert (x.num, x.den) == _euclid_canonical(num, den)
    if p:
        assert _poly_gcd_dict(p.shift(-p.valuation).terms, {0: c}) == {0: math.gcd(c, *p.terms.values())}
