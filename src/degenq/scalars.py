"""Exact arithmetic in Z[q, q^-1] and its fraction field Q(q).

Conventions used throughout the package:

* A Laurent polynomial is a map {exponent: coefficient} with arbitrary-precision
  integer coefficients and no stored zero coefficient.
* A rational function num/den is kept in a unique canonical form: den is an
  ordinary polynomial (minimum exponent 0) coprime to q, with positive leading
  coefficient; gcd(num shifted to an ordinary polynomial, den) = 1 and the
  integer contents of num and den are coprime.
* The signed parameter attached to an index a of gl(m, n) is q for a <= m and
  p = -q^-1 for a > m.  Note p - p^-1 = q - q^-1, which many identities rely on.

Text form (used by the CLI and tests): a polynomial prints as terms ``c*q^e``
joined by ``+``/``-`` in decreasing exponent order, e.g. ``q^2 - 2 + 3*q^-1``;
a rational function with nontrivial denominator prints as ``(num)/(den)``.
:func:`parse_scalar` reads the generator-free subset of the expression grammar
of :mod:`degenq.expr`, so it also accepts whitespace, an omitted ``*`` between
coefficient and q, and any sum, product or power of such scalars.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DivisionByZero, IndexOutOfRange, InvalidInput, ResourceLimit

# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """An element of Z[q, q^-1], stored as {exponent: nonzero int}."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}
        self._hash: int | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> LaurentPoly:
        return _LP_ZERO

    @staticmethod
    def one() -> LaurentPoly:
        return _LP_ONE

    @staticmethod
    def integer(n: int) -> LaurentPoly:
        return LaurentPoly({0: n})

    @staticmethod
    def q(exp: int = 1, coeff: int = 1) -> LaurentPoly:
        """The monomial coeff * q^exp."""
        return LaurentPoly({exp: coeff})

    # -- basic queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    @property
    def valuation(self) -> int:
        """Smallest exponent; undefined (raises) on zero."""
        return min(self.terms)

    def leading_coeff(self) -> int:
        return self.terms[max(self.terms)] if self.terms else 0

    def norm1(self) -> int:
        """The 1-norm: the sum of the absolute values of the coefficients."""
        return sum(map(abs, self.terms.values()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(out)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return _LP_ZERO
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly._raw(out)

    def __pow__(self, n: int) -> LaurentPoly:
        """One integer power by Kronecker substitution: (p q^v)^n at q = 2^B,
        with B wide for |p|_1^n, which bounds every coefficient of p^n."""
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial; use RatFn")
        if n == 0:
            return _LP_ONE
        if len(self.terms) < 2:  # zero or a monomial
            return LaurentPoly._raw({e * n: c**n for e, c in self.terms.items()})
        bits, lag = _digit_bits(self.norm1() ** n), _lag([self])
        return _decode(_encode(self, bits, lag) ** n, bits, -lag * n)

    def scale(self, c: int) -> LaurentPoly:
        if c == 0:
            return _LP_ZERO
        if c == 1:
            return self
        return LaurentPoly._raw({e: c * v for e, v in self.terms.items()})

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by q^k."""
        if k == 0:
            return self
        return LaurentPoly._raw({e + k: c for e, c in self.terms.items()})

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentPoly({poly_to_text(self)!r})"

    def __str__(self) -> str:
        return poly_to_text(self)

    @staticmethod
    def _raw(terms: dict[int, int]) -> LaurentPoly:
        # Trusted constructor: terms must already be zero-free.
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = terms
        p._hash = None
        return p


_LP_ZERO = LaurentPoly._raw({})
_LP_ONE = LaurentPoly._raw({0: 1})


def _power(base, n: int, one):
    """base**n for n >= 0 by repeated squaring; one is the identity of base's ring."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# Kronecker substitution: a polynomial as one integer, its value at q = 2^bits
# ---------------------------------------------------------------------------
#
# Evaluation at q = x = 2^bits is a ring homomorphism Z[q] -> Z, so sums and
# products of the integers are exactly the values of the sums and products of
# the polynomials.  Every integer has exactly one expansion in balanced
# base-2^bits digits, each in [-2^(bits-1), 2^(bits-1)).  So a polynomial whose
# coefficients all lie in that range is recovered from its value by _decode,
# and is zero exactly when its value is 0.


def _digit_bits(bound: int) -> int:
    """The least digit width B with bound < 2^(B-1): coefficients of absolute
    value at most bound then decode exactly from their value at q = 2^B."""
    return bound.bit_length() + 1


def _lag(polys) -> int:
    """The least v >= 0 such that p * q^v is a polynomial for every p in polys."""
    return max([0] + [-min(p.terms) for p in polys if p.terms])


def _encode(p: LaurentPoly, bits: int, shift: int = 0) -> int:
    """The value of p * q^shift at q = 2^bits; p * q^shift must be a polynomial."""
    # Adjacent terms are merged pairwise, (e, v) and (f, w) into
    # (e, v + w * 2^((f - e) bits)), so that no sum grows one term at a time.
    parts = sorted(p.terms.items())
    while len(parts) > 1:
        merged = [(e, v + (w << (f - e) * bits)) for (e, v), (f, w) in zip(parts[::2], parts[1::2])]
        parts = merged + parts[2 * len(merged) :]
    return parts[0][1] << (parts[0][0] + shift) * bits if parts else 0


def _decode(n: int, bits: int, low: int) -> LaurentPoly:
    """The Laurent polynomial sum_i c_i q^(low+i) whose c_i are the balanced
    base-2^bits digits of n, -2^(bits-1) <= c_i < 2^(bits-1), for bits >= 2:
    its value at q = 2^bits is n * 2^(bits*low)."""
    terms = {}
    if n:
        skip = ((n & -n).bit_length() - 1) // bits
        n >>= skip * bits
        low += skip
    count = n.bit_length() // bits + 2  # n has at most this many digits
    if count > 64:
        # Split off the low k digits, so that no digit loop walks a long int.
        # They form the representative of n mod 2^(k bits) in [-m, 2^(k bits) - m),
        # where m = 2^(bits-1) (1 + 2^bits + ... + 2^((k-1) bits)) is every digit at its floor.
        k = count // 2
        m = int(("1" + "0" * (bits - 1)) * k, 2)
        lo = ((n + m) & ((1 << k * bits) - 1)) - m
        terms = _decode(lo, bits, low).terms
        terms.update(_decode((n - lo) >> k * bits, bits, low + k).terms)
        return LaurentPoly._raw(terms)
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    while n:
        c = n & mask
        if c >= half:
            c -= mask + 1
        if c:
            terms[low] = c
        n = (n - c) >> bits
        low += 1
    return LaurentPoly._raw(terms)


def quantum_int(k: int) -> LaurentPoly:
    """The balanced q-integer: q^(k-1) + q^(k-3) + ... + q^(1-k); odd in k."""
    if k == 0:
        return _LP_ZERO
    if k < 0:
        return -quantum_int(-k)
    return LaurentPoly._raw({k - 1 - 2 * i: 1 for i in range(k)})


# ---------------------------------------------------------------------------
# gcd machinery over Z[q] (ordinary polynomials as {exp >= 0: int} dicts)
# ---------------------------------------------------------------------------


def _dict_content(d: dict[int, int]) -> int:
    return math.gcd(*d.values()) if d else 0


def _dict_primitive(d: dict[int, int]) -> dict[int, int]:
    """Divide by +-content so the result is primitive with positive leading coeff."""
    if not d:
        return d
    c = _dict_content(d)
    if d[max(d)] < 0:
        c = -c
    if c == 1:
        return d
    return {e: v // c for e, v in d.items()}


def _pseudo_rem(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """Pseudo-remainder of f by g: some lc(g)^k * f mod g, k as small as needed."""
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        new = {e: lg * c for e, c in r.items()}
        for e, c in g.items():
            ee = e + dr - dg
            s = new.get(ee, 0) - lr * c
            if s:
                new[ee] = s
            else:
                new.pop(ee, None)
        r = new
    return r


def _poly_gcd_dict(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """gcd in Z[q] via content extraction and primitive-part Euclid."""
    if not f:
        return _dict_primitive(dict(g))
    if not g:
        return _dict_primitive(dict(f))
    c = math.gcd(_dict_content(f), _dict_content(g))
    a, b = _dict_primitive(f), _dict_primitive(g)
    while b:
        a, b = b, _dict_primitive(_pseudo_rem(a, b))
    if c != 1:
        a = {e: c * v for e, v in a.items()}
    return a


def _poly_divexact_dict(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """Exact quotient f/g in Z[q]; raises if the division is not exact."""
    if not f:
        return {}
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    h: dict[int, int] = {}
    while r:
        dr = max(r)
        if dr < dg:
            raise ValueError("inexact polynomial division")
        coeff, rem = divmod(r[dr], lg)
        if rem:
            raise ValueError("inexact polynomial division")
        h[dr - dg] = coeff
        for e, c in g.items():
            ee = e + dr - dg
            s = r.get(ee, 0) - coeff * c
            if s:
                r[ee] = s
            else:
                r.pop(ee, None)
    return h


def _quo(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b for ordinary polynomials with b dividing a."""
    if a == b:
        return _LP_ONE
    return LaurentPoly._raw(_poly_divexact_dict(a.terms, b.terms))


def _lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """An lcm of two ordinary polynomials with positive leading coefficients."""
    if a == b or b.is_one():
        return a
    if a.is_one():
        return b
    return a * _quo(b, LaurentPoly._raw(_poly_gcd_dict(a.terms, b.terms)))


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFn:
    """An element of Q(q) in canonical reduced form.  Immutable."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _LP_ONE):
        n, d = _canonical_pair(num, den)
        self.num = n
        self.den = d
        self._hash: int | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> RatFn:
        return _RF_ZERO

    @staticmethod
    def one() -> RatFn:
        return _RF_ONE

    @staticmethod
    def integer(n: int) -> RatFn:
        return RatFn._raw(LaurentPoly.integer(n), _LP_ONE)

    @staticmethod
    def q(exp: int = 1, coeff: int = 1) -> RatFn:
        """The monomial coeff * q^exp as a rational function."""
        return RatFn._raw(LaurentPoly.q(exp, coeff), _LP_ONE)

    @staticmethod
    def of(num: LaurentPoly | int, den: LaurentPoly | int = 1) -> RatFn:
        if isinstance(num, int):
            num = LaurentPoly.integer(num)
        if isinstance(den, int):
            den = LaurentPoly.integer(den)
        return RatFn(num, den)

    # -- queries -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den.is_one() and other.den.is_one():
            return RatFn._raw(self.num + other.num, _LP_ONE)
        if self.den is other.den or self.den == other.den:
            return RatFn(self.num + other.num, self.den)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> RatFn:
        return RatFn._raw(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        if not self.num or not other.num:
            return _RF_ZERO
        if self.den.is_one() and other.den.is_one():
            return RatFn._raw(self.num * other.num, _LP_ONE)
        # A unit +-q^k times a canonical pair is canonical: the shift and the
        # sign move only num, so the other factor's den stands and needs no gcd.
        if self.den.is_one() and _is_unit(self.num):
            return RatFn._raw(self.num * other.num, other.den)
        if other.den.is_one() and _is_unit(other.num):
            return RatFn._raw(self.num * other.num, self.den)
        return RatFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not isinstance(other, RatFn):
            return NotImplemented
        if not other.num:
            raise DivisionByZero("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def inv(self) -> RatFn:
        """den/num, with no gcd: a canonical pair is coprime, so only the
        shift of num and the sign of its leading coefficient move.  A unit
        +-q^k over 1, such as a diagonal entry of a K, is +-q^-k over 1."""
        terms = self.num.terms
        if len(terms) == 1 and self.den.is_one():
            ((e, c),) = terms.items()
            if c == 1 or c == -1:
                return RatFn._raw(LaurentPoly._raw({-e: c}), _LP_ONE)
        if not terms:
            raise DivisionByZero("inverse of the zero rational function")
        vn = self.num.valuation
        num, den = self.den.shift(-vn), self.num.shift(-vn)
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return RatFn._raw(num, den)

    def __pow__(self, n: int) -> RatFn:
        """Powers of a canonical (coprime) pair are coprime, so need no gcd."""
        base, k = (self, n) if n >= 0 else (self.inv(), -n)
        return RatFn._raw(base.num**k, _LP_ONE if base.den.is_one() else base.den**k)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self) -> str:
        return f"RatFn({scalar_to_text(self)!r})"

    def __str__(self) -> str:
        return scalar_to_text(self)

    @staticmethod
    def _raw(num: LaurentPoly, den: LaurentPoly) -> RatFn:
        # Trusted constructor: (num, den) must already be canonical.
        x = RatFn.__new__(RatFn)
        x.num = num
        x.den = den
        x._hash = None
        return x


def _is_unit(p: LaurentPoly) -> bool:
    """Whether p is +-q^k, a unit of Z[q, q^-1]."""
    return len(p.terms) == 1 and abs(next(iter(p.terms.values()))) == 1


def _canonical_pair(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if not den.terms:
        raise DivisionByZero("zero denominator")
    if not num.terms:
        return _LP_ZERO, _LP_ONE
    # Shift so den is an ordinary polynomial with nonzero constant term.
    vd = den.valuation
    den_d = den.shift(-vd).terms
    num = num.shift(-vd)
    vn = num.valuation
    num_d = num.shift(-vn).terms
    g = _poly_gcd_dict(num_d, den_d)
    if g != {0: 1} and g != {0: -1}:
        num_d = _poly_divexact_dict(num_d, g)
        den_d = _poly_divexact_dict(den_d, g)
    if den_d[max(den_d)] < 0:
        num_d = {e: -c for e, c in num_d.items()}
        den_d = {e: -c for e, c in den_d.items()}
    return LaurentPoly._raw(num_d).shift(vn), LaurentPoly._raw(den_d)


_RF_ZERO = RatFn._raw(_LP_ZERO, _LP_ONE)
_RF_ONE = RatFn._raw(_LP_ONE, _LP_ONE)


Q = RatFn.q(1)
P_SIGNED = RatFn.q(-1, -1)  # p = -q^-1
Q_MINUS_QINV = RatFn.of(LaurentPoly({1: 1, -1: -1}))


# ---------------------------------------------------------------------------
# Parameters (m, n)
# ---------------------------------------------------------------------------


class GLParams(namedtuple("GLParams", "m n")):
    """The pair (m, n) with its index sets I = {1..m+n} and I' = I \\ {m+n}."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        if m < 1 or n < 1:
            raise InvalidInput(f"m and n must be positive integers, got m={m}, n={n}")
        return super().__new__(cls, m, n)

    @classmethod
    def _make(cls, fields):
        """Through ``__new__``, so that a ``_replace`` copy is validated too."""
        return cls(*fields)

    @property
    def size(self) -> int:
        return self.m + self.n

    @property
    def index_set(self) -> range:
        """I = {1, ..., m+n} (valid K indices)."""
        return range(1, self.m + self.n + 1)

    @property
    def iprime(self) -> range:
        """I' = {1, ..., m+n-1} (valid e/f indices)."""
        return range(1, self.m + self.n)

    def q_sub(self, a: int) -> RatFn:
        """The signed parameter at index a: q for a <= m, -q^-1 beyond."""
        if not 1 <= a <= self.size:
            raise IndexOutOfRange(f"index {a} outside 1..{self.size}")
        return Q if a <= self.m else P_SIGNED


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------


def _decimal(c: int) -> str:
    """str(c), refused with ResourceLimit above Python's int-to-text limit
    (sys.get_int_max_str_digits, 4300 digits by default): a larger int would
    take quadratic time to convert."""
    try:
        return str(c)
    except ValueError:
        what = f"a coefficient has more than {sys.get_int_max_str_digits()} decimal digits, too many to print"
        raise ResourceLimit(what) from None


def poly_to_text(p: LaurentPoly) -> str:
    if not p.terms:
        return "0"
    parts: list[str] = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = _decimal(c)
        elif e == 1:
            body = "q" if c == 1 else f"{_decimal(c)}*q"
        else:
            body = f"q^{e}" if c == 1 else f"{_decimal(c)}*q^{e}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def scalar_to_text(x: RatFn) -> str:
    if x.den.is_one():
        return poly_to_text(x.num)
    return f"({poly_to_text(x.num)})/({poly_to_text(x.den)})"


def parse_scalar(text: str) -> RatFn:
    """Parse scalar text: the generator-free subset of the expression grammar
    of :mod:`degenq.expr`, e.g. ``q^2 - 2*q + 3*q^-1`` or ``(num)/(den)``."""
    from .expr import _parse  # expr imports this module, so not at the top

    return _parse(text, None).value
