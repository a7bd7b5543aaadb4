"""Noncommutative polynomial expressions in the algebra generators.

Atoms are e<a>, f<a>, K<b> and its inverse; lowercase k<a> is parsing sugar
for K<a>*K<a+1>^-1.  Nodes are sums, products, integer powers, and scalar
leaves from Q(q).  Expressions are immutable; structural equality decides
equality of trees (not of algebra elements).

One grammar serves expression text (:func:`parse_expr`) and scalar text
(:func:`degenq.scalars.parse_scalar`)::

    expr   := term (('+'|'-') term)*
    term   := sign factor ('*' factor)*
    factor := atom ('^' int)? | 'q' ('^' int)? | digits ('^' int)?
            | '(' expr ')' ('/' '(' expr ')')? ('^' int)?
    atom   := e<digits> | f<digits> | K<digits> | k<digits>
    int    := sign digits
    sign   := ('+'|'-')*

The '*' may be omitted between an integer and a following q (``2q^3``).  A
parenthesized subtree containing no generators collapses to a scalar leaf,
and '/' divides two such leaves.  Negative exponents are allowed on K/k atoms
and on scalars only.  Scalar text is the generator-free subset of this
grammar: any atom is a syntax error there, and the parsed tree folds to one
element of Q(q).  So scalar text may also carry a sign before '(' (as in
``-(q+1)/(q-2)``) and integer powers such as ``2^3``.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator

from .errors import ExprSyntaxError, IndexOutOfRange, MissingGenerator
from .linalg import SparseMat
from .scalars import (
    _LP_ONE,
    GLParams,
    LaurentPoly,
    RatFn,
    _decode,
    _digit_bits,
    _encode,
    _lag,
    _lcm,
    _power,
    _quo,
    scalar_to_text,
)

_RF_ONE = RatFn.one()
_RF_MINUS_ONE = RatFn.integer(-1)


class Expr:
    """Base class; supports +, -, * and integer ** with scalar coercion."""

    __slots__ = ()

    def __add__(self, other) -> Expr:
        return make_sum([self, _coerce(other)])

    def __radd__(self, other) -> Expr:
        return make_sum([_coerce(other), self])

    def __sub__(self, other) -> Expr:
        return make_sum([self, negate(_coerce(other))])

    def __rsub__(self, other) -> Expr:
        return make_sum([_coerce(other), negate(self)])

    def __mul__(self, other) -> Expr:
        return make_prod([self, _coerce(other)])

    def __rmul__(self, other) -> Expr:
        return make_prod([_coerce(other), self])

    def __neg__(self) -> Expr:
        return negate(self)

    def __pow__(self, n: int) -> Expr:
        return make_pow(self, n)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, RatFn):
        return Scalar(x)
    if isinstance(x, LaurentPoly):
        return Scalar(RatFn(x))
    if isinstance(x, int):
        return Scalar(RatFn.integer(x))
    raise TypeError(f"cannot use {type(x).__name__} in an algebra expression")


class Gen(Expr):
    """An atom read from a representation's generators: the kinds 'e', 'f',
    'K', 'Kinv' with an int index.  Code may name other fixed matrices of one
    space by other kinds (``degenq.rmatrix`` does); the parser builds none."""

    __slots__ = ("kind", "index", "_hash")

    def __init__(self, kind: str, index):
        self.kind = kind
        self.index = index
        self._hash = hash((kind, index))

    def __eq__(self, other):
        return isinstance(other, Gen) and self.kind == other.kind and self.index == other.index

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Gen({self.kind!r}, {self.index})"


class Scalar(Expr):
    __slots__ = ("value", "_hash")

    def __init__(self, value: RatFn):
        self.value = value
        self._hash = hash(("scalar", value))

    def __eq__(self, other):
        return isinstance(other, Scalar) and self.value == other.value

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Scalar({self.value})"


class Sum(Expr):
    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms
        self._hash = hash(("sum", terms))

    def __eq__(self, other):
        return isinstance(other, Sum) and self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Sum({', '.join(map(repr, self.terms))})"


class Prod(Expr):
    __slots__ = ("factors", "_hash")

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors
        self._hash = hash(("prod", factors))

    def __eq__(self, other):
        return isinstance(other, Prod) and self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Prod({', '.join(map(repr, self.factors))})"


class Pow(Expr):
    __slots__ = ("base", "exp", "_hash")

    def __init__(self, base: Expr, exp: int):
        self.base = base
        self.exp = exp
        self._hash = hash(("pow", base, exp))

    def __eq__(self, other):
        return isinstance(other, Pow) and self.exp == other.exp and self.base == other.base

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Pow({self.base!r}, {self.exp})"


# -- smart constructors ---------------------------------------------------------


def make_sum(terms: list[Expr]) -> Expr:
    flat: list[Expr] = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if not flat:
        return Scalar(RatFn.zero())
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def make_prod(factors: list[Expr]) -> Expr:
    """Flatten nested products and fold scalar factors into one leading scalar."""
    flat: list[Expr] = []
    coeff = _RF_ONE
    for f in factors:
        if isinstance(f, Prod):
            inner = f.factors
        else:
            inner = (f,)
        for g in inner:
            if isinstance(g, Scalar):
                coeff = coeff * g.value
            else:
                flat.append(g)
    if not coeff:
        return Scalar(RatFn.zero())
    if not flat:
        return Scalar(coeff)
    if not coeff.is_one():
        flat.insert(0, Scalar(coeff))
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def make_pow(base: Expr, exp: int) -> Expr:
    if isinstance(base, Scalar):
        return Scalar(base.value**exp)
    if isinstance(base, Gen) and base.kind in ("K", "Kinv") and exp < 0:
        base = Gen("Kinv" if base.kind == "K" else "K", base.index)
        exp = -exp
    if exp < 0:
        raise ExprSyntaxError("negative powers are allowed only on K atoms and scalars")
    if exp == 0:
        return Scalar(_RF_ONE)
    if exp == 1:
        return base
    if isinstance(base, Pow):
        return Pow(base.base, base.exp * exp)
    return Pow(base, exp)


def negate(x: Expr) -> Expr:
    """Fold a minus sign into the leading scalar of a term."""
    if isinstance(x, Scalar):
        return Scalar(-x.value)
    if isinstance(x, Prod) and isinstance(x.factors[0], Scalar):
        return make_prod([Scalar(-x.factors[0].value), *x.factors[1:]])
    return make_prod([Scalar(_RF_MINUS_ONE), x])


# -- generator helpers ------------------------------------------------------------


def e(a: int) -> Gen:
    return Gen("e", a)


def f(a: int) -> Gen:
    return Gen("f", a)


def K(b: int) -> Gen:
    return Gen("K", b)


def Kinv(b: int) -> Gen:
    return Gen("Kinv", b)


def cartan(a: int) -> Expr:
    """k_a = K_a K_{a+1}^-1."""
    return Prod((Gen("K", a), Gen("Kinv", a + 1)))


def cartan_inv(a: int) -> Expr:
    """k_a^-1 = K_a^-1 K_{a+1}."""
    return Prod((Gen("Kinv", a), Gen("K", a + 1)))


def one() -> Expr:
    return Scalar(_RF_ONE)


def validate_indices(x: Expr, params: GLParams) -> None:
    """Check every atom index: e/f in I', K in I."""
    if isinstance(x, Gen):
        if x.kind in ("e", "f"):
            if not 1 <= x.index <= params.size - 1:
                raise IndexOutOfRange(f"{x.kind}{x.index}: index outside I' = 1..{params.size - 1}")
        else:
            if not 1 <= x.index <= params.size:
                raise IndexOutOfRange(f"K{x.index}: index outside I = 1..{params.size}")
    elif isinstance(x, Sum):
        for t in x.terms:
            validate_indices(t, params)
    elif isinstance(x, Prod):
        for t in x.factors:
            validate_indices(t, params)
    elif isinstance(x, Pow):
        validate_indices(x.base, params)


# -- Hopf structure on expressions -------------------------------------------------


def _fold_scalar(x: Expr, gen_value: Callable[[Gen], RatFn | None]) -> RatFn | None:
    """x read as a scalar, each generator g as gen_value(g); None as soon as
    one generator reads None."""
    if isinstance(x, Scalar):
        return x.value
    if isinstance(x, Gen):
        return gen_value(x)
    if isinstance(x, Pow):
        v = _fold_scalar(x.base, gen_value)
        return None if v is None else v**x.exp
    if isinstance(x, Sum):
        total, parts, combine = RatFn.zero(), x.terms, RatFn.__add__
    elif isinstance(x, Prod):
        total, parts, combine = _RF_ONE, x.factors, RatFn.__mul__
    else:
        raise TypeError(f"not an expression: {x!r}")
    for t in parts:
        v = _fold_scalar(t, gen_value)
        if v is None:
            return None
        total = combine(total, v)
    return total


def counit(x: Expr) -> RatFn:
    """The counit: kills e and f, sends K to 1; an algebra homomorphism."""
    return _fold_scalar(x, lambda g: RatFn.zero() if g.kind in ("e", "f") else _RF_ONE)


def antipode(x: Expr) -> Expr:
    """The antipode: S(e_a) = -e_a k_a^-1, S(f_a) = -k_a f_a, S(K_b) = K_b^-1.

    Extended as an anti-homomorphism (products reverse).
    """
    if isinstance(x, Gen):
        if x.kind == "e":
            return make_prod([Scalar(_RF_MINUS_ONE), x, cartan_inv(x.index)])
        if x.kind == "f":
            return make_prod([Scalar(_RF_MINUS_ONE), cartan(x.index), x])
        return Gen("Kinv" if x.kind == "K" else "K", x.index)
    if isinstance(x, Scalar):
        return x
    if isinstance(x, Sum):
        return make_sum([antipode(t) for t in x.terms])
    if isinstance(x, Prod):
        return make_prod([antipode(t) for t in reversed(x.factors)])
    if isinstance(x, Pow):
        return make_pow(antipode(x.base), x.exp)
    raise TypeError(f"not an expression: {x!r}")


# -- evaluation ---------------------------------------------------------------------
#
# A node evaluates to a matrix N / D over Q(q): D is one ordinary polynomial
# and N's entries lie in Z[q, q^-1].  Each entry of N is carried as one Python
# int, the value at q = x = 2^B of the entry times q^v, where the node's shift
# v >= 0 makes N * q^v a polynomial matrix.  Evaluation at x is a ring
# homomorphism (Kronecker substitution, see degenq.scalars), so matrix sums and
# products of the ints are exact.
#
# A pre-pass over the batch, before any matrix is formed, gives every node its
# D, its v and a bound b on the 1-norm (sum of absolute coefficients) of each
# entry of N * q^v.  The 1-norm is subadditive and submultiplicative, and an
# entry of a product of two dim x dim matrices is a sum of dim products:
#
# * generator: D is the lcm of the entry denominators, v the largest power of
#   q^-1 in a numerator and b the largest numerator 1-norm;
# * scalar n/d: D = d, v from n, b = |n|;
# * product of k matrix factors with scalar factor n/d: the D's (and d)
#   multiply and the v's add; b = dim^(k-1) b_1 ... b_k |n|;
# * power k: D^k and k v; b = dim^(k-1) b^k;
# * sum: D is the lcm of the terms' D's, taken once per node.  Term i is
#   multiplied by its quotient Q_i = D / D_i and aligned by q^(vmax - v_i), a
#   left shift by (vmax - v_i) B bits, so b = sum of b_i |Q_i|.
#
# B = _digit_bits(largest b) puts every coefficient of every node strictly
# inside the balanced digit range (-2^(B-1), 2^(B-1)), where a polynomial is
# zero exactly when its value at 2^B is.  So a node is the zero matrix exactly
# when its int matrix is empty, and a passing check costs no decode and no
# gcd.  A nonzero output is decoded once per entry and made canonical once, as
# RatFn(N_ij, D).
#
# One evaluator serves a whole batch of expressions in one representation.
# Its memo is keyed by structural equality of nodes, so a subexpression shared
# across the batch (a root vector in many catalog entries) is evaluated once;
# in a batch built by :func:`hash_cons` every lookup hits by identity.  The
# pre-pass also counts how often each node will be asked for, and a value
# leaves the memo with its last use.


def eval_batch(exprs, rep) -> Iterator[SparseMat]:
    """Evaluate each expression of exprs in rep, in order, with one evaluator.

    rep needs only a ``dim`` and a ``gens`` dict from (kind, index) to a
    dim x dim SparseMat.  Yields one canonical SparseMat over Q(q) per
    expression.  Values of nodes shared across the batch are computed once
    and dropped after their last use.
    """
    exprs = list(exprs)
    dim = rep.dim
    # How often evaluating exprs in order asks for each node, each distinct node
    # being computed once; and per node (D, v, bound, how), where how is what
    # ``compute`` needs: a generator's numerators, a scalar's numerator, a
    # product's scalar factor with its shift, or a sum's (Q_i, vmax - v_i).
    # A denominator equal to 1 is always the object _LP_ONE, so that the
    # pre-pass can skip the lcm, quotient and product work for it by identity.
    uses: dict[Expr, int] = {}
    plan: dict[Expr, tuple] = {}

    def request(node: Expr) -> tuple:
        uses[node] = uses.get(node, 0) + 1
        got = plan.get(node)
        if got is None:
            got = plan[node] = shape(node)
        return got

    def shape(node: Expr) -> tuple:
        if isinstance(node, Gen):
            mat = rep.gens.get((node.kind, node.index))
            if mat is None:
                raise MissingGenerator(f"representation lacks {node.kind}{node.index}")
            den = _LP_ONE
            for v in mat.entries.values():
                if not v.den.is_one():
                    den = _lcm(den, v.den)
            if den is _LP_ONE:
                num = {k: v.num for k, v in mat.entries.items()}
            else:
                num = {
                    k: v.num if v.den == den else v.num * _quo(den, v.den)
                    for k, v in mat.entries.items()
                }
            bound = max(map(LaurentPoly.norm1, num.values()), default=0)
            return den, _lag(num.values()), bound, num
        if isinstance(node, Scalar):
            n = node.value.num
            return _den(node.value), _lag([n]), n.norm1(), n
        if isinstance(node, Sum):
            terms = [request(t) for t in node.terms]
            den = _LP_ONE
            for d, _, _, _ in terms:
                if d is not _LP_ONE:
                    den = _lcm(den, d)
            lag = max(v for _, v, _, _ in terms)
            quos = [_LP_ONE if d is den else _quo(den, d) for d, _, _, _ in terms]
            bound = sum(
                b if quo is _LP_ONE else b * quo.norm1() for (_, _, b, _), quo in zip(terms, quos)
            )
            return den, lag, bound, [(quo, lag - v) for quo, (_, v, _, _) in zip(quos, terms)]
        if isinstance(node, Prod):
            coeff, den, lag, bound, k = _LP_ONE, _LP_ONE, 0, 1, 0
            for t in node.factors:
                if isinstance(t, Scalar):
                    coeff = coeff * t.value.num
                    d = _den(t.value)
                else:
                    d, v, b, _ = request(t)
                    lag, bound, k = lag + v, bound * b, k + 1
                if d is not _LP_ONE:
                    den = d if den is _LP_ONE else den * d
            shift = _lag([coeff])
            return den, lag + shift, dim ** max(k - 1, 0) * bound * coeff.norm1(), (coeff, shift)
        if isinstance(node, Pow):
            if node.exp < 0:
                raise ValueError("negative matrix power")
            d, v, b, _ = request(node.base)
            k = node.exp
            return _LP_ONE if d is _LP_ONE else d**k, k * v, dim ** (k - 1) * b**k if k else 1, None
        raise TypeError(f"not an expression: {node!r}")

    for x in exprs:
        request(x)
    bits = _digit_bits(max((b for _, _, b, _ in plan.values()), default=0))
    identity = SparseMat(dim, dim, {(i, i): 1 for i in range(dim)})
    memo: dict[Expr, SparseMat] = {}

    def value(node: Expr) -> SparseMat:
        got = memo.pop(node, None)
        if got is None:
            got = compute(node)
        uses[node] -= 1
        if uses[node]:
            memo[node] = got
        return got

    def compute(node: Expr) -> SparseMat:
        _, lag, _, how = plan[node]
        if isinstance(node, Gen):
            return SparseMat(dim, dim, {k: _encode(p, bits, lag) for k, p in how.items()})
        if isinstance(node, Scalar):
            c = _encode(how, bits, lag)
            return SparseMat(dim, dim, {(i, i): c for i in range(dim)})
        if isinstance(node, Sum):
            total = SparseMat(dim, dim)
            for t, (quo, shift) in zip(node.terms, how):
                n = value(t)
                if n.entries:
                    m = _encode(quo, bits, shift)
                    total = total + (n if m == 1 else n.scale(m))
            return total
        if isinstance(node, Prod):
            mat = None
            for t in node.factors:
                if not isinstance(t, Scalar):
                    n = value(t)
                    mat = n if mat is None else mat * n
            if mat is None:
                mat = identity
            coeff, shift = how
            c = _encode(coeff, bits, shift)
            return mat if c == 1 else mat.scale(c)
        return _power(value(node.base), node.exp, identity)

    for x in exprs:
        n = value(x)
        den, lag, _, _ = plan[x]
        nums = {k: _decode(v, bits, -lag) for k, v in n.entries.items()}
        if den.is_one():  # a Laurent polynomial over 1 is already canonical
            yield SparseMat(dim, dim, {k: RatFn._raw(p, _LP_ONE) for k, p in nums.items()})
        else:
            yield SparseMat(dim, dim, {k: RatFn(p, den) for k, p in nums.items()})


def hash_cons(exprs) -> list[Expr]:
    """The expressions rebuilt so that structurally equal nodes are one object."""
    table: dict[Expr, Expr] = {}
    done: dict[int, Expr] = {}  # by id: every input node stays alive meanwhile

    def share(x: Expr) -> Expr:
        got = done.get(id(x))
        if got is None:
            if isinstance(x, Sum):
                x_new = Sum(tuple(map(share, x.terms)))
            elif isinstance(x, Prod):
                x_new = Prod(tuple(map(share, x.factors)))
            elif isinstance(x, Pow):
                x_new = Pow(share(x.base), x.exp)
            else:
                x_new = x
            got = done[id(x)] = table.setdefault(x_new, x_new)
        return got

    return [share(x) for x in exprs]


def _den(value: RatFn) -> LaurentPoly:
    """The denominator of a scalar, as the object _LP_ONE when it is 1."""
    return _LP_ONE if value.den.is_one() else value.den


def eval_in_rep(x: Expr, rep) -> SparseMat:
    """Evaluate homomorphically in a representation, as a canonical SparseMat
    over Q(q).

    Sums map to matrix sums, products to matrix products, scalars to scalar
    multiples of the identity.  The work runs over the integers at q = 2^B
    with one denominator per node (see :func:`eval_batch`, the evaluator for
    many expressions in one representation).
    """
    return next(eval_batch([x], rep))


# -- printer ------------------------------------------------------------------------


def _scalar_factor_text(v: RatFn) -> str:
    """Scalar as a product factor, parenthesized unless an unambiguous monomial."""
    text = scalar_to_text(v)
    if v.is_polynomial() and len(v.num.terms) == 1:
        coeff = v.num.leading_coeff()
        if coeff > 0:
            return text
    return f"({text})"


def _factor_text(x: Expr) -> str:
    if isinstance(x, Gen):
        if x.kind == "Kinv":
            return f"K{x.index}^-1"
        return f"{x.kind}{x.index}"
    if isinstance(x, Scalar):
        return _scalar_factor_text(x.value)
    if isinstance(x, Pow):
        if isinstance(x.base, Gen):
            if x.base.kind == "Kinv":
                return f"K{x.base.index}^-{x.exp}"
            return f"{_factor_text(x.base)}^{x.exp}"
        return f"({expr_to_text(x.base)})^{x.exp}"
    return f"({expr_to_text(x)})"


def _term_text(x: Expr) -> tuple[str, str]:
    """Return (sign, body) where sign is '+' or '-' and body omits the sign."""
    if isinstance(x, Scalar):
        if x.value.num and x.value.num.leading_coeff() < 0:
            return "-", _term_scalar_body(-x.value)
        return "+", _term_scalar_body(x.value)
    if isinstance(x, Prod) and isinstance(x.factors[0], Scalar):
        v = x.factors[0].value
        rest = x.factors[1:]
        sign = "+"
        if v.num and v.num.leading_coeff() < 0:
            sign = "-"
            v = -v
        parts = [] if v.is_one() else [_scalar_factor_text(v)]
        parts.extend(_factor_text(t) for t in rest)
        return sign, "*".join(parts)
    if isinstance(x, Prod):
        return "+", "*".join(_factor_text(t) for t in x.factors)
    return "+", _factor_text(x)


def _term_scalar_body(v: RatFn) -> str:
    # Multi-term polynomials need parentheses so the term re-parses as one leaf;
    # a rational function already prints in parseable (num)/(den) form.
    if v.is_polynomial() and len(v.num.terms) > 1:
        return f"({scalar_to_text(v)})"
    return scalar_to_text(v)


def expr_to_text(x: Expr) -> str:
    if isinstance(x, Sum):
        sign, body = _term_text(x.terms[0])
        out = body if sign == "+" else f"-{body}"
        for t in x.terms[1:]:
            sign, body = _term_text(t)
            out += f" {sign} {body}"
        return out
    sign, body = _term_text(x)
    return body if sign == "+" else f"-{body}"


# -- parser -------------------------------------------------------------------------

_EXPR_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>[efKk])(?P<idx>\d+)|(?P<q>q)|(?P<int>\d+)|(?P<op>[\^*+\-/()]))"
)


def _tokenize_expr(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group("atom"):
            tokens.append(("atom", (m.group("atom"), int(m.group("idx"))), m.start("atom")))
        elif m.group("q"):
            tokens.append(("q", "q", m.start("q")))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def _as_scalar(x: Expr) -> RatFn | None:
    """The value of a generator-free expression, else None."""
    return _fold_scalar(x, lambda g: None)


# The deepest parenthesis nesting: a level costs the parser three stack frames
# and the later tree walks a few, well inside Python's recursion limit.
MAX_NESTING = 100


class _ExprParser:
    """Recursive descent over the module grammar; params None parses scalar text."""

    def __init__(self, tokens, params: GLParams | None):
        self.tokens = tokens
        self.params = params
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ExprSyntaxError("unexpected end of input", -1)
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.next()
        if t[0] != "op" or t[1] != op:
            raise ExprSyntaxError(f"expected {op!r}, got {t[1]!r}", t[2])

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while True:
            t = self.peek()
            if t is None or t[0] != "op" or t[1] not in "+-":
                break
            self.next()
            term = self.parse_term()
            terms.append(negate(term) if t[1] == "-" else term)
        return make_sum(terms)

    def parse_sign(self) -> int:
        """Consume a run of '+' and '-' signs; return their product."""
        sign = 1
        t = self.peek()
        while t is not None and t[0] == "op" and t[1] in "+-":
            self.next()
            if t[1] == "-":
                sign = -sign
            t = self.peek()
        return sign

    def parse_term(self) -> Expr:
        negated = self.parse_sign() < 0
        factors = [self.parse_factor()]
        while True:
            t = self.peek()
            if t is None or t[0] != "op" or t[1] != "*":
                # Implicit product only between an integer and a following q-monomial.
                if (
                    t is not None
                    and t[0] == "q"
                    and len(factors) >= 1
                    and isinstance(factors[-1], Scalar)
                    and factors[-1].value.is_polynomial()
                    and set(factors[-1].value.num.terms.keys()) <= {0}
                ):
                    factors.append(self.parse_factor())
                    continue
                break
            self.next()
            factors.append(self.parse_factor())
        body = make_prod(factors)
        return negate(body) if negated else body

    def parse_optional_exponent(self) -> int | None:
        t = self.peek()
        if t is None or t[0] != "op" or t[1] != "^":
            return None
        self.next()
        sign = self.parse_sign()
        t = self.next()
        if t[0] != "int":
            raise ExprSyntaxError("expected an integer exponent", t[2])
        return sign * t[1]

    def parse_factor(self) -> Expr:
        t = self.next()
        if t[0] == "atom":
            letter, idx = t[1]
            if self.params is None:
                raise ExprSyntaxError(f"generator {letter}{idx} in scalar text", t[2])
            exp = self.parse_optional_exponent()
            base: Expr
            if letter == "e":
                base = Gen("e", idx)
            elif letter == "f":
                base = Gen("f", idx)
            elif letter == "K":
                base = Gen("K", idx)
            else:  # k sugar
                base = cartan(idx)
                if exp is not None and exp < 0:
                    base = cartan_inv(idx)
                    exp = -exp
            if letter in ("e", "f") and exp is not None and exp < 0:
                raise ExprSyntaxError(f"negative power on {letter}{idx}", t[2])
            node = base if exp is None else make_pow(base, exp)
            validate_indices(node, self.params)
            return node
        if t[0] == "q":
            exp = self.parse_optional_exponent()
            return Scalar(RatFn.q(exp if exp is not None else 1))
        if t[0] == "int":
            exp = self.parse_optional_exponent()
            value = RatFn.integer(t[1])
            return Scalar(value if exp is None else value**exp)
        if t[0] == "op" and t[1] == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", t[2])
            inner = self.parse_expr()
            self.expect_op(")")
            v = _as_scalar(inner)
            if v is not None:
                inner = Scalar(v)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                # Scalar division: (num)/(den) with both sides generator-free.
                self.next()
                self.expect_op("(")
                den_expr = self.parse_expr()
                self.expect_op(")")
                den = _as_scalar(den_expr)
                num = _as_scalar(inner)
                if num is None or den is None:
                    raise ExprSyntaxError("division is only defined between scalars", nxt[2])
                inner = Scalar(num / den)
            self.depth -= 1
            exp = self.parse_optional_exponent()
            if exp is None:
                return inner
            if exp < 0 and not isinstance(inner, Scalar):
                raise ExprSyntaxError("negative power on a parenthesized expression", t[2])
            return make_pow(inner, exp)
        raise ExprSyntaxError(f"unexpected token {t[1]!r}", t[2])


def parse_expr(text: str, params: GLParams) -> Expr:
    """Parse expression text, validating generator indices against params."""
    return _parse(text, params)


def _parse(text: str, params: GLParams | None) -> Expr:
    """Parse a whole text; params None admits only generator-free (scalar) text."""
    parser = _ExprParser(_tokenize_expr(text), params)
    x = parser.parse_expr()
    t = parser.peek()
    if t is not None:
        raise ExprSyntaxError(f"trailing input {t[1]!r}", t[2])
    return x
