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

The '*' may be omitted between an integer and a following q (``2q^3``).  The
smart constructors fold scalars as a tree is built, so every generator-free
subtree is one scalar leaf, and '/' divides two such leaves.  Negative
exponents are allowed on K/k atoms and on scalars only.  Scalar text is the
generator-free subset of this grammar: any atom is a syntax error there, and
the parsed tree is one leaf, an element of Q(q).  So scalar text may also
carry a sign before '(' (as in ``-(q+1)/(q-2)``) and integer powers such as
``2^3``.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Iterator
from operator import attrgetter

from .errors import ExprSyntaxError, IndexOutOfRange, MissingGenerator, ResourceLimit
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
)

_RF_ONE = RatFn.one()
_RF_MINUS_ONE = RatFn.integer(-1)


class Expr:
    """Base class of the nodes; supports +, -, * and integer ** with scalar
    coercion.

    A node class names its fields in ``__slots__`` and reads them all with
    ``_key``; its ``__init__`` sets them and the node's hash, once, from its
    children's kept hashes.  Two nodes are equal when they are of one class
    and their fields are equal, so equality is structural and costs a
    subtree walk only where the hashes agree.
    """

    __slots__ = ("_hash",)
    _key: Callable[[Expr], object]

    def __eq__(self, other):
        return type(other) is type(self) and self._hash == other._hash and self._key(self) == self._key(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(repr(getattr(self, name)) for name in self.__slots__)})"

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

    __slots__ = ("kind", "index")
    _key = attrgetter(*__slots__)

    def __init__(self, kind: str, index):
        self.kind = kind
        self.index = index
        self._hash = hash((kind, index))


class Scalar(Expr):
    __slots__ = ("value",)
    _key = attrgetter(*__slots__)

    def __init__(self, value: RatFn):
        self.value = value
        self._hash = hash(("scalar", value))


class Sum(Expr):
    __slots__ = ("terms",)
    _key = attrgetter(*__slots__)

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms
        self._hash = hash(("sum", terms))


class Prod(Expr):
    __slots__ = ("factors",)
    _key = attrgetter(*__slots__)

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors
        self._hash = hash(("prod", factors))


class Pow(Expr):
    __slots__ = ("base", "exp")
    _key = attrgetter(*__slots__)

    def __init__(self, base: Expr, exp: int):
        self.base = base
        self.exp = exp
        self._hash = hash(("pow", base, exp))


# -- smart constructors ---------------------------------------------------------


def make_sum(terms: list[Expr]) -> Expr:
    """Flatten nested sums and fold scalar terms into one scalar, placed where
    the first of them stood and dropped when it is zero.  Two scalars over
    different denominators are added after the check of
    :func:`_check_scalar_size` on each cross product."""
    flat: list[Expr] = []
    coeff, at = None, 0
    for t in terms:
        for g in t.terms if isinstance(t, Sum) else (t,):
            if not isinstance(g, Scalar):
                flat.append(g)
            elif coeff is None:
                coeff, at = g.value, len(flat)
            else:
                a, b = coeff, g.value
                if a.den != b.den:
                    for x, y in ((a.num, b.den), (b.num, a.den), (a.den, b.den)):
                        _check_scalar_size("the scalar sum", (x, 1), (y, 1))
                coeff = a + b
    if coeff:
        flat.insert(at, Scalar(coeff))
    if not flat:
        return Scalar(RatFn.zero())
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def make_prod(factors: list[Expr]) -> Expr:
    """Flatten nested products and fold scalar factors into one leading scalar,
    each product of two scalars after the check of :func:`_check_scalar_size`."""
    flat: list[Expr] = []
    coeff = _RF_ONE
    for f in factors:
        for g in f.factors if isinstance(f, Prod) else (f,):
            if not isinstance(g, Scalar):
                flat.append(g)
            elif coeff is _RF_ONE:
                coeff = g.value
            else:
                for a, b in ((coeff.num, g.value.num), (coeff.den, g.value.den)):
                    _check_scalar_size("the scalar product", (a, 1), (b, 1))
                coeff = coeff * g.value
    if not coeff:
        return Scalar(RatFn.zero())
    if not flat:
        return Scalar(coeff)
    if not coeff.is_one():
        flat.insert(0, Scalar(coeff))
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def _check_scalar_size(what: str, *powers: tuple[LaurentPoly, int]) -> None:
    """Refuse with ResourceLimit, before it is formed, the product of p^k over
    the given (p, k) when it may not fit in MAX_ENTRY_BITS: estimated as the
    sum of k log2 |p|_1 bits per coefficient (the 1-norm is submultiplicative
    and bounds every coefficient) times the sum of k span(p), plus 1,
    coefficients.  A factor +-q^e costs nothing by this estimate."""
    bits = span = 0
    for p, k in powers:
        if p:
            bits += k * (p.norm1() - 1).bit_length()
            span += k * (max(p.terms) - min(p.terms))
    if _entry_bits(bits, span) > MAX_ENTRY_BITS:
        raise _too_big(what)


def make_pow(base: Expr, exp: int) -> Expr:
    """base^exp.  A scalar power is formed at once, after the check of
    :func:`_check_scalar_size` on its numerator's and its denominator's
    power p^|exp|."""
    if isinstance(base, Scalar):
        for p in (base.value.num, base.value.den):
            _check_scalar_size(f"the power ^{exp}", (p, abs(exp)))
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


# -- Hopf structure on expressions -------------------------------------------------


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
# int, the value at q = x = 2^B of the entry times q^v, where the node's lag
# v >= 0 makes N q^v a polynomial matrix.  Evaluation at x is a ring
# homomorphism (Kronecker substitution, see degenq.scalars), so matrix sums and
# products of the ints are exact.
#
# Compile once, plan once per list of spaces, run per space.
# :func:`compile_batch` turns a batch into a :class:`Program` with no
# representation at hand: the distinct ops in post-order, one slot each, with
# their child slots, the step after which each slot is read for the last time,
# and every datum no representation changes (numerator, denominator, lag,
# 1-norm and degree of each Scalar leaf and of each Prod's leading scalar
# factor).  :meth:`Program.run_each` then makes one numeric pass over the
# slots for all its modules, the plan, and one integer pass per module.  The
# numeric pass, before any int is formed, gives every node its D, its v, the
# degree of N q^v and a bound b on the row norm of N q^v: the largest sum, over
# one row, of its entries' 1-norms (sums of absolute coefficients).  The
# 1-norm of a polynomial is subadditive and submultiplicative, so the row norm
# is too, and it bounds every coefficient of every entry:
#
# * generator: D is the lcm of the entry denominators, v the largest power of
#   q^-1 in a numerator, b the row norm of the numerators over D, in each
#   module.  Over several modules these are aligned as a sum's terms are (see
#   below), and b and the degree are the largest of the aligned matrices';
# * product of k >= 0 matrix factors with scalar factor n/d: the D's (and d)
#   multiply, the v's and degrees add, and b = b_1 ... b_k |n|.  A Scalar leaf
#   n/d is the product of no factors, n/d times the identity: D = d, b = |n|;
# * power k: D^k, k v, k times the degree, b^k;
# * sum: D is the lcm of the terms' D's.  Term i is multiplied by its quotient
#   Q_i = D / D_i and aligned by q^(vmax - v_i), a left shift by
#   (vmax - v_i) B bits, so b = sum of b_i |Q_i|.
#
# B = _digit_bits(largest b) puts every coefficient of every node strictly
# inside the balanced digit range (-2^(B-1), 2^(B-1)), where a polynomial is
# zero exactly when its value at 2^B is, in every module of the plan.  So a
# node is the zero matrix exactly when its int matrix is empty, and a passing
# check costs no decode and no gcd.  The plan encodes every product's scalar
# factor and every sum's multipliers Q_i(2^B) 2^((vmax - v_i) B) once, at B.
# A module's integer pass brings each generator's int matrix to the plan's D
# and v by its own such multiplier, forms each slot's int matrix and drops it
# after its last read; an output is decoded when it is asked for, once per
# nonzero entry, and made canonical as RatFn(N_ij, D).
#
# Work budget.  An entry of a node of degree t is an int of at most B (t + 1)
# bits.  The numeric pass refuses, with ResourceLimit, a batch where that
# exceeds MAX_ENTRY_BITS for some node, and a power k before it forms b^k or
# D^k: when k times the base's degree, its denominator's degree or
# b.bit_length() - 1 exceeds the budget.  A lag costs nothing by itself; where
# a sum aligns terms by it, or a plan a generator's modules, the shift shows
# in the node's degree.
#
# Caches.  A generator matrix keeps its :class:`_Encoding` in its ``_encoding``
# slot, filled by the first plan that reads it: the numerators over its D with
# D, v, b and degree, and its int matrices at the last two B it was run at, so
# a matrix read by two batches at two widths (a memoised tensor power, at the
# relation suite's shared width and by an R-matrix suite) is encoded once for
# each.  A matrix is never changed once built, so the encoding holds for the
# matrix's life.  A matrix replaced in ``rep.gens`` is a new object, which the
# next plan measures afresh, and a run at a third B encodes it again.  The int
# matrices keep their row index (``SparseMat.__mul__``); a generator brought
# to a plan's D and v is a scaled copy, made and dropped within its run.  A
# plan lives for one call of :meth:`Program.run_each`, and nothing of it is
# kept.  Every Program and module that outlives a job lives in the set-up
# store (:class:`degenq.reps.Setup`), so the encodings on those modules'
# matrices outlive it too.  The store holds set-up only, never a result, and
# no cache grows with the number of runs.

# The largest int entry, in bits, that evaluation may form: 2^23 bits is 1 MB,
# above the 4 million bits of (q+1)^2000 at its own digit width.
MAX_ENTRY_BITS = 1 << 23


def _entry_bits(bits: int, degree: int) -> int:
    """B (t + 1), the bits of an entry of degree t at digit width B."""
    return bits * (degree + 1)


_GEN, _SUM, _PROD, _POW = range(4)


def _scalar_data(value: RatFn) -> tuple:
    """(den, lag, 1-norm, degree, num) of a scalar times the identity, with a
    denominator of 1 as the object _LP_ONE."""
    num, lag = value.num, _lag([value.num])
    den = _LP_ONE if value.den.is_one() else value.den
    return den, lag, num.norm1(), max(num.terms, default=-lag) + lag, num


def _too_big(what: str) -> ResourceLimit:
    return ResourceLimit(f"{what} needs integers of more than {MAX_ENTRY_BITS} bits")


class _Encoding:
    """A generator matrix over its common denominator D: the numerators with D,
    lag v, row norm b and degree of N q^v, and its int matrices by digit
    width, for the width ``bits`` of the last run that read it and the width
    before it.  Kept on the matrix."""

    __slots__ = ("num", "den", "lag", "bound", "deg", "bits", "ints")

    def __init__(self, mat: SparseMat):
        den = _LP_ONE
        for v in mat.entries.values():
            if not v.den.is_one():
                den = _lcm(den, v.den)
        if den is _LP_ONE:
            num = {k: v.num for k, v in mat.entries.items()}
        else:
            num = {k: v.num if v.den == den else v.num * _quo(den, v.den) for k, v in mat.entries.items()}
        rows: dict[int, int] = {}
        for (i, _), p in num.items():
            rows[i] = rows.get(i, 0) + p.norm1()
        self.num, self.den = num, den
        self.lag = _lag(num.values())
        self.bound = max(rows.values(), default=0)
        self.deg = max((max(p.terms) for p in num.values()), default=-self.lag) + self.lag
        self.bits = None
        self.ints: dict[int, SparseMat] = {}

    def at(self, bits: int, dim: int) -> SparseMat:
        ints = self.ints.get(bits)
        if ints is None:
            ints = SparseMat._raw(dim, dim, {k: _encode(p, bits, self.lag) for k, p in self.num.items()})
            last = {} if self.bits is None else {self.bits: self.ints[self.bits]}
            self.ints = {**last, bits: ints}
        self.bits = bits
        return ints


class Program:
    """A batch of expressions compiled by :func:`compile_batch`, to be run in
    any number of representations.

    Op s computes slot s: ``ops[s] = (code, kids, data)``, where kids are the
    child slots and data is a generator's key, the (den, lag, 1-norm, degree,
    numerator) of a product's scalar factor (a Scalar leaf is a product with
    no matrix factors), or a power's exponent.  ``after[s] = (outputs,
    dead)``: the slots to yield, in batch order, once op s has run, and the
    slots read for the last time by then.  ``lifted[s]`` holds for a product
    read by sums only and yielded by none: its scalar factor is applied
    within those sums' multipliers, so no matrix is scaled for it.

    :meth:`run_each` evaluates the batch in a list of modules from one plan,
    the numeric pass over them all (:meth:`_plan`); :meth:`run` is its
    one-module case.
    """

    __slots__ = ("ops", "after", "lifted")

    def __init__(self, ops: list[tuple], outputs: list[int]):
        self.ops = ops
        last = list(range(len(ops)))
        readers: list[set] = [set() for _ in ops]
        for s, (code, kids, _) in enumerate(ops):
            for c in kids:
                last[c] = s
                readers[c].add(code)
        yielded = set(outputs)
        self.lifted = [
            code == _PROD and readers[s] == {_SUM} and s not in yielded
            for s, (code, _, _) in enumerate(ops)
        ]
        yields: list[list[int]] = [[] for _ in ops]
        ready = -1
        for slot in outputs:
            ready = max(ready, slot)
            yields[ready].append(slot)
            last[slot] = max(last[slot], ready)
        dead: list[list[int]] = [[] for _ in ops]
        for slot, s in enumerate(last):
            dead[s].append(slot)
        self.after = list(zip(yields, dead))

    def run(self, rep) -> Iterator[SparseMat]:
        """Each expression of the batch evaluated in rep, in order, as a
        canonical SparseMat over Q(q): :meth:`run_each` of the one module.

        rep needs a ``dim`` and a ``gens`` dict from (kind, index) to a
        dim x dim SparseMat.
        """
        return self.run_each([rep])[0]

    def run_each(self, reps) -> list[Iterator[SparseMat]]:
        """Per module of reps, an iterator over each expression of the batch
        evaluated in it, in order, as a canonical SparseMat over Q(q).

        One plan serves them all: the numeric pass, the digit width and the
        encoded constants are made once, here (:meth:`_plan`), and a module's
        integer pass runs as its iterator is read, so that one module's
        intermediates are alive at a time when the iterators are read in
        turn.
        """
        shape, how, bits = self._plan(reps)
        return [self._ints(shape, how, bits, k, rep.dim) for k, rep in enumerate(reps)]

    def _plan(self, reps) -> tuple[list[tuple], list, int]:
        """The numeric pass over the modules reps: per slot a shape (D, v, b,
        degree) that bounds the slot's node in each of them; the digit width
        B of those shapes; and per op what an integer pass needs, its
        constants encoded at B.

        A generator op's shape is its modules' shapes aligned as a sum aligns
        its terms, over the lcm D of their denominators and their largest lag
        v (:func:`_aligned`), with the largest row norm and degree of the
        aligned matrices; each module's int matrix is brought to D and v by
        its multiplier Q_i(2^B) 2^((v - v_i) B) when the integer pass reads
        it.  For one module every multiplier is 1.
        """
        gens = [rep.gens for rep in reps]
        # Per slot (D, v, b, degree), with a denominator equal to 1 always
        # the object _LP_ONE, so that lcm, quotient and product work for it
        # is skipped by identity.
        shape: list[tuple] = []
        how: list = []
        for code, kids, data in self.ops:
            if code == _GEN:
                codes = []
                for g in gens:
                    mat = g.get(data)
                    if mat is None:
                        raise MissingGenerator(f"representation lacks {data[0]}{data[1]}")
                    enc = mat._encoding
                    if enc is None:
                        enc = mat._encoding = _Encoding(mat)
                    codes.append(enc)
                den, lag, parts, sizes = _aligned([(c.den, c.lag, c.bound, c.deg) for c in codes])
                shape.append((den, lag, max(b for b, _ in sizes), max(t for _, t in sizes)))
                how.append(list(zip(codes, parts)))
            elif code == _PROD:
                den, shift, bound, deg, coeff = data
                lag = shift
                for c in kids:
                    d, v, b, t = shape[c]
                    if d is not _LP_ONE:
                        den = d if den is _LP_ONE else den * d
                    lag, bound, deg = lag + v, bound * b, deg + t
                shape.append((den, lag, bound, deg))
                how.append((coeff, shift))
            elif code == _SUM:
                den, lag, parts, sizes = _aligned([shape[c] for c in kids])
                shape.append((den, lag, sum(b for b, _ in sizes), max(t for _, t in sizes)))
                how.append(parts)
            else:
                d, v, b, t = shape[kids[0]]
                if data * max(t, max(d.terms), b.bit_length() - 1) > MAX_ENTRY_BITS:
                    raise _too_big(f"the power ^{data}")
                den = _LP_ONE if d is _LP_ONE or not data else d**data
                shape.append((den, data * v, b**data, data * t))
                how.append(data)
        bits = _digit_bits(max((b for _, _, b, _ in shape), default=0))
        if _entry_bits(bits, max((t for _, _, _, t in shape), default=0)) > MAX_ENTRY_BITS:
            raise _too_big("evaluation")
        factors: dict[int, int] = {}  # a lifted product's slot: its scalar factor
        for s, (code, kids, _) in enumerate(self.ops):
            h = how[s]
            if code == _GEN:
                how[s] = [(enc, _multiplier(part, bits)) for enc, part in h]
            elif code == _PROD:
                how[s] = _encode(h[0], bits, h[1])
                if self.lifted[s]:
                    factors[s], how[s] = how[s], 1
            elif code == _SUM:
                how[s] = [_multiplier(part, bits) * factors.get(c, 1) for c, part in zip(kids, h)]
        return shape, how, bits

    def _ints(self, shape: list[tuple], how: list, bits: int, k: int, dim: int) -> Iterator[SparseMat]:
        """The integer pass of the plan (shape, how, bits) in its k-th
        module, of dimension dim: each slot's int matrix, dropped after its
        last read, and each output decoded as it is reached."""
        identity = None
        vals: list = [None] * len(self.ops)
        for s, (code, kids, _) in enumerate(self.ops):
            h = how[s]
            if code == _GEN:
                enc, m = h[k]
                val = enc.at(bits, dim)
                if m != 1:
                    val = val.scale(m)
            elif code == _PROD:
                val = None
                for c in kids:
                    n = vals[c]
                    val = n if val is None else val * n
                if val is None:
                    val = identity = _int_identity(dim) if identity is None else identity
                if h != 1:
                    val = val.scale(h)
            elif code == _SUM:
                val = SparseMat._raw(dim, dim, _int_sum([vals[c].entries for c in kids], h))
            else:
                identity = _int_identity(dim) if identity is None else identity
                val = _power(vals[kids[0]], h, identity)
            vals[s] = val
            outputs, dead = self.after[s]
            for slot in outputs:
                yield _decoded(vals[slot], shape[slot], bits)
            for slot in dead:
                vals[slot] = None


def _aligned(shapes: list[tuple]) -> tuple:
    """Shapes (D_i, v_i, b_i, t_i) brought over the lcm D of the D_i and the
    largest lag v: (D, v, [(Q_i, v - v_i)], [(b_i |Q_i|_1, t_i + deg Q_i +
    v - v_i)]), where Q_i = D / D_i.  Matrix i times Q_i q^(v - v_i) is
    then over D and at lag v, with the row norm and degree given."""
    den = _LP_ONE
    for d, _, _, _ in shapes:
        if d is not _LP_ONE:
            den = _lcm(den, d)
    lag = max(v for _, v, _, _ in shapes)
    parts, sizes = [], []
    for d, v, b, t in shapes:
        quo = _LP_ONE if d is den else _quo(den, d)
        if quo is not _LP_ONE:
            b, t = b * quo.norm1(), t + max(quo.terms)
        parts.append((quo, lag - v))
        sizes.append((b, t + lag - v))
    return den, lag, parts, sizes


def _multiplier(part: tuple[LaurentPoly, int], bits: int) -> int:
    """Q(2^B) 2^(shift B) of an aligned part (Q, shift), 1 when there is
    nothing to align."""
    quo, shift = part
    return 1 if quo is _LP_ONE and not shift else _encode(quo, bits, shift)


def _int_identity(dim: int) -> SparseMat:
    return SparseMat._raw(dim, dim, {(i, i): 1 for i in range(dim)})


def _int_sum(terms: list[dict], multipliers: list[int]) -> dict:
    """The entries of sum_i m_i T_i, added into one dict."""
    out: dict = {}
    for n, m in zip(terms, multipliers):
        if not n:
            continue
        if not out:
            out = dict(n) if m == 1 else {k: m * v for k, v in n.items()}
            continue
        get = out.get
        for k, v in n.items():
            if m != 1:
                v = m * v
            s = get(k)
            if s is not None:
                v += s
                if not v:
                    del out[k]
                    continue
            out[k] = v
    return out


def _decoded(n: SparseMat, shape: tuple, bits: int) -> SparseMat:
    """An int matrix of a node with shape (D, v, ...) read back over Q(q); a
    zero matrix costs no decode."""
    if not n.entries:
        return SparseMat._raw(n.nrows, n.ncols, {})
    den, lag = shape[0], shape[1]
    nums = {k: _decode(v, bits, -lag) for k, v in n.entries.items()}
    if den.is_one():  # a Laurent polynomial over 1 is already canonical
        return SparseMat(n.nrows, n.ncols, {k: RatFn._raw(p, _LP_ONE) for k, p in nums.items()})
    return SparseMat(n.nrows, n.ncols, {k: RatFn(p, den) for k, p in nums.items()})


def compile_batch(exprs) -> Program:
    """The Program of a batch of expressions: one slot per distinct op, so
    that a node shared across the batch, or built twice alike, is evaluated
    once per run.  Each node object is visited once, by its id, and its slot
    is found by its op (code, child slots, data), so no two trees are
    compared."""
    roots = list(exprs)  # keeps every node alive, and so its id unique
    slot_of_node: dict[int, int] = {}
    slot_of_op: dict[tuple, int] = {}
    ops: list[tuple] = []

    def visit(node: Expr) -> int:
        got = slot_of_node.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Gen):
            op = (_GEN, (), (node.kind, node.index))
        elif isinstance(node, Scalar):
            # A product with no matrix factors: its coefficient times the identity.
            op = (_PROD, (), _scalar_data(node.value))
        elif isinstance(node, Sum):
            op = (_SUM, tuple(map(visit, node.terms)), None)
        elif isinstance(node, Prod):
            # make_prod leaves one scalar at most, in front; any other is a factor.
            factors, coeff = node.factors, _RF_ONE
            if isinstance(factors[0], Scalar):
                factors, coeff = factors[1:], factors[0].value
            op = (_PROD, tuple(map(visit, factors)), _scalar_data(coeff))
        elif isinstance(node, Pow):
            if node.exp < 0:
                raise ValueError("negative matrix power")
            op = (_POW, (visit(node.base),), node.exp)
        else:
            raise TypeError(f"not an expression: {node!r}")
        slot = slot_of_node[id(node)] = slot_of_op.setdefault(op, len(ops))
        if slot == len(ops):
            ops.append(op)
        return slot

    return Program(ops, [visit(x) for x in roots])


def eval_batch(exprs, rep) -> Iterator[SparseMat]:
    """Evaluate each expression of exprs in rep, in order: the batch compiled
    once (:func:`compile_batch`) and run in rep (:meth:`Program.run`)."""
    return compile_batch(exprs).run(rep)


def eval_in_rep(x: Expr, rep) -> SparseMat:
    """Evaluate homomorphically in a representation, as a canonical SparseMat
    over Q(q).

    Sums map to matrix sums, products to matrix products, scalars to scalar
    multiples of the identity.  The work runs over the integers at q = 2^B
    with one denominator per node (see :func:`eval_batch`, the evaluator for
    many expressions in one representation).
    """
    return next(eval_batch([x], rep))


# -- parser -------------------------------------------------------------------------

_EXPR_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>[efKk])(?P<idx>\d+)|(?P<q>q)|(?P<int>\d+)|(?P<op>[\^*+\-/()]))"
)


def _tokenize_expr(text: str) -> list[tuple[str, object, int, str]]:
    """(kind, value, position, the token as typed) for each token of text."""
    tokens: list[tuple[str, object, int, str]] = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group("atom"):
            kind, value = "atom", (m.group("atom"), _int_literal(m.group("idx"), m.start("idx")))
        elif m.group("q"):
            kind, value = "q", "q"
        elif m.group("int"):
            kind, value = "int", _int_literal(m.group("int"), m.start("int"))
        else:
            kind, value = "op", m.group("op")
        tokens.append((kind, value, m.start(kind), m.group(0).lstrip()))
        pos = m.end()
    return tokens


def _int_literal(digits: str, pos: int = -1) -> int:
    """Decimal digits as an int; more digits than Python's int-from-text
    limit (sys.get_int_max_str_digits, 4300 by default) are a syntax error
    at pos."""
    try:
        return int(digits)
    except ValueError:
        what = f"an integer of {len(digits)} digits exceeds the limit of {sys.get_int_max_str_digits()}"
        raise ExprSyntaxError(what, pos) from None


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
            raise ExprSyntaxError(f"expected {op!r}, got {t[3]!r}", t[2])

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
            if letter in ("e", "f") and exp is not None and exp < 0:
                raise ExprSyntaxError(f"negative power on {letter}{idx}", t[2])
            top, name = (self.params.size, "I") if letter == "K" else (self.params.size - 1, "I'")
            if not 1 <= idx <= top:
                raise IndexOutOfRange(f"{letter}{idx}: index outside {name} = 1..{top}")
            if letter != "k":
                base = Gen(letter, idx)
            elif exp is not None and exp < 0:
                base, exp = cartan_inv(idx), -exp
            else:
                base = cartan(idx)
            return base if exp is None else make_pow(base, exp)
        if t[0] == "q":
            exp = self.parse_optional_exponent()
            return Scalar(RatFn.q(exp if exp is not None else 1))
        if t[0] == "int":
            exp = self.parse_optional_exponent()
            value = Scalar(RatFn.integer(t[1]))
            return value if exp is None else make_pow(value, exp)
        if t[0] == "op" and t[1] == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", t[2])
            inner = self.parse_expr()
            self.expect_op(")")
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                # Scalar division: (num)/(den) with both sides generator-free.
                self.next()
                self.expect_op("(")
                den = self.parse_expr()
                self.expect_op(")")
                if not (isinstance(inner, Scalar) and isinstance(den, Scalar)):
                    raise ExprSyntaxError("division is only defined between scalars", nxt[2])
                inner = Scalar(inner.value / den.value)
            self.depth -= 1
            exp = self.parse_optional_exponent()
            if exp is None:
                return inner
            if exp < 0 and not isinstance(inner, Scalar):
                raise ExprSyntaxError("negative power on a parenthesized expression", t[2])
            return make_pow(inner, exp)
        raise ExprSyntaxError(f"unexpected token {t[3]!r}", t[2])


def parse_expr(text: str, params: GLParams) -> Expr:
    """Parse expression text; each atom's index is checked against params."""
    return _parse(text, params)


def _parse(text: str, params: GLParams | None) -> Expr:
    """Parse a whole text; params None admits only generator-free (scalar) text."""
    parser = _ExprParser(_tokenize_expr(text), params)
    x = parser.parse_expr()
    t = parser.peek()
    if t is not None:
        raise ExprSyntaxError(f"trailing input {t[3]!r}", t[2])
    return x
