"""Quantum traces, the braid representation, the Markov trace, and the link
invariant.

The braid group on r strands acts on V^(x)r by placing the braid form of the
R-matrix on adjacent legs; the Hecke relation makes the representation factor
through the type-A Hecke algebra.  The Markov trace divides the quantum trace
of a braid image by the quantum dimension per strand:

    phi_r(b) = qtrace^(x)r (nu_r(b)) / dim_q(V)^r,

and the normalized invariant

    I(b) = q^{-(m-n) e(b)} [m-n]_q^{r-1} phi_r(b)

(e = writhe) is invariant under both Markov moves, sends the unknot to 1, and
satisfies the skein relation

    q^{m-n} I(L+) - q^{-(m-n)} I(L-) = (q - q^-1) I(L0).

It therefore equals the HOMFLY polynomial of the braid closure at
a = q^{m-n}, z = q - q^-1 (positive letters are positive crossings).
Everything requires m != n so the quantum dimension is invertible.

Every entry of Rcheck, Rcheckinv and nu(K_2rho) lies in Z[q, q^-1], so braid
images are evaluated there, by Kronecker substitution: :class:`BraidEvaluator`
propagates the columns of the image one letter at a time as plain integers,
the values of the entries at q = 2^B.  Evaluation at 2^B is a ring
homomorphism, so the integers are exact.  Each entry is carried times an x-adic
offset q^(L*v) (L letters, v the largest power of q^-1 in a letter), which
makes every multiplication by a power of q^-1 an exact right shift.  B comes
from the bound g^L on the 1-norm of a column (g the largest column 1-norm of a
letter table; proof in :class:`BraidEvaluator`), so the result decodes exactly,
once, from balanced base-2^B digits.  The Markov trace reads only the diagonal
of the result, and the one rational step is the final division by dim_q(V)^r.
The substitution helpers live in :mod:`degenq.scalars`: the offset v that
makes a Laurent polynomial a polynomial (``_lag``), the value at 2^B
(``_encode``), the balanced-digit decode (``_decode``) and the width rule
(``_digit_bits``).  :func:`degenq.expr.eval_batch` uses the same four.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    DegenqError,
    DimensionMismatch,
    EqualMNUnsupported,
    InvalidInput,
    ResourceLimit,
    StrandMismatch,
)
from .expr import eval_in_rep
from .homfly_oracle import HomflyOracle
from .linalg import SparseMat
from .relations import k2rho_expr
from .reports import UNSUPPORTED, VACUOUS, Report
from .reps import DEFAULT_MAX_DIM, Representation, natural_rep
from .rmatrix import build_bundle
from .scalars import (
    _LP_ONE,
    GLParams,
    LaurentPoly,
    RatFn,
    _decode,
    _digit_bits,
    _encode,
    _lag,
    quantum_int,
)


@dataclass(frozen=True)
class BraidWord:
    """A braid group element: strand count and signed generator letters."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise StrandMismatch("a braid needs at least one strand")
        for letter in self.letters:
            if letter == 0 or abs(letter) >= self.strands:
                raise StrandMismatch(
                    f"letter {letter} invalid on {self.strands} strands"
                )

    @property
    def writhe(self) -> int:
        return sum(1 if letter > 0 else -1 for letter in self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if self.strands != other.strands:
            raise StrandMismatch("cannot concatenate braids with different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, tuple(-letter for letter in reversed(self.letters)))

    def stabilized(self, sign: int = 1) -> BraidWord:
        """The same link on one more strand: append the new top generator."""
        extra = (self.strands) * (1 if sign >= 0 else -1)
        return BraidWord(self.strands + 1, self.letters + (extra,))


@dataclass(frozen=True)
class InvariantResult:
    params: GLParams
    braid: BraidWord
    markov_trace: RatFn
    invariant: RatFn
    writhe: int


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


def quantum_dimension(params: GLParams) -> RatFn:
    """[m-n]_q when m+n is even, q [m-n]_q when odd."""
    base = RatFn(quantum_int(params.m - params.n))
    return base if (params.m + params.n) % 2 == 0 else RatFn.q(1) * base


def partial_qtrace(gamma: SparseMat, params: GLParams) -> SparseMat:
    """(id (x) qtrace) of an operator on V (x) V, landing in operators on V."""
    d = params.size
    if gamma.nrows != d * d or gamma.ncols != d * d:
        raise DimensionMismatch(f"operator is not {d * d}x{d * d}")
    kd = k2rho_matrix(natural_rep(params))
    out: dict[tuple[int, int], RatFn] = {}
    for (row, col), v in gamma.entries.items():
        i, s = divmod(row, d)
        j, t = divmod(col, d)
        if s != t:
            continue
        key = (i, j)
        add = kd[s, s] * v
        acc = out.get(key)
        acc = add if acc is None else acc + add
        if acc:
            out[key] = acc
        else:
            del out[key]
    return SparseMat(d, d, out)


def _laurent(x: RatFn, what: str) -> LaurentPoly:
    """x as an element of Z[q, q^-1]; raises if x has a nontrivial denominator."""
    if not x.is_polynomial():
        raise DegenqError(f"{what} entry {x} is not a Laurent polynomial")
    return x.num


def _signed_monomial(x: RatFn, what: str) -> tuple[int, int]:
    """x = sign * q^e as (sign, e); raises for anything else."""
    terms = _laurent(x, what).terms
    if len(terms) != 1 or next(iter(terms.values())) not in (1, -1):
        raise DegenqError(f"{what} entry {x} is not a signed monomial")
    ((e, sign),) = terms.items()
    return sign, e


class BraidEvaluator:
    """The braid image on V^(x)strands for one (params, strands), propagated
    column by column over the integers at q = 2^B.

    Every entry of Rcheck, Rcheckinv and nu(K_2rho) is a Laurent polynomial, and
    Rcheck maps v_a (x) v_b into span{v_a (x) v_b, v_b (x) v_a}, so each column
    of a leg-placed generator has at most two entries.  The table of a letter
    holds, per column c, the (source column s, coefficient) pairs of c;
    appending the letter sets column c to the sum of coefficient * (column s).
    A coefficient-1 column reuses its source dict with no arithmetic.

    The image of a word of L letters is kept as columns {row: int}.  Each int
    is the value at q = x = 2^B of the true entry times q^(L*v), where -v is
    the lowest exponent of any letter coefficient (v = 1 for Rcheck and
    Rcheckinv, whose coefficients are 1, q^+-1, -q^+-1 and +-(q - q^-1)):

    * Evaluation at x is a ring homomorphism Z[q] -> Z, so sums and products
      of the ints are exactly the values of the sums and products of the
      entries.
    * After k letters every entry has q-valuation >= -k*v, so its int is
      divisible by x^((L-k)*v).  Multiplying by a coefficient a(q) is therefore
      one product with the integer x^v a(x) followed by an exact right shift
      by v*B bits.
    * The result is decoded once, as balanced base-2^B digits.  Every integer
      has exactly one expansion with digits in [-2^(B-1), 2^(B-1)), and a
      polynomial whose coefficients lie in that range, evaluated at 2^B, is
      one; so the decode is exact when every coefficient is below 2^(B-1) in
      absolute value.
    * The bound.  Let g be the largest sum, over one column of a letter table,
      of the 1-norms (sums of absolute coefficients) of its coefficients; g = 3
      for Rcheck and Rcheckinv (1 and q - q^-1).  Write |col| for the sum of
      the 1-norms of a column's entries.  The 1-norm is subadditive and
      submultiplicative, so a new column, a sum of coefficient times old
      column, has |col| at most g times the largest old one.  The identity has
      |col| = 1, so every column after L letters has |col| <= g^L.  Each
      K_2rho weight is a signed monomial, so the weighted diagonal sum has
      1-norm at most dim * g^L, and B = bitlen(dim * g^L) + 1 bounds every
      coefficient that ``trace`` or ``matrix`` decodes.  Intermediate ints
      need no bound: they are exact.

    Letter tables are built on first use.  ``trace`` reads only the diagonal
    entries; ``matrix`` decodes every entry into a SparseMat.
    """

    def __init__(self, params: GLParams, strands: int, max_dim: int = DEFAULT_MAX_DIM):
        dim = params.size**strands
        if dim > max_dim:
            raise ResourceLimit(
                f"dimension {params.size}^{strands} = {dim} exceeds cap {max_dim}"
            )
        self.params = params
        self.strands = strands
        self.dim = dim
        bundle = build_bundle(params)
        d = params.size
        # A coefficient is stored as its index into self._coeffs; index 0 is 1.
        codes = {_LP_ONE: 0}
        # For sign +1 (Rcheck) and -1 (Rcheckinv): for each column x of the
        # two-site operator, the (row y, coefficient index) pairs of x.
        self._pairs: dict[int, list[list[tuple[int, int]]]] = {}
        for sign, op, what in ((1, bundle.Rcheck, "Rcheck"), (-1, bundle.Rcheckinv, "Rcheckinv")):
            pair_cols: list[list[tuple[int, int]]] = [[] for _ in range(d * d)]
            for (y, x), v in op.entries.items():
                pair_cols[x].append((y, codes.setdefault(_laurent(v, what), len(codes))))
            self._pairs[sign] = pair_cols
        self._coeffs = list(codes)
        norms = [p.norm1() for p in self._coeffs]
        self._growth = max(
            sum(norms[code] for _, code in col)
            for pair_cols in self._pairs.values()
            for col in pair_cols
        )
        self._lag = _lag(self._coeffs)
        self._tables: dict[int, list[list[tuple[int, int]]]] = {}
        # nu(K_2rho)^(x)strands is diagonal: entry c is the signed monomial
        # whose sign and exponent are the product and sum over the digits of c.
        # Exponents are stored raised by self._k, so that none is negative.
        kd = [
            _signed_monomial(v, "K_2rho")
            for v in k2rho_matrix(natural_rep(params)).diagonal_values()
        ]
        weights = [(1, 0)]
        for _ in range(strands):
            weights = [(s * t, e + f) for s, e in weights for t, f in kd]
        self._k = max(0, -min(e for _, e in weights))
        self._weights = [(s, e + self._k) for s, e in weights]

    def _table(self, letter: int) -> list[list[tuple[int, int]]]:
        """The (source column, coefficient index) pairs of each column of the
        letter's leg-placed generator."""
        table = self._tables.get(letter)
        if table is None:
            # Legs i and i+1 are adjacent, so their digits (a, b) form one
            # base-d^2 digit x = a*d + b at place value d^(r-1-i) of the index.
            d2 = self.params.size ** 2
            place = self.params.size ** (self.strands - 1 - abs(letter))
            pair_cols = self._pairs[1 if letter > 0 else -1]
            moves = [[(y * place, code) for y, code in col] for col in pair_cols]
            table = []
            for high in range(0, self.dim, d2 * place):
                for pairs in moves:
                    for base in range(high, high + place):
                        table.append([(base + y, code) for y, code in pairs])
            self._tables[letter] = table
        return table

    def _columns(self, word: BraidWord) -> tuple[list[dict[int, int]], int, int]:
        """(columns, B, offset): each int is the value at q = 2^B of the entry
        times q^offset."""
        if word.strands != self.strands:
            raise StrandMismatch(f"word has {word.strands} strands, evaluator {self.strands}")
        length = len(word.letters)
        bits = _digit_bits(self.dim * self._growth**length)
        offset = length * self._lag
        lag = self._lag * bits
        mults = [_encode(p, bits, self._lag) for p in self._coeffs]
        one = 1 << (offset * bits)
        cols = [{c: one} for c in range(self.dim)]
        for letter in word.letters:
            new = []
            for (s, a), *rest in self._table(letter):
                src = cols[s]
                if not a:
                    out = dict(src) if rest else src
                else:
                    m = mults[a]
                    out = {row: v * m >> lag for row, v in src.items()}
                for t, b in rest:
                    m = mults[b]
                    for row, v in cols[t].items():
                        if b:
                            v = v * m >> lag
                        acc = out.get(row)
                        if acc is not None:
                            v += acc
                            if not v:
                                del out[row]
                                continue
                        out[row] = v
                new.append(out)
            cols = new
        return cols, bits, offset

    def matrix(self, word: BraidWord) -> SparseMat:
        """The braid image as a SparseMat over Q(q)."""
        cols, bits, offset = self._columns(word)
        entries = {
            (row, c): RatFn._raw(_decode(v, bits, -offset), _LP_ONE)  # den 1 is canonical
            for c, col in enumerate(cols)
            for row, v in col.items()
        }
        return SparseMat(self.dim, self.dim, entries)

    def trace(self, word: BraidWord) -> RatFn:
        """phi_r(word) = tr(nu(K_2rho)^(x)r M) / dim_q(V)^r: the diagonal of M
        weighted by the K_2rho monomials (shifts, raised by q^k so that none
        is a right shift), decoded once, then one division."""
        params = self.params
        if params.m == params.n:
            raise EqualMNUnsupported("the Markov trace needs m != n (dim_q(V) nonzero)")
        cols, bits, offset = self._columns(word)
        total = 0
        for c, col in enumerate(cols):
            v = col.get(c)
            if v is not None:
                sign, e = self._weights[c]
                v <<= e * bits
                total += v if sign > 0 else -v
        dimq = _laurent(quantum_dimension(params), "dim_q(V)")
        return RatFn(_decode(total, bits, -offset - self._k), dimq**self.strands)


def braid_rep(word: BraidWord, params: GLParams, max_dim: int = DEFAULT_MAX_DIM) -> SparseMat:
    """The image of a braid word on V^(x)strands."""
    return BraidEvaluator(params, word.strands, max_dim).matrix(word)


def markov_trace(
    word: BraidWord, params: GLParams, max_dim: int = DEFAULT_MAX_DIM
) -> RatFn:
    """The normalized quantum trace of the braid image; needs m != n."""
    if params.m == params.n:
        raise EqualMNUnsupported("the Markov trace needs m != n (dim_q(V) nonzero)")
    return BraidEvaluator(params, word.strands, max_dim).trace(word)


def link_invariant(
    word: BraidWord, params: GLParams, max_dim: int = DEFAULT_MAX_DIM
) -> InvariantResult:
    """The writhe-corrected link invariant of the braid closure."""
    if params.m == params.n:
        raise EqualMNUnsupported("the link invariant needs m != n")
    phi = markov_trace(word, params, max_dim)
    return InvariantResult(params, word, phi, _normalize(phi, word, params), word.writhe)


def _normalize(phi: RatFn, word: BraidWord, params: GLParams) -> RatFn:
    """I(b) = q^{-(m-n) e(b)} [m-n]_q^{r-1} phi_r(b), from the Markov trace phi_r(b)."""
    mn = params.m - params.n
    return RatFn.q(-mn * word.writhe) * RatFn(quantum_int(mn)) ** (word.strands - 1) * phi


class _Invariants:
    """phi and I of words of any strand count, with one BraidEvaluator per
    strand count for the life of a verification suite."""

    def __init__(self, params: GLParams, max_dim: int):
        self.params = params
        self.max_dim = max_dim
        self._evaluators: dict[int, BraidEvaluator] = {}

    def phi(self, word: BraidWord) -> RatFn:
        ev = self._evaluators.get(word.strands)
        if ev is None:
            ev = BraidEvaluator(self.params, word.strands, self.max_dim)
            self._evaluators[word.strands] = ev
        return ev.trace(word)

    def invariant(self, word: BraidWord) -> RatFn:
        return _normalize(self.phi(word), word, self.params)


def oracle_invariant(word: BraidWord, params: GLParams) -> RatFn:
    """The independent skein-recursion value at a = q^(m-n), z = q - q^-1."""
    if params.m == params.n:
        raise EqualMNUnsupported("the HOMFLY specialization needs m != n")
    a = RatFn.q(params.m - params.n)
    z = RatFn.q(1) - RatFn.q(-1)
    return HomflyOracle(a, z).evaluate(list(word.letters), word.strands)


def random_word(rng: random.Random, strands: int, min_len: int = 2, max_len: int = 5) -> BraidWord:
    length = rng.randint(min_len, max_len)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)
    )
    return BraidWord(strands, letters)


def verify_markov(
    params: GLParams,
    samples: int = 20,
    max_strands: int = 3,
    seed: int = 20210,
    max_dim: int = DEFAULT_MAX_DIM,
) -> Report:
    """Conjugation invariance of the trace and stabilization invariance of the
    normalized invariant, on random words, plus a failing negative control."""
    if samples < 0:
        raise InvalidInput(f"the sample count must be nonnegative, got {samples}")
    report = Report()
    if params.m == params.n:
        report.note("markov", "all", UNSUPPORTED, "m = n has vanishing quantum dimension")
        return report
    rng = random.Random(seed)
    invariants = _Invariants(params, max_dim)
    phi = invariants.phi

    conj_ok = 0
    for _ in range(samples):
        b = random_word(rng, max_strands)
        c = random_word(rng, max_strands)
        if phi(b * c) == phi(c * b):
            conj_ok += 1
    conj_name = f"conjugation invariance on {samples} random pairs in B_{max_strands}"
    if samples > 0:
        report.add("markov", conj_name, conj_ok == samples, detail=f"{conj_ok}/{samples} exact")
    else:
        report.note("markov", conj_name, VACUOUS, "no pairs sampled")

    stab_ok = 0
    stab_total = 0
    for r in range(2, max_strands):
        for _ in range(max(1, samples // 2)):
            b = random_word(rng, r)
            base = invariants.invariant(b)
            for sign in (1, -1):
                stab_total += 1
                if base == invariants.invariant(b.stabilized(sign)):
                    stab_ok += 1
    report.add(
        "markov",
        "stabilization invariance of the normalized invariant",
        stab_ok == stab_total,
        detail=f"{stab_ok}/{stab_total} exact",
    )

    # Negative control: the raw trace is NOT stabilization invariant.
    control = BraidWord(2, (1, 1))
    raw_differs = phi(control) != phi(control.stabilized(1))
    report.add("markov", "negative control: unnormalized trace moves under stabilization", raw_differs)

    # The stated one-letter stabilization factors.
    q = RatFn.q(1)
    mn = params.m - params.n
    factor_plus = (q**mn) / RatFn(quantum_int(mn))
    empty2 = BraidWord(2, ())
    report.add(
        "markov",
        "positive stabilization factor q^(m-n)/[m-n]_q",
        phi(BraidWord(2, (1,))) == factor_plus,
    )
    report.add(
        "markov",
        "negative stabilization factor q^(n-m)/[m-n]_q",
        phi(BraidWord(2, (-1,))) == (q ** (-mn)) / RatFn(quantum_int(mn)),
    )
    report.add("markov", "empty braid traces to 1", phi(empty2) == RatFn.one())
    return report


def verify_skein(
    params: GLParams,
    word: BraidWord,
    pos: int,
    max_dim: int = DEFAULT_MAX_DIM,
) -> Report:
    """q^(m-n) I(L+) - q^-(m-n) I(L-) = (q - q^-1) I(L0) at one crossing site."""
    report = Report()
    if params.m == params.n:
        report.note("skein", "all", UNSUPPORTED, "m = n has vanishing quantum dimension")
        return report
    if not 0 <= pos < len(word.letters):
        raise IndexError(f"position {pos} outside the word")
    letters = list(word.letters)
    plus = list(letters)
    plus[pos] = abs(plus[pos])
    minus = list(letters)
    minus[pos] = -abs(minus[pos])
    zero = letters[:pos] + letters[pos + 1 :]
    mn = params.m - params.n
    a = RatFn.q(mn)
    z = RatFn.q(1) - RatFn.q(-1)
    invariant = _Invariants(params, max_dim).invariant
    i_plus = invariant(BraidWord(word.strands, tuple(plus)))
    i_minus = invariant(BraidWord(word.strands, tuple(minus)))
    i_zero = invariant(BraidWord(word.strands, tuple(zero)))
    lhs = a * i_plus - a.inv() * i_minus
    report.add("skein", f"skein at position {pos}", lhs == z * i_zero)
    # Deterministic negative control on the trefoil site: swapping the
    # prefactors must break the identity (trefoil and unknot values never
    # cancel at these specializations).
    t_plus = invariant(BraidWord(2, (1, 1, 1)))
    t_minus = invariant(BraidWord(2, (-1, 1, 1)))
    t_zero = invariant(BraidWord(2, (1, 1)))
    report.add(
        "skein",
        "negative control: swapped prefactors fail",
        a.inv() * t_plus - a * t_minus != z * t_zero,
    )
    return report
