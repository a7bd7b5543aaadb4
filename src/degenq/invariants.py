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
once, from balanced base-2^B digits.

The braid image keeps every K-weight space of V^(x)r invariant, so it is
propagated one weight block at a time.  A block is a q-permutation module of
the Hecke algebra, and rearranging its composition gives an isomorphic module
(Dipper and James, Proc. LMS 1986; Mitsuhashi, Algebr. Represent. Theory 2006,
for the super case).  A letter reads an index's parity only where legs i and
i+1 hold that index twice, which an index of multiplicity 1 never does.  So a
block's plain trace depends only on its class: the sorted multiplicities of
at least 2 of its even indices and of its odd ones, and the number of its
indices of multiplicity 1.  nu(K_2rho) is a scalar on each block, so the
Markov trace takes one block per class and weights its plain trace by the
sum of those scalars over the class: it
propagates the block through each half of the word, P then Q, and contracts
tr(PQ) = sum of P[j, i] Q[i, j]; columns fill in with every letter, so two
half-words cost less than one word.  The halves' offsets add up to q^(L*v), so
the contracted integer is the diagonal's.  The one rational step is the
division by dim_q(V)^r.

The representation is a group homomorphism, so the trace first cancels each
letter against an earlier inverse letter when every letter between them is
at least 2 strands away (``reduce_letters``): sigma_i sigma_i^-1 = 1, and
letters that far apart commute.  The word is not rotated and no Markov move
is made, since those are what the Markov suite checks; the writhe is read
from the word as given.  The substitution helpers live in
:mod:`degenq.scalars`: the offset v that makes a Laurent polynomial a
polynomial (``_lag``), the value at 2^B (``_encode``), the balanced-digit
decode (``_decode``) and the width rule (``_digit_bits``).
:func:`degenq.expr.eval_batch` uses the same four.
"""

from __future__ import annotations

import functools
import math
import random
from collections import namedtuple

from .errors import (
    DegenqError,
    EqualMNUnsupported,
    IndexOutOfRange,
    InvalidInput,
    ResourceLimit,
    StrandMismatch,
)
from .linalg import SparseMat
from .relations import k2rho_weights
from .reports import UNSUPPORTED, VACUOUS, Report
from .reps import DEFAULT_MAX_DIM, check_cap, setup
from .rmatrix import RMatrixBundle, shared_bundle
from .scalars import (
    _LP_ONE,
    GLParams,
    LaurentPoly,
    Q_MINUS_QINV,
    RatFn,
    _decode,
    _digit_bits,
    _encode,
    _lag,
    quantum_int,
)


class BraidWord(namedtuple("BraidWord", "strands letters")):
    """A braid group element: strand count and signed generator letters."""

    __slots__ = ()

    def __new__(cls, strands: int, letters: tuple[int, ...]):
        if strands < 1:
            raise StrandMismatch("a braid needs at least one strand")
        for letter in letters:
            if letter == 0 or abs(letter) >= strands:
                raise StrandMismatch(f"letter {letter} invalid on {strands} strands")
        return super().__new__(cls, strands, letters)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # validates a _replace copy, as GLParams does

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


class InvariantResult(namedtuple("InvariantResult", "params braid markov_trace invariant writhe")):
    """A closure's ``link_invariant``: the ``GLParams``, the ``BraidWord``, the
    Markov trace and the invariant (``RatFn``), and the writhe."""

    __slots__ = ()


def quantum_dimension(params: GLParams) -> RatFn:
    """[m-n]_q when m+n is even, q [m-n]_q when odd."""
    base = RatFn(quantum_int(params.m - params.n))
    return base if (params.m + params.n) % 2 == 0 else RatFn.q(1) * base


def _laurent(x: RatFn, what: str) -> LaurentPoly:
    """x as an element of Z[q, q^-1]; raises if x has a nontrivial denominator."""
    if not x.is_polynomial():
        raise DegenqError(f"{what} entry {x} is not a Laurent polynomial")
    return x.num


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every tuple of parts nonnegative integers that sum to total."""
    if parts == 1:
        return [(total,)]
    return [(k,) + rest for k in range(total + 1) for rest in _compositions(total - k, parts - 1)]


def _weight_class(counts: tuple[int, ...], m: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The key of a weight block's class: the multiplicities of at least 2 of
    the even indices 1..m in decreasing order, then those of the odd ones,
    then the number of indices of multiplicity 1."""
    even = tuple(sorted((k for k in counts[:m] if k > 1), reverse=True))
    return even, tuple(sorted((k for k in counts[m:] if k > 1), reverse=True)), counts.count(1)


def reduce_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The word with every letter x cancelled against an earlier -x when each
    letter left between them is at least 2 strands away from x.

    Such a letter commutes with x, so x moves next to -x, and sigma_i
    sigma_i^-1 = 1: the reduced word is the same braid.  Reading left to
    right, each letter x looks back past the far letters of the reduced
    prefix, stops at the first letter y within one strand of it, and cancels
    y if y = -x.  A y at which a letter stopped is never removed later: the
    -y that would remove it must first pass that letter, which is within one
    strand of y.  So no cancellable pair is left.  The word is not rotated
    and no Markov move is made."""
    out: list[int] = []
    for x in letters:
        i, j = abs(x), len(out) - 1
        while j >= 0 and abs(abs(out[j]) - i) > 1:
            j -= 1
        if j >= 0 and out[j] == -x:
            del out[j]
        else:
            out.append(x)
    return tuple(out)


class BraidEvaluator:
    """The braid image on V^(x)strands for one (params, strands), propagated
    one weight block at a time, column by column, over the integers at
    q = 2^B.

    Weight blocks.  Rcheck maps v_a (x) v_b into span{v_a (x) v_b, v_b (x) v_a},
    so the braid image keeps invariant every K-weight space of V^(x)r: the span
    of the basis vectors whose indices take each value a a fixed number of
    times, counts[a], a composition of r over the d indices.  Each block is
    propagated on its own, and at most one block's columns live at a time.

    Classes.  A weight block is a q-permutation module of the Hecke algebra,
    and rearranging the composition gives an isomorphic module (Dipper and
    James, Proc. LMS 1986; for the super case Mitsuhashi, Algebr. Represent.
    Theory 2006), as long as even and odd indices keep their parity.  The
    parity of an index of multiplicity 1 does not matter either.  For a != b,
    Rcheck sends v_a (x) v_b to v_b (x) v_a, plus (q - q^-1) v_a (x) v_b when
    a > b; it reads the parity of a only in q_a, on v_a (x) v_a, and so does
    Rcheckinv.  A leg-placed letter applied to a basis vector of a block
    meets v_a (x) v_a only if index a fills two legs, so the tables of a
    block never read the parity of an index of multiplicity 1: blocks whose
    compositions differ only there have equal tables.  Together with the
    rearrangement, the plain trace of a word on a block depends only on its
    class (``_weight_class``): the sorted multiplicities of at least 2 of the
    even indices and of the odd ones, and the number of indices of
    multiplicity 1.  The first member of each class is its representative.
    nu(K_2rho)^(x)r is the scalar prod_a w_a^counts[a] on a block,
    w_a = q_a^(ex_a) the signed monomial of index a (``k2rho_weights``), so

        tr(nu(K_2rho)^(x)r M) = sum over classes of (plain trace of M on the
        representative's block) * (sum of the K_2rho scalars of the members).

    ``trace`` takes one block per class; ``matrix`` propagates every block,
    one at a time.

    Cancelling.  ``trace`` runs the word as ``reduce_letters`` leaves it,
    and B comes from that length.  Two identities make it the same braid
    image: letters at least 2 strands apart act on disjoint pairs of legs,
    so they commute; and sigma_i sigma_i^-1 = 1 because the two letter
    tables are mutual inverses on V (x) V, which the set-up checks once,
    raising ``DegenqError`` if not.  The word is not rotated, cancelled
    cyclically or changed by a Markov move: conjugation and stabilization
    invariance are what ``verify_markov`` checks, so the trace must not
    assume them.  ``matrix`` propagates the word as given.

    Half-words.  ``trace`` propagates a block's identity through P, the first
    h = L // 2 letters, and through Q, the rest (M = PQ), sharing the block's
    ``_layout``, and contracts tr(M) = sum over j, and i in column j of P, of
    P[i, j] Q[j, i]: one dict lookup per nonzero of P.  Both halves start from
    unit columns, which fill in letter by letter, so they stay sparse longer.

    Columns.  Each column of a leg-placed generator has at most two entries.
    The table of a letter on a block holds, per column c, one flat record
    (s, a, t, b): the source column and coefficient of c's first entry, then
    of its second (t = -1 if none); appending the letter sets column c to
    a * (column s) + b * (column t).  A one-entry coefficient-1 column reuses
    its source dict with no arithmetic.  Columns are {row: int}, rows and
    columns numbered by their position in the block.  Each int is the value at
    q = x = 2^B of the true entry times q^(L*v), L the number of letters
    propagated and -v the lowest exponent of any letter coefficient (v = 1 for
    Rcheck and Rcheckinv, whose coefficients are 1, q^+-1, -q^+-1 and
    +-(q - q^-1)):

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
      coefficient that ``trace`` or ``matrix`` decodes.  The class-weighted
      sum is the same Laurent polynomial as the weighted diagonal sum, so the
      bound covers it too.  Intermediate ints need no bound: they are exact.
    * The halves.  P is carried times q^(h*v) and Q times q^((L-h)*v), so a
      product of a P entry and a Q entry is carried times q^(L*v), as an
      entry of M is: the contracted int is the diagonal sum's, and B, the
      decode and the bound are those of the whole word.

    ``trace`` reads only the plain trace of each class's block; ``matrix``
    decodes every entry into a SparseMat.

    Set-up.  The evaluator keeps one ``_layout`` per class and each letter
    table a trace builds, at most one flat quadruple per column of a class
    block per letter; tables hold coefficient indices, so words of every B
    share them.  ``matrix`` builds its own afresh.  The set-up store
    (:class:`degenq.reps.Setup`) keeps one evaluator per (params, strands).
    """

    def __init__(self, bundle: RMatrixBundle, strands: int):
        self.params = params = bundle.params
        self.strands = strands
        self.dim = params.size**strands
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
            if max(map(len, pair_cols)) > 2:
                raise DegenqError(f"{what} has a column with more than two entries")
            self._pairs[sign] = pair_cols
        self._coeffs = list(codes)
        norms = [p.norm1() for p in self._coeffs]
        self._growth = max(
            sum(norms[code] for _, code in col)
            for pair_cols in self._pairs.values()
            for col in pair_cols
        )
        self._lag = _lag(self._coeffs)
        # ``trace`` cancels sigma_i sigma_i^-1, which needs the two tables to be
        # mutual inverses on V (x) V.
        ident = SparseMat.identity(d * d)
        if bundle.Rcheck * bundle.Rcheckinv != ident or bundle.Rcheckinv * bundle.Rcheck != ident:
            raise DegenqError("Rcheck and Rcheckinv are not mutual inverses on V (x) V")
        # Per letter and two-site column x, (dy, a, dz, b): the index offsets to
        # the sources of the two entries and their coefficients (dz None if one).
        self._moves: dict[int, list[tuple]] = {}
        # Per class key, a representative (its first member) and the sum over
        # the class's weight blocks of the K_2rho scalar on the block.
        kd = k2rho_weights(params)
        terms: dict[tuple, tuple[tuple[int, ...], dict[int, int]]] = {}
        for counts in _compositions(strands, d):
            e = sum(f * k for (_, f), k in zip(kd, counts))
            _, weight = terms.setdefault(_weight_class(counts, params.m), (counts, {}))
            weight[e] = weight.get(e, 0) + math.prod(sign**k for (sign, _), k in zip(kd, counts))
        # Per class: its representative's ``_layout``, whose letter tables fill
        # in as traces ask for them, and the class's K_2rho weight.
        self._classes = [(self._layout(rep), LaurentPoly(weight)) for rep, weight in terms.values()]
        # Encoded times q^k, so that no weight has a negative exponent.
        self._k = _lag(weight for _, weight in self._classes)
        # dim_q(V)^r, the trace's divisor; 0 when m = n, where only ``matrix`` runs.
        self._dimq_r = _laurent(quantum_dimension(params), "dim_q(V)") ** strands

    def _scale(self, word: BraidWord, length: int) -> tuple[int, list[int]]:
        """(B, mults) for length letters on the word's strands: ints are values
        at q = 2^B, and mults[i] encodes coefficient i times q^v."""
        if word.strands != self.strands:
            raise StrandMismatch(f"word has {word.strands} strands, evaluator {self.strands}")
        bits = _digit_bits(self.dim * self._growth**length)
        return bits, [_encode(p, bits, self._lag) for p in self._coeffs]

    def _layout(self, counts: tuple[int, ...]) -> tuple[list[int], dict[int, int], dict]:
        """(members, positions, tables) of the block counts: the indices whose
        digits (leg 1 the most significant) take each value a exactly counts[a]
        times, ascending, the position of each, and an empty dict in which
        ``_block`` keeps each letter's ``_table`` for as long as the layout."""
        d = self.params.size
        level = [(0, counts)]
        for _ in range(self.strands):
            level = [
                (c * d + a, left[:a] + (left[a] - 1,) + left[a + 1 :])
                for c, left in level
                for a in range(d)
                if left[a]
            ]
        members = [c for c, _ in level]
        return members, {c: j for j, c in enumerate(members)}, {}

    def _table(self, letter: int, members: list[int], pos: dict[int, int]) -> list[int]:
        """The letter's leg-placed generator on one block, one flat list of
        quadruples (s, a, t, b), one per column: the source position and
        coefficient index of its first entry, then of its second (t = -1 if
        none).  It does not depend on B."""
        # Legs i and i+1 are adjacent, so their digits (a, b) form one
        # base-d^2 digit x = a*d + b at place value d^(r-1-i) of the index.
        d = self.params.size
        place = d ** (self.strands - 1 - abs(letter))
        moves = self._moves.get(letter)
        if moves is None:
            moves = self._moves[letter] = []
            for x, col in enumerate(self._pairs[1 if letter > 0 else -1]):
                (y, a), (z, b) = col + [(None, 0)] * (2 - len(col))
                moves.append(((y - x) * place, a, None if z is None else (z - x) * place, b))
        table = []
        for c in members:
            dy, a, dz, b = moves[c // place % (d * d)]
            table += (pos[c + dy], a, -1 if dz is None else pos[c + dz], b)
        return table

    def _block(
        self, letters: tuple[int, ...], layout: tuple, scale: tuple[int, list[int]]
    ) -> tuple[list[int], list[dict[int, int]]]:
        """(members, columns) of the image of letters on the ``_layout`` block:
        per member its column {row position: int}, times q^(len(letters)*v)."""
        bits, mults = scale
        members, pos, tables = layout
        lag = self._lag * bits
        one = 1 << (len(letters) * lag)
        cols = [{j: one} for j in range(len(members))]
        for letter in letters:
            table = tables.get(letter)
            if table is None:
                table = tables[letter] = self._table(letter, members, pos)
            new = []
            it = iter(table)
            for s, a, t, b in zip(it, it, it, it):
                src = cols[s]
                if a:
                    m = mults[a]
                    out = {row: v * m >> lag for row, v in src.items()}
                elif t < 0:
                    new.append(src)
                    continue
                else:
                    out = dict(src)
                if t >= 0:
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
        return members, cols

    def matrix(self, word: BraidWord) -> SparseMat:
        """The braid image as a SparseMat over Q(q), assembled block by block."""
        bits, _ = scale = self._scale(word, len(word.letters))
        offset = len(word.letters) * self._lag
        entries = {}
        for counts in _compositions(self.strands, self.params.size):
            members, cols = self._block(word.letters, self._layout(counts), scale)
            for c, col in zip(members, cols):
                for row, v in col.items():
                    # den 1 is canonical
                    entries[(members[row], c)] = RatFn._raw(_decode(v, bits, -offset), _LP_ONE)
        return SparseMat(self.dim, self.dim, entries)

    def trace(self, word: BraidWord) -> RatFn:
        """phi_r(word) = tr(nu(K_2rho)^(x)r M) / dim_q(V)^r: the word reduced by
        ``reduce_letters``, then per class the plain trace of PQ on the
        representative's block times the class's K_2rho weight (times q^k, so
        no exponent is negative), summed, decoded, divided."""
        if self.params.m == self.params.n:
            raise EqualMNUnsupported("the Markov trace needs m != n (dim_q(V) nonzero)")
        letters = reduce_letters(word.letters)
        bits, _ = scale = self._scale(word, len(letters))
        half = len(letters) // 2
        total = 0
        for layout, weight in self._classes:
            _, p = self._block(letters[:half], layout, scale)
            _, q = self._block(letters[half:], layout, scale)
            plain = sum(v * q[i].get(j, 0) for j, col in enumerate(p) for i, v in col.items())
            total += plain * _encode(weight, bits, self._k)
        value = _decode(total, bits, -len(letters) * self._lag - self._k)
        return RatFn(value, self._dimq_r)


def _evaluator(params: GLParams, strands: int, max_dim: int) -> BraidEvaluator:
    """The set-up store's evaluator for (params, strands), once V^(x)strands,
    then the bundle's V (x) V, pass the cap."""
    check_cap(params.size, strands, max_dim)
    bundle = shared_bundle(params, max_dim)
    return setup(params).get(("evaluator", strands), BraidEvaluator, bundle, strands)


def braid_rep(word: BraidWord, params: GLParams, max_dim: int = DEFAULT_MAX_DIM) -> SparseMat:
    """The image of a braid word on V^(x)strands."""
    return _evaluator(params, word.strands, max_dim).matrix(word)


def markov_trace(
    word: BraidWord, params: GLParams, max_dim: int = DEFAULT_MAX_DIM
) -> RatFn:
    """The normalized quantum trace of the braid image; needs m != n."""
    if params.m == params.n:
        raise EqualMNUnsupported("the Markov trace needs m != n (dim_q(V) nonzero)")
    return _evaluator(params, word.strands, max_dim).trace(word)


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


def homfly_variables(params: GLParams) -> tuple[RatFn, RatFn]:
    """The HOMFLY variables (a, z) = (q^(m-n), q - q^-1) that I(b) specializes to."""
    return RatFn.q(params.m - params.n), Q_MINUS_QINV


def oracle_invariant(word: BraidWord, params: GLParams) -> RatFn:
    """The independent Ocneanu-trace value at a = q^(m-n), z = q - q^-1."""
    if params.m == params.n:
        raise EqualMNUnsupported("the HOMFLY specialization needs m != n")
    from .homfly_oracle import HomflyOracle  # its only caller, so not at the top

    return HomflyOracle(*homfly_variables(params)).evaluate(list(word.letters), word.strands)


def random_word(rng: random.Random, strands: int, min_len: int = 2, max_len: int = 5) -> BraidWord:
    length = rng.randint(min_len, max_len)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)
    )
    return BraidWord(strands, letters)


# The seed of the Markov suite's random words, and the most pairs it draws:
# its work, and that of the skein sites drawn after it, is linear in the count.
MARKOV_SEED = 20210
MAX_SAMPLES = 10_000


def verify_markov(params: GLParams, samples: int, max_dim: int = DEFAULT_MAX_DIM) -> Report:
    """Conjugation invariance of the trace on random pairs of 3-strand words
    (b c against c b, redrawn until the two reduce to different words) and
    stabilization invariance of the normalized invariant on random
    2-strand words, plus a failing negative control."""
    if samples < 0:
        raise InvalidInput(f"the sample count must be nonnegative, got {samples}")
    if samples > MAX_SAMPLES:
        raise ResourceLimit(f"the sample count {samples} exceeds the limit {MAX_SAMPLES}")
    report = Report()
    if params.m == params.n:
        report.note("markov", "all", UNSUPPORTED, "m = n has vanishing quantum dimension")
        return report
    rng = random.Random(MARKOV_SEED)
    phi = functools.partial(markov_trace, params=params, max_dim=max_dim)
    link = functools.partial(link_invariant, params=params, max_dim=max_dim)

    conj_ok = 0
    for _ in range(samples):
        # A pair whose b c and c b reduce to one word would compare a trace
        # with itself, so it is redrawn.
        b, c = random_word(rng, 3), random_word(rng, 3)
        while reduce_letters((b * c).letters) == reduce_letters((c * b).letters):
            b, c = random_word(rng, 3), random_word(rng, 3)
        if phi(b * c) == phi(c * b):
            conj_ok += 1
    conj_name = f"conjugation invariance on {samples} random pairs in B_3"
    if samples > 0:
        report.add("markov", conj_name, conj_ok == samples, detail=f"{conj_ok}/{samples} exact")
    else:
        report.note("markov", conj_name, VACUOUS, "no pairs sampled")

    stab_words = max(1, samples // 2)
    stab_ok = 0
    for _ in range(stab_words):
        b = random_word(rng, 2)
        base = link(b).invariant
        stab_ok += sum(base == link(b.stabilized(sign)).invariant for sign in (1, -1))
    stab_name = "stabilization invariance of the normalized invariant"
    report.add("markov", stab_name, stab_ok == 2 * stab_words, detail=f"{stab_ok}/{2 * stab_words} exact")

    # Negative control: the raw trace is NOT stabilization invariant.
    control = BraidWord(2, (1, 1))
    raw, raw_stab = phi(control), phi(control.stabilized(1))
    name = "negative control: unnormalized trace moves under stabilization"
    _check(report, "markov", name, raw != raw_stab, ("phi_2(1 1)", raw), ("phi_3(1 1 2)", raw_stab))

    # The stated one-letter stabilization factors.
    q = RatFn.q(1)
    mn = params.m - params.n
    for sign, text in ((1, "q^(m-n)/[m-n]_q"), (-1, "q^(n-m)/[m-n]_q")):
        got, want = phi(BraidWord(2, (sign,))), q ** (sign * mn) / RatFn(quantum_int(mn))
        name = f"{'positive' if sign > 0 else 'negative'} stabilization factor {text}"
        _check(report, "markov", name, got == want, (f"phi_2({sign})", got), (text, want))
    empty, one = phi(BraidWord(2, ())), RatFn.one()
    name = "empty braid traces to 1"
    _check(report, "markov", name, empty == one, ("phi_2()", empty), ("expected", one))
    return report


def _check(report: Report, suite: str, name: str, passed: bool, *sides: tuple[str, RatFn]) -> None:
    """Add an invariant check whose detail, when it fails, is the value of
    each named side."""
    detail = "" if passed else "; ".join(f"{side} = {value}" for side, value in sides)
    report.add(suite, name, passed, detail)


def verify_skein(
    params: GLParams,
    sites: list[tuple[BraidWord, int]],
    max_dim: int = DEFAULT_MAX_DIM,
) -> Report:
    """q^(m-n) I(L+) - q^-(m-n) I(L-) = (q - q^-1) I(L0) at each (word,
    position) site, then a negative control that must fail: the trefoil site
    with the prefactors swapped."""
    report = Report()
    if params.m == params.n:
        report.note("skein", "all", UNSUPPORTED, "m = n has vanishing quantum dimension")
        return report
    a, z = homfly_variables(params)

    def link(strands: int, letters) -> RatFn:
        return link_invariant(BraidWord(strands, tuple(letters)), params, max_dim).invariant

    for word, pos in sites:
        letters, text = list(word.letters), " ".join(map(str, word.letters))
        if not 0 <= pos < len(letters):
            raise IndexOutOfRange(f"position {pos} outside the word {text}")
        before, after = letters[:pos], letters[pos + 1 :]
        i_plus = link(word.strands, before + [abs(letters[pos])] + after)
        i_minus = link(word.strands, before + [-abs(letters[pos])] + after)
        lhs, rhs = a * i_plus - a.inv() * i_minus, z * link(word.strands, before + after)
        sides = ("q^(m-n) I(L+) - q^(n-m) I(L-)", lhs), ("(q - q^-1) I(L0)", rhs)
        _check(report, "skein", f"skein at position {pos} of {text}", lhs == rhs, *sides)
    # Swapping the prefactors must break the identity (trefoil and unknot
    # values never cancel at these specializations).
    lhs, rhs = a.inv() * link(2, (1, 1, 1)) - a * link(2, (-1, 1, 1)), z * link(2, (1, 1))
    sides = ("q^(n-m) I(1 1 1) - q^(m-n) I(-1 1 1)", lhs), ("(q - q^-1) I(1 1)", rhs)
    _check(report, "skein", "negative control: swapped prefactors fail", lhs != rhs, *sides)
    return report
