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
images are evaluated there: :class:`BraidEvaluator` propagates the columns of
the image one letter at a time, the Markov trace reads only the diagonal of the
result, and the one rational step is the final division by dim_q(V)^r.
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
from .scalars import _LP_ONE, GLParams, LaurentPoly, RatFn, quantum_int


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


def _letter_columns(
    op: SparseMat, i: int, r: int, d: int, what: str
) -> list[list[tuple[int, LaurentPoly]]]:
    """The columns of the two-site operator op placed on legs (i, i+1) of
    V^(x)r: for each column c, the (source column s, coefficient) pairs of its
    nonzero entries, a coefficient 1 stored as _LP_ONE.

    Legs i and i+1 are adjacent, so their digits (a, b) form one base-d^2 digit
    a*d + b at place value d^(r-1-i) of the basis index."""
    pair_cols: list[list[tuple[int, LaurentPoly]]] = [[] for _ in range(d * d)]
    for (y, x), v in op.entries.items():
        coeff = _laurent(v, what)
        pair_cols[x].append((y, _LP_ONE if coeff.is_one() else coeff))
    place = d ** (r - 1 - i)
    cols = []
    for c in range(d**r):
        x = (c // place) % (d * d)
        base = c - x * place
        cols.append([(base + y * place, coeff) for y, coeff in pair_cols[x]])
    return cols


class BraidEvaluator:
    """The braid image on V^(x)strands for one (params, strands), propagated
    column by column over Z[q, q^-1].

    Every entry of Rcheck, Rcheckinv and nu(K_2rho) is a Laurent polynomial, and
    Rcheck maps v_a (x) v_b into span{v_a (x) v_b, v_b (x) v_a}, so each column
    of a leg-placed generator has at most two entries.  The image of a word is
    kept as columns {row: LaurentPoly}; appending a letter sets column c to the
    sum of coefficient * (column s) over the letter's pairs (s, coefficient) for
    c.  A coefficient-1 column reuses its source dict with no arithmetic.
    ``trace`` reads only the diagonal entries; ``matrix`` wraps the columns into
    a SparseMat.
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
        self._gen: dict[int, list[list[tuple[int, LaurentPoly]]]] = {}
        for i in range(1, strands):
            self._gen[i] = _letter_columns(bundle.Rcheck, i, strands, d, "Rcheck")
            self._gen[-i] = _letter_columns(bundle.Rcheckinv, i, strands, d, "Rcheckinv")
        # nu(K_2rho)^(x)strands is diagonal: entry c is the product of the
        # K_2rho monomials at the digits of c.
        kd = [_laurent(v, "K_2rho") for v in k2rho_matrix(natural_rep(params)).diagonal_values()]
        self._weights = [_LP_ONE]
        for _ in range(strands):
            self._weights = [w * k for w in self._weights for k in kd]

    def _columns(self, word: BraidWord) -> list[dict[int, LaurentPoly]]:
        if word.strands != self.strands:
            raise StrandMismatch(f"word has {word.strands} strands, evaluator {self.strands}")
        cols = [{c: _LP_ONE} for c in range(self.dim)]
        for letter in word.letters:
            new = []
            for (s, a), *rest in self._gen[letter]:
                src = cols[s]
                if a is _LP_ONE:
                    out = dict(src) if rest else src
                else:
                    out = {row: a * v for row, v in src.items()}
                for t, b in rest:
                    for row, v in cols[t].items():
                        if b is not _LP_ONE:
                            v = b * v
                        acc = out.get(row)
                        if acc is not None:
                            v = acc + v
                            if not v:
                                del out[row]
                                continue
                        out[row] = v
                new.append(out)
            cols = new
        return cols

    def matrix(self, word: BraidWord) -> SparseMat:
        """The braid image as a SparseMat over Q(q)."""
        entries = {
            (row, c): RatFn._raw(v, _LP_ONE)  # denominator 1 is canonical
            for c, col in enumerate(self._columns(word))
            for row, v in col.items()
        }
        return SparseMat(self.dim, self.dim, entries)

    def trace(self, word: BraidWord) -> RatFn:
        """phi_r(word) = tr(nu(K_2rho)^(x)r M) / dim_q(V)^r: the diagonal of M
        weighted by the K_2rho monomials, then one division."""
        params = self.params
        if params.m == params.n:
            raise EqualMNUnsupported("the Markov trace needs m != n (dim_q(V) nonzero)")
        total = LaurentPoly.zero()
        for c, col in enumerate(self._columns(word)):
            v = col.get(c)
            if v is not None:
                total = total + self._weights[c] * v
        dimq = _laurent(quantum_dimension(params), "dim_q(V)")
        return RatFn(total, dimq**self.strands)


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
