"""Independent HOMFLY evaluator for braid closures, by the Ocneanu trace.

This is the reference oracle for the Markov-trace engine and deliberately
shares nothing with it beyond the scalar field: no R-matrices, no
representations.

The polynomial P of an oriented link satisfies

    a P(L+) - a^-1 P(L-) = z P(L0),        P(unknot) = 1.

A braid word on r strands maps into the Hecke algebra H_r, with basis T_w for
w in S_r: the letter i goes to T_i and -i to T_i^-1 = T_i - z, so the skein
relation is T_i - T_i^-1 = z.  The Ocneanu trace is the linear map with
tr(1) = 1, tr(xy) = tr(yx) and tr(x T_(r-1)) = tau tr(x) for x in H_(r-1).
With delta = (a - a^-1)/z and tau = a/delta, a word b of writhe e closes to

    P = a^-e delta^(r-1) tr(b) = a^-e sum_j C_j a^j delta^(r-1-j),

where tr(b) = sum_j C_j tau^j with j < r.  The sum never divides by delta, so
a = +-1 (delta = 0) needs no special case.

The image of b is a dict {w: coefficient of T_w}, w a tuple of the values
0..r-1.  Right multiplication by T_i sends T_w to T_(w s_i), plus z T_w when
w(i) > w(i+1); each letter touches each of at most r! terms once, so a word of
L letters costs at most r! L term updates.  tr(T_w) is memoised by w: with p
the position of the largest value, w = x s_(r-1) ... s_p for x in S_(r-1), and
tr(T_w) = tau tr(T_x T_(r-2) ... T_p), expanded and traced in H_(r-1).
"""

from __future__ import annotations

from .errors import StrandMismatch
from .scalars import RatFn


class HomflyOracle:
    """Evaluates the HOMFLY polynomial of braid closures at fixed scalars a, z."""

    def __init__(self, a: RatFn, z: RatFn):
        self.a = a
        self.z = z
        self.delta = (a - a.inv()) / z
        self._traces: dict[tuple[int, ...], tuple[RatFn, ...]] = {(): (RatFn.one(),)}

    def evaluate(self, letters, strands: int) -> RatFn:
        word = tuple(letters)
        if strands < 1:
            raise StrandMismatch("a braid needs at least one strand")
        for letter in word:
            if letter == 0 or abs(letter) >= strands:
                raise StrandMismatch(f"letter {letter} invalid on {strands} strands")
        element = {tuple(range(strands)): RatFn.one()}
        for letter in word:
            element = self._times(element, letter)
        total = RatFn.zero()
        for j, c in enumerate(self._trace(element)):
            total = total + c * self.a**j * self.delta ** (strands - 1 - j)
        writhe = sum(1 if letter > 0 else -1 for letter in word)
        return self.a**-writhe * total

    def _times(self, element: dict, letter: int) -> dict:
        """element * T_i for letter i > 0, element * T_i^-1 for letter -i."""
        i = abs(letter)
        # T_w T_i = T_(w s_i) + z T_w when w(i) > w(i+1), and
        # T_w T_i^-1 = T_(w s_i) - z T_w when w(i) < w(i+1).
        zc = self.z if letter > 0 else -self.z
        product: dict[tuple[int, ...], RatFn] = {}
        for w, c in element.items():
            ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
            product[ws] = product.get(ws, RatFn.zero()) + c
            if (w[i - 1] > w[i]) == (letter > 0):
                product[w] = product.get(w, RatFn.zero()) + zc * c
        return product

    def _trace(self, element: dict) -> tuple[RatFn, ...]:
        """tr of sum_w c_w T_w, as its coefficients of tau^j."""
        powers: list[RatFn] = []
        for w, c in element.items():
            for j, t in enumerate(self._trace_basis(w)):
                if j == len(powers):
                    powers.append(RatFn.zero())
                powers[j] = powers[j] + c * t
        return tuple(powers)

    def _trace_basis(self, w: tuple[int, ...]) -> tuple[RatFn, ...]:
        """tr(T_w), as its coefficients of tau^j."""
        while w and w[-1] == len(w) - 1:  # tr on H_r restricts to tr on H_(r-1)
            w = w[:-1]
        cached = self._traces.get(w)
        if cached is None:
            p = w.index(len(w) - 1)
            element = {w[:p] + w[p + 1 :]: RatFn.one()}
            for i in range(len(w) - 2, p, -1):
                element = self._times(element, i)
            cached = self._traces[w] = (RatFn.zero(), *self._trace(element))
        return cached
