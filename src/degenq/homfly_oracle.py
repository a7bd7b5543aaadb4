"""Independent HOMFLY evaluator for braid closures, by skein recursion.

This is the reference oracle for the Markov-trace engine and deliberately
shares nothing with it beyond the scalar field: no R-matrices, no traces.

The polynomial P of an oriented link satisfies

    a P(L+) - a^-1 P(L-) = z P(L0),        P(unknot) = 1,

so a k-component unlink evaluates to delta^(k-1) with delta = (a - a^-1)/z.
A positive letter i in a braid word is the L+ crossing of the strands at
positions i, i+1.

Strategy: label the strands of a braid by their top positions and order them
along the traversal of the closure (components by minimal label, each cycle
from its minimal label).  A diagram in which the earlier strand passes over
at every crossing is descending, hence an unlink.  Otherwise the first bad
crossing (in traversal-encounter order) is switched and smoothed via the
skein relation.  Switching never changes the underlying permutation, so the
encounter order is stable and the first-bad index strictly increases:
recursion terminates.  Memoized on (strands, word).
"""

from __future__ import annotations

from .errors import StrandMismatch
from .scalars import RatFn


def _strand_data(word: tuple[int, ...], strands: int):
    """Traversal order of strands and the crossing list [(pos, over, under)]."""
    conf = list(range(strands))
    crossings = []
    for t, letter in enumerate(word):
        i = abs(letter) - 1
        u, v = conf[i], conf[i + 1]
        over, under = (u, v) if letter > 0 else (v, u)
        crossings.append((t, over, under))
        conf[i], conf[i + 1] = conf[i + 1], conf[i]
    # Closure: the strand ending at bottom position p continues as strand p.
    successor = {conf[p]: p for p in range(strands)}
    order: dict[int, int] = {}
    count = 0
    for start in range(strands):
        if start in order:
            continue
        s = start
        while s not in order:
            order[s] = count
            count += 1
            s = successor[s]
    seen: set[int] = set()
    components = 0
    for start in range(strands):
        if start in seen:
            continue
        components += 1
        s = start
        while s not in seen:
            seen.add(s)
            s = successor[s]
    return order, crossings, components


def _first_bad_crossing(word: tuple[int, ...], strands: int):
    """(word position, components) of the first non-descending crossing, or None."""
    order, crossings, components = _strand_data(word, strands)
    # Encounter order: by the traversal position of the earlier strand, then
    # top-to-bottom along the word.
    ranked = sorted(
        crossings, key=lambda c: (min(order[c[1]], order[c[2]]), c[0])
    )
    for t, over, under in ranked:
        if order[over] > order[under]:
            return t, components
    return None, components


class HomflyOracle:
    """Evaluates the HOMFLY polynomial of braid closures at fixed scalars a, z."""

    def __init__(self, a: RatFn, z: RatFn):
        self.a = a
        self.z = z
        self.delta = (a - a.inv()) / z
        self._memo: dict[tuple[int, tuple[int, ...]], RatFn] = {}

    def evaluate(self, letters, strands: int) -> RatFn:
        word = tuple(letters)
        for letter in word:
            if letter == 0 or abs(letter) >= strands:
                raise StrandMismatch(f"letter {letter} invalid on {strands} strands")
        return self._eval(word, strands)

    def _eval(self, word: tuple[int, ...], strands: int) -> RatFn:
        key = (strands, word)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        bad, components = _first_bad_crossing(word, strands)
        if bad is None:
            result = self.delta ** (components - 1)
        else:
            letter = word[bad]
            switched = word[:bad] + (-letter,) + word[bad + 1 :]
            smoothed = word[:bad] + word[bad + 1 :]
            if letter > 0:
                # a P(+) - a^-1 P(-) = z P(0)  =>  P(+) = a^-1 z P(0) + a^-2 P(-)
                result = self.a.inv() * self.z * self._eval(smoothed, strands) + (
                    self.a.inv() ** 2
                ) * self._eval(switched, strands)
            else:
                # P(-) = a^2 P(+) - a z P(0)
                result = (self.a**2) * self._eval(switched, strands) - (
                    self.a * self.z
                ) * self._eval(smoothed, strands)
        self._memo[key] = result
        return result
