"""The Ocneanu-trace oracle and a skein-recursion reference, pinned against
hand-derived closed forms and against each other.

With the convention  a P(L+) - a^-1 P(L-) = z P(L0),  P(unknot) = 1:

    delta          = (a - a^-1)/z                      (2-component unlink)
    P(Hopf+)       = a^-1 z + a^-2 delta
    P(trefoil+)    = 2 a^-2 - a^-4 + a^-2 z^2
    P(figure-eight)= a^2 - 1 + a^-2 - z^2

Each derived here by resolving one crossing at a time and frozen.  Every pin
runs on both HomflyOracle and SkeinReference, which share no code; a
differential test then compares the two on random words.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenq.errors import StrandMismatch
from degenq.homfly_oracle import HomflyOracle
from degenq.scalars import RatFn


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
    components = 0
    for start in range(strands):
        if start in order:
            continue
        components += 1
        s = start
        while s not in order:
            order[s] = len(order)
            s = successor[s]
    return order, crossings, components


def _first_bad_crossing(word: tuple[int, ...], strands: int):
    """(word position, components) of the first non-descending crossing, or None."""
    order, crossings, components = _strand_data(word, strands)
    # Encounter order: by the traversal position of the earlier strand, then
    # top-to-bottom along the word.
    ranked = sorted(crossings, key=lambda c: (min(order[c[1]], order[c[2]]), c[0]))
    for t, over, under in ranked:
        if order[over] > order[under]:
            return t, components
    return None, components


class SkeinReference:
    """HOMFLY of braid closures by skein recursion, exponential in the crossings.

    Label the strands of a braid by their top positions and order them along
    the traversal of the closure (components by minimal label, each cycle from
    its minimal label).  A diagram in which the earlier strand passes over at
    every crossing is descending, hence an unlink, worth delta^(k-1) for k
    components.  Otherwise the first bad crossing (in traversal-encounter
    order) is switched and smoothed via the skein relation.  Switching never
    changes the underlying permutation, so the encounter order is stable and
    the first-bad index strictly increases: recursion terminates.  Memoized on
    (strands, word).
    """

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
            switched = self._eval(word[:bad] + (-letter,) + word[bad + 1 :], strands)
            smoothed = self._eval(word[:bad] + word[bad + 1 :], strands)
            if letter > 0:
                # a P(+) - a^-1 P(-) = z P(0)  =>  P(+) = a^-1 z P(0) + a^-2 P(-)
                result = self.a.inv() * self.z * smoothed + self.a.inv() ** 2 * switched
            else:
                # P(-) = a^2 P(+) - a z P(0)
                result = self.a**2 * switched - self.a * self.z * smoothed
        self._memo[key] = result
        return result


ORACLES = (HomflyOracle, SkeinReference)
Z = RatFn.q(1) - RatFn.q(-1)


def oracles(mn_diff=2):
    """(oracle, a, z) at a = q^mn_diff, z = q - q^-1, once for each oracle."""
    a = RatFn.q(mn_diff)
    return [(cls(a, Z), a, Z) for cls in ORACLES]


def test_unknots_and_unlinks():
    for orc, a, z in oracles():
        delta = (a - a.inv()) / z
        assert orc.evaluate([], 1) == RatFn.one()
        assert orc.evaluate([], 2) == delta
        assert orc.evaluate([], 4) == delta**3
        assert orc.evaluate([1], 2) == RatFn.one()  # single crossing closes to unknot
        assert orc.evaluate([-1], 2) == RatFn.one()


def test_markov_moves_do_not_change_value():
    for orc, a, z in oracles():
        base = orc.evaluate([1, 1, 1], 2)
        assert orc.evaluate([1, 1, 1, 2], 3) == base  # stabilization
        assert orc.evaluate([1, 1, 1, -2], 3) == base
        assert orc.evaluate([2, 1, 1, 1, 2, -2], 3) == base  # conjugate of the stabilized word
        # A split unknot multiplies by delta: b1^3 conjugated inside B_3 never uses b2.
        delta = (a - a.inv()) / z
        assert orc.evaluate([2, 1, 1, 1, -2], 3) == base * delta


def test_hopf_link_closed_form():
    for orc, a, z in oracles():
        delta = (a - a.inv()) / z
        expected = a.inv() * z + a.inv() ** 2 * delta
        assert orc.evaluate([1, 1], 2) == expected
    # At a = 1, delta = 0 and the Hopf link is z alone.
    for orc, _, z in oracles(0):
        assert orc.evaluate([1, 1], 2) == z


def test_trefoil_closed_form():
    for orc, a, z in oracles():
        expected = RatFn.integer(2) * a ** (-2) - a ** (-4) + a ** (-2) * z**2
        assert orc.evaluate([1, 1, 1], 2) == expected


def test_trefoil_value_at_q2_is_jones_point():
    # At a = q^2, z = q - q^-1 the trefoil specializes to q^-2 + q^-6 - q^-8.
    expected = RatFn.q(-2) + RatFn.q(-6) - RatFn.q(-8)
    for orc, _, _ in oracles(2):
        assert orc.evaluate([1, 1, 1], 2) == expected


def test_figure_eight_closed_form():
    for orc, a, z in oracles():
        expected = a**2 - RatFn.one() + a ** (-2) - z**2
        assert orc.evaluate([1, -2, 1, -2], 3) == expected


def test_figure_eight_amphichiral():
    # The figure-eight equals its mirror: swapping all crossing signs and
    # a -> a^-1 must fix the value; here just check the mirror word directly.
    for orc, _, _ in oracles():
        assert orc.evaluate([1, -2, 1, -2], 3) == orc.evaluate([-1, 2, -1, 2], 3)


def test_mirror_inverts_a():
    # Negating every letter mirrors the closure, and the skein relation then
    # reads P_mirror(a, z) = P(-a^-1, z) = P(a^-1, -z).
    for orc, a, z in oracles(2):
        minus_inv = type(orc)(-a.inv(), z)
        inv_minus = type(orc)(a.inv(), -z)
        for letters, strands in (([1, 1, 1], 2), ([1, 1], 2), ([1, 1, -2, 1, 2, 2], 3)):
            mirrored = orc.evaluate([-x for x in letters], strands)
            assert mirrored == minus_inv.evaluate(letters, strands)
            assert mirrored == inv_minus.evaluate(letters, strands)
        # The trefoil is chiral, so the identity is not P_mirror = P.
        assert orc.evaluate([-1, -1, -1], 2) != orc.evaluate([1, 1, 1], 2)


def test_skein_relation_holds_on_random_words():
    for orc, a, z in oracles():
        rng = random.Random(99)
        for _ in range(12):
            strands = rng.choice([2, 3])
            length = rng.randint(1, 5)
            word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(length)]
            pos = rng.randrange(length)
            plus = list(word)
            plus[pos] = abs(plus[pos])
            minus = list(word)
            minus[pos] = -abs(minus[pos])
            zero = word[:pos] + word[pos + 1 :]
            lhs = a * orc.evaluate(plus, strands) - a.inv() * orc.evaluate(minus, strands)
            assert lhs == z * orc.evaluate(zero, strands)


def test_connected_sum_multiplies():
    # Granny knot = trefoil # trefoil on 3 strands: b1^3 b2^3.
    for orc, _, _ in oracles():
        trefoil = orc.evaluate([1, 1, 1], 2)
        granny = orc.evaluate([1, 1, 1, 2, 2, 2], 3)
        assert granny == trefoil * trefoil


def test_bad_letters_rejected():
    orc = HomflyOracle(RatFn.q(2), Z)
    with pytest.raises(StrandMismatch):
        orc.evaluate([0], 2)
    with pytest.raises(StrandMismatch):
        orc.evaluate([2], 2)
    # As BraidWord does: no braid has fewer than one strand, even at a = 1
    # where delta^-1 would divide by zero.
    for a in (RatFn.q(2), RatFn.one()):
        with pytest.raises(StrandMismatch):
            HomflyOracle(a, Z).evaluate([], 0)


def test_module_level_helper():
    # at a = q (m - n = 1) every link closes to value 1: the trivial specialization
    for orc, _, _ in oracles(1):
        assert orc.evaluate([1, 1, 1], 2) == RatFn.one()
        assert orc.evaluate([1, 1], 2) == RatFn.one()
        assert orc.evaluate([1, -2, 1, -2], 3) == RatFn.one()


# a = q^k for k in -3..3 (a = 1 has delta = 0) and a = -q^-2, a sign twist.
_DIFFERENTIAL_A = [RatFn.q(k) for k in range(-3, 4)] + [-RatFn.q(-2)]


@st.composite
def words(draw):
    """(letters, strands): up to 8 letters on 1-4 strands."""
    strands = draw(st.integers(1, 4))
    if strands == 1:
        return [], 1
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return draw(st.lists(letter, max_size=8)), strands


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_DIFFERENTIAL_A), words())
@example(RatFn.one(), ([1, 1], 2))
@example(RatFn.one(), ([], 4))
@example(-RatFn.q(-2), ([1, -2, 3, -2, 1, 3, -1, 2], 4))
def test_trace_oracle_equals_skein_reference(a, case):
    letters, strands = case
    assert HomflyOracle(a, Z).evaluate(letters, strands) == SkeinReference(a, Z).evaluate(
        letters, strands
    )
