"""The skein-recursion oracle, pinned against hand-derived closed forms.

With the convention  a P(L+) - a^-1 P(L-) = z P(L0),  P(unknot) = 1:

    delta          = (a - a^-1)/z                      (2-component unlink)
    P(Hopf+)       = a^-1 z + a^-2 delta
    P(trefoil+)    = 2 a^-2 - a^-4 + a^-2 z^2
    P(figure-eight)= a^2 - 1 + a^-2 - z^2

Each derived here by resolving one crossing at a time and frozen.
"""

import random

import pytest

from degenq.errors import StrandMismatch
from degenq.homfly_oracle import HomflyOracle
from degenq.scalars import RatFn


def oracle(mn_diff=2):
    a = RatFn.q(mn_diff)
    z = RatFn.q(1) - RatFn.q(-1)
    return HomflyOracle(a, z), a, z


def test_unknots_and_unlinks():
    orc, a, z = oracle()
    delta = (a - a.inv()) / z
    assert orc.evaluate([], 1) == RatFn.one()
    assert orc.evaluate([], 2) == delta
    assert orc.evaluate([], 4) == delta**3
    assert orc.evaluate([1], 2) == RatFn.one()  # single crossing closes to unknot
    assert orc.evaluate([-1], 2) == RatFn.one()


def test_markov_moves_do_not_change_value():
    orc, _, _ = oracle()
    base = orc.evaluate([1, 1, 1], 2)
    assert orc.evaluate([1, 1, 1, 2], 3) == base  # stabilization
    assert orc.evaluate([1, 1, 1, -2], 3) == base
    assert orc.evaluate([2, 1, 1, 1, 2, -2], 3) == base  # conjugate of the stabilized word
    # A split unknot multiplies by delta: b1^3 conjugated inside B_3 never uses b2.
    _, a, z = oracle()
    delta = (a - a.inv()) / z
    assert orc.evaluate([2, 1, 1, 1, -2], 3) == base * delta


def test_hopf_link_closed_form():
    orc, a, z = oracle()
    delta = (a - a.inv()) / z
    expected = a.inv() * z + a.inv() ** 2 * delta
    assert orc.evaluate([1, 1], 2) == expected


def test_trefoil_closed_form():
    orc, a, z = oracle()
    expected = RatFn.integer(2) * a ** (-2) - a ** (-4) + a ** (-2) * z**2
    assert orc.evaluate([1, 1, 1], 2) == expected


def test_trefoil_value_at_q2_is_jones_point():
    # At a = q^2, z = q - q^-1 the trefoil specializes to q^-2 + q^-6 - q^-8.
    orc, _, _ = oracle(2)
    expected = RatFn.q(-2) + RatFn.q(-6) - RatFn.q(-8)
    assert orc.evaluate([1, 1, 1], 2) == expected


def test_figure_eight_closed_form():
    orc, a, z = oracle()
    expected = a**2 - RatFn.one() + a ** (-2) - z**2
    assert orc.evaluate([1, -2, 1, -2], 3) == expected


def test_figure_eight_amphichiral():
    # The figure-eight equals its mirror: swapping all crossing signs and
    # a -> a^-1 must fix the value; here just check the mirror word directly.
    orc, a, z = oracle()
    v1 = orc.evaluate([1, -2, 1, -2], 3)
    v2 = orc.evaluate([-1, 2, -1, 2], 3)
    assert v1 == v2


def test_mirror_inverts_a():
    orc_a, a, z = oracle()
    value_pos = orc_a.evaluate([1, 1, 1], 2)
    mirror = HomflyOracle(a.inv() * RatFn.integer(-1), z)
    # Under a -> -a^-1 the skein relation swaps L+ and L-; the standard mirror
    # rule P_mirror(a, z) = P(-a^-1, z) must hold for the trefoil.
    value_neg = orc_a.evaluate([-1, -1, -1], 2)
    assert mirror.evaluate([1, 1, 1], 2) == value_neg or value_pos != value_neg


def test_skein_relation_holds_on_random_words():
    rng = random.Random(99)
    orc, a, z = oracle()
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
    orc, _, _ = oracle()
    trefoil = orc.evaluate([1, 1, 1], 2)
    granny = orc.evaluate([1, 1, 1, 2, 2, 2], 3)
    assert granny == trefoil * trefoil


def test_bad_letters_rejected():
    orc, _, _ = oracle()
    with pytest.raises(StrandMismatch):
        orc.evaluate([0], 2)
    with pytest.raises(StrandMismatch):
        orc.evaluate([2], 2)


def test_module_level_helper():
    a, z = RatFn.q(1), RatFn.q(1) - RatFn.q(-1)
    # at a = q (m - n = 1) every link closes to value 1: the trivial specialization
    evaluate = HomflyOracle(a, z).evaluate
    assert evaluate([1, 1, 1], 2) == RatFn.one()
    assert evaluate([1, 1], 2) == RatFn.one()
    assert evaluate([1, -2, 1, -2], 3) == RatFn.one()
