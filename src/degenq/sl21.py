"""Finite dimensional modules of the rank-(2,1) algebra: induced modules and
their simple quotients.

A highest weight is a pair (lambda_1, lambda_2) of nonzero scalars with
lambda_1 = +-q^ell for a nonnegative integer ell (the finiteness criterion in
this rank).  The induced module has the monomial basis

    F^{eF} f_2^{e2} f_1^k v,    eF, e2 in {0, 1},  0 <= k <= ell,

where F = f_1 f_2 - q f_2 f_1, so its dimension is 4(ell+1).  The action is
assembled from the closed commutation rules

    f_1 F = q^-1 F f_1,   f_2 F = -q^-1 F f_2,   F^2 = 0,
    [e_1, F] = f_2 k_1^-1,   [e_2, F] = -q f_1 k_2,
    f_1^k f_2 = [k]_q F f_1^{k-1} + q^k f_2 f_1^k,
    [e_1, f_1^k] = [k]_q f_1^{k-1} (k_1 q^{1-k} - k_1^-1 q^{k-1})/(q - q^-1).

The raising coefficients take one division in all.  On v, k_1 acts by
lambda_1 = sign1 q^ell, so the last quotient is sign1 [ell+1-k]_q, and
[e_1, f_1^k] v = sign1 [k]_q [ell+1-k]_q f_1^{k-1} v, a Laurent polynomial.
With [mu] = (mu - mu^-1)/(q - q^-1), e_2 f_2 f_1^k v = [lambda_2 q^k] f_1^k v.
The identity [mu] + mu q = q [mu q] gives each [lambda_2 q^{k+1}] from the one
before it, with no division, and gives e_2 on F f_2 f_1^k v the coefficient
q [lambda_2 q^{k+1}] on F f_1^k v instead of a sum of two fractions.
:func:`verma_module` fills e_1, e_2, f_1 and f_2 from one table with one row
per matrix-entry rule, read from the commutation rules above.

The module is realized as a full gl(2,1) representation: K_3 acts by 1 on the
highest vector and the K_b weights follow the generator bookkeeping, which
makes the whole relation-verification stack directly applicable.  Every basis
vector is a weight vector, so the K's are diagonal, and each K-weight space
has dimension at most 2 (F f_1^k v and f_2 f_1^{k+1} v share a weight).

The simple quotient is computed linear-algebraically, one weight space at a
time: find the weight vectors below the top weight that both raising
operators kill (a one-dimensional weight space needs no elimination: it is
singular when both of its e_a columns are empty), close them under e_a and
f_a, take the quotient, and repeat until no such vector is left.  Quotients
keep a weight basis, so every round can split by weight again.  The
trichotomy:

    typical      (q l1 l2 - q^-1 l1^-1 l2^-1)(l2 - l2^-1) != 0  -> dim 4(ell+1)
    atypical A   l2 = +-1                                       -> dim 2 ell + 1
    atypical B   l2 = +-q^-1 l1^-1                              -> dim 2(ell+1) + 1
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import InvalidInput, ResourceLimit
from .expr import MAX_ENTRY_BITS, _entry_bits, eval_in_rep
from .linalg import SparseMat
from .relations import odd_pair_element
from .reps import (
    Representation,
    highest_weight_vectors,
    quotient_rep,
    submodule_closure,
    verify_relations,
)
from .scalars import GLParams, LaurentPoly, P_SIGNED, Q_MINUS_QINV, RatFn, _digit_bits, _is_unit, quantum_int

P21 = GLParams(2, 1)


class ModuleType(Enum):
    TYPICAL = "Typical"
    ATYPICAL_A = "AtypicalA"
    ATYPICAL_B = "AtypicalB"


class HighestWeightSL21(namedtuple("HighestWeightSL21", "ell sign1 lambda2")):
    """lambda_1 = sign1 * q^ell with ell >= 0; lambda_2 an arbitrary nonzero scalar."""

    __slots__ = ()

    def __new__(cls, ell: int, sign1: int, lambda2: RatFn):
        if ell < 0:
            raise InvalidInput(f"ell must be a nonnegative integer, got {ell}")
        if sign1 not in (1, -1):
            raise InvalidInput(f"sign1 must be +1 or -1, got {sign1}")
        if not lambda2:
            raise InvalidInput("lambda2 must be nonzero")
        return super().__new__(cls, ell, sign1, lambda2)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # validates a _replace copy, as GLParams does

    @property
    def lambda1(self) -> RatFn:
        return RatFn.q(self.ell, self.sign1)


class ModuleData:
    """A concrete module: basis labels (eF, e2, k) and a gl(2,1) representation."""

    __slots__ = ("hw", "rep", "basis_labels", "highest_index")

    def __init__(
        self,
        hw: HighestWeightSL21,
        rep: Representation,
        basis_labels: list[tuple[int, int, int]],
        highest_index: int,
    ):
        self.hw = hw
        self.rep = rep
        self.basis_labels = basis_labels
        self.highest_index = highest_index

    @property
    def dim(self) -> int:
        return self.rep.dim


def atypicality_type(hw: HighestWeightSL21) -> tuple[ModuleType, int]:
    """Classify the highest weight and return the expected simple-module dimension."""
    l1, l2 = hw.lambda1, hw.lambda2
    one = RatFn.one()
    if l2 == one or l2 == -one:
        return ModuleType.ATYPICAL_A, 2 * hw.ell + 1
    crit = RatFn.q(1) * l1 * l2 - RatFn.q(-1) * l1.inv() * l2.inv()
    if not crit:
        return ModuleType.ATYPICAL_B, 2 * (hw.ell + 1) + 1
    return ModuleType.TYPICAL, 4 * (hw.ell + 1)


def verma_module(hw: HighestWeightSL21) -> ModuleData:
    """The induced module on the basis F^eF f_2^e2 f_1^k v, dimension 4(ell+1)."""
    ell = hw.ell
    l1, l2 = hw.lambda1, hw.lambda2
    one, q, q_inv = RatFn.one(), RatFn.q(1), RatFn.q(-1)
    labels = [(eF, e2, k) for eF in (0, 1) for e2 in (0, 1) for k in range(ell + 1)]
    pos = {lab: t for t, lab in enumerate(labels)}
    dim = len(labels)

    # [e_1, f_1^k] applied to the highest vector: sign1 [k]_q [ell+1-k]_q, a
    # polynomial, so canonical over 1
    c_raise = [
        RatFn._raw(quantum_int(k) * quantum_int(ell + 1 - k).scale(hw.sign1), LaurentPoly.one())
        for k in range(ell + 1)
    ]
    # [mu] = (k_2 - k_2^-1)/(q - q^-1) on f_1^k v, where k_2 acts there by
    # mu = l2 q^k, for k = 0..ell+1; after the first, each from the last by
    # [mu q] = q^-1 [mu] + mu, which needs no division
    d_weight = [(l2 - l2.inv()) / Q_MINUS_QINV]
    for k in range(ell + 1):
        d_weight.append(q_inv * d_weight[k] + l2 * RatFn.q(k))

    # One row per matrix-entry rule: the generator, the (eF, e2) part of the
    # source label, the target part, the step in k, and the coefficient at k
    rules = (
        (("f", 1), (0, 0), (0, 0), 1, lambda k: one),
        (("f", 1), (0, 1), (1, 0), 0, lambda k: one),
        (("f", 1), (0, 1), (0, 1), 1, lambda k: q),
        (("f", 1), (1, 0), (1, 0), 1, lambda k: q_inv),
        (("f", 1), (1, 1), (1, 1), 1, lambda k: one),
        (("f", 2), (0, 0), (0, 1), 0, lambda k: one),
        (("f", 2), (1, 0), (1, 1), 0, lambda k: -q_inv),
        *((("e", 1), part, part, -1, c_raise.__getitem__) for part in ((0, 0), (0, 1), (1, 0), (1, 1))),
        (("e", 1), (1, 0), (0, 1), 0, lambda k: l1.inv() * RatFn.q(2 * k)),
        (("e", 2), (0, 1), (0, 0), 0, d_weight.__getitem__),
        (("e", 2), (1, 0), (0, 0), 1, lambda k: -l2 * RatFn.q(k + 1)),
        (("e", 2), (1, 1), (1, 0), 0, lambda k: q * d_weight[k + 1]),
        (("e", 2), (1, 1), (0, 1), 1, lambda k: l2 * RatFn.q(k + 2)),
    )
    action = {gen: {} for gen in (("e", 1), ("e", 2), ("f", 1), ("f", 2))}
    for (eF, ee2, k), col in pos.items():
        part = (eF, ee2)
        for gen, source, target, step, coeff in rules:
            if source == part:
                row = pos.get((*target, k + step))
                if row is not None:
                    action[gen][(row, col)] = coeff(k)

    # Cartan weights: each f_1 scales K_1 by q^-1 and K_2 by q; each f_2 scales
    # K_2 by q^-1 and K_3 by p.  Top values (l1 l2, l2, 1) realize k_1, k_2.
    k1d, k2d, k3d = [], [], []
    for eF, ee2, k in labels:
        n1 = k + eF  # number of f_1 letters
        n2 = ee2 + eF  # number of f_2 letters
        k1d.append(l1 * l2 * RatFn.q(-n1))
        k2d.append(l2 * RatFn.q(n1 - n2))
        k3d.append(P_SIGNED**n2)

    gens = {
        **{gen: SparseMat(dim, dim, entries) for gen, entries in action.items()},
        ("K", 1): SparseMat.diagonal(k1d),
        ("K", 2): SparseMat.diagonal(k2d),
        ("K", 3): SparseMat.diagonal(k3d),
    }
    rep = Representation(
        P21, dim, gens, label=f"V(ell={hw.ell}, sign={hw.sign1:+d}, l2={hw.lambda2})"
    )
    return ModuleData(hw, rep, labels, pos[(0, 0, 0)])


def simple_quotient(vm: ModuleData) -> ModuleData:
    """The unique simple quotient: strip singular vectors until none remain."""
    rep = vm.rep
    labels = list(vm.basis_labels)
    top = vm.highest_index
    top_weight = tuple(rep.gen("K", b)[top, top] for b in rep.params.index_set)
    while True:
        singular = [v for w, v in highest_weight_vectors(rep) if w != top_weight]
        if not singular:
            break
        sub = submodule_closure(rep, singular)
        pivots = set(sub.pivot_columns())
        labels = [lab for j, lab in enumerate(labels) if j not in pivots]
        rep = quotient_rep(rep, sub, label=f"L({vm.hw.ell},{vm.hw.sign1:+d})")
    # The highest vector never lies in a proper submodule, so its coordinate
    # survives every quotient.
    return ModuleData(vm.hw, rep, labels, labels.index(vm.basis_labels[top]))


def check_structural_identities(mod: ModuleData) -> list[tuple[str, bool]]:
    """The closed-form identities tying F f_1^k v to f_2 f_1^{k+1} v in quotients."""
    hw = mod.hw
    kind, _ = atypicality_type(hw)
    if kind is ModuleType.TYPICAL:
        return []
    rep = mod.rep
    F = eval_in_rep(odd_pair_element(P21), rep)
    f1, f2 = rep.gen("f", 1), rep.gen("f", 2)
    f1_powers = [SparseMat.column(rep.dim, {mod.highest_index: RatFn.one()})]  # f_1^k v for k = 0..ell
    for _ in range(hw.ell):
        f1_powers.append(f1.apply(f1_powers[-1]))
    checks: list[tuple[str, bool]] = []
    if kind is ModuleType.ATYPICAL_A:
        for k in range(hw.ell):
            lhs = F.apply(f1_powers[k])
            coeff = -RatFn.q(k + 1) / RatFn(quantum_int(k + 1))
            rhs = f2.apply(f1_powers[k + 1]).scale(coeff)
            checks.append((f"F f1^{k} v = -(q^{k + 1}/[{k + 1}]q) f2 f1^{k + 1} v", lhs == rhs))
    if kind is ModuleType.ATYPICAL_B:
        for k in range(hw.ell):
            lhs = F.apply(f1_powers[k]).scale(RatFn(quantum_int(hw.ell - k)))
            rhs = f2.apply(f1_powers[k + 1]).scale(RatFn.q(k - hw.ell))
            checks.append((f"[{hw.ell - k}]q F f1^{k} v = q^{k - hw.ell} f2 f1^{k + 1} v", lhs == rhs))
    ff = F * f2
    checks.append(("F f2 f1^k v = 0 for all k", all(ff.apply(w).is_zero() for w in f1_powers)))
    return checks


def _monomial_lambda2_bits(e: int) -> int:
    """B(|e|)(2|e| - 1): a floor on evaluation's B (deg + 1) for e2 when
    lambda_2 = +-q^e, since e2 maps f2 v to +-[e]_q v, an entry of 1-norm |e|
    and q-span 2|e| - 2, and B(b) = bit_length(b) + 1 is the digit width."""
    return _entry_bits(_digit_bits(abs(e)), 2 * abs(e) - 2)


def module_report(hw: HighestWeightSL21):
    """Build the simple module and bundle type, dimensions, and relation check.

    lambda_2 = +-q^E is refused before any module is built when
    B(|E|)(2|E| - 1) > MAX_ENTRY_BITS, from |E| = 220,754 on.  Every lambda_2
    this refuses, the relation check would refuse too, since that product is
    at most evaluation's B (deg + 1) for e2."""
    l2 = hw.lambda2
    if l2.is_polynomial() and _is_unit(l2.num):
        (e,) = l2.num.terms
        if _monomial_lambda2_bits(e) > MAX_ENTRY_BITS:
            raise ResourceLimit(f"lambda2 = {l2} needs integers of more than {MAX_ENTRY_BITS} bits")
    kind, expected = atypicality_type(hw)
    vm = verma_module(hw)
    simple = simple_quotient(vm)
    relation_report = verify_relations(simple.rep)
    return {
        "type": kind,
        "expected_dim": expected,
        "verma_dim": vm.dim,
        "module": simple,
        "relations_ok": relation_report.all_passed,
        "identities": check_structural_identities(simple),
    }
