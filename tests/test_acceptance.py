"""Acceptance suite: every exit criterion, one test each, exact equality in Q(q).

Each test prints one `criterion N: PASS/FAIL` line (visible with -s or on
failure).  Tolerances are exact zero / exact equality throughout; the two
runtime-target criteria are also wall-clock checked.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from degenq.expr import eval_in_rep
from degenq.homfly_oracle import HomflyOracle
from degenq.invariants import (
    BraidWord,
    link_invariant,
    markov_trace,
    quantum_dimension,
    random_word,
)
from degenq.linalg import SparseMat
from degenq.reps import (
    check_hopf_axioms,
    iterated_tensor,
    natural_rep,
    verify_relations,
)
from degenq.rmatrix import (
    antisymmetric_type_dim,
    build_bundle,
    symmetric_type_dim,
    verify_hecke_and_spectrum,
    verify_intertwiner,
    verify_tensor_iso,
    verify_ybe,
)
from degenq.scalars import GLParams, RatFn, quantum_int
from degenq.sl21 import (
    HighestWeightSL21,
    atypicality_type,
    check_structural_identities,
    simple_quotient,
    verma_module,
)
from test_invariants import partial_qtrace, quantum_trace

PARAM_GRID = [
    GLParams(1, 1),
    GLParams(2, 1),
    GLParams(1, 2),
    GLParams(2, 2),
    GLParams(3, 1),
    GLParams(3, 2),
]

rfq = RatFn.q


def _announce(number: int, label: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"criterion {number:2d}: {status} - {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_01_relation_suite_all_params():
    start = time.monotonic()
    failures = []
    for params in PARAM_GRID:
        rep = natural_rep(params)
        spaces = [rep]
        for r in (2, 3):
            for side in ("Delta", "DeltaPrime"):
                spaces.append(iterated_tensor(rep, r, side))
        for space in spaces:
            report = verify_relations(space)
            failures.extend(f"{params.m},{params.n}:{c.name}" for c in report.failures)
    elapsed = time.monotonic() - start
    _announce(
        1,
        "relation catalog vanishes on V, V^2, V^3 (both comultiplications), 6 parameter pairs",
        not failures and elapsed < 120.0,
        f"{elapsed:.1f}s" + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_02_hopf_axioms():
    failures = []
    for params in PARAM_GRID:
        report = check_hopf_axioms(natural_rep(params))
        failures.extend(f"{params.m},{params.n}:{c.name}" for c in report.failures)
    _announce(
        2,
        "counit and antipode respect every catalog relation; S^2 = Ad(K_2rho) on generators",
        not failures,
        f"failures: {failures[:3]}" if failures else "",
    )


def test_criterion_03_yang_baxter():
    failures = []
    for params in PARAM_GRID:
        report = verify_ybe(build_bundle(params))
        failures.extend(f"{params.m},{params.n}:{c.name}" for c in report.failures)
    _announce(
        3,
        "Yang-Baxter exact for R and reference T; spoiled-diagonal control fails",
        not failures,
        f"failures: {failures[:3]}" if failures else "",
    )


def test_criterion_04_hecke_and_spectrum():
    failures = []
    for params in PARAM_GRID:
        report = verify_hecke_and_spectrum(build_bundle(params))
        failures.extend(f"{params.m},{params.n}:{c.name}" for c in report.failures)
    dims_21 = (symmetric_type_dim(GLParams(2, 1)), antisymmetric_type_dim(GLParams(2, 1)))
    _announce(
        4,
        "(Rcheck - q)(Rcheck + q^-1) = 0 with eigenspace dims m(m+1)/2+mn+n(n-1)/2 "
        "and m(m-1)/2+mn+n(n+1)/2",
        not failures and dims_21 == (5, 4),
        f"(2,1) dims {dims_21}" + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_05_intertwiners():
    failures = []
    for params in PARAM_GRID:
        report = verify_intertwiner(build_bundle(params))
        failures.extend(f"{params.m},{params.n}:{c.name}" for c in report.failures)
        for r in (2, 3):
            report = verify_tensor_iso(params, r)
            failures.extend(f"{params.m},{params.n}:r{r}:{c.name}" for c in report.failures)
    _announce(
        5,
        "R Delta(x) = Delta'(x) R on every generator; tensor isomorphism exact for r = 2, 3",
        not failures,
        f"failures: {failures[:3]}" if failures else "",
    )


def test_criterion_06_simple_modules():
    bad = []
    for ell in (0, 1, 2, 3):
        for sign1 in (1, -1):
            lambda1 = rfq(ell, sign1)
            lambda2s = [rfq(3), RatFn.one(), RatFn.integer(-1)]
            lambda2s.append(rfq(-1) * lambda1.inv())
            lambda2s.append(-rfq(-1) * lambda1.inv())
            for lam2 in lambda2s:
                hw = HighestWeightSL21(ell, sign1, lam2)
                kind, expected = atypicality_type(hw)
                vm = verma_module(hw)
                simple = simple_quotient(vm)
                tag = f"ell={ell},sign={sign1},l2={lam2}"
                if vm.dim != 4 * (ell + 1):
                    bad.append(f"{tag}: verma dim {vm.dim}")
                if simple.dim != expected:
                    bad.append(f"{tag}: dim {simple.dim} != {expected} [{kind.value}]")
                if not verify_relations(simple.rep).all_passed:
                    bad.append(f"{tag}: relation failure")
                for name, ok in check_structural_identities(simple):
                    if not ok:
                        bad.append(f"{tag}: {name}")
    _announce(
        6,
        "simple quotients: dims 4(l+1) / 2l+1 / 2l+3 per type; relation suite and "
        "layer identities exact",
        not bad,
        f"failures: {bad[:3]}" if bad else "40 weights checked",
    )


def test_criterion_07_quantum_dimension():
    bad = []
    for params in PARAM_GRID:
        rep = natural_rep(params)
        computed = quantum_trace(SparseMat.identity(rep.dim), rep)
        mn = params.m - params.n
        expected = RatFn(quantum_int(mn))
        if (params.m + params.n) % 2 == 1:
            expected = rfq(1) * expected
        if computed != expected or computed != quantum_dimension(params):
            bad.append(f"{params.m},{params.n}")
    zero_11 = quantum_dimension(GLParams(1, 1)) == RatFn.zero()
    _announce(
        7,
        "dim_q(V) = [m-n]_q (even) or q[m-n]_q (odd) matches the trace; (1,1) gives 0",
        not bad and zero_11,
        f"failures: {bad}" if bad else "",
    )


def test_criterion_08_partial_trace_scalars():
    bad = []
    for params in (GLParams(2, 1), GLParams(3, 1), GLParams(3, 2)):
        bundle = build_bundle(params)
        d = params.size
        dimq = quantum_dimension(params)
        mn = params.m - params.n
        for mat, sign in ((bundle.Rcheck, +1), (bundle.Rcheckinv, -1)):
            out = partial_qtrace(mat, params)
            expected = SparseMat.identity(d).scale(
                dimq * rfq(sign * mn) / RatFn(quantum_int(mn))
            )
            if out != expected:
                bad.append(f"{params.m},{params.n} sign {sign}")
    _announce(
        8,
        "partial quantum trace of Rcheck^(+-1) is scalar with ratio q^(+-(m-n))/[m-n]_q",
        not bad,
        f"failures: {bad}" if bad else "",
    )


def test_criterion_09_markov_properties():
    start = time.monotonic()
    rng = random.Random(5150)
    bad = []
    for params in (GLParams(2, 1), GLParams(3, 1)):
        # conjugation invariance: 20 random pairs in B_3, exact
        for _ in range(20):
            b = random_word(rng, 3, 2, 5)
            c = random_word(rng, 3, 2, 5)
            if markov_trace(b * c, params) != markov_trace(c * b, params):
                bad.append(f"{params.m},{params.n}: conj {b.letters} {c.letters}")
        # stabilization invariance: 10 random words for each of B_2->B_3, B_3->B_4
        for strands in (2, 3):
            for _ in range(10):
                b = random_word(rng, strands, 2, 4)
                base = link_invariant(b, params).invariant
                for sign in (1, -1):
                    stabbed = link_invariant(b.stabilized(sign), params).invariant
                    if stabbed != base:
                        bad.append(f"{params.m},{params.n}: stab {b.letters} sign {sign}")
    elapsed = time.monotonic() - start
    _announce(
        9,
        "conjugation invariance (20 pairs, B_3) and stabilization invariance "
        "(10 words each, B_2->B_3 and B_3->B_4) exact for (2,1) and (3,1)",
        not bad and elapsed < 180.0,
        f"{elapsed:.1f}s" + (f"; failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_10_skein_relation():
    rng = random.Random(616)
    bad = []
    for params in (GLParams(2, 1), GLParams(3, 1), GLParams(1, 2)):
        mn = params.m - params.n
        a = rfq(mn)
        z = rfq(1) - rfq(-1)
        for _ in range(10):
            word = random_word(rng, 3, 2, 5)
            pos = rng.randrange(len(word.letters))
            plus = list(word.letters)
            plus[pos] = abs(plus[pos])
            minus = list(word.letters)
            minus[pos] = -abs(minus[pos])
            zero = word.letters[:pos] + word.letters[pos + 1 :]
            i_plus = link_invariant(BraidWord(3, tuple(plus)), params).invariant
            i_minus = link_invariant(BraidWord(3, tuple(minus)), params).invariant
            i_zero = link_invariant(BraidWord(3, zero), params).invariant
            if a * i_plus - a.inv() * i_minus != z * i_zero:
                bad.append(f"{params.m},{params.n}: {word.letters} pos {pos}")
    _announce(
        10,
        "q^(m-n) I(L+) - q^-(m-n) I(L-) = (q - q^-1) I(L0) on 10 random sites per (m, n)",
        not bad,
        f"failures: {bad[:3]}" if bad else "",
    )


def test_criterion_11_homfly_agreement():
    words = {
        "trefoil": BraidWord(2, (1, 1, 1)),
        "figure-eight": BraidWord(3, (1, -2, 1, -2)),
        "hopf": BraidWord(2, (1, 1)),
    }
    bad = []
    for params in (GLParams(2, 1), GLParams(3, 1)):
        mn = params.m - params.n
        oracle = HomflyOracle(rfq(mn), rfq(1) - rfq(-1))
        for name, word in words.items():
            engine = link_invariant(word, params).invariant
            reference = oracle.evaluate(list(word.letters), word.strands)
            if engine != reference:
                bad.append(f"{params.m},{params.n}: {name}")
    # the invariant depends only on m - n: (2,1) agrees with (3,2) on all three
    for name, word in words.items():
        if (
            link_invariant(word, GLParams(2, 1)).invariant
            != link_invariant(word, GLParams(3, 2)).invariant
        ):
            bad.append(f"(2,1) vs (3,2): {name}")
    # sanity: the (3,1) trefoil value is nontrivial, so the comparison has teeth
    nontrivial = link_invariant(words["trefoil"], GLParams(3, 1)).invariant != RatFn.one()
    _announce(
        11,
        "trefoil/figure-eight/Hopf match the independent Ocneanu-trace oracle at "
        "a = q^(m-n), z = q - q^-1; (2,1) = (3,2)",
        not bad and nontrivial,
        f"failures: {bad[:3]}" if bad else "",
    )


def test_criterion_12_cli_determinism():
    argv_inv = [
        sys.executable, "-m", "degenq.cli",
        "invariant", "--m", "3", "--n", "1", "--braid", "1 -2 1 -2", "--json",
    ]
    argv_ver = [
        sys.executable, "-m", "degenq.cli",
        "verify", "--m", "1", "--n", "2", "--suite", "hecke", "--json",
    ]
    ok = True
    for argv in (argv_inv, argv_ver):
        runs = [subprocess.run(argv, capture_output=True) for _ in range(2)]
        if not all(r.returncode == 0 for r in runs):
            ok = False
        if runs[0].stdout != runs[1].stdout or not runs[0].stdout:
            ok = False
    payload = json.loads(
        subprocess.run(argv_inv, capture_output=True, text=True).stdout
    )
    ok = ok and payload["writhe"] == 0 and payload["strands"] == 3
    _announce(12, "repeated CLI runs produce byte-identical JSON", ok)
