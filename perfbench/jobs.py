"""Seeded job lists for the three workloads, their recorded properties, and
the checks that decide whether a job's output is correct.

A run draws rounds of jobs.  Round ``r`` of workload ``w`` under seed ``s``
comes from ``random.Random(f"{w}:{s}:{r}")``, so the same seed always gives
the same jobs.  Each job is the argv of one ``degenq`` command.

Braid words for every ladder combination are drawn at a fixed size: a word
is kept only if the work :func:`braid_work` gives lies within ``WORK_BAND``
of the combination's target, and for (3, 2, 5) its peak as well.  Without
this, two random words of equal length on 5 strands differ up to tenfold in
cost and twofold in memory (cancellation decides how dense the braid image
gets), and a run of a few dozen words cannot average that out.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("invariant-ladder", "verify-grid", "simple-modules")

# (m, n, strands, jobs per round, target braid_work (work, peak), 0 for no
# target).  The targets are the medians over 61 words of uniform length 2..3
# letters per strand; ``python3 perfbench/jobs.py --calibrate`` recomputes
# them.  Only (3, 2, 5), whose braid image is the largest matrix of a run and
# so sets its peak memory, has a peak target.  Half of a round's 56 jobs take longer than the twelve
# jobs of 10 to 20 ms, and half take less, so p50 falls among alike jobs.
# Likewise the eight jobs of about half a second span quantiles 0.84 to 0.98
# around p90, not the step between two sizes.
LADDER = (
    (2, 1, 3, 10, (582, 0)),
    (1, 2, 3, 10, (637, 0)),
    (3, 1, 3, 6, (1812, 0)),
    (3, 2, 3, 5, (3595, 0)),
    (2, 1, 4, 3, (4555, 0)),
    (1, 2, 4, 3, (4755, 0)),
    (3, 1, 4, 3, (15897, 0)),
    (3, 2, 4, 3, (54300, 0)),
    (2, 1, 5, 2, (24150, 0)),
    (1, 2, 5, 2, (26116, 0)),
    (3, 1, 5, 3, (133455, 0)),
    (3, 2, 5, 1, (440423, 115425)),
    (2, 1, 6, 3, (145326, 0)),
    (1, 2, 6, 2, (153350, 0)),
)
WORK_BAND = 0.25

GRID = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2))
SUITES = ("relations", "hopf", "ybe", "hecke", "intertwiner", "invariant")

MAX_ELL = 16
FAMILIES = ("typical-poly", "typical-rational", "atypical-A", "atypical-B")
MODULE_TYPE = {
    "typical-poly": "Typical",
    "typical-rational": "Typical",
    "atypical-A": "AtypicalA",
    "atypical-B": "AtypicalB",
}


@dataclass(frozen=True)
class Job:
    """One command line plus what its check needs to know."""

    argv: tuple[str, ...]
    # invariant-ladder: (m, n, strands, letters); verify-grid: (m, n, suite);
    # simple-modules: (ell, sign1, family)
    spec: tuple


def round_jobs(workload: str, seed: int, r: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}:{r}")
    if workload == "invariant-ladder":
        jobs = [
            _invariant_job(m, n, s, _draw_word(rng, m, n, s, target))
            for m, n, s, count, target in LADDER
            for _ in range(count)
        ]
    elif workload == "verify-grid":
        jobs = [
            Job(("verify", "--m", str(m), "--n", str(n), "--suite", suite, "--json"), (m, n, suite))
            for m, n in GRID
            for suite in SUITES
        ]
    elif workload == "simple-modules":
        jobs = [_module_job(rng, ell, family) for ell, family in module_cells()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def to_json(jobs: list[Job]) -> str:
    return json.dumps([[job.argv, job.spec] for job in jobs])


def from_json(text: str) -> list[Job]:
    def tuples(x):
        return tuple(map(tuples, x)) if isinstance(x, list) else x

    return [Job(tuples(argv), tuples(spec)) for argv, spec in json.loads(text)]


def digest(jobs: list[Job]) -> str:
    text = "\n".join(" ".join(j.argv) for j in jobs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def properties(workload: str, jobs: list[Job]) -> dict:
    """Input properties a later claim may depend on."""
    if workload == "invariant-ladder":
        seen: set[tuple] = set()
        repeats = 0
        for job in jobs:
            key = job.spec[:3]
            repeats += key in seen
            seen.add(key)
        return {"repeat_share": repeats / len(jobs)}
    if workload == "simple-modules":
        rational = sum(job.spec[2] == "typical-rational" for job in jobs)
        return {"nonpoly_lambda2_share": rational / len(jobs)}
    return {}


# -- invariant ladder ---------------------------------------------------------


def _invariant_job(m: int, n: int, strands: int, letters: tuple[int, ...]) -> Job:
    braid = " ".join(map(str, letters))
    argv = ("invariant", "--m", str(m), "--n", str(n), f"--braid={braid}", "--strands", str(strands), "--json")
    return Job(argv, (m, n, strands, letters))


def _random_word(rng: random.Random, strands: int) -> tuple[int, ...]:
    length = rng.randint(2 * strands, 3 * strands)
    return tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))


def _draw_word(rng: random.Random, m: int, n: int, strands: int, target) -> tuple[int, ...]:
    lo, hi = 1 - WORK_BAND, 1 + WORK_BAND
    limit = tuple(hi * t if t else math.inf for t in target)
    while True:
        word = _random_word(rng, strands)
        got = braid_work(word, strands, m, n, limit)
        if got is not None and all(lo * t <= g for g, t in zip(got, target)):
            return word


_P = (1 << 31) - 1  # entries are tracked mod _P at q = _Q to see cancellation
_Q = 1234567
_QI = pow(_Q, _P - 2, _P)
_Z = (_Q - _QI) % _P
_FAR = 1 << 40  # q-degree span bound of an absent entry


@functools.lru_cache(maxsize=None)
def _letters(strands: int, m: int, n: int) -> tuple:
    """The braid letters of V^(x)strands acting on the rows of its identity
    matrix, as (weights, identity, {letter: (dest, factor, shift, extra)})
    over one flat vector that holds every row of every block.

    A block holds the rearrangements of one multiset of indices, which the
    letters keep together.  Blocks with the same composition and parity
    pattern behave alike, so each pattern is simulated once and weighted by
    the number of multisets that share it.  A letter moves the entry of
    column y to column ``dest`` times ``factor`` and shifts its q-degree span
    by ``shift``; where ``extra`` is not 0 it also adds the entry times
    ``extra`` = +-(q - q^-1) to column y itself, which widens the span by one
    on each side.  Both moves stay inside the row, so they are positions of
    the flat vector.
    """
    import numpy as np  # here, so that a process that only runs jobs never loads it
    blocks = []
    for k in range(1, min(strands, m + n) + 1):
        for cuts in itertools.combinations(range(1, strands), k - 1):
            bounds = (0,) + cuts + (strands,)
            base = [v for t in range(k) for v in [t] * (bounds[t + 1] - bounds[t])]
            rows = sorted(set(itertools.permutations(base)))
            for even in range(max(0, k - n), min(k, m) + 1):
                blocks.append((math.comb(m, even) * math.comb(n, k - even), rows, even))
    weights = np.concatenate([np.full(len(rows) ** 2, w, dtype=np.int64) for w, rows, _ in blocks])
    identity = np.concatenate([np.eye(len(rows), dtype=np.int64).ravel() for _, rows, _ in blocks])
    moves = {}
    for letter in (g * sign for g in range(1, strands) for sign in (1, -1)):
        i, pos = abs(letter) - 1, letter > 0
        dest, factor, shift, extra = [], [], [], []
        offset = 0
        for _, rows, even in blocks:
            index = {x: t for t, x in enumerate(rows)}
            col = []  # (dest column, factor, shift, extra) per column
            for x in rows:
                a, b = x[i], x[i + 1]
                if a == b:
                    # q_a = q on even indices, -q^-1 on odd ones; inverse letters use q_a^-1
                    if pos:
                        col.append((index[x],) + ((_Q, 1) if a < even else (_P - _QI, -1)) + (0,))
                    else:
                        col.append((index[x],) + ((_QI, -1) if a < even else (_P - _Q, 1)) + (0,))
                    continue
                widen = _Z if pos and a > b else _P - _Z if not pos and a < b else 0
                col.append((index[x[:i] + (b, a) + x[i + 2 :]], 1, 0, widen))
            size = len(rows)
            for r in range(size):
                for t, f, sh, ex in col:
                    dest.append(offset + r * size + t)
                    factor.append(f)
                    shift.append(sh)
                    extra.append(ex)
            offset += size * size
        moves[letter] = tuple(np.array(v, dtype=np.int64) for v in (dest, factor, shift, extra))
    return weights, identity, moves


def braid_work(letters, strands: int, m: int, n: int, limit=None) -> tuple[int, int] | None:
    """(work, peak): the polynomial terms the product ``I * g_1 * ... * g_L``
    holds, summed over the word's prefixes, and the most held by one prefix
    or the full product.  A cost model of ``BraidEvaluator.matrix``: work for
    its time, peak for its memory.

    Every row of the braid image is pushed through the word at once, with
    entries kept mod a prime (exact cancellation) and their q-degree span
    (term count estimate).  Returns None once the work or the peak passes
    its bound in ``limit``, a (work, peak) pair.
    """
    import numpy as np

    weights, value, moves = _letters(strands, m, n)
    lo = np.where(value != 0, 0, _FAR)
    hi = -lo
    total = 0
    held = []
    for letter in letters:
        present = value != 0
        terms = _held(weights, present, lo, hi)
        total += terms
        held.append(terms)
        if limit is not None and (total > limit[0] or terms > limit[1]):
            return None
        dest, factor, shift, extra = moves[letter]
        nxt = np.zeros_like(value)
        nxt[dest] = value * factor % _P
        nxt = (nxt + value * extra % _P) % _P
        lo2 = np.full_like(lo, _FAR)
        hi2 = np.full_like(hi, -_FAR)
        lo2[dest] = np.where(present, lo + shift, _FAR)
        hi2[dest] = np.where(present, hi + shift, -_FAR)
        widened = present & (extra != 0)
        lo2 = np.where(widened, np.minimum(lo2, lo - 1), lo2)
        hi2 = np.where(widened, np.maximum(hi2, hi + 1), hi2)
        value, lo, hi = nxt, lo2, hi2
    held.append(_held(weights, value != 0, lo, hi))
    return total, max(held)


def _held(weights, present, lo, hi) -> int:
    import numpy as np

    return int(np.dot(weights, np.where(present, (hi - lo) // 2 + 1, 0)))


# -- simple modules -------------------------------------------------------------


def module_cells() -> list[tuple[int, str]]:
    """Two (ell, family) cells per ell: family t gets ell with ell - t = 0 or 3
    mod 4, so every family spans 0..MAX_ELL and each round costs the same."""
    return [
        (ell, FAMILIES[(ell + k) % 4])
        for ell in range(MAX_ELL + 1)
        for k in (0, 1)
    ]


def _module_job(rng: random.Random, ell: int, family: str) -> Job:
    sign1 = rng.choice((1, -1))
    sign = rng.choice(("", "-"))
    if family == "typical-poly":
        lambda2 = f"{sign}q^{rng.randint(1, 4)}"
    elif family == "typical-rational":
        a, c, b = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        # the scalar grammar takes no sign in front of "(", so negate inside
        lambda2 = f"({sign}q^{a}{'-' if sign else '+'}{c})/(q-{b})"
    elif family == "atypical-A":
        lambda2 = f"{sign}1"
    else:
        lambda2 = f"{sign}q^-{ell + 1}"
    argv = ("simple-module", "--ell", str(ell), "--sign1", f"{sign1:+d}", f"--lambda2={lambda2}", "--json")
    return Job(argv, (ell, sign1, family))


# -- checks ---------------------------------------------------------------------


class Checker:
    """Decides whether one job's exit code and stdout are correct.

    ``refs`` caches the skein-oracle invariant per (m, n, strands, letters);
    it is filled outside any timed region.
    """

    def __init__(self):
        self.refs: dict[tuple, object] = {}

    def reference(self, spec: tuple):
        ref = self.refs.get(spec)
        if ref is None:
            from degenq.invariants import BraidWord, oracle_invariant
            from degenq.scalars import GLParams

            m, n, strands, letters = spec
            ref = oracle_invariant(BraidWord(strands, letters), GLParams(m, n))
            self.refs[spec] = ref
        return ref

    def check(self, job: Job, rc, out: str) -> str | None:
        """None if the output is right, else the reason it is not."""
        verb = job.argv[0]
        try:
            if verb == "invariant":
                return self._invariant(job.spec, rc, out)
            if verb == "verify":
                return self._verify(job.spec, rc, out)
            return self._module(job.spec, rc, out)
        except Exception as exc:  # noqa: BLE001  (output the check cannot read is wrong output)
            return f"unreadable output: {exc!r}"

    def _invariant(self, spec, rc, out):
        from degenq.scalars import parse_scalar

        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)
        m, n, strands, _ = spec
        if (got["m"], got["n"], got["strands"]) != (m, n, strands):
            return "wrong (m, n, strands) echoed"
        if parse_scalar(got["invariant"]) != self.reference(spec):
            return f"invariant {got['invariant']} differs from the skein oracle"
        return None

    def _verify(self, spec, rc, out):
        m, n, suite = spec
        unsupported = suite == "invariant" and m == n
        if rc != (2 if unsupported else 0):
            return f"exit {rc}"
        got = json.loads(out)
        passed = 0
        for c in got["checks"]:
            key = (c["suite"], c["name"], c["status"])
            if c["status"] == "pass":
                passed += 1
            elif key == ("relations", "serre-quartic", "vacuous") and 1 in (m, n):
                pass
            elif key == ("markov", "all", "unsupported") and unsupported:
                pass
            else:
                return f"{c['suite']} / {c['name']}: {c['status']}"
        if not unsupported and passed == 0:
            return "no check passed"
        return None

    def _module(self, spec, rc, out):
        ell, sign1, family = spec
        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)
        if (got["ell"], got["sign1"]) != (ell, sign1):
            return "wrong (ell, sign1) echoed"
        if got["type"] != MODULE_TYPE[family]:
            return f"type {got['type']}, generated as {family}"
        if got["dim"] != got["expected_dim"]:
            return f"dim {got['dim']} != expected {got['expected_dim']}"
        if not got["relations_ok"]:
            return "relation catalog fails"
        if not all(i["ok"] for i in got["identities"]):
            return "structural identity fails"
        return None


def calibrate(samples: int = 61) -> None:
    """Print the median braid_work work and peak per ladder combination (the
    LADDER targets)."""
    for m, n, s, _, _ in LADDER:
        rng = random.Random(f"calibrate:{m}:{n}:{s}")
        got = [braid_work(_random_word(rng, s), s, m, n) for _ in range(samples)]
        for name, values in zip(("work", "peak"), map(sorted, zip(*got))):
            print(f"({m}, {n}, {s}) {name}: median {values[samples // 2]}, "
                  f"quartiles {values[samples // 4]} {values[3 * samples // 4]}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--calibrate"]:
        calibrate()
    elif len(sys.argv) == 5 and sys.argv[1] == "--round":
        print(to_json(round_jobs(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))))
    else:
        sys.exit("usage: python3 perfbench/jobs.py --calibrate | --round WORKLOAD SEED ROUND")
