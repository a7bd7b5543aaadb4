"""Replay every round-0 benchmark job, and a fixed list of parser jobs, and
print one digest of what each set printed.

    python3 tools/replay.py

Runs each round-0 job of ``perfbench/jobs.py`` (the three workloads at seeds
1 and 7), once as drawn and once without ``--json``, as ``degenq.cli.main``
calls in this process, and prints the number of argvs and one sha256 over
every (argv, exit code, stdout, stderr).  It then does the same for
``PARSER_ARGVS``, each run with and without ``--json``: expression and scalar
text, which no benchmark job exercises, simple modules with their action
matrices, invariants of words of very different lengths on one evaluator,
words with inverse letters to cancel, R-matrix requests refused by the
dimension cap, relation and Hopf jobs over lists of spaces of other lengths,
integers past Python's int-text limit, R-matrix suites off the verify grid,
and syntax errors that quote the input.  Two checkouts that print the same digests answered every job
byte for byte alike: run it in both to check that a change keeps the
program's output.  Before the two digest lines it prints
one line per argv, its exit code, the first 16 hex digits of a sha256 over its
stdout and stderr, and the argv, so that two checkouts' outputs can be diffed
job by job.  It imports ``degenq`` from ``src/`` and the job lists from
``perfbench/`` of the checkout it sits in, and writes nothing there.  Drawing
the ladder's words needs numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)

# Expression and scalar text: folded scalar sums, rational and signed
# coefficients, quotients, nested powers, the dual and tensor modules, and
# inputs refused with exit 1 (bad syntax or index) and exit 3 (too large, or a
# module above the dimension cap).  Simple modules with their action matrices
# (atypical A and B at ell 5, a rational lambda2 at ell 3), which the jobs
# print only as dimensions and pass/fail.  Then invariants whose words, of
# very different lengths, share one memoised evaluator and its letter tables,
# and three whose inverse letters the trace cancels or must keep: a word that
# reduces to the empty word, 1 2 -1 (nothing cancels across an adjacent
# letter), and a word that cancels across far letters.  Last, R-matrix
# requests whose space is far above the cap, refused with exit 3 before any
# set-up is built: ybe on V^(x)3 and hecke on V^(x)2 at (150, 150), and a
# 1-strand invariant, whose R-matrix lives on V (x) V, at (101, 100).  Then
# relation and Hopf jobs whose lists of spaces, one, seven and two long, share
# one evaluation plan.  Next, integers past Python's 4300-digit text limit: a
# literal and an atom index in --expr, refused with exit 1, and output
# coefficients of --expr and --lambda2 too long to print, refused with exit 3.
# Then the R-matrix suites at (4, 3), whose spaces (d = 7) are off the verify
# grid, and error lines that quote what was typed: a trailing atom (in --expr
# and --lambda2), a wrong token where a parenthesis belongs, a braid letter
# past the 4300-digit limit, and braid letters that are not integers.  Then
# the K inverses that a module derives from its K's, on a dual and on a cube
# with two odd indices.
PARSER_ARGVS = [
    ["eval", "--m", "2", "--n", "1", "--expr", "q + 1 + e1"],
    ["eval", "--m", "2", "--n", "1", "--expr", "e1 + q - q + 1"],
    ["eval", "--m", "2", "--n", "1", "--expr", "1 - 1 + e1"],
    ["eval", "--m", "2", "--n", "1", "--expr", "e1^0 + q - f2*e2"],
    ["eval", "--m", "2", "--n", "1", "--expr", "(3)/(4)*e1 - (2)/(3)*f1 + (5)/(6)"],
    ["eval", "--m", "2", "--n", "1", "--expr", "-2q^3*e1 + +-f2 - -K3^-2"],
    ["eval", "--m", "2", "--n", "1", "--expr", "2q^-1 - 3 + (q^2)/(q) + e2*f2"],
    ["eval", "--m", "2", "--n", "1", "--expr", "((q+1)^2 - q^2)^3*K1 - (((q-1)^2)^2)^2*e2"],
    ["eval", "--m", "2", "--n", "1", "--expr", "((q-1)/(q+2))^-2*e1*f1 + (q+1)/(q-1)"],
    ["eval", "--m", "1", "--n", "1", "--expr", "((q+1)/(q-1) + (q-1)/(q+1))*e1 - (1)/(q^2-1)"],
    ["eval", "--m", "3", "--n", "1", "--expr", "K1^-2*K2 + 2^3 - (2)^3 + (e1 + f3)^2"],
    ["eval", "--m", "2", "--n", "1", "--expr", "(e1 - e1)*f1 + (q - q)*e2"],
    ["eval", "--m", "2", "--n", "1", "--rep", "dual", "--expr", "(q - q^-1)*(e1*f1 - f1*e1) - (k1 - k1^-1)"],
    ["eval", "--m", "2", "--n", "2", "--rep", "dual", "--expr", "(1 + q)*(1 - q)*f3 + (q)/(q+1)*e1*e2"],
    ["eval", "--m", "1", "--n", "2", "--rep", "tensor2", "--expr", "(e1 + f1)^3 + q + 1 - q"],
    ["eval", "--m", "2", "--n", "1", "--rep", "tensor3", "--expr", "(e1 + f2)^2 + (q+1)/(q-1)*k1"],
    ["eval", "--m", "2", "--n", "1", "--expr", "(e1)/(q)"],
    ["eval", "--m", "2", "--n", "1", "--expr", "(q)/(q - q)*e1"],
    ["eval", "--m", "2", "--n", "2", "--expr", "e0 + 1"],
    ["eval", "--m", "2", "--n", "1", "--expr", "e1 +"],
    ["eval", "--m", "2", "--n", "1", "--expr", "q^99999999999*e1"],
    ["eval", "--m", "2", "--n", "1", "--expr", "(q+1)^4000*e1"],
    ["--max-dim", "2", "eval", "--m", "2", "--n", "1", "--expr", "e1"],
    ["--max-dim", "2", "eval", "--m", "2", "--n", "1", "--rep", "dual", "--expr", "e1"],
    ["simple-module", "--ell", "1", "--lambda2", "q + 2 - q + (1)/(q)"],
    ["simple-module", "--ell", "2", "--sign1", "-1", "--lambda2", "-(q+1)/(q-2) + 1"],
    ["simple-module", "--ell", "5", "--lambda2", "-1", "--matrices"],
    ["simple-module", "--ell", "5", "--sign1", "-1", "--lambda2", "q^-6", "--matrices"],
    ["simple-module", "--ell", "3", "--lambda2", "(q+2)/(q-3)", "--matrices"],
    ["decompose", "--m", "2", "--n", "1"],
    ["decompose", "--m", "1", "--n", "1"],
    ["invariant", "--m", "3", "--n", "1", "--strands", "3", "--braid", ""],
    ["invariant", "--m", "3", "--n", "1", "--strands", "3", "--braid", "1"],
    ["invariant", "--m", "3", "--n", "1", "--strands", "3", "--braid", " ".join(["1 -2"] * 15)],
    ["invariant", "--m", "2", "--n", "1", "--strands", "6", "--braid",
     "-4 5 -2 -2 -2 5 -3 -1 -1 -2 4 -5 -1 2 -3 -5 4 5 -2 -2 -1 2 4 -1 4 1 -4 1 5 5 4 2 -3 -2 -5 -4 3 5 -1 -2"],
    ["invariant", "--m", "3", "--n", "2", "--strands", "5", "--braid", "1 3 -1 -3 2 4 -4 -2"],
    ["invariant", "--m", "2", "--n", "1", "--strands", "3", "--braid", "1 2 -1"],
    ["invariant", "--m", "3", "--n", "1", "--strands", "5", "--braid", "1 3 4 -1 2 -4 -3 1"],
    ["verify", "--m", "150", "--n", "150", "--suite", "ybe"],
    ["verify", "--m", "150", "--n", "150", "--suite", "hecke"],
    ["invariant", "--m", "101", "--n", "100", "--braid", ""],
    ["verify", "--m", "2", "--n", "1", "--suite", "relations", "--tensor-depth", "1"],
    ["verify", "--m", "2", "--n", "1", "--suite", "relations", "--tensor-depth", "4"],
    ["verify", "--m", "4", "--n", "3", "--suite", "hopf"],
    ["eval", "--m", "1", "--n", "1", "--expr", "7" * 5000 + "*e1"],
    ["eval", "--m", "1", "--n", "1", "--expr", "e" + "1" * 5000],
    ["eval", "--m", "1", "--n", "1", "--expr", "10^5000"],
    ["simple-module", "--ell", "1", "--lambda2", "2^15000"],
    ["verify", "--m", "4", "--n", "3", "--suite", "ybe"],
    ["verify", "--m", "4", "--n", "3", "--suite", "hecke"],
    ["verify", "--m", "4", "--n", "3", "--suite", "intertwiner"],
    ["eval", "--m", "2", "--n", "1", "--expr", "e1 e2"],
    ["eval", "--m", "2", "--n", "1", "--expr", "(2 3)"],
    ["eval", "--m", "2", "--n", "1", "--expr", "(2)/e1"],
    ["simple-module", "--ell", "1", "--lambda2", "2 e1"],
    ["invariant", "--m", "2", "--n", "1", "--braid", "7" * 5000],
    ["invariant", "--m", "2", "--n", "1", "--braid", "1 a"],
    ["invariant", "--m", "2", "--n", "1", "--braid", "1 +x"],
    ["eval", "--m", "3", "--n", "2", "--rep", "dual", "--expr", "K4^-1*K5^-2 + k3^-1"],
    ["eval", "--m", "1", "--n", "2", "--rep", "tensor3", "--expr", "K1^-1*K3 - K2^-1"],
]


def argvs() -> list[list[str]]:
    import jobs

    out = []
    for workload in jobs.WORKLOADS:
        for seed in SEEDS:
            for job in jobs.round_jobs(workload, seed, 0):
                out.append(list(job.argv))
                out.append([a for a in job.argv if a != "--json"])
    return out


def run(argv: list[str]) -> tuple[int | None, str, str]:
    from degenq import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001  (a raising job is part of the record)
        rc = None
        err.write(repr(exc))
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    os.environ.pop("DEGENQ_MAX_DIM", None)  # every job runs at the default cap
    parser_todo = [argv + extra for argv in PARSER_ARGVS for extra in (["--json"], [])]
    summary = []
    for label, todo in (("argvs", argvs()), ("parser argvs", parser_todo)):
        digest = hashlib.sha256()
        for argv in todo:
            rc, out, err = run(argv)
            digest.update(json.dumps([argv, rc, out, err]).encode() + b"\n")
            job = hashlib.sha256(json.dumps([out, err]).encode()).hexdigest()[:16]
            print(f"{rc} {job} {json.dumps(argv)}")
        summary.append(f"{len(todo)} {label} {digest.hexdigest()}")
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
