"""Replay every round-0 benchmark job and print one digest of what it printed.

    python3 tools/replay.py

Runs each round-0 job of ``perfbench/jobs.py`` (the three workloads at seeds
1 and 7), once as drawn and once without ``--json``, as ``degenq.cli.main``
calls in this process, and prints the number of argvs and one sha256 over
every (argv, exit code, stdout, stderr).  Two checkouts that print the same
digest answered every job byte for byte alike: run it in both to check that
a change keeps the program's output.  It imports ``degenq`` from ``src/`` and
the job lists from ``perfbench/`` of the checkout it sits in, and writes
nothing there.  Drawing the ladder's words needs numpy.
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
    todo = argvs()
    digest = hashlib.sha256()
    for argv in todo:
        digest.update(json.dumps([argv, *run(argv)]).encode() + b"\n")
    print(f"{len(todo)} argvs {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
