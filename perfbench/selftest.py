"""Self-test of the benchmark on tiny job lists (about a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
plain and traced runs of each workload; that a deliberately wrong reference
value is counted as a failed job; that two traced runs with the same seed
give identical counts; and that the benchmark exits non-zero, printing no
result, in a directory without the degenq sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import jobs
import run

TINY = 3  # jobs per round


class WrongReference(jobs.Checker):
    """Every skein-oracle reference is off by one."""

    def reference(self, spec):
        from degenq.scalars import RatFn

        return super().reference(spec) + RatFn.one()


def quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            if trace:
                result = quiet(run.run_traced, workload, 7, per_round=TINY)
            else:
                result = quiet(run.run_timed, workload, 7, 0, min_jobs=TINY, per_round=TINY)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units[trace], f"{workload} trace {trace}: metrics and units match BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: tiny run correct")

    result = quiet(run.run_timed, "invariant-ladder", 7, 0, min_jobs=TINY, per_round=TINY, checker=WrongReference())
    expect(result["failed"] == result["attempted"] > 0 and not result["correct"],
           "a wrong oracle reference counts every ladder job as failed")

    first = quiet(run.run_traced, "verify-grid", 3, per_round=12)
    second = quiet(run.run_traced, "verify-grid", 3, per_round=12)
    counts = {k for k, unit in units[1].items() if unit == "count"}
    same = all(first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in counts)
    expect(same, "two traced runs with one seed give identical counts")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "verify-grid", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "without the sources it exits non-zero and prints no result")

    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
