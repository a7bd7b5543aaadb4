"""The degenq benchmark.

    python3 perfbench/run.py --workload invariant-ladder --seed 1 --seconds 30 --trace 0

Each job is one ``degenq.cli.main(argv)`` call made in this process with its
stdout captured; the next job starts when the previous one returns (a closed
loop with one client, no threads).  Rounds of jobs are drawn from the seed
(see jobs.py) and run until ``--seconds`` have passed and enough jobs ran for
ten to lie beyond p90.  Between jobs a short probe loop measures the machine's
speed (see speed.py); every time is reported scaled by the run's mean probe
time to the probe's reference speed, and the clock times are recorded beside
it.  Every output is then
checked against an exact reference, outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs round 0 four
times (plain, with spans, plain, under cProfile) and prints the per-layer
metrics.
The last stdout line is the JSON result; the lines before it, and a file
under ``.perfbench_out/``, record the seed, job digest, git sha, Python
version and nproc.  ``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_JOBS = 100  # so that ten jobs lie beyond p90
RSS_ROUNDS = 3  # every run reaches this many rounds (MIN_JOBS), so peak RSS covers the same jobs
SETUP_PROBES = 11
PROBE_EVERY_S = 0.1  # job time between two speed probes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="JOBS_JSON", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "degenq" / "__init__.py").is_file():
        print(f"error: no degenq package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import speed

        log = speed.SpeedLog()
        log.probe()
        start = time.perf_counter()
        import degenq.cli  # noqa: F401  (the import is what the probe times)

        json.loads(Path(args.setup_probe).read_text())
        took = time.perf_counter() - start
        for _ in range(3):
            log.probe()
        print(took * log.scale(), took)
        return 0
    import jobs

    names = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in jobs.WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(jobs.WORKLOADS)} or all")
    for name in names:
        if args.trace:
            result = run_traced(name, args.seed)
        else:
            result = run_timed(name, args.seed, args.seconds)
        print(json.dumps(result, sort_keys=True))
    return 0


# -- running jobs -------------------------------------------------------------------


class Record:
    """One executed job: exit code (None on an exception), output, latency."""

    __slots__ = ("job", "rc", "out", "err", "seconds")

    def __init__(self, job, rc, out, err, seconds):
        self.job, self.rc, self.out, self.err, self.seconds = job, rc, out, err, seconds


def run_job(job, tracer=None) -> Record:
    from degenq import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(list(job.argv))
            else:
                with tracer.span("cli.job"):
                    rc = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001  (a job that raises is a failed job)
        rc = None
        err.write(repr(exc))
    return Record(job, rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_round(round_jobs, tracer=None, log=None) -> list[Record]:
    """Run the jobs in turn; with a speed log, probe the speed before the
    first job and after every ``PROBE_EVERY_S`` of job time."""
    records = []
    since_probe = PROBE_EVERY_S
    for idx, job in enumerate(round_jobs):
        if log is not None and since_probe >= PROBE_EVERY_S:
            log.probe()
            since_probe = 0.0
        if tracer is not None:
            tracer.job = idx
        records.append(run_job(job, tracer))
        since_probe += records[-1].seconds
    return records


def check_all(records: list[Record], checker) -> tuple[int, list[str]]:
    """Failed-job count and the distinct failure reasons; each distinct
    (job, exit code, output) is checked once."""
    verdicts: dict[tuple, str | None] = {}
    failed = 0
    for rec in records:
        key = (rec.job, rec.rc, rec.out)
        if key not in verdicts:
            verdict = checker.check(rec.job, rec.rc, rec.out)
            if verdict is not None and rec.err:
                verdict += f" [{rec.err.strip().splitlines()[-1]}]"
            verdicts[key] = verdict
        if verdicts[key] is not None:
            failed += 1
    reasons = sorted({f"{' '.join(k[0].argv)}: {v}" for k, v in verdicts.items() if v is not None})
    return failed, reasons


# -- end-to-end run -----------------------------------------------------------------


def setup_seconds(name: str, round0) -> float:
    """Median time a fresh process takes to import degenq and load the argv
    lists of round 0, timed inside the process (interpreter start-up is not
    degenq's) and scaled by speed probes made in the same process just before
    and after, with the median clock time.  The jobs are generated once, by the caller: drawing ladder
    words at a fixed work size costs about a second, which would swamp the
    import time this metric is meant to watch."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"round0-{name}.json"
    path.write_text(json.dumps([job.argv for job in round0]))
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", str(path)]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        at_ref, took = map(float, probe.stdout.split())
        scaled.append(at_ref)
        raw.append(took)
    return statistics.median(scaled), statistics.median(raw)


def drawn_round(workload: str, seed: int, r: int) -> list:
    """Round ``r`` of the workload, drawn in a child process: drawing ladder
    words builds numpy arrays, which must stay out of the peak resident set
    of the process that runs the jobs."""
    import jobs

    cmd = [sys.executable, str(HERE / "jobs.py"), "--round", workload, str(seed), str(r)]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return jobs.from_json(proc.stdout)


def run_timed(workload, seed, seconds, min_jobs=MIN_JOBS, per_round=None, checker=None) -> dict:
    """End-to-end metrics; ``per_round`` and ``checker`` let the self-test
    shrink the rounds and plant a wrong reference."""
    import jobs
    import speed

    round0 = drawn_round(workload, seed, 0)[:per_round]
    setup_s, setup_raw = setup_seconds(f"{workload}-seed{seed}", round0)
    log = speed.SpeedLog()
    rounds: list[list[Record]] = []
    executed = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds or sum(map(len, rounds)) < min_jobs:
        round_jobs = drawn_round(workload, seed, len(rounds))[:per_round] if rounds else round0
        rounds.append(run_round(round_jobs, log=log))
        executed += round_jobs
        if len(rounds) <= RSS_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = [rec for recs in rounds for rec in recs]
    failed, reasons = check_all(records, checker or jobs.Checker())

    walls = [sum(rec.seconds for rec in recs) for recs in rounds]
    latencies = [rec.seconds for rec in records]
    p90 = statistics.quantiles(latencies, n=10)[8]
    unscaled = {
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "job_p90_ms": (p90 * 1000, "ms"),
    }
    factor = log.scale()
    metrics = {name: (value * factor, unit) for name, (value, unit) in unscaled.items()}
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    unscaled["setup_s"] = (setup_raw, "s")
    info = run_info(workload, seed, executed)
    info.update(
        rounds=len(rounds),
        round_walls_s=walls,
        jobs=len(records),
        beyond_p90=sum(x > p90 for x in latencies),
        fail_ratio=failed / len(records),
        failures=reasons,
        unscaled={name: value for name, (value, _) in unscaled.items()},
        probe_ms={"mean": statistics.fmean(log.seconds) * 1000, "min": min(log.seconds) * 1000,
                  "max": max(log.seconds) * 1000, "count": len(log.seconds)},
    )
    return report(workload, seed, 0, records, failed, metrics, info)


# -- traced run ----------------------------------------------------------------------


def run_traced(workload, seed, per_round=None, checker=None) -> dict:
    """Round 0 four times: plain, with spans, plain again, and under cProfile.
    The overhead ratio divides the traced round's wall time by the mean of the
    two plain ones, each at reference speed by its own probes.  Counts from the span pass must
    equal cProfile's call counts for the same jobs."""
    import jobs
    import spans as sp
    import speed

    round_jobs = jobs.round_jobs(workload, seed, 0)[:per_round]
    logs = [speed.SpeedLog() for _ in range(3)]
    plain = run_round(round_jobs, log=logs[0])
    tracer = sp.Tracer()
    tracer.install()
    try:
        traced = run_round(round_jobs, tracer, logs[1])
    finally:
        tracer.uninstall()
    plain_after = run_round(round_jobs, log=logs[2])
    wall_before, wall_traced, wall_after = (
        sum(rec.seconds for rec in recs) * log.scale() for recs, log in zip((plain, traced, plain_after), logs)
    )
    wall_plain = (wall_before + wall_after) / 2

    profiled, stats, den1 = run_profiled(round_jobs)
    records = plain + traced + plain_after + profiled

    tracer.job = -1
    tracer.install()
    try:
        with tracer.span("check"):
            failed, reasons = check_all(records, checker or jobs.Checker())
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, stats, den1)
    metrics["trace.overhead_ratio"] = (wall_traced / wall_plain, "ratio")
    mismatches = count_mismatches(tracer, stats)
    info = run_info(workload, seed, round_jobs)
    info.update(
        wall_plain_s=wall_plain,
        wall_traced_s=wall_traced,
        fail_ratio=failed / len(records),
        failures=reasons,
        count_mismatches=mismatches,
        counts={k: v for k, (v, unit) in sorted(metrics.items()) if unit == "count"},
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")
    return report(workload, seed, 1, records, failed, metrics, info, correct=not mismatches)


def run_profiled(round_jobs):
    """Run the jobs under cProfile; RatFn.__add__ is wrapped to count the
    calls whose operands both have denominator 1."""
    from degenq.scalars import RatFn

    original = vars(RatFn)["__add__"]
    one = {0: 1}
    den1 = [0, 0]

    def add(a, b):
        den1[0] += 1
        if type(b) is RatFn and a.den.terms == one and b.den.terms == one:
            den1[1] += 1
        return original(a, b)

    RatFn.__add__ = add
    profile = cProfile.Profile()
    try:
        profile.enable()
        records = run_round(round_jobs)
        profile.disable()
    finally:
        RatFn.__add__ = original
    return records, pstats.Stats(profile).stats, den1


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


SCALAR_FUNCS = {
    "lp_mul": ("LaurentPoly", "__mul__"),
    "rf_mul": ("RatFn", "__mul__"),
    "lp_add": ("LaurentPoly", "__add__"),
    "rf_add": ("RatFn", "__add__"),
}
GCD_FUNCS = ("_poly_gcd_dict", "_pseudo_rem", "_dict_content", "_dict_primitive")


def layer_metrics(tracer, stats, den1) -> dict:
    from degenq import scalars

    import spans as sp

    def prof(fn) -> tuple[int, float]:
        entry = stats.get(_code_key(fn))
        return (entry[1], entry[2]) if entry else (0, 0.0)

    m: dict[str, tuple] = {}
    for short, (cls, meth) in SCALAR_FUNCS.items():
        calls, self_s = prof(vars(getattr(scalars, cls))[meth])
        m[f"scalars.{short}.calls"] = (calls, "count")
        m[f"scalars.{short}.self_s"] = (self_s, "s")
    m["scalars.rf_add.den1_share"] = (den1[1] / den1[0] if den1[0] else 0.0, "ratio")
    gcd = [prof(getattr(scalars, name)) for name in GCD_FUNCS]
    m["scalars.gcd.calls"] = (gcd[0][0], "count")
    m["scalars.gcd.self_s"] = (sum(s for _, s in gcd), "s")
    m["scalars.canonical.calls"] = (prof(scalars._canonical_pair)[0], "count")
    m["scalars.self_s"] = (sum(v[2] for k, v in stats.items() if k[0] == scalars.__file__), "s")

    spans = tracer.spans
    calls, incl, self_s = sp.span_times(spans)
    counts = tracer.counts

    def seconds(*names):
        for name in names:
            m[name + ".s"] = (incl[name], "s")

    def ncalls(*names):
        for name in names:
            m[name + ".calls"] = (calls[name], "count")

    ncalls("linalg.matmul", "linalg.kron", "linalg.echelon", "expr.eval_in_rep", "relations.catalog")
    ncalls("rmatrix.build_bundle", "invariants.link_invariant", "homfly_oracle.evaluate")
    seconds("linalg.matmul", "linalg.kron", "linalg.echelon", "expr.eval_in_rep", "relations.catalog")
    seconds("reps.iterated_tensor", "reps.verify_relations", "reps.hopf")
    seconds("reps.highest_weight_vectors", "reps.submodule_closure", "reps.quotient_rep")
    seconds("rmatrix.build_bundle", "rmatrix.leg_operator", "rmatrix.ybe", "rmatrix.hecke", "rmatrix.intertwiner")
    seconds("invariants.evaluator_init", "invariants.braid_matrix", "invariants.markov", "invariants.skein")
    seconds("homfly_oracle.evaluate", "sl21.verma", "sl21.simple_quotient", "sl21.identities")
    for name in ("linalg.matmul.nnz_out", "linalg.matmul.dim_max", "linalg.echelon.rows_in",
                 "linalg.echelon.pivots", "relations.catalog.entries", "invariants.braid_letters"):
        m[name] = (counts[name], "count")
    m["linalg.apply.calls"] = (counts["linalg.apply.calls"], "count")
    adds = counts["linalg.subspace_add.calls"]
    m["linalg.subspace_add.calls"] = (adds, "count")
    m["linalg.subspace_add.accept_ratio"] = (counts["linalg.subspace_add.accepted"] / adds if adds else 0.0, "ratio")
    m["invariants.qtrace.s"] = (sp.time_outside(spans, "invariants.markov_trace", "invariants.braid_rep"), "s")
    m["sl21.quotient_rounds"] = (sp.count_under(spans, "reps.quotient_rep", "sl21.simple_quotient"), "count")
    m["cli.self_s"] = (self_s["cli.job"], "s")
    return m


def count_mismatches(tracer, stats) -> list[str]:
    """Spanned and counted functions whose call count in the span pass differs
    from cProfile's count for the same jobs (the traced counts must repeat)."""
    import spans as sp

    job_calls: dict[str, int] = {}
    for rec in tracer.spans:
        if rec[4] >= 0:
            job_calls[rec[0]] = job_calls.get(rec[0], 0) + 1
    for name, *_ in sp.COUNTED:
        job_calls[name] = tracer.counts[name + ".calls"]
    profiled: dict[str, int] = {}
    for name, module, attr in sp.SPANNED + sp.COUNTED:
        _, _, fn = sp.resolve(module, attr)
        entry = stats.get(_code_key(fn))
        profiled[name] = profiled.get(name, 0) + (entry[1] if entry else 0)
    return [
        f"{name}: {job_calls.get(name, 0)} spans, {calls} profiled calls"
        for name, calls in sorted(profiled.items())
        if job_calls.get(name, 0) != calls
    ]


# -- reporting -----------------------------------------------------------------------


def run_info(workload: str, seed: int, executed) -> dict:
    import jobs

    return {
        "workload": workload,
        "seed": seed,
        "job_digest": jobs.digest(executed),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "properties": jobs.properties(workload, executed),
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def report(workload, seed, trace, records, failed, metrics, info, correct=True) -> dict:
    """Print the record lines, save them, and return the JSON result."""
    OUT.mkdir(exist_ok=True)
    info["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    for key in ("workload", "seed", "job_digest", "git_sha", "python", "nproc", "properties", "rounds",
                "jobs", "beyond_p90", "fail_ratio", "count_mismatches", "failures", "unscaled", "probe_ms"):
        if key in info:
            print(f"# {key}: {info[key]}")
    for name, (value, unit) in metrics.items():
        print(f"# {workload} {name} = {value:.6g} {unit}")
    return {
        "correct": correct and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
