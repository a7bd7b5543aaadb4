import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenq
from degenq import cli, expr, invariants, reps, rmatrix
from degenq.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_UNSUPPORTED,
    main,
    parse_braid,
    _report_json,
    _report_payload,
    _report_text,
    run_verify,
)
from degenq.errors import ExprSyntaxError, ResourceLimit
from degenq.expr import MAX_NESTING
from degenq.relations import relation_catalog
from degenq.linalg import SparseMat
from degenq.reports import FAIL, PASS, Report, UNSUPPORTED, VACUOUS
from degenq.reps import natural_rep, tensor_rep
from degenq.rmatrix import build_bundle
from degenq.scalars import GLParams, RatFn

GRID = [GLParams(m, n) for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]]


# -- braid parsing ------------------------------------------------------------------


def test_parse_braid_examples():
    b = parse_braid("1 1 1")
    assert b.strands == 2 and b.writhe == 3
    b = parse_braid("1 -2 1 -2")
    assert b.strands == 3 and b.writhe == 0
    b = parse_braid("1", strands=4)
    assert b.strands == 4


def test_parse_braid_rejects():
    with pytest.raises(ExprSyntaxError):
        parse_braid("0")
    with pytest.raises(ExprSyntaxError):
        parse_braid("1 x")
    from degenq.errors import StrandMismatch

    with pytest.raises(StrandMismatch):
        parse_braid("3", strands=2)


def test_parse_braid_empty_is_identity():
    b = parse_braid("", strands=None)
    assert b.strands == 1 and b.letters == ()


# -- report serialization ----------------------------------------------------------------


def test_serialize_empty_report():
    assert _report_text(_report_payload(Report())) == "OK (0 checks)"


def test_serialize_json_stable():
    report = Report()
    report.add("suite", "alpha", True, "detail")
    report.add("suite", "beta", False)
    one = json.dumps(_report_payload(report), sort_keys=True, indent=2)
    two = json.dumps(_report_payload(report), sort_keys=True, indent=2)
    assert one == two
    payload = json.loads(one)
    assert payload["ok"] is False
    assert payload["summary"] == {"pass": 1, "fail": 1}


def _assert_written_as_json_dumps(report: Report):
    payload = _report_payload(report)
    assert _report_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("params", GRID, ids=lambda p: f"{p.m}{p.n}")
def test_report_writer_matches_json_dumps_on_the_grid(params):
    # Every payload verify prints on the grid, suite by suite, among them the
    # vacuous quartic at m = 1 or n = 1 and the unsupported invariant at m = n.
    for suite in cli.SUITES:
        _assert_written_as_json_dumps(run_verify(params, suites=(suite,)))


def test_report_writer_matches_json_dumps_on_edge_reports():
    _assert_written_as_json_dumps(Report())
    report = Report()
    for status in (PASS, FAIL, VACUOUS, UNSUPPORTED):
        report.note("suite", f"a {status} check", status, "" if status == PASS else "why")
    _assert_written_as_json_dumps(report)
    # The failing witnesses of spoiled R-matrix bundles: a perturbed R, and
    # Rcheck with one entry plus 1.
    bundle = build_bundle(GLParams(2, 1))
    rcheck = dict(bundle.Rcheck.entries)
    rcheck[(4, 1)] = rcheck.get((4, 1), RatFn.zero()) + RatFn.one()
    for spoiled in (
        bundle._replace(R=rmatrix.perturbed_r(GLParams(2, 1))),
        bundle._replace(Rcheck=SparseMat(9, 9, rcheck)),
    ):
        report = rmatrix.verify_ybe(spoiled)
        report.extend(rmatrix.verify_hecke_and_spectrum(spoiled))
        report.extend(rmatrix.verify_intertwiner(spoiled))
        assert report.failures and all(c.detail for c in report.failures)
        _assert_written_as_json_dumps(report)


# Quotes, backslashes, control characters, DEL, non-ASCII and astral text.
_odd_char = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600')
_odd_text = st.text(st.one_of(_odd_char, st.characters()))
_status = st.sampled_from([PASS, FAIL, VACUOUS, UNSUPPORTED])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_odd_text, _odd_text, _status, _odd_text)))
def test_report_writer_matches_json_dumps_on_any_text(rows):
    report = Report()
    for suite, name, status, detail in rows:
        report.note(suite, name, status, detail)
    _assert_written_as_json_dumps(report)


# -- commands (in-process) ------------------------------------------------------------------


def test_invariant_json_output(capsys):
    code = main(["invariant", "--m", "3", "--n", "1", "--braid", "1 1 1", "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["writhe"] == 3
    assert payload["strands"] == 2
    assert payload["a"] == "q^2"
    assert payload["z"] == "q - q^-1"
    assert payload["invariant"] == "q^-2 + q^-6 - q^-8"


def test_invariant_unknot_is_one(capsys):
    code = main(["invariant", "--m", "2", "--n", "1", "--braid", "1", "--json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["invariant"] == "1"


def test_invariant_equal_mn_exit_2(capsys):
    code = main(["invariant", "--m", "2", "--n", "2", "--braid", "1"])
    assert code == EXIT_UNSUPPORTED


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simple-module", "--ell", "2", "--lambda2"], "argument --lambda2: expected one argument"),
        (["verify", "--m", "2", "--n", "x"], "argument --n: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_error_exits_1(argv, message, capsys):
    # Exit 2 is reserved for unsupported requests; a malformed command line is bad input.
    assert main(argv) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize(
    "head, option, value, tail",
    [
        (["simple-module", "--ell", "2"], "--lambda2", "-q^-1", ["--json"]),
        (["simple-module", "--ell", "1"], "--lambda2", "-(q+1)/(q-2)", []),
        (["eval", "--m", "2", "--n", "1"], "--expr", "-e1", ["--json"]),
        (["eval", "--m", "2", "--n", "1"], "--expr", "-q*f1*e1", []),
        (["invariant", "--m", "2", "--n", "1"], "--braid", "-1\t-2", ["--json"]),
    ],
    ids=["lambda2-monomial", "lambda2-rational", "expr-generator", "expr-product", "braid-tab"],
)
def test_option_value_may_start_with_a_dash(head, option, value, tail, capsys):
    # The separate-token form prints exactly what the --option=value form does.
    outputs = []
    for argv in (head + [option, value] + tail, head + [f"{option}={value}"] + tail):
        code = main(argv)
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == EXIT_OK and outputs[0][1].err == ""


_HECKE_TEXT = """\
ok    hecke  (Rcheck - q)(Rcheck + q^-1) = 0
ok    hecke  q-eigenspace dimension = 5  [rank 5]
ok    hecke  (-q^-1)-eigenspace dimension = 4  [rank 4]
ok    hecke  Rcheck(v1 x v1) = q v1 x v1
ok    hecke  Rcheck(v1 x v2 - q^-1 v2 x v1) = -q^-1 (...)
5 checks (pass: 5)
"""

_SIMPLE_MODULE_TEXT = """\
highest weight: lambda1 = 1, lambda2 = -1
type: AtypicalA (expected dimension 1)
induced dimension: 4; simple dimension: 1
relation catalog: all pass
identity ok : F f2 f1^k v = 0 for all k
basis: F^0 f2^0 f1^0 v
""" + "".join(
    f"-- {name} --\n[{value}]\n"
    for name, value in (
        ("K1", "-1"), ("K2", "-1"), ("K3", "1"), ("Kinv1", "-1"), ("Kinv2", "-1"), ("Kinv3", "1"),
        ("e1", "0"), ("e2", "0"), ("f1", "0"), ("f2", "0"),
    )
)


@pytest.mark.parametrize(
    "argv, out",
    [
        (
            ["invariant", "--m", "2", "--n", "1", "--braid", "1 1 1"],
            "braid: 1 1 1 on 2 strands\nwrithe: 3\nmarkov trace: q^3\ninvariant: 1\n"
            "variables: a = q, z = q - q^-1\n",
        ),
        (["verify", "--m", "2", "--n", "1", "--suite", "hecke"], _HECKE_TEXT),
        (
            ["simple-module", "--ell", "0", "--lambda2=-1", "--matrices"],
            _SIMPLE_MODULE_TEXT,
        ),
        (
            ["decompose", "--m", "2", "--n", "1"],
            "braid-form eigenvalues: q (dim 5), -q^-1 (dim 4)\n" + _HECKE_TEXT,
        ),
        (
            ["eval", "--m", "2", "--n", "1", "--expr", "K1 + q*e1 - f2", "--rep", "dual"],
            "[q^-1, 0, 0]\n[-q^2, 1, -q]\n[0, 0, 1]\n",
        ),
    ],
    ids=["invariant", "verify", "simple-module", "decompose", "eval"],
)
def test_text_output_is_pinned(argv, out, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (EXIT_OK, out, "")


def test_json_mode_builds_no_text(monkeypatch, capsys):
    def no_text(payload):
        raise AssertionError("built the text under --json")

    monkeypatch.setattr(cli, "_matrix_text", no_text)
    monkeypatch.setattr(cli, "_report_text", no_text)
    for argv in (
        ["eval", "--m", "2", "--n", "1", "--expr", "e1", "--rep", "tensor2", "--json"],
        ["simple-module", "--ell", "1", "--lambda2", "q", "--matrices", "--json"],
        ["verify", "--m", "2", "--n", "1", "--suite", "hecke", "--json"],
        ["decompose", "--m", "2", "--n", "1", "--json"],
    ):
        assert main(argv) == EXIT_OK
        json.loads(capsys.readouterr().out)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "simple-module" in capsys.readouterr().out


def test_invariant_resource_exit_3(capsys):
    code = main(
        ["--max-dim", "10", "invariant", "--m", "2", "--n", "1", "--braid", "1 2 1"]
    )
    assert code == EXIT_RESOURCE


def test_invariant_cap_is_checked_on_a_memo_hit(capsys):
    # The first run leaves (2, 1, 5) in the evaluator memo; the capped run
    # must still be refused.
    argv = ["invariant", "--m", "2", "--n", "1", "--braid", "1 2 3 4", "--json"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main(["--max-dim", "100"] + argv) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource limit: dimension 3^5 exceeds cap 100\n"


def test_repeated_main_builds_the_parser_once(monkeypatch, capsys):
    # Good jobs, an argparse error, bad input and a resource refusal, twice in
    # one process: the second pass prints and returns exactly what the first did.
    monkeypatch.delenv("DEGENQ_MAX_DIM", raising=False)
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    argvs = [
        ["invariant", "--m", "2", "--n", "1", "--braid", "1 -2 1 2", "--json"],
        ["invariant", "--m", "1", "--n", "2", "--braid", "1 1 1"],
        ["verify", "--m", "2", "--n", "1", "--suite", "invariant", "--samples", "2", "--json"],
        ["verify", "--m", "1", "--n", "2", "--suite", "hecke"],
        ["simple-module", "--ell", "1", "--lambda2", "q^2", "--json"],
        ["eval", "--m", "2", "--n", "1", "--expr", "e1*f1 - f1*e1", "--json"],
        ["invariant", "--m", "2", "--n", "1"],
        ["verify", "--m", "2", "--n", "1", "--suite", "nope"],
        ["eval", "--m", "2", "--n", "1", "--expr", "e1 +", "--json"],
        ["--max-dim", "100", "invariant", "--m", "2", "--n", "1", "--braid", "1 2 3 4"],
        ["invariant", "--m", "2", "--n", "2", "--braid", "1"],
    ]

    def run_all():
        results = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    first = run_all()
    assert run_all() == first
    assert len(builds) == 1
    codes = [code for code, _, _ in first]
    assert codes == [0, 0, 0, 0, 0, 0, 1, 1, 1, 3, 2]
    assert "error: the following arguments are required: --braid" in first[6][2]
    assert "error: argument --suite: invalid choice" in first[7][2]
    assert first[8][2].startswith("error: ") and first[9][2].startswith("resource limit: ")


def test_invariant_determinism(capsys):
    argv = ["invariant", "--m", "3", "--n", "1", "--braid", "1 -2 1 -2", "--json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_verify_11_passes_with_vacuous_quartic(capsys):
    code = main(["verify", "--m", "1", "--n", "1", "--tensor-depth", "2", "--samples", "4", "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses.get("serre-quartic") == "vacuous"
    assert payload["ok"] is True


def test_verify_invariant_suite_equal_mn(capsys):
    code = main(["verify", "--m", "2", "--n", "2", "--suite", "invariant"])
    assert code == EXIT_UNSUPPORTED


def test_verify_single_suite_ybe(capsys):
    code = main(["verify", "--m", "2", "--n", "1", "--suite", "ybe", "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_hopf_suites_and_no_cube(capsys):
    argv = ["verify", "--m", "2", "--n", "1", "--suite", "hopf", "--json"]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {c["suite"] for c in payload["checks"]} == {"hopf-counit", "hopf-antipode", "hopf-s2"}
    # The suite builds no V^(x)3, so a cap below 27 does not refuse it.
    assert main(["--max-dim", "8"] + argv) == EXIT_OK


def test_verify_intertwiner_runs_tensor_iso_at_r3_only(capsys):
    code = main(["verify", "--m", "2", "--n", "1", "--suite", "intertwiner", "--json"])
    assert code == EXIT_OK
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert any(name.startswith("r=3:") for name in names)
    assert not any(name.startswith("r=2:") for name in names)


def test_verify_intertwiner_refuses_tensor_iso_above_the_cap(capsys):
    # The r = 3 checks need V^(x)3 (27 dims at (2, 1)); under a cap of 20 the
    # suite is refused, as the relation suite is, rather than cut short.
    code = main(["--max-dim", "20", "verify", "--m", "2", "--n", "1", "--suite", "intertwiner"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_RESOURCE, "")
    assert captured.err == "resource limit: dimension 3^3 exceeds cap 20\n"


# Under a cap of 8 at (2, 1) every R-matrix suite is refused before any work:
# ybe needs V^(x)3 (27 dims), hecke, the r = 2 intertwiner checks and
# decompose need V^(x)2 (9 dims), and so does a 1-strand invariant, whose
# R-matrix lives on V (x) V.  None of them builds V or the bundle; the
# relation suite reads V before it refuses V^(x)2.  The hopf suite works on V
# alone and passes.  At m = n the invariant suite is unsupported and reads
# nothing.  Above the cap, V itself is refused first, whatever the suite.
_NOT_BUILT = {"natural_rep": 0, "build_bundle": 0}
_VERIFY_21 = ["verify", "--m", "2", "--n", "1", "--suite"]
_SQUARE = "dimension 3^2 exceeds cap 8"


@pytest.mark.parametrize(
    "argv, code, err, builds",
    [
        (_VERIFY_21 + ["ybe"], EXIT_RESOURCE, "dimension 3^3 exceeds cap 8", _NOT_BUILT),
        (_VERIFY_21 + ["hecke"], EXIT_RESOURCE, _SQUARE, _NOT_BUILT),
        (_VERIFY_21 + ["intertwiner"], EXIT_RESOURCE, _SQUARE, _NOT_BUILT),
        (_VERIFY_21 + ["relations"], EXIT_RESOURCE, _SQUARE, None),
        (["decompose", "--m", "2", "--n", "1", "--json"], EXIT_RESOURCE, _SQUARE, _NOT_BUILT),
        (["simple-module", "--ell", "2", "--lambda2", "q"], EXIT_RESOURCE, "induced dimension 12 exceeds cap 8",
         None),
        (["invariant", "--m", "2", "--n", "1", "--braid", ""], EXIT_RESOURCE, _SQUARE, _NOT_BUILT),
        (["verify", "--m", "2", "--n", "2", "--suite", "invariant"], EXIT_UNSUPPORTED, None, _NOT_BUILT),
        (["verify", "--m", "5", "--n", "4", "--suite", "ybe"], EXIT_RESOURCE, "dimension 9^1 exceeds cap 8", _NOT_BUILT),
    ],
    ids=[
        "ybe", "hecke", "intertwiner", "relations", "decompose", "simple-module", "1-strand", "invariant-m=n",
        "ybe-above-V",
    ],
)
def test_r_matrix_suites_refuse_spaces_above_the_cap(argv, code, err, builds, monkeypatch, capsys):
    calls = dict.fromkeys(_NOT_BUILT, 0)
    for module, name in ((reps, "natural_rep"), (rmatrix, "build_bundle")):

        def counting(*args, name=name, build=getattr(module, name)):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(module, name, counting)
    got = main(["--max-dim", "8"] + argv)
    captured = capsys.readouterr()
    if err is None:
        assert (got, captured.err) == (code, "") and "n/a" in captured.out
    else:
        assert (got, captured.out, captured.err) == (code, "", f"resource limit: {err}\n")
    assert builds is None or calls == builds


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--m", "2", "--n", "1", "--expr", "e1"],
        ["eval", "--m", "2", "--n", "1", "--expr", "e1", "--rep", "dual"],
        ["eval", "--m", "2", "--n", "1", "--expr", "e1", "--rep", "tensor1"],
        ["verify", "--m", "2", "--n", "1", "--suite", "hopf"],
    ],
    ids=["natural", "dual", "tensor1", "hopf"],
)
def test_the_cap_covers_the_natural_and_dual_modules(argv, capsys):
    # V itself, 3 dims at (2, 1), is refused under a cap of 2, as V^(x)1 is.
    code = main(["--max-dim", "2"] + argv)
    captured = capsys.readouterr()
    err = "resource limit: dimension 3^1 exceeds cap 2\n"
    assert (code, captured.out, captured.err) == (EXIT_RESOURCE, "", err)
    assert main(["--max-dim", "3"] + argv) == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [
        ["invariant", "--m", "2", "--n", "1", "--braid", "1", "--strands", "100000000000"],
        ["eval", "--m", "2", "--n", "1", "--expr", "e1", "--rep", "tensor100000000000"],
    ],
    ids=["invariant", "eval"],
)
def test_huge_tensor_power_is_refused_without_forming_it(argv, monkeypatch, capsys):
    monkeypatch.delenv("DEGENQ_MAX_DIM", raising=False)
    code = main(argv)
    captured = capsys.readouterr()
    err = "resource limit: dimension 3^100000000000 exceeds cap 20000\n"
    assert (code, captured.out, captured.err) == (EXIT_RESOURCE, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--m", "2", "--n", "1", "--expr", "q^99999999999*e1"],
        ["eval", "--m", "2", "--n", "1", "--expr", "K1^-99999999999"],
        ["eval", "--m", "2", "--n", "1", "--expr", "(q+1)^4000*e1"],
        ["eval", "--m", "2", "--n", "1", "--expr", "3^999999999*e1"],
        ["simple-module", "--ell", "1", "--lambda2", "(" * 99 + "q+1" + ")^2" * 99],
        ["eval", "--m", "2", "--n", "1", "--expr", "(q+1)^2000*(q+1)^2000*e1"],
        ["eval", "--m", "2", "--n", "1", "--expr", "(q+1)^1000*" * 4 + "e1"],
    ],
    ids=["monomial", "power", "scalar-power", "integer-power", "nested-scalar-powers", "scalar-product",
         "scalar-product-of-four"],
)
def test_eval_refuses_huge_integers_before_forming_them(argv):
    # In a child limited to 2 GB of address space, so that an integer formed
    # against the budget fails there instead of filling the machine.
    limit = 2_000_000 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "degenq.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(degenq.__file__))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout) == (EXIT_RESOURCE, "")
    assert proc.stderr.startswith("resource limit: ") and proc.stderr.count("\n") == 1


def _run_timed(argv):
    """Run main(argv) in a child limited to 2 GB of address space, so that a
    regression hangs or fills only the child; its stdout is main's time in
    seconds."""
    timed_main = (
        "import sys, time; from degenq.cli import main; t = time.perf_counter(); "
        "code = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(code)"
    )
    limit = 2_000_000 * 1024
    return subprocess.run(
        [sys.executable, "-c", timed_main, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(degenq.__file__))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.parametrize("lambda2", ["q^99999999999", "-q^-99999999999", "q^220754", "q^1000000", "-q^-300000"])
def test_simple_module_refuses_a_huge_monomial_lambda2_before_building(lambda2):
    proc = _run_timed(["simple-module", "--ell", "1", f"--lambda2={lambda2}"])
    assert proc.returncode == EXIT_RESOURCE
    assert float(proc.stdout) < 1.0
    assert proc.stderr == f"resource limit: lambda2 = {lambda2} needs integers of more than 8388608 bits\n"


@pytest.mark.parametrize("samples", ["10001", "100000000000"])
def test_verify_refuses_a_sample_count_above_the_limit_at_once(samples):
    proc = _run_timed(["verify", "--m", "2", "--n", "1", "--suite", "invariant", "--samples", samples])
    assert proc.returncode == EXIT_RESOURCE
    assert float(proc.stdout) < 1.0
    assert proc.stderr == f"resource limit: the sample count {samples} exceeds the limit 10000\n"


def test_simple_module_refuses_a_large_monomial_lambda2_in_evaluation(capsys):
    # Below the refusal before building, the relation check refuses it.
    code = main(["simple-module", "--ell", "1", "--lambda2", "q^200000"])
    captured = capsys.readouterr()
    err = "resource limit: evaluation needs integers of more than 8388608 bits\n"
    assert (code, captured.out, captured.err) == (EXIT_RESOURCE, "", err)


def test_a_stdout_closed_early_exits_1_with_nothing_on_stderr():
    # The reader takes one line and closes the pipe.  The rest of the output,
    # about 120 kB, is more than a pipe holds, so the child's print meets the
    # closed pipe whatever the timing.
    argv = ["verify", "--m", "3", "--n", "2", "--suite", "relations", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "degenq.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(degenq.__file__))},
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == EXIT_FAIL
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_relations_compile_the_catalog_once_and_encode_each_space_once(monkeypatch, capsys):
    # Two relations jobs at (3, 2) in one process: the catalog is compiled
    # once, and each generator of each space is encoded at most once per digit
    # width B; the second job reads the memo's natural module and encodes
    # nothing.
    compiled = []
    compile_batch = reps.compile_batch

    def counting_compile(exprs):
        compiled.append(len(exprs))
        return compile_batch(exprs)

    encoded = []  # (encoding, B, dim, job); the encodings stay alive, so ids stay distinct
    at = expr._Encoding.at

    def counting_at(self, bits, dim):
        if self.bits != bits:
            encoded.append((self, bits, dim, len(jobs)))
        return at(self, bits, dim)

    monkeypatch.setattr(reps, "compile_batch", counting_compile)
    monkeypatch.setattr(expr._Encoding, "at", counting_at)
    jobs = []
    argv = ["verify", "--m", "3", "--n", "2", "--suite", "relations", "--json"]
    for _ in range(2):
        jobs.append(main(argv))
    capsys.readouterr()
    assert jobs == [EXIT_OK, EXIT_OK] and len(compiled) == 1
    keys = [(id(code), bits) for code, bits, _, _ in encoded]
    assert len(keys) == len(set(keys))
    assert {dim for _, _, dim, job in encoded if job == 0} >= {5, 25, 125}
    assert {dim for _, _, dim, job in encoded if job == 1} == set()


def test_warm_hopf_jobs_compile_nothing_and_measure_nothing(monkeypatch, capsys):
    # The trivial module, V* and the S^2 program come from the memo, and each
    # module keeps its int forms, so a second hopf job at (3, 2) compiles no
    # batch and creates no _Encoding; it still prints every check.
    compiled, measured = [], []
    jobs = []
    init = expr._Encoding.__init__

    def counting_init(self, mat):
        measured.append(len(jobs))
        init(self, mat)

    for module in (expr, reps):
        compile_batch = module.compile_batch

        def counting_compile(exprs, compile_batch=compile_batch):
            compiled.append(len(jobs))
            return compile_batch(exprs)

        monkeypatch.setattr(module, "compile_batch", counting_compile)
    monkeypatch.setattr(expr._Encoding, "__init__", counting_init)
    argv = ["verify", "--m", "3", "--n", "2", "--suite", "hopf", "--json"]
    outputs = []
    for _ in range(2):
        jobs.append(main(argv))
        outputs.append(capsys.readouterr().out)
    assert jobs == [EXIT_OK, EXIT_OK] and outputs[0] == outputs[1]
    assert 0 in compiled and 0 in measured
    assert 1 not in compiled and 1 not in measured
    assert len(json.loads(outputs[1])["checks"]) == 319


def _snapshot(rep):
    return rep.gens, {key: SparseMat(m.nrows, m.ncols, dict(m.entries)) for key, m in rep.gens.items()}


@pytest.mark.parametrize("suite", cli.SUITES)
def test_verify_jobs_leave_the_memo_modules_unmutated(suite, capsys):
    # V, V* and the trivial module in the store keep the same gens dict and
    # equal matrices through a job of each suite.
    params = GLParams(3, 2)
    natural = reps.shared_power(params, 1)
    store = reps.setup(params)
    dual = store.derived("V*", "V", natural, reps.dual_rep)
    trivial, _, _ = store.get("hopf", reps._hopf_setup, params)
    before = [_snapshot(rep) for rep in (natural, dual, trivial)]
    argv = ["verify", "--m", "3", "--n", "2", "--suite", suite, "--samples", "2", "--json"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert store.get("V", None) is natural
    assert store.get("V*", None) is dual and store.get("hopf", None)[0] is trivial
    for rep, (gens, mats) in zip((natural, dual, trivial), before):
        assert rep.gens is gens and rep.gens == mats


def test_intertwiner_jobs_encode_the_memoised_powers_once(monkeypatch, capsys):
    # Three intertwiner jobs at (3, 2) in one process (the intertwiner on
    # V^(x)2, then the tensor isomorphism on V^(x)3, whose first build reads
    # the K's of V^(x)2 at another digit width).  The first job builds the
    # bundle's set-up: five leg operators, and the encodings of them and of
    # the memoised Delta and Delta' powers.  The later jobs place no leg
    # operator, measure no matrix and encode nothing: each matrix keeps its
    # int form at both widths it is read at.
    measured = []  # (matrix, job); the matrices stay alive, so ids stay distinct
    encoded = []  # (encoding, B, job)
    legs = []  # (leg operator, job)
    init, at, leg_operator = expr._Encoding.__init__, expr._Encoding.at, rmatrix.leg_operator

    def counting_init(self, mat):
        measured.append((mat, len(jobs)))
        init(self, mat)

    def counting_at(self, bits, dim):
        if bits not in self.ints:
            encoded.append((self, bits, len(jobs)))
        return at(self, bits, dim)

    def recording_leg_operator(*args):
        legs.append((leg_operator(*args), len(jobs)))
        return legs[-1][0]

    monkeypatch.setattr(expr._Encoding, "__init__", counting_init)
    monkeypatch.setattr(expr._Encoding, "at", counting_at)
    monkeypatch.setattr(rmatrix, "leg_operator", recording_leg_operator)
    jobs = []
    argv = ["verify", "--m", "3", "--n", "2", "--suite", "intertwiner", "--json"]
    for _ in range(3):
        jobs.append(main(argv))
    capsys.readouterr()
    assert jobs == [EXIT_OK] * 3
    squares = [reps.shared_power(GLParams(3, 2), 2, side).gens for side in ("Delta", "DeltaPrime")]
    read = {id(gens[key]) for gens in squares for key in (("e", 1), ("f", 4), ("K", 5))}
    assert read <= {id(mat) for mat, job in measured if job == 0}
    assert [job for _, job in legs] == [0] * 5
    assert [job for _, job in measured if job] == [] and [job for _, _, job in encoded if job] == []
    # The K's of V^(x)2 are read at two widths, and each is encoded once.
    k5 = squares[0][("K", 5)]._encoding
    assert len([bits for code, bits, _ in encoded if code is k5]) == len(k5.ints) == 2


def test_r_matrix_suites_refuse_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("built a space above the cap")

    monkeypatch.setattr(rmatrix, "_space", no_work)
    bundle = build_bundle(GLParams(2, 1))
    for check, cap in (
        (rmatrix.verify_ybe, 26),
        (rmatrix.verify_hecke_and_spectrum, 8),
        (rmatrix.verify_intertwiner, 8),
    ):
        with pytest.raises(ResourceLimit):
            check(bundle, max_dim=cap)


# -- the set-up store --------------------------------------------------------------


def _verify_output(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mutated_public_results_leave_verify_unchanged(capsys):
    # natural_rep, tensor_rep and relation_catalog return fresh objects; the
    # memo builds its own, so mutating theirs, before or after the memo is
    # filled, changes no later verify.
    argv = ["verify", "--m", "2", "--n", "1", "--suite", "all", "--samples", "2", "--json"]
    params = GLParams(2, 1)
    expected = _verify_output(argv, capsys)
    assert expected[0] == EXIT_OK
    for clear in (True, False):
        if clear:
            reps.clear_setups()
        rep = natural_rep(params)
        rep.gens[("e", 1)] = rep.gen("e", 2)
        square = tensor_rep(rep, natural_rep(params), "DeltaPrime")
        square.gens[("f", 2)] = square.gen("f", 1)
        relation_catalog(params).clear()
        assert _verify_output(argv, capsys) == expected


def test_one_clear_drops_every_kind(monkeypatch, capsys):
    # verify of every suite and an invariant at (2, 1), a clear, then both
    # twice more: after the clear every kind's builder runs again, and the
    # warm round builds nothing.  A kind the store does not hold, or that the
    # clear misses, fails here.
    jobs = (
        ["verify", "--m", "2", "--n", "1", "--suite", "all", "--samples", "2"],
        ["invariant", "--m", "2", "--n", "1", "--braid", "1 1 1"],
    )
    builders = (
        reps.natural_rep,
        reps.relation_catalog,
        reps.trivial_rep,
        reps.dual_rep,
        reps.tensor_rep,
        build_bundle,
    )
    calls = dict.fromkeys([fn.__name__ for fn in builders] + ["BraidEvaluator.__init__"], 0)
    for fn in builders:

        def counting(*args, fn=fn):
            calls[fn.__name__] += 1
            return fn(*args)

        # Every degenq module that imported the builder by name.
        for name, module in list(sys.modules.items()):
            if name.startswith("degenq") and vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
    init = invariants.BraidEvaluator.__init__

    def counting_init(self, *args):
        calls["BraidEvaluator.__init__"] += 1
        init(self, *args)

    monkeypatch.setattr(invariants.BraidEvaluator, "__init__", counting_init)
    rounds = []
    for clear in (False, True, False):
        if clear:
            reps.clear_setups()
        calls.update(dict.fromkeys(calls, 0))
        assert [main(argv) for argv in jobs] == [EXIT_OK, EXIT_OK]
        rounds.append(dict(calls))
    capsys.readouterr()
    assert all(count >= 1 for count in rounds[1].values()), rounds[1]
    assert all(count == 0 for count in rounds[2].values()), rounds[2]
    # verify's R-matrix suites kept their set-up in the store, derived from
    # its one bundle, which the invariant's evaluators read too.
    store = reps.setup(GLParams(2, 1))
    assert all(store.get(key, None) for key in ("ybe", "hecke", "intertwiner", ("tensor-iso", 3)))


def test_a_builder_patched_before_a_clear_does_not_outlive_the_next_clear(capsys):
    # The trivial module with K_1 acting by q, built into the store under the
    # patch, keeps failing the counit after the patch is undone, until the
    # one clear drops it.  No fixture undoes anything here.
    argv = ["verify", "--m", "2", "--n", "1", "--suite", "hopf", "--json"]
    trivial_rep = reps.trivial_rep

    def k_to_q(params):
        rep = trivial_rep(params)
        rep.gens[("K", 1)] = SparseMat.diagonal([RatFn.q(1)])
        rep.gens[("Kinv", 1)] = SparseMat.diagonal([RatFn.q(-1)])
        return rep

    def failed_suites():
        code = main(argv)
        checks = json.loads(capsys.readouterr().out)["checks"]
        return code, {c["suite"] for c in checks if c["status"] == FAIL}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reps, "trivial_rep", k_to_q)
        reps.clear_setups()
        assert failed_suites() == (EXIT_FAIL, {"hopf-counit"})
    assert failed_suites() == (EXIT_FAIL, {"hopf-counit"})
    reps.clear_setups()
    assert failed_suites() == (EXIT_OK, set())


def test_warm_memo_still_refuses_a_power_above_the_cap(capsys):
    argv = ["verify", "--m", "2", "--n", "1", "--suite", "relations", "--json"]
    cold = _verify_output(["--max-dim", "26"] + argv, capsys)
    assert _verify_output(argv, capsys)[0] == EXIT_OK  # V^(x)3 is now in the memo
    warm = _verify_output(["--max-dim", "26"] + argv, capsys)
    assert cold == warm == (EXIT_RESOURCE, "", "resource limit: dimension 3^3 exceeds cap 26\n")


def test_warm_bundle_still_refuses_a_cube_above_the_cap(capsys):
    argv = ["verify", "--m", "2", "--n", "1", "--suite", "ybe", "--json"]
    cold = _verify_output(["--max-dim", "26"] + argv, capsys)
    assert _verify_output(argv, capsys)[0] == EXIT_OK  # the bundle and its ybe set-up are now in the store
    assert reps.setup(GLParams(2, 1)).get("ybe", None)
    warm = _verify_output(["--max-dim", "26"] + argv, capsys)
    assert cold == warm == (EXIT_RESOURCE, "", "resource limit: dimension 3^3 exceeds cap 26\n")


def test_verify_all_builds_each_tensor_power_once(monkeypatch, capsys):
    builds = []

    def counting_tensor_rep(r1, r2, side="Delta"):
        builds.append((r1.dim * r2.dim, side))
        return tensor_rep(r1, r2, side)

    monkeypatch.setattr(reps, "tensor_rep", counting_tensor_rep)
    assert main(["verify", "--m", "2", "--n", "1", "--samples", "2", "--json"]) == EXIT_OK
    assert sorted(builds) == [(9, "Delta"), (9, "DeltaPrime"), (27, "Delta"), (27, "DeltaPrime")]


def test_simple_module_json(capsys):
    code = main(
        ["simple-module", "--ell", "1", "--sign1", "-1", "--lambda2", "q^3", "--json"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "Typical"
    assert payload["dim"] == 8
    assert payload["relations_ok"] is True
    assert len(payload["basis"]) == 8


def test_simple_module_matrices(capsys):
    code = main(
        [
            "simple-module",
            "--ell",
            "0",
            "--lambda2",
            "q^-1",
            "--matrices",
            "--json",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 3
    assert "action" in payload and "f1" in payload["action"]


def test_decompose_json(capsys):
    code = main(["decompose", "--m", "2", "--n", "1", "--json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["q_eigenspace_dim"] == 5
    assert payload["neg_qinv_eigenspace_dim"] == 4


def test_eval_zero_expression(capsys):
    code = main(
        [
            "eval",
            "--m",
            "2",
            "--n",
            "1",
            "--expr",
            "e2^2",
            "--rep",
            "tensor2",
            "--json",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_zero"] is True


def test_eval_natural_matrix(capsys):
    code = main(
        ["eval", "--m", "2", "--n", "1", "--expr", "k1", "--rep", "natural", "--json"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"]["entries"] == {"0,0": "q", "1,1": "q^-1", "2,2": "1"}


def test_eval_bad_expression_exit_1(capsys):
    code = main(["eval", "--m", "2", "--n", "1", "--expr", "e9", "--rep", "natural"])
    assert code == EXIT_FAIL


# -- run_verify as a library call --------------------------------------------------------------


def test_run_verify_report_object():
    report = run_verify(GLParams(1, 1), tensor_depth=2, suites=("relations", "hopf"), samples=2)
    assert report.all_passed
    assert any(c.status == "vacuous" for c in report.checks)


def test_verify_names_no_check_twice():
    # Each skein site is named by its word and position, a site drawn twice
    # (as 40 samples draw one) is checked once, and the skein control runs
    # once, so no (suite, name) pair repeats.
    runs = [run_verify(GLParams(m, n)) for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]]
    runs.append(run_verify(GLParams(2, 1), suites=("invariant",), samples=40))
    for report in runs:
        names = [(c.suite, c.name) for c in report.checks]
        assert len(set(names)) == len(names), [x for x in names if names.count(x) > 1]


# -- one subprocess test for the installed entry point ------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "degenq.cli", "invariant", "--m", "2", "--n", "1", "--braid", "1 1", "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(degenq.__file__))},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["invariant"] == "1"


def test_console_script_byte_identical():
    argv = [sys.executable, "-m", "degenq.cli", "verify", "--m", "1", "--n", "2",
            "--suite", "hecke", "--json"]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(degenq.__file__))}
    one = subprocess.run(argv, capture_output=True, env=env).stdout
    two = subprocess.run(argv, capture_output=True, env=env).stdout
    assert one == two and one


# Modules a command that does not use them must not load: the standard
# library's dataclass machinery and the command-specific layers.
_WATCHED = (
    "dataclasses", "inspect", "typing", "degenq.homfly_oracle", "degenq.invariants", "degenq.rmatrix", "degenq.sl21"
)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["simple-module", "--ell", "1", "--lambda2", "q^2"], ["degenq.sl21"]),
        (["invariant", "--m", "2", "--n", "1", "--braid", "1 1 1"], ["degenq.invariants", "degenq.rmatrix"]),
        (["verify", "--m", "2", "--n", "1", "--suite", "relations"], []),
    ],
    ids=["import", "simple-module", "invariant", "verify-relations"],
)
def test_a_one_shot_process_loads_only_its_commands_layers(argv, loaded):
    # -S: no site module, so no .pth file preloads a watched module.
    child = (
        "import sys\nfrom degenq import cli\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        f"print(sorted(set({_WATCHED!r}) & set(sys.modules)), code, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={
            **os.environ,
            "PYTHONPATH": os.path.dirname(os.path.dirname(degenq.__file__)),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert proc.stderr == f"{loaded!r} 0\n"


def test_env_var_caps_dimension(monkeypatch, capsys):
    monkeypatch.setenv("DEGENQ_MAX_DIM", "10")
    code = main(["invariant", "--m", "2", "--n", "1", "--braid", "1 2 1"])
    assert code == EXIT_RESOURCE
    monkeypatch.setenv("DEGENQ_MAX_DIM", "100000")
    code = main(["invariant", "--m", "2", "--n", "1", "--braid", "1 2 1", "--json"])
    assert code == EXIT_OK


# At (2, 1): e, f and k take I' = 1..2, K takes I = 1..3.
_ATOMS_OUT_OF_RANGE = ("e0", "f3", "K0", "K4", "k0", "k3")


@pytest.mark.parametrize(
    "argv, env_cap",
    [
        (["invariant", "--m", "0", "--n", "1", "--braid", "1"], None),
        (["eval", "--m", "2", "--n", "1", "--expr", "e1", "--rep", "tensorx"], None),
        (["eval", "--m", "2", "--n", "1", "--expr", "e1", "--rep", "tensor0"], None),
        (["eval", "--m", "2", "--n", "1", "--expr", "e1", "--rep", "tensor"], None),
        (["eval", "--m", "2", "--n", "1", "--expr", "e1", "--rep", "tensor+3"], None),
        (["invariant", "--m", "2", "--n", "1", "--braid", "1"], "abc"),
        (["simple-module", "--ell", "-1", "--lambda2", "q"], None),
        (["simple-module", "--ell", "0", "--lambda2", "0"], None),
        (["--max-dim", "0", "invariant", "--m", "2", "--n", "1", "--braid", "1"], None),
        (["--max-dim", "-5", "invariant", "--m", "2", "--n", "1", "--braid", "1"], None),
        (["verify", "--m", "2", "--n", "1", "--suite", "invariant", "--samples", "-1"], None),
        (["verify", "--m", "2", "--n", "1", "--suite", "relations", "--tensor-depth", "0"], None),
        (["verify", "--m", "2", "--n", "1", "--suite", "relations", "--tensor-depth", "-3"], None),
        (["eval", "--m", "2", "--n", "1", "--expr", "(" * 1000 + "e1" + ")" * 1000], None),
        (["simple-module", "--ell", "1", "--lambda2", "(" * 400 + "q" + ")" * 400], None),
        *((["eval", "--m", "2", "--n", "1", "--expr", atom], None) for atom in _ATOMS_OUT_OF_RANGE),
    ],
    ids=["m0", "rep-tensorx", "rep-tensor0", "rep-tensor", "rep-tensor-plus3", "env-cap-abc",
         "ell-negative", "lambda2-zero", "max-dim-0", "max-dim-negative", "samples-negative",
         "tensor-depth-0", "tensor-depth-negative", "expr-nested-1000", "lambda2-nested-400",
         *_ATOMS_OUT_OF_RANGE],
)
def test_bad_input_is_a_clean_error(argv, env_cap, monkeypatch, capsys):
    if env_cap is None:
        monkeypatch.delenv("DEGENQ_MAX_DIM", raising=False)
    else:
        monkeypatch.setenv("DEGENQ_MAX_DIM", env_cap)
    assert main(argv) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "atom, err",
    [("k3", "k3: index outside I' = 1..2"), ("k0^-1", "k0: index outside I' = 1..2"),
     ("K4", "K4: index outside I = 1..3"), ("f3^2", "f3: index outside I' = 1..2")],
)
def test_an_atom_out_of_range_is_named_with_its_range(atom, err, capsys):
    assert main(["eval", "--m", "2", "--n", "1", "--expr", f"e1 + {atom}"]) == EXIT_FAIL
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_verify_samples_0_conjugation_is_vacuous(capsys):
    code = main(["verify", "--m", "2", "--n", "1", "--suite", "invariant", "--samples", "0", "--json"])
    assert code == EXIT_OK
    checks = json.loads(capsys.readouterr().out)["checks"]
    conj = [c for c in checks if c["name"].startswith("conjugation invariance")]
    assert [c["status"] for c in conj] == ["vacuous"]
    assert all(c["status"] == "pass" for c in checks if c not in conj)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--m", "2", "--n", "1", "--rep", "tensor2",
         "--expr", "(" * MAX_NESTING + "e1+q" + ")^1" * MAX_NESTING],
        ["simple-module", "--ell", "1", "--lambda2", "(1+q*" * MAX_NESTING + "q" + ")" * MAX_NESTING],
    ],
    ids=["expr", "lambda2"],
)
def test_parentheses_at_the_nesting_limit_parse(argv, monkeypatch, capsys):
    monkeypatch.delenv("DEGENQ_MAX_DIM", raising=False)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_simple_module_signed_parenthesized_lambda2(capsys):
    code = main(["simple-module", "--ell", "0", "--lambda2=-(q+1)/(q-2)", "--json"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["lambda2"] == "(-q - 1)/(q - 2)"


def test_verify_full_22_passes_with_unsupported_markov(capsys):
    code = main(
        ["verify", "--m", "2", "--n", "2", "--tensor-depth", "2", "--samples", "2", "--json"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    statuses = {c["status"] for c in payload["checks"]}
    assert "unsupported" in statuses
    assert "fail" not in statuses
