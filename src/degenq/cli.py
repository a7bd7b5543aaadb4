"""Command line interface.

Subcommands:

* ``invariant``      link invariant of a braid closure
* ``verify``         run the verification suites for one (m, n)
* ``simple-module``  build a rank-(2,1) simple module
* ``decompose``      braid-form spectral report on V (x) V
* ``eval``           evaluate an expression in a chosen representation

Machine-readable mode (``--json``) emits deterministic JSON: keys sorted, no
timestamps, scalars in canonical text form.  Exit codes: 0 success, 1 check
failure, bad input or a stdout closed before the output was written, 2
unsupported request (m = n for invariants), 3 resource limit, which includes
an output coefficient past Python's int-text limit (4300 decimal digits by
default; degenq does not lift it).  The dimension cap defaults to 20000 and
can be set by ``--max-dim`` or the ``DEGENQ_MAX_DIM`` environment variable
(flag wins); it must be positive.
``invariant`` needs V (x) V, where the R-matrix lives, within it, even on
one strand.

Importing this module loads only the layers every command uses (scalars,
linalg, expr, relations, reports, reps).  A command imports its own layers
when it runs: ``invariant`` and verify's invariant suite load
:mod:`degenq.invariants` (with :mod:`degenq.rmatrix`), verify's ybe, hecke and
intertwiner suites and ``decompose`` load :mod:`degenq.rmatrix`, and
``simple-module`` loads :mod:`degenq.sl21`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import (
    DegenqError,
    EqualMNUnsupported,
    ExprSyntaxError,
    InvalidInput,
    ResourceLimit,
)
from .expr import _int_literal, eval_in_rep, parse_expr
from .linalg import SparseMat
from .reports import FAIL, PASS, Report, UNSUPPORTED, VACUOUS
from .reps import (
    DEFAULT_MAX_DIM,
    check_cap,
    check_hopf_axioms,
    dual_rep,
    iterated_tensor,
    natural_rep,
    shared_power,
    verify_relations,
)
from .scalars import GLParams, parse_scalar, scalar_to_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNSUPPORTED = 2
EXIT_RESOURCE = 3

SUITES = ("relations", "hopf", "ybe", "hecke", "intertwiner", "invariant")


def parse_braid(text: str, strands: int | None = None):
    """A ``BraidWord`` from whitespace-separated nonzero integers; strands
    default to max|i| + 1."""
    from .invariants import BraidWord

    letters = tuple(_braid_letter(t) for t in text.split())
    if any(letter == 0 for letter in letters):
        raise ExprSyntaxError("braid letters must be nonzero")
    if strands is None:
        strands = max((abs(letter) for letter in letters), default=0) + 1
    return BraidWord(strands, letters)


def _braid_letter(token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        digits = token[1:] if token[0] in "+-" else token
        if digits.isdecimal():  # int() refused it for its length alone
            _int_literal(digits)
        raise ExprSyntaxError(f"braid letters must be integers, got {token!r}") from exc


def _report_payload(report: Report) -> dict:
    return {
        "checks": [
            {"suite": c.suite, "name": c.name, "status": c.status, "detail": c.detail}
            for c in report.checks
        ],
        "summary": report.counts(),
        "ok": report.all_passed,
    }


def _report_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` of a ``_report_payload``
    result, byte for byte, written in one pass.  json.dumps runs its
    pure-Python encoder whenever it indents, and a verify report holds
    hundreds of checks; here only the strings go through json's C escaper."""
    s = json.encoder.encode_basestring_ascii
    checks = ",\n".join(
        f'    {{\n      "detail": {s(c["detail"])},\n      "name": {s(c["name"])},\n'
        f'      "status": {s(c["status"])},\n      "suite": {s(c["suite"])}\n    }}'
        for c in payload["checks"]
    )
    summary = ",\n".join(f"    {s(k)}: {v}" for k, v in sorted(payload["summary"].items()))
    return (
        '{\n  "checks": ' + (f"[\n{checks}\n  ]" if checks else "[]")
        + ',\n  "ok": ' + ("true" if payload["ok"] else "false")
        + ',\n  "summary": ' + (f"{{\n{summary}\n  }}" if summary else "{}")
        + "\n}"
    )


def _report_text(payload: dict) -> str:
    """One line per check of a ``_report_payload`` result, then the counts."""
    checks = payload["checks"]
    if not checks:
        return "OK (0 checks)"
    width = max(len(c["suite"]) for c in checks)
    lines = []
    for c in checks:
        marker = {PASS: "ok", FAIL: "FAIL", VACUOUS: "vac.", UNSUPPORTED: "n/a"}[c["status"]]
        detail = f"  [{c['detail']}]" if c["detail"] else ""
        lines.append(f"{marker:5s} {c['suite']:<{width}s}  {c['name']}{detail}")
    counts = payload["summary"]
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    lines.append(f"{sum(counts.values())} checks ({summary})")
    return "\n".join(lines)


def _matrix_payload(mat: SparseMat) -> dict:
    return {
        "nrows": mat.nrows,
        "ncols": mat.ncols,
        "entries": {
            f"{i},{j}": scalar_to_text(v)
            for (i, j), v in sorted(mat.entries.items())
        },
    }


def _matrix_text(payload: dict) -> str:
    """The rows of a ``_matrix_payload`` result, with "0" where an entry is missing."""
    entries = payload["entries"]
    return "\n".join(
        "[" + ", ".join(entries.get(f"{i},{j}", "0") for j in range(payload["ncols"])) + "]"
        for i in range(payload["nrows"])
    )


def run_verify(
    params: GLParams,
    tensor_depth: int = 3,
    suites: tuple[str, ...] = SUITES,
    max_dim: int = DEFAULT_MAX_DIM,
    samples: int = 10,
) -> Report:
    if tensor_depth < 1:
        raise InvalidInput(f"the tensor depth must be at least 1, got {tensor_depth}")
    if samples < 0:
        raise InvalidInput(f"the sample count must be nonnegative, got {samples}")
    check_cap(params.size, 1, max_dim)  # V first, whatever the suites read
    report = Report()
    if "relations" in suites:
        if params.m == 1 or params.n == 1:
            report.note(
                "relations",
                "serre-quartic",
                VACUOUS,
                "both quartic relations are vacuous when m = 1 or n = 1",
            )
        spaces = [shared_power(params, r, max_dim) for r in range(1, tensor_depth + 1)]
        powers = range(2, tensor_depth + 1)
        labels = [("relations", "V: ")] + [("relations", f"V^(x){r} [Delta]: ") for r in powers]
        opposite = {r - 1: ("relations", f"V^(x){r} [DeltaPrime]: ") for r in powers}
        report.extend(verify_relations(*spaces, labels=labels, opposite=opposite))
    if "hopf" in suites:
        report.extend(check_hopf_axioms(shared_power(params, 1, max_dim=max_dim)))
    if {"ybe", "hecke", "intertwiner"} & set(suites):
        from . import rmatrix

        # The first R-matrix suite's space, so that a refusal builds nothing.
        check_cap(params.size, 3 if "ybe" in suites else 2, max_dim)
        bundle = rmatrix.shared_bundle(params, max_dim)
        if "ybe" in suites:
            report.extend(rmatrix.verify_ybe(bundle, max_dim))
        if "hecke" in suites:
            report.extend(rmatrix.verify_hecke_and_spectrum(bundle, max_dim))
        if "intertwiner" in suites:
            report.extend(rmatrix.verify_intertwiner(bundle, max_dim))
            # At r = 2 the isomorphism is R itself, which verify_intertwiner covers.
            report.extend(rmatrix.verify_tensor_iso(bundle, 3, max_dim))
    if "invariant" in suites:
        import random

        from .invariants import random_word, verify_markov, verify_skein

        # At m = n verify_markov reports the suite unsupported; no skein site is drawn.
        report.extend(verify_markov(params, samples=samples, max_dim=max_dim))
        if params.m != params.n:
            rng = random.Random(424)
            sites = []
            for _ in range(max(1, samples // 2)):
                word = random_word(rng, 3, 2, 4)
                sites.append((word, rng.randrange(len(word.letters))))
            # A site drawn twice is one check.
            report.extend(verify_skein(params, list(dict.fromkeys(sites)), max_dim))
    return report


def _add_mn(parser: argparse.ArgumentParser):
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)


def _max_dim_from(args) -> int:
    cap = args.max_dim
    if cap is None:
        env = os.environ.get("DEGENQ_MAX_DIM")
        if not env:
            return DEFAULT_MAX_DIM
        try:
            cap = int(env)
        except ValueError:
            raise InvalidInput(f"DEGENQ_MAX_DIM must be an integer, got {env!r}") from None
    if cap < 1:
        raise InvalidInput(f"the dimension cap must be positive, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenq",
        description="Exact matrix models of degenerate quantum general linear groups.",
    )
    parser.add_argument("--max-dim", type=int, default=None, help="dimension cap (default 20000)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="link invariant of a braid closure")
    _add_mn(p_inv)
    p_inv.add_argument("--braid", required=True, help="whitespace-separated nonzero integers")
    p_inv.add_argument("--strands", type=int, default=None)
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(handler=_cmd_invariant)

    p_ver = sub.add_parser("verify", help="run verification suites")
    _add_mn(p_ver)
    p_ver.add_argument("--tensor-depth", type=int, default=3)
    p_ver.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p_ver.add_argument("--samples", type=int, default=10)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(handler=_cmd_verify)

    p_mod = sub.add_parser("simple-module", help="build a rank-(2,1) simple module")
    p_mod.add_argument("--ell", type=int, required=True)
    p_mod.add_argument("--sign1", choices=("+1", "-1", "1"), default="+1")
    p_mod.add_argument("--lambda2", required=True, help="scalar text, e.g. 'q^3' or '-1'")
    p_mod.add_argument("--matrices", action="store_true", help="include action matrices")
    p_mod.add_argument("--json", action="store_true")
    p_mod.set_defaults(handler=_cmd_simple_module)

    p_dec = sub.add_parser("decompose", help="braid-form spectral report on V (x) V")
    _add_mn(p_dec)
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(handler=_cmd_decompose)

    p_eval = sub.add_parser("eval", help="evaluate an expression in a representation")
    _add_mn(p_eval)
    p_eval.add_argument("--expr", required=True)
    p_eval.add_argument(
        "--rep",
        default="natural",
        help="natural, dual, or tensor<k> (e.g. tensor2, tensor3)",
    )
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(handler=_cmd_eval)
    return parser


# Each command returns (payload, text, exit code): main prints the payload as
# JSON under --json (verify's report through _report_json, every other payload
# through json.dumps) and calls text, which reads the payload's strings,
# otherwise.


def _cmd_invariant(args):
    from .invariants import homfly_variables, link_invariant

    params = GLParams(args.m, args.n)
    word = parse_braid(args.braid, args.strands)
    result = link_invariant(word, params, _max_dim_from(args))
    a, z = homfly_variables(params)
    payload = {
        "m": params.m,
        "n": params.n,
        "strands": word.strands,
        "writhe": result.writhe,
        "markov_trace": scalar_to_text(result.markov_trace),
        "invariant": scalar_to_text(result.invariant),
        "a": scalar_to_text(a),
        "z": scalar_to_text(z),
    }
    return payload, lambda: "\n".join([
        f"braid: {' '.join(map(str, word.letters)) or '(empty)'} on {payload['strands']} strands",
        f"writhe: {payload['writhe']}",
        f"markov trace: {payload['markov_trace']}",
        f"invariant: {payload['invariant']}",
        f"variables: a = {payload['a']}, z = {payload['z']}",
    ]), EXIT_OK


def _cmd_verify(args):
    params = GLParams(args.m, args.n)
    report = run_verify(
        params,
        tensor_depth=args.tensor_depth,
        suites=SUITES if args.suite == "all" else (args.suite,),
        max_dim=_max_dim_from(args),
        samples=args.samples,
    )
    payload = _report_payload(report)
    code = EXIT_OK if report.all_passed else EXIT_FAIL
    if code == EXIT_OK and report.unsupported and args.suite == "invariant":
        code = EXIT_UNSUPPORTED
    return payload, lambda: _report_text(payload), code


def _cmd_simple_module(args):
    from .sl21 import HighestWeightSL21, module_report

    sign1 = 1 if args.sign1 in ("+1", "1") else -1
    lambda2 = parse_scalar(args.lambda2)
    hw = HighestWeightSL21(args.ell, sign1, lambda2)
    cap = _max_dim_from(args)
    if 4 * (hw.ell + 1) > cap:
        raise ResourceLimit(f"induced dimension {4 * (hw.ell + 1)} exceeds cap {cap}")
    info = module_report(hw)
    module = info["module"]
    payload = {
        "ell": args.ell,
        "sign1": sign1,
        "lambda1": scalar_to_text(hw.lambda1),
        "lambda2": scalar_to_text(lambda2),
        "type": info["type"].value,
        "expected_dim": info["expected_dim"],
        "verma_dim": info["verma_dim"],
        "dim": module.dim,
        "basis": [f"F^{eF} f2^{e2} f1^{k} v" for (eF, e2, k) in module.basis_labels],
        "relations_ok": info["relations_ok"],
        "identities": [{"name": n, "ok": ok} for n, ok in info["identities"]],
    }
    if args.matrices:
        payload["action"] = {
            f"{kind}{idx}": _matrix_payload(mat)
            for (kind, idx), mat in sorted(module.rep.gens.items())
        }

    def text() -> str:
        lines = [
            f"highest weight: lambda1 = {payload['lambda1']}, lambda2 = {payload['lambda2']}",
            f"type: {payload['type']} (expected dimension {payload['expected_dim']})",
            f"induced dimension: {payload['verma_dim']}; simple dimension: {payload['dim']}",
            f"relation catalog: {'all pass' if payload['relations_ok'] else 'FAILURES'}",
        ]
        for x in payload["identities"]:
            lines.append(f"identity {'ok ' if x['ok'] else 'FAIL'}: {x['name']}")
        lines.append("basis: " + ", ".join(payload["basis"]))
        for name, mat in payload.get("action", {}).items():
            lines += [f"-- {name} --", _matrix_text(mat)]
        return "\n".join(lines)

    identities_ok = all(x for _, x in info["identities"])
    ok = info["relations_ok"] and module.dim == info["expected_dim"] and identities_ok
    return payload, text, EXIT_OK if ok else EXIT_FAIL


def _cmd_decompose(args):
    from . import rmatrix

    params = GLParams(args.m, args.n)
    cap = _max_dim_from(args)
    full = _report_payload(rmatrix.verify_hecke_and_spectrum(rmatrix.shared_bundle(params, cap), cap))
    payload = {
        "m": params.m,
        "n": params.n,
        "q_eigenspace_dim": rmatrix.symmetric_type_dim(params),
        "neg_qinv_eigenspace_dim": rmatrix.antisymmetric_type_dim(params),
        # The report's checks without their detail, and no summary.
        "checks": [{key: c[key] for key in ("suite", "name", "status")} for c in full["checks"]],
        "ok": full["ok"],
    }
    return payload, lambda: (
        f"braid-form eigenvalues: q (dim {payload['q_eigenspace_dim']}), "
        f"-q^-1 (dim {payload['neg_qinv_eigenspace_dim']})\n" + _report_text(full)
    ), EXIT_OK if payload["ok"] else EXIT_FAIL


def _build_rep(name: str, params: GLParams, max_dim: int):
    check_cap(params.size, 1, max_dim)
    rep = natural_rep(params)
    if name == "natural":
        return rep
    if name == "dual":
        return dual_rep(rep)
    digits = name.removeprefix("tensor")
    if digits != name and digits.isascii() and digits.isdigit() and int(digits) >= 1:
        return iterated_tensor(rep, int(digits), max_dim)
    raise InvalidInput(f"unknown representation {name!r}; use natural, dual or tensor<k> with k >= 1")


def _cmd_eval(args):
    params = GLParams(args.m, args.n)
    rep = _build_rep(args.rep, params, _max_dim_from(args))
    mat = eval_in_rep(parse_expr(args.expr, params), rep)
    payload = {
        "m": params.m,
        "n": params.n,
        "rep": args.rep,
        "expr": args.expr,
        "matrix": _matrix_payload(mat),
        "is_zero": mat.is_zero(),
    }
    return payload, lambda: _matrix_text(payload["matrix"]), EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call rather than at import."""
    return build_parser()


# Options whose value may begin with "-", as "-q^-1", "-e1" or "-1 2" do.
# argparse reads such a value as an option of its own, so main joins it to
# the option first, as "--lambda2=-q^-1".
_DASH_VALUE_OPTIONS = ("--lambda2", "--expr", "--braid")


def _join_dash_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        dash_value = token.startswith("-") and not token.startswith("--")
        if dash_value and out and out[-1] in _DASH_VALUE_OPTIONS:
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse has printed its usage and "error:" line and exits 2 on bad
        # input; 2 is reserved for unsupported requests.  --help exits 0.
        if exc.code == 2:
            return EXIT_FAIL
        raise
    try:
        payload, text, code = args.handler(args)
    except EqualMNUnsupported as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DegenqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    try:
        if not args.json:
            out = text()
        elif args.command == "verify":
            out = _report_json(payload)
        else:
            out = json.dumps(payload, sort_keys=True, indent=2)
        print(out, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at /dev/null, so that
        # the flush at exit does not fail again and print a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
