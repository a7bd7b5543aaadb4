"""Spans and counters around the public entry points of each degenq layer,
installed from the benchmark's own files (nothing inside ``src/`` changes).

Module-level functions are wrapped in their defining module and in every
``degenq`` module that imported them by name; methods are wrapped on their
class.  Spans are kept in memory as [name, start, end, parent, job] and
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute); "Class.method" wraps a method.
SPANNED = (
    ("cli.run_verify", "degenq.cli", "run_verify"),
    ("linalg.matmul", "degenq.linalg", "SparseMat.__mul__"),
    ("linalg.kron", "degenq.linalg", "SparseMat.kron"),
    ("linalg.echelon", "degenq.linalg", "echelon_rows"),
    ("expr.eval_in_rep", "degenq.expr", "eval_in_rep"),
    ("relations.catalog", "degenq.relations", "relation_catalog"),
    ("reps.iterated_tensor", "degenq.reps", "iterated_tensor"),
    ("reps.verify_relations", "degenq.reps", "verify_relations"),
    ("reps.hopf", "degenq.reps", "check_hopf_axioms"),
    ("reps.highest_weight_vectors", "degenq.reps", "highest_weight_vectors"),
    ("reps.submodule_closure", "degenq.reps", "submodule_closure"),
    ("reps.quotient_rep", "degenq.reps", "quotient_rep"),
    ("rmatrix.build_bundle", "degenq.rmatrix", "build_bundle"),
    ("rmatrix.leg_operator", "degenq.rmatrix", "leg_operator"),
    ("rmatrix.ybe", "degenq.rmatrix", "verify_ybe"),
    ("rmatrix.hecke", "degenq.rmatrix", "verify_hecke_and_spectrum"),
    ("rmatrix.intertwiner", "degenq.rmatrix", "verify_intertwiner"),
    ("rmatrix.intertwiner", "degenq.rmatrix", "verify_tensor_iso"),
    ("invariants.link_invariant", "degenq.invariants", "link_invariant"),
    ("invariants.markov_trace", "degenq.invariants", "markov_trace"),
    ("invariants.braid_rep", "degenq.invariants", "braid_rep"),
    ("invariants.evaluator_init", "degenq.invariants", "BraidEvaluator.__init__"),
    ("invariants.braid_matrix", "degenq.invariants", "BraidEvaluator.matrix"),
    ("invariants.markov", "degenq.invariants", "verify_markov"),
    ("invariants.skein", "degenq.invariants", "verify_skein"),
    ("homfly_oracle.evaluate", "degenq.homfly_oracle", "HomflyOracle.evaluate"),
    ("sl21.module_report", "degenq.sl21", "module_report"),
    ("sl21.verma", "degenq.sl21", "verma_module"),
    ("sl21.simple_quotient", "degenq.sl21", "simple_quotient"),
    ("sl21.identities", "degenq.sl21", "check_structural_identities"),
)
# Called too often for a span each: counted only.
COUNTED = (
    ("linalg.apply", "degenq.linalg", "SparseMat.apply"),
    ("linalg.subspace_add", "degenq.linalg", "Subspace.add_vector"),
)


def _on_result(name: str, counts: Counter, args, result) -> None:
    if name == "linalg.matmul":
        counts["linalg.matmul.nnz_out"] += len(result.entries)
        dim = max(result.nrows, result.ncols)
        if dim > counts["linalg.matmul.dim_max"]:
            counts["linalg.matmul.dim_max"] = dim
    elif name == "linalg.echelon":
        counts["linalg.echelon.rows_in"] += len(args[0])
        counts["linalg.echelon.pivots"] += len(result[1])
    elif name == "linalg.subspace_add":
        counts["linalg.subspace_add.accepted"] += bool(result)
    elif name == "relations.catalog":
        counts["relations.catalog.entries"] += len(result)
    elif name == "invariants.braid_matrix":
        counts["invariants.braid_letters"] += len(args[1].letters)


class Tracer:
    """Records spans and counts while installed; ``job`` tags new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the harness opens itself."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap_span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            _on_result(name, self.counts, args, result)
            return result

        return wrapper

    def _wrap_count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            result = fn(*args, **kwargs)
            _on_result(name, counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for group, wrap in ((SPANNED, self._wrap_span), (COUNTED, self._wrap_count)):
            for name, module, attr in group:
                owner, key, fn = resolve(module, attr)
                wrapper = wrap(name, fn)
                if owner is None:
                    for mod in _degenq_modules():
                        for k, v in list(vars(mod).items()):
                            if v is fn:
                                self._set(mod, k, wrapper)
                else:
                    self._set(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, old = self._undo.pop()
            setattr(obj, key, old)

    def _set(self, obj, key: str, value) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)


def resolve(module: str, attr: str):
    """(class or None, attribute name, current function) for a target."""
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, vars(cls)[meth]
    return None, attr, getattr(mod, attr)


def _degenq_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "degenq" or name.startswith("degenq."))]


def span_times(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: call count, inclusive seconds (spans nested in a span of
    the same name are not counted twice) and self seconds (duration minus the
    part its child spans cover)."""
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_s: Counter = Counter()
    child_cover = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_cover[rec[3]] += rec[2] - rec[1]
    for idx, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_cover[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start
    return calls, incl, self_s


def time_outside(spans: list[list], name: str, child: str) -> float:
    """Seconds in spans called ``name`` minus their direct ``child`` spans."""
    total = 0.0
    for rec in spans:
        if rec[0] == name:
            total += rec[2] - rec[1]
    for rec in spans:
        if rec[0] == child and rec[3] >= 0 and spans[rec[3]][0] == name:
            total -= rec[2] - rec[1]
    return total


def count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Spans called ``name`` with a span called ``ancestor`` above them."""
    count = 0
    for rec in spans:
        if rec[0] != name:
            continue
        p = rec[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        count += p >= 0
    return count
