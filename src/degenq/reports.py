"""Report containers shared by the verification suites and the CLI."""

from __future__ import annotations

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
UNSUPPORTED = "unsupported"


def witness(diff) -> str:
    """The detail of a matrix or vector identity whose two sides differ by the
    ``SparseMat`` diff: its nnz and its first nonzero entry; empty when diff is
    zero.  A vector is a column, so its witness names the entry (i, 0)."""
    if not diff.entries:
        return ""
    key = min(diff.entries)
    return f"{len(diff.entries)} nonzero entries; entry {key} = {diff.entries[key]}"


class CheckResult:
    """One check: its suite, its name, its status (PASS, FAIL, VACUOUS or
    UNSUPPORTED) and a detail line."""

    __slots__ = ("suite", "name", "status", "detail")

    def __init__(self, suite: str, name: str, status: str, detail: str = ""):
        self.suite = suite
        self.name = name
        self.status = status
        self.detail = detail

    def __repr__(self) -> str:
        return f"CheckResult({self.suite!r}, {self.name!r}, {self.status!r}, {self.detail!r})"

    @property
    def ok(self) -> bool:
        return self.status != FAIL


class Report:
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult] | None = None):
        self.checks = [] if checks is None else checks

    def add(self, suite: str, name: str, passed: bool, detail: str = "") -> CheckResult:
        return self.note(suite, name, PASS if passed else FAIL, detail)

    def add_zero(self, suite: str, name: str, diff) -> CheckResult:
        """A matrix or vector identity whose two sides differ by diff: it passes
        when diff has no entries, with the witness as its detail."""
        return self.add(suite, name, not diff.entries, witness(diff))

    def note(self, suite: str, name: str, status: str, detail: str = "") -> CheckResult:
        r = CheckResult(suite, name, status, detail)
        self.checks.append(r)
        return r

    def extend(self, other: Report) -> None:
        self.checks.extend(other.checks)

    @property
    def all_passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    @property
    def unsupported(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == UNSUPPORTED]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.checks:
            out[c.status] = out.get(c.status, 0) + 1
        return out
