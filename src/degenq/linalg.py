"""Exact sparse linear algebra over Q(q).

Matrices and vectors store only nonzero entries.  Elimination is fraction
free: rows are cleared of denominators, updated by cross-multiplication over
Z[q], and stripped of integer/polynomial content after each step, so no
spurious denominators appear.  Pivots are chosen by smallest term count to
limit coefficient growth.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .scalars import LaurentPoly, RatFn, _lcm, _poly_divexact_dict, _poly_gcd_dict, _power

_ONE = RatFn.one()
_ZERO = RatFn.zero()
_LP_ZERO = LaurentPoly.zero()


class SparseMat:
    """A sparse matrix over Q(q): {(row, col): nonzero RatFn}.

    Products, sums, negation and ``scale`` use only the ring operations of the
    entries, so they work as well for Python int entries with an int scale
    factor; :func:`degenq.expr.eval_batch` evaluates over the integers that way,
    at q = 2^B.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries: dict[tuple[int, int], RatFn] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _raw(nrows: int, ncols: int, entries: dict[tuple[int, int], RatFn]) -> SparseMat:
        # Trusted constructor: entries must already be zero-free.
        mat = SparseMat.__new__(SparseMat)
        mat.nrows = nrows
        mat.ncols = ncols
        mat.entries = entries
        return mat

    @staticmethod
    def identity(n: int) -> SparseMat:
        return SparseMat(n, n, {(i, i): _ONE for i in range(n)})

    @staticmethod
    def zero(nrows: int, ncols: int) -> SparseMat:
        return SparseMat(nrows, ncols)

    @staticmethod
    def unit(nrows: int, ncols: int, i: int, j: int, value: RatFn = _ONE) -> SparseMat:
        """The matrix with a single entry at (i, j) (a scaled matrix unit)."""
        return SparseMat(nrows, ncols, {(i, j): value})

    @staticmethod
    def diagonal(values: list[RatFn]) -> SparseMat:
        n = len(values)
        return SparseMat(n, n, {(i, i): v for i, v in enumerate(values) if v})

    # -- queries -------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> RatFn:
        return self.entries.get(key, RatFn.zero())

    def is_zero(self) -> bool:
        return not self.entries

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self.entries)

    def diagonal_values(self) -> list[RatFn]:
        if self.nrows != self.ncols:
            raise DimensionMismatch("diagonal of a non-square matrix")
        return [self[i, i] for i in range(self.nrows)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseMat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("SparseMat is not hashable")

    def __repr__(self) -> str:
        return f"SparseMat({self.nrows}x{self.ncols}, nnz={len(self.entries)})"

    # -- arithmetic ----------------------------------------------------------

    def _check_same_shape(self, other: SparseMat):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: SparseMat) -> SparseMat:
        self._check_same_shape(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SparseMat._raw(self.nrows, self.ncols, out)

    def __neg__(self) -> SparseMat:
        return SparseMat._raw(self.nrows, self.ncols, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: SparseMat) -> SparseMat:
        return self + (-other)

    def scale(self, c: RatFn) -> SparseMat:
        if not c:
            return SparseMat(self.nrows, self.ncols)
        return SparseMat._raw(self.nrows, self.ncols, {k: c * v for k, v in self.entries.items()})

    def __mul__(self, other: SparseMat) -> SparseMat:
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        rows_b: dict[int, list[tuple[int, RatFn]]] = {}
        for (k, j), v in other.entries.items():
            rows_b.setdefault(k, []).append((j, v))
        out: dict[tuple[int, int], RatFn] = {}
        for (i, k), a in self.entries.items():
            row = rows_b.get(k)
            if row is None:
                continue
            for j, b in row:
                key = (i, j)
                s = out.get(key)
                prod = a * b
                s = prod if s is None else s + prod
                if s:
                    out[key] = s
                else:
                    del out[key]
        return SparseMat._raw(self.nrows, other.ncols, out)

    def __pow__(self, n: int) -> SparseMat:
        if self.nrows != self.ncols:
            raise DimensionMismatch("power of a non-square matrix")
        if n < 0:
            raise ValueError("negative matrix power")
        return _power(self, n, SparseMat.identity(self.nrows))

    def transpose(self) -> SparseMat:
        return SparseMat._raw(self.ncols, self.nrows, {(j, i): v for (i, j), v in self.entries.items()})

    def kron(self, other: SparseMat) -> SparseMat:
        """Kronecker product; left factor most significant in the index order.

        Where one factor's entry is exactly 1 the product is the other entry
        itself, shared rather than multiplied: scalars are immutable.
        """
        out: dict[tuple[int, int], RatFn] = {}
        nr, nc = other.nrows, other.ncols
        right = [(k, l, b, b == _ONE) for (k, l), b in other.entries.items()]
        for (i, j), a in self.entries.items():
            r0, c0 = i * nr, j * nc
            if a == _ONE:
                for k, l, b, _ in right:
                    out[(r0 + k, c0 + l)] = b
            else:
                for k, l, b, b_one in right:
                    out[(r0 + k, c0 + l)] = a if b_one else a * b
        return SparseMat._raw(self.nrows * nr, self.ncols * nc, out)

    def apply(self, v: Vec) -> Vec:
        if self.ncols != v.dim:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} applied to dim {v.dim}")
        out: dict[int, RatFn] = {}
        for (i, j), a in self.entries.items():
            x = v.entries.get(j)
            if x is None:
                continue
            s = out.get(i)
            prod = a * x
            s = prod if s is None else s + prod
            if s:
                out[i] = s
            else:
                del out[i]
        return Vec(self.nrows, out)

    def rows(self) -> list[dict[int, RatFn]]:
        out: list[dict[int, RatFn]] = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def columns(self) -> list[dict[int, RatFn]]:
        """Column j as {row: value}, for every j: the image of the j-th unit vector."""
        out: list[dict[int, RatFn]] = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    def rank(self) -> int:
        ech, pivots = echelon_rows(self.rows(), self.ncols)
        return len(pivots)


def kron(a: SparseMat, b: SparseMat) -> SparseMat:
    return a.kron(b)


class Vec:
    """A sparse column vector over Q(q)."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict[int, RatFn] | None = None):
        self.dim = dim
        self.entries = {k: v for k, v in (entries or {}).items() if v}

    @staticmethod
    def unit(dim: int, i: int) -> Vec:
        return Vec(dim, {i: _ONE})

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __getitem__(self, i: int) -> RatFn:
        return self.entries.get(i, RatFn.zero())

    def __add__(self, other: Vec) -> Vec:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Vec(self.dim, out)

    def __neg__(self) -> Vec:
        return Vec(self.dim, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: Vec) -> Vec:
        return self + (-other)

    def scale(self, c: RatFn) -> Vec:
        if not c:
            return Vec(self.dim)
        return Vec(self.dim, {k: c * v for k, v in self.entries.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vec) and self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        raise TypeError("Vec is not hashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {v}" for i, v in sorted(self.entries.items()))
        return f"Vec({self.dim}, {{{inner}}})"

    def leading_index(self) -> int | None:
        return min(self.entries) if self.entries else None


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------


def _clear_row(row: dict[int, RatFn]) -> dict[int, LaurentPoly]:
    """Scale a row by the lcm of its denominators, then strip content."""
    den = LaurentPoly.one()
    for v in row.values():
        den = _lcm(den, v.den)
    scale = RatFn(den)
    out = {j: (v * scale).num for j, v in row.items()}
    return _strip_content(out)


def _strip_content(row: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """Divide a Z[q] row by its common content (integer and polynomial) and q-shift."""
    row = {j: p for j, p in row.items() if p}
    if not row:
        return row
    shift = min(p.valuation for p in row.values())
    if shift:
        row = {j: p.shift(-shift) for j, p in row.items()}
    g: dict[int, int] | None = None
    for p in row.values():
        g = p.terms if g is None else _poly_gcd_dict(g, p.terms)
        if g == {0: 1}:
            return row
    assert g is not None
    return {j: LaurentPoly(_poly_divexact_dict(p.terms, g)) for j, p in row.items()}


def _ff_update(
    r: dict[int, LaurentPoly], pv: LaurentPoly, c: LaurentPoly, pivot_row: dict[int, LaurentPoly]
) -> dict[int, LaurentPoly]:
    """r <- pv*r - c*pivot_row, which stays in Z[q], with its content stripped."""
    out = {j: p * pv for j, p in r.items()}
    for j, p in pivot_row.items():
        s = out.get(j, _LP_ZERO) - p * c
        if s:
            out[j] = s
        else:
            out.pop(j, None)
    return _strip_content(out)


def _sub_scaled(row: dict[int, RatFn], c: RatFn, other: dict[int, RatFn]) -> None:
    """row <- row - c*other over the field, in place."""
    for j, x in other.items():
        s = row.get(j, _ZERO) - c * x
        if s:
            row[j] = s
        else:
            row.pop(j, None)


def echelon_rows(
    rows: list[dict[int, RatFn]], ncols: int
) -> tuple[list[dict[int, RatFn]], list[int]]:
    """Reduced row echelon form over Q(q) by fraction-free elimination.

    Returns (rows, pivot_columns); each returned row has pivot value 1 and
    zeros above and below its pivot.  Row order follows pivot columns.
    """
    work = [_clear_row(r) for r in rows if r]
    work = [r for r in work if r]
    done: list[dict[int, LaurentPoly]] = []
    pivots: list[int] = []
    while work:
        # Pivot: smallest leading column; among candidates, fewest stored terms.
        lead = min(min(r) for r in work)
        candidates = [r for r in work if min(r) == lead]
        pivot_row = min(candidates, key=lambda r: (len(r), sum(len(p.terms) for p in r.values())))
        work.remove(pivot_row)
        pv = pivot_row[lead]
        new_work = []
        for r in work:
            c = r.get(lead)
            if c is None:
                new_work.append(r)
                continue
            out = _ff_update(r, pv, c, pivot_row)
            if out:
                new_work.append(out)
        work = new_work
        done.append(pivot_row)
        pivots.append(lead)
    # Back-substitution to clear entries above pivots, still fraction free.
    for idx in range(len(done) - 1, -1, -1):
        col = pivots[idx]
        prow = done[idx]
        pv = prow[col]
        for upper in range(idx):
            r = done[upper]
            c = r.get(col)
            if c is not None:
                done[upper] = _ff_update(r, pv, c, prow)
    # Normalize pivots to 1 over the field.
    result = []
    for prow, col in zip(done, pivots):
        inv = RatFn(prow[col]).inv()
        result.append({j: RatFn(p) * inv for j, p in prow.items()})
    order = sorted(range(len(pivots)), key=lambda t: pivots[t])
    return [result[t] for t in order], sorted(pivots)


def nullspace(a: SparseMat) -> list[Vec]:
    """A basis of the right kernel {v : a v = 0}."""
    ech, pivots = echelon_rows(a.rows(), a.ncols)
    pivot_set = set(pivots)
    free_cols = [j for j in range(a.ncols) if j not in pivot_set]
    basis = []
    for f in free_cols:
        entries = {f: _ONE}
        for row, p in zip(ech, pivots):
            c = row.get(f)
            if c is not None:
                entries[p] = -c
        basis.append(Vec(a.ncols, entries))
    return basis


class Subspace:
    """A subspace of Q(q)^dim held as a reduced echelon basis of row vectors."""

    def __init__(self, dim: int, vectors: list[Vec] | None = None):
        self.dim = dim
        rows = []
        for v in vectors or []:
            if v.dim != dim:
                raise DimensionMismatch(f"vector dim {v.dim} in space of dim {dim}")
            if v:
                rows.append(dict(v.entries))
        self._rows, self._pivots = echelon_rows(rows, dim)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def basis(self) -> list[Vec]:
        return [Vec(self.dim, dict(r)) for r in self._rows]

    def pivot_columns(self) -> list[int]:
        return list(self._pivots)

    def reduce(self, v: Vec) -> Vec:
        """Residue of v after eliminating all pivot coordinates (0 iff v is a member)."""
        entries = dict(v.entries)
        for row, p in zip(self._rows, self._pivots):
            c = entries.get(p)
            if c is not None:
                _sub_scaled(entries, c, row)
        return Vec(self.dim, entries)

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def add_vector(self, v: Vec) -> bool:
        """Grow the subspace by v; returns True if the rank increased."""
        residue = self.reduce(v)
        if not residue:
            return False
        lead = residue.leading_index()
        inv = residue.entries[lead].inv()
        new_row = {j: inv * x for j, x in residue.entries.items()}
        # Clear the new pivot column from existing rows.
        for row in self._rows:
            c = row.get(lead)
            if c is not None:
                _sub_scaled(row, c, new_row)
        at = 0
        while at < len(self._pivots) and self._pivots[at] < lead:
            at += 1
        self._rows.insert(at, new_row)
        self._pivots.insert(at, lead)
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace) or self.dim != other.dim:
            return False
        return self._pivots == other._pivots and self._rows == other._rows

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rank={self.rank})"
