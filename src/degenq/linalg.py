"""Exact sparse linear algebra over Q(q).

Matrices store only nonzero entries.  A vector is a dim x 1 ``SparseMat``,
its entries keyed (i, 0) (:meth:`SparseMat.column`).  There is one elimination
routine, :meth:`Subspace.add_vector`: it reduces a vector against a reduced
echelon basis over the field Q(q), scales its residue to a leading 1 and
clears that column from the other rows.  A span has exactly one reduced
echelon basis, so :func:`echelon_rows`, ``SparseMat.rank`` and
:func:`nullspace` read it from a Subspace built row by row.
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .scalars import RatFn, _power

_ONE = RatFn.one()
_ZERO = RatFn.zero()


class SparseMat:
    """A sparse matrix over Q(q): {(row, col): nonzero RatFn}.

    Products, sums, negation and ``scale`` use only the ring operations of the
    entries, so they work as well for Python int entries with an int scale
    factor; :func:`degenq.expr.eval_batch` evaluates over the integers that way,
    at q = 2^B.  A matrix is never changed once built, so it keeps what is
    derived from it: a product keeps its right operand's row index on that
    operand, for the next product, and evaluation keeps a generator's integer
    form in ``_encoding`` (:class:`degenq.expr._Encoding`).
    """

    __slots__ = ("nrows", "ncols", "entries", "_rows", "_encoding")

    def __init__(self, nrows: int, ncols: int, entries: dict[tuple[int, int], RatFn] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {k: v for k, v in (entries or {}).items() if v}
        self._rows = self._encoding = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _raw(nrows: int, ncols: int, entries: dict[tuple[int, int], RatFn]) -> SparseMat:
        # Trusted constructor: entries must already be zero-free.
        mat = SparseMat.__new__(SparseMat)
        mat.nrows = nrows
        mat.ncols = ncols
        mat.entries = entries
        mat._rows = mat._encoding = None
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
    def column(dim: int, entries: dict[int, RatFn]) -> SparseMat:
        """The dim x 1 column vector with entry x at (i, 0) for each nonzero i: x."""
        return SparseMat._raw(dim, 1, {(i, 0): x for i, x in entries.items() if x})

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

    def _row_index(self) -> tuple[dict[int, list[tuple[int, RatFn]]], bool]:
        """{row: [(col, value), ...]} and whether the matrix is diagonal; built
        on the first call and kept."""
        got = self._rows
        if got is None:
            index: dict[int, list[tuple[int, RatFn]]] = {}
            diagonal = True
            for (k, j), v in self.entries.items():
                row = index.get(k)
                if row is None:
                    index[k] = [(j, v)]
                else:
                    row.append((j, v))
                if k != j:
                    diagonal = False
            got = self._rows = (index, diagonal)
        return got

    def __mul__(self, other: SparseMat) -> SparseMat:
        """The product, from the right operand's kept row index.  Where one side
        is diagonal, each output entry is one product and nothing is summed;
        the entries form an integral domain, so no product is zero."""
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        rows_b, right_diagonal = other._row_index()
        out: dict[tuple[int, int], RatFn] = {}
        if right_diagonal:
            for (i, k), a in self.entries.items():
                row = rows_b.get(k)
                if row is not None:
                    out[(i, k)] = a * row[0][1]
        elif self._rows[1] if self._rows is not None else self.is_diagonal():
            for (i, _), a in self.entries.items():
                row = rows_b.get(i)
                if row is not None:
                    for j, b in row:
                        out[(i, j)] = a * b
        else:
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

    def apply(self, v: SparseMat) -> SparseMat:
        """The column self * v, without building v's row index."""
        _check_column(v, self.ncols)
        xs = {j: x for (j, _), x in v.entries.items()}
        out: dict[int, RatFn] = {}
        for (i, j), a in self.entries.items():
            x = xs.get(j)
            if x is None:
                continue
            s = out.get(i)
            prod = a * x
            s = prod if s is None else s + prod
            if s:
                out[i] = s
            else:
                del out[i]
        return SparseMat.column(self.nrows, out)

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


def _check_column(v: SparseMat, dim: int) -> None:
    if v.nrows != dim or v.ncols != 1:
        raise DimensionMismatch(f"{v.nrows}x{v.ncols} where a column of dim {dim} is expected")


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


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
    """Reduced row echelon form over Q(q) of the span of rows.

    Returns (rows, pivot_columns); each returned row has pivot value 1 and
    zeros in every other pivot column.  Row order follows pivot columns.  The
    rows are added one at a time to a :class:`Subspace`, whose reduced basis
    is the unique one of the span.
    """
    space = Subspace(ncols, [SparseMat.column(ncols, r) for r in rows if r])
    pivots = space.pivot_columns()
    return [space._rows[p] for p in pivots], pivots


def nullspace(a: SparseMat) -> list[SparseMat]:
    """A basis of the right kernel {v : a v = 0}, as columns."""
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
        basis.append(SparseMat.column(a.ncols, entries))
    return basis


class Subspace:
    """A subspace of Q(q)^dim held as a reduced echelon basis of rows
    {col: value}, keyed by pivot; vectors enter and leave as dim x 1 columns."""

    def __init__(self, dim: int, vectors: list[SparseMat] | None = None):
        self.dim = dim
        self._rows: dict[int, dict[int, RatFn]] = {}
        for v in vectors or []:
            self.add_vector(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self) -> list[SparseMat]:
        return [SparseMat.column(self.dim, self._rows[p]) for p in self.pivot_columns()]

    def pivot_columns(self) -> list[int]:
        return sorted(self._rows)

    def reduce(self, v: SparseMat) -> SparseMat:
        """Residue of v after eliminating all pivot coordinates (0 iff v is a
        member).  A row is zero at every other pivot, so only the rows of the
        pivots in v's support are subtracted, in ascending pivot order."""
        _check_column(v, self.dim)
        entries = {i: x for (i, _), x in v.entries.items()}
        for p in sorted(p for p in entries if p in self._rows):
            _sub_scaled(entries, entries[p], self._rows[p])
        return SparseMat.column(self.dim, entries)

    def add_vector(self, v: SparseMat) -> SparseMat | None:
        """Grow the subspace by v.  Returns a copy of the row added, the
        residue of v scaled to a leading 1, or None when v is a member; a
        full space returns None before reducing anything.

        The row is a multiple of v minus a combination of earlier rows, so
        the rows returned so far span what v and the vectors added before it
        span: a caller may go on with the row in place of v.  The row is one
        of the span's reduced echelon basis at that moment, so its entries
        depend on that span alone, not on how v was found."""
        _check_column(v, self.dim)
        if len(self._rows) == self.dim:
            return None
        residue = self.reduce(v).entries
        if not residue:
            return None
        lead = min(residue)[0]
        inv = residue[(lead, 0)].inv()
        new_row = {j: inv * x for (j, _), x in residue.items()}
        # Clear the new pivot column from existing rows.
        for row in self._rows.values():
            c = row.get(lead)
            if c is not None:
                _sub_scaled(row, c, new_row)
        self._rows[lead] = new_row
        return SparseMat.column(self.dim, new_row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace) or self.dim != other.dim:
            return False
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rank={self.rank})"
