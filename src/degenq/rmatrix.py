"""The R-matrix on V (x) V, its braid form, and the verification suites.

Conventions:

* R = R0 Theta with R0 = 1 + sum_a (q_a - 1) e_aa (x) e_aa and
  Theta = 1 + (q - q^-1) sum_{a<b} e_ab (x) e_ba, so that

      R(v_a (x) v_b) = v_a (x) v_b                          a < b
                       q_a v_a (x) v_a                      a = b
                       v_a (x) v_b + (q-q^-1) v_b (x) v_a   a > b

* T = T0 Theta is the reference matrix with every q_a replaced by q (the
  non-degenerate case); it agrees with R off the diagonal a = b.
* Rcheck = P R with P the flip; eigenvalues q and -q^-1 with multiplicities
  binom(m+n, 2) + m and binom(m+n, 2) + n.
* Leg placement on V^(x)r keeps the package-wide convention: left factor most
  significant.

Checking.  Every matrix identity of the ybe, hecke, intertwiner and
tensor-iso suites is one expression lhs - rhs over fixed matrices of a space
V^(x)r: ``Gen(name, (i, j))`` is the bundle operator ``name`` (R, Rinv,
Rcheck, T, or the spoiled R ``Rbad``) placed on legs i, j, and the kinds e, f,
K, Kinv and the same kinds primed are the Delta- and Delta'-actions of V^(x)r.
Delta' is tau Delta, so each primed kind is its Delta twin conjugated by the
permutation that reverses the tensor order.  At r = 2 that permutation is the
flip P, and Rcheck = P R, so the intertwiner suite's "R Delta(x) = Delta'(x) R"
and "[Rcheck, Delta(x)] = 0" are one identity; both lines are kept, so that
the report reads as before.  The parser builds no such atom.  One runner
serves every suite: it checks the dimension cap of V^(x)r first, then runs
the suite's Program in its space.
The expressions depend on (m, n) alone, so the set-up store
(:class:`degenq.reps.Setup`) keeps each suite's Program, compiled once per
(m, n) by :func:`degenq.expr.compile_batch` and evaluated over the integers at
q = 2^B like the relation catalog; the space, and the Program's plan over
it, are kept only for the store's bundle, which ``shared_bundle`` hands out.
No result is kept: every run runs every Program and reads every check.  A
passing check costs no decode; a failing one's witness is read from the
decoded difference, canonical over Q(q).  The Hecke suite's one identity is
its quadratic: the projectors onto the two eigenspaces are nonzero multiples
of Rcheck + q^-1 and Rcheck - q, so it reads the eigenspace dimensions as
their ranks, and it applies Rcheck to one eigenvector of each.  The
tensor-iso suite checks that the half-twist product of R legs intertwines;
that it is invertible is ybe's "R invertible".
"""

from __future__ import annotations

from collections import namedtuple

from .expr import Expr, Gen, Prod, Program, Scalar, compile_batch, make_prod
from .linalg import SparseMat
from .reports import Report
from .reps import DEFAULT_MAX_DIM, check_cap, conjugated, generator_atoms, reversal, setup, shared_power
from .scalars import GLParams, Q_MINUS_QINV, RatFn

_ONE = RatFn.one()


class RMatrixBundle(namedtuple("RMatrixBundle", "params R Rinv Rcheck Rcheckinv T")):
    """The ``GLParams`` and the ``SparseMat`` forms R, R^-1, Rcheck,
    Rcheck^-1 and T on V (x) V; ``_replace`` gives a copy with some swapped."""

    __slots__ = ()


def _braid_matrix(params: GLParams, diag_values, sign: int = 1) -> SparseMat:
    """R0 Theta with diagonal values diag_values(a) on v_a (x) v_a; sign -1
    negates Theta's off-diagonal part, which with the inverse diagonal gives
    Theta^-1 R0^-1 = R^-1.  The diagonal is listed first, so that every column
    of the flipped forms P R and R^-1 P lists its flip entry first, as
    ``BraidEvaluator`` expects (it starts a column from its first entry)."""
    d = params.size
    coeff = Q_MINUS_QINV if sign > 0 else -Q_MINUS_QINV
    entries = {(i, i): diag_values(i // d + 1) if i // d == i % d else _ONE for i in range(d * d)}
    for a in range(d):
        for b in range(a + 1, d):
            # e_ab (x) e_ba sends v_b (x) v_a to v_a (x) v_b
            entries[(a * d + b, b * d + a)] = coeff
    return SparseMat(d * d, d * d, entries)


def _flipped(i: int, d: int) -> int:
    """The index of v_b (x) v_a for i the index of v_a (x) v_b."""
    return i % d * d + i // d


def build_bundle(params: GLParams) -> RMatrixBundle:
    """All five operators; inverses are exact closed forms, flips permute
    rows or columns."""
    d = params.size
    R = _braid_matrix(params, params.q_sub)
    Rinv = _braid_matrix(params, lambda a: params.q_sub(a).inv(), -1)
    return RMatrixBundle(
        params=params,
        R=R,
        Rinv=Rinv,
        Rcheck=SparseMat(d * d, d * d, {(_flipped(i, d), j): v for (i, j), v in R.entries.items()}),
        Rcheckinv=SparseMat(d * d, d * d, {(i, _flipped(j, d)): v for (i, j), v in Rinv.entries.items()}),
        T=_braid_matrix(params, lambda a: RatFn.q(1)),
    )


def shared_bundle(params: GLParams, max_dim: int = DEFAULT_MAX_DIM) -> RMatrixBundle:
    """The set-up store's bundle of (m, n), once V (x) V passes the cap."""
    check_cap(params.size, 2, max_dim)
    return setup(params).get("bundle", build_bundle, params)


def perturbed_r(params: GLParams) -> SparseMat:
    """Negative control: the degenerate diagonal entries p replaced by q^-1.

    q^-1 is not a root of x^2 - (q - q^-1)x - 1, so the braid relation must
    fail.  (Replacing p by q instead would reproduce the reference matrix T,
    which satisfies it.)
    """
    return _braid_matrix(params, lambda a: RatFn.q(1) if a <= params.m else RatFn.q(-1))


def leg_operator(op: SparseMat, i: int, j: int, r: int, d: int) -> SparseMat:
    """Place a two-site operator on legs (i, j) of a d^r-dimensional space, 1-based i < j."""
    if not 1 <= i < j <= r:
        raise ValueError(f"legs ({i}, {j}) are not 1 <= i < j <= {r}")
    if op.nrows != d * d or op.ncols != d * d:
        raise ValueError(f"{op.nrows}x{op.ncols} is not a two-site operator on dimension {d}")
    # Entry (x, y) acts on the digits at legs i and j, place values wi and wj,
    # of every index: a base index with zero digits there, plus row or col.
    wi, wj = d ** (r - i), d ** (r - j)
    bases = [t for t in range(d**r) if t // wi % d == 0 == t // wj % d]
    entries = {}
    for (x, y), val in op.entries.items():
        row, col = x // d * wi + x % d * wj, y // d * wi + y % d * wj
        for base in bases:
            entries[(base + row, base + col)] = val
    return SparseMat(d**r, d**r, entries)


def symmetric_type_dim(params: GLParams) -> int:
    m, n = params.m, params.n
    return m * (m + 1) // 2 + m * n + n * (n - 1) // 2


def antisymmetric_type_dim(params: GLParams) -> int:
    m, n = params.m, params.n
    return m * (m - 1) // 2 + m * n + n * (n + 1) // 2


# -- the checks as expressions over fixed matrices --------------------------------


class _Space(namedtuple("_Space", "dim gens")):
    """Fixed matrices on one space, read by a Program as a representation's
    generators: the atom Gen(kind, index) is gens[(kind, index)]."""

    __slots__ = ()


def _halftwist_pairs(r: int) -> list[tuple[int, int]]:
    # (1,2), (1,3), (2,3), (1,4), (2,4), (3,4), ...: block j collects R_{ij}, i < j.
    return [(i, j) for j in range(2, r + 1) for i in range(1, j)]


def _compiled(checks, params: GLParams, r: int) -> tuple[list[str], Program]:
    pairs = checks(params, r)
    return [name for name, _ in pairs], compile_batch([x for _, x in pairs])


def _suite_differences(
    bundle: RMatrixBundle, key, r: int, ops: tuple[str, ...], actions: bool, checks, max_dim: int
) -> dict[str, SparseMat]:
    """Each check of a suite on V^(x)r, lhs - rhs by name, once d^r passes
    the cap.  ``checks(params, r)`` lists the suite's (name, expression)
    pairs, which depend on (m, n) and key alone, so they are compiled once,
    kept under key.  The space holds each bundle operator named in ops (``Rbad`` is
    :func:`perturbed_r`) on every pair of legs and, with actions, the Delta-
    and Delta'-actions of V^(x)r, the second's kinds primed and each the
    reversal conjugate of its Delta twin; it is derived from the bundle under
    (key, "space") (:meth:`degenq.reps.Setup.derived`)."""
    params = bundle.params
    d = params.size
    check_cap(d, r, max_dim)
    store = setup(params)
    names, program = store.get(key, _compiled, checks, params, r)

    def space(source: RMatrixBundle) -> _Space:
        mats = {name: perturbed_r(params) if name == "Rbad" else getattr(source, name) for name in ops}
        gens = {(x, p): leg_operator(op, *p, r, d) for x, op in mats.items() for p in _halftwist_pairs(r)}
        if actions:
            power, rev = shared_power(params, r, max_dim), reversal(d, d**r)
            gens.update(power.gens)
            gens.update({(kind + "'", i): conjugated(mat, rev) for (kind, i), mat in power.gens.items()})
        return _Space(d**r, gens)

    spaces = [store.derived((key, "space"), "bundle", bundle, space)]
    return dict(zip(names, store.run_each(program, spaces)[0]))


_BRAIDED = ("R", "T", "Rbad")


def _braid_checks(params: GLParams, r: int) -> list[tuple[str, Expr]]:
    """R_12 R_13 R_23 - R_23 R_13 R_12, named R, for each operator R of _BRAIDED."""
    legs = {name: [Gen(name, pair) for pair in ((1, 2), (1, 3), (2, 3))] for name in _BRAIDED}
    return [(name, make_prod(x) - make_prod(x[::-1])) for name, x in legs.items()]


def verify_ybe(bundle: RMatrixBundle, max_dim: int = DEFAULT_MAX_DIM) -> Report:
    """The braid relation on V^(x)3 for R and the reference T, plus the failing
    negative control; refuses V^(x)3 above the dimension cap."""
    diffs = _suite_differences(bundle, "ybe", 3, _BRAIDED, False, _braid_checks, max_dim)
    inverse = [("R invertible", Gen("R", (1, 2)) * Gen("Rinv", (1, 2)) - 1)]
    diffs.update(_suite_differences(bundle, ("ybe", 2), 2, ("R", "Rinv"), False, lambda *_: inverse, max_dim))
    report = Report()
    for name in ("R", "T"):
        report.add_zero("ybe", f"{name} braids exactly", diffs[name])
    report.add_zero("ybe", "R invertible", diffs["R invertible"])
    report.add("ybe", "negative control (degenerate diagonal spoiled) fails", not diffs["Rbad"].is_zero())
    return report


def _hecke_checks(params: GLParams, r: int) -> list[tuple[str, Expr]]:
    q, rc = RatFn.q(1), Gen("Rcheck", (1, 2))
    return [("(Rcheck - q)(Rcheck + q^-1) = 0", Prod((rc - Scalar(q), rc + Scalar(q.inv()))))]


def verify_hecke_and_spectrum(bundle: RMatrixBundle, max_dim: int = DEFAULT_MAX_DIM) -> Report:
    """(Rcheck - q)(Rcheck + q^-1) = 0, the dimension of each eigenspace and
    one eigenvector in each; refuses V^(x)2 above the dimension cap."""
    params = bundle.params
    d = params.size
    report = Report()
    q = RatFn.q(1)
    diffs = _suite_differences(bundle, "hecke", 2, ("Rcheck",), False, _hecke_checks, max_dim)
    for name, value in diffs.items():
        report.add_zero("hecke", name, value)
    ident = SparseMat.identity(d * d)
    rank_s = (bundle.Rcheck + ident.scale(q.inv())).rank()
    rank_a = (bundle.Rcheck - ident.scale(q)).rank()
    dim_s, dim_a = symmetric_type_dim(params), antisymmetric_type_dim(params)
    report.add("hecke", f"q-eigenspace dimension = {dim_s}", rank_s == dim_s, f"rank {rank_s}")
    report.add("hecke", f"(-q^-1)-eigenspace dimension = {dim_a}", rank_a == dim_a, f"rank {rank_a}")
    vectors = [
        ("Rcheck(v1 x v1) = q v1 x v1", {0: _ONE}, q),
        ("Rcheck(v1 x v2 - q^-1 v2 x v1) = -q^-1 (...)", {1: _ONE, d: -q.inv()}, -q.inv()),
    ]
    for name, coords, c in vectors:
        w = SparseMat.column(d * d, coords)
        report.add_zero("hecke", name, bundle.Rcheck.apply(w) - w.scale(c))
    return report


def _intertwiner_checks(params: GLParams, r: int) -> list[tuple[str, Expr]]:
    R, rc = Gen("R", (1, 2)), Gen("Rcheck", (1, 2))
    checks = []
    for g in generator_atoms(params):
        name = f"{g.kind}{g.index}"
        checks.append((f"R Delta({name}) = Delta'({name}) R", R * g - Gen(g.kind + "'", g.index) * R))
        checks.append((f"[Rcheck, Delta({name})] = 0", rc * g - g * rc))
    return checks


def verify_intertwiner(bundle: RMatrixBundle, max_dim: int = DEFAULT_MAX_DIM) -> Report:
    """R (nu x nu)Delta(x) = (nu x nu)Delta'(x) R on every generator, and
    Rcheck commutes with the Delta-action, for nu the natural module; refuses
    V^(x)2 above the dimension cap."""
    report = Report()
    diffs = _suite_differences(bundle, "intertwiner", 2, ("R", "Rcheck"), True, _intertwiner_checks, max_dim)
    for name, value in diffs.items():
        report.add_zero("intertwiner", name, value)
    return report


def _iso_expr(r: int) -> Expr:
    """The isomorphism from the Delta-power module structure on V^(x)r to the
    Delta'-power structure: the half-twist ordered product of leg-placed R's,

        prod_{j=2..r} ( R_{1j} R_{2j} ... R_{j-1,j} ).

    For r = 2 this is R itself.  (The one-block product R_{1r}...R_{r-1,r}
    alone is only the inductive factor and does not intertwine.)  It is
    invertible because R is.
    """
    return make_prod([Gen("R", p) for p in _halftwist_pairs(r)])


def _tensor_iso_checks(params: GLParams, r: int) -> list[tuple[str, Expr]]:
    iso = _iso_expr(r)
    # Unflattened products, so that the isomorphism is one node.
    return [
        (f"r={r}: intertwines {g.kind}{g.index}", Prod((iso, g)) - Prod((Gen(g.kind + "'", g.index), iso)))
        for g in generator_atoms(params)
    ]


def verify_tensor_iso(bundle: RMatrixBundle, r: int, max_dim: int = DEFAULT_MAX_DIM) -> Report:
    """The half-twist product of R legs intertwines the Delta- and
    Delta'-actions on V^(x)r, r >= 2; refuses V^(x)r above the dimension cap."""
    if r < 2:
        raise ValueError("the tensor isomorphism needs r >= 2")
    report = Report()
    diffs = _suite_differences(bundle, ("tensor-iso", r), r, ("R",), True, _tensor_iso_checks, max_dim)
    for name, value in diffs.items():
        report.add_zero("tensor-iso", name, value)
    return report
