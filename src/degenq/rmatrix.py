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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimit
from .linalg import SparseMat, Subspace, Vec, kron
from .reports import Report
from .reps import (
    DEFAULT_MAX_DIM,
    _witness,
    natural_rep,
    shared_power,
    submodule_closure,
    tensor_rep,
)
from .scalars import GLParams, Q_MINUS_QINV, RatFn


@dataclass
class RMatrixBundle:
    params: GLParams
    R: SparseMat
    Rinv: SparseMat
    Rcheck: SparseMat
    Rcheckinv: SparseMat
    P: SparseMat
    T: SparseMat


def _r_zero_part(params: GLParams, diag_values) -> SparseMat:
    d = params.size
    entries = {}
    for a in range(d):
        for b in range(d):
            i = a * d + b
            entries[(i, i)] = diag_values(a + 1) if a == b else RatFn.one()
    return SparseMat(d * d, d * d, entries)


def _theta(params: GLParams, sign: int = 1) -> SparseMat:
    d = params.size
    coeff = Q_MINUS_QINV if sign > 0 else -Q_MINUS_QINV
    mat = SparseMat.identity(d * d)
    entries = dict(mat.entries)
    for a in range(d):
        for b in range(a + 1, d):
            # e_ab (x) e_ba sends v_b (x) v_a to v_a (x) v_b
            entries[(a * d + b, b * d + a)] = coeff
    return SparseMat(d * d, d * d, entries)


def flip_matrix(d: int) -> SparseMat:
    return SparseMat(d * d, d * d, {(a * d + b, b * d + a): RatFn.one() for a in range(d) for b in range(d)})


def build_bundle(params: GLParams) -> RMatrixBundle:
    """All six operators; inverses are exact closed forms."""
    r0 = _r_zero_part(params, lambda a: params.q_sub(a))
    r0inv = _r_zero_part(params, lambda a: params.q_sub(a).inv())
    theta = _theta(params, +1)
    theta_inv = _theta(params, -1)
    t0 = _r_zero_part(params, lambda a: RatFn.q(1))
    P = flip_matrix(params.size)
    R = r0 * theta
    Rinv = theta_inv * r0inv
    return RMatrixBundle(
        params=params,
        R=R,
        Rinv=Rinv,
        Rcheck=P * R,
        Rcheckinv=Rinv * P,
        P=P,
        T=t0 * theta,
    )


def perturbed_r(params: GLParams) -> SparseMat:
    """Negative control: the degenerate diagonal entries p replaced by q^-1.

    q^-1 is not a root of x^2 - (q - q^-1)x - 1, so the braid relation must
    fail.  (Replacing p by q instead would reproduce the reference matrix T,
    which satisfies it.)
    """
    bad = _r_zero_part(
        params, lambda a: RatFn.q(1) if a <= params.m else RatFn.q(-1)
    )
    return bad * _theta(params, +1)


def leg_operator(op: SparseMat, i: int, j: int, r: int, d: int) -> SparseMat:
    """Place a two-site operator on legs (i, j) of a d^r-dimensional space, 1-based i < j."""
    assert 1 <= i < j <= r
    assert op.nrows == d * d and op.ncols == d * d
    # Index helper: positions other than i, j run over d^(r-2) assignments.
    others = [t for t in range(r) if t not in (i - 1, j - 1)]
    weights = [d ** (r - 1 - t) for t in range(r)]
    entries: dict[tuple[int, int], RatFn] = {}
    base_count = d ** len(others)
    for ((ai, aj), (bi, bj)), val in (
        (((x // d, x % d), (y // d, y % d)), v) for (x, y), v in op.entries.items()
    ):
        for rest in range(base_count):
            row = ai * weights[i - 1] + aj * weights[j - 1]
            col = bi * weights[i - 1] + bj * weights[j - 1]
            rem = rest
            for t in reversed(others):
                digit = rem % d
                rem //= d
                row += digit * weights[t]
                col += digit * weights[t]
            entries[(row, col)] = val
    return SparseMat(d**r, d**r, entries)


def leg_operator_by_conjugation(op: SparseMat, i: int, j: int, r: int, d: int) -> SparseMat:
    """Same operator via permutation conjugation of op (x) id^(r-2); cross-check path."""
    full = op
    for _ in range(r - 2):
        full = kron(full, SparseMat.identity(d))
    # Build the permutation sending slot 1 -> i, slot 2 -> j, rest in order.
    target = [i - 1, j - 1] + [t for t in range(r) if t not in (i - 1, j - 1)]
    perm_entries = {}
    for idx in range(d**r):
        digits = []
        rem = idx
        for _ in range(r):
            digits.append(rem % d)
            rem //= d
        digits.reverse()
        new_digits = [0] * r
        for slot, pos in enumerate(target):
            new_digits[pos] = digits[slot]
        new_idx = 0
        for t in range(r):
            new_idx = new_idx * d + new_digits[t]
        perm_entries[(new_idx, idx)] = RatFn.one()
    perm = SparseMat(d**r, d**r, perm_entries)
    return perm * full * perm.transpose()


def symmetric_type_dim(params: GLParams) -> int:
    m, n = params.m, params.n
    return m * (m + 1) // 2 + m * n + n * (n - 1) // 2


def antisymmetric_type_dim(params: GLParams) -> int:
    m, n = params.m, params.n
    return m * (m - 1) // 2 + m * n + n * (n + 1) // 2


def _add_identity(
    report: Report, suite: str, name: str, lhs: SparseMat | Vec, rhs: SparseMat | Vec
) -> None:
    """Add the check lhs == rhs, with the witness of lhs - rhs as detail when it fails."""
    ok = lhs == rhs
    report.add(suite, name, ok, "" if ok else _witness(lhs - rhs))


def _braid_sides(mat: SparseMat, d: int) -> tuple[SparseMat, SparseMat]:
    """R_12 R_13 R_23 and R_23 R_13 R_12 on V^(x)3 for R = mat."""
    r12, r13, r23 = (leg_operator(mat, i, j, 3, d) for i, j in ((1, 2), (1, 3), (2, 3)))
    return r12 * r13 * r23, r23 * r13 * r12


def verify_ybe(bundle: RMatrixBundle) -> Report:
    """The braid relation on V^(x)3 for R and the reference T, plus the failing
    negative control."""
    report = Report()
    d = bundle.params.size
    for name, mat in (("R", bundle.R), ("T", bundle.T)):
        _add_identity(report, "ybe", f"{name} braids exactly", *_braid_sides(mat, d))
    _add_identity(report, "ybe", "R invertible", bundle.R * bundle.Rinv, SparseMat.identity(d * d))
    lhs, rhs = _braid_sides(perturbed_r(bundle.params), d)
    report.add("ybe", "negative control (degenerate diagonal spoiled) fails", lhs != rhs)
    return report


def _projectors(rc: SparseMat) -> tuple[SparseMat, SparseMat]:
    """The projectors of Rcheck onto its q- and (-q^-1)-eigenspaces."""
    ident = SparseMat.identity(rc.nrows)
    q = RatFn.q(1)
    denom = (q + q.inv()).inv()
    return (rc + ident.scale(q.inv())).scale(denom), (ident.scale(q) - rc).scale(denom)


def verify_hecke_and_spectrum(bundle: RMatrixBundle) -> Report:
    """(Rcheck - q)(Rcheck + q^-1) = 0 plus the full spectral decomposition."""
    report = Report()
    params = bundle.params
    d = params.size
    rc = bundle.Rcheck
    ident = SparseMat.identity(d * d)
    q = RatFn.q(1)
    hecke = (rc - ident.scale(q)) * (rc + ident.scale(q.inv()))
    report.add("hecke", "(Rcheck - q)(Rcheck + q^-1) = 0", hecke.is_zero(), _witness(hecke))

    proj_s, proj_a = _projectors(rc)
    _add_identity(report, "hecke", "P_s idempotent", proj_s * proj_s, proj_s)
    _add_identity(report, "hecke", "P_a idempotent", proj_a * proj_a, proj_a)
    _add_identity(report, "hecke", "P_s P_a = 0", proj_s * proj_a, SparseMat(d * d, d * d))
    _add_identity(report, "hecke", "P_s + P_a = 1", proj_s + proj_a, ident)

    dim_s, dim_a = symmetric_type_dim(params), antisymmetric_type_dim(params)
    report.add(
        "hecke",
        f"q-eigenspace dimension = {dim_s}",
        proj_s.rank() == dim_s,
        detail=f"rank {proj_s.rank()}",
    )
    report.add(
        "hecke",
        f"(-q^-1)-eigenspace dimension = {dim_a}",
        proj_a.rank() == dim_a,
        detail=f"rank {proj_a.rank()}",
    )

    v11 = Vec.unit(d * d, 0)
    _add_identity(report, "hecke", "Rcheck(v1 x v1) = q v1 x v1", rc.apply(v11), v11.scale(q))
    if d >= 2:
        w = Vec(d * d, {0 * d + 1: RatFn.one(), 1 * d + 0: -q.inv()})
        name = "Rcheck(v1 x v2 - q^-1 v2 x v1) = -q^-1 (...)"
        _add_identity(report, "hecke", name, rc.apply(w), w.scale(-q.inv()))
    return report


def verify_intertwiner(bundle: RMatrixBundle) -> Report:
    """R (nu x nu)Delta(x) = (nu x nu)Delta'(x) R on every generator, and
    Rcheck commutes with the Delta-action, for nu the natural module."""
    report = Report()
    params = bundle.params
    vv_delta = shared_power(params, 2, "Delta")
    vv_prime = shared_power(params, 2, "DeltaPrime")
    for g in vv_delta.generator_atoms():
        name = f"{g.kind}{g.index}"
        delta_mat = vv_delta.gen(g.kind, g.index)
        prime_mat = vv_prime.gen(g.kind, g.index)
        lhs, rhs = bundle.R * delta_mat, prime_mat * bundle.R
        _add_identity(report, "intertwiner", f"R Delta({name}) = Delta'({name}) R", lhs, rhs)
        lhs, rhs = bundle.Rcheck * delta_mat, delta_mat * bundle.Rcheck
        _add_identity(report, "intertwiner", f"[Rcheck, Delta({name})] = 0", lhs, rhs)
    return report


def _halftwist_pairs(r: int) -> list[tuple[int, int]]:
    # (1,2), (1,3), (2,3), (1,4), (2,4), (3,4), ...: block j collects R_{ij}, i < j.
    return [(i, j) for j in range(2, r + 1) for i in range(1, j)]


def tensor_iso(params: GLParams, r: int, max_dim: int = DEFAULT_MAX_DIM) -> SparseMat:
    """An isomorphism from the Delta-power module structure on V^(x)r to the
    Delta'-power structure: the half-twist ordered product of leg-placed R's,

        prod_{j=2..r} ( R_{1j} R_{2j} ... R_{j-1,j} ).

    For r = 2 this is R itself.  (The one-block product R_{1r}...R_{r-1,r}
    alone is only the inductive factor and does not intertwine.)
    """
    if r < 2:
        raise ValueError("tensor_iso needs r >= 2")
    return _leg_product(params, r, max_dim, "R", _halftwist_pairs(r))


def tensor_iso_inverse(params: GLParams, r: int, max_dim: int = DEFAULT_MAX_DIM) -> SparseMat:
    return _leg_product(params, r, max_dim, "Rinv", reversed(_halftwist_pairs(r)))


def _leg_product(params: GLParams, r: int, max_dim: int, which: str, pairs) -> SparseMat:
    """The product over pairs (i, j) of the bundle operator ``which`` placed on
    legs i, j of V^(x)r; refuses a space above the dimension cap."""
    d = params.size
    if d**r > max_dim:
        raise ResourceLimit(f"dimension {d}^{r} exceeds cap {max_dim}")
    op = getattr(build_bundle(params), which)
    out = SparseMat.identity(d**r)
    for i, j in pairs:
        out = out * leg_operator(op, i, j, r, d)
    return out


def verify_tensor_iso(params: GLParams, r: int, max_dim: int = DEFAULT_MAX_DIM) -> Report:
    report = Report()
    iso = tensor_iso(params, r, max_dim)
    iso_inv = tensor_iso_inverse(params, r, max_dim)
    _add_identity(report, "tensor-iso", f"r={r}: invertible", iso * iso_inv, SparseMat.identity(iso.nrows))
    power_delta = shared_power(params, r, "Delta", max_dim)
    power_prime = shared_power(params, r, "DeltaPrime", max_dim)
    for g in power_delta.generator_atoms():
        name = f"{g.kind}{g.index}"
        lhs = iso * power_delta.gen(g.kind, g.index)
        rhs = power_prime.gen(g.kind, g.index) * iso
        _add_identity(report, "tensor-iso", f"r={r}: intertwines {name}", lhs, rhs)
    return report


def eigenspace_closures_match(params: GLParams) -> Report:
    """The projector images are exactly the closures of the two top vectors."""
    report = Report()
    bundle = build_bundle(params)
    rep = natural_rep(params)
    vv = tensor_rep(rep, rep, "Delta")
    d = params.size
    q = RatFn.q(1)
    proj_s, proj_a = _projectors(bundle.Rcheck)

    sym_closure = submodule_closure(vv, [Vec.unit(d * d, 0)])
    w = Vec(d * d, {0 * d + 1: RatFn.one(), 1 * d + 0: -q.inv()})
    asym_closure = submodule_closure(vv, [w])

    image_s = Subspace(d * d, [Vec(d * d, col) for col in proj_s.columns()])
    image_a = Subspace(d * d, [Vec(d * d, col) for col in proj_a.columns()])
    report.add("spectrum", "P_s image = closure(v1 x v1)", image_s == sym_closure)
    report.add("spectrum", "P_a image = closure(v1 x v2 - q^-1 v2 x v1)", image_a == asym_closure)
    report.add(
        "spectrum",
        "closures intersect trivially and fill the space",
        sym_closure.intersect(asym_closure).rank == 0
        and sym_closure.rank + asym_closure.rank == d * d,
    )
    return report
