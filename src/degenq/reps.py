"""Representations: the natural module, duals, tensor powers, weight analysis.

Index conventions, fixed once for the whole package:

* The natural module V has basis v_1, ..., v_{m+n} (stored 0-based).
* Tensor product bases are ordered lexicographically with the LEFT factor most
  significant, matching :meth:`SparseMat.kron`.
* Iterated tensor powers are left-nested: V^{(x)r} = ((V (x) V) (x) V) ....
  The nesting order does not matter: every K is group-like and kron is
  associative, so both nestings give the same generator images
  (``test_coassociativity_matches_explicit_expansion`` pins one of them).

A representation stores one matrix per generator atom, including K inverses.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .errors import (
    DimensionMismatch,
    NotSimultaneouslyDiagonal,
    ParamsMismatch,
    ResourceLimit,
)
from .expr import (
    Gen,
    Prod,
    Program,
    antipode,
    cartan,
    cartan_inv,
    compile_batch,
    eval_batch,
)
from .linalg import SparseMat, Subspace, Vec, nullspace
from .relations import RelationEntry, k2rho_expr, relation_catalog
from .reports import Report
from .scalars import GLParams, RatFn

DEFAULT_MAX_DIM = 20000


class Weight(namedtuple("Weight", "values")):
    """Eigenvalues of K_1..K_{m+n} on a simultaneous eigenvector, as a tuple
    of ``RatFn``."""

    __slots__ = ()

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


class Representation:
    """A module of dimension dim: one matrix per generator atom (kind, index)."""

    __slots__ = ("params", "dim", "gens", "label")

    def __init__(
        self, params: GLParams, dim: int, gens: dict[tuple[str, int], SparseMat], label: str = ""
    ):
        for key, mat in gens.items():
            if mat.nrows != dim or mat.ncols != dim:
                raise DimensionMismatch(f"generator {key} is not {dim}x{dim}")
        # Cheap sanity on the Cartan part: K Kinv = 1.
        for b in params.index_set:
            if not _inverse_pair(gens[("K", b)], gens[("Kinv", b)]):
                raise ValueError(f"K{b} * K{b}^-1 is not the identity in {label!r}")
        self.params = params
        self.dim = dim
        self.gens = gens
        self.label = label

    def gen(self, kind: str, index: int) -> SparseMat:
        return self.gens[(kind, index)]

    def atoms(self) -> list[tuple[str, int]]:
        keys = []
        for a in self.params.iprime:
            keys.extend([("e", a), ("f", a)])
        for b in self.params.index_set:
            keys.extend([("K", b), ("Kinv", b)])
        return keys

    def generator_atoms(self) -> list[Gen]:
        """e_a, f_a, K_b as expression atoms (the API surface for Hopf checks)."""
        out = [Gen("e", a) for a in self.params.iprime]
        out += [Gen("f", a) for a in self.params.iprime]
        out += [Gen("K", b) for b in self.params.index_set]
        return out


def _inverse_pair(k: SparseMat, kinv: SparseMat) -> bool:
    """Whether k kinv = 1.  Two diagonals with every diagonal entry nonzero are
    compared entrywise, y = x^-1 as y == x.inv(): canonical forms are unique
    and ``inv`` needs no gcd, so this costs no product; any other pair is
    compared by the product."""
    dim = k.nrows
    if len(k.entries) == len(kinv.entries) == dim and k.is_diagonal() and kinv.is_diagonal():
        return all(kinv.entries[(i, i)] == k.entries[(i, i)].inv() for i in range(dim))
    return k * kinv == SparseMat.identity(dim)


def natural_rep(params: GLParams) -> Representation:
    """The defining module: e_a, f_a act by matrix units, K_b scales v_b by q_b."""
    d = params.size
    gens: dict[tuple[str, int], SparseMat] = {}
    for a in params.iprime:
        gens[("e", a)] = SparseMat.unit(d, d, a - 1, a)
        gens[("f", a)] = SparseMat.unit(d, d, a, a - 1)
    for b in params.index_set:
        qb = params.q_sub(b)
        diag = [qb if i == b - 1 else RatFn.one() for i in range(d)]
        gens[("K", b)] = SparseMat.diagonal(diag)
        gens[("Kinv", b)] = SparseMat.diagonal([v.inv() for v in diag])
    return Representation(params, d, gens, label=f"V({params.m},{params.n})")


def trivial_rep(params: GLParams) -> Representation:
    """The one-dimensional module of the counit: e_a, f_a act by 0, K_b^+-1 by 1."""
    zero, one = SparseMat.zero(1, 1), SparseMat.identity(1)
    gens = {(kind, a): zero for a in params.iprime for kind in ("e", "f")}
    gens.update({(kind, b): one for b in params.index_set for kind in ("K", "Kinv")})
    return Representation(params, 1, gens, label="trivial")


def dual_rep(rep: Representation) -> Representation:
    """The dual module: x acts by the transpose of the antipode image."""
    atoms = rep.atoms()
    images = eval_batch([antipode(Gen(kind, index)) for kind, index in atoms], rep)
    gens = {atom: mat.transpose() for atom, mat in zip(atoms, images)}
    return Representation(rep.params, rep.dim, gens, label=f"({rep.label})*")


def tensor_rep(r1: Representation, r2: Representation, side: str = "Delta") -> Representation:
    """Tensor product module under the chosen comultiplication."""
    if r1.params != r2.params:
        raise ParamsMismatch(f"{r1.label} over {r1.params} vs {r2.label} over {r2.params}")
    params = r1.params
    d1, d2 = r1.dim, r2.dim
    id1, id2 = SparseMat.identity(d1), SparseMat.identity(d2)
    # The Cartan legs of the coproduct: k_a^-1 on r1 and k_a on r2 for Delta,
    # k_a on r1 and k_a^-1 on r2 for DeltaPrime.
    if side == "Delta":
        left, right = cartan_inv, cartan
    elif side == "DeltaPrime":
        left, right = cartan, cartan_inv
    else:
        raise ValueError(f"unknown side {side!r}")
    iprime = list(params.iprime)
    k1s = eval_batch([left(a) for a in iprime], r1)
    k2s = eval_batch([right(a) for a in iprime], r2)
    gens: dict[tuple[str, int], SparseMat] = {}
    for a, k1, k2 in zip(iprime, k1s, k2s):
        if side == "Delta":
            gens[("e", a)] = r1.gen("e", a).kron(k2) + id1.kron(r2.gen("e", a))
            gens[("f", a)] = r1.gen("f", a).kron(id2) + k1.kron(r2.gen("f", a))
        else:
            gens[("e", a)] = r1.gen("e", a).kron(id2) + k1.kron(r2.gen("e", a))
            gens[("f", a)] = r1.gen("f", a).kron(k2) + id1.kron(r2.gen("f", a))
    for b in params.index_set:
        gens[("K", b)] = r1.gen("K", b).kron(r2.gen("K", b))
        gens[("Kinv", b)] = r1.gen("Kinv", b).kron(r2.gen("Kinv", b))
    tag = "" if side == "Delta" else "'"
    return Representation(params, d1 * d2, gens, label=f"{r1.label}(x){tag}{r2.label}")


def check_cap(d: int, r: int, max_dim: int) -> None:
    """Refuse the r-th tensor power of a d-dimensional space above the cap.

    For d >= 2, d^r >= 2^r exceeds the cap once r reaches the cap's bit
    length, so a huge r is refused without forming d^r."""
    if (d > 1 and r >= max_dim.bit_length()) or d**r > max_dim:
        raise ResourceLimit(f"dimension {d}^{r} exceeds cap {max_dim}")


def iterated_tensor(
    rep: Representation, r: int, side: str = "Delta", max_dim: int = DEFAULT_MAX_DIM
) -> Representation:
    """Left-nested r-th tensor power of rep."""
    if r < 1:
        raise ValueError("tensor power needs r >= 1")
    check_cap(rep.dim, r, max_dim)
    out = rep
    for _ in range(r - 1):
        out = tensor_rep(out, rep, side)
    return out


MODULE_MEMO_SIZE = 8  # (m, n) points: the verify grid's six, which hold the invariant ladder's four


class Setup:
    """What ``degenq verify``, ``invariant`` and ``decompose`` build more than
    once for one (m, n), kept for the process's life by :func:`setup`, the
    program's one set-up memo: fixed size, no option, one clear
    (``clear_setups``).  Each layer keeps its kinds under its own keys, so no
    lower module imports a higher one: here V ("V"), V* ("V*"), V's
    left-nested tensor powers (("power", r, side)), the relation catalog with
    its Program ("catalog"), the trivial module with the S^2 Program ("hopf");
    in :mod:`degenq.rmatrix` the R-matrix bundle ("bundle") and each suite's
    spaces and Programs (the suite's name); in :mod:`degenq.invariants` one
    braid evaluator per strand count (("evaluator", strands)).  Modules keep
    their int forms (:mod:`degenq.expr`), so a warm job measures, encodes and
    compiles nothing.  Set-up only, no result: every job runs every check, and
    a one-shot CLI process gains only the sharing inside one job.  Callers
    mutate nothing they read, and two rules hold for every kind:

    * A kind derived from a kept object (V* from V, a suite's set-up from the
      bundle) is kept only for that very object (:meth:`derived`); any other
      object, such as a test's module or a ``_replace`` copy of the bundle,
      has it built on each call.
    * The getter of a kept object checks the dimension cap of the object's
      space before the lookup (``shared_power``, ``rmatrix.shared_bundle``,
      ``invariants._evaluator``), so a refusal builds nothing.

    Memory.  The lru bounds the (m, n) points at ``MODULE_MEMO_SIZE``.  In one
    point d = m + n >= 2 and every power and evaluator passed the cap, so r
    and strands are at most log2 of the largest cap used.
    """

    def __init__(self):
        self._kinds: dict = {}

    def get(self, key, build, *args):
        """The kind under key, built as build(*args) on the key's first use."""
        if key not in self._kinds:
            self._kinds[key] = build(*args)
        return self._kinds[key]

    def derived(self, key, source_key, source, build):
        """build(source), kept under key when source is the object kept under
        source_key, and built on each call for any other object."""
        if source is not self._kinds.get(source_key):
            return build(source)
        return self.get(key, build, source)


@functools.lru_cache(maxsize=MODULE_MEMO_SIZE)
def setup(params: GLParams) -> Setup:
    """The set-up store of (m, n); see :class:`Setup`."""
    return Setup()


clear_setups = setup.cache_clear


def shared_power(
    params: GLParams, r: int, side: str = "Delta", max_dim: int = DEFAULT_MAX_DIM
) -> Representation:
    """V's left-nested r-th tensor power (V for r = 1) from the set-up store,
    each extending the (r-1)-th by one factor, once d^r passes the cap."""
    if r < 1:
        raise ValueError("tensor power needs r >= 1")
    check_cap(params.size, r, max_dim)
    store = setup(params)
    rep = power = store.get("V", natural_rep, params)
    for k in range(2, r + 1):
        power = store.get(("power", k, side), tensor_rep, power, rep, side)
    return power


def _catalog(params: GLParams) -> tuple[tuple[RelationEntry, ...], Program]:
    """The relation catalog of (m, n) and its expressions compiled once."""
    entries = tuple(relation_catalog(params))
    return entries, compile_batch([entry.expr for entry in entries])


def _weight_spaces(rep: Representation) -> list[tuple[Weight, list[int]]]:
    """The coordinates spanning each simultaneous K eigenspace, in order of their
    first coordinate; requires diagonal K matrices in the working basis."""
    diags = []
    for b in rep.params.index_set:
        mat = rep.gen("K", b)
        if not mat.is_diagonal():
            raise NotSimultaneouslyDiagonal(f"K{b} is not diagonal in the basis of {rep.label!r}")
        diags.append(mat.diagonal_values())
    buckets: dict[tuple[RatFn, ...], list[int]] = {}
    for i in range(rep.dim):
        buckets.setdefault(tuple(d[i] for d in diags), []).append(i)
    return [(Weight(key), indices) for key, indices in buckets.items()]


def highest_weight_vectors(rep: Representation) -> list[tuple[Weight, Vec]]:
    """A weight basis of the joint kernel of all raising generators, found one
    K-weight space at a time; requires diagonal K matrices.

    The e_a images of a weight space's basis are columns of the e_a matrices.
    A one-dimensional weight space is singular exactly when all of its columns
    are empty; a larger one contributes the null space of its stacked columns.
    """
    raising = [rep.gen("e", a).columns() for a in rep.params.iprime]
    found: list[tuple[Weight, Vec]] = []
    for weight, indices in _weight_spaces(rep):
        if len(indices) == 1:
            if not any(cols[indices[0]] for cols in raising):
                found.append((weight, Vec.unit(rep.dim, indices[0])))
            continue
        entries: dict[tuple[int, int], RatFn] = {}
        for block, cols in enumerate(raising):
            for t, j in enumerate(indices):
                for i, val in cols[j].items():
                    entries[(block * rep.dim + i, t)] = val
        stacked = SparseMat(len(raising) * rep.dim, len(indices), entries)
        for combo in nullspace(stacked):
            v = Vec(rep.dim, {indices[t]: c for t, c in combo.entries.items()})
            found.append((weight, v))
    return found


def submodule_closure(rep: Representation, seeds: list[Vec]) -> Subspace:
    """Smallest subspace containing the seeds and closed under every generator;
    requires diagonal K matrices.

    The search runs on weight vectors.  A submodule holds the K-weight
    components of each of its vectors, so the seeds are split into theirs.
    The K_b^{+-1} scale a weight vector, so a span of weight vectors needs
    closing under e_a and f_a only.  The result is the reduced echelon basis
    of the span, which depends on the span alone.

    The generators are applied to the rows that :meth:`Subspace.add_vector`
    returns, not to the vectors added: each returned row lies in the span
    and, with the rows before it, spans what the vectors added so far span,
    so closing the rows closes the span.  A row of the reduced echelon basis
    of a span of weight vectors is a weight vector (the basis splits by
    weight space and is unique), so the search stays on weight vectors, and
    a row's entries do not compound in degree from step to step as the raw
    images' do.
    """
    for s in seeds:
        if s.dim != rep.dim:
            raise DimensionMismatch(f"seed dim {s.dim} in module of dim {rep.dim}")
    space_of = {i: t for t, (_, indices) in enumerate(_weight_spaces(rep)) for i in indices}
    space = Subspace(rep.dim, [])
    frontier = []
    for s in seeds:
        parts: dict[int, dict[int, RatFn]] = {}
        for i, x in s.entries.items():
            parts.setdefault(space_of[i], {})[i] = x
        for part in parts.values():
            row = space.add_vector(Vec(rep.dim, part))
            if row is not None:
                frontier.append(row)
    mats = [rep.gen(kind, a) for a in rep.params.iprime for kind in ("e", "f")]
    while frontier:
        next_frontier = []
        for v in frontier:
            for mat in mats:
                w = mat.apply(v)
                if w and (row := space.add_vector(w)) is not None:
                    next_frontier.append(row)
        frontier = next_frontier
    return space


def quotient_rep(rep: Representation, sub: Subspace, label: str = "") -> Representation:
    """The quotient module rep / sub.

    The quotient basis is the set of non-pivot coordinates of the subspace's
    echelon basis; classes are computed by eliminating pivot coordinates.
    """
    pivots = set(sub.pivot_columns())
    keep = [j for j in range(rep.dim) if j not in pivots]
    pos = {j: t for t, j in enumerate(keep)}
    gens: dict[tuple[str, int], SparseMat] = {}
    for key, mat in rep.gens.items():
        cols = mat.columns()
        entries: dict[tuple[int, int], RatFn] = {}
        for t, j in enumerate(keep):
            image = sub.reduce(Vec(rep.dim, cols[j]))
            for i, val in image.entries.items():
                entries[(pos[i], t)] = val
        gens[key] = SparseMat(len(keep), len(keep), entries)
    return Representation(rep.params, len(keep), gens, label=label or f"{rep.label}/sub")


def verify_relations(rep: Representation) -> Report:
    """Evaluate every entry of rep's catalog in rep, as the program compiled
    once per (m, n); all must be exactly zero."""
    entries, program = setup(rep.params).get("catalog", _catalog, rep.params)
    report = Report()
    for entry, value in zip(entries, program.run(rep)):
        report.add_zero("relations", entry.name, value)
    return report


def _hopf_setup(params: GLParams) -> tuple:
    """(the trivial module, the S^2 checks' Program, their names) of (m, n);
    the S^2 checks are compiled once."""
    trivial = trivial_rep(params)
    # Unflattened products, so that K2rho and its inverse are one node each.
    k2rho = k2rho_expr(params)
    k2rho_inv = antipode(k2rho)
    atoms = trivial.generator_atoms()
    diffs = [antipode(antipode(g)) - Prod((k2rho, g, k2rho_inv)) for g in atoms]
    names = [f"S^2 = Ad(K2rho) on {g.kind}{g.index}" for g in atoms]
    return trivial, compile_batch(diffs), names


def check_hopf_axioms(rep: Representation) -> Report:
    """The counit and the antipode against every defining relation, and the
    inner form of the antipode squared.

    * hopf-counit: eps(rel) = 0 per catalog entry: the trivial module, where
      the counit acts, satisfies the catalog.  eps is a property of the
      algebra, so this check reads no matrix of the module under test;
    * hopf-antipode: rho(S(rel)) = 0: the dual module satisfies the catalog;
    * hopf-s2: S^2 = Ad(K_2rho) on the generators, as matrix identities.

    The coproduct is checked by the relation suite on tensor powers.  The
    trivial module and the S^2 Program depend on (m, n) only; rep's dual is
    derived from rep.  Both come from the set-up store (:class:`Setup`).
    """
    store = setup(rep.params)
    trivial, s2, names = store.get("hopf", _hopf_setup, rep.params)
    dual = store.derived("V*", "V", rep, dual_rep)
    report = Report()
    for suite, module in (("hopf-counit", trivial), ("hopf-antipode", dual)):
        for c in verify_relations(module).checks:
            report.add(suite, c.name, c.ok, c.detail)
    # k2rho k2rho_inv telescopes to the K_b K_b^-1, and building the dual of
    # rep, here or in the store, refused rep unless each is 1.
    for name, value in zip(names, s2.run(rep)):
        report.add_zero("hopf-s2", name, value)
    return report
