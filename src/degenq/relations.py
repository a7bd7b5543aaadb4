"""The machine catalog of defining relations and derived identities.

Every catalog entry is an algebra expression that must evaluate to the zero
matrix in any valid representation, written in LHS - RHS form.  Identities
with a 1/(q - q^-1) coefficient are stored multiplied through by q - q^-1,
which does not change the zero test.

Root vectors: for indices i < j,

    E[i][j] = E[i][j-1] E[j-1][j] - q_{j-1}^-1 E[j-1][j] E[i][j-1]   (raising)
    E[j][i] = E[j][j-1] E[j-1][i] - q_{j-1}   E[j-1][i] E[j][j-1]   (lowering)

with base cases E[a][a+1] = e_a and E[a+1][a] = f_a.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import IndexOutOfRange
from .expr import Expr, K, Kinv, cartan, cartan_inv, e, f, make_pow, make_prod, one
from .scalars import GLParams, Q_MINUS_QINV, RatFn, quantum_int


class RelationEntry(namedtuple("RelationEntry", "family label expr")):
    """One identity: family tag, a readable label, and the expression to test."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return f"{self.family}: {self.label}"


def root_vector(i: int, j: int, params: GLParams) -> Expr:
    """The iterated q-bracket root vector E_{ij}; raising for i < j, lowering for i > j."""
    size = params.size
    if not (1 <= i <= size and 1 <= j <= size):
        raise IndexOutOfRange(f"root vector indices ({i}, {j}) outside 1..{size}")
    if i == j:
        raise IndexOutOfRange("root vector needs two distinct indices")
    if i < j:
        if j == i + 1:
            return e(i)
        upper = root_vector(i, j - 1, params)
        last = e(j - 1)
        return upper * last - params.q_sub(j - 1).inv() * (last * upper)
    if i == j + 1:
        return f(j)
    lower = root_vector(i - 1, j, params)
    first = f(i - 1)
    return first * lower - params.q_sub(i - 1) * (lower * first)


def _k2rho_exponents(params: GLParams) -> dict[int, int]:
    """The exponent of K_a in K_2rho, for each index a.

    It is m-n+1-2a for a <= m and m+n+1-2(a-m) beyond, with an extra factor
    prod K_a prod K_{m+mu}^-1 when m+n is odd.
    """
    m, n = params.m, params.n
    odd = (m + n) % 2
    exps = {a: m - n + 1 - 2 * a + odd for a in range(1, m + 1)}
    for mu in range(1, n + 1):
        exps[m + mu] = m + n + 1 - 2 * mu - odd
    return exps


def k2rho_expr(params: GLParams) -> Expr:
    """The group-like element implementing the antipode squared by conjugation."""
    exps = _k2rho_exponents(params)
    factors = [make_pow(K(b), ex) for b, ex in sorted(exps.items()) if ex]
    return make_prod(factors) if factors else one()


def k2rho_weights(params: GLParams) -> list[tuple[int, int]]:
    """K_2rho acts on the basis vector v_a of the natural module by the signed
    monomial q_a^(ex_a) = sign * q^e; the (sign, e) of each index a in order.
    q_a is q for a <= m and -q^-1 beyond."""
    out = []
    for a, ex in sorted(_k2rho_exponents(params).items()):
        out.append((1, ex) if a <= params.m else (-1 if ex % 2 else 1, -ex))
    return out


def _commutator(x: Expr, y: Expr) -> Expr:
    return x * y - y * x


def quartic_elements(params: GLParams) -> tuple[Expr, Expr]:
    """The two quartic Serre elements built on the degenerate node (needs m, n >= 2)."""
    m = params.m
    e_mid = root_vector(m - 1, m + 2, params)
    f_mid = root_vector(m + 2, m - 1, params)
    return _commutator(e(m), e_mid), _commutator(f(m), f_mid)


def odd_pair_element(params: GLParams) -> Expr:
    """F = f_{m-1} f_m - q f_m f_{m-1}, the square-zero product on the degenerate node."""
    m = params.m
    return f(m - 1) * f(m) - RatFn.q(1) * (f(m) * f(m - 1))


def relation_catalog(params: GLParams) -> list[RelationEntry]:
    """Every relation of the algebra at (m, n), plus derived identities that
    must vanish in all representations.  A family stated for the e's and
    mirrored for the f's is generated once, over both letters.  A
    subexpression that recurs across the catalog (a root vector, say) is one
    slot of the catalog's compiled program (:func:`degenq.expr.compile_batch`)."""
    m, n = params.m, params.n
    size = params.size
    iset = list(params.index_set)
    iprime = list(params.iprime)
    q = RatFn.q(1)
    # a mirrored family's letter, generator and sign of its K-conjugation exponent
    mirror = (("e", e, 1), ("f", f, -1))
    entries: list[RelationEntry] = []

    def add(family: str, label: str, expr: Expr):
        entries.append(RelationEntry(family, label, expr))

    # Cartan units and commutativity
    for b in iset:
        add("cartan-unit", f"K{b}*K{b}^-1 - 1", K(b) * Kinv(b) - one())
        add("cartan-unit", f"K{b}^-1*K{b} - 1", Kinv(b) * K(b) - one())
    for a in iset:
        for b in range(a + 1, size + 1):
            add("cartan-commute", f"[K{a}, K{b}]", _commutator(K(a), K(b)))
            add("cartan-commute", f"[K{a}, K{b}^-1]", _commutator(K(a), Kinv(b)))

    # Conjugation of e/f by K
    for a in iset:
        for b in iprime:
            exp = (1 if a == b else 0) - (1 if a == b + 1 else 0)
            for x, gen, sign in mirror:
                add(
                    f"cartan-conj-{x}",
                    f"K{a}*{x}{b} - q_{a}^{sign * exp}*{x}{b}*K{a}",
                    K(a) * gen(b) - params.q_sub(a) ** (sign * exp) * (gen(b) * K(a)),
                )

    # e-f commutators (scaled through by q - q^-1)
    for a in iprime:
        for b in iprime:
            comm = _commutator(e(a), f(b))
            if a != b:
                add("ef-commutator", f"[e{a}, f{b}]", comm)
            else:
                scaled = Q_MINUS_QINV * comm - (cartan(a) - cartan_inv(a))
                add("ef-commutator", f"(q - q^-1)*[e{a}, f{a}] - (k{a} - k{a}^-1)", scaled)

    # Distant commutativity
    for a in iprime:
        for b in range(a + 2, size):
            for x, gen, _ in mirror:
                add("distant-commute", f"[{x}{a}, {x}{b}]", _commutator(gen(a), gen(b)))

    # Cubic Serre relations away from the degenerate node
    for a in iprime:
        if a == m:
            continue
        qa = params.q_sub(a)
        coeff = qa + qa.inv()
        for b in (a - 1, a + 1):
            if b in iprime:
                for x, gen, _ in mirror:
                    ga, gb = gen(a), gen(b)
                    add(
                        f"serre-cubic-{x}",
                        f"{x}{a}^2*{x}{b} - (q_{a}+q_{a}^-1)*{x}{a}*{x}{b}*{x}{a} + {x}{b}*{x}{a}^2",
                        ga**2 * gb - coeff * (ga * gb * ga) + gb * ga**2,
                    )

    # Degenerate node is nilpotent
    for x, gen, _ in mirror:
        add("nilpotent-degenerate", f"{x}{m}^2", gen(m) ** 2)

    # Quartic Serre relations (vacuous unless m >= 2 and n >= 2)
    if m >= 2 and n >= 2:
        for label, element in zip(("Q+", "Q-"), quartic_elements(params)):
            add("serre-quartic", label, element)

    # Identities among lowering root vectors
    E = {(i, j): root_vector(i, j, params) for i in range(1, size + 1) for j in range(1, i)}
    for i in range(1, m + 1):
        for k in range(m + 1, size + 1):
            add("root-nilpotent", f"E[{k}{i}]^2", make_prod([E[(k, i)], E[(k, i)]]))
    for t1, t2, t3, t4 in itertools.combinations(range(1, size + 1), 4):
        for i, j, k, l, order in ((t1, t2, t3, t4, "i<j<k<l"), (t2, t3, t1, t4, "k<i<j<l")):
            add("root-commute", f"[E[{j}{i}], E[{l}{k}]] ({order})", _commutator(E[(j, i)], E[(l, k)]))
        i, k, j, l = t1, t2, t3, t4
        add(
            "root-straighten",
            f"[E[{j}{i}], E[{l}{k}]] - (q-q^-1)*E[{l}{i}]*E[{j}{k}]",
            _commutator(E[(j, i)], E[(l, k)]) - Q_MINUS_QINV * (E[(l, i)] * E[(j, k)]),
        )
    for k in range(1, size + 1):
        for i in range(1, k + 1):
            for j in range(i + 1, k):
                add(
                    "root-row-twist",
                    f"E[{k}{i}]*E[{k}{j}] - q_{k}*E[{k}{j}]*E[{k}{i}]",
                    E[(k, i)] * E[(k, j)] - params.q_sub(k) * (E[(k, j)] * E[(k, i)]),
                )
    for k in range(1, size + 1):
        for i in range(k + 1, size + 1):
            for j in range(i + 1, size + 1):
                add(
                    "root-col-twist",
                    f"E[{j}{k}]*E[{i}{k}] - q_{k}^-1*E[{i}{k}]*E[{j}{k}]",
                    E[(j, k)] * E[(i, k)] - params.q_sub(k).inv() * (E[(i, k)] * E[(j, k)]),
                )

    # Commutation identities for F = f_{m-1} f_m - q f_m f_{m-1} (needs m >= 2)
    if m >= 2:
        u = m - 1
        F = odd_pair_element(params)
        add("odd-pair", f"f{u}*F - q^-1*F*f{u}", f(u) * F - q.inv() * (F * f(u)))
        add("odd-pair", f"f{m}*F + q^-1*F*f{m}", f(m) * F + q.inv() * (F * f(m)))
        add("odd-pair", "F^2", make_prod([F, F]))
        add("odd-pair", f"[e{u}, F] - f{m}*k{u}^-1", _commutator(e(u), F) - f(m) * cartan_inv(u))
        add("odd-pair", f"[e{m}, F] + q*f{u}*k{m}", _commutator(e(m), F) + q * (f(u) * cartan(m)))
        for k in (2, 3):
            qk = RatFn(quantum_int(k))
            add(
                "odd-pair",
                f"f{u}^{k}*f{m} - [{k}]q*F*f{u}^{k - 1} - q^{k}*f{m}*f{u}^{k}",
                f(u) ** k * f(m) - qk * (F * f(u) ** (k - 1)) - RatFn.q(k) * (f(m) * f(u) ** k),
            )

    # Cross commutators between lowerings and raising root vectors
    if m >= 2:
        e_near = root_vector(m - 1, m + 1, params)
        add(
            "cross-commutator",
            f"[f{m}, E[{m - 1}{m + 1}]] + e{m - 1}*k{m}*q^-1",
            _commutator(f(m), e_near) + q.inv() * (e(m - 1) * cartan(m)),
        )
        add(
            "cross-commutator",
            f"[f{m - 1}, E[{m - 1}{m + 1}]] - e{m}*k{m - 1}^-1",
            _commutator(f(m - 1), e_near) - e(m) * cartan_inv(m - 1),
        )
        if n >= 2:
            e_far = root_vector(m - 1, m + 2, params)
            e_step = root_vector(m, m + 2, params)
            add("cross-commutator", f"[f{m}, E[{m - 1}{m + 2}]]", _commutator(f(m), e_far))
            add(
                "cross-commutator",
                f"[f{m - 1}, E[{m - 1}{m + 2}]] - E[{m}{m + 2}]*k{m - 1}^-1",
                _commutator(f(m - 1), e_far) - e_step * cartan_inv(m - 1),
            )
            qm1inv = params.q_sub(m + 1).inv()
            add(
                "cross-commutator",
                f"[f{m + 1}, E[{m - 1}{m + 2}]] + E[{m - 1}{m + 1}]*k{m + 1}*q_{m + 1}^-1",
                _commutator(f(m + 1), e_far) + qm1inv * (e_near * cartan(m + 1)),
            )

    return entries
