"""Randomised verification suites for the algebraic identity batteries.

A suite is a table of its checks' names and tolerances, in report order, and
a generator over ``(s, rng, n_random)`` that yields one ``(check name,
residual)`` pair per sample.  ``_run`` builds the structure, seeds the one
random generator, keeps the largest residual of each check and returns one
``Check`` per table row, so a new check is one table row plus its ``yield``s.
A yielded name outside the table, or a table row without a sample, raises.
The sampled wave vectors are dyadic rationals, so repeated runs are
bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import connections as conn
from . import graded as gr
from .derivations import (
    apply_derivation,
    bracket_generators,
    eta,
    g2_basis,
    partial_generator,
    poisson_bracket,
    sym_generator,
    verify_d2_special_brackets,
)
from .elements import (
    MoyalElement,
    commutator,
    coordinate,
    monomial,
    partial,
    plane_wave,
    pointwise,
    rel_distance,
    star,
    unit,
    xi,
)
from .gauge import max_residual, pair_iter, unitary_action
from .structure import SymplecticStructure

__all__ = [
    "Check",
    "random_element",
    "random_polynomial",
    "verify_core",
    "verify_derivations",
    "verify_connections",
    "verify_graded",
    "run_suites",
]


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _run(samples, table: dict, D: int, theta: float, seed: int, n_random: int) -> list:
    """One ``Check`` per ``table`` row with the largest residual ``samples`` yielded for it."""
    s = SymplecticStructure(D, theta)
    largest = {}
    for name, r in samples(s, np.random.default_rng(seed), n_random):
        if name not in table:
            raise ValueError(f"check {name!r} is not in its suite's table")
        largest[name] = max(largest[name], r) if name in largest else r
    missing = [name for name in table if name not in largest]
    if missing:
        raise ValueError(f"no samples for {', '.join(missing)} at n_random={n_random}")
    return [Check(name, largest[name], tol) for name, tol in table.items()]


def _dyadic(rng, lo=-2.0, hi=2.0):
    # wave vectors on a quarter-integer grid stay exact under addition
    return float(rng.integers(int(lo * 4), int(hi * 4) + 1)) / 4.0


def _random_terms(rng, s: SymplecticStructure, max_terms, max_degree, waves) -> MoyalElement:
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        alpha = [0] * s.D
        for _j in range(int(rng.integers(0, max_degree + 1))):
            alpha[int(rng.integers(0, s.D))] += 1
        k = tuple(_dyadic(rng) for _ in range(s.D)) if waves else (0.0,) * s.D
        terms[(tuple(alpha), k)] = complex(rng.normal(), rng.normal())
    return MoyalElement(s, terms)


def random_element(rng, s: SymplecticStructure, max_terms=4, max_degree=3) -> MoyalElement:
    return _random_terms(rng, s, max_terms, max_degree, waves=True)


def random_polynomial(rng, s: SymplecticStructure, max_terms=4, max_degree=3) -> MoyalElement:
    return _random_terms(rng, s, max_terms, max_degree, waves=False)


# ---------------------------------------------------------------------------
# core algebra
# ---------------------------------------------------------------------------

_CORE = {
    "star associativity": 1e-10,
    "Leibniz d(a*b)": 1e-12,
    "involution (a*b)+ = b+*a+": 1e-12,
    "[x_mu, a] = i Theta grad a": 1e-12,
    "x_mu * a split": 1e-12,
    "x_mu (a*b) split": 1e-12,
    "(x x) * a quadratic split": 1e-12,
    "cubic commutator split": 1e-12,
    "[x_mu, x_nu] = i Theta_{mu nu}": 1e-14,
    "d_mu = [i xi_mu, .]": 1e-12,
    "center witness (monomials move)": 1e12,
}


def _core_samples(s: SymplecticStructure, rng, n_random: int):
    D = s.D
    zero = MoyalElement(s, {})
    for _ in range(n_random):
        a, b, c = (random_element(rng, s) for _ in range(3))
        yield "star associativity", rel_distance(star(star(a, b), c), star(a, star(b, c)))

    for _ in range(max(10, n_random // 5)):
        a = random_polynomial(rng, s)
        b = random_polynomial(rng, s)
        aw = random_element(rng, s)
        bw = random_element(rng, s)
        for mu in range(1, D + 1):
            yield "Leibniz d(a*b)", rel_distance(
                partial(mu, star(aw, bw)),
                star(partial(mu, aw), bw) + star(aw, partial(mu, bw)),
            )
        yield "involution (a*b)+ = b+*a+", rel_distance(
            star(aw, bw).dag(), star(bw.dag(), aw.dag())
        )
        for mu in range(1, D + 1):
            xmu = coordinate(s, mu)
            row = [(nu, t) for nu, t in enumerate(s.Theta[mu - 1], start=1) if t != 0.0]
            grad = sum(((1j * t) * partial(nu, a) for nu, t in row), zero)
            yield "[x_mu, a] = i Theta grad a", rel_distance(commutator(xmu, a), grad)
            half = sum(((0.5j * t) * partial(nu, a) for nu, t in row), zero)
            yield "x_mu * a split", rel_distance(star(xmu, a), pointwise(xmu, a) + half)
            mixed = star(pointwise(xmu, aw), bw)
            for nu, t in row:
                mixed = mixed - (0.5j * t) * star(aw, partial(nu, bw))
            yield "x_mu (a*b) split", rel_distance(pointwise(xmu, star(aw, bw)), mixed)
        mu, nu = (int(rng.integers(1, D + 1)) for _ in range(2))
        xmu, xnu = coordinate(s, mu), coordinate(s, nu)
        xx = pointwise(xmu, xnu)
        second = sum((
            (-0.25 * t) * partial(al, partial(sg, a))
            for al in range(1, D + 1)
            for sg in range(1, D + 1)
            if (t := s.Theta[mu - 1, al - 1] * s.Theta[nu - 1, sg - 1]) != 0.0
        ), zero)
        first = sum((
            0.5j * (s.Theta[nu - 1, be - 1] * pointwise(xmu, partial(be, a))
                    + s.Theta[mu - 1, be - 1] * pointwise(xnu, partial(be, a)))
            for be in range(1, D + 1)
        ), zero)
        base = pointwise(xx, a)
        yield "(x x) * a quadratic split", rel_distance(star(xx, a), base + first + second)
        yield "(x x) * a quadratic split", rel_distance(star(a, xx), base - first + second)
        rho = int(rng.integers(1, D + 1))
        xr = coordinate(s, rho)
        xxx = pointwise(xx, xr)
        lhs = commutator(xxx, a)
        rhs = sum((
            1j * (s.Theta[nu - 1, be - 1] * pointwise(pointwise(xr, xmu), partial(be, a))
                  + s.Theta[mu - 1, be - 1] * pointwise(pointwise(xnu, xr), partial(be, a))
                  + s.Theta[rho - 1, be - 1] * pointwise(pointwise(xmu, xnu), partial(be, a)))
            for be in range(1, D + 1)
        ), zero)
        for al in range(1, D + 1):
            for sg in range(1, D + 1):
                for lam in range(1, D + 1):
                    t = (
                        s.Theta[mu - 1, al - 1]
                        * s.Theta[nu - 1, sg - 1]
                        * s.Theta[rho - 1, lam - 1]
                    )
                    if t != 0.0:
                        rhs = rhs - 0.25j * t * partial(al, partial(sg, partial(lam, a)))
        yield "cubic commutator split", rel_distance(lhs, rhs)

    for Dx in (2, 4, 6):
        sx = SymplecticStructure(Dx, s.theta)
        for mu in range(1, Dx + 1):
            for nu in range(1, Dx + 1):
                lhs = commutator(coordinate(sx, mu), coordinate(sx, nu))
                rhs = 1j * sx.Theta[mu - 1, nu - 1] * unit(sx)
                yield "[x_mu, x_nu] = i Theta_{mu nu}", (lhs - rhs).norm()

    for _ in range(max(10, n_random // 5)):
        a = random_element(rng, s)
        for mu in range(1, D + 1):
            yield "d_mu = [i xi_mu, .]", rel_distance(partial(mu, a), commutator(1j * xi(s, mu), a))

    # center witness: every nonscalar monomial of degree <= 3 fails to commute
    # with some coordinate; a pruned commutator that leaves none reads 1e300
    for deg in (1, 2, 3):
        for combo in combinations_with_replacement(range(D), deg):
            alpha = [0] * D
            for j in combo:
                alpha[j] += 1
            m = monomial(s, alpha)
            best = max(commutator(coordinate(s, mu), m).norm() for mu in range(1, D + 1))
            yield "center witness (monomials move)", 1.0 / max(best, 1e-300)


def verify_core(D: int, theta: float, seed: int, n_random: int = 100) -> list:
    return _run(_core_samples, _CORE, D, theta, seed, n_random)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

_DERIVATIONS = {
    "[Ad_P, Ad_Q] = Ad_[P,Q]": 1e-11,
    "eta defect central and nonzero": 1e-13,
    "sp(2n,R) bracket table": 1e-12,
    "mixed bracket table": 1e-12,
    "bracket decomposition closes": 1e-12,
    "real generators commute with dagger": 1e-12,
    "Moyal = i Poisson on degree <= 2": 1e-12,
    "degree-3 counterexample separates": 1e12,
}
# reported at D=2 only
_D2_SPECIAL = {"D=2 special bracket table": 1e-12}


def _derivation_samples(s: SymplecticStructure, rng, n_random: int):
    D = s.D
    for _ in range(n_random):
        P = random_polynomial(rng, s, max_degree=2)
        Q = random_polynomial(rng, s, max_degree=2)
        a = random_element(rng, s)
        lhs = commutator(P, commutator(Q, a)) - commutator(Q, commutator(P, a))
        rhs = commutator(commutator(P, Q), a)
        yield "[Ad_P, Ad_Q] = Ad_[P,Q]", rel_distance(lhs, rhs)

    d1, d2 = partial_generator(s, 1), partial_generator(s, 2)
    defect = -commutator(eta(d1), eta(d2))  # eta([d1,d2]) = 0
    central = defect - defect.constant_part() * unit(s)
    yield "eta defect central and nonzero", (
        central.norm() + (1.0 if abs(defect.constant_part()) < 1e-14 else 0.0)
    )

    # eq:slnr and eq:addicom over every index combination
    Ti = s.ThetaInv
    emu = {m: eta(partial_generator(s, m)) for m in range(1, D + 1)}
    esym = {}
    for m in range(1, D + 1):
        for n in range(1, D + 1):
            esym[(m, n)] = eta(sym_generator(s, m, n))
    for m in range(1, D + 1):
        for n in range(1, D + 1):
            for r in range(1, D + 1):
                for t in range(1, D + 1):
                    lhs = commutator(esym[(m, n)], esym[(r, t)])
                    rhs = -(
                        Ti[r - 1, n - 1] * esym[(m, t)]
                        + Ti[t - 1, n - 1] * esym[(m, r)]
                        + Ti[r - 1, m - 1] * esym[(n, t)]
                        + Ti[t - 1, m - 1] * esym[(n, r)]
                    )
                    yield "sp(2n,R) bracket table", (lhs - rhs).norm()

    for m in range(1, D + 1):
        for r in range(1, D + 1):
            for t in range(1, D + 1):
                lhs = commutator(emu[m], esym[(r, t)])
                rhs = Ti[m - 1, r - 1] * emu[t] + Ti[m - 1, t - 1] * emu[r]
                yield "mixed bracket table", (lhs - rhs).norm()

    # structure-constant decomposition reproduces the brute-force bracket
    for X, Y in pair_iter(g2_basis(s)):
        dec = bracket_generators(X, Y)
        recon = dec.central * unit(s)
        for cc, Z in dec.terms:
            recon = recon + cc * eta(Z)
        yield "bracket decomposition closes", (commutator(eta(X), eta(Y)) - recon).norm()

    for _ in range(n_random):
        a = random_element(rng, s)
        for X in (partial_generator(s, 1), sym_generator(s, 1, min(2, D))):
            lhs = apply_derivation(X, a.dag())
            rhs = apply_derivation(X, a).dag()
            yield "real generators commute with dagger", rel_distance(lhs, rhs)

    for _ in range(n_random):
        P = random_polynomial(rng, s, max_degree=2)
        Q = random_polynomial(rng, s, max_degree=2)
        yield "Moyal = i Poisson on degree <= 2", rel_distance(
            commutator(P, Q), 1j * poisson_bracket(P, Q)
        )

    P1 = coordinate(s, 1) ** 3
    P2 = coordinate(s, 2) ** 3
    gap = (commutator(P1, P2) - 1j * poisson_bracket(P1, P2)).norm()
    yield "degree-3 counterexample separates", 1.0 / max(gap, 1e-300)

    if D == 2:
        for r in verify_d2_special_brackets(s).values():
            yield "D=2 special bracket table", r


def verify_derivations(D: int, theta: float, seed: int, n_random: int = 40) -> list:
    table = _DERIVATIONS | _D2_SPECIAL if D == 2 else _DERIVATIONS
    return _run(_derivation_samples, table, D, theta, seed, n_random)


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------

def random_connection(
    rng, s: SymplecticStructure, max_terms=2, max_degree=2
) -> conn.ConnectionForm:
    mu_scale = float(rng.uniform(0.5, 2.0))
    comps = {}
    for X in g2_basis(s):
        comps[X.name] = random_element(rng, s, max_terms=max_terms, max_degree=max_degree)
    return conn.ConnectionForm(s, "G2", comps, mu_scale=mu_scale)


def random_gauge(rng, s: SymplecticStructure):
    return plane_wave(s, tuple(_dyadic(rng) for _ in range(s.D)))


_CONNECTIONS = {
    "curvature dual path": 1e-11,
    "canonical curvature values central": 1e-13,
    "covariant coordinates homogeneous": 1e-10,
    "curvature gauge covariant": 1e-10,
    "covariant derivative covariant": 1e-10,
    "action density covariant": 1e-10,
    "canonical connection invariant": 1e-10,
    "connection Leibniz": 1e-11,
    "F = D cov - structure terms": 1e-11,
}


def _connection_samples(s: SymplecticStructure, rng, n_random: int):
    D = s.D
    for _ in range(n_random if D == 2 else max(3, n_random // 6)):
        A = random_connection(rng, s)
        yield "curvature dual path", conn.curvature(A).max_distance(conn.curvature_generic(A))

    Finv = conn.canonical_curvature(s, "G2")
    for X, Y in pair_iter(g2_basis(s)):
        val = Finv.entries[(X.name, Y.name)]
        if X.kind == "partial" and Y.kind == "partial":
            expect = -1j * s.ThetaInv[X.mu - 1, Y.mu - 1] * unit(s)
        else:
            expect = MoyalElement(s, {})
        yield "canonical curvature values central", (val - expect).norm()
        yield "canonical curvature values central", (val - val.constant_part() * unit(s)).norm()

    # gauge covariance holds entrywise, so a lean connection keeps this cheap
    A = random_connection(rng, s, max_terms=1, max_degree=1)
    F = conn.curvature(A)
    dens = conn.action_density(A)
    Dv = conn.covariant_derivative(A, 1, 1, min(2, D))
    cov = conn.covariant_coordinates(A)
    for _ in range(n_random):
        g = random_gauge(rng, s)
        act = unitary_action(g, 1e-10, "random gauge element is not unitary")
        Ag = conn.gauge_transform(A, g)
        covg = conn.covariant_coordinates(Ag)
        conj_cov = {name: act(v) for name, v in cov.values.items()}
        yield "covariant coordinates homogeneous", max_residual(covg.values, conj_cov)
        yield "curvature gauge covariant", conn.curvature(Ag).max_distance(F.map_entries(act))
        Dg = conn.covariant_derivative(Ag, 1, 1, min(2, D))
        yield "covariant derivative covariant", (Dg - act(Dv)).norm()
        yield "action density covariant", (conn.action_density(Ag) - act(dens)).norm()
        a = random_element(rng, s)
        X = partial_generator(s, 1)
        lhs = star(g.dag(), conn.canonical_connection(A, X, star(g, a)))
        yield "canonical connection invariant", (lhs - conn.canonical_connection(A, X, a)).norm()

    for _ in range(n_random):
        a, b = random_element(rng, s), random_element(rng, s)
        X = partial_generator(s, int(rng.integers(1, D + 1)))
        Amu = A.component(X)
        nab = lambda v: apply_derivation(X, v) - 1j * star(Amu, v)
        yield "connection Leibniz", rel_distance(
            nab(star(a, b)), star(nab(a), b) + star(a, apply_derivation(X, b))
        )

    A = random_connection(rng, s)
    cov = conn.covariant_coordinates(A)
    Ftab = conn.curvature(A)
    mt = A.mu_scale * s.theta
    for mu in range(1, D + 1):
        for rho in range(1, D + 1):
            for sg in range(rho, D + 1):
                Dcov = conn.covariant_derivative(A, mu, rho, sg)
                ident = Dcov - mt * (
                    s.ThetaInv[mu - 1, rho - 1] * cov[f"d{sg}"]
                    + s.ThetaInv[mu - 1, sg - 1] * cov[f"d{rho}"]
                )
                yield "F = D cov - structure terms", (Ftab(f"d{mu}", f"X{rho}{sg}") - ident).norm()


def verify_connections(D: int, theta: float, seed: int, n_random: int = 20) -> list:
    return _run(_connection_samples, _CONNECTIONS, D, theta, seed, n_random)


# ---------------------------------------------------------------------------
# graded
# ---------------------------------------------------------------------------

def random_graded(rng, s: SymplecticStructure) -> gr.GradedElement:
    return gr.GradedElement(
        random_element(rng, s, max_terms=2, max_degree=2),
        random_element(rng, s, max_terms=2, max_degree=2),
    )


def random_graded_connection(rng, s: SymplecticStructure) -> gr.GradedConnectionForm:
    blank = gr.GradedConnectionForm(s)
    groups = {
        group: {n: random_element(rng, s, 2, 2) for n in getattr(blank, group)}
        for group in ("A0", "A1", "G0")
    }
    return gr.GradedConnectionForm(s, **groups, phi=random_element(rng, s, 2, 2))


_GRADED = {
    "graded product associative": 1e-10,
    "graded unit laws": 1e-12,
    "graded involution antihomomorphism": 1e-12,
    "graded Jacobi on generators": 1e-12,
    "graded center witness": 1e-12,
    "graded commutator table": 1e-12,
    "graded curvature dual path": 1e-11,
    "graded canonical curvature central": 1e-13,
    "phi transforms homogeneously": 1e-10,
    "graded curvature gauge covariant": 1e-10,
}


def _graded_samples(s: SymplecticStructure, rng, n_random: int):
    one = gr.graded_unit(s)
    for _ in range(max(n_random, 100)):
        a, b, c = (random_graded(rng, s) for _ in range(3))
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        yield "graded product associative", ((a * b) * c - a * (b * c)).norm() / scale
        yield "graded unit laws", (a * one - a).norm()
        yield "graded unit laws", (one * a - a).norm()

    for _ in range(n_random):
        a, b = random_graded(rng, s), random_graded(rng, s)
        for x, dx in ((gr.even_part(a.even), 0), (gr.odd_part(a.odd), 1)):
            for y, dy in ((gr.even_part(b.even), 0), (gr.odd_part(b.odd), 1)):
                sign = (-1.0) ** (dx * dy)
                yield "graded involution antihomomorphism", (
                    (x * y).dag() - sign * (y.dag() * x.dag())
                ).norm()

    gens = gr.graded_generators(s)
    reps = {X.name: gr.graded_eta(X) for X in gens}
    degs = {X.name: X.degree for X in gens}
    names = [X.name for X in gens]
    if len(names) ** 3 <= 1000:
        triples = [(a, b, c) for a in names for b in names for c in names]
    else:
        triples = [
            tuple(names[int(i)] for i in rng.integers(0, len(names), size=3))
            for _ in range(300)
        ]
    for na, nb, nc in triples:
        a, b, c = reps[na], reps[nb], reps[nc]
        da, db, dc = degs[na], degs[nb], degs[nc]
        total = (
            (-1.0) ** (da * dc) * gr.graded_bracket(a, gr.graded_bracket(b, c))
            + (-1.0) ** (db * da) * gr.graded_bracket(b, gr.graded_bracket(c, a))
            + (-1.0) ** (dc * db) * gr.graded_bracket(c, gr.graded_bracket(a, b))
        )
        yield "graded Jacobi on generators", total.norm()

    # constants are central, and J does not commute with the odd unit
    J = gr.graded_eta(gr.GradedGenerator(s, "J"))
    j_fixed = 1.0 if gr.graded_bracket(gr.odd_part(unit(s)), J).norm() < 1e-12 else 0.0
    for _ in range(10):
        a = random_graded(rng, s)
        cst = gr.GradedElement(unit(s, complex(rng.normal(), rng.normal())), MoyalElement(s, {}))
        yield "graded center witness", gr.graded_bracket(cst, a).norm() + j_fixed

    for r in gr.verify_graded_table(s).values():
        yield "graded commutator table", r

    for _ in range(max(5, n_random // 4)):
        A = random_graded_connection(rng, s)
        yield "graded curvature dual path", max_residual(
            gr.graded_curvature(A), gr.graded_curvature_generic(A)
        )

    for val in gr.graded_canonical_curvature(s).values():
        central = val.even.constant_part()
        yield "graded canonical curvature central", (val - central * gr.graded_unit(s)).norm()

    A = random_graded_connection(rng, s)
    Fc = gr.graded_curvature(A)
    for _ in range(n_random // 2):
        g0 = random_gauge(rng, s)
        act = unitary_action(g0, 1e-10, "random gauge element is not unitary")
        Ag = gr.graded_gauge_transform(A, gr.GradedElement(g0, MoyalElement(s, {})))
        yield "phi transforms homogeneously", (Ag.phi - act(A.phi)).norm()
        conj_Fc = {k: gr.GradedElement(act(v.even), act(v.odd)) for k, v in Fc.items()}
        yield "graded curvature gauge covariant", max_residual(gr.graded_curvature(Ag), conj_Fc)


def verify_graded(D: int, theta: float, seed: int, n_random: int = 40) -> list:
    return _run(_graded_samples, _GRADED, D, theta, seed, n_random)


SUITES = {
    "core": verify_core,
    "derivations": verify_derivations,
    "connections": verify_connections,
    "graded": verify_graded,
}


def run_suites(scope: str, D: int, theta: float, seed: int) -> list:
    if scope != "all" and scope not in SUITES:
        raise ValueError(f"unknown scope {scope!r}")
    # SUITES is read at call time, so a rebound suite function is the one run
    names = list(SUITES) if scope == "all" else [scope]
    return [(name, chk) for name in names for chk in SUITES[name](D, theta, seed)]
