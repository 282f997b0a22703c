"""Randomised verification suites for the algebraic identity batteries.

Each suite returns a list of named checks with the worst observed residual
and its tolerance.  All randomness flows from one seeded generator and the
sampled wave vectors are dyadic rationals, so repeated runs are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

def verify_core(D: int, theta: float, seed: int, n_random: int = 100) -> list:
    s = SymplecticStructure(D, theta)
    rng = np.random.default_rng(seed)
    checks = []
    zero = MoyalElement(s, {})

    worst = 0.0
    for _ in range(n_random):
        a, b, c = (random_element(rng, s) for _ in range(3))
        worst = max(worst, rel_distance(star(star(a, b), c), star(a, star(b, c))))
    checks.append(Check("star associativity", worst, 1e-10))

    w_leib = w_inv = w_xcomm = w_xprod = w_xmix = w_quad = w_cubic = 0.0
    for _ in range(max(10, n_random // 5)):
        a = random_polynomial(rng, s)
        b = random_polynomial(rng, s)
        aw = random_element(rng, s)
        bw = random_element(rng, s)
        for mu in range(1, D + 1):
            w_leib = max(
                w_leib,
                rel_distance(partial(mu, star(aw, bw)),
                             star(partial(mu, aw), bw) + star(aw, partial(mu, bw))),
            )
        w_inv = max(w_inv, rel_distance(star(aw, bw).dag(), star(bw.dag(), aw.dag())))
        for mu in range(1, D + 1):
            xmu = coordinate(s, mu)
            row = [(nu, t) for nu, t in enumerate(s.Theta[mu - 1], start=1) if t != 0.0]
            grad = sum(((1j * t) * partial(nu, a) for nu, t in row), zero)
            w_xcomm = max(w_xcomm, rel_distance(commutator(xmu, a), grad))
            half = sum(((0.5j * t) * partial(nu, a) for nu, t in row), zero)
            w_xprod = max(w_xprod, rel_distance(star(xmu, a), pointwise(xmu, a) + half))
            mixed = star(pointwise(xmu, aw), bw)
            for nu, t in row:
                mixed = mixed - (0.5j * t) * star(aw, partial(nu, bw))
            w_xmix = max(w_xmix, rel_distance(pointwise(xmu, star(aw, bw)), mixed))
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
        w_quad = max(w_quad, rel_distance(star(xx, a), base + first + second))
        w_quad = max(w_quad, rel_distance(star(a, xx), base - first + second))
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
        w_cubic = max(w_cubic, rel_distance(lhs, rhs))
    checks.append(Check("Leibniz d(a*b)", w_leib, 1e-12))
    checks.append(Check("involution (a*b)+ = b+*a+", w_inv, 1e-12))
    checks.append(Check("[x_mu, a] = i Theta grad a", w_xcomm, 1e-12))
    checks.append(Check("x_mu * a split", w_xprod, 1e-12))
    checks.append(Check("x_mu (a*b) split", w_xmix, 1e-12))
    checks.append(Check("(x x) * a quadratic split", w_quad, 1e-12))
    checks.append(Check("cubic commutator split", w_cubic, 1e-12))

    worst = 0.0
    for Dx in (2, 4, 6):
        sx = SymplecticStructure(Dx, theta)
        for mu in range(1, Dx + 1):
            for nu in range(1, Dx + 1):
                lhs = commutator(coordinate(sx, mu), coordinate(sx, nu))
                rhs = 1j * sx.Theta[mu - 1, nu - 1] * unit(sx)
                worst = max(worst, (lhs - rhs).norm())
    checks.append(Check("[x_mu, x_nu] = i Theta_{mu nu}", worst, 1e-14))

    worst = 0.0
    for _ in range(max(10, n_random // 5)):
        a = random_element(rng, s)
        for mu in range(1, D + 1):
            worst = max(worst, rel_distance(partial(mu, a), commutator(1j * xi(s, mu), a)))
    checks.append(Check("d_mu = [i xi_mu, .]", worst, 1e-12))

    # center witness: every nonscalar monomial of degree <= 3 fails to commute
    # with some coordinate
    min_breaking = math.inf
    from itertools import combinations_with_replacement

    for deg in (1, 2, 3):
        for combo in combinations_with_replacement(range(D), deg):
            alpha = [0] * D
            for j in combo:
                alpha[j] += 1
            m = monomial(s, alpha)
            best = max(
                commutator(coordinate(s, mu), m).norm() for mu in range(1, D + 1)
            )
            min_breaking = min(min_breaking, best)
    checks.append(
        Check("center witness (monomials move)", 1.0 / min_breaking, 1e12)
    )
    return checks


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def verify_derivations(D: int, theta: float, seed: int, n_random: int = 40) -> list:
    s = SymplecticStructure(D, theta)
    rng = np.random.default_rng(seed)
    checks = []

    worst = 0.0
    for _ in range(n_random):
        P = random_polynomial(rng, s, max_degree=2)
        Q = random_polynomial(rng, s, max_degree=2)
        a = random_element(rng, s)
        lhs = commutator(P, commutator(Q, a)) - commutator(Q, commutator(P, a))
        rhs = commutator(commutator(P, Q), a)
        worst = max(worst, rel_distance(lhs, rhs))
    checks.append(Check("[Ad_P, Ad_Q] = Ad_[P,Q]", worst, 1e-11))

    d1, d2 = partial_generator(s, 1), partial_generator(s, 2)
    defect = -commutator(eta(d1), eta(d2))  # eta([d1,d2]) = 0
    central = defect - defect.constant_part() * unit(s)
    checks.append(
        Check(
            "eta defect central and nonzero",
            central.norm() + (1.0 if abs(defect.constant_part()) < 1e-14 else 0.0),
            1e-13,
        )
    )

    # eq:slnr and eq:addicom over every index combination
    worst = 0.0
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
                    worst = max(worst, (lhs - rhs).norm())
    checks.append(Check("sp(2n,R) bracket table", worst, 1e-12))

    worst = 0.0
    for m in range(1, D + 1):
        for r in range(1, D + 1):
            for t in range(1, D + 1):
                lhs = commutator(emu[m], esym[(r, t)])
                rhs = Ti[m - 1, r - 1] * emu[t] + Ti[m - 1, t - 1] * emu[r]
                worst = max(worst, (lhs - rhs).norm())
    checks.append(Check("mixed bracket table", worst, 1e-12))

    # structure-constant decomposition reproduces the brute-force bracket
    worst = 0.0
    for X, Y in pair_iter(g2_basis(s)):
        dec = bracket_generators(X, Y)
        recon = dec.central * unit(s)
        for cc, Z in dec.terms:
            recon = recon + cc * eta(Z)
        worst = max(worst, (commutator(eta(X), eta(Y)) - recon).norm())
    checks.append(Check("bracket decomposition closes", worst, 1e-12))

    worst = 0.0
    for _ in range(n_random):
        a = random_element(rng, s)
        for X in (partial_generator(s, 1), sym_generator(s, 1, min(2, D))):
            lhs = apply_derivation(X, a.dag())
            rhs = apply_derivation(X, a).dag()
            worst = max(worst, rel_distance(lhs, rhs))
    checks.append(Check("real generators commute with dagger", worst, 1e-12))

    worst = 0.0
    for _ in range(n_random):
        P = random_polynomial(rng, s, max_degree=2)
        Q = random_polynomial(rng, s, max_degree=2)
        worst = max(worst, rel_distance(commutator(P, Q), 1j * poisson_bracket(P, Q)))
    checks.append(Check("Moyal = i Poisson on degree <= 2", worst, 1e-12))

    P1 = coordinate(s, 1) ** 3
    P2 = coordinate(s, 2) ** 3
    gap = (commutator(P1, P2) - 1j * poisson_bracket(P1, P2)).norm()
    checks.append(Check("degree-3 counterexample separates", 1.0 / max(gap, 1e-300), 1e12))

    if D == 2:
        res = verify_d2_special_brackets(s)
        checks.append(Check("D=2 special bracket table", max(res.values()), 1e-12))
    return checks


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


def verify_connections(D: int, theta: float, seed: int, n_random: int = 20) -> list:
    s = SymplecticStructure(D, theta)
    rng = np.random.default_rng(seed)
    checks = []

    worst = 0.0
    n_dual = n_random if D == 2 else max(3, n_random // 6)
    for _ in range(n_dual):
        A = random_connection(rng, s)
        worst = max(
            worst, conn.curvature(A).max_distance(conn.curvature_generic(A))
        )
    checks.append(Check("curvature dual path", worst, 1e-11))

    Finv = conn.canonical_curvature(s, "G2")
    worst = 0.0
    for X, Y in pair_iter(g2_basis(s)):
        val = Finv.entries[(X.name, Y.name)]
        if X.kind == "partial" and Y.kind == "partial":
            expect = -1j * s.ThetaInv[X.mu - 1, Y.mu - 1] * unit(s)
        else:
            expect = MoyalElement(s, {})
        worst = max(worst, (val - expect).norm())
        worst = max(worst, (val - val.constant_part() * unit(s)).norm())
    checks.append(Check("canonical curvature values central", worst, 1e-13))

    worst_cov = worst_f = worst_d = worst_act = worst_inv = 0.0
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
        worst_cov = max(worst_cov, max_residual(covg.values, conj_cov))
        worst_f = max(worst_f, conn.curvature(Ag).max_distance(F.map_entries(act)))
        Dg = conn.covariant_derivative(Ag, 1, 1, min(2, D))
        worst_d = max(worst_d, (Dg - act(Dv)).norm())
        worst_act = max(worst_act, (conn.action_density(Ag) - act(dens)).norm())
        a = random_element(rng, s)
        X = partial_generator(s, 1)
        lhs = star(g.dag(), conn.canonical_connection(A, X, star(g, a)))
        worst_inv = max(worst_inv, (lhs - conn.canonical_connection(A, X, a)).norm())
    checks.append(Check("covariant coordinates homogeneous", worst_cov, 1e-10))
    checks.append(Check("curvature gauge covariant", worst_f, 1e-10))
    checks.append(Check("covariant derivative covariant", worst_d, 1e-10))
    checks.append(Check("action density covariant", worst_act, 1e-10))
    checks.append(Check("canonical connection invariant", worst_inv, 1e-10))

    worst = 0.0
    for _ in range(n_random):
        a, b = random_element(rng, s), random_element(rng, s)
        X = partial_generator(s, int(rng.integers(1, D + 1)))
        Amu = A.component(X)
        nab = lambda v: apply_derivation(X, v) - 1j * star(Amu, v)
        worst = max(
            worst,
            rel_distance(nab(star(a, b)), star(nab(a), b) + star(a, apply_derivation(X, b))),
        )
    checks.append(Check("connection Leibniz", worst, 1e-11))

    worst = 0.0
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
                worst = max(worst, (Ftab(f"d{mu}", f"X{rho}{sg}") - ident).norm())
    checks.append(Check("F = D cov - structure terms", worst, 1e-11))
    return checks


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


def verify_graded(D: int, theta: float, seed: int, n_random: int = 40) -> list:
    s = SymplecticStructure(D, theta)
    rng = np.random.default_rng(seed)
    checks = []

    worst_a = worst_u = 0.0
    one = gr.graded_unit(s)
    for _ in range(max(n_random, 100)):
        a, b, c = (random_graded(rng, s) for _ in range(3))
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        worst_a = max(worst_a, ((a * b) * c - a * (b * c)).norm() / scale)
        worst_u = max(worst_u, (a * one - a).norm(), (one * a - a).norm())
    checks.append(Check("graded product associative", worst_a, 1e-10))
    checks.append(Check("graded unit laws", worst_u, 1e-12))

    worst = 0.0
    for _ in range(n_random):
        a, b = random_graded(rng, s), random_graded(rng, s)
        for x, dx in ((gr.even_part(a.even), 0), (gr.odd_part(a.odd), 1)):
            for y, dy in ((gr.even_part(b.even), 0), (gr.odd_part(b.odd), 1)):
                sign = (-1.0) ** (dx * dy)
                worst = max(worst, ((x * y).dag() - sign * (y.dag() * x.dag())).norm())
    checks.append(Check("graded involution antihomomorphism", worst, 1e-12))

    gens = gr.graded_generators(s)
    reps = {X.name: gr.graded_eta(X) for X in gens}
    degs = {X.name: X.degree for X in gens}
    names = [X.name for X in gens]
    worst = 0.0
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
        worst = max(worst, total.norm())
    checks.append(Check("graded Jacobi on generators", worst, 1e-12))

    worst = 0.0
    for _ in range(10):
        a = random_graded(rng, s)
        cst = gr.GradedElement(unit(s, complex(rng.normal(), rng.normal())), MoyalElement(s, {}))
        worst = max(worst, gr.graded_bracket(cst, a).norm())
    J = gr.graded_eta(gr.GradedGenerator(s, "J"))
    odd_unit = gr.odd_part(unit(s))
    j_moves = gr.graded_bracket(odd_unit, J).norm()
    checks.append(Check("graded center witness", worst + (1.0 if j_moves < 1e-12 else 0.0), 1e-12))

    checks.append(Check("graded commutator table", max(gr.verify_graded_table(s).values()), 1e-12))

    worst = 0.0
    for _ in range(max(5, n_random // 4)):
        A = random_graded_connection(rng, s)
        worst = max(worst, max_residual(gr.graded_curvature(A), gr.graded_curvature_generic(A)))
    checks.append(Check("graded curvature dual path", worst, 1e-11))

    Finv = gr.graded_canonical_curvature(s)
    worst = 0.0
    for val in Finv.values():
        central = val.even.constant_part()
        worst = max(worst, (val - central * gr.graded_unit(s)).norm())
    checks.append(Check("graded canonical curvature central", worst, 1e-13))

    worst_phi = worst_f = 0.0
    A = random_graded_connection(rng, s)
    Fc = gr.graded_curvature(A)
    for _ in range(n_random // 2):
        g0 = random_gauge(rng, s)
        act = unitary_action(g0, 1e-10, "random gauge element is not unitary")
        Ag = gr.graded_gauge_transform(A, gr.GradedElement(g0, MoyalElement(s, {})))
        worst_phi = max(worst_phi, (Ag.phi - act(A.phi)).norm())
        conj_Fc = {k: gr.GradedElement(act(v.even), act(v.odd)) for k, v in Fc.items()}
        worst_f = max(worst_f, max_residual(gr.graded_curvature(Ag), conj_Fc))
    checks.append(Check("phi transforms homogeneously", worst_phi, 1e-10))
    checks.append(Check("graded curvature gauge covariant", worst_f, 1e-10))
    return checks


SUITES = {
    "core": verify_core,
    "derivations": verify_derivations,
    "connections": verify_connections,
    "graded": verify_graded,
}


def run_suites(scope: str, D: int, theta: float, seed: int) -> list:
    if scope == "all":
        names = ["core", "derivations", "connections", "graded"]
    elif scope in SUITES:
        names = [scope]
    else:
        raise ValueError(f"unknown scope {scope!r}")
    checks = []
    for name in names:
        for chk in SUITES[name](D, theta, seed):
            checks.append((name, chk))
    return checks
