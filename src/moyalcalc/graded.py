"""Z2-graded extension: two copies of the star algebra.

Elements are pairs a = (a0, a1) with product

    ab = (a0*b0 + a1*b1, a0*b1 + a1*b0),

involution a^dag = (a0^dag, i a1^dag), unit (1, 0), and graded bracket

    [a, b] = ([a0, b0] + {a1, b1}, [a0, b1] + [a1, b0]).

The derivation set extends the symplectomorphism generators by odd partners:

    T_mu = (eta_mu, 0),   U_mu = (0, eta_mu),
    M_mn = (eta_(mn), 0), J    = (0, i),

with degrees |T| = |M| = 0 and |U| = |J| = 1.  Their graded brackets close on
{unit, T, U, M, J} and are verified here by brute force.  Connections carry
components A0_mu, A1_mu, G0_mn, phi with covariant coordinates

    covT = A0_mu - xi_mu,  covU = A1_mu - xi_mu,
    covM = G0_mn - xi_mu xi_nu,  covJ = Phi = phi - 1,

and the curvature table is evaluated both through the closed component forms
and through the generic graded formula

    F(X, Y) = [cA(X), cA(Y)] - cA([X, Y]) + (eta([X, Y]) - [eta(X), eta(Y)]),

where cA(X) = -i (cov in the slot of X).  The mass scale m enters only the
assembled action density (the potential coefficients -8/(m theta) and
16/(m theta)^2), not the curvature table, which follows the unrescaled
generator convention.

T, U and M are the even, odd and even copies of the ungraded d_mu, d_mu and
X_(mu nu) of the G2 basis (``derivations.g2_basis``).  That correspondence
lives in one place, the slot table ``_SLOTS``: for each of T, U and M it
gives the connection component group (A0, A1, G0), the degree and the
ungraded generator kind.  The generator list, eta, the bracket decomposition,
component slots, gauge transformations and config loading all read it; only
J, the odd copy of the unit, is spelled out by hand.

The generic formula, the canonical curvature, the dual-path residual, the gauge
action, component filling and config loading are the scaffold in
``gauge``, shared with the ungraded connections.  The closed component forms
stay here: they are the independent path of the dual-path check, so they read
A0, A1, G0 and phi directly and never go through the slot table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import gauge
from .derivations import (
    BracketDecomposition,
    DerivationGenerator,
    apply_derivation,
    decompose_eta_combination,
    eta,
    g2_basis,
)
from .elements import (
    MoyalElement,
    anticommutator,
    commutator,
    partial,
    pointwise,
    star,
    unit,
    xi,
)
from .structure import SymplecticStructure

__all__ = [
    "GradedElement",
    "GradedGenerator",
    "GradedConnectionForm",
    "graded_unit",
    "graded_zero",
    "graded_bracket",
    "graded_generators",
    "graded_eta",
    "verify_graded_table",
    "graded_covariant_coordinates",
    "graded_curvature",
    "graded_curvature_generic",
    "graded_canonical_curvature",
    "graded_gauge_transform",
    "graded_action_density",
    "graded_connection_from_config",
]


@dataclass(frozen=True)
class GradedElement:
    """Pair (even, odd) of elements of one structure."""

    even: MoyalElement
    odd: MoyalElement

    def __post_init__(self):
        self.even.structure.check_compatible(self.odd.structure)

    @property
    def structure(self) -> SymplecticStructure:
        return self.even.structure

    def __add__(self, other):
        return GradedElement(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other):
        return GradedElement(self.even - other.even, self.odd - other.odd)

    def __neg__(self):
        return GradedElement(-self.even, -self.odd)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GradedElement(self.even * other, self.odd * other)
        return GradedElement(
            star(self.even, other.even) + star(self.odd, other.odd),
            star(self.even, other.odd) + star(self.odd, other.even),
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def dag(self) -> "GradedElement":
        return GradedElement(self.even.dag(), 1j * self.odd.dag())

    def norm(self) -> float:
        return max(self.even.norm(), self.odd.norm())

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol


def graded_unit(s: SymplecticStructure) -> GradedElement:
    return GradedElement(unit(s), MoyalElement(s, {}))


def graded_zero(s: SymplecticStructure) -> GradedElement:
    z = MoyalElement(s, {})
    return GradedElement(z, z)


def even_part(a: MoyalElement) -> GradedElement:
    return GradedElement(a, MoyalElement(a.structure, {}))


def odd_part(a: MoyalElement) -> GradedElement:
    return GradedElement(MoyalElement(a.structure, {}), a)


def graded_bracket(a: GradedElement, b: GradedElement) -> GradedElement:
    """[a, b] = ([a0,b0] + {a1,b1}, [a0,b1] + [a1,b0])."""
    a.structure.check_compatible(b.structure)
    return GradedElement(
        commutator(a.even, b.even) + anticommutator(a.odd, b.odd),
        commutator(a.even, b.odd) + commutator(a.odd, b.even),
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedGenerator:
    """T(mu), U(mu), M(mu, nu) or J, with its eta representative and degree."""

    structure: SymplecticStructure
    kind: str  # "T" | "U" | "M" | "J"
    mu: int = 0
    nu: int = 0

    @property
    def name(self) -> str:
        if self.kind == "J":
            return "J"
        if self.kind == "M":
            return f"M{self.mu}{self.nu}"
        return f"{self.kind}{self.mu}"

    @property
    def degree(self) -> int:
        return 1 if self.kind in ("U", "J") else 0

    def __repr__(self):
        return f"GradedGenerator({self.name})"


# graded kind -> (component group, degree, ungraded G2 generator kind); J, the
# odd copy of the unit, has no ungraded partner and is handled by hand
_SLOTS = {"T": ("A0", 0, "partial"), "U": ("A1", 1, "partial"), "M": ("G0", 0, "sym")}
_GRADED_KIND = {(kind, degree): g for g, (_group, degree, kind) in _SLOTS.items()}


def _slot(X: GradedGenerator):
    """(component group, degree, ungraded generator) of a T, U or M generator."""
    if X.kind not in _SLOTS:
        raise ValueError(f"unknown graded generator kind {X.kind!r}")
    group, degree, kind = _SLOTS[X.kind]
    return group, degree, DerivationGenerator(X.structure, kind, mu=X.mu, nu=X.nu)


def _place(degree: int, a: MoyalElement) -> GradedElement:
    return odd_part(a) if degree else even_part(a)


def graded_generators(s: SymplecticStructure):
    """T_1..T_D, U_1..U_D, M_(mu nu) with mu <= nu, then J."""
    base = g2_basis(s)
    gens = [
        GradedGenerator(s, g, mu=X.mu, nu=X.nu)
        for g, (_group, _degree, kind) in _SLOTS.items()
        for X in base
        if X.kind == kind
    ]
    gens.append(GradedGenerator(s, "J"))
    return gens


def graded_eta(X: GradedGenerator) -> GradedElement:
    """eta(Ad_X): (eta_mu, 0), (0, eta_mu), (eta_(mn), 0) or (0, i)."""
    if X.kind == "J":
        return odd_part(unit(X.structure, 1j))
    _group, degree, G = _slot(X)
    return _place(degree, eta(G))


def _lift(part: MoyalElement, degree: int) -> list:
    """The eta terms of one part of a bracket value as graded generators of ``degree``."""
    if part.is_zero():
        return []
    dec = decompose_eta_combination(part)
    kinds = [_GRADED_KIND.get((G.kind, degree)) for _c, G in dec.terms]
    if abs(dec.central) > 1e-12 or None in kinds:
        raise ValueError(f"degree-{degree} part is not a combination of graded generators")
    return [
        (c, GradedGenerator(part.structure, g, mu=G.mu, nu=G.nu))
        for (c, G), g in zip(dec.terms, kinds)
    ]


def decompose_graded(value: GradedElement) -> BracketDecomposition:
    """Project a bracket value onto {unit, T, U, M, J} by monomial matching.

    The even part is central + T + M and the odd part J + U, each through the
    ungraded decomposition mapped back by the slot table.
    """
    s = value.structure
    central = value.even.constant_part()
    gens = _lift(value.even - central * unit(s), 0)
    odd_const = value.odd.constant_part()
    if abs(odd_const) > 1e-13 * max(1.0, value.norm()):
        gens.append((odd_const / 1j, GradedGenerator(s, "J")))
    gens += _lift(value.odd - odd_const * unit(s), 1)
    return BracketDecomposition(central=complex(central), terms=tuple(gens))


def bracket_graded_generators(X: GradedGenerator, Y: GradedGenerator) -> BracketDecomposition:
    return decompose_graded(graded_bracket(graded_eta(X), graded_eta(Y)))


def verify_graded_table(s: SymplecticStructure) -> dict:
    """Residuals of the ten graded commutator families, keyed by family.

    [T,T] = i ThetaInv 1,           [M,T] = ThetaInv T + ThetaInv T,
    [M,M] = sum ThetaInv M,         [U,U] = 2i M,
    [T,U] = ThetaInv J,             [M,U] = ThetaInv U + ThetaInv U,
    [J,J] = -2,  [T,J] = 0,  [M,J] = 0,  [U,J] = 2i T.
    """
    Ti = s.ThetaInv
    gu = graded_unit(s)
    reps = {X.name: graded_eta(X) for X in graded_generators(s)}

    def T(m):
        return reps[f"T{m}"]

    def U(m):
        return reps[f"U{m}"]

    def M(m, n):
        return reps[f"M{min(m, n)}{max(m, n)}"]

    J = reps["J"]
    D = s.D
    res = {}

    def upd(key, lhs, rhs):
        res[key] = max(res.get(key, 0.0), (lhs - rhs).norm())

    for m in range(1, D + 1):
        for n in range(1, D + 1):
            upd("[T,T]=iThetaInv*1", graded_bracket(T(m), T(n)), Ti[m - 1, n - 1] * 1j * gu)
            upd("[U,U]=2iM", graded_bracket(U(m), U(n)), 2j * M(m, n))
            upd("[T,U]=ThetaInv*J", graded_bracket(T(m), U(n)), Ti[m - 1, n - 1] * J)
            for r in range(1, D + 1):
                upd(
                    "[M,T]=ThetaInv T+ThetaInv T",
                    graded_bracket(M(m, n), T(r)),
                    Ti[n - 1, r - 1] * T(m) + Ti[m - 1, r - 1] * T(n),
                )
                upd(
                    "[M,U]=ThetaInv U+ThetaInv U",
                    graded_bracket(M(m, n), U(r)),
                    Ti[n - 1, r - 1] * U(m) + Ti[m - 1, r - 1] * U(n),
                )
                for t in range(1, D + 1):
                    upd(
                        "[M,M]=sum ThetaInv M",
                        graded_bracket(M(m, n), M(r, t)),
                        Ti[n - 1, t - 1] * M(m, r)
                        + Ti[n - 1, r - 1] * M(m, t)
                        + Ti[m - 1, t - 1] * M(n, r)
                        + Ti[m - 1, r - 1] * M(n, t),
                    )
        upd("[T,J]=0", graded_bracket(T(m), J), graded_zero(s))
        upd("[U,J]=2iT", graded_bracket(U(m), J), 2j * T(m))
        for n in range(m, D + 1):
            upd("[M,J]=0", graded_bracket(M(m, n), J), graded_zero(s))
    upd("[J,J]=-2", graded_bracket(J, J), -2.0 * gu)
    return res


# ---------------------------------------------------------------------------
# graded connections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedConnectionForm:
    """Components A0_mu, A1_mu, G0_(mn), phi with the mass scale m."""

    structure: SymplecticStructure
    A0: dict = field(default_factory=dict)  # "d1".. -> element
    A1: dict = field(default_factory=dict)
    G0: dict = field(default_factory=dict)  # "X11".. -> element
    phi: MoyalElement = None
    m_scale: float = 1.0

    def __post_init__(self):
        s = self.structure
        if not 0 < self.m_scale < math.inf:
            raise ValueError("the mass scale m must be positive and finite")
        base = g2_basis(s)
        for group, _degree, kind in _SLOTS.values():
            names = [X.name for X in base if X.kind == kind]
            comps = gauge.fill_components(
                getattr(self, group), names, s, "unknown component names"
            )
            object.__setattr__(self, group, comps)
        object.__setattr__(self, "phi", self.phi if self.phi is not None else MoyalElement(s, {}))
        self.phi.structure.check_compatible(s)

    def component(self, X: GradedGenerator) -> GradedElement:
        if X.kind == "J":
            return odd_part(self.phi)
        group, degree, G = _slot(X)
        return _place(degree, getattr(self, group)[G.name])


def _calA(A: GradedConnectionForm, X: GradedGenerator) -> GradedElement:
    """The tensor-form value cA(X) = -i A(X) + eta(X).

    Componentwise this is -i (A0_mu - xi_mu, 0) for T, -i (0, A1_mu - xi_mu)
    for U, -i (G0_mn - xi_m xi_n, 0) for M and -i (0, phi - 1) for J.
    """
    return -1j * A.component(X) + graded_eta(X)


def graded_covariant_coordinates(A: GradedConnectionForm) -> dict:
    """name -> tensor-form value cA(X); transforms as g^dag cA g."""
    return {X.name: _calA(A, X) for X in graded_generators(A.structure)}


def graded_curvature_generic(A: GradedConnectionForm) -> dict:
    """F(X, Y) over ordered generator pairs from the generic graded formula."""
    s = A.structure
    return gauge.generic_curvature(
        graded_generators(s),
        graded_covariant_coordinates(A),
        bracket_graded_generators,
        graded_bracket,
        graded_unit(s),
    )


def _xi_xi(s: SymplecticStructure, m: int, n: int) -> MoyalElement:
    """xi_m xi_n as the symmetrised star product."""
    return 0.5 * anticommutator(xi(s, m), xi(s, n))


def graded_curvature(A: GradedConnectionForm) -> dict:
    """Closed-form curvature components over ordered generator pairs.

    With cov denoting the slot contents (A0 - xi etc.) and Phi = phi - 1:

      F(T,T) = (-[covT,covT'] - i ThetaInv, 0)
      F(U,U) = (-{covU,covU'} - 2 covM, 0)
      F(J,J) = (-2 Phi*Phi + 2, 0)
      F(T,J) = (0, -[covT, Phi])
      F(U,J) = (-{covU, Phi} - 2 covT, 0)
      F(M,J) = (0, -[covM, Phi])
      F(T,U) = (0, -[covT, covU'] + i ThetaInv Phi)
      F(M,T) = (-[covM, covT] + i ThetaInv covT_m + i ThetaInv covT_n, 0)
      F(M,U) = (0, -[covM, covU] + i ThetaInv covU_m + i ThetaInv covU_n)
      F(M,M) = (-[covM, covM'] + i sum ThetaInv covM, 0)
    """
    s = A.structure
    Ti = s.ThetaInv
    axes = range(1, s.D + 1)
    cov_t = {m: A.A0[f"d{m}"] - xi(s, m) for m in axes}
    cov_u = {m: A.A1[f"d{m}"] - xi(s, m) for m in axes}
    cov_m = {
        (m, n): A.G0[f"X{m}{n}"] - _xi_xi(s, m, n) for m in axes for n in range(m, s.D + 1)
    }

    def covM(m, n):
        return cov_m[(min(m, n), max(m, n))]

    Phi = A.phi - unit(s)
    out = {}
    for X, Y in gauge.pair_iter(graded_generators(s)):
        kinds = (X.kind, Y.kind)
        if kinds == ("T", "T"):
            val = even_part(
                -commutator(cov_t[X.mu], cov_t[Y.mu]) - 1j * Ti[X.mu - 1, Y.mu - 1] * unit(s)
            )
        elif kinds == ("U", "U"):
            val = even_part(
                -anticommutator(cov_u[X.mu], cov_u[Y.mu]) - 2.0 * covM(X.mu, Y.mu)
            )
        elif kinds == ("J", "J"):
            val = even_part(-2.0 * star(Phi, Phi) + 2.0 * unit(s))
        elif kinds == ("T", "J"):
            val = odd_part(-commutator(cov_t[X.mu], Phi))
        elif kinds == ("U", "J"):
            val = even_part(-anticommutator(cov_u[X.mu], Phi) - 2.0 * cov_t[X.mu])
        elif kinds == ("M", "J"):
            val = odd_part(-commutator(covM(X.mu, X.nu), Phi))
        elif kinds == ("T", "U"):
            val = odd_part(
                -commutator(cov_t[X.mu], cov_u[Y.mu]) + 1j * Ti[X.mu - 1, Y.mu - 1] * Phi
            )
        elif kinds in (("T", "M"), ("U", "M")):
            # stored order is (T, M) or (U, M); use graded antisymmetry of
            # F(M, T) and F(M, U), which sit in the part of X's degree
            cov = cov_u if X.degree else cov_t
            m, n, r = Y.mu, Y.nu, X.mu
            f_m = (
                -commutator(covM(m, n), cov[r])
                + 1j * Ti[n - 1, r - 1] * cov[m]
                + 1j * Ti[m - 1, r - 1] * cov[n]
            )
            val = -1.0 * _place(X.degree, f_m)
        elif kinds == ("M", "M"):
            m, n = X.mu, X.nu
            r, t = Y.mu, Y.nu
            val = even_part(
                -commutator(covM(m, n), covM(r, t))
                + 1j
                * (
                    Ti[n - 1, t - 1] * covM(m, r)
                    + Ti[n - 1, r - 1] * covM(m, t)
                    + Ti[m - 1, t - 1] * covM(n, r)
                    + Ti[m - 1, r - 1] * covM(n, t)
                )
            )
        else:
            raise AssertionError(f"unhandled pair {kinds}")
        out[(X.name, Y.name)] = val
    return out


def graded_canonical_curvature(s: SymplecticStructure) -> dict:
    """F^inv(X, Y) = eta([X, Y]) - [eta X, eta Y]; central in the graded sense."""
    return gauge.canonical_entries(graded_generators(s), bracket_graded_generators, graded_unit(s))


def graded_gauge_transform(
    A: GradedConnectionForm, g: GradedElement, tol: float = 1e-10
) -> GradedConnectionForm:
    """Degree-0 unitary gauge transformation.

    A^g(X) = g^dag A(X) g + i g^dag X(g), with X(g) = partial_m g for T_m and
    U_m and [eta_(mn), g] for M_mn; phi transforms homogeneously because
    [J-type eta, g] vanishes on degree-0 g.
    """
    if not g.odd.is_zero(tol):
        raise ValueError("graded gauge elements must have degree 0")
    g0 = g.even
    act = gauge.unitary_action(g0, tol, "gauge transformations require a unitary even part")
    base = g2_basis(A.structure)
    # d_mu takes the exact derivative, not the commutator [eta_mu, g0], which
    # can be an ulp off at non-dyadic theta
    xg = {X.name: apply_derivation(X, g0) for X in base}
    comps = {
        group: {X.name: act(getattr(A, group)[X.name], xg[X.name]) for X in base if X.kind == kind}
        for group, _degree, kind in _SLOTS.values()
    }
    return replace(A, **comps, phi=act(A.phi))


def graded_action_density(A: GradedConnectionForm, alpha_coupling: float = 1.0):
    """The five assembled pieces of the restricted action integrand.

    Requires A0 = A1 and vanishing covariant M-sector coordinates
    (G0_(mn) = xi_m xi_n).  Returns a dict with the named pieces

      yang_mills:     F_mn * F_mn,
      anticommutator: {cov_m, cov_n} * {cov_m, cov_n},
      slavnov:        (ThetaInv_mn phi - F_mn)^2,
      covariant_kinetic: (d_m phi - i[A_m, phi])^2 + ({A_m, phi} - 2 xi_m phi)^2,
      potential:      4 phi^4 - 8/(m theta) phi^3 + 16/(m theta)^2 phi^2,

    each multiplied by 1/alpha^2, plus their sum under "total".  Index sums
    are free; F_mn = d_m A_n - d_n A_m - i [A_m, A_n].
    """
    s = A.structure
    # d_mu precede X_(mu nu) in the G2 basis, so A0 = A1 is checked first
    for X in g2_basis(s):
        if X.kind == "partial" and not (A.A0[X.name] - A.A1[X.name]).is_zero(1e-12):
            raise ValueError("graded action density requires A0 = A1")
        if X.kind == "sym" and not (A.G0[X.name] - _xi_xi(s, X.mu, X.nu)).is_zero(1e-12):
            raise ValueError("graded action density requires vanishing covariant M components")

    phi = A.phi
    mtheta = A.m_scale * s.theta
    zero = MoyalElement(s, {})

    def Amu(m):
        return A.A0[f"d{m}"]

    def cov(m):
        return Amu(m) - xi(s, m)

    def F(m, n):
        return (
            partial(m, Amu(n))
            - partial(n, Amu(m))
            - 1j * commutator(Amu(m), Amu(n))
        )

    yang_mills = zero
    anticom = zero
    slavnov = zero
    kinetic = zero
    Ti = s.ThetaInv
    for m in range(1, s.D + 1):
        dphi = partial(m, phi) - 1j * commutator(Amu(m), phi)
        # xi_m phi in the harmonic term is the ordinary pointwise product
        harm = anticommutator(Amu(m), phi) - 2.0 * pointwise(xi(s, m), phi)
        kinetic = kinetic + star(dphi, dphi) + star(harm, harm)
        for n in range(1, s.D + 1):
            fmn = F(m, n)
            yang_mills = yang_mills + star(fmn, fmn)
            ac = anticommutator(cov(m), cov(n))
            anticom = anticom + star(ac, ac)
            sl = Ti[m - 1, n - 1] * phi - fmn
            slavnov = slavnov + star(sl, sl)
    potential = (
        4.0 * phi**4 - (8.0 / mtheta) * phi**3 + (16.0 / mtheta**2) * phi**2
    )
    scale = 1.0 / alpha_coupling**2
    out = {
        "yang_mills": scale * yang_mills,
        "anticommutator": scale * anticom,
        "slavnov": scale * slavnov,
        "covariant_kinetic": scale * kinetic,
        "potential": scale * potential,
    }
    out["total"] = (
        out["yang_mills"]
        + out["anticommutator"]
        + out["slavnov"]
        + out["covariant_kinetic"]
        + out["potential"]
    )
    return out


def graded_connection_from_config(cfg: dict, parse=None) -> GradedConnectionForm:
    """Build a graded connection from the JSON-compatible mapping.

    Keys: D, theta, m, and component groups A0, A1, G0 (name -> expression)
    plus phi (expression).  Other keys, such as the ungraded ``mu``, are ignored.
    """
    s = gauge.structure_from_config(cfg, "graded")
    phi = gauge.parse_components({"phi": cfg.get("phi")}, s, parse)["phi"]
    groups = {
        group: gauge.parse_components(cfg.get(group), s, parse) for group, *_ in _SLOTS.values()
    }
    m_scale = gauge.config_number(cfg, "m", float, 1.0)
    return GradedConnectionForm(s, **groups, phi=phi, m_scale=m_scale)
