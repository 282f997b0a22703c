"""Derivation algebras of the star-product calculus.

Two Lie algebras of inner derivations are exposed:

* the abelian algebra spanned by the spatial derivations d_mu = [i xi_mu, .],
* its extension by the quadratic generators X_(mu nu) = [i xi_mu xi_nu, .],
  which generate the infinitesimal symplectomorphisms (the image under the
  adjoint action of polynomials of degree <= 2).

Every generator carries an element eta(X) with vanishing constant term such
that X = [eta(X), .]; for a general inner derivation Ad_P the representative
is eta(Ad_P) = P - P(0).  The map eta is linear but fails to be a Lie-algebra
morphism by central charges, which is what makes the canonical connection of
the gauge modules curved.

Generator naming (used by the CLI and config files): "d1".."dD" for the
spatial derivations, "X11", "X12", ... (mu <= nu) for the quadratic ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import (
    MoyalElement,
    anticommutator,
    commutator,
    monomial,
    partial,
    pointwise,
    unit,
    xi,
)
from .structure import SymplecticStructure

__all__ = [
    "DerivationGenerator",
    "BracketDecomposition",
    "partial_generator",
    "sym_generator",
    "inner_generator",
    "g1_basis",
    "g2_basis",
    "eta",
    "apply_derivation",
    "poisson_bracket",
    "bracket_generators",
    "decompose_eta_combination",
    "d2_special_basis",
    "verify_d2_special_brackets",
]


@dataclass(frozen=True)
class DerivationGenerator:
    """Tagged derivation: Partial(mu), Sym(mu, nu) with mu <= nu, or Inner(P)."""

    structure: SymplecticStructure
    kind: str  # "partial" | "sym" | "inner"
    mu: int = 0
    nu: int = 0
    inner: MoyalElement = None

    @property
    def name(self) -> str:
        if self.kind == "partial":
            return f"d{self.mu}"
        if self.kind == "sym":
            return f"X{self.mu}{self.nu}"
        return "Ad"

    def __repr__(self):
        return f"DerivationGenerator({self.name})"


def partial_generator(s: SymplecticStructure, mu: int) -> DerivationGenerator:
    s.check_index(mu)
    return DerivationGenerator(s, "partial", mu=mu)


def sym_generator(s: SymplecticStructure, mu: int, nu: int) -> DerivationGenerator:
    s.check_index(mu)
    s.check_index(nu)
    if mu > nu:
        mu, nu = nu, mu
    return DerivationGenerator(s, "sym", mu=mu, nu=nu)


def inner_generator(P: MoyalElement) -> DerivationGenerator:
    return DerivationGenerator(P.structure, "inner", inner=P)


def g1_basis(s: SymplecticStructure):
    return [partial_generator(s, mu) for mu in range(1, s.D + 1)]


def g2_basis(s: SymplecticStructure):
    """d_1..d_D followed by the D(D+1)/2 quadratic generators, mu <= nu."""
    gens = g1_basis(s)
    for mu in range(1, s.D + 1):
        for nu in range(mu, s.D + 1):
            gens.append(sym_generator(s, mu, nu))
    return gens


def eta(X: DerivationGenerator) -> MoyalElement:
    """Representative with eta(X)(0) = 0 such that X = [eta(X), .]."""
    s = X.structure
    if X.kind == "partial":
        return 1j * xi(s, X.mu)
    if X.kind == "sym":
        # pointwise product xi_mu xi_nu: the symmetrised star product, which
        # cancels the constant star correction of the mixed case
        return 0.5j * anticommutator(xi(s, X.mu), xi(s, X.nu))
    P = X.inner
    if not P.is_polynomial():
        raise ValueError("eta is defined for polynomial inner derivations only")
    if P.degree() > 2:
        raise ValueError("eta restricted to polynomials of degree <= 2")
    return P - P.constant_part() * unit(s)


def apply_derivation(X: DerivationGenerator, a: MoyalElement) -> MoyalElement:
    """X(a); the Leibniz rule holds for every kind."""
    X.structure.check_compatible(a.structure)
    if X.kind == "partial":
        return partial(X.mu, a)
    if X.kind == "sym":
        return commutator(eta(X), a)
    # general inner derivation; the constant part drops out of the bracket
    return commutator(X.inner, a)


def poisson_bracket(P1: MoyalElement, P2: MoyalElement) -> MoyalElement:
    """{P1, P2}_PB = Theta_{mu nu} dP1/dx_mu dP2/dx_nu on pure polynomials."""
    P1.structure.check_compatible(P2.structure)
    if not (P1.is_polynomial() and P2.is_polynomial()):
        raise ValueError("poisson_bracket requires pure polynomials (k = 0)")
    s = P1.structure
    grads = [(mu, partial(mu, P1)) for mu in range(1, s.D + 1)]
    return sum((
        t * pointwise(d1, partial(nu, P2))
        for mu, d1 in grads
        if not d1.is_zero()
        for nu, t in enumerate(s.Theta[mu - 1], start=1)
        if t != 0.0
    ), MoyalElement(s, {}))


# ---------------------------------------------------------------------------
# structure constants by projection onto the monomial basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BracketDecomposition:
    """[eta(X), eta(Y)]_star = central * unit + sum coeff_i eta(X_i).

    The graded algebra uses the same record for its graded bracket, with unit
    (1, 0) and ``GradedGenerator`` terms.
    """

    central: complex
    terms: tuple  # of (coeff, generator)


def decompose_eta_combination(
    value: MoyalElement, scale_sym: complex = 1.0
) -> BracketDecomposition:
    """Write a polynomial of degree <= 2 as central + combination of eta values.

    ``scale_sym`` rescales the quadratic basis values eta_(mu nu) ->
    scale_sym * eta_(mu nu), which the connection module uses for the
    mu*theta rescaled calculus; the linear basis values eta_mu are not scaled.
    """
    s = value.structure
    if not value.is_polynomial() or value.degree() > 2:
        raise ValueError("decomposition needs a polynomial of degree <= 2")
    central = value.constant_part()

    # linear sector: value_mu x_mu = sum_b b_nu eta_nu
    lin = np.zeros(s.D, dtype=complex)
    for (alpha, _k), c in value.terms.items():
        if sum(alpha) == 1:
            lin[alpha.index(1)] = c
    gens = []
    if np.any(lin != 0):
        # eta_mu = -i ThetaInv[mu, nu] x_nu ; columns are basis vectors
        M = -1j * np.asarray(s.ThetaInv, dtype=complex).T
        b = np.linalg.solve(M, lin)
        for mu in range(1, s.D + 1):
            if abs(b[mu - 1]) > 1e-13 * max(1.0, float(np.max(np.abs(b)))):
                gens.append((complex(b[mu - 1]), partial_generator(s, mu)))

    # quadratic sector over the basis x_a x_b with a <= b
    pairs = [(a, b) for a in range(s.D) for b in range(a, s.D)]
    quad = np.zeros(len(pairs), dtype=complex)
    for (alpha, _k), c in value.terms.items():
        if sum(alpha) == 2:
            idx = [i for i, e in enumerate(alpha) if e > 0]
            a, b = (idx[0], idx[0]) if len(idx) == 1 else (idx[0], idx[1])
            quad[pairs.index((a, b))] = c
    if np.any(quad != 0):
        M = np.zeros((len(pairs), len(pairs)), dtype=complex)
        Ti = np.asarray(s.ThetaInv)
        for col, (mu, nu) in enumerate(pairs):
            # eta_(mu nu) = i xi_mu xi_nu = i ThetaInv[mu,a] ThetaInv[nu,b] x_a x_b
            for a in range(s.D):
                for b in range(s.D):
                    c = 1j * scale_sym * Ti[mu, a] * Ti[nu, b]
                    row = pairs.index((a, b) if a <= b else (b, a))
                    M[row, col] += c
        b_ = np.linalg.solve(M, quad)
        top = max(1.0, float(np.max(np.abs(b_))))
        for col, (mu, nu) in enumerate(pairs):
            if abs(b_[col]) > 1e-13 * top:
                gens.append((complex(b_[col]), sym_generator(s, mu + 1, nu + 1)))

    return BracketDecomposition(central=complex(central), terms=tuple(gens))


def bracket_generators(X: DerivationGenerator, Y: DerivationGenerator) -> BracketDecomposition:
    """Decompose [eta(X), eta(Y)]_star over {unit, eta_mu, eta_(mu nu)}.

    The derivation bracket [X, Y] is the same combination with the central
    part dropped.  Structure constants are obtained by brute-force star
    commutators, never hard-coded.
    """
    X.structure.check_compatible(Y.structure)
    return decompose_eta_combination(commutator(eta(X), eta(Y)))


# ---------------------------------------------------------------------------
# the D = 2 special combinations
# ---------------------------------------------------------------------------

def d2_special_basis(s: SymplecticStructure):
    """eta_X1, eta_X2, eta_X3 for D = 2 (rotation/boost combinations)."""
    if s.D != 2:
        raise ValueError("the special basis is defined for D = 2 only")
    x1sq = monomial(s, (2, 0))
    x2sq = monomial(s, (0, 2))
    x1x2 = monomial(s, (1, 1))
    c = 1j / (4 * math.sqrt(2) * s.theta)
    return (c * (x1sq + x2sq), c * (x1sq - x2sq), 2 * c * x1x2)


def verify_d2_special_brackets(s: SymplecticStructure) -> dict:
    """Residuals of the nine D = 2 bracket relations, keyed by relation.

    The signs of the three X-X brackets are fixed by the Jacobi identity together
    with the mixed relations; the commonly quoted table carries the opposite
    sign on those three, which fails Jacobi and cannot be realised by any
    associative product.
    """
    e1 = eta(partial_generator(s, 1))
    e2 = eta(partial_generator(s, 2))
    eX1, eX2, eX3 = d2_special_basis(s)
    r = 1 / math.sqrt(2)
    h = 1 / (2 * math.sqrt(2))
    relations = {
        "[eX1,eX2]=-eX3/sqrt2": (commutator(eX1, eX2), -r * eX3),
        "[eX2,eX3]=eX1/sqrt2": (commutator(eX2, eX3), r * eX1),
        "[eX3,eX1]=-eX2/sqrt2": (commutator(eX3, eX1), -r * eX2),
        "[e1,eX1]=e2/(2sqrt2)": (commutator(e1, eX1), h * e2),
        "[e2,eX1]=-e1/(2sqrt2)": (commutator(e2, eX1), -h * e1),
        "[e1,eX2]=e2/(2sqrt2)": (commutator(e1, eX2), h * e2),
        "[e2,eX2]=e1/(2sqrt2)": (commutator(e2, eX2), h * e1),
        "[e1,eX3]=-e1/(2sqrt2)": (commutator(e1, eX3), -h * e1),
        "[e2,eX3]=e2/(2sqrt2)": (commutator(e2, eX3), h * e2),
    }
    return {name: (lhs - rhs).norm() for name, (lhs, rhs) in relations.items()}
