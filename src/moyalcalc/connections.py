"""Noncommutative connections for the spatial and symplectomorphism calculi.

A connection is stored through its Hermitian-convention potential A(X), one
element per basis generator, with nabla_X(a) = X(a) - i A(X) * a.  The
associated covariant coordinates are

    cov(d_mu)     = -i (A_mu - xi_mu),
    cov(X_(munu)) = -i (A_(munu) - mu_scale * theta * xi_mu xi_nu),

where the quadratic sector carries the mass rescaling
eta_(munu) -> mu_scale * theta * eta_(munu).  Curvature components are
computed twice: by closed forms,

    F(d_mu, d_nu)        = [cov_mu, cov_nu] - i ThetaInv_{mu nu},
    F(d_mu, X_(rs))      = [cov_mu, cov_(rs)]
                           - mu_scale*theta*(ThetaInv_{mr} cov_s + ThetaInv_{ms} cov_r),
    F(X_(mn), X_(rs))    = [cov_(mn), cov_(rs)]
                           + mu_scale*theta*(ThetaInv_{rn} cov_(ms) + ThetaInv_{sn} cov_(mr)
                           + ThetaInv_{rm} cov_(ns) + ThetaInv_{sm} cov_(nr)),

and generically from the bracket decomposition

    F(X, Y) = ([cov X, cov Y] - cov([X, Y])) - ([eta X, eta Y] - eta([X, Y])),

and the two paths must agree.  The mixed component carries the symmetric
(+, +) pattern in its two structure-constant terms; this is forced by the
generic formula together with the rescaled bracket
[eta_mu, eta_(rs)] = mu_scale*theta*(ThetaInv_{mr} eta_s + ThetaInv_{ms} eta_r).

Gauge transformations follow the g^dag ... g convention throughout:
A^g(X) = g^dag A(X) g + i g^dag X(g), X(g) = [eta(X), g] (partial_mu g for
d_mu), which makes the covariant coordinates and every curvature entry
transform homogeneously.

The generic path, the canonical curvature, the dual-path residual, the gauge
action, component filling and config loading are the scaffold in
``gauge``, shared with the graded connections.  The closed forms above stay
here: they are the independent path of the dual-path check.

Results have the graded layer's plain dict shapes (see ``gauge``);
``CurvatureTable`` adds only its reversed-pair lookup, and ``action_density``
returns the sector densities with their sum under "total".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import gauge
from .derivations import (
    DerivationGenerator,
    decompose_eta_combination,
    eta,
    g1_basis,
    g2_basis,
    partial_generator,
    sym_generator,
)
from .elements import MoyalElement, commutator, partial, star, unit
from .structure import SymplecticStructure

__all__ = [
    "ConnectionForm",
    "CurvatureTable",
    "eta_rescaled",
    "canonical_connection",
    "covariant_coordinates",
    "curvature",
    "curvature_generic",
    "canonical_curvature",
    "covariant_derivative",
    "gauge_transform",
    "action_density",
    "connection_from_config",
]


def _basis(s: SymplecticStructure, name: str):
    if name == "G1":
        return g1_basis(s)
    if name == "G2":
        return g2_basis(s)
    raise ValueError(f"unknown basis {name!r}; expected 'G1' or 'G2'")


@dataclass(frozen=True)
class ConnectionForm:
    """Gauge potential components in the Hermitian convention A(X)^dag = A(X)."""

    structure: SymplecticStructure
    basis: str = "G1"
    components: dict = field(default_factory=dict)  # generator name -> element
    mu_scale: float = 1.0
    alpha_coupling: float = 1.0

    def __post_init__(self):
        if not (0 < self.mu_scale < math.inf and 0 < self.alpha_coupling < math.inf):
            raise ValueError("mu_scale and alpha_coupling must be positive and finite")
        names = [X.name for X in self.generators()]
        comps = gauge.fill_components(
            self.components, names, self.structure, "components for unknown generators"
        )
        object.__setattr__(self, "components", comps)

    def generators(self):
        return _basis(self.structure, self.basis)

    def component(self, X: DerivationGenerator) -> MoyalElement:
        return self.components[X.name]

    def is_hermitian(self) -> bool:
        return all((a.dag() - a).norm() <= 1e-12 for a in self.components.values())


def eta_rescaled(X: DerivationGenerator, mu_scale: float) -> MoyalElement:
    """eta with the quadratic sector scaled by mu_scale * theta."""
    if X.kind == "sym":
        return (mu_scale * X.structure.theta) * eta(X)
    return eta(X)


def covariant_coordinates(A: ConnectionForm) -> dict:
    """name -> cov(X) = -i A(X) + eta_rescaled(X); transforms homogeneously."""
    return {X.name: -1j * A.component(X) + eta_rescaled(X, A.mu_scale) for X in A.generators()}


def canonical_connection(
    A: ConnectionForm, X: DerivationGenerator, a: MoyalElement
) -> MoyalElement:
    """Gauge-invariant nabla^inv_X(a) = -a * eta_rescaled(X, A.mu_scale); X in A's basis."""
    if X.name not in A.components:
        raise ValueError(f"generator {X.name} is not in the {A.basis} basis")
    return -star(a, eta_rescaled(X, A.mu_scale))


class CurvatureTable(dict):
    """Curvature entries keyed by ordered generator-name pairs; F("d2", "d1") = -F("d1", "d2")."""

    def __call__(self, n1: str, n2: str) -> MoyalElement:
        if (n1, n2) in self:
            return self[(n1, n2)]
        if (n2, n1) in self:
            return -self[(n2, n1)]
        raise KeyError((n1, n2))


def curvature(A: ConnectionForm) -> CurvatureTable:
    """Closed-form curvature over all generator pairs; one side of the dual-path check."""
    s = A.structure
    cov = covariant_coordinates(A)
    mt = A.mu_scale * s.theta
    Ti = s.ThetaInv
    gens = A.generators()
    entries = {}
    for X, Y in gauge.pair_iter(gens):
        val = commutator(cov[X.name], cov[Y.name])
        if X.kind == "partial" and Y.kind == "partial":
            val = val - 1j * Ti[X.mu - 1, Y.mu - 1] * unit(s)
        elif X.kind == "partial" and Y.kind == "sym":
            m, r, s_ = X.mu - 1, Y.mu - 1, Y.nu - 1
            val = val - mt * (
                Ti[m, r] * cov[f"d{Y.nu}"] + Ti[m, s_] * cov[f"d{Y.mu}"]
            )
        elif X.kind == "sym" and Y.kind == "sym":
            m, n = X.mu - 1, X.nu - 1
            r, s_ = Y.mu - 1, Y.nu - 1
            val = val + mt * (
                Ti[r, n] * cov[sym_generator(s, X.mu, Y.nu).name]
                + Ti[s_, n] * cov[sym_generator(s, X.mu, Y.mu).name]
                + Ti[r, m] * cov[sym_generator(s, X.nu, Y.nu).name]
                + Ti[s_, m] * cov[sym_generator(s, X.nu, Y.mu).name]
            )
        entries[(X.name, Y.name)] = val
    return CurvatureTable(entries)


def _bracket_rescaled(X, Y, mu_scale):
    """Decomposition of [eta^resc(X), eta^resc(Y)] in the rescaled basis."""
    val = commutator(eta_rescaled(X, mu_scale), eta_rescaled(Y, mu_scale))
    return decompose_eta_combination(val, scale_sym=mu_scale * X.structure.theta)


def curvature_generic(A: ConnectionForm) -> CurvatureTable:
    """Curvature from the generic formula; must match ``curvature``."""
    entries = gauge.generic_curvature(
        A.generators(),
        covariant_coordinates(A),
        lambda X, Y: _bracket_rescaled(X, Y, A.mu_scale),
        commutator,
        unit(A.structure),
    )
    return CurvatureTable(entries)


def canonical_curvature(
    s: SymplecticStructure, basis: str = "G2", mu_scale: float = 1.0
) -> CurvatureTable:
    """F^inv(X, Y) = eta([X, Y]) - [eta(X), eta(Y)]; every entry is central."""
    gens = _basis(s, basis)
    entries = gauge.canonical_entries(
        gens, lambda X, Y: _bracket_rescaled(X, Y, mu_scale), unit(s)
    )
    return CurvatureTable(entries)


def covariant_derivative(
    A: ConnectionForm, mu: int, rho: int, sigma: int
) -> MoyalElement:
    """D^A_mu cov_(rho sigma) = d_mu cov_(rho sigma) - i [A_mu, cov_(rho sigma)]."""
    if A.basis != "G2":
        raise ValueError("covariant derivative requires the G2 basis")
    s = A.structure
    s.check_index(mu)
    target = sym_generator(s, rho, sigma)
    cov = covariant_coordinates(A)[target.name]
    return cov.partial(mu) - 1j * commutator(A.component(partial_generator(s, mu)), cov)


def gauge_transform(A: ConnectionForm, g: MoyalElement) -> ConnectionForm:
    """A^g(X) = g^dag A(X) g + i g^dag X(g) for unitary g (to ``gauge.GAUGE_TOL``)."""
    act = gauge.unitary_action(g, "gauge transformations require a unitary element")
    comps = {}
    for X in A.generators():
        # d_mu takes the exact derivative, not the commutator [eta_mu, g],
        # which can be an ulp off at non-dyadic theta
        if X.kind == "partial":
            xg = partial(X.mu, g)
        else:
            xg = commutator(eta_rescaled(X, A.mu_scale), g)
        comps[X.name] = act(A.component(X), xg)
    return replace(A, components=comps)


def _free_pair_weight(X: DerivationGenerator) -> int:
    # free index sums run over all D (or D^2) tuples; off-diagonal symmetric
    # components appear twice
    if X.kind == "sym" and X.mu != X.nu:
        return 2
    return 1


def action_density(A: ConnectionForm) -> dict:
    """Integrand of the gauge action: -(1/alpha^2) sum_sectors F * F.

    Index sums are free (all tuples), so off-diagonal symmetric components
    count twice per symmetric slot.  Returns the three sector densities
    ("spatial", "mixed", "sym") plus their sum under "total".
    """
    s = A.structure
    F = curvature(A)
    gens = A.generators()
    sector = {
        ("partial", "partial"): MoyalElement(s, {}),
        ("partial", "sym"): MoyalElement(s, {}),
        ("sym", "sym"): MoyalElement(s, {}),
    }
    for X, Y in gauge.pair_iter(gens):
        val = F(X.name, Y.name)
        if val.is_zero():
            continue
        key = (X.kind, Y.kind)
        mult = _free_pair_weight(X) * _free_pair_weight(Y)
        # within one sector the free sum visits both slot orders, and the
        # two squares agree by antisymmetry; the mixed sector has distinct
        # slot families, so no such doubling
        if X.kind == Y.kind and X.name != Y.name:
            mult *= 2
        sector[key] = sector[key] + mult * star(val, val)
    scale = -1.0 / A.alpha_coupling**2
    out = {
        "spatial": scale * sector[("partial", "partial")],
        "mixed": scale * sector[("partial", "sym")],
        "sym": scale * sector[("sym", "sym")],
    }
    out["total"] = out["spatial"] + out["mixed"] + out["sym"]
    return out


def connection_from_config(cfg: dict) -> ConnectionForm:
    """Build a connection from the JSON-compatible config mapping.

    Expected keys: D, theta, mu, alpha, basis, components (a mapping from
    generator names to expression strings or null).
    """
    s = gauge.structure_from_config(cfg, "connection")
    return ConnectionForm(
        s,
        cfg.get("basis", "G1"),
        gauge.parse_components(cfg.get("components"), s),
        mu_scale=gauge.config_number(cfg, "mu", float, 1.0),
        alpha_coupling=gauge.config_number(cfg, "alpha", float, 1.0),
    )
