import numpy as np
import pytest

from moyalcalc import (
    ConnectionForm,
    MoyalElement,
    SymplecticStructure,
    action_density,
    canonical_connection,
    canonical_curvature,
    commutator,
    connection_from_config,
    coordinate,
    covariant_coordinates,
    covariant_derivative,
    curvature,
    curvature_generic,
    gauge_transform,
    monomial,
    partial,
    partial_generator,
    plane_wave,
    pointwise,
    star,
    sym_generator,
    unit,
    xi,
)
from moyalcalc import gauge
from moyalcalc.verify import random_connection, random_element, random_gauge

S2 = SymplecticStructure(2, 1.0)


def zero_connection(s=S2, basis="G2", mu_scale=1.0):
    return ConnectionForm(s, basis, {}, mu_scale=mu_scale)


def test_canonical_connection_values():
    A = zero_connection()
    X = partial_generator(S2, 1)
    got = canonical_connection(A, X, unit(S2))
    assert (got + 1j * xi(S2, 1)).norm() == 0.0
    # nabla^inv_{d1}(x1) = -x1 * (i xi_1) = i x1 * x2 for theta = 1
    got = canonical_connection(A, X, coordinate(S2, 1))
    expect = 1j * star(coordinate(S2, 1), coordinate(S2, 2))
    assert (got - expect).norm() < 1e-15


def test_canonical_connection_gauge_invariant():
    A = zero_connection()
    X = sym_generator(S2, 1, 2)
    g = plane_wave(S2, (0.75, -0.5))
    a = coordinate(S2, 1) + plane_wave(S2, (0.5, 0.25), 2j)
    lhs = star(g.dag(), canonical_connection(A, X, star(g, a)))
    assert (lhs - canonical_connection(A, X, a)).norm() < 1e-14


def test_covariant_coordinates_special_cases():
    # A = 0 -> cov_mu = i xi_mu
    cov = covariant_coordinates(zero_connection())
    for mu in (1, 2):
        assert (cov[f"d{mu}"] - 1j * xi(S2, mu)).norm() == 0.0
    # A_mu = xi_mu -> cov_mu = 0
    comps = {f"d{mu}": xi(S2, mu) for mu in (1, 2)}
    A = ConnectionForm(S2, "G1", comps)
    cov = covariant_coordinates(A)
    for mu in (1, 2):
        assert cov[f"d{mu}"].norm() == 0.0


def test_covariant_coordinates_gauge_homogeneous():
    rng = np.random.default_rng(3)
    A = random_connection(rng, S2)
    g = random_gauge(rng, S2)
    gd = g.dag()
    cov = covariant_coordinates(A)
    covg = covariant_coordinates(gauge_transform(A, g))
    for name in cov:
        assert (covg[name] - star(star(gd, cov[name]), g)).norm() < 1e-10


def test_flat_and_constant_configurations():
    F = curvature(zero_connection())
    assert max(v.norm() for v in F.values()) == 0.0
    comps = {"d1": unit(S2, 0.7), "d2": unit(S2, -0.2)}
    A = ConnectionForm(S2, "G1", comps)
    F = curvature(A)
    assert max(v.norm() for v in F.values()) < 1e-15


def test_curvature_wave_example_against_alternative_formula():
    """F_12 for A_mu = eps_mu (e^{ikx} + e^{-ikx}) vs -i(dA - dA - i[A,A])."""
    k = (1.0, 0.0)
    eps = (0.0, 0.3)
    w = plane_wave(S2, k) + plane_wave(S2, tuple(-v for v in k))
    comps = {"d1": eps[0] * w, "d2": eps[1] * w}
    A = ConnectionForm(S2, "G1", comps)
    F = curvature(A)
    A1, A2 = comps["d1"], comps["d2"]
    alt = -1j * (partial(1, A2) - partial(2, A1) - 1j * commutator(A1, A2))
    assert (F("d1", "d2") - alt).norm() < 1e-13
    # antisymmetric accessor and dual-path agreement
    assert (F("d2", "d1") + F("d1", "d2")).norm() == 0.0
    assert gauge.max_residual(F, curvature_generic(A)) < 1e-13


def test_canonical_curvature_values():
    for mu_scale in (1.0, 1.7):
        Finv = canonical_curvature(S2, "G2", mu_scale=mu_scale)
        for (n1, n2), val in Finv.items():
            if n1.startswith("d") and n2.startswith("d"):
                m, n = int(n1[1:]), int(n2[1:])
                expect = -1j * S2.ThetaInv[m - 1, n - 1] * unit(S2)
            else:
                expect = 0.0 * unit(S2)
            assert (val - expect).norm() < 1e-14


@pytest.mark.parametrize("D", [2, 4])
def test_dual_path_random_connections(D):
    s = SymplecticStructure(D, 0.9)
    rng = np.random.default_rng(17)
    n = 12 if D == 2 else 3
    for _ in range(n):
        A = random_connection(rng, s)
        assert gauge.max_residual(curvature(A), curvature_generic(A)) < 1e-11


def test_covariant_derivative_identity_and_linearity():
    rng = np.random.default_rng(19)
    A = random_connection(rng, S2)
    cov = covariant_coordinates(A)
    F = curvature(A)
    mt = A.mu_scale * S2.theta
    for mu in (1, 2):
        for rho in (1, 2):
            for sg in range(rho, 3):
                Dv = covariant_derivative(A, mu, rho, sg)
                ident = Dv - mt * (
                    S2.ThetaInv[mu - 1, rho - 1] * cov[f"d{sg}"]
                    + S2.ThetaInv[mu - 1, sg - 1] * cov[f"d{rho}"]
                )
                assert (F(f"d{mu}", f"X{rho}{sg}") - ident).norm() < 1e-11
    # D^A_mu cov equals [cov_mu, cov] exactly
    Dv = covariant_derivative(A, 1, 1, 2)
    assert (Dv - commutator(cov["d1"], cov["X12"])).norm() < 1e-12


def test_covariant_derivative_zero_connection():
    A = zero_connection(mu_scale=1.4)
    got = covariant_derivative(A, 1, 1, 2)
    cov12 = covariant_coordinates(A)["X12"]
    assert (got - partial(1, cov12)).norm() < 1e-14


def test_covariant_derivative_linear_in_sym_component():
    rng = np.random.default_rng(43)
    base = {
        "d1": random_element(rng, S2, 2, 1),
        "d2": random_element(rng, S2, 2, 1),
    }
    u = random_element(rng, S2, 2, 2)
    v = random_element(rng, S2, 2, 2)
    mk = lambda sym: ConnectionForm(S2, "G2", {**base, "X12": sym})
    lhs = covariant_derivative(mk(u + 2.0 * v), 1, 1, 2)
    rhs = (
        covariant_derivative(mk(u), 1, 1, 2)
        + 2.0 * covariant_derivative(mk(v), 1, 1, 2)
        - 2.0 * covariant_derivative(mk(MoyalElement(S2, {})), 1, 1, 2)
    )
    assert (lhs - rhs).norm() < 1e-12


def test_gauge_transform_examples():
    A = zero_connection(basis="G1")
    # identity gauge leaves A unchanged
    Ag = gauge_transform(A, unit(S2))
    for name, val in Ag.components.items():
        assert val.norm() == 0.0
    # plane wave on the zero connection: A^g_mu = -k_mu * unit
    k = (0.75, -0.5)
    Ag = gauge_transform(A, plane_wave(S2, k))
    for mu in (1, 2):
        assert (Ag.components[f"d{mu}"] + k[mu - 1] * unit(S2)).norm() < 1e-13
    with pytest.raises(ValueError):
        gauge_transform(A, 2.0 * unit(S2))


def test_gauge_transform_exact_pure_gauge():
    # the d_mu slots take the exact derivative partial_mu g, and g^dag g is
    # exactly the unit, so the pure gauge is -k_mu times the unit even at a
    # non-dyadic theta, with no imaginary residue
    s = SymplecticStructure(2, 0.3)
    k = (-0.75, 1.75)
    Ag = gauge_transform(zero_connection(s, basis="G1"), plane_wave(s, k))
    for mu in (1, 2):
        assert Ag.components[f"d{mu}"].terms == {((0, 0), (0.0, 0.0)): complex(-k[mu - 1])}


def test_curvature_gauge_orbit():
    rng = np.random.default_rng(29)
    A = random_connection(rng, S2)
    F = curvature(A)
    for _ in range(5):
        g = random_gauge(rng, S2)
        gd = g.dag()
        Fg = curvature(gauge_transform(A, g))
        assert gauge.max_residual(Fg, {k: star(star(gd, v), g) for k, v in F.items()}) < 1e-10


def test_action_density_zero_and_covariance():
    assert action_density(zero_connection())["total"].norm() == 0.0
    rng = np.random.default_rng(31)
    A = random_connection(rng, S2, max_terms=1, max_degree=1)
    dens = action_density(A)["total"]
    g = random_gauge(rng, S2)
    densg = action_density(gauge_transform(A, g))["total"]
    assert (densg - star(star(g.dag(), dens), g)).norm() < 1e-10


def test_mass_term_decomposition_witness():
    """With vanishing Sym covariant coordinates the mixed sector reduces to
    (4n + 2) mu^2 cov_mu cov_mu."""
    rng = np.random.default_rng(37)
    mu_scale = 1.3
    mt = mu_scale * S2.theta
    comps = {
        "d1": random_element(rng, S2, 2, 1),
        "d2": random_element(rng, S2, 2, 1),
    }
    for m in (1, 2):
        for n in range(m, 3):
            xx = pointwise(xi(S2, m), xi(S2, n))
            comps[f"X{m}{n}"] = mt * xx  # cov_(mn) = -i(A - mt xi xi) = 0
    A = ConnectionForm(S2, "G2", comps, mu_scale=mu_scale)
    cov = covariant_coordinates(A)
    for m in (1, 2):
        for n in range(m, 3):
            assert cov[f"X{m}{n}"].norm() < 1e-14
    pieces = action_density(A)
    n_half = S2.D // 2
    acc = None
    for m in (1, 2):
        t = star(cov[f"d{m}"], cov[f"d{m}"])
        acc = t if acc is None else acc + t
    expect = -((4 * n_half + 2) * mu_scale**2) * acc
    assert (pieces["mixed"] - expect).norm() < 1e-12


def test_connection_leibniz():
    rng = np.random.default_rng(41)
    A = random_connection(rng, S2)
    X = partial_generator(S2, 1)
    Amu = A.component(X)
    a, b = random_element(rng, S2), random_element(rng, S2)
    nabla = lambda v: partial(1, v) - 1j * star(Amu, v)
    lhs = nabla(star(a, b))
    rhs = star(nabla(a), b) + star(a, partial(1, b))
    scale = max(1.0, lhs.norm())
    assert (lhs - rhs).norm() / scale < 1e-11


def test_hermitian_flag():
    w = plane_wave(S2, (0.5, 0.5))
    comps = {"d1": w + w.dag(), "d2": coordinate(S2, 1)}
    A = ConnectionForm(S2, "G1", comps)
    assert A.is_hermitian()
    comps = {"d1": 1j * coordinate(S2, 1)}
    assert not ConnectionForm(S2, "G1", comps).is_hermitian()


def test_connection_from_config():
    cfg = {
        "D": 2,
        "theta": 1.0,
        "mu": 1.5,
        "alpha": 2.0,
        "basis": "G2",
        "components": {"d1": "x1 + 0.5 W[1.0,0.0]", "X12": "x1 x2"},
    }
    A = connection_from_config(cfg)
    assert A.mu_scale == 1.5 and A.alpha_coupling == 2.0
    assert (A.components["X12"] - monomial(S2, (1, 1))).norm() == 0.0
    assert A.components["X11"].norm() == 0.0
    with pytest.raises(ValueError):
        connection_from_config({"theta": 1.0})
    bad = dict(cfg, components={"nope": "x1"})
    with pytest.raises(ValueError):
        connection_from_config(bad)


def test_config_loader_parses_expressions_by_default():
    A = connection_from_config({"D": 2, "components": {"d1": "x1", "d2": None}})
    assert (A.components["d1"] - coordinate(S2, 1)).norm() == 0.0
    assert A.components["d2"].norm() == 0.0


def test_element_components_are_not_config_values():
    with pytest.raises(ValueError, match="component d1 must be an expression string"):
        connection_from_config({"D": 2, "components": {"d1": coordinate(S2, 1)}})


def test_curvature_tables_are_dicts():
    rng = np.random.default_rng(7)
    A = random_connection(rng, S2)
    F, Fg = curvature(A), curvature_generic(A)
    for table in (F, Fg, canonical_curvature(S2)):
        assert isinstance(table, dict)
    assert F("d2", "d1").terms == (-F("d1", "d2")).terms
