import numpy as np
import pytest

from moyalcalc import (
    GradedConnectionForm,
    GradedElement,
    GradedGenerator,
    MoyalElement,
    SymplecticStructure,
    anticommutator,
    commutator,
    coordinate,
    graded_action_density,
    graded_bracket,
    graded_canonical_curvature,
    graded_connection_from_config,
    graded_covariant_coordinates,
    graded_curvature,
    graded_curvature_generic,
    graded_eta,
    graded_gauge_transform,
    graded_generators,
    graded_unit,
    monomial,
    partial,
    plane_wave,
    pointwise,
    star,
    unit,
    verify_graded_table,
    xi,
)
from moyalcalc.graded import even_part, odd_part
from moyalcalc.verify import random_element, random_gauge, random_graded

S2 = SymplecticStructure(2, 1.0)


def zero_moyal():
    return MoyalElement(S2, {})


def T(m):
    return graded_eta(GradedGenerator(S2, "T", mu=m))


def U(m):
    return graded_eta(GradedGenerator(S2, "U", mu=m))


def M(m, n):
    return graded_eta(GradedGenerator(S2, "M", mu=min(m, n), nu=max(m, n)))


def J():
    return graded_eta(GradedGenerator(S2, "J"))


def test_graded_product_and_involution_conventions():
    a = GradedElement(coordinate(S2, 1), plane_wave(S2, (0.5, 0.0)))
    b = GradedElement(plane_wave(S2, (0.0, 0.5)), coordinate(S2, 2))
    prod = a * b
    expect_even = star(a.even, b.even) + star(a.odd, b.odd)
    expect_odd = star(a.even, b.odd) + star(a.odd, b.even)
    assert (prod.even - expect_even).norm() == 0.0
    assert (prod.odd - expect_odd).norm() == 0.0
    d = a.dag()
    assert (d.even - a.even.dag()).norm() == 0.0
    assert (d.odd - 1j * a.odd.dag()).norm() == 0.0


def test_graded_bracket_generator_examples():
    # [J, J] = -2 * unit
    got = graded_bracket(J(), J())
    assert (got - (-2.0) * graded_unit(S2)).norm() < 1e-15
    # [U_mu, U_nu] = 2i M_(mu nu)
    got = graded_bracket(U(1), U(2))
    assert (got - 2j * M(1, 2)).norm() < 1e-14
    # [T_mu, U_nu] = ThetaInv_{mu nu} J
    got = graded_bracket(T(1), U(2))
    assert (got - S2.ThetaInv[0, 1] * J()).norm() < 1e-14
    # [M, J] = 0 and [U, J] = 2i T
    assert graded_bracket(M(1, 2), J()).norm() == 0.0
    assert (graded_bracket(U(1), J()) - 2j * T(1)).norm() < 1e-14
    # [M_(mn), T_r] = ThetaInv_{nr} T_m + ThetaInv_{mr} T_n
    got = graded_bracket(M(1, 2), T(2))
    expect = S2.ThetaInv[1, 1] * T(1) + S2.ThetaInv[0, 1] * T(2)
    assert (got - expect).norm() < 1e-14


@pytest.mark.parametrize("D", [2, 4])
def test_graded_table_all_families(D):
    s = SymplecticStructure(D, 1.1)
    res = verify_graded_table(s)
    assert len(res) == 10
    assert max(res.values()) < 1e-12


def test_graded_eta_values():
    assert (T(1).even - 1j * xi(S2, 1)).norm() == 0.0 and T(1).odd.norm() == 0.0
    assert (U(1).odd - 1j * xi(S2, 1)).norm() == 0.0 and U(1).even.norm() == 0.0
    assert (M(1, 2).even - 1j * pointwise(xi(S2, 1), xi(S2, 2))).norm() < 1e-15
    assert (J().odd - unit(S2, 1j)).norm() == 0.0
    with pytest.raises(ValueError):
        graded_eta(GradedGenerator(S2, "Q"))


def connection_with(phi=None, A0=None, A1=None, G0=None, m_scale=1.0):
    return GradedConnectionForm(
        S2, A0=A0 or {}, A1=A1 or {}, G0=G0 or {}, phi=phi, m_scale=m_scale
    )


def covariant_G0():
    out = {}
    for m in (1, 2):
        for n in range(m, 3):
            out[f"X{m}{n}"] = pointwise(xi(S2, m), xi(S2, n))
    return out


def test_zero_connection_curvature_via_display():
    # F(J,J) = (-2 phi phi + 4 phi, 0) vanishes at phi = 0
    A = connection_with()
    F = graded_curvature(A)
    phi = A.phi
    display = GradedElement(
        -2.0 * star(phi, phi) + 4.0 * phi, MoyalElement(S2, {})
    )
    assert (F[("J", "J")] - display).norm() == 0.0


def test_curvature_display_A0_equals_A1():
    """A0 = A1, covariant G = 0: F(T_mu, U_nu) = (0, i(ThetaInv phi - F_mn))."""
    w = plane_wave(S2, (0.5, -0.25))
    Am = {"d1": 0.4 * (w + w.dag()), "d2": 0.2 * coordinate(S2, 1)}
    phi = 0.3 * (w + w.dag())
    A = connection_with(phi=phi, A0=dict(Am), A1=dict(Am), G0=covariant_G0())
    F = graded_curvature(A)
    for m in (1, 2):
        for n in (1, 2):
            if m == n:
                continue
            a_m, a_n = Am[f"d{m}"], Am[f"d{n}"]
            fmn = partial(m, a_n) - partial(n, a_m) - 1j * commutator(a_m, a_n)
            expect = GradedElement(
                zero_moyal(), 1j * (S2.ThetaInv[m - 1, n - 1] * phi - fmn)
            )
            got = F[(f"T{m}", f"U{n}")]  # T precedes U in basis order
            assert (got - expect).norm() < 1e-12
    # F(T,T) = (-i F_mn, 0)
    a1, a2 = Am["d1"], Am["d2"]
    f12 = partial(1, a2) - partial(2, a1) - 1j * commutator(a1, a2)
    assert (F[("T1", "T2")] - GradedElement(-1j * f12, zero_moyal())).norm() < 1e-12
    # F(U,U) = (-{A-xi, A'-xi'}, 0)
    got = F[("U1", "U2")]
    cov1 = a1 - xi(S2, 1)
    cov2 = a2 - xi(S2, 2)
    assert (got - GradedElement(-anticommutator(cov1, cov2), zero_moyal())).norm() < 1e-12
    # F(U,J) = (-{A, phi} + 2 xi phi, 0)
    got = F[("U1", "J")]
    expect = GradedElement(
        -anticommutator(a1, phi) + 2.0 * pointwise(xi(S2, 1), phi), zero_moyal()
    )
    assert (got - expect).norm() < 1e-12


@pytest.mark.parametrize("D", [2, 4])
def test_graded_dual_path(D):
    s = SymplecticStructure(D, 1.0)
    rng = np.random.default_rng(51)
    from moyalcalc.verify import random_graded_connection

    n = 6 if D == 2 else 2
    for _ in range(n):
        A = random_graded_connection(rng, s)
        Fc = graded_curvature(A)
        Fg = graded_curvature_generic(A)
        assert max((Fc[k] - Fg[k]).norm() for k in Fc) < 1e-11


def test_graded_canonical_curvature_central():
    Finv = graded_canonical_curvature(S2)
    gu = graded_unit(S2)
    for key, val in Finv.items():
        central = val.even.constant_part()
        assert (val - central * gu).norm() < 1e-13
    # spot values: F(T1,T2) = -i ThetaInv_12, F(J,J) = +2
    assert (Finv[("T1", "T2")] - (-1j * S2.ThetaInv[0, 1]) * gu).norm() < 1e-14
    assert (Finv[("J", "J")] - 2.0 * gu).norm() < 1e-14


def test_graded_symmetry_of_bracket_level_curvature():
    """F(X, Y) = -(-1)^{|X||Y|} F(Y, X) at the level of the generic formula."""
    rng = np.random.default_rng(53)
    from moyalcalc.graded import _calA, bracket_graded_generators
    from moyalcalc.verify import random_graded_connection

    A = random_graded_connection(rng, S2)
    gens = {X.name: X for X in graded_generators(S2)}

    def generic(X, Y):
        dec = bracket_graded_generators(X, Y)
        val = graded_bracket(_calA(A, X), _calA(A, Y))
        for c, Z in dec.terms:
            val = val - c * _calA(A, Z)
        return val - dec.central * graded_unit(S2)

    for n1, n2 in (("T1", "U2"), ("U1", "U2"), ("M12", "J"), ("U1", "J")):
        X, Y = gens[n1], gens[n2]
        sign = (-1.0) ** (X.degree * Y.degree)
        assert (generic(X, Y) + sign * generic(Y, X)).norm() < 1e-12


def test_graded_gauge_examples():
    rng = np.random.default_rng(57)
    from moyalcalc.verify import random_graded_connection

    A = random_graded_connection(rng, S2)
    # identity
    gid = GradedElement(unit(S2), zero_moyal())
    Ag = graded_gauge_transform(A, gid)
    assert (Ag.phi - A.phi).norm() == 0.0
    # phi homogeneous, curvature covariant
    g0 = random_gauge(rng, S2)
    g = GradedElement(g0, zero_moyal())
    Ag = graded_gauge_transform(A, g)
    assert (Ag.phi - star(star(g0.dag(), A.phi), g0)).norm() < 1e-13
    F = graded_curvature(A)
    Fg = graded_curvature(Ag)
    gd = g.dag()
    assert max((Fg[k] - gd * F[k] * g).norm() for k in F) < 1e-10
    # degree-0 and unitarity preconditions
    with pytest.raises(ValueError):
        graded_gauge_transform(A, GradedElement(unit(S2), unit(S2)))
    with pytest.raises(ValueError):
        graded_gauge_transform(A, GradedElement(2.0 * unit(S2), zero_moyal()))


def test_graded_gauge_transform_exact_pure_gauge():
    # the pure gauge of a plane wave W[k] is A0_m = A1_m = -k_m times the unit,
    # exactly: T and U take the exact derivative partial_m g, whereas the
    # commutator [eta_m, g] rounds 1/theta and is an ulp off at theta 0.3
    s = SymplecticStructure(2, 0.3)
    k = (1.75, 0.5)
    g = GradedElement(plane_wave(s, k), MoyalElement(s, {}))
    Ag = graded_gauge_transform(GradedConnectionForm(s), g)
    for m in (1, 2):
        expect = {((0, 0), (0.0, 0.0)): complex(-k[m - 1])}
        assert Ag.A0[f"d{m}"].terms == expect
        assert Ag.A1[f"d{m}"].terms == expect
    assert Ag.phi.is_zero()


def test_covariant_coordinates_marker():
    A = connection_with(phi=0.7 * unit(S2))
    cal = graded_covariant_coordinates(A)
    # cA(Ad_J) = -i (0, phi - 1)
    expect = GradedElement(zero_moyal(), -1j * (A.phi - unit(S2)))
    assert (cal["J"] - expect).norm() < 1e-15


def test_action_density_requires_restriction():
    A = connection_with(A0={"d1": coordinate(S2, 1)}, G0=covariant_G0())
    with pytest.raises(ValueError):
        graded_action_density(A)
    A = connection_with()  # G0 = 0 means covariant M coordinates nonzero
    with pytest.raises(ValueError):
        graded_action_density(A)


def test_potential_constants():
    c = 0.37
    m_scale = 1.4
    A = connection_with(phi=c * unit(S2), G0=covariant_G0(), m_scale=m_scale)
    pieces = graded_action_density(A)
    mth = m_scale * S2.theta
    expect = (4 * c**4 - 8 / mth * c**3 + 16 / mth**2 * c**2) * unit(S2)
    assert (pieces["potential"] - expect).norm() < 1e-14
    # every other piece vanishes at A = 0, phi = const except slavnov
    assert pieces["yang_mills"].norm() == 0.0
    slav_expect = None
    for m in (1, 2):
        for n in (1, 2):
            t = (S2.ThetaInv[m - 1, n - 1] * c) ** 2 * unit(S2)
            slav_expect = t if slav_expect is None else slav_expect + t
    assert (pieces["slavnov"] - slav_expect).norm() < 1e-14


def test_harmonic_term_witness():
    """At A = 0 the anticommutator piece is sum {xi_m, xi_n}^2 (times phi = 1
    normalisation), the harmonic-oscillator structure."""
    A = connection_with(phi=unit(S2), G0=covariant_G0())
    pieces = graded_action_density(A)
    acc = None
    for m in (1, 2):
        for n in (1, 2):
            ac = anticommutator(xi(S2, m), xi(S2, n))
            t = star(ac, ac)
            acc = t if acc is None else acc + t
    assert (pieces["anticommutator"] - acc).norm() < 1e-13
    # and {xi_m, xi_n} = 2 xi_m xi_n pointwise
    ac = anticommutator(xi(S2, 1), xi(S2, 2))
    assert (ac - 2.0 * pointwise(xi(S2, 1), xi(S2, 2))).norm() < 1e-15


def test_action_density_gauge_covariance():
    rng = np.random.default_rng(61)
    w = plane_wave(S2, (0.5, 0.5))
    Am = {"d1": 0.3 * (w + w.dag()), "d2": 0.1 * (w + w.dag())}
    phi = 0.4 * (w + w.dag()) + 0.2 * unit(S2)
    A = connection_with(phi=phi, A0=dict(Am), A1=dict(Am), G0=covariant_G0())
    dens = graded_action_density(A)["total"]
    g0 = random_gauge(rng, S2)
    g = GradedElement(g0, zero_moyal())
    Ag = graded_gauge_transform(A, g)
    densg = graded_action_density(Ag)["total"]
    gd = g0.dag()
    assert (densg - star(star(gd, dens), g0)).norm() < 1e-10


def test_graded_config_loader():
    cfg = {
        "D": 2,
        "theta": 1.0,
        "m": 1.5,
        "mu": 1.0,
        "A0": {"d1": "x2"},
        "A1": {"d1": "x2"},
        "G0": {"X11": "x2^2"},
        "phi": "0.3 + 0.2 W[0.5,0.5]",
    }
    A = graded_connection_from_config(cfg)
    assert A.m_scale == 1.5
    assert (A.A0["d1"] - coordinate(S2, 2)).norm() == 0.0
    assert A.A0["d2"].norm() == 0.0
    with pytest.raises(ValueError):
        graded_connection_from_config({"D": 3})


def test_graded_config_loader_ignores_mu():
    cfg = {"D": 2, "m": 1.5, "mu": 0, "A0": {"d1": "x2"}}
    A = graded_connection_from_config(cfg)
    assert A.m_scale == 1.5
    assert (A.A0["d1"] - coordinate(S2, 2)).norm() == 0.0


def test_graded_config_loader_parses_expressions_by_default():
    A = graded_connection_from_config({"D": 2, "A0": {"d1": "x2"}, "phi": "0.5", "G0": None})
    assert (A.A0["d1"] - coordinate(S2, 2)).norm() == 0.0
    assert (A.phi - 0.5 * unit(S2)).norm() == 0.0


def test_graded_element_components_are_not_config_values():
    with pytest.raises(ValueError, match="component phi must be an expression string"):
        graded_connection_from_config({"D": 2, "phi": unit(S2)})
