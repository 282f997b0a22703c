"""Nonplanar parts of the polarisation integrands.

The closed-form Feynman-parameter reduction is checked against an
independent Schwinger-parameter (heat-kernel) oracle: with both propagators
written as integrals over e^{-s(k^2+m^2)}, the loop momentum integral of the
phase-carrying part is an exact Gaussian, and the remaining (s, t) integral
is evaluated numerically.  No Bessel function enters the oracle.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from moyalcalc import (
    LOOP_WEIGHTS,
    LoopConfig,
    SymplecticStructure,
    delta_residual_profile,
    ir_coefficient,
    ir_target,
    nonplanar_structures,
    omega_integrand,
    omega_nonplanar,
)


def schwinger_integrands(i, cfg):
    """Prefactor, projection vectors and (u, v) integrands of the nonplanar part of omega_i.

    The vectors are the unit vectors ptilde-hat, p-hat and a direction
    orthogonal to both (for D = 4).  ``tensor(u, v)`` is the full D x D
    integrand with s = u v, t = u (1 - v), built from the Gaussian k-moments
    as tensors; it is the slow reference.  ``projection(w)`` returns the
    integrand of w . tensor . w in closed scalar form: every tensor is a
    multiple of the identity or an outer product of p and
    delta = (i ptilde - 2 t p) / 2a, so its projection is a product of w.w,
    w.p and w.delta = (i w.ptilde - 2 t w.p) / 2a.  p.ptilde = p Theta p
    vanishes, so delta.delta = (4 t^2 p^2 - ptilde^2) / 4a^2 and
    delta.p = -t p^2 / a.
    """
    D = cfg.D
    p = np.asarray(cfg.p)
    ptv = cfg.ptilde()
    pt2 = float(ptv @ ptv)
    p2 = float(p @ p)
    mu2 = cfg.mu_mass**2
    if i in (1, 2):
        m1s = m2s = 0.0
        pref = 4.0
    elif i == 4:
        m1s = m2s = mu2
        pref = 4.0 * cfg.n_higgs
    else:
        raise ValueError("the Schwinger oracle covers the bubble diagrams")

    def gauss(s, t):
        a = s + t
        expo = -s * m1s - t * m2s - pt2 / (4 * a) - (s * t / a) * p2
        return (math.pi / a) ** (D / 2) / (2 * math.pi) ** D * math.exp(expo)

    def tensor(u, v):
        s, t = u * v, u * (1 - v)
        a = s + t
        delta = (1j * ptv - 2 * t * p) / (2 * a)
        kk = np.eye(D) / (2 * a) + np.outer(delta, delta)
        k1 = delta
        k2 = D / (2 * a) + delta @ delta
        kp = delta @ p
        if i == 2:
            num = kk
        elif i == 4:
            num = (
                np.outer(p, p)
                + 2 * (np.outer(p, k1) + np.outer(k1, p))
                + 4 * kk
            )
        else:
            scal = (k2 - 2 * kp + p2) + (k2 + 4 * kp + 4 * p2)
            num = (
                scal * np.eye(D)
                + (D - 6) * np.outer(p, p)
                + (2 * D - 3) * (np.outer(p, k1) + np.outer(k1, p))
                + (4 * D - 6) * kk
            )
        return gauss(s, t) * num * u

    def projection(w):
        ww, wp, wpt = float(w @ w), float(w @ p), float(w @ ptv)

        def g(u, v):
            s, t = u * v, u * (1 - v)
            a = s + t
            wd = (1j * wpt - 2 * t * wp) / (2 * a)
            wkkw = ww / (2 * a) + wd * wd
            if i == 2:
                num = wkkw
            elif i == 4:
                num = wp * wp + 4 * wp * wd + 4 * wkkw
            else:
                k2 = D / (2 * a) + (4 * t * t * p2 - pt2) / (4 * a * a)
                kp = -t * p2 / a
                scal = (k2 - 2 * kp + p2) + (k2 + 4 * kp + 4 * p2)
                num = (
                    scal * ww
                    + (D - 6) * wp * wp
                    + (2 * D - 3) * 2 * wp * wd
                    + (4 * D - 6) * wkkw
                )
            return gauss(s, t) * num.real * u

        return g

    phat = p / math.sqrt(p2)
    pthat = ptv / math.sqrt(pt2)
    vecs = {"ptpt": pthat, "pp": phat}
    if D > 2:
        q, _ = np.linalg.qr(np.concatenate([np.stack([phat, pthat]).T, np.eye(D)], axis=1))
        vecs["oo"] = q[:, 2]
    return pref, vecs, tensor, projection


def schwinger_oracle_projections(i, cfg):
    """(ptpt_proj, pp_proj, oo_proj) of the nonplanar part of omega_i."""
    pref, vecs, _tensor, projection = schwinger_integrands(i, cfg)
    out = {}
    for name, vec in vecs.items():
        val, _err = integrate.dblquad(
            projection(vec), 0, 1, 0, np.inf, epsabs=1e-11, epsrel=1e-9
        )
        out[name] = -0.5 * pref * val
    return out


@pytest.mark.parametrize("i", [1, 2, 4])
def test_scalar_projection_matches_tensor_integrand(i):
    """The closed scalar projection used by the oracle equals vec . tensor . vec."""
    cfg = LoopConfig(
        D=4, theta=1.0, n_higgs=10, mu_mass=1.0, p=(0.03, 0.02, -0.015, 0.01)
    )
    _pref, vecs, tensor, projection = schwinger_integrands(i, cfg)
    for vec in vecs.values():
        g = projection(vec)
        for u, v in ((0.1, 0.0), (0.5, 0.3), (1.0, 0.5), (7.0, 0.9), (60.0, 1.0)):
            ref = float(np.real(vec @ tensor(u, v) @ vec))
            assert abs(g(u, v) - ref) <= 1e-12 * abs(ref) + 1e-300, (i, u, v)


@pytest.mark.parametrize("i", [1, 2, 4])
def test_reduction_against_schwinger_oracle(i):
    cfg = LoopConfig(
        D=4, theta=1.0, n_higgs=10, mu_mass=1.0, p=(0.03, 0.02, -0.015, 0.01)
    )
    res = omega_nonplanar(i, cfg)
    T = res.value
    p = np.asarray(cfg.p)
    ptv = cfg.ptilde()
    phat = p / np.linalg.norm(p)
    pthat = ptv / np.linalg.norm(ptv)
    q, _ = np.linalg.qr(
        np.concatenate([np.stack([phat, pthat]).T, np.eye(4)], axis=1)
    )
    other = q[:, 2]
    oracle = schwinger_oracle_projections(i, cfg)
    mine = {
        "ptpt": float(np.real(pthat @ T @ pthat)),
        "pp": float(np.real(phat @ T @ phat)),
        "oo": float(np.real(other @ T @ other)),
    }
    for name in oracle:
        rel = abs(mine[name] - oracle[name]) / max(abs(oracle[name]), 1e-30)
        assert rel < 1e-6, (i, name, mine[name], oracle[name])


def test_omega5_nonplanar_closed_form():
    """Single-propagator tadpole: +2 N delta a_{1,D} M_{1-D/2}(mu pt)."""
    from moyalcalc.oneloop import _a_nd, bessel_m

    cfg = LoopConfig(D=4, theta=1.0, n_higgs=10, mu_mass=1.0, p=(0.05, 0, 0, 0))
    res = omega_nonplanar(5, cfg)
    pt = float(np.linalg.norm(cfg.ptilde()))
    expect = 2.0 * 10 * _a_nd(1, 4) * bessel_m(-1.0, 1.0, pt)
    T = res.value
    assert abs(T[1, 1] - expect) < 1e-12 * abs(expect)
    assert abs(T[0, 1]) == 0.0


def test_omega3_nonplanar_against_radial_oracle():
    """Massless tadpole at |pt| = 0.1 vs the radial quadrature oracle."""
    import mpmath

    mpmath.mp.dps = 20
    cfg = LoopConfig(D=4, theta=1.0, p=(0.1, 0, 0, 0))
    res = omega_nonplanar(3, cfg)
    pt = 0.1

    def f(k):
        return k**2 * mpmath.besselj(1, k * pt) / (k * k)

    oracle_j1 = float(
        mpmath.quadosc(
            f, [0, mpmath.inf], zeros=lambda n: mpmath.besseljzero(1, n) / pt
        )
        * pt ** (-1)
        / (2 * mpmath.pi) ** 2
    )
    expect = -4.0 * (cfg.D - 1) * oracle_j1
    got = res.value[0, 0]
    assert abs(got - expect) / abs(expect) < 1e-4
    # and the leading delta/pt^2 scaling
    assert abs(got - (-4 * 3 / (4 * math.pi**2 * pt**2))) / abs(got) < 1e-10


def test_integrand_examples():
    cfg = LoopConfig(D=4, theta=1.0, n_higgs=10, mu_mass=1.0, p=(0.0, 1.0, 0.0, 0.0))
    T = omega_integrand(5, (1.0, 0.0, 0.0, 0.0), cfg)
    expect = -4 * 10 * 4 * math.sin(0.5) ** 2 / 2
    assert abs(np.trace(T) - expect) < 1e-13
    # omega3 vanishes when the wedge vanishes
    cfg2 = LoopConfig(D=4, theta=1.0, p=(2.0, 0.0, 0.0, 0.0))
    T3 = omega_integrand(3, (1.0, 0.0, 0.0, 0.0), cfg2)
    assert np.max(np.abs(T3)) == 0.0


def test_integrand_symmetry_under_momentum_reflection():
    """omega_i(k) + omega_i(-k-p) is invariant under k -> -k-p; the gauge and
    Higgs bubbles are even pointwise."""
    rng = np.random.default_rng(83)
    cfg = LoopConfig(D=4, theta=1.0, n_higgs=7, mu_mass=1.0, p=(0.4, -0.2, 0.1, 0.3))
    p = np.asarray(cfg.p)
    for _ in range(5):
        k = rng.normal(size=4)
        k2 = -k - p
        for i in (1, 4):
            assert np.max(np.abs(omega_integrand(i, k, cfg) - omega_integrand(i, k2, cfg))) < 1e-11
        for i in (2, 3, 5):
            s1 = omega_integrand(i, k, cfg) + omega_integrand(i, k2, cfg)
            s2 = omega_integrand(i, k2, cfg) + omega_integrand(i, k, cfg)
            assert np.max(np.abs(s1 - s2)) == 0.0


def test_omega1_symmetric_structure():
    cfg = LoopConfig(D=4, theta=1.0, p=(0.4, -0.2, 0.1, 0.3))
    k = np.array([0.3, 0.8, -0.5, 0.2])
    T = omega_integrand(1, k, cfg)
    assert np.max(np.abs(T - T.T)) < 1e-12


def test_nonplanar_structures_d2_gauge_divergence_flagged():
    cfg = LoopConfig(D=2, theta=1.0, n_higgs=3, mu_mass=1.0, p=(0.05, 0.0))
    with pytest.raises(ValueError):
        nonplanar_structures(1, cfg)
    with pytest.raises(ValueError):
        nonplanar_structures(3, cfg)
    # with an infrared regulator the full tensor exists
    cfg_reg = LoopConfig(
        D=2, theta=1.0, n_higgs=3, mu_mass=1.0, p=(0.05, 0.0), ir_regulator=1e-3
    )
    res = omega_nonplanar(1, cfg_reg)
    assert np.all(np.isfinite(res.value))
    # the Higgs diagrams need no regulator
    res4 = omega_nonplanar(4, cfg)
    assert np.all(np.isfinite(res4.value))


def test_nonplanar_structures_d2_massless_higgs_divergence_flagged():
    cfg = LoopConfig(D=2, theta=1.0, n_higgs=3, mu_mass=0.0, p=(0.05, 0.0))
    with pytest.raises(ValueError, match="infrared divergent"):
        nonplanar_structures(4, cfg)
    # without Higgs fields the diagram vanishes
    empty = nonplanar_structures(4, replace(cfg, n_higgs=0))
    assert all(v == 0.0 for pair in empty.values() for v in pair)
    # the IR fit projects on ptpt only, which stays finite
    pts = np.geomspace(0.01, 0.1, 6)
    res = ir_coefficient(cfg, [np.array([x, 0.0]) for x in pts])
    assert np.isfinite(res.value)


def test_ir_coefficient_acceptance_smoke_d2():
    cfg = LoopConfig(D=2, theta=1.0, n_higgs=3, mu_mass=1.0)
    pts = np.geomspace(0.01, 0.1, 6)
    res = ir_coefficient(cfg, [np.array([x, 0.0]) for x in pts])
    target = ir_target(2, 3)
    assert abs(res.value - target) / target < 0.02
    assert res.method == "small_p_fit"


def test_ir_coefficient_theta_independent():
    vals = []
    for theta in (0.5, 1.0, 2.0):
        cfg = LoopConfig(D=4, theta=theta, n_higgs=10, mu_mass=1.0)
        pts = np.geomspace(0.01, 0.1, 5)
        p_values = [np.array([x / theta, 0, 0, 0]) for x in pts]
        vals.append(ir_coefficient(cfg, p_values).value)
    assert max(vals) - min(vals) < 5e-5


def test_ir_coefficient_preconditions():
    cfg = LoopConfig(D=4, theta=1.0, n_higgs=10, mu_mass=1.0)
    with pytest.raises(ValueError):
        ir_coefficient(cfg, [np.array([0.01, 0, 0, 0])] * 4)  # degenerate
    with pytest.raises(ValueError):
        ir_coefficient(cfg, [np.array([x, 0, 0, 0]) for x in (0.01, 0.02, 0.03, 0.04)])
    with pytest.raises(ValueError):
        # window breaks |pt| mu <= 0.1
        ir_coefficient(cfg, [np.array([x, 0, 0, 0]) for x in (0.02, 0.05, 0.1, 0.2)])


def test_transversality_profile_decreases():
    cfg = LoopConfig(D=4, theta=1.0, n_higgs=10, mu_mass=1.0)
    pts = np.geomspace(0.01, 0.1, 6)
    prof = delta_residual_profile(cfg, [np.array([x, 0, 0, 0]) for x in pts])
    values = [v for _pt, v in prof]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


def test_loop_weights_are_the_standard_bookkeeping():
    assert LOOP_WEIGHTS == (0.5, -1.0, -0.5, 0.5, 1.0)


@pytest.mark.parametrize("reg", [math.nan, -1e-3, math.inf])
def test_ir_regulator_must_be_nonnegative_and_finite(reg):
    with pytest.raises(ValueError, match="ir_regulator"):
        LoopConfig(D=4, p=(0.03, 0.02, -0.015, 0.01), ir_regulator=reg)


@pytest.mark.parametrize("n", [math.nan, math.inf, 2.5, -1])
def test_n_higgs_must_be_a_nonnegative_integer(n):
    with pytest.raises(ValueError, match="n_higgs"):
        LoopConfig(D=4, n_higgs=n)


@pytest.mark.parametrize(
    "theta, message",
    [
        (-1, "be positive and finite, got -1"),
        (math.nan, "be positive and finite, got nan"),
        (1e-320, "have a finite inverse, got 1e-320"),
    ],
)
def test_theta_is_checked_by_the_structure(theta, message):
    with pytest.raises(ValueError, match=f"^theta must {message}$"):
        LoopConfig(D=2, theta=theta)
    assert LoopConfig(D=2, theta=0.5).structure == SymplecticStructure(2, 0.5)


def test_n_higgs_default_and_integers_are_kept():
    assert LoopConfig(D=4).n_higgs == 10 and LoopConfig(D=2).n_higgs == 3
    assert [LoopConfig(D=2, n_higgs=n).n_higgs for n in (0, 1, 7)] == [0, 1, 7]


# float.hex of the one-loop values: a refactor of the reduction must keep
# every bit (numpy 2.4, scipy 1.17)
_PINNED_STRUCTURES = {
    1: (("-0x1.b476618704338p+7", "0x1.c540000000000p-35"),
        ("0x1.62dd1670fe969p-1", "0x1.8b797c8000000p-28"),
        ("0x1.76b55ed31dcf4p+17", "0x1.24bdb214ef49fp-29")),
    2: (("-0x1.f2cfa55d05122p+3", "0x1.10a8fb3801f42p-27"),
        ("-0x1.0795ad61b5be3p-4", "0x1.89e16bc000000p-29"),
        ("0x1.2bc44bdc17d91p+14", "0x1.d462b687e5433p-33")),
    3: (("-0x1.761be67d93245p+7", "0x1.9b56516bec05cp-33"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0")),
    4: (("-0x1.36c9a17414e7ap+9", "0x1.e59b0c4560a9fp-38"),
        ("-0x1.1fcdfef01ce15p-2", "0x1.c1b1de572d201p-49"),
        ("0x1.768e771ea7600p+19", "0x1.249f4d0ff2c30p-27")),
    5: (("0x1.36c9b06b5662ap+8", "0x1.55b70098ddc2bp-32"),
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0")),
}


def test_one_loop_values_are_pinned_bit_for_bit():
    cfg2 = LoopConfig(D=2, theta=1.0, n_higgs=3, mu_mass=1.0)
    res2 = ir_coefficient(cfg2, [np.array([x, 0.0]) for x in np.geomspace(0.01, 0.1, 6)])
    assert float.hex(res2.value) == "0x1.e6c106a826145p-1"
    cfg4 = LoopConfig(D=4, theta=1.0, n_higgs=10, mu_mass=1.0)
    res4 = ir_coefficient(cfg4, [np.array([x, 0, 0, 0]) for x in np.geomspace(0.01, 0.1, 5)])
    assert float.hex(res4.value) == "0x1.37120b67dfbedp+0"
    cfg = replace(cfg4, p=(0.03, 0.02, -0.015, 0.01))
    for i, expected in _PINNED_STRUCTURES.items():
        st = nonplanar_structures(i, cfg)
        got = tuple(tuple(map(float.hex, st[k])) for k in ("delta", "pp", "ptpt"))
        assert got == expected, i
