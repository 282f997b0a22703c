"""Master integrals against an independent radial-quadrature oracle.

The oracle computes J_N = (2 pi)^{-D/2} pt^{1-D/2} int_0^inf dk k^{D/2}
J_{D/2-1}(k pt) / (k^2+m^2)^N by oscillatory quadrature between Bessel zeros
(mpmath.quadosc), and the tensor projections through radial derivatives of
that oracle:

    J_{N,munu} = -(J'/r) delta_{munu} - (J'' - J'/r) rhat_mu rhat_nu,

with the derivatives taken by Richardson-extrapolated central differences of
oracle values.  Nothing here uses the modified-Bessel-K closed form.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import gamma, iv, kv

from moyalcalc import LoopConfig, bessel_m, master_j, master_j_tensor

mpmath.mp.dps = 20


@functools.cache
def _besseljzero(nu, n, prec):
    # every oracle call walks the same zeros of J_nu; ``prec`` keys the cache
    # on the working precision the zero is computed at
    return mpmath.besseljzero(nu, n)


def radial_oracle(N, D, m, pt):
    nu = D / 2.0 - 1.0
    ptm = mpmath.mpf(pt)

    def f(k):
        return k ** (D / 2.0) * mpmath.besselj(nu, k * ptm) / (k * k + m * m) ** N

    val = mpmath.quadosc(
        f, [0, mpmath.inf], zeros=lambda n: _besseljzero(nu, n, mpmath.mp.prec) / ptm
    )
    return float(val * ptm ** (1 - D / 2.0) / (2 * mpmath.pi) ** (D / 2.0))


def radial_oracle_tensor(N, D, m, pt):
    """(delta_coeff, ptpt_coeff) of J_{N,munu} from radial finite differences."""
    h = 0.02 * pt
    f0 = radial_oracle(N, D, m, pt)

    def deriv(hh):
        fp, fm = radial_oracle(N, D, m, pt + hh), radial_oracle(N, D, m, pt - hh)
        return (fp - fm) / (2 * hh), (fp - 2 * f0 + fm) / (hh * hh)

    d1a, d2a = deriv(h)
    d1b, d2b = deriv(h / 2)
    J1 = (4 * d1b - d1a) / 3.0
    J2 = (4 * d2b - d2a) / 3.0
    A = -J1 / pt
    B = -(J2 - J1 / pt)
    return A, B  # J_{N,munu} = A delta + B rhat rhat


def test_j1_d2_closed_form():
    cfg = LoopConfig(D=2)
    r = master_j(1, cfg, 1.0, (2.0, 0.0))
    assert abs(r.value - kv(0, 2.0) / (2 * math.pi)) < 1e-14
    assert r.method == "closed_form_bessel"


def test_j1_d4_known_form():
    cfg = LoopConfig(D=4)
    m, pt = 1.3, 0.7
    r = master_j(1, cfg, m, (pt, 0.0, 0.0, 0.0))
    expect = m * kv(1, m * pt) / (4 * math.pi**2 * pt)
    assert abs(r.value - expect) < 1e-12 * abs(expect)


# frozen radial-oracle value for J_2, D = 4, m = 1, |pt| = 2
FROZEN_J2_D4 = 0.001442482749574066


def test_j2_d4_against_radial_oracle():
    cfg = LoopConfig(D=4)
    r = master_j(2, cfg, 1.0, (2.0, 0.0, 0.0, 0.0))
    oracle = radial_oracle(2, 4, 1.0, 2.0)
    assert abs(r.value - oracle) / abs(oracle) < 1e-6
    assert abs(r.value - FROZEN_J2_D4) / FROZEN_J2_D4 < 1e-6


@pytest.mark.slow
def test_master_j_random_points_against_oracle():
    """14 scalar points at 1e-5 relative (part of the 20-point battery)."""
    rng = np.random.default_rng(71)
    count = 0
    while count < 14:
        D = int(rng.choice([2, 4]))
        N = int(rng.integers(1, 4))
        m = float(rng.uniform(0.4, 2.0))
        pt = float(rng.uniform(0.5, 3.0))
        cfg = LoopConfig(D=D)
        vec = np.zeros(D)
        vec[0] = pt
        val = master_j(N, cfg, m, vec).value
        oracle = radial_oracle(N, D, m, pt)
        assert abs(val - oracle) / abs(oracle) < 1e-5, (D, N, m, pt)
        count += 1


@pytest.mark.slow
def test_master_j_tensor_random_points_against_oracle():
    """6 tensor points at 1e-5 relative (completing the 20-point battery)."""
    rng = np.random.default_rng(73)
    for _ in range(6):
        D = int(rng.choice([2, 4]))
        N = int(rng.integers(2, 4))
        m = float(rng.uniform(0.5, 1.8))
        pt = float(rng.uniform(0.8, 2.5))
        cfg = LoopConfig(D=D)
        vec = np.zeros(D)
        vec[0] = pt
        res = master_j_tensor(N, cfg, m, vec)
        A_cl = res.extras["delta_coeff"]
        B_cl = res.extras["ptpt_coeff"] * pt * pt  # rhat rhat normalisation
        A_or, B_or = radial_oracle_tensor(N, D, m, pt)
        assert abs(A_cl - A_or) / max(abs(A_or), 1e-300) < 1e-5, (D, N, m, pt)
        assert abs(B_cl - B_or) / max(abs(B_or), 1e-300) < 1e-5, (D, N, m, pt)
        # assembled matrix matches the two projections
        M = res.value
        assert abs(M[1, 1] - A_cl) < 1e-12
        assert abs(M[0, 0] - (A_cl + B_cl)) < 1e-12


def test_bessel_recurrence_and_wronskian():
    rng = np.random.default_rng(79)
    for _ in range(40):
        Q = int(rng.integers(0, 4))
        z = float(rng.uniform(1e-3, 50.0))
        kq, kq1, kq2 = kv(Q, z), kv(Q + 1, z), kv(Q + 2, z)
        assert abs(kq2 - (kq + 2 * (Q + 1) / z * kq1)) / abs(kq2) < 1e-10
        w = iv(Q, z) * kq1 + iv(Q + 1, z) * kq
        assert abs(w - 1.0 / z) * z < 1e-9
        assert kv(-Q, z) == kq  # K_{-Q} = K_Q


def test_bessel_m_symmetry_and_mass_dimension():
    # M_Q through K_{|Q|} enforces K_{-Q} = K_Q by construction
    for Q in (1, 2, 3):
        for z in (0.05, 1.0, 10.0):
            m, x = 0.7, z / 0.7
            direct = (m * x) ** (-Q) * kv(Q, m * x) / m ** (-2 * Q)
            assert abs(bessel_m(-Q, m, x) - direct) < 1e-12 * abs(direct)


@pytest.mark.parametrize(
    "Q, m, x",
    [
        (1, math.nan, 1.0),
        (1, 1.0, math.nan),
        (1, 1.0, math.inf),
        (-1, math.inf, 1.0),
        (1.0, 1e-200, 1.0),  # m^(2Q) underflows to zero
        (-3, 1e-120, 1.0),  # (m x)^Q overflows
    ],
)
def test_bessel_m_rejects_out_of_range_inputs(Q, m, x):
    with pytest.raises(ValueError):
        bessel_m(Q, m, x)


def test_small_argument_asymptotics():
    """M_{-Q}(m pt) -> 2^{Q-1} Gamma(Q) / pt^{2Q}, verified to 1% at pt = 1e-3."""
    for Q in (1, 2):
        for pt in (1e-2, 1e-3):
            exact = bessel_m(-Q, 1.0, pt)
            asym = 2.0 ** (Q - 1) * gamma(Q) / pt ** (2 * Q)
            assert abs(exact - asym) / asym < 1e-2


def test_massless_branch_matches_asymptotic_constant():
    cfg = LoopConfig(D=4)
    pt = 0.37
    r = master_j(1, cfg, 0.0, (pt, 0, 0, 0))
    assert abs(r.value - 1.0 / (4 * math.pi**2 * pt**2)) < 1e-14
    with pytest.raises(ValueError):
        master_j(2, cfg, 0.0, (pt, 0, 0, 0))  # N >= D/2 has no massless form
    with pytest.raises(ValueError):
        master_j(1, cfg, 1.0, (0.0, 0, 0, 0))
    with pytest.raises(ValueError):
        master_j(0, cfg, 1.0, (1.0, 0, 0, 0))
