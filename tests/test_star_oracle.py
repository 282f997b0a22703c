"""Independent quadrature oracle for the star-product integral formula.

The oracle evaluates, pointwise in x,

    (a*b)(x) = 1/(pi theta)^D int d^Dy d^Dz a(x+y) b(x+z) e^{-2i y ThetaInv z}
               * e^{-eps (y^2 + z^2)}

with a Gaussian regulator.  The oscillatory z integral of each term of b is
a damped Fourier transform with exact Gaussian moments (the M_n recurrence
below); the remaining y integral is a narrow Gaussian handled by recentred
Gauss-Hermite nodes.  The regulated values at eps, eps/2, eps/4 are
Richardson-extrapolated to eps -> 0.  Nothing here touches the closed-form
star algorithm.
"""

import math

import numpy as np
import pytest

from moyalcalc import MoyalElement, SymplecticStructure, plane_wave, pointwise, star
from moyalcalc.elements import coordinate, monomial

EPS_LADDER = (1e-2, 5e-3, 2.5e-3)


def _moments(c, eps, nmax):
    """M_n = int z^n e^{icz - eps z^2} dz via M_n = ((n-1)M_{n-2} + ic M_{n-1})/(2 eps)."""
    out = [math.sqrt(math.pi / eps) * np.exp(-c * c / (4.0 * eps))]
    if nmax >= 1:
        out.append(1j * c / (2 * eps) * out[0])
    for n in range(2, nmax + 1):
        out.append(((n - 1) * out[n - 2] + 1j * c * out[n - 1]) / (2 * eps))
    return out


def _binom_shift(beta, x):
    """(x+z)^beta expanded as {gamma: coeff(x)} over z-exponents gamma."""
    coeffs = {(): 1.0}
    for ax, b in enumerate(beta):
        nxt = {}
        for g, cf in coeffs.items():
            for j in range(b + 1):
                nxt[g + (j,)] = cf * math.comb(b, j) * x[ax] ** (b - j)
        coeffs = nxt
    return coeffs


def oracle_value(a, b, x, eps, nodes=40):
    """Regulated integral value at x, summed over all term pairs."""
    s = a.structure
    D = s.D
    x = np.asarray(x, dtype=float)
    Ti = s.ThetaInv
    M = -2.0 * Ti.T  # z-phase vector: c(y) = kb + M y
    u, w = np.polynomial.hermite.hermgauss(nodes)
    total = 0j
    for (beta, kb), cb in b.terms.items():
        kb = np.asarray(kb)
        zmax = max(beta) if beta else 0
        zexp = _binom_shift(beta, x)
        q = eps + 1.0 / (eps * s.theta**2)
        ell = (M.T @ kb) / (2.0 * eps)
        y0 = -ell / (2.0 * q)
        scale = 1.0 / math.sqrt(q)
        grids = np.meshgrid(*([u] * D), indexing="ij")
        weights = np.ones_like(grids[0])
        for g in np.meshgrid(*([w] * D), indexing="ij"):
            weights = weights * g
        ys = np.stack([y0[ax] + scale * grids[ax] for ax in range(D)], axis=-1)
        flat = ys.reshape(-1, D)
        wflat = weights.reshape(-1)
        for (alpha, ka), ca in a.terms.items():
            ka = np.asarray(ka)
            acc = 0j
            for yy, ww in zip(flat, wflat):
                cy = kb + M @ yy
                # the z moments already carry e^{-|c|^2/4 eps}; only the
                # Gauss-Hermite weight needs cancelling here
                expo = -eps * (yy @ yy) + q * ((yy - y0) @ (yy - y0))
                a_val = np.prod((x + yy) ** np.asarray(alpha)) * np.exp(
                    1j * ka @ (x + yy)
                )
                z_val = 0j
                for gamma, cf in zexp.items():
                    prod = cf
                    for ax in range(D):
                        prod = prod * _moments(cy[ax], eps, zmax)[gamma[ax]]
                    z_val += prod
                acc += ww * a_val * z_val * np.exp(expo)
            total += ca * cb * np.exp(1j * kb @ x) * acc * scale**D
    return total / (math.pi * s.theta) ** D


def oracle_star_at(a, b, x):
    """eps -> 0 Richardson extrapolation over the regulator ladder."""
    e1, e2, e3 = (oracle_value(a, b, x, eps) for eps in EPS_LADDER)
    return (8.0 * e3 - 6.0 * e2 + e1) / 3.0


S2 = SymplecticStructure(2, 1.0)

# frozen oracle outputs for the mixed polynomial x wave example
# (x1 e^{i k x}) * (x2 e^{i p x}), k = (1,0), p = (0,1), theta = 1
FROZEN_SAMPLES = {
    (0.0, 0.0): 0.459108650110 - 0.318935065057j,
    (1.0, 2.0): -3.687105070567 - 0.847208564393j,
    (-0.3, 0.7): 0.540850185778 - 0.122806597314j,
}


@pytest.mark.parametrize("x", sorted(FROZEN_SAMPLES))
def test_mixed_wave_polynomial_sample_points(x):
    a = pointwise(coordinate(S2, 1), plane_wave(S2, (1.0, 0.0)))
    b = pointwise(coordinate(S2, 2), plane_wave(S2, (0.0, 1.0)))
    closed = star(a, b).evaluate(np.asarray(x))
    from_oracle = oracle_star_at(a, b, np.asarray(x))
    assert abs(closed - from_oracle) < 1e-6
    assert abs(closed - FROZEN_SAMPLES[x]) < 1e-6


def test_pure_polynomial_against_oracle():
    a = monomial(S2, (2, 0)) + monomial(S2, (0, 1), 0.5)
    b = monomial(S2, (1, 1))
    for x in ((0.2, -0.4), (1.0, 1.0)):
        closed = star(a, b).evaluate(np.asarray(x))
        assert abs(closed - oracle_star_at(a, b, np.asarray(x))) < 1e-6


def test_pure_waves_against_oracle():
    a = plane_wave(S2, (1.0, -0.5))
    b = plane_wave(S2, (0.5, 1.0))
    for x in ((0.0, 0.0), (0.7, -0.2)):
        closed = star(a, b).evaluate(np.asarray(x))
        assert abs(closed - oracle_star_at(a, b, np.asarray(x))) < 1e-6


@pytest.mark.slow
def test_random_damped_samples_against_oracle():
    """Ten random element pairs, evaluated pointwise, 1e-5 agreement."""
    rng = np.random.default_rng(11)
    for trial in range(10):
        def rnd():
            terms = {}
            for _ in range(2):
                alpha = tuple(int(v) for v in rng.integers(0, 3, size=2))
                k = tuple(float(v) / 4.0 for v in rng.integers(-4, 5, size=2))
                terms[(alpha, k)] = complex(rng.normal(), rng.normal())
            return MoyalElement(S2, terms)

        a, b = rnd(), rnd()
        x = rng.uniform(-1.0, 1.0, size=2)
        closed = star(a, b).evaluate(x)
        ora = oracle_star_at(a, b, x)
        scale = max(1.0, abs(closed))
        assert abs(closed - ora) / scale < 1e-5, f"trial {trial}"
