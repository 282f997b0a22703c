"""Exact zeros at dyadic inputs, through the layers above the star kernel.

At theta 0.5 with coefficients in eighths and wave components on the quarter
grid, every shift and coupling coefficient is a short dyadic, and the closed
and generic paths of a curvature table agree bit for bit: their residual is
exactly 0.0, not merely below the ``verify`` tolerance (at theta 0.3 the same
draws read about 1e-15).  Star associativity is pinned on polynomials only: a
wave pair's BCH phase is transcendental and rounds differently in the two
groupings.

The four ``verify`` suites run on the same kind of draws: polynomials with
coefficients in eighths, connections at ``mu_scale`` 1, and the suites' own
quarter-grid plane-wave gauges.  Every identity then holds exactly, and the
two witnesses read their exact values.
"""

from dataclasses import replace

import numpy as np
import pytest

from moyalcalc import verify

from moyalcalc import (
    ConnectionForm,
    MoyalElement,
    SymplecticStructure,
    curvature,
    curvature_generic,
    g2_basis,
    graded_curvature,
    graded_curvature_generic,
)
from moyalcalc.elements import _couple_plan, _shifted_couple
from moyalcalc.gauge import max_residual
from moyalcalc.graded import GradedConnectionForm

THETA = 0.5


def _eighths(rng):
    return complex(*(int(n) / 8 for n in rng.integers(-16, 17, size=2)))


def _dyadic_element(rng, s, max_terms, max_degree, waves=True):
    """Up to ``max_terms`` terms of degree at most ``max_degree``, all dyadic."""
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        alpha = [0] * s.D
        for _ in range(int(rng.integers(0, max_degree + 1))):
            alpha[int(rng.integers(0, s.D))] += 1
        k = tuple(int(n) / 4 for n in rng.integers(-8, 9, size=s.D)) if waves else (0.0,) * s.D
        terms[(tuple(alpha), k)] = _eighths(rng)
    return MoyalElement(s, terms)


@pytest.mark.parametrize("D", [2, 4])
@pytest.mark.parametrize("seed", range(5))
def test_curvature_dual_path_is_exact(D, seed):
    rng = np.random.default_rng(seed)
    s = SymplecticStructure(D, THETA)
    comps = {X.name: _dyadic_element(rng, s, 3, 4) for X in g2_basis(s)}
    A = ConnectionForm(s, "G2", comps)
    _shifted_couple.cache_clear()
    _couple_plan.cache_clear()
    assert max_residual(curvature(A), curvature_generic(A)) == 0.0
    assert _couple_plan.cache_info().misses > 0  # large couplings took the plan path


@pytest.mark.parametrize("D", [2, 4])
@pytest.mark.parametrize("seed", range(5))
def test_graded_curvature_dual_path_is_exact(D, seed):
    rng = np.random.default_rng(seed)
    s = SymplecticStructure(D, THETA)
    blank = GradedConnectionForm(s)
    groups = {group: {n: _dyadic_element(rng, s, 2, 2) for n in getattr(blank, group)}
              for group in ("A0", "A1", "G0")}
    A = GradedConnectionForm(s, **groups, phi=_dyadic_element(rng, s, 2, 2))
    assert max_residual(graded_curvature(A), graded_curvature_generic(A)) == 0.0


@pytest.mark.parametrize("D", [2, 4])
def test_star_associativity_is_exact_on_polynomials(D):
    rng = np.random.default_rng(D)
    s = SymplecticStructure(D, THETA)
    for _ in range(10):
        a, b, c = (_dyadic_element(rng, s, 3, 4, waves=False) for _ in range(3))
        assert ((a * b) * c - a * (b * c)).norm() == 0.0


# the witnesses are reciprocals of a norm that must not vanish
_WITNESSES = {"center witness (monomials move)": 2.0, "degree-3 counterexample separates": 16 / 3}


@pytest.mark.parametrize("suite", list(verify.SUITES))
@pytest.mark.parametrize("D", [2, 4])
@pytest.mark.parametrize("seed", range(3))
def test_verify_identities_are_exact(suite, D, seed, monkeypatch):
    random_connection = verify.random_connection
    monkeypatch.setattr(
        verify,
        "_random_terms",
        lambda rng, s, max_terms, max_degree, waves: _dyadic_element(
            rng, s, max_terms, max_degree, waves=False
        ),
    )
    monkeypatch.setattr(
        verify,
        "random_connection",
        lambda *args, **kwargs: replace(random_connection(*args, **kwargs), mu_scale=1.0),
    )
    checks = verify.SUITES[suite](D, THETA, seed, n_random=4)
    assert {c.name: c.residual for c in checks} == {
        c.name: _WITNESSES.get(c.name, 0.0) for c in checks
    }
