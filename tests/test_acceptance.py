"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a single status line so `pytest -s tests/test_acceptance.py`
reads as the acceptance report.
"""

import time

import numpy as np
import pytest

from moyalcalc import (
    LoopConfig,
    SymplecticStructure,
    bessel_m,
    commutator,
    coordinate,
    curvature,
    curvature_generic,
    delta_residual_profile,
    eta,
    graded_canonical_curvature,
    graded_curvature,
    graded_curvature_generic,
    graded_unit,
    ir_coefficient,
    ir_target,
    master_j,
    master_j_tensor,
    partial,
    partial_generator,
    star,
    unit,
    verify_graded_table,
    xi,
)
from moyalcalc import verify_d2_special_brackets
from moyalcalc.gauge import max_residual
from moyalcalc.verify import (
    random_connection,
    random_graded_connection,
    verify_connections,
    verify_core,
    verify_derivations,
)


def _report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_ir_coefficient_reproduction():
    """IR coefficient for three configurations, 2% relative, <= 60 s."""
    t0 = time.time()
    results = []
    for D, NH, n in ((4, 10, 8), (4, 0, 8), (2, 3, 8)):
        cfg = LoopConfig(D=D, theta=1.0, n_higgs=NH, mu_mass=1.0)
        pts = np.geomspace(0.01, 0.1, n)
        p_values = []
        for x in pts:
            p = np.zeros(D)
            p[0] = x
            p_values.append(p)
        res = ir_coefficient(cfg, p_values)
        target = ir_target(D, NH)
        rel = abs(res.value - target) / abs(target)
        results.append((D, NH, res.value, target, rel, res.abs_error))
    elapsed = time.time() - t0
    ok = all(r[4] <= 0.02 for r in results) and elapsed <= 60.0
    detail = "; ".join(
        f"D={D} N={NH}: fitted {v:.5f} vs {t:.5f} ({rel:.3%}, resid {resid:.1e})"
        for D, NH, v, t, rel, resid in results
    )
    _report("criterion 1 (IR coefficients)", ok, f"{detail}; {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_2_master_integral_exactness():
    """Closed J_N / J_{N,munu} vs radial oracles (1e-5); M asymptotics (1%)."""
    from test_masters import radial_oracle, radial_oracle_tensor

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(14):
        D = int(rng.choice([2, 4]))
        N = int(rng.integers(1, 4))
        m = float(rng.uniform(0.4, 2.0))
        pt = float(rng.uniform(0.5, 3.0))
        vec = np.zeros(D)
        vec[0] = pt
        val = master_j(N, LoopConfig(D=D), m, vec).value
        oracle = radial_oracle(N, D, m, pt)
        worst = max(worst, abs(val - oracle) / abs(oracle))
    for _ in range(6):
        D = int(rng.choice([2, 4]))
        N = int(rng.integers(2, 4))
        m = float(rng.uniform(0.5, 1.8))
        pt = float(rng.uniform(0.8, 2.5))
        vec = np.zeros(D)
        vec[0] = pt
        res = master_j_tensor(N, LoopConfig(D=D), m, vec)
        A_or, B_or = radial_oracle_tensor(N, D, m, pt)
        worst = max(worst, abs(res.extras["delta_coeff"] - A_or) / abs(A_or))
        worst = max(
            worst, abs(res.extras["ptpt_coeff"] * pt * pt - B_or) / abs(B_or)
        )
    worst_asym = 0.0
    from scipy.special import gamma as gamma_fn

    for Q in (1, 2):
        pt = 1e-3
        exact = bessel_m(-Q, 1.0, pt)
        asym = 2.0 ** (Q - 1) * gamma_fn(Q) / pt ** (2 * Q)
        worst_asym = max(worst_asym, abs(exact - asym) / asym)
    ok = worst <= 1e-5 and worst_asym <= 1e-2
    _report(
        "criterion 2 (master integrals)",
        ok,
        f"20-point oracle battery worst {worst:.2e} (tol 1e-5); "
        f"small-argument law worst {worst_asym:.2e} (tol 1e-2)",
    )


def test_criterion_3_algebraic_identity_suite():
    """Product/derivative/involution identity battery, <= 1e-10, <= 10 s."""
    t0 = time.time()
    checks = []
    for D in (2, 4):
        checks += verify_core(D, 1.0, seed=2024, n_random=100)
    elapsed = time.time() - t0
    worst = max(c.residual / c.tol for c in checks if c.tol <= 1e-10)
    assoc = max(c.residual for c in checks if c.name == "star associativity")
    ok = all(c.passed for c in checks) and elapsed <= 10.0 and assoc <= 1e-10
    _report(
        "criterion 3 (identity suite)",
        ok,
        f"{len(checks)} checks over D in (2,4), associativity worst "
        f"{assoc:.2e} (tol 1e-10), {elapsed:.1f}s (cap 10s)",
    )


def test_criterion_4_structure_constant_tables():
    """sp(2n,R), mixed, D=2 special and all ten graded families at 1e-12."""
    worst = 0.0
    for D in (2, 4):
        s = SymplecticStructure(D, 1.0)
        checks = verify_derivations(D, 1.0, seed=7, n_random=10)
        for c in checks:
            if "table" in c.name:
                worst = max(worst, c.residual)
        worst = max(worst, max(verify_graded_table(s).values()))
    res2 = verify_d2_special_brackets(SymplecticStructure(2, 1.0))
    worst = max(worst, max(res2.values()))
    ok = worst <= 1e-12
    _report(
        "criterion 4 (structure constants)",
        ok,
        f"worst residual over all tables {worst:.2e} (tol 1e-12); the three "
        "X-X signs of the D=2 special table follow the Jacobi-consistent "
        "convention (test_derivations documents why)",
    )


def test_criterion_5_canonical_curvature():
    """F^inv values and centrality, ungraded and graded."""
    worst = 0.0
    from moyalcalc import canonical_curvature

    for D in (2, 4):
        s = SymplecticStructure(D, 1.0)
        Finv = canonical_curvature(s, "G2")
        for (n1, n2), val in Finv.items():
            if n1.startswith("d") and n2.startswith("d"):
                m, n = int(n1[1:]), int(n2[1:])
                expect = -1j * s.ThetaInv[m - 1, n - 1] * unit(s)
            else:
                expect = 0.0 * unit(s)
            worst = max(worst, (val - expect).norm())
        gFinv = graded_canonical_curvature(s)
        gu = graded_unit(s)
        for val in gFinv.values():
            central = val.even.constant_part()
            worst = max(worst, (val - central * gu).norm())
    ok = worst <= 1e-13
    _report(
        "criterion 5 (canonical curvature)",
        ok,
        f"worst deviation from the central closed forms {worst:.2e}",
    )


def test_criterion_6_dual_path_curvature():
    """Closed forms vs generic evaluation on 100 random connections, 1e-11."""
    rng = np.random.default_rng(311)
    worst = 0.0
    s2 = SymplecticStructure(2, 1.0)
    s4 = SymplecticStructure(4, 1.0)
    for i in range(80):
        A = random_connection(rng, s2)
        worst = max(worst, max_residual(curvature(A), curvature_generic(A)))
    for i in range(8):
        A = random_connection(rng, s4)
        worst = max(worst, max_residual(curvature(A), curvature_generic(A)))
    for i in range(10):
        A = random_graded_connection(rng, s2)
        Fc, Fg = graded_curvature(A), graded_curvature_generic(A)
        worst = max(worst, max((Fc[k] - Fg[k]).norm() for k in Fc))
    for i in range(2):
        A = random_graded_connection(rng, s4)
        Fc, Fg = graded_curvature(A), graded_curvature_generic(A)
        worst = max(worst, max((Fc[k] - Fg[k]).norm() for k in Fc))
    ok = worst <= 1e-11
    _report(
        "criterion 6 (dual-path curvature)",
        ok,
        f"100 random connections (88 ungraded + 12 graded), worst {worst:.2e} "
        "(tol 1e-11)",
    )


def test_criterion_7_gauge_covariance():
    """20 random plane-wave gauge elements, every covariant object, 1e-10."""
    worst = 0.0
    for D in (2,):
        checks = verify_connections(D, 1.0, seed=99, n_random=20)
        for c in checks:
            if c.tol == 1e-10:
                worst = max(worst, c.residual)
    from moyalcalc.verify import verify_graded

    for c in verify_graded(2, 1.0, seed=99, n_random=40):
        if c.tol == 1e-10:
            worst = max(worst, c.residual)
    ok = worst <= 1e-10
    _report(
        "criterion 7 (gauge covariance)",
        ok,
        f"coordinates, curvatures, covariant derivative, both action "
        f"densities and the canonical connection; worst {worst:.2e} (tol 1e-10)",
    )


def test_criterion_8_transversality_diagnostic():
    """Normalised delta residual decreases monotonically over the window."""
    cfg = LoopConfig(D=4, theta=1.0, n_higgs=10, mu_mass=1.0)
    pts = np.geomspace(0.01, 0.1, 8)
    prof = delta_residual_profile(cfg, [np.array([x, 0, 0, 0]) for x in pts])
    values = [v for _pt, v in prof]
    monotone = all(values[i] < values[i + 1] for i in range(len(values) - 1))
    ok = monotone and values[0] < 1e-6
    _report(
        "criterion 8 (transversality)",
        ok,
        f"delta residual * pt^(D-2) falls from {values[-1]:.2e} at |pt|=0.1 "
        f"to {values[0]:.2e} at |pt|=0.01, monotonically",
    )
