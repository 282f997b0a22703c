"""The verify suites: exact residuals, and the runner's table contract.

``PINNED`` holds every ``Check`` of each suite at D=2 and D=4, theta 0.7,
seed 5, with small sample counts, as ``(name, residual.hex(), tol)``; the
"D=2 special bracket table" row exists at D=2 only. The residuals are
bit-for-bit those of the hand-written suites that preceded the
table-and-generator form, so any change to a suite's draw order, sample set
or reduction shows here.
"""

import pytest

from moyalcalc import verify
from moyalcalc.verify import SUITES, verify_graded

N_RANDOM = {"core": 5, "derivations": 2, "connections": 2, "graded": 2}

PINNED = {
    (2, "core"): [
        ("star associativity", "0x1.eb176c60b39edp-52", 1e-10),
        ("Leibniz d(a*b)", "0x1.74319c2fd04aep-52", 1e-12),
        ("involution (a*b)+ = b+*a+", "0x1.6b60379a7d8aap-54", 1e-12),
        ("[x_mu, a] = i Theta grad a", "0x1.a977cd8c4c960p-53", 1e-12),
        ("x_mu * a split", "0x1.9d6e11704b222p-53", 1e-12),
        ("x_mu (a*b) split", "0x1.010070dc8d459p-52", 1e-12),
        ("(x x) * a quadratic split", "0x1.9d6e11704b222p-53", 1e-12),
        ("cubic commutator split", "0x1.9d6e11704b222p-53", 1e-12),
        ("[x_mu, x_nu] = i Theta_{mu nu}", "0x0.0p+0", 1e-14),
        ("d_mu = [i xi_mu, .]", "0x1.1098a9c7f8c12p-52", 1e-12),
        ("center witness (monomials move)", "0x1.6db6db6db6db7p+0", 1e12),
    ],
    (2, "derivations"): [
        ("[Ad_P, Ad_Q] = Ad_[P,Q]", "0x1.f7bf74ab8ed00p-53", 1e-11),
        ("eta defect central and nonzero", "0x0.0p+0", 1e-13),
        ("sp(2n,R) bracket table", "0x1.0000000000000p-49", 1e-12),
        ("mixed bracket table", "0x0.0p+0", 1e-12),
        ("bracket decomposition closes", "0x0.0p+0", 1e-12),
        ("real generators commute with dagger", "0x0.0p+0", 1e-12),
        ("Moyal = i Poisson on degree <= 2", "0x0.0p+0", 1e-12),
        ("degree-3 counterexample separates", "0x1.f19209742ec59p+0", 1e12),
        ("D=2 special bracket table", "0x0.0p+0", 1e-12),
    ],
    (2, "connections"): [
        ("curvature dual path", "0x1.1e3779b97f4a8p-49", 1e-11),
        ("canonical curvature values central", "0x0.0p+0", 1e-13),
        ("covariant coordinates homogeneous", "0x1.0000000000000p-52", 1e-10),
        ("curvature gauge covariant", "0x1.060dad910e74dp-48", 1e-10),
        ("covariant derivative covariant", "0x1.4000000000000p-51", 1e-10),
        ("action density covariant", "0x1.8213e4f575a6ap-42", 1e-10),
        ("canonical connection invariant", "0x1.5308af161f4a5p-51", 1e-10),
        ("connection Leibniz", "0x1.5f571eb1b5c24p-53", 1e-11),
        ("F = D cov - structure terms", "0x1.6a09e667f3bcdp-51", 1e-11),
    ],
    (2, "graded"): [
        ("graded product associative", "0x1.a05bf5c8a8657p-50", 1e-10),
        ("graded unit laws", "0x0.0p+0", 1e-12),
        ("graded involution antihomomorphism", "0x0.0p+0", 1e-12),
        ("graded Jacobi on generators", "0x1.0000000000000p-48", 1e-12),
        ("graded center witness", "0x0.0p+0", 1e-12),
        ("graded commutator table", "0x1.0000000000000p-49", 1e-12),
        ("graded curvature dual path", "0x1.1e3779b97f4a8p-49", 1e-11),
        ("graded canonical curvature central", "0x0.0p+0", 1e-13),
        ("phi transforms homogeneously", "0x0.0p+0", 1e-10),
        ("graded curvature gauge covariant", "0x1.cd82b446159f3p-49", 1e-10),
    ],
    (4, "core"): [
        ("star associativity", "0x1.854c7dbd56ed8p-51", 1e-10),
        ("Leibniz d(a*b)", "0x1.4b4057b5e1b5bp-52", 1e-12),
        ("involution (a*b)+ = b+*a+", "0x1.e2bff7695332dp-56", 1e-12),
        ("[x_mu, a] = i Theta grad a", "0x1.1e3779b97f4a8p-53", 1e-12),
        ("x_mu * a split", "0x0.0p+0", 1e-12),
        ("x_mu (a*b) split", "0x1.1988666245a58p-52", 1e-12),
        ("(x x) * a quadratic split", "0x0.0p+0", 1e-12),
        ("cubic commutator split", "0x1.0cdc3e7462777p-53", 1e-12),
        ("[x_mu, x_nu] = i Theta_{mu nu}", "0x0.0p+0", 1e-14),
        ("d_mu = [i xi_mu, .]", "0x1.a03b079a47949p-52", 1e-12),
        ("center witness (monomials move)", "0x1.6db6db6db6db7p+0", 1e12),
    ],
    (4, "derivations"): [
        ("[Ad_P, Ad_Q] = Ad_[P,Q]", "0x1.2533ffdd4a943p-50", 1e-11),
        ("eta defect central and nonzero", "0x0.0p+0", 1e-13),
        ("sp(2n,R) bracket table", "0x1.0000000000000p-49", 1e-12),
        ("mixed bracket table", "0x0.0p+0", 1e-12),
        ("bracket decomposition closes", "0x0.0p+0", 1e-12),
        ("real generators commute with dagger", "0x0.0p+0", 1e-12),
        ("Moyal = i Poisson on degree <= 2", "0x0.0p+0", 1e-12),
        ("degree-3 counterexample separates", "0x1.f19209742ec59p+0", 1e12),
    ],
    (4, "connections"): [
        ("curvature dual path", "0x1.854bfb363dc39p-49", 1e-11),
        ("canonical curvature values central", "0x0.0p+0", 1e-13),
        ("covariant coordinates homogeneous", "0x1.0000000000000p-52", 1e-10),
        ("curvature gauge covariant", "0x1.01fe03f61bad0p-47", 1e-10),
        ("covariant derivative covariant", "0x1.1e3779b97f4a8p-49", 1e-10),
        ("action density covariant", "0x1.f3db2174e7468p-40", 1e-10),
        ("canonical connection invariant", "0x1.0000000000000p-52", 1e-10),
        ("connection Leibniz", "0x1.f5fa7cfe8c1f7p-52", 1e-11),
        ("F = D cov - structure terms", "0x1.1e3779b97f4a8p-50", 1e-11),
    ],
    (4, "graded"): [
        ("graded product associative", "0x1.24f7124a90858p-49", 1e-10),
        ("graded unit laws", "0x0.0p+0", 1e-12),
        ("graded involution antihomomorphism", "0x0.0p+0", 1e-12),
        ("graded Jacobi on generators", "0x1.0000000000000p-49", 1e-12),
        ("graded center witness", "0x0.0p+0", 1e-12),
        ("graded commutator table", "0x1.0000000000000p-49", 1e-12),
        ("graded curvature dual path", "0x1.6a09e667f3bcdp-49", 1e-11),
        ("graded canonical curvature central", "0x0.0p+0", 1e-13),
        ("phi transforms homogeneously", "0x0.0p+0", 1e-10),
        ("graded curvature gauge covariant", "0x1.17158f396f3b0p-45", 1e-10),
    ],
}


@pytest.mark.parametrize("D, suite", list(PINNED))
def test_suite_residuals_bit_exact(D, suite):
    checks = SUITES[suite](D, 0.7, 5, n_random=N_RANDOM[suite])
    assert [(c.name, c.residual.hex(), c.tol) for c in checks] == PINNED[D, suite]


def test_check_without_samples_raises():
    # n_random // 2 == 0 draws no gauge sample for the last two graded checks
    with pytest.raises(ValueError) as exc:
        verify_graded(2, 1.0, 1, n_random=1)
    assert "phi transforms homogeneously" in str(exc.value)
    assert "graded curvature gauge covariant" in str(exc.value)


def test_yielded_name_outside_the_table_raises():
    def samples(s, rng, n_random):
        yield "star associativity", 0.0
        yield "star asociativity", 0.0

    with pytest.raises(ValueError, match="'star asociativity'"):
        verify._run(samples, {"star associativity": 1e-10}, 2, 1.0, 1, 1)
