import numpy as np
import pytest

from moyalcalc import SymplecticStructure


@pytest.mark.parametrize("D", [2, 4, 6])
@pytest.mark.parametrize("theta", [1.0, 0.5, 2.5])
def test_theta_block_structure(D, theta):
    s = SymplecticStructure(D, theta)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    for i in range(D // 2):
        block = s.Theta[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        assert np.allclose(block, theta * J)
    assert np.allclose(s.Theta, -s.Theta.T)
    assert np.allclose(s.ThetaInv, -s.ThetaInv.T)
    assert np.max(np.abs(s.Theta @ s.ThetaInv - np.eye(D))) < 1e-14


def test_bad_dimensions_rejected():
    with pytest.raises(ValueError):
        SymplecticStructure(3)
    with pytest.raises(ValueError):
        SymplecticStructure(0)
    with pytest.raises(ValueError):
        SymplecticStructure(2, theta=-1.0)
    with pytest.raises(ValueError):
        SymplecticStructure(2, theta=float("inf"))
    with pytest.raises(ValueError):
        SymplecticStructure(2, theta=float("nan"))


@pytest.mark.parametrize("theta", [5.5e-309, 1e-320, 5e-324, np.float64(1e-320)])
def test_theta_without_a_finite_inverse_rejected(theta):
    # rejected before numpy divides, so no overflow warning is printed
    with pytest.raises(ValueError, match="theta must have a finite inverse"):
        SymplecticStructure(2, theta)


def test_theta_just_above_the_limit_accepted():
    s = SymplecticStructure(4, 5.6e-309)
    assert np.isfinite(s.ThetaInv).all()


def test_wedge_antisymmetry_and_values():
    s = SymplecticStructure(2, 1.0)
    assert s.wedge((1, 0), (0, 1)) == -1.0
    assert s.wedge((1, 2), (1, 2)) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        p, k = rng.normal(size=2), rng.normal(size=2)
        assert abs(s.wedge(p, k) + s.wedge(k, p)) < 1e-14


def test_ptilde_index_convention():
    s = SymplecticStructure(2, 1.0)
    # ptilde_mu = Theta_{mu nu} p_nu
    assert np.allclose(s.ptilde((1.0, 0.0)), (0.0, 1.0))
    assert np.allclose(s.ptilde((0.0, 1.0)), (-1.0, 0.0))
