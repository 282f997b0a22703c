"""Symplectic conventions shared by every other module.

The deformation matrix is Theta = theta * Sigma where Sigma is block diagonal
with n copies of J = [[0, -1], [1, 0]] along the diagonal (D = 2n).  Both
Theta and its inverse are antisymmetric, Theta^{-1} = Sigma^{-1} / theta, and
the coordinate functions obey [x_mu, x_nu]_star = i Theta_{mu nu}.

All public index arguments are 1-based (mu = 1..D), matching the expression
grammar (x1, x2, ...) and the generator names (d1, X12, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

import numpy as np

__all__ = ["SymplecticStructure", "StructureMismatchError"]


class StructureMismatchError(ValueError):
    """Operands built over different symplectic structures."""


def _sigma(D: int) -> np.ndarray:
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    M = np.zeros((D, D))
    for i in range(D // 2):
        M[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = J
    return M


@dataclass(frozen=True)
class SymplecticStructure:
    """Dimension, deformation parameter and the matrices Theta, Theta^{-1}."""

    D: int
    theta: float = 1.0
    Theta: np.ndarray = field(init=False, repr=False, compare=False)
    ThetaInv: np.ndarray = field(init=False, repr=False, compare=False)
    _planes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.D < 2 or self.D % 2 != 0:
            raise ValueError(f"D must be a positive even integer, got {self.D}")
        if not 0 < self.theta < np.inf:
            raise ValueError(f"theta must be positive and finite, got {self.theta}")
        # a theta below about 5.6e-309 has no finite inverse
        if not isfinite(1.0 / float(self.theta)):
            raise ValueError(f"theta must have a finite inverse, got {self.theta}")
        sigma = _sigma(self.D)
        object.__setattr__(self, "Theta", self.theta * sigma)
        # Sigma^{-1} = -Sigma = Sigma^T for this block form
        object.__setattr__(self, "ThetaInv", -sigma / self.theta)
        # (i, j, Theta_ij) for each 2-plane, i < j: the only nonzero entries
        # are Theta_ij and Theta_ji = -Theta_ij
        planes = tuple((i, i + 1, float(self.Theta[i, i + 1])) for i in range(0, self.D, 2))
        object.__setattr__(self, "_planes", planes)

    def compatible(self, other: "SymplecticStructure") -> bool:
        return self.D == other.D and self.theta == other.theta

    def check_compatible(self, other: "SymplecticStructure") -> None:
        if not self.compatible(other):
            raise StructureMismatchError(
                f"structure mismatch: (D={self.D}, theta={self.theta}) vs "
                f"(D={other.D}, theta={other.theta})"
            )

    def check_index(self, mu: int) -> None:
        if not 1 <= mu <= self.D:
            raise IndexError(f"coordinate index {mu} out of range 1..{self.D}")

    def wedge(self, p, k) -> float:
        """Symplectic pairing p_mu Theta_{mu nu} k_nu."""
        p = np.asarray(p, dtype=float)
        k = np.asarray(k, dtype=float)
        if p.shape != (self.D,) or k.shape != (self.D,):
            raise ValueError(f"wedge expects two vectors of length {self.D}")
        return float(p @ self.Theta @ k)

    def ptilde(self, p) -> np.ndarray:
        """ptilde_mu = Theta_{mu nu} p_nu."""
        p = np.asarray(p, dtype=float)
        if p.shape != (self.D,):
            raise ValueError(f"expected a vector of length {self.D}")
        return self.Theta @ p
