import math

import numpy as np
import pytest

from moyalcalc import (
    LoopConfig,
    seagull,
    vertex_3g,
    vertex_3h,
    vertex_4g,
    vertex_4h,
    vertex_gauge_higgs,
    vertex_ghost,
    wedge,
)
from moyalcalc.structure import SymplecticStructure

CFG2 = LoopConfig(D=2, theta=1.0)
CFG4 = LoopConfig(D=4, theta=1.0)


def test_wedge_examples():
    s = SymplecticStructure(2, 1.0)
    assert wedge((1, 0), (0, 1), s) == -1.0
    assert abs(wedge((0.3, -1.2), (0.3, -1.2), s)) < 1e-15
    rng = np.random.default_rng(2)
    for _ in range(10):
        p, k = rng.normal(size=2), rng.normal(size=2)
        assert abs(wedge(p, k, s) + wedge(k, p, s)) < 1e-14
    with pytest.raises(ValueError):
        wedge((1, 0, 0), (0, 1), s)


def test_ghost_vertex_value():
    v = vertex_ghost(CFG2, (2, 0), (1, 0), (0, 1), mu=1)
    assert abs(v - 2j * 2 * math.sin(-0.5)) < 1e-14
    # omitted last momentum completed by conservation
    v2 = vertex_ghost(CFG2, (2, 0), (1, 0), None, mu=1)
    assert abs(v2 - 2j * 2 * math.sin(0.5 * CFG2.structure.wedge((1, 0), (-3, 0)))) < 1e-14


def test_three_gauge_leg_exchange_symmetry():
    """Invariant under simultaneous transposition of (momentum, index) pairs."""
    rng = np.random.default_rng(3)
    for _ in range(12):
        k1, k2 = rng.normal(size=2), rng.normal(size=2)
        k3 = -(k1 + k2)
        legs = [(tuple(k1), 1), (tuple(k2), 2), (tuple(k3), 1)]
        base = vertex_3g(CFG2, legs[0][0], legs[1][0], legs[2][0],
                         legs[0][1], legs[1][1], legs[2][1])
        import itertools

        for perm in itertools.permutations(range(3)):
            pl = [legs[i] for i in perm]
            v = vertex_3g(CFG2, pl[0][0], pl[1][0], pl[2][0],
                          pl[0][1], pl[1][1], pl[2][1])
            assert abs(v - base) < 1e-12


def test_four_gauge_collinear_vanishes():
    k = np.array([0.7, -0.3, 0.2, 0.1])
    v = vertex_4g(CFG4, k, 2 * k, -1.5 * k, -1.5 * k, 1, 2, 3, 4)
    assert v == 0.0


def test_four_gauge_pair_exchange():
    rng = np.random.default_rng(5)
    for _ in range(8):
        ks = [rng.normal(size=4) for _ in range(3)]
        ks.append(-(ks[0] + ks[1] + ks[2]))
        idx = [1, 2, 3, 4]
        base = vertex_4g(CFG4, *ks, *idx)
        # swapping two full legs (momentum with its index) at once
        swapped = vertex_4g(CFG4, ks[1], ks[0], ks[2], ks[3], 2, 1, 3, 4)
        assert abs(base - swapped) < 1e-12


def test_gauge_higgs_vertex():
    v = vertex_gauge_higgs(CFG2, (1, 0), (0, 1), None, a=1, b=1, mu=2)
    k3 = (-1.0, -1.0)
    expect = 1j * (0 - 1) * math.sin(0.5 * CFG2.structure.wedge((0, 1), k3))
    assert abs(v - expect) < 1e-14
    assert vertex_gauge_higgs(CFG2, (1, 0), (0, 1), None, a=1, b=2, mu=2) == 0


def test_seagull_diagonal_structure():
    rng = np.random.default_rng(7)
    k1, k2, k3 = (rng.normal(size=2) for _ in range(3))
    k4 = -(k1 + k2 + k3)
    assert seagull(CFG2, k1, k2, k3, k4, 1, 2, 1, 1) == 0
    assert seagull(CFG2, k1, k2, k3, k4, 1, 1, 1, 2) == 0
    w = CFG2.structure.wedge
    expect = -2.0 * (
        math.cos(0.5 * (w(k3, k1) + w(k4, k2)))
        - math.cos(0.5 * w(k1, k2)) * math.cos(0.5 * w(k3, k4))
    )
    assert abs(seagull(CFG2, k1, k2, k3, k4, 1, 1, 2, 2) - expect) < 1e-14
    # seagull with the closed loop legs: -2 [cos(p^k) - 1] = 4 sin^2(p^k/2)
    p = np.array([0.3, 0.4])
    k = np.array([1.0, -0.5])
    v = seagull(CFG2, k, -k, p, -p, 1, 1, 1, 1)
    assert abs(v - 4.0 * math.sin(0.5 * w(p, k)) ** 2) < 1e-13


def test_higgs_vertices():
    C = np.zeros((3, 3, 3))
    C[0][1][2] = 1.0
    v = vertex_3h(CFG2, (1, 0), (0, 1), None, 0, 1, 2, C)
    assert abs(v - 1j * math.sin(0.5 * CFG2.structure.wedge((1, 0), (0, 1)))) < 1e-14
    rng = np.random.default_rng(11)
    ks = [rng.normal(size=2) for _ in range(3)]
    ks.append(-(ks[0] + ks[1] + ks[2]))
    base = vertex_4h(CFG2, *ks, 1, 2, 3, 4)
    swapped = vertex_4h(CFG2, ks[1], ks[0], ks[2], ks[3], 2, 1, 3, 4)
    assert abs(base - swapped) < 1e-12


def test_identical_species_leg_permutation():
    """Ghost and Higgs vertices are invariant when identical-species legs are
    permuted together with their indices."""
    rng = np.random.default_rng(13)
    k1, k2 = rng.normal(size=2), rng.normal(size=2)
    k3 = -(k1 + k2)
    # swapping the two Higgs legs flips both (k1 - k2)_mu and the sine
    # (sin(k2^k3)/2 = sin(k1^k2)/2 on shell), so the vertex is invariant
    v = vertex_gauge_higgs(CFG2, k1, k2, k3, 1, 1, 1)
    vs = vertex_gauge_higgs(CFG2, k2, k1, k3, 1, 1, 1)
    assert abs(v - vs) < 1e-13


@pytest.mark.parametrize("cfg", [CFG2, CFG4], ids=["D2", "D4"])
@pytest.mark.parametrize(
    "vertex, n_momenta, flavours, n_indices",
    [
        (vertex_3g, 3, (), 3),
        (vertex_4g, 4, (), 4),
        (vertex_ghost, 3, (), 1),
        (vertex_gauge_higgs, 3, (1, 1), 1),
        (seagull, 4, (1, 1), 2),
    ],
    ids=["3g", "4g", "ghost", "gauge_higgs", "seagull"],
)
def test_vertex_spacetime_indices_are_checked(cfg, vertex, n_momenta, flavours, n_indices):
    ks = [np.full(cfg.D, 0.5 * (j + 1)) for j in range(n_momenta - 1)] + [None]
    for good in (1, cfg.D):
        vertex(cfg, *ks, *flavours, *([good] * n_indices))
    for pos in range(n_indices):
        for bad in (0, cfg.D + 1):
            indices = [1] * n_indices
            indices[pos] = bad
            with pytest.raises(IndexError):
                vertex(cfg, *ks, *flavours, *indices)
