import os
import sys
import threading
import warnings
from fractions import Fraction
from math import comb, copysign, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moyalcalc import (
    MoyalElement,
    SymplecticStructure,
    StructureMismatchError,
    Term,
    anticommutator,
    commutator,
    connection_from_config,
    coordinate,
    curvature,
    curvature_generic,
    dump_element,
    graded_connection_from_config,
    graded_curvature,
    graded_curvature_generic,
    is_unitary,
    load_element,
    monomial,
    parse_expression,
    partial,
    plane_wave,
    pointwise,
    rel_distance,
    star,
    star_term,
    unit,
    xi,
)
import moyalcalc.elements as kernel
from moyalcalc.cli import main
from moyalcalc.elements import (
    PRUNE_REL,
    _cached_shift,
    _kept,
    _monomial_couple,
    _pruned,
    _shift_monomial,
    _shifted_couple,
)
from moyalcalc.elements import (
    _BATCH_PAIRS,
    _PLAN_PAIRS,
    _CoefficientCache,
    _Replayed,
    _bilinear_sum,
    _couple_plan,
    _replay,
    _star_terms,
    _support,
)
from moyalcalc.verify import random_element

S2 = SymplecticStructure(2, 1.0)


def test_x1_star_x2():
    x1, x2 = coordinate(S2, 1), coordinate(S2, 2)
    expect = pointwise(x1, x2) - 0.5j * unit(S2)
    assert (star(x1, x2) - expect).norm() == 0.0


def test_wave_times_conjugate_is_unit():
    w = plane_wave(S2, (1.3, -0.7))
    assert (star(w, w.dag()) - unit(S2)).norm() < 1e-15


def test_sum_difference_product():
    x1, x2 = coordinate(S2, 1), coordinate(S2, 2)
    # (x1 + x2) * (x1 - x2) = x1^2 - x2^2 + i theta
    got = star(x1 + x2, x1 - x2)
    expect = monomial(S2, (2, 0)) - monomial(S2, (0, 2)) + 1j * unit(S2)
    assert (got - expect).norm() < 1e-15


def test_unit_law_and_associativity_witness():
    a = coordinate(S2, 1) + plane_wave(S2, (0.5, 0.25), 2.0)
    assert (star(a, unit(S2)) - a).norm() == 0.0
    assert (star(unit(S2), a) - a).norm() == 0.0
    x1, x2 = coordinate(S2, 1), coordinate(S2, 2)
    lhs = star(star(x1, x2), x1)
    rhs = star(x1, star(x2, x1))
    assert (lhs - rhs).norm() < 1e-14


def test_commutator_of_coordinates_all_dims():
    for D in (2, 4, 6):
        s = SymplecticStructure(D, 0.8)
        for mu in range(1, D + 1):
            for nu in range(1, D + 1):
                got = commutator(coordinate(s, mu), coordinate(s, nu))
                expect = 1j * s.Theta[mu - 1, nu - 1] * unit(s)
                assert (got - expect).norm() < 1e-15


def test_commutator_with_coordinate_is_directional_derivative():
    a = monomial(S2, (2, 1))  # x1^2 x2
    for mu in (1, 2):
        grad = None
        for nu in (1, 2):
            t = S2.Theta[mu - 1, nu - 1]
            if t:
                piece = 1j * t * partial(nu, a)
                grad = piece if grad is None else grad + piece
        assert (commutator(coordinate(S2, mu), a) - grad).norm() < 1e-14


def test_anticommutator_of_xi_is_pointwise():
    got = anticommutator(xi(S2, 1), xi(S2, 2))
    expect = 2.0 * pointwise(xi(S2, 1), xi(S2, 2))
    assert (got - expect).norm() < 1e-15


def test_involution_examples():
    x1 = coordinate(S2, 1)
    assert ((1j * x1).dag() + 1j * x1).norm() < 1e-15
    w = plane_wave(S2, (1.0, -0.5))
    assert (w.dag() - plane_wave(S2, (-1.0, 0.5))).norm() == 0.0


def test_involution_antihomomorphism_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        terms = {
            (tuple(rng.integers(0, 3, size=2)), (float(rng.integers(-4, 5)) / 4, 0.25))
            : complex(rng.normal(), rng.normal())
            for _ in range(3)
        }
        a = MoyalElement(S2, terms)
        b = a.partial(1) + plane_wave(S2, (0.5, -0.75))
        assert rel_distance(star(a, b).dag(), star(b.dag(), a.dag())) < 1e-13


def test_partial_examples():
    assert (partial(1, monomial(S2, (2, 0))) - 2.0 * coordinate(S2, 1)).norm() == 0.0
    w = plane_wave(S2, (1.5, 0.0))
    assert (partial(1, w) - 1.5j * w).norm() < 1e-15
    # Leibniz on a random mixed pair
    a = coordinate(S2, 1) + plane_wave(S2, (0.5, 0.5))
    b = monomial(S2, (1, 1)) + plane_wave(S2, (-0.25, 1.0), 0.3j)
    for mu in (1, 2):
        lhs = partial(mu, star(a, b))
        rhs = star(partial(mu, a), b) + star(a, partial(mu, b))
        assert (lhs - rhs).norm() < 1e-14


def test_xi_values_and_bracket():
    s = SymplecticStructure(2, 2.0)
    # xi_1 = -x2 / theta, xi_2 = +x1 / theta
    assert (xi(s, 1) + 0.5 * coordinate(s, 2)).norm() < 1e-15
    assert (xi(s, 2) - 0.5 * coordinate(s, 1)).norm() < 1e-15
    got = commutator(xi(s, 1), xi(s, 2))
    assert (got + 1j * s.ThetaInv[0, 1] * unit(s)).norm() < 1e-15
    with pytest.raises(IndexError):
        xi(S2, 3)


def test_partial_equals_xi_commutator():
    a = monomial(S2, (1, 2)) + plane_wave(S2, (0.5, -0.5), 1j)
    for mu in (1, 2):
        assert (partial(mu, a) - commutator(1j * xi(S2, mu), a)).norm() < 1e-14


def test_is_unitary():
    assert is_unitary(plane_wave(S2, (0.7, 0.1)), 1e-12)
    assert not is_unitary(2.0 * unit(S2), 1e-10)
    g = unit(S2) + 0.1j * coordinate(S2, 1)
    # g+ * g = 1 + eps^2 x1^2
    gap = star(g.dag(), g) - unit(S2)
    assert (gap - 0.01 * monomial(S2, (2, 0))).norm() < 1e-15
    assert not is_unitary(g, 1e-10)


def test_structure_mismatch_raises():
    other = SymplecticStructure(2, 2.0)
    with pytest.raises(StructureMismatchError):
        star(coordinate(S2, 1), coordinate(other, 1))


def test_pruning_threshold():
    big = unit(S2)
    tiny = monomial(S2, (1, 0), 1e-14)
    combined = big + tiny
    assert len(combined.terms) == 1  # below 1e-12 relative


def test_star_term_matches_bilinear():
    t1 = Term((1, 0), (1.0, 0.0), 2.0)
    t2 = Term((0, 1), (0.0, 1.0), 1j)
    a = MoyalElement(S2, {(t1.alpha, t1.k): t1.coeff})
    b = MoyalElement(S2, {(t2.alpha, t2.k): t2.coeff})
    assert (star_term(t1, t2, S2) - star(a, b)).norm() == 0.0


def test_serialization_round_trip():
    a = coordinate(S2, 1) + plane_wave(S2, (0.5, -1.25), 0.5 - 2j)
    text = dump_element(a)
    b = load_element(text, S2)
    assert (a - b).norm() == 0.0
    assert dump_element(b) == text
    assert load_element("# only a comment\n", S2).is_zero()
    with pytest.raises(ValueError):
        load_element("1.0 0.0 | 1 0 | 0.0", S2)


@st.composite
def elements(draw, s=S2):
    n = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n):
        alpha = tuple(draw(st.integers(0, 2)) for _ in range(s.D))
        k = tuple(draw(st.integers(-4, 4)) / 4.0 for _ in range(s.D))
        re = draw(st.floats(-2, 2, allow_nan=False))
        im = draw(st.floats(-2, 2, allow_nan=False))
        terms[(alpha, k)] = complex(re, im)
    return MoyalElement(s, terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(elements(), elements(), elements())
def test_star_associativity_property(a, b, c):
    lhs = star(star(a, b), c)
    rhs = star(a, star(b, c))
    assert rel_distance(lhs, rhs) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(elements(), elements())
def test_involution_and_leibniz_property(a, b):
    assert rel_distance(star(a, b).dag(), star(b.dag(), a.dag())) < 1e-11
    lhs = partial(1, star(a, b))
    rhs = star(partial(1, a), b) + star(a, partial(1, b))
    assert rel_distance(lhs, rhs) < 1e-11


def test_evaluate_pointwise():
    a = monomial(S2, (2, 1), 0.5) + plane_wave(S2, (1.0, 0.0), 1j)
    x = np.array([0.3, -1.2])
    expect = 0.5 * 0.3**2 * (-1.2) + 1j * np.exp(1j * 0.3)
    assert abs(a.evaluate(x) - expect) < 1e-14


def _expand_shift(alpha, v):
    """(x + v)^alpha multiplied out one factor (x_mu + v_mu) at a time."""
    poly = {(0,) * len(alpha): 1.0}
    for ax, a in enumerate(alpha):
        for _ in range(a):
            nxt = {}
            for key, c in poly.items():
                up = key[:ax] + (key[ax] + 1,) + key[ax + 1 :]
                nxt[up] = nxt.get(up, 0.0) + c
                nxt[key] = nxt.get(key, 0.0) + c * v[ax]
            poly = nxt
    return {key: c for key, c in poly.items() if c != 0.0}


@pytest.mark.parametrize("theta, ulps", [(1.0, 0), (0.3, 8)])
def test_closed_form_shift_matches_expansion(theta, ulps):
    # v = -Theta k / 2 as in the kernel; exact when theta k is dyadic
    rng = np.random.default_rng(5)
    for D in (2, 4):
        s = SymplecticStructure(D, theta)
        for _ in range(60):
            alpha = tuple(int(a) for a in rng.integers(0, 5, size=D))
            k = rng.integers(-8, 9, size=D) / 4.0
            v = [float(x) for x in -0.5 * (s.Theta @ k)]
            got = _shift_monomial(alpha, v)
            want = _expand_shift(alpha, v)
            assert got.keys() == want.keys()
            for key, c in want.items():
                assert abs(got[key] - c) <= ulps * np.finfo(float).eps * abs(c)


def _exact_shift(alpha, v):
    """(x + v)^alpha in exact arithmetic, v taken as the exact value of its floats."""
    poly = {(): Fraction(1)}
    for a, vx in zip(alpha, v):
        vx = Fraction(vx)
        poly = {
            key + (j,): c * comb(a, j) * vx ** (a - j)
            for key, c in poly.items()
            for j in range(a + 1)
        }
    return poly


def _dict_shift(alpha, v):
    """``_shift_monomial`` as it was first written: one dict comprehension per shifted axis."""
    out = {alpha: 1.0}
    for ax, (a, vx) in enumerate(zip(alpha, v or ())):
        if a and vx != 0.0:
            col = []
            power = 1.0
            for j in range(a, -1, -1):
                col.append((j, comb(a, j) * power))
                power *= vx
            out = {
                key[:ax] + (j,) + key[ax + 1 :]: c * cj for key, c in out.items() for j, cj in col
            }
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_shift_expansion_matches_the_dict_form_and_the_exact_shift(data):
    D = data.draw(st.sampled_from([2, 4]))
    alpha = data.draw(st.tuples(*[st.integers(0, 6)] * D))
    dyadic = st.integers(-16, 16).map(lambda n: n / 8)
    component = st.one_of(st.sampled_from([0.0, -0.0]), dyadic,
                          st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
    v = data.draw(st.one_of(st.none(), st.tuples(*[component] * D)))
    got = _shift_monomial(alpha, v)
    # the same keys in the same order, and the same bits
    assert [(key, c.hex()) for key, c in got.items()] == [
        (key, c.hex()) for key, c in _dict_shift(alpha, v).items()
    ]
    # at short dyadic shifts every coefficient is exact
    v = data.draw(st.tuples(*[dyadic] * D))
    got, want = _shift_monomial(alpha, v), _exact_shift(alpha, v)
    for key in got.keys() | want.keys():
        assert got.get(key, 0.0) == want.get(key, 0)


def _exact_couple(p, q, s):
    """exp(i/2 Theta^{mu nu} d_mu (x) d_nu) on p (x) q, multiplied out, in exact arithmetic.

    Expanded order by order over the nonzero entries of Theta with no use of
    its block form: order n adds (i/2)^n / n! L^n, L = Theta^{mu nu} d_mu (x) d_nu.
    Returns exponents -> complex of the correctly rounded parts, exact zeros dropped.
    """
    entries = [
        (mu, nu, Fraction(float(t))) for (mu, nu), t in np.ndenumerate(s.Theta) if t != 0.0
    ]
    layer = {(b1, b2): c1 * c2 for b1, c1 in p.items() for b2, c2 in q.items()}
    parts = {}
    n = 0
    while layer:
        weight = Fraction((-1) ** (n // 2), 2**n * factorial(n))  # (i/2)^n / n! = weight i^(n % 2)
        for (b1, b2), c in layer.items():
            key = tuple(x + y for x, y in zip(b1, b2))
            re, im = parts.get(key, (0, 0))
            parts[key] = (re, im + weight * c) if n % 2 else (re + weight * c, im)
        nxt = {}
        for (b1, b2), c in layer.items():
            for mu, nu, t in entries:
                if b1[mu] and b2[nu]:
                    key = (
                        b1[:mu] + (b1[mu] - 1,) + b1[mu + 1 :],
                        b2[:nu] + (b2[nu] - 1,) + b2[nu + 1 :],
                    )
                    nxt[key] = nxt.get(key, 0) + c * t * b1[mu] * b2[nu]
        layer = {key: c for key, c in nxt.items() if c}
        n += 1
    return {key: complex(float(re), float(im)) for key, (re, im) in parts.items() if re or im}


def _coupling_cases(D, theta, seed):
    """Seeded small-degree pairs with dyadic wave vectors, as (alpha1, v, alpha2, w)."""
    rng = np.random.default_rng(seed)
    s = SymplecticStructure(D, theta)
    top = 4 if D == 2 else 2
    for _ in range(40):
        alpha1, alpha2 = (tuple(int(a) for a in rng.integers(0, top + 1, size=D)) for _ in range(2))
        k1, k2 = (rng.integers(-8, 9, size=D) / 4.0 for _ in range(2))
        v = tuple(float(x) for x in -0.5 * (s.Theta @ k2))
        w = tuple(float(x) for x in 0.5 * (s.Theta @ k1))
        yield s, alpha1, v, alpha2, w


@pytest.mark.parametrize("D", [2, 4])
@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 0.3])
def test_monomial_coupling_is_correctly_rounded(D, theta):
    # each coefficient is rounded once from exact integers, so it is the exact
    # value at dyadic theta and the correctly rounded one otherwise
    for s, alpha1, _v, alpha2, _w in _coupling_cases(D, theta, seed=D):
        want = _exact_couple({alpha1: Fraction(1)}, {alpha2: Fraction(1)}, s)
        assert _monomial_couple(alpha1, alpha2, s._planes) == want


@pytest.mark.parametrize("D", [2, 4])
@pytest.mark.parametrize("theta, ulps", [(0.5, 0), (1.0, 0), (2.0, 0), (0.3, 4)])
def test_shifted_coupling_matches_exact_expansion(D, theta, ulps):
    for s, alpha1, v, alpha2, w in _coupling_cases(D, theta, seed=10 + D):
        want = _exact_couple(_exact_shift(alpha1, v), _exact_shift(alpha2, w), s)
        got = _shifted_couple(alpha1, v, alpha2, w, s._planes)
        top = max(map(abs, want.values()), default=0.0)
        for key in got.keys() | want.keys():
            err = abs(got.get(key, 0j) - want.get(key, 0j))
            assert err <= ulps * np.finfo(float).eps * top


def test_high_degree_coupling_is_exact_and_finite():
    # the exact coefficients of x2^100 * x1^100 peak near 6.9e137; 35 of the 101
    # lie above the relative prune
    a, b = monomial(S2, (0, 100)), monomial(S2, (100, 0))
    want = _exact_couple({(0, 100): Fraction(1)}, {(100, 0): Fraction(1)}, S2)
    top = max(map(abs, want.values()))
    kept = {(key, (0.0, 0.0)): c for key, c in want.items() if abs(c) > PRUNE_REL * top}
    got = star(a, b)
    assert len(got.terms) == 35
    assert got.terms == kept


def test_degree_twenty_pair_is_exact():
    a = monomial(S2, (20, 20))
    want = _exact_couple({(20, 20): Fraction(1)}, {(20, 20): Fraction(1)}, S2)
    top = max(map(abs, want.values()))
    kept = {(key, (0.0, 0.0)): c for key, c in want.items() if abs(c) > PRUNE_REL * top}
    assert star(a, a).terms == kept


@pytest.mark.parametrize(
    "k1, k2",
    [
        ((9000.5, 0.25), (-1000.75, 0.5)),
        ((8192.3, -0.1), (-0.7, 0.2)),
        ((-12345.678, 3.3), (12345.0, -3.3)),
        ((0.1, 1e4), (0.2, -1e4 + 0.3)),
    ],
)
def test_wave_sum_beyond_grid_limit_merges(k1, k2):
    # components >= 8192 are off the quantisation grid, so their sums are
    # re-quantised like any wave vector entering plane_wave
    w1, w2 = plane_wave(S2, k1), plane_wave(S2, k2)
    ((_, g1),) = w1.terms
    ((_, g2),) = w2.terms
    expect = plane_wave(S2, tuple(x + y for x, y in zip(g1, g2)))
    assert list(star(w1, w2).terms) == list(expect.terms)
    assert list(star(w2, w1).terms) == list(expect.terms)


def test_non_finite_wave_vectors_raise():
    with pytest.raises(ValueError, match="finite"):
        plane_wave(S2, (np.inf, 0.0))
    with pytest.raises(ValueError, match="finite"):
        MoyalElement(S2, {((0, 0), (np.nan, 0.0)): 1.0})
    with pytest.raises(ValueError, match="line 1: .*finite"):
        load_element("1.0 0.0 | 0 0 | inf 0.0", S2)
    # each factor is finite; their wave sum overflows in the kernel
    w1, w2 = plane_wave(S2, (1e308, 0.0)), plane_wave(S2, (1e308, 1.0))
    with pytest.raises(ValueError, match="finite"):
        star(w1, w2)


def test_negative_exponents_raise():
    # the kernel and the printer assume nonnegative exponents: with x1^-1 in,
    # x1^-1 * x2 and x2 * x1^-1 both star to 0, and x1^-2 x2 prints as x2
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        MoyalElement(S2, {((-2, 1), (0.0, 0.0)): 1.0})
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        load_element("1.0 0.0 | -1 0 | 0.0 0.0\n", S2)


def test_fractional_exponents_raise():
    # int() would truncate them: x1^1.5 became x1 and x0.9 x2^2 became x2^2
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        MoyalElement(S2, {((1.5, 0), (0.0, 0.0)): 1.0})
    with pytest.raises(ValueError, match="exponents must be nonnegative"):
        Term((0.9, 2), (0, 0), 1)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            MoyalElement(S2, {((bad, 0), (0.0, 0.0)): 1.0})
    # integral values of any numeric type are accepted
    assert Term((2.0, np.int64(1)), (0, 0), 1).alpha == (2, 1)


@pytest.mark.parametrize("D", [2, 4])
def test_single_wave_conjugation_is_exact(D):
    # the phase k Theta k of w^dag * w cancels term by term, also at
    # non-dyadic theta and off-grid wave vectors
    s = SymplecticStructure(D, 0.3)
    rng = np.random.default_rng(D)
    for _ in range(200):
        w = plane_wave(s, rng.uniform(-3.0, 3.0, D))
        assert star(w.dag(), w).terms == unit(s).terms
        assert star(w, w.dag()).terms == unit(s).terms


def test_non_finite_coefficients_raise():
    # a NaN that is not the first term is skipped by max() and dropped by the
    # cutoff test, so the check must not depend on term order
    nan_line, x1_line = "nan 0.0 | 0 0 | 0.0 0.0", "1.0 0.0 | 1 0 | 0.0 0.0"
    for text in (f"{nan_line}\n{x1_line}", f"{x1_line}\n{nan_line}"):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            load_element(text, S2)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        MoyalElement(S2, {((0, 0), (0.0, 0.0)): np.inf})
    with pytest.raises(ValueError, match="coefficients must be finite"):
        MoyalElement(S2, {((0, 0), (0.0, 0.0)): complex(1.5e308, 1.5e308)})
    # finite operands whose sum and product overflow
    c = 1e308 * unit(S2)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        c + c
    with pytest.raises(ValueError, match="coefficients must be finite"):
        star(c, c)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        commutator(1e200 * coordinate(S2, 1), 1e200 * coordinate(S2, 2))


def _bits(a):
    # repr tells -0.0 from 0.0, so a flipped signed zero fails the comparison
    return [(key, repr(c)) for key, c in a.items()]


def _bracket_cases():
    rng = np.random.default_rng(11)
    for s in (S2, SymplecticStructure(2, 0.3), SymplecticStructure(4, 1.0)):
        for _ in range(15):
            yield random_element(rng, s), random_element(rng, s)
    # each product has terms below PRUNE_REL of its top that the cancelling
    # unit terms would otherwise leave above the cutoff of the difference
    big = 1e6 * unit(S2)
    yield big + 1e-5 * coordinate(S2, 1), big + 1e-5 * coordinate(S2, 2)
    yield big + plane_wave(S2, (0.5, 0.0), 1e-5), big + monomial(S2, (0, 2), 1e-5)
    a = coordinate(S2, 1) + plane_wave(S2, (0.25, -0.5), 2j)
    yield MoyalElement(S2), a
    yield a, MoyalElement(S2)
    yield MoyalElement(S2), MoyalElement(S2)


def test_brackets_match_products_bit_for_bit():
    for a, b in _bracket_cases():
        assert _bits(commutator(a, b)) == _bits(star(a, b) - star(b, a))
        assert _bits(anticommutator(a, b)) == _bits(star(a, b) + star(b, a))


def test_shifted_coupling_cache_keeps_bits():
    rng = np.random.default_rng(3)
    s = SymplecticStructure(2, 0.3)
    pairs = [(random_element(rng, s), random_element(rng, s)) for _ in range(8)]
    _shifted_couple.cache_clear()
    cold = [_bits(star(a, b)) for a, b in pairs]
    filled = _shifted_couple.cache_info()
    assert 0 < filled.currsize < filled.maxsize
    warm = [_bits(star(a, b)) for a, b in pairs]
    assert _shifted_couple.cache_info().hits >= filled.hits + filled.misses
    assert warm == cold


def test_star_with_empty_operand():
    zero = MoyalElement(S2)
    a = coordinate(S2, 1) + plane_wave(S2, (0.5, 0.25))
    for lhs, rhs in ((zero, a), (a, zero), (zero, zero)):
        out = star(lhs, rhs)
        assert out.terms == {} and out.structure is S2
    other = SymplecticStructure(2, 2.0)
    for lhs, rhs in ((zero, coordinate(other, 1)), (a, MoyalElement(other))):
        with pytest.raises(StructureMismatchError):
            star(lhs, rhs)
        with pytest.raises(StructureMismatchError):
            commutator(lhs, rhs)


def test_brackets_with_empty_operand_skip_the_kernel():
    zero = MoyalElement(S2)
    for bracket in (commutator, anticommutator):
        a = coordinate(S2, 1) + plane_wave(S2, (0.5, 0.25))
        for lhs, rhs in ((zero, a), (a, zero)):
            out = bracket(lhs, rhs)
            assert out.terms == {} and out.structure is S2
        assert a._kernel is None


def test_star_term_checks_term_length():
    # a 3-long term over D=2 used to lose x3^2 and mix 2-long exponents with
    # 3-long wave vectors; a 1-long term raised a bare IndexError
    x1x3 = Term((1, 0, 2), (0.0, 0.0, 0.0), 1)
    x2 = Term((0, 1, 0), (0.0, 0.0, 0.0), 1)
    with pytest.raises(ValueError, match="does not match D=2"):
        star_term(x1x3, x2, S2)
    with pytest.raises(ValueError, match="does not match D=2"):
        star_term(Term((1,), (0.0,), 1), Term((0, 1), (0.0, 0.0), 1), S2)
    s3 = SymplecticStructure(4)
    with pytest.raises(ValueError, match="does not match D=4"):
        star_term(x1x3, x2, s3)


@pytest.mark.parametrize("D", [2, 4])
@pytest.mark.parametrize("theta", [1.0, 0.3, 2.0])
def test_kernel_shifts_keep_their_bits(D, theta):
    # the right shift is stored as the negation of the left one; it must equal
    # -Theta k / 2 computed directly, signed zeros included
    s = SymplecticStructure(D, theta)
    rng = np.random.default_rng(D)
    terms = {}
    for _ in range(40):
        k = rng.uniform(-3.0, 3.0, D) * (rng.random(D) < 0.7)  # some exact zeros
        k[rng.integers(D)] = rng.integers(-8, 9) / 4.0 or 0.5
        terms[(tuple(int(a) for a in rng.integers(0, 3, D)), tuple(k))] = 1.0
    wave_terms = 0
    for alpha, k, _c, _has_monomial, wave in MoyalElement(s, terms).kernel():
        if wave is None:
            continue
        wave_terms += 1
        _on_grid, left, right = wave
        want_left, want_right = [0.0] * D, [0.0] * D
        for i, j, t in s._planes:
            want_left[i], want_left[j] = 0.5 * t * k[j], -0.5 * t * k[i]
            want_right[i], want_right[j] = -0.5 * t * k[j], 0.5 * t * k[i]
        for got, want in ((left, want_left), (right, want_right)):
            assert list(got) == want
            assert [copysign(1.0, x) for x in got] == [copysign(1.0, x) for x in want]
    assert wave_terms > 30


def _product_battery(pairs):
    out = []
    for a, b in pairs:
        out.append(_bits(star(a, b)))
        out.append(_bits(commutator(a, b)))
        out.append(_bits(anticommutator(a, b)))
        out.append(_bits(star(star(a, b), a)))
    return out


@pytest.mark.parametrize("D, theta", [(2, 0.3), (2, 1.0), (4, 1.0)])
def test_kernel_memo_cold_and_warm_agree(D, theta):
    s = SymplecticStructure(D, theta)

    def build():
        rng = np.random.default_rng(20 + D)
        return [(random_element(rng, s), random_element(rng, s)) for _ in range(6)]

    for cache in (_monomial_couple, _shifted_couple, _cached_shift):
        cache.cache_clear()
    pairs = build()
    cold = _product_battery(pairs)
    warm = _product_battery(pairs)  # memoised kernel data, warm caches
    fresh = _product_battery(build())  # new elements, warm caches
    assert warm == cold
    assert fresh == cold


def test_shared_shift_cache_is_never_mutated(monkeypatch):
    seen = {}

    def recording(alpha, v):
        seen[(alpha, v)] = None
        return _cached_shift(alpha, v)

    monkeypatch.setattr("moyalcalc.elements._cached_shift", recording)
    rng = np.random.default_rng(9)
    for s in (SymplecticStructure(2, 0.3), SymplecticStructure(4, 1.0)):
        seen.clear()
        _shifted_couple.cache_clear()
        _cached_shift.cache_clear()
        _product_battery([(random_element(rng, s), random_element(rng, s)) for _ in range(2)])
        # every key is still cached, so each lookup below returns the shared dict
        assert 0 < len(seen) <= _cached_shift.cache_info().maxsize
        before = _cached_shift.cache_info().hits
        for alpha, v in seen:
            assert _cached_shift(alpha, v) == _shift_monomial(alpha, v)
        assert _cached_shift.cache_info().hits == before + len(seen)


def test_kernel_memo_race_between_threads():
    # threads racing to fill the memo of the same fresh elements must all get
    # the single-thread bits
    s = SymplecticStructure(2, 0.3)

    def build():
        rng = np.random.default_rng(31)
        return [(random_element(rng, s), random_element(rng, s)) for _ in range(20)]

    want = [_bits(commutator(a, b)) for a, b in build()]
    pairs = build()
    results = [None] * 4

    def work(n):
        results[n] = [_bits(commutator(a, b)) for a, b in pairs]

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * 4


def test_element_stays_immutable_with_its_kernel_memo():
    a = coordinate(S2, 1) + plane_wave(S2, (0.5, -0.25), 2j)
    data = a.kernel()
    assert a.kernel() is data  # built once per element
    for name in ("terms", "structure", "_kernel"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(a, name, None)
    assert a.kernel() is data


def _tables_shaped_config(graded, seed):
    """A D=4 config whose every component is a wave-dressed linear term plus a
    wave-dressed quadratic one, the shape of the ``tables-d4`` benchmark's."""
    rng = np.random.default_rng(seed)
    grid = [k / 16 for k in range(-32, 33) if k]

    def term(degree):
        c = complex(rng.integers(-16, 17) / 8, rng.integers(1, 17) / 8)
        xs = "*".join(f"x{i}" for i in rng.integers(1, 5, degree))
        k = ",".join(repr(float(x)) for x in rng.choice(grid, 4))
        return f"({c.real!r}+{c.imag!r}i)*{xs}*W[{k}]"

    def group(names):
        return {n: f"{term(1)} + {term(2)}" for n in names}

    dnames = [f"d{m}" for m in range(1, 5)]
    xnames = [f"X{m}{n}" for m in range(1, 5) for n in range(m, 5)]
    if graded:
        return {"D": 4, "theta": 1.25, "m": 0.75, "A0": group(dnames), "A1": group(dnames),
                "G0": group(xnames), "phi": f"{term(1)} + {term(2)}"}
    return {"D": 4, "theta": 1.25, "mu": 0.75, "alpha": 1.5, "basis": "G2",
            "components": group(dnames + xnames)}


@pytest.mark.parametrize("graded", [False, True])
def test_generic_curvature_reuses_the_closed_paths_couplings(graded):
    # both paths star-multiply covariant coordinates with the same supports,
    # so the shifted-coupling cache must still hold every coupling the closed
    # path computed when the generic path asks for it
    cfg = _tables_shaped_config(graded, seed=5)
    if graded:
        A, closed, generic = (graded_connection_from_config(cfg), graded_curvature,
                              graded_curvature_generic)
    else:
        A, closed, generic = connection_from_config(cfg), curvature, curvature_generic
    _shifted_couple.cache_clear()
    closed(A)
    after_closed = _shifted_couple.cache_info()
    generic(A)
    after_generic = _shifted_couple.cache_info()
    assert after_closed.misses > 1000
    assert after_generic.misses == after_closed.misses
    assert after_generic.hits > after_closed.hits + 1000


def _coupling_bits(coupling):
    return [(alpha, c.real.hex(), c.imag.hex()) for alpha, c in coupling.items()]


def _check_coupling_store():
    """The held count is the stored results' total size, within the budget,
    and every stored result still has the bits of a fresh computation."""
    info = _shifted_couple.cache_info()
    stored = list(_shifted_couple.results.items())
    assert info.currsize == sum(len(result) for _key, result in stored)
    assert info.currsize <= info.maxsize
    for key, result in stored:
        assert _coupling_bits(result) == _coupling_bits(_shifted_couple.__wrapped__(*key))


def _star_bulk_sized_pair():
    # the shapes of the benchmark's first D=2 star-bulk product: 18 and 16
    # terms of degree up to 8, some with waves
    s = SymplecticStructure(2, 0.75)
    rng = np.random.default_rng(17)

    def element(shape):
        terms = {}
        for degree, wave in shape:
            a = int(rng.integers(0, degree + 1))
            alpha = (a, degree - a)
            k = tuple(rng.integers(-32, 33, 2) / 16) if wave else (0.0, 0.0)
            terms[(alpha, k)] = complex(rng.integers(1, 17) / 8, rng.integers(-16, 17) / 8)
        return MoyalElement(s, terms)

    left = element([(d, i % 3 != 1) for i, d in enumerate((0, 1, 2, 3, 4, 5, 6, 7, 8) * 2)])
    right = element([(d, i % 2 == 0) for i, d in enumerate((1, 2, 3, 4, 5, 6, 7, 8) * 2)])
    return left, right


def test_shifted_coupling_store_holds_its_budget():
    _shifted_couple.cache_clear()
    rng = np.random.default_rng(23)
    star(*_star_bulk_sized_pair())
    _product_battery([(random_element(rng, s, 6, 4), random_element(rng, s, 6, 4))
                      for s in (SymplecticStructure(2, 0.3), SymplecticStructure(4, 1.0))
                      for _ in range(3)])
    info = _shifted_couple.cache_info()
    # the battery computed more than the store keeps, so it evicted
    assert info.misses > len(_shifted_couple.results)
    assert info.currsize > info.maxsize // 2
    _check_coupling_store()


def test_coupling_larger_than_the_budget_is_returned_but_not_stored():
    s = SymplecticStructure(2, 0.5)
    _shifted_couple.cache_clear()
    _product_battery([(random_element(np.random.default_rng(29), s),) * 2])
    before = _shifted_couple.cache_info()
    held = list(_shifted_couple.results)
    # a shifted x1^128 x2^128 against the unit has 129^2 coefficients
    key = ((128, 128), (0.25, -0.5), (0, 0), None, s._planes)
    got = _shifted_couple(*key)
    assert len(got) > before.maxsize
    assert _coupling_bits(got) == _coupling_bits(_shifted_couple.__wrapped__(*key))
    assert key not in _shifted_couple.results
    assert list(_shifted_couple.results) == held
    after = _shifted_couple.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses + 1
    _check_coupling_store()


def test_coupling_store_under_racing_threads():
    # more threads than cores fill and evict the store at once on fresh
    # elements; each must get the single-thread bits, and the store must
    # keep its size invariants
    def build():
        rng = np.random.default_rng(37)
        return [(random_element(rng, s, 6, 4), random_element(rng, s, 6, 4))
                for s in (SymplecticStructure(2, 0.3), SymplecticStructure(4, 1.0))
                for _ in range(3)]

    _shifted_couple.cache_clear()
    want = _product_battery(build())
    n = (os.cpu_count() or 1) + 2
    results = [None] * n

    def work(i):
        results[i] = _product_battery(build())

    _shifted_couple.cache_clear()
    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * n
    assert _shifted_couple.cache_info().misses > len(_shifted_couple.results)
    _check_coupling_store()


# residual lines of ``verify --scope all --dim 2 --seed 1`` as printed before
# the star kernel's fast paths and coupling caches; the kernel must not move
# any of them
ALL_D2_SEED1 = """\
pass  core         star associativity                   residual 7.877e-16  tol 1e-10
pass  core         Leibniz d(a*b)                       residual 2.888e-16  tol 1e-12
pass  core         involution (a*b)+ = b+*a+            residual 0.000e+00  tol 1e-12
pass  core         [x_mu, a] = i Theta grad a           residual 2.289e-16  tol 1e-12
pass  core         x_mu * a split                       residual 0.000e+00  tol 1e-12
pass  core         x_mu (a*b) split                     residual 2.913e-16  tol 1e-12
pass  core         (x x) * a quadratic split            residual 0.000e+00  tol 1e-12
pass  core         cubic commutator split               residual 4.723e-17  tol 1e-12
pass  core         [x_mu, x_nu] = i Theta_{mu nu}       residual 0.000e+00  tol 1e-14
pass  core         d_mu = [i xi_mu, .]                  residual 0.000e+00  tol 1e-12
pass  core         center witness (monomials move)      residual 1.000e+00  tol 1e+12
pass  derivations  [Ad_P, Ad_Q] = Ad_[P,Q]              residual 7.324e-15  tol 1e-11
pass  derivations  eta defect central and nonzero       residual 0.000e+00  tol 1e-13
pass  derivations  sp(2n,R) bracket table               residual 0.000e+00  tol 1e-12
pass  derivations  mixed bracket table                  residual 0.000e+00  tol 1e-12
pass  derivations  bracket decomposition closes         residual 0.000e+00  tol 1e-12
pass  derivations  real generators commute with dagger  residual 0.000e+00  tol 1e-12
pass  derivations  Moyal = i Poisson on degree <= 2     residual 4.559e-16  tol 1e-12
pass  derivations  degree-3 counterexample separates    residual 6.667e-01  tol 1e+12
pass  derivations  D=2 special bracket table            residual 0.000e+00  tol 1e-12
pass  connections  curvature dual path                  residual 1.790e-15  tol 1e-11
pass  connections  canonical curvature values central   residual 0.000e+00  tol 1e-13
pass  connections  covariant coordinates homogeneous    residual 4.441e-16  tol 1e-10
pass  connections  curvature gauge covariant            residual 6.405e-15  tol 1e-10
pass  connections  covariant derivative covariant       residual 1.986e-15  tol 1e-10
pass  connections  action density covariant             residual 9.166e-13  tol 1e-10
pass  connections  canonical connection invariant       residual 8.951e-16  tol 1e-10
pass  connections  connection Leibniz                   residual 4.312e-16  tol 1e-11
pass  connections  F = D cov - structure terms          residual 0.000e+00  tol 1e-11
pass  graded       graded product associative           residual 4.514e-15  tol 1e-10
pass  graded       graded unit laws                     residual 0.000e+00  tol 1e-12
pass  graded       graded involution antihomomorphism   residual 0.000e+00  tol 1e-12
pass  graded       graded Jacobi on generators          residual 0.000e+00  tol 1e-12
pass  graded       graded center witness                residual 0.000e+00  tol 1e-12
pass  graded       graded commutator table              residual 0.000e+00  tol 1e-12
pass  graded       graded curvature dual path           residual 0.000e+00  tol 1e-11
pass  graded       graded canonical curvature central   residual 0.000e+00  tol 1e-13
pass  graded       phi transforms homogeneously         residual 0.000e+00  tol 1e-10
pass  graded       graded curvature gauge covariant     residual 1.172e-13  tol 1e-10
"""


def test_verify_all_residual_lines_pinned(capsys):
    assert main(["verify", "--scope", "all", "--dim", "2", "--seed", "1"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert lines == ALL_D2_SEED1.splitlines()


def test_repr_keeps_every_digit_and_parses_back():
    a = MoyalElement(S2, {((1, 0), (0.0, 0.0)): 1.0000001, ((0, 0), (0.1234567, 0.0)): 2j})
    b = MoyalElement(S2, {((1, 0), (0.0, 0.0)): 1.0000002, ((0, 0), (0.1234567, 0.0)): 2j})
    assert repr(a) != repr(b)
    for e in (a, b, MoyalElement(S2)):
        text = repr(e)
        assert text.startswith("MoyalElement(") and text.endswith(")")
        assert parse_expression(text[len("MoyalElement(") : -1], S2).terms == e.terms


def _prune_outcome(f, arg):
    try:
        return bool(f(arg))
    except Exception as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize(
    "c",
    [
        0,
        5e-324,
        -5e-324,
        1.0,
        complex(1e308, 1e308),
        complex(1.5e308, 1.5e308),
        float("inf"),
        float("nan"),
        complex(float("nan"), 1),
        complex(1, float("inf")),
    ],
)
def test_one_term_prune_agrees_with_pruned(c):
    key = ((0, 0), (0.0, 0.0))
    assert _prune_outcome(_kept, c) == _prune_outcome(_pruned, {key: c})


# ---------------------------------------------------------------------------
# replay plans of large shifted couplings
# ---------------------------------------------------------------------------

def _mask(v):
    return v and tuple(map(bool, v))


def _replayed_through_the_kernel(key):
    """``_shifted_couple``'s compute for ``key``, which plans its template on first sight."""
    return _shifted_couple.__wrapped__(*key)


_shift_component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.25]),
    st.integers(-16, 16).map(lambda n: n / 8),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _plan_cases(draw):
    D = draw(st.sampled_from([2, 4]))
    theta = draw(st.sampled_from([0.5, 1.0, 2.0, 0.3, 1.7]))
    exponents = st.tuples(*[st.integers(0, 6 if D == 2 else 2)] * D)
    shift = st.one_of(st.none(), st.tuples(*[_shift_component] * D))
    return SymplecticStructure(D, theta), draw(exponents), draw(shift), draw(exponents), draw(shift)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_plan_cases())
def test_plan_replay_matches_the_loop(case):
    s, alpha1, v, alpha2, w = case
    left, right = _shift_monomial(alpha1, v), _shift_monomial(alpha2, w)
    assert _support(alpha1, _mask(v)) == list(left)
    want = _bilinear_sum(left, right, s._planes)
    plan = _couple_plan.__wrapped__(alpha1, _mask(v), alpha2, _mask(w), s._planes)
    assert len(plan) == sum(len(_monomial_couple(b1, b2, s._planes)) for b1 in left for b2 in right)
    # same keys in the same order, same bits in both parts, -0.0 included
    assert _coupling_bits(_replay(plan, left, right)) == _coupling_bits(want)
    got = _replayed_through_the_kernel((alpha1, v, alpha2, w, s._planes))
    assert isinstance(got, _Replayed) == (len(left) * len(right) >= _PLAN_PAIRS)
    assert _coupling_bits(got) == _coupling_bits(want)
    assert len(got) == len(want)


def test_plan_cases_fall_on_both_sides_of_the_threshold():
    sizes = {D: [] for D in (2, 4)}

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_plan_cases())
    def record(case):
        s, alpha1, v, alpha2, w = case
        sizes[s.D].append(len(_shift_monomial(alpha1, v)) * len(_shift_monomial(alpha2, w)))

    record()
    for D, pairs in sizes.items():
        assert sum(p >= _PLAN_PAIRS for p in pairs) > 40, D
        assert sum(p < _PLAN_PAIRS for p in pairs) > 40, D


def _plan_exact_cases(D, theta, seed):
    """Seeded pairs with at least ``_PLAN_PAIRS`` shift-monomial pairs and dyadic shifts."""
    rng = np.random.default_rng(seed)
    s = SymplecticStructure(D, theta)
    low, high = (2, 4) if D == 2 else (0, 1)
    for _ in range(12):
        while True:
            alpha1, alpha2 = (tuple(int(a) for a in rng.integers(low, high + 1, size=D))
                              for _ in range(2))
            k1, k2 = (rng.integers(-8, 9, size=D) / 4.0 for _ in range(2))
            v = tuple(float(x) for x in -0.5 * (s.Theta @ k2))
            w = tuple(float(x) for x in 0.5 * (s.Theta @ k1))
            if len(_shift_monomial(alpha1, v)) * len(_shift_monomial(alpha2, w)) >= _PLAN_PAIRS:
                break
        yield s, alpha1, v, alpha2, w


@pytest.mark.parametrize("D", [2, 4])
@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_plan_path_is_exact_at_dyadic_theta(D, theta):
    for s, alpha1, v, alpha2, w in _plan_exact_cases(D, theta, seed=40 + D):
        got = _replayed_through_the_kernel((alpha1, v, alpha2, w, s._planes))
        assert isinstance(got, _Replayed)
        want = _exact_couple(_exact_shift(alpha1, v), _exact_shift(alpha2, w), s)
        for key in got.keys() | want.keys():
            assert got.get(key, 0j) == want.get(key, 0j)


def _overflow_outcome(a, b, fn=star):
    try:
        return _bits(fn(a, b))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "k1, k2, alpha",
    [
        # b's wave shifts x1^8 x2^8 by about 5e299: infinite shift coefficients
        ((0.0, 0.0), (1e300, 1e300), (8, 8)),
        # shift coefficients near 1e200 on both sides, whose products overflow
        ((2e50, 2e50), (2e50, 2e50), (2, 2)),
    ],
)
def test_overflowing_shift_behaves_as_on_the_loop(k1, k2, alpha, monkeypatch, capfd):
    s = SymplecticStructure(2, 1.0)
    a = MoyalElement(s, {(alpha, k1): 1.0, ((3, 0), k1): 1.0})
    b = MoyalElement(s, {(alpha, k2): 1.0})
    _couple_plan.cache_clear()
    planned = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3):
            _shifted_couple.cache_clear()  # so each product computes its couplings
            planned.append(_overflow_outcome(a, b))
    assert _couple_plan.cache_info().misses >= 1  # the first sightings planned them
    monkeypatch.setattr("moyalcalc.elements._PLAN_PAIRS", 10**9)
    _shifted_couple.cache_clear()
    looped = _overflow_outcome(a, b)
    assert looped.startswith("coefficients must be finite")
    assert planned == [looped] * 3
    assert capfd.readouterr().err == ""


def _templates(s, count):
    """Distinct large templates over ``s`` (x1^a x2^b shifted both ways, against x1^2 x2^2)."""
    out = []
    for a in range(2, 40):
        for b in range(2, 6):
            out.append(((a, b), (True, True), (2, 2), (True, True), s._planes))
            if len(out) == count:
                return out
    raise AssertionError("not enough templates")


def _check_plan_store(store):
    info = store.cache_info()
    stored = list(store.results.items())
    assert info.currsize == sum(len(plan) for _key, plan in stored)
    assert info.currsize <= info.maxsize


def test_first_large_miss_builds_its_plan_and_replays():
    s = SymplecticStructure(2, 0.3)
    alpha1, v, alpha2, w = (3, 2), (0.25, -0.75), (2, 3), (-0.5, 1.25)
    left, right = _shift_monomial(alpha1, v), _shift_monomial(alpha2, w)
    assert len(left) * len(right) >= _PLAN_PAIRS
    _couple_plan.cache_clear()
    _shifted_couple.cache_clear()
    got = _shifted_couple(alpha1, v, alpha2, w, s._planes)
    assert _couple_plan.cache_info().misses == 1
    assert isinstance(got, _Replayed)
    # same keys in the same order, same bits in both parts
    assert _coupling_bits(got) == _coupling_bits(_bilinear_sum(left, right, s._planes))


def test_plan_store_holds_its_budget_and_evicts_oldest_first():
    templates = _templates(S2, 24)
    sizes = [len(_couple_plan.__wrapped__(*t)) for t in templates]
    budget = sum(sizes[:10])
    store = _CoefficientCache(_couple_plan.__wrapped__, budget=budget)
    for t in templates:
        store(*t)
        _check_plan_store(store)
    # the survivors are the newest templates, in insertion order
    kept = list(store.results)
    assert kept == templates[len(templates) - len(kept):]
    assert sum(sizes[len(templates) - len(kept) - 1:]) > budget
    assert store.cache_info().misses == len(templates)


def test_plan_larger_than_the_budget_is_returned_but_not_stored():
    small, large = _templates(S2, 2)[0], ((30, 30), (True, True), (2, 2), (True, True), S2._planes)
    store = _CoefficientCache(_couple_plan.__wrapped__, budget=2000)
    held = store(*small)
    plan = store(*large)
    assert len(plan) > 2000
    assert list(store.results.values()) == [held]
    assert store.cache_info().misses == 2
    _check_plan_store(store)


def test_plan_store_under_racing_threads():
    # threads racing on the same large products must each get the loop's
    # bits, while the plan store fills, evicts and keeps its invariants
    def build():
        rng = np.random.default_rng(43)
        return [(random_element(rng, s, 6, 5), random_element(rng, s, 6, 5))
                for s in (SymplecticStructure(2, 0.3), SymplecticStructure(4, 1.0))
                for _ in range(2)]

    _couple_plan.cache_clear()
    _shifted_couple.cache_clear()
    want = [_bits(star(a, b)) for a, b in build()]
    n = (os.cpu_count() or 1) + 2
    results = [None] * n

    def work(i):
        out = []
        for _ in range(4):  # later rounds replay the plans the first ones built
            _shifted_couple.cache_clear()
            out.append([_bits(star(a, b)) for a, b in build()])
        results[i] = out

    _couple_plan.cache_clear()
    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[want] * 4] * n
    assert _couple_plan.cache_info().hits > 0
    _check_plan_store(_couple_plan)


def test_underflowing_products_keep_the_loops_bits_whatever_numpys_settings():
    # shifts of 2^-600 make shift coefficients whose products underflow; the
    # loop's Python floats raise nothing, so neither may the replay: numpy set
    # to raise sends the coupling back to the loop
    s = SymplecticStructure(2, 1.0)
    v = w = (2.0**-600, -(2.0**-600))
    key = ((3, 3), v, (3, 3), w, s._planes)
    want = _coupling_bits(_bilinear_sum(_shift_monomial((3, 3), v), _shift_monomial((3, 3), w),
                                        s._planes))
    _couple_plan.cache_clear()
    got = _replayed_through_the_kernel(key)
    assert isinstance(got, _Replayed)
    assert _coupling_bits(got) == want
    with np.errstate(all="raise"):
        assert _coupling_bits(_shifted_couple.__wrapped__(*key)) == want


# ---------------------------------------------------------------------------
# the batched merge of large products
# ---------------------------------------------------------------------------

def _looped(fn, *args):
    """``fn(*args)`` with every product on the pair loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("moyalcalc.elements._BATCH_PAIRS", 10**9)
        return fn(*args)


@st.composite
def _products_near_the_threshold(draw):
    """Two elements and whether their pair count reaches ``_BATCH_PAIRS``.

    Coefficients stay clear of the prune and waves on a grid coarser than
    the snapping one, so no term is dropped or merged and the drawn sizes
    decide the side: at least 14 x 14 or at most 11 x 11 pairs.
    """
    D = draw(st.sampled_from([2, 4]))
    s = SymplecticStructure(D, draw(st.sampled_from([0.5, 1.0, 0.3, 1.7])))
    alpha = st.tuples(*[st.integers(0, 4 if D == 2 else 2)] * D)
    k = st.one_of(st.just((0.0,) * D),
                  st.tuples(*[st.integers(-8, 8).map(lambda n: n / 4)] * D),
                  st.tuples(*[st.integers(-999, 999).map(lambda n: n / 499)] * D))
    part = st.floats(-4.0, 4.0)
    coeff = st.builds(complex, part, part).filter(lambda c: abs(c) > 1e-3)
    big = draw(st.booleans())
    sizes = st.integers(14, 24) if big else st.integers(1, 11)

    def element():
        size = draw(sizes)
        return MoyalElement(s, draw(st.dictionaries(st.tuples(alpha, k), coeff,
                                                    min_size=size, max_size=size)))

    return element(), element(), big


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_products_near_the_threshold())
def test_batched_merge_matches_the_loop(case):
    a, b, big = case
    assert (len(a.terms) * len(b.terms) >= _BATCH_PAIRS) == big
    for fn in (star, commutator, anticommutator):
        assert _overflow_outcome(a, b, fn) == _looped(_overflow_outcome, a, b, fn)
    if big:
        # the batched merge hands over its terms already sorted
        raw = _star_terms(a.kernel(), b.kernel(), a.structure)
        assert list(raw) == sorted(raw)


def _seeded_large_pairs(seed, count):
    """``count`` seeded pairs per structure with at least ``_BATCH_PAIRS`` term pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for s in (SymplecticStructure(2, 0.3), SymplecticStructure(4, 1.0)):
        pairs = []
        while len(pairs) < count:
            a, b = random_element(rng, s, 20, 3), random_element(rng, s, 20, 3)
            if len(a.terms) * len(b.terms) >= _BATCH_PAIRS:
                pairs.append((a, b))
        out += pairs
    return out


def test_batched_sums_carry_across_chunk_boundaries(monkeypatch):
    pairs = _seeded_large_pairs(50, count=3)
    want = _looped(_star_and_commutator, pairs)
    monkeypatch.setattr("moyalcalc.elements._BATCH_CHUNK", 7)
    assert _star_and_commutator(pairs) == want


@pytest.mark.parametrize(
    "k1, k2, alpha",
    [((0.0, 0.0), (1e300, 1e300), (8, 8)), ((2e50, 2e50), (2e50, 2e50), (2, 2))],
)
def test_overflowing_batched_products_behave_as_on_the_loop(k1, k2, alpha, monkeypatch, capfd):
    # the overflow cases of the plan path, merged by the batched path; pytest
    # turns warnings into errors, so numpy may not warn either
    s = SymplecticStructure(2, 1.0)
    a = MoyalElement(s, {(alpha, k1): 1.0, ((3, 0), k1): 1.0})
    b = MoyalElement(s, {(alpha, k2): 1.0})
    _shifted_couple.cache_clear()
    looped = _looped(_overflow_outcome, a, b)
    assert looped.startswith("coefficients must be finite")
    monkeypatch.setattr("moyalcalc.elements._BATCH_PAIRS", 1)
    for _ in range(2):
        _shifted_couple.cache_clear()
        assert _overflow_outcome(a, b) == looped
    assert capfd.readouterr().err == ""


def test_batched_merge_keeps_the_loops_bits_whatever_numpys_settings(monkeypatch):
    # tiny and huge coefficients whose contributions underflow and overflow
    pairs = _seeded_large_pairs(51, count=2)
    pairs += [(2.0**-600 * a, 2.0**-500 * b) for a, b in pairs]
    pairs += [(1e300 * a, 1e10 * b) for a, b in pairs[:2]]
    want = [_looped(_overflow_outcome, a, b, fn) for a, b in pairs for fn in (star, commutator)]
    assert any(isinstance(w, str) for w in want)  # some overflow
    with np.errstate(all="raise"):
        assert [_overflow_outcome(a, b, fn) for a, b in pairs for fn in (star, commutator)] == want


def _check_alpha_ids(current=True):
    """Every stored plan's ids name its keys in the table it holds, the current
    one unless a racing thread replaced it while the plan was built."""
    for plan in _couple_plan.results.values():
        assert [plan.table.tuples[n] for n in plan.ids.tolist()] == list(plan.keys)
        assert plan.table is kernel._alpha_ids or not current


def _star_and_commutator(pairs):
    return [_bits(fn(a, b)) for a, b in pairs for fn in (star, commutator)]


def test_clearing_the_alpha_ids_drops_the_plans_with_them(monkeypatch):
    pairs = _seeded_large_pairs(52, count=2)
    want = _looped(_star_and_commutator, pairs)
    _couple_plan.cache_clear()
    _shifted_couple.cache_clear()
    assert _star_and_commutator(pairs) == want
    _check_alpha_ids()
    plans = list(_couple_plan.results.values())
    assert plans
    # a table over its bound is replaced on the next coupling miss
    old_table = kernel._alpha_ids
    monkeypatch.setattr("moyalcalc.elements._ALPHAS_MAX", len(old_table) - 1)
    _monomial_couple.cache_clear()
    _monomial_couple((1, 0), (0, 1), S2._planes)
    assert kernel._alpha_ids is not old_table
    assert not _couple_plan.results
    # the coupling store still holds replays of the old table's plans; with
    # the table replaced again and again the bits stay the loop's
    monkeypatch.setattr("moyalcalc.elements._ALPHAS_MAX", 40)
    _monomial_couple.cache_clear()
    assert _star_and_commutator(pairs) == want
    assert not any(plan in plans for plan in _couple_plan.results.values())
    _check_alpha_ids()
    _shifted_couple.cache_clear()
    _couple_plan.cache_clear()
    assert _star_and_commutator(pairs) == want
    _check_alpha_ids()


def test_batched_merge_under_racing_threads(monkeypatch):
    # threads racing on large products, while the alpha-id table is replaced
    # on many coupling misses, must each get the loop's bits
    pairs = _seeded_large_pairs(53, count=2)
    want = _looped(lambda: [_bits(star(a, b)) for a, b in pairs])
    monkeypatch.setattr("moyalcalc.elements._ALPHAS_MAX", 200)
    n = (os.cpu_count() or 1) + 2
    results = [None] * n

    def work(i):
        out = []
        for _ in range(3):
            _monomial_couple.cache_clear()
            _shifted_couple.cache_clear()
            out.append([_bits(star(a, b)) for a, b in pairs])
        results[i] = out

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[want] * 3] * n
    _check_alpha_ids(current=False)
