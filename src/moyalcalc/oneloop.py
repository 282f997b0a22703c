"""One-loop vacuum polarisation: vertices, integrands, master integrals, IR fit.

Euclidean throughout.  The wedge is p^k = p_mu Theta_{mu nu} k_nu and
ptilde_mu = Theta_{mu nu} p_nu, so the loop phase obeys cos(p^k) = cos(k.pt).

Master integrals (m > 0, pt = |ptilde|):

    J_N        = a_{N,D} M_{N-D/2}(m pt),
    J_{N,munu} = a_{N,D} (delta_{munu} M_{N-1-D/2} - pt_mu pt_nu M_{N-2-D/2}),

with a_{N,D} = 2^{-(D/2+N-1)} / (Gamma(N) pi^{D/2}) and
M_Q(z) = z^Q K_Q(z) / m^{2Q}.  For Q > 0, M_{-Q}(m pt) -> 2^{Q-1} Gamma(Q) /
pt^{2Q} as m pt -> 0, exactly reproducing the massless integrals.

The five polarisation integrands are implemented verbatim; their nonplanar
parts replace sin^2(p^k / 2) -> -cos(p^k)/2, are Feynman-parametrised, and
reduce to the master integrals.  Each nonplanar tensor decomposes exactly as

    delta_coefficient * I  +  pp_coefficient * p p  +  ptpt_coefficient * pt pt.

The tadpoles (diagrams 3, 5) are closed forms.  Each bubble (1, 2, 4) is
defined once, by its shifted numerator in the table ``_shifted_numerator``;
one Feynman-parameter routine derives all three structures from it.

The displayed integrands carry no combinatorial loop factors.  Summing them
verbatim does not reproduce the quoted IR singularity; the standard one-loop
bookkeeping does, and is fixed by demanding both the quoted coefficient
(D + N_higgs - 2) Gamma(D/2) / pi^{D/2} and the cancellation of the leading
delta_{mu nu} singularity (transversality):

    LOOP_WEIGHTS = (1/2, -1, -1/2, 1/2, 1)

i.e. Bose symmetry factors 1/2 for the two bubbles, the ghost-loop sign -1,
and -1/2 for the gauge tadpole.  These weights enter only the summed IR fit;
``omega_nonplanar`` itself returns the verbatim per-diagram values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from .structure import SymplecticStructure

__all__ = [
    "LoopConfig",
    "LoopResult",
    "LOOP_WEIGHTS",
    "wedge",
    "vertex_3g",
    "vertex_4g",
    "vertex_ghost",
    "vertex_gauge_higgs",
    "seagull",
    "vertex_3h",
    "vertex_4h",
    "omega_integrand",
    "bessel_m",
    "master_j",
    "master_j_tensor",
    "nonplanar_structures",
    "omega_nonplanar",
    "ir_coefficient",
    "ir_target",
    "ir_unit",
    "delta_residual_profile",
]

# relative one-loop weights of (omega1..omega5); see module docstring
LOOP_WEIGHTS = (0.5, -1.0, -0.5, 0.5, 1.0)


@dataclass(frozen=True)
class LoopConfig:
    """Dimension, deformation, field content and external momentum."""

    D: int
    theta: float = 1.0
    n_higgs: int = None
    mu_mass: float = 1.0
    p: tuple = None
    ir_regulator: float = 0.0

    def __post_init__(self):
        if self.D not in (2, 4):
            raise ValueError("supported dimensions are D in {2, 4}")
        if not 0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if not 0 <= self.mu_mass < math.inf:
            raise ValueError("mu_mass must be nonnegative and finite")
        if not 0 <= self.ir_regulator < math.inf:
            raise ValueError("ir_regulator must be nonnegative and finite")
        if self.n_higgs is None:
            object.__setattr__(self, "n_higgs", self.D * (self.D + 1) // 2)
        # x // 1 is NaN for an infinite or NaN count, so those fail too
        if not (self.n_higgs >= 0 and self.n_higgs == self.n_higgs // 1):
            raise ValueError(f"n_higgs must be a nonnegative integer, got {self.n_higgs}")
        if self.p is not None:
            p = tuple(float(x) for x in self.p)
            if len(p) != self.D:
                raise ValueError(f"external momentum must have length {self.D}")
            # the loop masses take |p|^2, which must stay in float range
            if not math.isfinite(sum(x * x for x in p)):
                raise ValueError(f"external momentum p = {p} must have a finite |p|^2")
            object.__setattr__(self, "p", p)

    @cached_property
    def structure(self) -> SymplecticStructure:
        return SymplecticStructure(self.D, self.theta)

    def ptilde(self) -> np.ndarray:
        if self.p is None:
            raise ValueError("no external momentum configured")
        return self.structure.ptilde(np.asarray(self.p))


@dataclass(frozen=True)
class LoopResult:
    """A numeric loop value with an error estimate and provenance tag."""

    value: object  # complex scalar or ndarray
    abs_error: float
    method: str  # closed_form_bessel | small_p_fit
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.abs_error < 0:
            raise ValueError("abs_error must be nonnegative")


def wedge(p, k, s: SymplecticStructure) -> float:
    """p^k = p_mu Theta_{mu nu} k_nu."""
    return s.wedge(p, k)


# ---------------------------------------------------------------------------
# vertex functions (all momenta incoming; the omitted last momentum is
# completed by momentum conservation)
# ---------------------------------------------------------------------------

def _complete(cfg, ks, indices=()):
    """The momenta ``ks`` as arrays, an omitted (None) one completed so they sum to zero.

    Momenta of the wrong length, or more than one omitted, raise ``ValueError``;
    then a spacetime index in ``indices`` outside 1..D raises ``IndexError``.
    """
    ks = [None if k is None else np.asarray(k, dtype=float) for k in ks]
    missing = [i for i, k in enumerate(ks) if k is None]
    if len(missing) > 1:
        raise ValueError("at most one momentum may be omitted")
    if missing:
        total = -sum(k for k in ks if k is not None)
        ks[missing[0]] = total
    for k in ks:
        if k.shape != (cfg.D,):
            raise ValueError(f"momenta must have length {cfg.D}")
    for idx in indices:
        cfg.structure.check_index(idx)
    return ks


def _sin_half_wedge(cfg, a, b):
    return math.sin(0.5 * cfg.structure.wedge(a, b))


def vertex_3g(cfg, k1, k2, k3, alpha, beta, gamma) -> complex:
    """Three-gauge vertex."""
    k1, k2, k3 = _complete(cfg, (k1, k2, k3), (alpha, beta, gamma))
    a, b, g = alpha - 1, beta - 1, gamma - 1
    bracket = (
        (k2 - k1)[g] * (a == b)
        + (k1 - k3)[b] * (a == g)
        + (k3 - k2)[a] * (b == g)
    )
    return -2j * _sin_half_wedge(cfg, k1, k2) * bracket


def _quartic_sin_sum(cfg, k1, k2, k3, k4, a, b, c, d):
    """The sin . sin skeleton shared by the quartic vertices, for indices a, b, c, d."""
    sw = lambda x, y: _sin_half_wedge(cfg, x, y)
    return (
        ((a == c) * (b == d) - (a == d) * (b == c)) * sw(k1, k2) * sw(k3, k4)
        + ((a == b) * (c == d) - (a == c) * (b == d)) * sw(k1, k4) * sw(k2, k3)
        + ((a == d) * (b == c) - (a == b) * (c == d)) * sw(k3, k1) * sw(k2, k4)
    )


def vertex_4g(cfg, k1, k2, k3, k4, alpha, beta, gamma, delta) -> complex:
    """Four-gauge vertex."""
    k1, k2, k3, k4 = _complete(cfg, (k1, k2, k3, k4), (alpha, beta, gamma, delta))
    return -4.0 * _quartic_sin_sum(cfg, k1, k2, k3, k4, alpha, beta, gamma, delta)


def vertex_ghost(cfg, k1, k2, k3, mu) -> complex:
    """Gauge boson-ghost vertex: i 2 k1_mu sin(k2^k3 / 2)."""
    k1, k2, k3 = _complete(cfg, (k1, k2, k3), (mu,))
    return 2j * k1[mu - 1] * _sin_half_wedge(cfg, k2, k3)


def vertex_gauge_higgs(cfg, k1, k2, k3, a, b, mu) -> complex:
    """Gauge boson-Higgs vertex: i delta_ab (k1 - k2)_mu sin(k2^k3 / 2)."""
    k1, k2, k3 = _complete(cfg, (k1, k2, k3), (mu,))
    if a != b:
        return 0j
    return 1j * (k1 - k2)[mu - 1] * _sin_half_wedge(cfg, k2, k3)


def seagull(cfg, k1, k2, k3, k4, a, b, alpha, beta) -> complex:
    """Two-gauge two-Higgs seagull vertex."""
    k1, k2, k3, k4 = _complete(cfg, (k1, k2, k3, k4), (alpha, beta))
    if alpha != beta or a != b:
        return 0j
    w = cfg.structure.wedge
    val = math.cos(0.5 * (w(k3, k1) + w(k4, k2))) - math.cos(
        0.5 * w(k1, k2)
    ) * math.cos(0.5 * w(k3, k4))
    return -2.0 * val + 0j


def vertex_3h(cfg, k1, k2, k3, a, b, c, C) -> complex:
    """Three-Higgs vertex with caller-supplied structure constants C[a][b][c]."""
    k1, k2, k3 = _complete(cfg, (k1, k2, k3))
    return 1j * C[a][b][c] * _sin_half_wedge(cfg, k1, k2)


def vertex_4h(cfg, k1, k2, k3, k4, a, b, c, d) -> complex:
    """Four-Higgs vertex."""
    k1, k2, k3, k4 = _complete(cfg, (k1, k2, k3, k4))
    return 4.0 * _quartic_sin_sum(cfg, k1, k2, k3, k4, a, b, c, d)


# ---------------------------------------------------------------------------
# the five polarisation integrands, verbatim
# ---------------------------------------------------------------------------

def omega_integrand(i: int, k, cfg: LoopConfig) -> np.ndarray:
    """The D x D integrand tensor of omega_i at loop momentum k."""
    if i not in (1, 2, 3, 4, 5):
        raise ValueError("diagram index must be in 1..5")
    if cfg.p is None:
        raise ValueError("the integrand needs an external momentum in the config")
    k = np.asarray(k, dtype=float)
    p = np.asarray(cfg.p)
    D = cfg.D
    s = cfg.structure
    sin2 = math.sin(0.5 * s.wedge(p, k)) ** 2
    delta = np.eye(D)
    mu2 = cfg.mu_mass**2
    NH = cfg.n_higgs
    k2 = float(k @ k)
    pk2 = float((p + k) @ (p + k))
    if i == 1:
        num = (
            (float((k - p) @ (k - p)) + float((k + 2 * p) @ (k + 2 * p))) * delta
            + (D - 6) * np.outer(p, p)
            + (2 * D - 3) * (np.outer(p, k) + np.outer(k, p))
            + (4 * D - 6) * np.outer(k, k)
        )
        return 4.0 * sin2 / (k2 * pk2) * num
    if i == 2:
        return 4.0 * sin2 / (k2 * pk2) * np.outer(k, k)
    if i == 3:
        return 8.0 * (D - 1) * sin2 / k2 * delta
    if i == 4:
        v = p + 2 * k
        return 4.0 * NH * sin2 / ((k2 + mu2) * (pk2 + mu2)) * np.outer(v, v)
    return -4.0 * NH * sin2 / (k2 + mu2) * delta


# ---------------------------------------------------------------------------
# Bessel masters
# ---------------------------------------------------------------------------

def bessel_m(Q: float, m: float, x: float) -> float:
    """M_Q(m x) = (m x)^Q K_Q(m x) / m^{2Q}; K_{-Q} = K_Q by construction.

    For Q < 0 the massless limit 2^{|Q|-1} Gamma(|Q|) / x^{2|Q|} is returned
    when m = 0.  A mass outside [0, inf), a radius outside (0, inf) and a
    power out of float range (m^{2Q} underflowing to zero, (m x)^Q
    overflowing) raise ``ValueError``.
    """
    # float literals keep both tests on the interpreter's float fast path
    if not (x > 0.0 and x < math.inf):
        raise ValueError(f"the Fourier radius must be positive and finite, got {x}")
    if not (m >= 0.0 and m < math.inf):
        raise ValueError(f"mass must be nonnegative and finite, got {m}")
    if m == 0.0:
        if Q >= 0:
            raise ValueError("massless M_Q needs Q < 0")
        Qa = -Q
        return 2.0 ** (Qa - 1) * gamma_fn(Qa) / x ** (2 * Qa)
    z = m * x
    try:
        return z**Q * float(kv(abs(Q), z)) / m ** (2 * Q)
    except (ZeroDivisionError, OverflowError) as exc:
        # for a tiny mass m^(2Q) underflows to zero, or (m x)^Q overflows
        raise ValueError(f"M_{Q} is out of float range at mass {m}") from exc


def _a_nd(N: int, D: int) -> float:
    return 2.0 ** (-(D / 2.0 + N - 1)) / (gamma_fn(N) * math.pi ** (D / 2.0))


def _master_args(N: int, ptilde):
    """ptilde as an array and its norm, after checking N >= 1 and ptilde != 0."""
    ptv = np.asarray(ptilde, dtype=float)
    pt = float(np.linalg.norm(ptv))
    if N < 1:
        raise ValueError("N must be >= 1")
    if pt <= 0:
        raise ValueError("ptilde must be nonzero")
    return ptv, pt


def master_j(N: int, cfg: LoopConfig, m: float, ptilde) -> LoopResult:
    """J_N(ptilde) = int d^Dk e^{ik.pt} / (2pi)^D (k^2+m^2)^N, closed form."""
    _ptv, pt = _master_args(N, ptilde)
    D = cfg.D
    if m == 0.0 and N - D / 2.0 >= 0:
        raise ValueError("the massless closed form needs N < D/2")
    val = _a_nd(N, D) * bessel_m(N - D / 2.0, m, pt)
    return LoopResult(value=val, abs_error=1e-12 * abs(val), method="closed_form_bessel")


def master_j_tensor(N: int, cfg: LoopConfig, m: float, ptilde) -> LoopResult:
    """J_{N,munu} as the D x D matrix delta*A - ptpt*B (closed form)."""
    ptv, pt = _master_args(N, ptilde)
    D = cfg.D
    A = _a_nd(N, D) * bessel_m(N - 1 - D / 2.0, m, pt)
    B = _a_nd(N, D) * bessel_m(N - 2 - D / 2.0, m, pt)
    val = A * np.eye(D) - B * np.outer(ptv, ptv)
    return LoopResult(
        value=val,
        abs_error=1e-12 * float(np.max(np.abs(val))),
        method="closed_form_bessel",
        extras={"delta_coeff": A, "ptpt_coeff": -B},
    )


# ---------------------------------------------------------------------------
# nonplanar parts by Feynman parametrisation
# ---------------------------------------------------------------------------

_QUAD_OPTS = dict(epsabs=1e-8, epsrel=1e-10, limit=200)


def _shifted_numerator(i: int, D: int, n_higgs: int):
    """The even-in-q numerator of bubble diagram i (1, 2 or 4) after k = q - (1-x) p.

    Returns (c_qq, coeffs): c_qq multiplies q_mu q_nu and does not depend on
    x; coeffs(x) gives the coefficients of q^2 delta, p^2 delta and p_mu p_nu.
    The verbatim prefactor 4 is divided out, so diagram 4 carries N_higgs.
    This is the one place each bubble is defined: the delta, pp and ptpt
    integrands of ``_structures`` are all derived from it.
    """
    if i == 1:
        def coeffs(x):
            c = 1.0 - x
            return (
                2.0,
                (c + 1.0) ** 2 + (2.0 - c) ** 2,
                (D - 6.0) - 2.0 * c * (2.0 * D - 3.0) + c * c * (4.0 * D - 6.0),
            )

        return 4.0 * D - 6.0, coeffs
    if i == 2:
        return 1.0, lambda x: (0.0, 0.0, (1.0 - x) ** 2)
    return 4.0 * n_higgs, lambda x: (0.0, 0.0, n_higgs * (2.0 * x - 1.0) ** 2)


def _structures(i: int, cfg: LoopConfig, names: tuple) -> dict:
    """(value, error) of the named structures ("delta", "pp", "ptpt") of omega_i.

    The mass rule: the gauge loops (1-3) carry ir_regulator, the Higgs loops
    (4, 5) mu_mass.  The tadpoles (3, 5) are closed forms with a delta part
    only.  A bubble's structures are Feynman-parameter integrals of its
    shifted numerator: with sin^2 -> -cos/2 each q^2, p^2, pp or qq term
    becomes -2 times its coefficient times a J_1 or J_2 master at mass m(x),
    and the qq term gives J_{2,munu}, whose ptpt part is 2 c_qq a_{2,D}
    M_{-D/2}.  Asking for delta or pp where the massless D = 2 loop diverges
    raises; ptpt alone is finite for every diagram and dimension.  A ptpt
    integral whose every sample underflows to zero (loop masses near 1e148 at
    theta 1e-150) raises ``ValueError`` instead of reading as a zero.
    """
    D = cfg.D
    base2 = cfg.mu_mass**2 if i in (4, 5) else cfg.ir_regulator**2
    if names != ("ptpt",) and D == 2 and base2 == 0.0 and (i != 4 or cfg.n_higgs > 0):
        knob = "mu_mass" if i in (4, 5) else "ir_regulator"
        raise ValueError(
            f"omega{i} is infrared divergent for a massless D = 2 loop; "
            f"set {knob} or use the ptpt projection only"
        )
    out = dict.fromkeys(names, (0.0, 0.0))
    if i in (3, 5) and "delta" not in names:
        return out
    p = np.asarray(cfg.p)
    p2 = float(p @ p)
    pt = float(np.linalg.norm(cfg.ptilde()))
    if i in (3, 5):
        coef = -4.0 * (D - 1) if i == 3 else 2.0 * cfg.n_higgs
        val = coef * _a_nd(1, D) * bessel_m(1 - D / 2.0, math.sqrt(base2), pt)
        out["delta"] = (val, 1e-12 * abs(val))
        return out

    c_qq, coeffs = _shifted_numerator(i, D, cfg.n_higgs)
    a1, a2 = _a_nd(1, D), _a_nd(2, D)

    def delta(x):
        c_q2, c_p2, _c_pp = coeffs(x)
        m2 = base2 + x * (1.0 - x) * p2
        m = math.sqrt(m2)
        b1 = bessel_m(1 - D / 2.0, m, pt)
        j2 = a2 * bessel_m(2 - D / 2.0, m, pt)
        return -2.0 * (c_q2 * (a1 * b1 - m2 * j2) + c_p2 * p2 * j2 + c_qq * (a2 * b1))

    def pp(x):
        m = math.sqrt(base2 + x * (1.0 - x) * p2)
        return -2.0 * coeffs(x)[2] * (a2 * bessel_m(2 - D / 2.0, m, pt))

    ptpt_coef = 2.0 * c_qq * a2

    def ptpt(x):
        m = math.sqrt(base2 + x * (1.0 - x) * p2)
        return ptpt_coef * bessel_m(-D / 2.0, m, pt)

    kernels = {"delta": delta, "pp": pp, "ptpt": ptpt}
    for name in names:
        val, err = integrate.quad(kernels[name], 0.0, 1.0, **_QUAD_OPTS)
        # M_{-D/2} > 0, so the exact ptpt integral is nonzero; a zero means
        # every sample underflowed, where a tail that stays in range would not
        if name == "ptpt" and val == 0.0 and ptpt_coef != 0.0:
            raise ValueError(
                f"the ptpt integral of omega{i} underflows to zero at |ptilde| = {pt:.3g} "
                f"(M_{-D / 2.0:g} of loop masses up to {math.sqrt(base2 + p2 / 4):.3g})"
            )
        out[name] = (val, err)
    return out


def nonplanar_structures(i: int, cfg: LoopConfig) -> dict:
    """Structure coefficients of the verbatim nonplanar part of omega_i.

    Returns {"delta": (value, err), "pp": ..., "ptpt": ...} such that the
    tensor is delta*I + pp * p p + ptpt * pt pt.  The Feynman-parameter
    integrals are evaluated adaptively; entries that are infrared divergent
    raise: the massless D = 2 gauge integrals (diagrams 1-3) when no regulator
    is set, and the D = 2 Higgs loops (diagrams 4, 5) when mu_mass is 0.
    """
    if i not in (1, 2, 3, 4, 5):
        raise ValueError("diagram index must be in 1..5")
    if cfg.p is None or not np.any(np.asarray(cfg.p)):
        raise ValueError("nonplanar extraction needs a nonzero external momentum")
    return _structures(i, cfg, ("delta", "pp", "ptpt"))


def omega_nonplanar(i: int, cfg: LoopConfig) -> LoopResult:
    """Verbatim nonplanar tensor of omega_i assembled from its structures."""
    structures = nonplanar_structures(i, cfg)
    D = cfg.D
    p = np.asarray(cfg.p)
    ptv = cfg.ptilde()
    val = (
        structures["delta"][0] * np.eye(D)
        + structures["pp"][0] * np.outer(p, p)
        + structures["ptpt"][0] * np.outer(ptv, ptv)
    )
    err = sum(e for _v, e in structures.values())
    return LoopResult(
        value=val,
        abs_error=float(err),
        method="closed_form_bessel",
        extras={"structures": structures},
    )


def ir_target(D: int, n_higgs: int) -> float:
    """(D + N - 2) Gamma(D/2) / pi^{D/2}, the quoted IR coefficient."""
    return (D + n_higgs - 2) * gamma_fn(D / 2.0) / math.pi ** (D / 2.0)


def ir_unit(D: int) -> float:
    """Gamma(D/2) / pi^{D/2}: one unit of D + N - 2 in ``ir_target``.

    No nonzero target is smaller, so it is the scale for judging a fit
    against the zero target of D=2, N=0.
    """
    return gamma_fn(D / 2.0) / math.pi ** (D / 2.0)


def _weighted_sum(cfg: LoopConfig, p, name: str) -> tuple:
    """(|ptilde|, sum_i w_i s_i, sum_i |w_i| err_i) of structure ``name`` at momentum p."""
    c = replace(cfg, p=tuple(np.asarray(p, dtype=float)))
    pt = float(np.linalg.norm(c.ptilde()))
    if pt <= 0:
        raise ValueError("nonplanar extraction needs a nonzero external momentum")
    total = 0.0
    err = 0.0
    for i, w in zip(range(1, 6), LOOP_WEIGHTS):
        v, e = _structures(i, c, (name,))[name]
        total += w * v
        err += abs(w) * e
    return pt, total, err


def ir_coefficient(cfg: LoopConfig, p_values) -> LoopResult:
    """Fit the coefficient of pt_mu pt_nu / (pt^2)^{D/2} over small momenta.

    Sums the five nonplanar ptpt projections with LOOP_WEIGHTS, multiplies by
    (pt^2)^{D/2} and fits a constant by least squares over the supplied
    momenta.  Requires >= 4 momenta whose |ptilde| span close to a decade with
    |ptilde| * mu <= 0.1.
    """
    p_values = [np.asarray(p, dtype=float) for p in p_values]
    if any(p.shape != (cfg.D,) for p in p_values):
        raise ValueError(f"momenta must have length {cfg.D}")
    s = cfg.structure
    pts = sorted({round(float(np.linalg.norm(s.ptilde(p))), 15) for p in p_values})
    if len(pts) < 4:
        raise ValueError("need at least 4 momenta with distinct |ptilde|")
    if pts[0] <= 0:
        raise ValueError("momenta must be nonzero")
    if pts[-1] / pts[0] < 8.0:
        raise ValueError("|ptilde| values must span close to a decade")
    if cfg.mu_mass > 0 and pts[-1] * cfg.mu_mass > 0.1 + 1e-12:
        raise ValueError("fit window violates |ptilde| * mu <= 0.1")

    rows = []
    for p in p_values:
        pt, total, err = _weighted_sum(cfg, p, "ptpt")
        rows.append((pt, total * pt**cfg.D, err * pt**cfg.D))
    rows.sort()
    ys = np.array([y for _pt, y, _e in rows])
    c_fit = float(np.mean(ys))
    residual = float(np.sqrt(np.mean((ys - c_fit) ** 2)))
    return LoopResult(
        value=c_fit,
        abs_error=residual,
        method="small_p_fit",
        extras={
            "points": rows,
            "target": ir_target(cfg.D, cfg.n_higgs),
        },
    )


def delta_residual_profile(cfg: LoopConfig, p_values) -> list:
    """Transversality diagnostic: weighted delta coefficient, normalised.

    Returns (|ptilde|, |sum_i w_i delta_i| * pt^{D-2}) rows; the profile must
    decrease toward small momenta if the leading IR singularity is purely
    transverse (pt pt shaped).
    """
    rows = []
    for p in p_values:
        pt, total, _err = _weighted_sum(cfg, p, "delta")
        rows.append((pt, abs(total) * pt ** (cfg.D - 2)))
    rows.sort()
    return rows
