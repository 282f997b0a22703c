"""Exact star-product arithmetic on polynomial x plane-wave combinations.

An element is a finite sum

    a(x) = sum_j  c_j  x^{alpha_j}  e^{i k_j . x}

stored as a mapping (alpha, k) -> c with alpha a multi-index of monomial
exponents and k a real wave vector.  On this carrier the asymptotic expansion
of the star product terminates, so every operation below is exact up to
floating point roundoff.

The product of two terms factorises into four commuting pieces:

  (i)   the scalar BCH phase  exp(-i/2 k1.Theta.k2),
  (ii)  an argument shift  exp(v . d)  acting on x^{alpha1} with
        v = -Theta k2 / 2,
  (iii) an argument shift  exp(w . d)  acting on x^{alpha2} with
        w = +Theta k1 / 2,
  (iv)  the monomial-monomial coupling
        exp(i/2 Theta^{mu nu} d_mu^(1) d_nu^(2)),

and the result carries the wave vector k1 + k2.  The term-pair kernel
``_star_terms`` evaluates them as follows:

  * the shifts are closed forms, exp(v . d) x^alpha = prod_mu sum_j
    C(alpha_mu, j) v_mu^(alpha_mu - j) x_mu^j;
  * Theta = theta diag(J, ..., J) is block diagonal, so the coupling (iv) is
    a product of one factor per symplectic 2-plane.  Within a plane, order n
    lands on a single monomial with coefficient (i Theta_12 / 2)^n times an
    integer, so each coefficient of a monomial pair is rounded once from
    exact integers: it is exact at dyadic theta and correctly rounded
    otherwise.  A coefficient beyond the float range raises ``ValueError``
    ("coefficients must be finite").  The coupling of shifted monomials is
    the bilinear sum of these over the monomials of the two shifts;
  * couplings are pure functions of (alpha1, v, alpha2, w, Theta), so they
    come from two bounded process-wide caches: ``_monomial_couple`` (1024
    entries) when neither side is shifted and ``_shifted_couple`` otherwise.
    The latter is bounded by the coefficients it holds (16,384, about 2 MB),
    evicts its oldest results first and never stores a result larger than
    that, so the generic curvature path finds the couplings the closed path
    computed.  A miss of it takes its two shift expansions from a third,
    ``_cached_shift`` (256 entries).  Cached results are shared and
    read-only;
  * a shifted coupling with at least ``_PLAN_PAIRS`` (16) pairs of shift
    monomials is replayed from a numpy plan of its template (the exponents,
    which shift components are nonzero, and Theta), built the first time
    the template is seen: an outer product of the shift coefficients, one
    float multiply per contribution and a bincount per output slot, the
    loop's IEEE operations in the loop's order, so the bits and the key
    order are the loop's (``_replay`` gives the argument).  Plans are kept by
    ``_couple_plan``, a store like ``_shifted_couple``'s bounded by the
    contributions they hold (131,072), with the narrowest exact dtypes; a
    product that could overflow runs the loop;
  * a product of at least ``_BATCH_PAIRS`` (128) term pairs merges its
    contributions with numpy (``_BatchedMerge``) instead of adding them to
    the dict one by one.  The pairs still run in the loop's order; each
    contribution is the split-form product, the IEEE operations of CPython's
    complex multiply, and ``np.add.at`` adds each output slot's
    contributions in that order from 0.0, so every sum has the loop's bits.
    Contributions are gathered in chunks of about ``_BATCH_CHUNK`` (8192),
    which bounds the transient arrays, and the sums carry over from chunk
    to chunk.  The result comes back in sorted (alpha, k) order, so the
    final sort runs over sorted input;
  * wave components below 8192 are snapped to a 2^-40 grid.  A sum of two
    snapped components is exact while it stays below 8192 (at most 53
    significant bits) and is not snapped above, so k1 + k2 needs no
    re-quantising; a sum with a larger operand component is re-quantised;
  * the per-term parts (has a wave, has a monomial, both shift tuples) are
    computed once per element, on its first product, and kept with it
    (``MoyalElement.kernel``), so neither a later product nor the second
    order of a bracket recomputes them;
  * the phase is k1.Theta.k2 = sum over planes of Theta_ij (k1_i k2_j -
    k1_j k2_i), antisymmetric term by term, so k.Theta.k is exactly 0 and
    e^{-ik.x} * e^{ik.x} is exactly the unit.

``star`` returns the empty element when either operand has no terms, after
the structure check.  ``commutator`` and ``anticommutator`` prune the two
products exactly as ``star`` does and combine them key by key exactly as
``-`` and ``+`` do, without building the two intermediate elements.

Coefficients below ``PRUNE_REL`` times the largest modulus in an element are
dropped after every operation; term iteration is in lexicographic (alpha, k)
order so all reductions are deterministic.  Monomial exponents must be
nonnegative integers and wave vector components finite: a fractional or
negative exponent, or an infinite or NaN component (given or reached by a
wave sum that overflows), raises ``ValueError``.
"""

from __future__ import annotations

import cmath
import threading
from collections import defaultdict, deque, namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, partial, update_wrapper
from itertools import chain, count, product
from math import comb, inf, isfinite, perm
from operator import add, sub

import numpy as np

from .structure import SymplecticStructure

__all__ = [
    "MoyalElement",
    "Term",
    "star",
    "star_term",
    "commutator",
    "anticommutator",
    "involution",
    "partial",
    "pointwise",
    "xi",
    "coordinate",
    "unit",
    "monomial",
    "plane_wave",
    "is_unitary",
    "norm",
    "distance",
    "rel_distance",
    "dump_element",
    "load_element",
]

PRUNE_REL = 1e-12

# wave vectors are snapped to this dyadic grid so that equal waves reached
# along different arithmetic paths (ulp differences) merge on the same key
_K_GRID = float(2**40)
# components below this bound are snapped; a sum of two snapped components is
# exact while below it (at most 53 significant bits) and is not snapped above
# it, so such sums need no re-quantising
_K_LIMIT = 8192.0


def _quantize(x: float) -> float:
    x = float(x)
    if abs(x) < _K_LIMIT:
        x = round(x * _K_GRID) / _K_GRID
    elif not isfinite(x):  # NaN fails the grid test too
        raise ValueError(f"wave vector components must be finite, got {x!r}")
    return x + 0.0  # normalise -0.0


def _clean_k(k) -> tuple:
    return tuple(_quantize(x) for x in k)


def _clean_key(alpha, k) -> tuple:
    """(alpha, k) with integer exponents and a snapped wave vector, or ``ValueError``."""
    alpha = tuple(alpha)
    # a // 1 is NaN for an infinite or NaN exponent, so those fail too
    if not all(a >= 0 and a == a // 1 for a in alpha):
        raise ValueError(f"monomial exponents must be nonnegative integers, got {alpha}")
    return tuple(map(int, alpha)), _clean_k(k)


@dataclass(frozen=True)
class Term:
    """A single monomial x^alpha times plane wave e^{ik.x} with a coefficient."""

    alpha: tuple
    k: tuple
    coeff: complex

    def __post_init__(self):
        alpha, k = _clean_key(self.alpha, self.k)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeff", complex(self.coeff))
        if len(self.alpha) != len(self.k):
            raise ValueError("alpha and k must have the same length")


def _pruned(merged: dict) -> dict:
    """``merged`` without coefficients at or below ``PRUNE_REL`` times its largest.

    A non-finite coefficient, or one whose modulus overflows, raises
    ``ValueError`` instead of being dropped.
    """
    if not merged:
        return merged
    try:
        top = max(map(abs, merged.values()))
    except OverflowError:
        raise ValueError("coefficients must be finite, got a modulus that overflows") from None
    cutoff = PRUNE_REL * top
    kept = {key: c for key, c in merged.items() if abs(c) > cutoff}
    # an infinite or NaN coefficient always fails the cutoff test (a NaN that
    # is not first passes max unseen), so terms are tested only when one was dropped
    if len(kept) < len(merged) and not all(map(cmath.isfinite, merged.values())):
        raise ValueError("coefficients must be finite")
    return kept


def _kept(c: complex) -> bool:
    """Whether ``_pruned`` keeps ``c`` as the only term; raises where it raises.

    A zero is dropped; a non-finite coefficient, or one whose modulus
    overflows, raises ``ValueError`` with ``_pruned``'s message.  This is
    ``bool(_pruned({key: c}))`` without building a dict, for the parser's
    per-factor prune.
    """
    try:
        top = abs(c)
    except OverflowError:
        raise ValueError("coefficients must be finite, got a modulus that overflows") from None
    if top > PRUNE_REL * top:
        return True
    if not cmath.isfinite(c):
        raise ValueError("coefficients must be finite")
    return False


class MoyalElement:
    """Finite complex combination of monomial x plane-wave terms."""

    __slots__ = ("structure", "terms", "_kernel")

    def __init__(self, structure: SymplecticStructure, terms=None):
        merged = {}
        for key, c in (terms or {}).items():
            alpha, k = _clean_key(*key)
            if len(alpha) != structure.D or len(k) != structure.D:
                raise ValueError(
                    f"term key of length {len(alpha)}/{len(k)} does not match D={structure.D}"
                )
            c = complex(c)
            if c != 0:
                key = (alpha, k)
                merged[key] = merged.get(key, 0j) + c
        self._finish(structure, merged)

    def _finish(self, structure, merged):
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "terms", dict(sorted(_pruned(merged).items())))
        object.__setattr__(self, "_kernel", None)

    @classmethod
    def _trusted(cls, structure, merged: dict) -> "MoyalElement":
        """Prune and sort only; the keys must already be canonical."""
        obj = object.__new__(cls)
        obj._finish(structure, merged)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("MoyalElement is immutable")

    # -- iteration and basic queries ------------------------------------
    def items(self):
        return self.terms.items()

    def kernel(self) -> list:
        """The star kernel's per-term data (``_kernel_terms``), built on first use.

        Threads that race here build equal lists and one of them is kept, so
        the element stays safe to share.
        """
        data = self._kernel
        if data is None:
            data = _kernel_terms(self.terms, self.structure)
            object.__setattr__(self, "_kernel", data)
        return data

    def norm(self) -> float:
        """Max-coefficient norm."""
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol

    def degree(self) -> int:
        return max((sum(alpha) for (alpha, _k) in self.terms), default=0)

    def is_polynomial(self) -> bool:
        return all(all(x == 0.0 for x in k) for (_alpha, k) in self.terms)

    def constant_part(self) -> complex:
        zero = ((0,) * self.structure.D, (0.0,) * self.structure.D)
        return self.terms.get(zero, 0j)

    # -- ring operations -------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, MoyalElement):
            self.structure.check_compatible(other.structure)
            return other
        if isinstance(other, (int, float, complex)):
            return unit(self.structure, other)
        return None

    def _combine(self, other, op):
        """Key-by-key ``self op other``, or NotImplemented for a foreign operand."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = op(terms.get(key, 0j), c)
        return MoyalElement._trusted(self.structure, terms)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return MoyalElement._trusted(
            self.structure, {key: -c for key, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MoyalElement._trusted(
                self.structure, {key: other * c for key, c in self.terms.items()}
            )
        if isinstance(other, MoyalElement):
            return star(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("star powers require a nonnegative integer exponent")
        out = unit(self.structure)
        for _ in range(n):
            out = star(out, self)
        return out

    # -- algebra maps ----------------------------------------------------
    def dag(self) -> "MoyalElement":
        """Involution: term-wise (alpha, k, c) -> (alpha, -k, conj c)."""
        return MoyalElement._trusted(
            self.structure,
            {
                (alpha, tuple(-x + 0.0 for x in k)): c.conjugate()
                for (alpha, k), c in self.terms.items()
            },
        )

    def partial(self, mu: int) -> "MoyalElement":
        """d/dx_mu, term by term (alpha lowering plus i k_mu)."""
        self.structure.check_index(mu)
        ax = mu - 1
        terms = {}
        for (alpha, k), c in self.terms.items():
            if alpha[ax] > 0:
                lowered = list(alpha)
                lowered[ax] -= 1
                key = (tuple(lowered), k)
                terms[key] = terms.get(key, 0j) + alpha[ax] * c
            if k[ax] != 0.0:
                key = (alpha, k)
                terms[key] = terms.get(key, 0j) + 1j * k[ax] * c
        return MoyalElement._trusted(self.structure, terms)

    def evaluate(self, x) -> complex:
        """Pointwise value sum_j c_j x^alpha_j e^{i k_j . x}."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.structure.D,):
            raise ValueError(f"expected a point of length {self.structure.D}")
        total = 0j
        for (alpha, k), c in self.terms.items():
            mono = 1.0
            for xi_, a in zip(x, alpha):
                if a:
                    mono *= xi_**a
            total += c * mono * cmath.exp(1j * float(np.dot(k, x)))
        return total

    def __repr__(self):
        from .expressions import format_element  # expressions imports this module

        return f"MoyalElement({format_element(self)})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def unit(s: SymplecticStructure, coeff=1.0) -> MoyalElement:
    """The algebra unit (times an optional scalar)."""
    return MoyalElement(s, {((0,) * s.D, (0.0,) * s.D): coeff})


def monomial(s: SymplecticStructure, alpha, coeff=1.0) -> MoyalElement:
    return MoyalElement(s, {(tuple(alpha), (0.0,) * s.D): coeff})


def plane_wave(s: SymplecticStructure, k, coeff=1.0) -> MoyalElement:
    return MoyalElement(s, {((0,) * s.D, _clean_k(k)): coeff})


def coordinate(s: SymplecticStructure, mu: int) -> MoyalElement:
    """The coordinate function x_mu."""
    s.check_index(mu)
    alpha = [0] * s.D
    alpha[mu - 1] = 1
    return monomial(s, alpha)


def xi(s: SymplecticStructure, mu: int) -> MoyalElement:
    """xi_mu = -Theta^{-1}_{mu nu} x_nu, the generator of d_mu = [i xi_mu, .]."""
    s.check_index(mu)
    terms = {}
    for nu in range(s.D):
        c = -s.ThetaInv[mu - 1, nu]
        if c != 0.0:
            alpha = [0] * s.D
            alpha[nu] = 1
            terms[(tuple(alpha), (0.0,) * s.D)] = c
    return MoyalElement(s, terms)


# ---------------------------------------------------------------------------
# the monomial coupling, one symplectic plane at a time
# ---------------------------------------------------------------------------

def _shift_monomial(alpha: tuple, v) -> dict:
    """exp(v . d) x^alpha in closed form; ``v`` None means no shift.

    The shift factorises over axes, prod_mu sum_j C(alpha_mu, j)
    v_mu^(alpha_mu - j) x_mu^j, so each coefficient is one product of a
    binomial and a power per axis; exact when the v_mu are short dyadics.
    The values are built axis by axis in ``_support``'s key order.
    """
    if not v:
        return {alpha: 1.0}
    vals = [1.0]
    ranges = []
    for a, vx in zip(alpha, v):
        if a and vx != 0.0:
            col = []
            power = 1.0
            for j in range(a, -1, -1):
                col.append(comb(a, j) * power)
                power *= vx
            vals = [c * cj for c in vals for cj in col]
            ranges.append(range(a, -1, -1))
        else:
            ranges.append((a,))
    return dict(zip(product(*ranges), vals))


# the shifts of a _shifted_couple miss repeat far more than the (alpha1, v,
# alpha2, w) keys do; _shift_monomial itself stays uncached for list shifts
_cached_shift = lru_cache(maxsize=256)(_shift_monomial)


def _plane_couple(a1: int, a2: int, b1: int, b2: int, t: float) -> list:
    """One plane's factor of the coupling of x^(a1, a2) (x) x^(b1, b2).

    With T = Theta_12 = t, the plane's coupling is exp(i T/2 (d1 (x) d2 - d2 (x) d1)).
    Its order n lands on the single monomial (a1 + b1 - n, a2 + b2 - n) with
    coefficient (i T/2)^n S_n, where S_n = sum_{j+l=n} (-1)^l C(a1,j) C(b2,j) j!
    C(a2,l) C(b1,l) l! is an integer. Writing T/2 = P/Q in lowest terms, the
    list holds (monomial, n, S_n P^n, Q^n) for every S_n != 0.
    """
    p, q = (t / 2).as_integer_ratio()
    out = []
    for n in range(min(a1, b2) + min(a2, b1) + 1):
        s_n = sum((-1) ** (n - j) * perm(a1, j) * comb(b2, j) * perm(a2, n - j) * comb(b1, n - j)
                  for j in range(n + 1))
        if s_n:
            out.append(((a1 + b1 - n, a2 + b2 - n), n, s_n * p**n, q**n))
    return out


class _AlphaIds(dict):
    """Exponent tuple -> id, numbered from 0 on first lookup; ``tuples[id]`` is the tuple.

    One process-wide table (``_alpha_ids``) interns the tuples
    ``_monomial_couple`` makes, so that the couplings and plans that hold equal
    tuples share one object, and numbers them for the batched merge.  When it
    outgrows ``_ALPHAS_MAX`` it is replaced by an empty one and the plans, which
    store ids, are dropped with it.  A table never renumbers, so ids read from
    one table object stay valid for it.
    """

    __slots__ = ("tuples", "_lock")

    def __init__(self):
        self.tuples = []
        self._lock = threading.Lock()

    def __missing__(self, alpha):
        with self._lock:
            n = self.get(alpha)
            if n is None:
                n = len(self.tuples)
                self.tuples.append(alpha)
                self[alpha] = n
            return n


_ALPHAS_MAX = 1 << 16
_alpha_ids = _AlphaIds()


@lru_cache(maxsize=1024)
def _monomial_couple(alpha1: tuple, alpha2: tuple, planes: tuple) -> dict:
    """exp(i/2 Theta^{mu nu} d_mu (x) d_nu) x^alpha1 (x) x^alpha2, multiplied out.

    Theta is block diagonal, so the coupling is the outer product of one
    ``_plane_couple`` list per plane (``planes`` holds (i, i + 1, Theta_i,i+1)).
    Each coefficient i^N num/den is rounded once from exact integers, so it is
    the correctly rounded exact value, and exact at dyadic theta. The result is
    shared, so callers must not mutate it.
    """
    global _alpha_ids
    if len(_alpha_ids) > _ALPHAS_MAX:
        _alpha_ids = _AlphaIds()
        _couple_plan.cache_clear()  # the plans hold ids of the old table
    ids = _alpha_ids
    tuples = ids.tuples
    out = {}
    for combo in product(*(_plane_couple(alpha1[i], alpha1[j], alpha2[i], alpha2[j], t)
                           for i, j, t in planes)):
        key, order, num, den = (), 0, 1, 1
        for mono, n, num_p, den_p in combo:
            key += mono
            order += n
            num *= num_p
            den *= den_p
        if order % 4 >= 2:
            num = -num
        try:
            c = num / den
        except OverflowError:
            raise ValueError("coefficients must be finite") from None
        out[tuples[ids[key]]] = complex(0.0, c) if order % 2 else complex(c, 0.0)
    return out


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _CoefficientCache:
    """A memo of a pure function, bounded by the total length of the results it holds.

    A coupling's length is its number of coefficients, a plan's its number
    of contributions.  ``cache_info()`` and ``cache_clear()`` are those of
    ``lru_cache``, except that ``maxsize`` and ``currsize`` count that length.
    Results are evicted oldest-inserted first, and a single result longer
    than the budget is returned but never stored.  A hot loop
    may look keys up in ``results`` itself (a dict, oldest first), one dict
    lookup per hit, call ``miss`` for a key it did not find and report its
    hits with ``count_hits``.  The function runs outside the lock, which
    guards only the counters, insertion and eviction; results are shared, so
    callers must not mutate them.
    """

    def __init__(self, func, budget: int):
        update_wrapper(self, func)
        self.results = {}  # key -> result, oldest first
        self._order = deque()  # the keys of ``results``, oldest first
        self._budget = budget
        self._lock = threading.Lock()
        self._held = self._hits = self._misses = 0

    def __call__(self, *key):
        out = self.results.get(key)
        if out is None:
            return self.miss(key)
        self.count_hits(1)
        return out

    def count_hits(self, n: int):
        with self._lock:
            self._hits += n

    def miss(self, key: tuple):
        """Compute the result for ``key`` and store it when it fits the budget."""
        out = self.__wrapped__(*key)
        size = len(out)
        results = self.results
        with self._lock:
            self._misses += 1
            # a thread that raced us here may have stored the key already
            if size <= self._budget and results.setdefault(key, out) is out:
                order = self._order
                order.append(key)
                held = self._held + size
                while held > self._budget:
                    held -= len(results.pop(order.popleft()))
                self._held = held
        return out

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self._budget, self._held)

    def cache_clear(self):
        with self._lock:
            self.results.clear()
            self._order.clear()
            self._held = self._hits = self._misses = 0


# bounded by coefficients, not entries: a shifted coupling holds from one
# coefficient to hundreds, so an entry count bounds neither the memory nor
# what stays reusable.  16,384 coefficients (about 2 MB) hold the couplings a
# D=4 curvature table's closed path computes until its generic path asks for
# the same ones
@partial(_CoefficientCache, budget=16384)
def _shifted_couple(alpha1: tuple, v, alpha2: tuple, w, planes: tuple):
    """The coupling of x^alpha1 shifted by v and x^alpha2 shifted by w.

    ``v`` or ``w`` is None for a side that is not shifted. The coupling is
    bilinear, so it is the sum of ``_monomial_couple`` over the monomials of
    the two shifts, ``_bilinear_sum``.  With at least ``_PLAN_PAIRS`` pairs
    of them it is replayed from its template's plan instead, with the same
    bits.  The result is a dict or a ``_Replayed`` mapping; it is shared, so
    callers must not mutate it.
    """
    left = _cached_shift(alpha1, v)
    right = _cached_shift(alpha2, w)
    if len(left) * len(right) >= _PLAN_PAIRS:
        plan = _couple_plan(alpha1, v and tuple(map(bool, v)),
                            alpha2, w and tuple(map(bool, w)), planes)
        # below this bound no product of the replay overflows (see _replay)
        if sum(map(abs, left.values())) * sum(map(abs, right.values())) * plan.top < inf:
            try:
                return _replay(plan, left, right)
            except FloatingPointError:
                pass  # numpy set to raise on underflow, which Python floats ignore
    return _bilinear_sum(left, right, planes)


def _bilinear_sum(left: dict, right: dict, planes: tuple) -> dict:
    """The sum of c1 c2 ``_monomial_couple(beta1, beta2)`` over two shifts' monomials."""
    out = {}
    for beta1, c1 in left.items():
        for beta2, c2 in right.items():
            scale = c1 * c2
            for alpha, c in _monomial_couple(beta1, beta2, planes).items():
                out[alpha] = out.get(alpha, 0j) + scale * c
    return out


# ---------------------------------------------------------------------------
# replay plans of large shifted couplings
# ---------------------------------------------------------------------------

# a shifted coupling with at least this many pairs of shift monomials is
# replayed from a plan; below it numpy's per-call cost outweighs the loop
_PLAN_PAIRS = 16
# the narrower float types a plan's coefficients may be stored in, with their
# largest finite values
_NARROW_FLOATS = tuple((t, float(np.finfo(t).max)) for t in (np.float16, np.float32))


def _support(alpha: tuple, mask) -> list:
    """The monomials of ``_shift_monomial(alpha, v)``, in its order.

    They depend on v only through ``mask``, which says for each axis whether
    v_mu is nonzero (None for no shift).
    """
    if mask is None:
        return [alpha]
    return list(product(*(range(a, -1, -1) if m else (a,) for a, m in zip(alpha, mask))))


class _Plan:
    """``_bilinear_sum`` of one template as arrays; ``len`` counts contributions.

    A contribution is one term c1 c2 m of the loop, in the loop's order (pairs
    of shift monomials, then the ``_monomial_couple`` dict of the pair).
    ``coeffs`` holds each m as one float, since every ``_monomial_couple``
    value is purely real or purely imaginary.  ``index`` holds, for each of the
    ``pairs`` pairs, how many contributions it makes, then for each
    contribution its slot: 2 n for the real part of output monomial ``keys[n]``
    and 2 n + 1 for its imaginary part.  Both arrays have the narrowest dtype
    that holds their values exactly.  ``top`` is the largest |m|.  ``ids``
    holds the id of each of ``keys`` in the ``_AlphaIds`` object ``table``.
    """

    __slots__ = ("keys", "pairs", "index", "coeffs", "top", "table", "ids")

    def __len__(self):
        return len(self.coeffs)


# bounded by contributions: a plan stores 3 to 12 bytes per contribution (a
# slot and a coefficient in the narrowest exact dtypes) plus its key tuple;
# 131,072 of them hold every plan one pass of the benchmark's large products
# uses, about 1 MB
@partial(_CoefficientCache, budget=1 << 17)
def _couple_plan(alpha1: tuple, mask1, alpha2: tuple, mask2, planes: tuple) -> _Plan:
    """The plan of a template, a shifted coupling with the shift values left out.

    ``mask1`` and ``mask2`` fix the monomials of both shifts (``_support``),
    so they fix every operation of ``_bilinear_sum`` but the values of c1 and
    c2.  A ``_monomial_couple`` coefficient beyond the float range raises its
    ``ValueError`` here, as in the loop.
    """
    couples = [_monomial_couple(beta1, beta2, planes)
               for beta1, beta2 in product(_support(alpha1, mask1), _support(alpha2, mask2))]
    sizes = list(map(len, couples))
    size = sum(sizes)
    plan = _Plan()
    plan.pairs = len(couples)
    # an output monomial takes the next even slot where it first occurs, so
    # the slots follow the loop's key order; one dict lookup per contribution
    slot = defaultdict(count(0, 2).__next__)
    index = np.fromiter(chain(sizes, map(slot.__getitem__, chain.from_iterable(couples))),
                        np.intp, plan.pairs + size)
    plan.keys = tuple(slot)
    plan.table = _alpha_ids
    plan.ids = _id_array(plan.table, plan.keys)
    c = np.fromiter(chain.from_iterable(map(dict.values, couples)), complex, size)
    index[plan.pairs:] += c.imag != 0.0
    plan.index = index.astype(np.min_scalar_type(index.max()))
    # m is the nonzero part of c, the other being +0.0; a zero m adds only
    # signed zeros (see _replay), so its sign does not matter
    coeffs = c.real + c.imag
    plan.top = float(np.abs(coeffs).max())
    for dtype, largest in _NARROW_FLOATS:
        if plan.top <= largest:  # so the cast cannot overflow
            narrow = coeffs.astype(dtype)
            if (narrow == coeffs).all():
                coeffs = narrow
                break
    plan.coeffs = coeffs
    plan.index.flags.writeable = plan.coeffs.flags.writeable = plan.ids.flags.writeable = False
    return plan


def _id_array(table: _AlphaIds, alphas) -> np.ndarray:
    return np.fromiter(map(table.__getitem__, alphas), np.intp, len(alphas))


def _replay(plan: _Plan, left: dict, right: dict) -> "_Replayed":
    """``_bilinear_sum(left, right, planes)`` from the plan of its template.

    Python computes scale * m as complex(scale, 0) * m: for a real m the real
    part is scale*m - 0.0*0.0 = scale*m and the imaginary part scale*0.0 +
    0.0*m, a signed zero while scale is finite (and likewise for an imaginary
    m).  A sum that starts at 0.0 never becomes -0.0, and adding a signed zero
    to it changes nothing, so only the scale*m terms are summed, each by one
    float multiply.  bincount adds in input order from 0.0, as
    ``out.get(alpha, 0j) + x`` does.  The caller checks that no product
    overflows, where scale*0.0 would be NaN, and runs the loop instead when
    numpy is set to raise on an underflow (an ``np.errstate`` here would cost
    a third of the replay).
    """
    index = plan.index
    scale = (np.fromiter(left.values(), float, len(left))[:, None]
             * np.fromiter(right.values(), float, len(right)))
    terms = scale.ravel().repeat(index[:plan.pairs])
    terms *= plan.coeffs
    sums = np.bincount(index[plan.pairs:], terms, 2 * len(plan.keys)).view(complex)
    sums.flags.writeable = False
    return _Replayed(plan, sums)


class _Replayed(Mapping):
    """A replayed coupling: ``plan.keys[n]`` maps to ``values[n]``.

    It holds its plan and one complex array rather than a dict of complex
    objects.  ``items()`` is an iterator over the (alpha, c) pairs.
    """

    __slots__ = ("plan", "array")

    def __init__(self, plan: _Plan, array: np.ndarray):
        self.plan = plan
        self.array = array

    def __len__(self):
        return len(self.plan.keys)

    def __iter__(self):
        return iter(self.plan.keys)

    def __getitem__(self, alpha):
        try:
            n = self.plan.keys.index(alpha)
        except ValueError:
            raise KeyError(alpha) from None
        return complex(self.array[n])

    def items(self):
        return zip(self.plan.keys, self.array.tolist())


# ---------------------------------------------------------------------------
# the star product
# ---------------------------------------------------------------------------

def _kernel_terms(terms: dict, s: SymplecticStructure) -> list:
    """Per-term data of the pair loop, computed once per element (see ``kernel``).

    Each entry is (alpha, k, c, has_monomial, wave): ``wave`` is None for a
    polynomial term, else (on_grid, left, right).  ``left`` and ``right`` are
    the argument shifts this term's wave applies to the other factor's
    monomial when the term is the left factor, +Theta k / 2, and when it is
    the right one, -Theta k / 2.  ``right`` is the negation of ``left``, which
    is bit-exact (IEEE rounding is sign-symmetric, signed zeros included).
    ``on_grid`` says every |k_mu| is below ``_K_LIMIT``, so wave sums need no
    re-quantising.  ``_star_terms`` computes the BCH phase per pair.
    """
    out = []
    for (alpha, k), c in terms.items():
        wave = None
        if any(x != 0.0 for x in k):
            shift = [0.0] * s.D
            # (Theta k)_i = t k_j and (Theta k)_j = -t k_i in the plane (i, j, t)
            for i, j, t in s._planes:
                shift[i] = 0.5 * t * k[j]
                shift[j] = -0.5 * t * k[i]
            wave = (max(map(abs, k)) < _K_LIMIT, tuple(shift), tuple(-x for x in shift))
        out.append((alpha, k, c, any(alpha), wave))
    return out


def _star_terms(left: list, right: list, s: SymplecticStructure) -> dict:
    """Accumulate the star products of all term pairs into one (alpha, k) -> c dict.

    ``left`` and ``right`` are the ``kernel()`` data of the two factors.  With
    at least ``_BATCH_PAIRS`` pairs the contributions are merged by a
    ``_BatchedMerge``, with the same bits, instead of key by key.
    """
    planes = s._planes
    shifted = _shifted_couple.results.get
    hits = 0
    batch = _BatchedMerge() if len(left) * len(right) >= _BATCH_PAIRS else None
    out = {}
    for alpha1, k1, c1, a1_any, wave1 in left:
        for alpha2, k2, c2, a2_any, wave2 in right:
            coeff = c1 * c2
            if wave1 and wave2:
                # k1 Theta k2 summed over planes; antisymmetric term by term,
                # so k Theta k is exactly 0
                phase = 0.0
                for i, j, t in planes:
                    phase += t * (k1[i] * k2[j] - k1[j] * k2[i])
                if phase != 0.0:
                    coeff *= cmath.exp(-0.5j * phase)
                if wave1[0] and wave2[0]:
                    kout = tuple(map(add, k1, k2))
                else:
                    kout = _clean_k(map(add, k1, k2))
            else:
                kout = k2 if wave2 else k1
            v = wave2[2] if wave2 and a1_any else None
            w = wave1[1] if wave1 and a2_any else None
            if v is None and w is None:
                combined = _monomial_couple(alpha1, alpha2, planes)
            else:
                coupling = (alpha1, v, alpha2, w, planes)
                combined = shifted(coupling)
                if combined is None:
                    combined = _shifted_couple.miss(coupling)
                else:
                    hits += 1
            if batch:
                batch.add(coeff, kout, combined)
                continue
            for alpha, c in combined.items():
                key = (alpha, kout)
                out[key] = out.get(key, 0j) + coeff * c
    if hits:
        _shifted_couple.count_hits(hits)
    return batch.result() if batch else out


# a product with at least this many term pairs is merged by a ``_BatchedMerge``;
# below it numpy's per-call cost outweighs the loop
_BATCH_PAIRS = 128
# contributions gathered before they are added to the sums, which bounds the
# batched merge's transient arrays
_BATCH_CHUNK = 8192


class _BatchedMerge:
    """``_star_terms``'s merge with numpy: the loop's bits, in sorted key order.

    ``add`` takes each pair's coefficient, output wave and coupling in loop
    order.  Each contribution coeff * c is computed in the split form, ``cr*vr
    - ci*vi`` and ``cr*vi + ci*vr``, which are the IEEE operations of CPython's
    complex multiply.  A slot is an output key packed as ``kout id << 32 |
    alpha id`` (alpha ids from ``_alpha_ids``, kout ids per product), and
    ``np.add.at`` adds each slot's contributions in input order from 0.0, as
    ``out.get(key, 0j) + x`` does.  The sums carry over from one chunk of
    about ``_BATCH_CHUNK`` contributions to the next, so the order, and so the
    bits, are the loop's throughout.  numpy's floating-point errors are
    ignored, as Python ignores them in float and complex arithmetic.
    ``result`` ranks the keys by (alpha, kout) with ``np.lexsort``, so that
    ``_finish``'s sort runs over sorted input.
    """

    __slots__ = ("table", "kouts", "slots", "sums", "chunk", "held")

    def __init__(self):
        self.table = _alpha_ids  # ids from one table object only
        self.kouts = {}
        self.slots = defaultdict(count().__next__)  # packed key -> slot
        self.sums = np.zeros(0, complex)
        self.chunk = ([], [], [], [], [])  # coeffs, kout ids, sizes, couplings, alpha ids
        self.held = 0

    def add(self, coeff: complex, kout: tuple, combined):
        coeffs, kids, sizes, arrays, ids = self.chunk
        if type(combined) is _Replayed:
            plan = combined.plan
            array = combined.array
            ids.append(plan.ids if plan.table is self.table else _id_array(self.table, plan.keys))
        else:
            array = np.fromiter(combined.values(), complex, len(combined))
            ids.append(_id_array(self.table, combined))
        arrays.append(array)
        coeffs.append(coeff)
        kids.append(self.kouts.setdefault(kout, len(self.kouts)))
        sizes.append(len(array))
        self.held += len(array)
        if self.held >= _BATCH_CHUNK:
            self._flush()

    def _flush(self):
        coeffs, kids, sizes, arrays, ids = self.chunk
        c = np.array(coeffs, complex).repeat(sizes)
        v = np.concatenate(arrays)
        keys, at = np.unique(np.array(kids, np.int64).repeat(sizes) << 32 | np.concatenate(ids),
                             return_inverse=True)
        slots = self.slots
        at = np.fromiter(map(slots.__getitem__, keys.tolist()), np.intp, len(keys))[at]
        if len(slots) > len(self.sums):
            self.sums = np.concatenate((self.sums, np.zeros(len(slots) - len(self.sums), complex)))
        terms = np.empty(len(v), complex)
        with np.errstate(all="ignore"):
            terms.real = c.real * v.real - c.imag * v.imag
            terms.imag = c.real * v.imag + c.imag * v.real
            np.add.at(self.sums, at, terms)
        for part in self.chunk:
            part.clear()
        self.held = 0

    def result(self) -> dict:
        if self.held:
            self._flush()
        keys = np.fromiter(self.slots, np.int64, len(self.slots))
        alpha_ids, alpha_at = np.unique(keys & 0xFFFFFFFF, return_inverse=True)
        alphas = [self.table.tuples[n] for n in alpha_ids.tolist()]
        kout_at = keys >> 32
        kouts = list(self.kouts)
        order = np.lexsort((_ranks(kouts)[kout_at], _ranks(alphas)[alpha_at]))
        return dict(zip(zip(map(alphas.__getitem__, alpha_at[order].tolist()),
                            map(kouts.__getitem__, kout_at[order].tolist())),
                        self.sums[order].tolist()))


def _ranks(items: list) -> np.ndarray:
    """The position of each item in ``sorted(items)``."""
    ranks = np.empty(len(items), np.intp)
    ranks[sorted(range(len(items)), key=items.__getitem__)] = np.arange(len(items))
    return ranks


def star_term(t1: Term, t2: Term, s: SymplecticStructure) -> MoyalElement:
    """Exact star product of two terms over the structure ``s``.

    A term whose length is not ``s.D`` raises ``ValueError``.
    """
    return star(MoyalElement(s, {(t1.alpha, t1.k): t1.coeff}),
                MoyalElement(s, {(t2.alpha, t2.k): t2.coeff}))


def star(a: MoyalElement, b: MoyalElement) -> MoyalElement:
    """Bilinear extension of ``star_term`` with merge and prune."""
    a.structure.check_compatible(b.structure)
    if not a.terms or not b.terms:
        return MoyalElement._trusted(a.structure, {})
    return MoyalElement._trusted(a.structure, _star_terms(a.kernel(), b.kernel(), a.structure))


def pointwise(a: MoyalElement, b: MoyalElement) -> MoyalElement:
    """Ordinary commutative product a(x) b(x); closes on the carrier."""
    a.structure.check_compatible(b.structure)
    terms = {}
    for (al1, k1), c1 in a.terms.items():
        for (al2, k2), c2 in b.terms.items():
            key = (
                tuple(x + y for x, y in zip(al1, al2)),
                _clean_k(x + y for x, y in zip(k1, k2)),
            )
            terms[key] = terms.get(key, 0j) + c1 * c2
    return MoyalElement._trusted(a.structure, terms)


def _bracket(a: MoyalElement, b: MoyalElement, combine) -> MoyalElement:
    """``star(a, b) combine star(b, a)`` without building the two products.

    Each product is pruned as ``star`` prunes it, then the two are combined
    key by key as ``__add__`` and ``__sub__`` combine them, so every
    coefficient gets the same IEEE operations; only the intermediate sorts
    and elements are skipped.
    """
    a.structure.check_compatible(b.structure)
    s = a.structure
    if not a.terms or not b.terms:
        return MoyalElement._trusted(s, {})
    ka, kb = a.kernel(), b.kernel()
    terms = _pruned(_star_terms(ka, kb, s))
    for key, c in _pruned(_star_terms(kb, ka, s)).items():
        terms[key] = combine(terms.get(key, 0j), c)
    return MoyalElement._trusted(s, terms)


def commutator(a: MoyalElement, b: MoyalElement) -> MoyalElement:
    """[a, b] = a * b - b * a."""
    return _bracket(a, b, sub)


def anticommutator(a: MoyalElement, b: MoyalElement) -> MoyalElement:
    """{a, b} = a * b + b * a."""
    return _bracket(a, b, add)


def involution(a: MoyalElement) -> MoyalElement:
    return a.dag()


def partial(mu: int, a: MoyalElement) -> MoyalElement:
    return a.partial(mu)


def is_unitary(g: MoyalElement, tol: float) -> bool:
    """True iff ||g^dag * g - 1|| <= tol in the max-coefficient norm."""
    return (star(g.dag(), g) - unit(g.structure)).norm() <= tol


def norm(a: MoyalElement) -> float:
    return a.norm()


def distance(a: MoyalElement, b: MoyalElement) -> float:
    return (a - b).norm()


def rel_distance(a: MoyalElement, b: MoyalElement) -> float:
    """||a - b|| relative to the larger operand norm (absolute when both tiny)."""
    scale = max(a.norm(), b.norm(), 1.0)
    return distance(a, b) / scale


# ---------------------------------------------------------------------------
# line-oriented serialization
# ---------------------------------------------------------------------------

def dump_element(a: MoyalElement) -> str:
    """One term per line: 'coeff_re coeff_im | alpha_1 .. alpha_D | k_1 .. k_D'."""
    lines = [f"# D={a.structure.D} theta={a.structure.theta!r}"]
    for (alpha, k), c in a.terms.items():
        lines.append(
            f"{c.real!r} {c.imag!r} | "
            + " ".join(str(x) for x in alpha)
            + " | "
            + " ".join(repr(x) for x in k)
        )
    return "\n".join(lines) + "\n"


def load_element(text: str, s: SymplecticStructure) -> MoyalElement:
    terms = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise ValueError(f"line {ln}: expected 'coeff | alpha | k'")
        try:
            re_, im_ = (float(x) for x in parts[0].split())
            alpha = tuple(int(x) for x in parts[1].split())
            k = _clean_k(float(x) for x in parts[2].split())
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from exc
        if len(alpha) != s.D or len(k) != s.D:
            raise ValueError(f"line {ln}: index lists must have length D={s.D}")
        key = (alpha, k)
        terms[key] = terms.get(key, 0j) + complex(re_, im_)
    return MoyalElement(s, terms)
