"""Star-product calculus on deformed flat space, its derivation-based gauge
theory, a Z2-graded extension, and the one-loop IR diagnostics of the
polarisation tensor.

``import moyalcalc`` loads numpy and the algebra layers only. The one-loop
names (``LoopConfig``, ``ir_coefficient``, ...) are resolved on first use,
and only then is scipy imported. The ``moyalcalc`` command (``moyalcalc.cli``)
still imports the one-loop layer at start, because the benchmark tracer looks
up ``moyalcalc.oneloop`` after importing the CLI.
"""

from types import ModuleType as _ModuleType

from .structure import StructureMismatchError, SymplecticStructure
from .elements import (
    MoyalElement,
    Term,
    anticommutator,
    commutator,
    coordinate,
    distance,
    dump_element,
    involution,
    is_unitary,
    load_element,
    monomial,
    norm,
    partial,
    plane_wave,
    pointwise,
    rel_distance,
    star,
    star_term,
    unit,
    xi,
)
from .expressions import ExpressionError, format_element, parse_expression
from .derivations import (
    BracketDecomposition,
    DerivationGenerator,
    apply_derivation,
    bracket_generators,
    d2_special_basis,
    eta,
    g1_basis,
    g2_basis,
    inner_generator,
    partial_generator,
    poisson_bracket,
    sym_generator,
    verify_d2_special_brackets,
)
from .connections import (
    ConnectionForm,
    CovariantCoordinates,
    CurvatureTable,
    action_density,
    canonical_connection,
    canonical_curvature,
    connection_from_config,
    covariant_coordinates,
    covariant_derivative,
    curvature,
    curvature_generic,
    eta_rescaled,
    gauge_transform,
)
from .graded import (
    GradedConnectionForm,
    GradedElement,
    GradedGenerator,
    graded_action_density,
    graded_bracket,
    graded_canonical_curvature,
    graded_connection_from_config,
    graded_covariant_coordinates,
    graded_curvature,
    graded_curvature_generic,
    graded_eta,
    graded_gauge_transform,
    graded_generators,
    graded_unit,
    verify_graded_table,
)

# The one-loop names resolve on first use (``__getattr__``): ``oneloop`` is the
# only layer that imports scipy, and its import costs more than the rest of the
# package together.
_ONELOOP = frozenset({
    "LOOP_WEIGHTS",
    "LoopConfig",
    "LoopResult",
    "bessel_m",
    "delta_residual_profile",
    "ir_coefficient",
    "ir_target",
    "master_j",
    "master_j_tensor",
    "nonplanar_structures",
    "omega_integrand",
    "omega_nonplanar",
    "seagull",
    "vertex_3g",
    "vertex_3h",
    "vertex_4g",
    "vertex_4h",
    "vertex_gauge_higgs",
    "vertex_ghost",
    "wedge",
})

__version__ = "0.1.0"

__all__ = sorted(
    [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)]
    + list(_ONELOOP)
)


def __getattr__(name):
    if name not in _ONELOOP:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oneloop
    globals().update((n, getattr(oneloop, n)) for n in _ONELOOP)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _ONELOOP)
