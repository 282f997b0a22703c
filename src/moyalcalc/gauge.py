"""Gauge scaffolding shared by the ungraded (``connections``) and the graded
(``graded``) connections.

Both build covariant coordinates cov(X) = -i A(X) + eta(X), the generic
curvature [cov X, cov Y] - cov([X, Y]) + (eta([X, Y]) - [eta X, eta Y]) and
the central canonical curvature from a bracket decomposition of
[eta X, eta Y], whose central part gives the last parenthesis.  The
algebra-specific pieces are passed in.  Each closed-form curvature stays in
its own module as the independent path of the dual-path check.  A unitary g
acts on both as A^g(X) = g^dag A(X) g + i g^dag X(g) (``unitary_action``).
"""

from __future__ import annotations

from .elements import MoyalElement, is_unitary, star
from .structure import SymplecticStructure


def pair_iter(gens):
    """Ordered generator pairs (X, Y) with X at or before Y in ``gens``."""
    for i, X in enumerate(gens):
        for Y in gens[i:]:
            yield X, Y


def generic_curvature(gens, cov, decompose, bracket, one) -> dict:
    """F(X, Y) over ordered pairs from the slots ``cov[name]`` and ``decompose(X, Y)``."""
    out = {}
    for X, Y in pair_iter(gens):
        dec = decompose(X, Y)
        val = bracket(cov[X.name], cov[Y.name])
        for c, Z in dec.terms:
            val = val - c * cov[Z.name]
        out[(X.name, Y.name)] = val - dec.central * one
    return out


def canonical_entries(gens, decompose, one) -> dict:
    """F^inv(X, Y) = eta([X, Y]) - [eta X, eta Y] over ordered pairs."""
    return {(X.name, Y.name): -decompose(X, Y).central * one for X, Y in pair_iter(gens)}


def max_residual(entries: dict, other: dict) -> float:
    """The dual-path residual: largest norm of an entrywise difference."""
    return max((entries[k] - other[k]).norm() for k in entries)


def fill_components(given: dict, names, s: SymplecticStructure, unknown: str) -> dict:
    """``given`` over ``names``, zero where missing; other names raise ``unknown``."""
    zero = MoyalElement(s, {})
    out = {}
    for name in names:
        val = given.get(name)
        out[name] = val if val is not None else zero
        out[name].structure.check_compatible(s)
    extra = set(given) - set(out)
    if extra:
        raise ValueError(f"{unknown}: {sorted(extra)}")
    return out


def unitary_action(g: MoyalElement, tol: float, message: str):
    """The gauge action (a, X(g)) -> g^dag a g + i g^dag X(g) of a unitary ``g``.

    Without X(g) it is plain conjugation; a ``g`` that is not unitary raises ``message``.
    """
    if not is_unitary(g, tol):
        raise ValueError(message)
    gd = g.dag()

    def act(a, xg=None):
        out = star(star(gd, a), g)
        return out if xg is None else out + 1j * star(gd, xg)

    return act


def config_number(cfg: dict, key: str, cast, default=None):
    """``cast(cfg[key])`` with ``cast`` ``int`` or ``float``; ``default`` when ``key`` is absent.

    Without a default the key is required (``KeyError``).  A value ``cast``
    cannot take, and an ``int`` value that is not integral (4.9, inf, NaN),
    raise ``ValueError`` naming the key; an integer string such as "4" is read.
    """
    if default is not None and key not in cfg:
        return default
    val = cfg[key]
    message = f"config {key} must be {'an integer' if cast is int else 'a number'}, got {val!r}"
    try:
        out = cast(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(message) from exc
    if cast is int and not isinstance(val, str) and out != val:
        raise ValueError(message)
    return out


def structure_from_config(cfg: dict, kind: str) -> SymplecticStructure:
    try:
        D = config_number(cfg, "D", int)
        return SymplecticStructure(D, config_number(cfg, "theta", float, 1.0))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad {kind} config: {exc}") from exc


def parse_components(group, s: SymplecticStructure, parse) -> dict:
    """Name -> element, with expression strings parsed by ``parse(expr, s)``.

    A missing group or component (``None``) is zero; a group that is not a
    mapping, or a component that is neither a string nor an element, raises.
    """
    group = group or {}
    if not isinstance(group, dict):
        raise ValueError(f"components must map names to expressions, got {group!r}")
    out = {}
    for name, expr in group.items():
        if isinstance(expr, str):
            if parse is None:
                raise ValueError("expression components need a parser")
            expr = parse(expr, s)
        elif not (expr is None or isinstance(expr, MoyalElement)):
            raise ValueError(f"component {name} must be an expression string, got {expr!r}")
        out[name] = expr
    return out
