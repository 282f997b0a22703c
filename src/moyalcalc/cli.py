"""Command-line front end.

Subcommands: verify, star, curvature, graded, oneloop, bessel-check.
Exit status: 0 all checks pass, 1 a numerical check failed, 2 input error
(a bad flag, expression or config, or a file that cannot be read or written).
Every run is deterministic under a fixed seed; reports start with the
convention sheet so published numbers are unambiguous.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import graded as gr
from .connections import (
    connection_from_config,
    curvature,
    curvature_generic,
)
from .expressions import format_element, parse_expression
from .gauge import config_number, max_residual
from .oneloop import LoopConfig, bessel_m, ir_coefficient, ir_target, ir_unit
from .structure import SymplecticStructure
from .verify import SUITES, run_suites

__all__ = ["main"]

CONVENTIONS = (
    "# conventions: Theta = theta * Sigma, Sigma = diag(J,..,J), J = [[0,-1],[1,0]]\n"
    "# wedge(p,k) = p_mu Theta_{mu nu} k_nu ; ptilde_mu = Theta_{mu nu} p_nu\n"
    "# partial_mu = [i xi_mu, .] with xi_mu = -ThetaInv_{mu nu} x_nu"
)


def _add_structure(p, tol=None):
    """--dim and --theta, plus --tol when the report has a ``tol`` default."""
    p.add_argument("--dim", type=int, default=None, help="even dimension D")
    p.add_argument("--theta", type=float, default=None)
    if tol is not None:
        p.add_argument("--tol", type=float, default=tol)


def _effective(args, cfg=None):
    """D and theta from the flags, the config, or the defaults 2 and 1.0.

    A flag that contradicts the config raises; the structure checks the values.
    """
    out = []
    for key, flag, cast, default in (("D", "dim", int, 2), ("theta", "theta", float, 1.0)):
        val = getattr(args, flag)
        if cfg and key in cfg:
            got = config_number(cfg, key, cast)
            if val is not None and got != val:
                raise ValueError(f"config {key}={got} conflicts with --{flag} {val}")
            val = got
        out.append(default if val is None else val)
    return tuple(out)


@functools.cache
def _build_parser():
    """Built once per process; ``main`` dispatches via the module-level ``_report_*`` names."""
    ap = argparse.ArgumentParser(prog="moyalcalc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity suites")
    _add_structure(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scope", default="all", choices=[*SUITES, "all"])
    p.add_argument("--config", default=None, help="optional D/theta config file")

    p = sub.add_parser("star", help="star-multiply two expressions")
    _add_structure(p)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("curvature", help="curvature table from a config file")
    _add_structure(p, tol=1e-11)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--mu", type=float, default=None, help="override the mu scale")

    p = sub.add_parser("graded", help="graded curvature table from a config file")
    _add_structure(p, tol=1e-11)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("oneloop", help="fit the vacuum-polarisation IR coefficient")
    _add_structure(p, tol=0.02)
    p.add_argument("--mu", type=float, default=1.0, help="Higgs propagator mass")
    p.add_argument("--n-higgs", type=int, default=None)
    p.add_argument("--p-min", type=float, default=1e-2, help="smallest |ptilde|")
    p.add_argument("--p-max", type=float, default=1e-1, help="largest |ptilde|")
    p.add_argument("--n-points", type=int, default=8)
    p.add_argument("--out", default=None, help="CSV output path")

    p = sub.add_parser("bessel-check", help="verify the Bessel master integrals")
    p.add_argument("--seed", type=int, default=1)
    return ap


def _report_verify(args) -> int:
    cfg = _load_config(args.config) if args.config else None
    D, theta = _effective(args, cfg)
    checks = run_suites(args.scope, D, theta, args.seed)
    print(CONVENTIONS)
    print(f"# scope={args.scope} D={D} theta={theta} seed={args.seed}")
    width = max(len(c.name) for _s, c in checks)
    ok = True
    for sname, c in checks:
        status = "pass" if c.passed else "FAIL"
        ok &= c.passed
        print(f"{status}  {sname:12s} {c.name:<{width}s}  residual {c.residual:.3e}  tol {c.tol:.0e}")
    print(f"# {'all checks passed' if ok else 'CHECK FAILURES PRESENT'}")
    return 0 if ok else 1


def _report_star(args) -> int:
    D, theta = _effective(args)
    s = SymplecticStructure(D, theta)
    a = parse_expression(args.left, s)
    b = parse_expression(args.right, s)
    from .elements import star

    product = star(a, b)
    print(CONVENTIONS)
    print(format_element(product))
    return 0


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _report_table(args, build, closed, generic, row) -> int:
    """Curvature table of the connection in ``args.config`` with its dual-path residual.

    ``build`` makes the connection from the config (``--mu``, where the
    subcommand has it, replaces the config's ``mu``), ``closed`` and
    ``generic`` give the two curvature paths as entry dicts and ``row``
    formats an entry.
    """
    cfg = _load_config(args.config)
    D, theta = _effective(args, cfg)
    cfg = {**cfg, "D": D, "theta": theta}
    if getattr(args, "mu", None) is not None:
        cfg["mu"] = args.mu
    A = build(cfg, parse=parse_expression)
    F = closed(A)
    dual = max_residual(F, generic(A))
    lines = [CONVENTIONS, f"# dual-path residual {dual:.3e} (tol {args.tol:.0e})"]
    for (n1, n2), val in F.items():
        lines.append(f"F({n1},{n2}) = {row(val)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0 if dual <= args.tol else 1


def _report_curvature(args) -> int:
    return _report_table(
        args,
        connection_from_config,
        lambda A: curvature(A).entries,
        lambda A: curvature_generic(A).entries,
        format_element,
    )


def _report_graded(args) -> int:
    return _report_table(
        args,
        gr.graded_connection_from_config,
        gr.graded_curvature,
        gr.graded_curvature_generic,
        lambda val: f"({format_element(val.even)} | {format_element(val.odd)})",
    )


def _report_oneloop(args) -> int:
    D, theta = _effective(args)
    if not (0 < args.p_min < args.p_max):
        raise ValueError("need 0 < p-min < p-max")
    if args.p_min < 1e-2 - 1e-12 or args.p_max > 1e-1 + 1e-12:
        raise ValueError("the supported fit window is [1e-2, 1e-1] in |ptilde|")
    if args.n_points < 4:
        raise ValueError("need at least 4 fit points")
    cfg = LoopConfig(D=D, theta=theta, n_higgs=args.n_higgs, mu_mass=args.mu)
    pts = np.geomspace(args.p_min, args.p_max, args.n_points)
    p_values = []
    for x in pts:
        p = np.zeros(D)
        p[0] = x / theta  # |ptilde| = theta |p| for axis momenta
        p_values.append(p)
    res = ir_coefficient(cfg, p_values)
    target = ir_target(cfg.D, cfg.n_higgs)
    rel = abs(res.value - target) / max(abs(target), ir_unit(cfg.D))
    ok = rel <= args.tol
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("ptilde_norm,c_fit,residual,D,N,mu,theta\n")
            for pt, y, _err in res.extras["points"]:
                fh.write(
                    f"{pt!r},{res.value!r},{y - res.value!r},"
                    f"{cfg.D},{cfg.n_higgs},{cfg.mu_mass!r},{cfg.theta!r}\n"
                )
    print(CONVENTIONS)
    print(
        f"# D={cfg.D} N={cfg.n_higgs} mu={cfg.mu_mass} theta={cfg.theta} "
        f"window=[{args.p_min},{args.p_max}]"
    )
    print(
        f"target {target:.6f}, fitted {res.value:.6f} "
        f"(rel dev {rel:.3%}, fit residual {res.abs_error:.2e}) -> "
        f"{'pass' if ok else 'FAIL'} at {args.tol:.1%}"
    )
    return 0 if ok else 1


def _report_bessel(args) -> int:
    import math

    rng = np.random.default_rng(args.seed)
    worst_rec = worst_wronski = worst_kneg = 0.0
    from scipy.special import iv, kv

    for _ in range(40):
        Q = int(rng.integers(0, 4))
        z = float(rng.uniform(1e-3, 50.0))
        kq = kv(Q, z)
        kq1 = kv(Q + 1, z)
        kq2 = kv(Q + 2, z)
        worst_rec = max(
            worst_rec, abs(kq2 - (kq + 2 * (Q + 1) / z * kq1)) / max(abs(kq2), 1e-300)
        )
        w = iv(Q, z) * kq1 + iv(Q + 1, z) * kq
        worst_wronski = max(worst_wronski, abs(w - 1.0 / z) * z)
        worst_kneg = max(worst_kneg, abs(kv(-Q, z) - kq) / max(abs(kq), 1e-300))
    # small-argument law for the massless limit
    worst_asym = 0.0
    for Q in (1, 2):
        for pt in (1e-2, 1e-3):
            exact = bessel_m(-Q, 1.0, pt)
            asym = 2.0 ** (Q - 1) * math.factorial(Q - 1) / pt ** (2 * Q)
            worst_asym = max(worst_asym, abs(exact - asym) / asym)
    rows = (
        ("K recurrence residual", worst_rec, "1e-10"),
        ("Wronskian I K' + I' K", worst_wronski, "1e-9"),
        ("K_-Q = K_Q", worst_kneg, "1e-14"),
        ("small-argument M_-Q law", worst_asym, "1e-2"),
    )
    print(CONVENTIONS)
    for label, residual, tol in rows:
        print(f"{label:<26s} {residual:.3e}  tol {tol}")
    ok = all(residual <= float(tol) for _label, residual, tol in rows)
    print(f"# {'all checks passed' if ok else 'CHECK FAILURES PRESENT'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches the contract
        return int(exc.code or 0)
    handlers = {
        "verify": _report_verify,
        "star": _report_star,
        "curvature": _report_curvature,
        "graded": _report_graded,
        "oneloop": _report_oneloop,
        "bessel-check": _report_bessel,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
