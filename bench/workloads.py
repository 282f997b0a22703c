"""The benchmark's four workloads: seeded inputs, CLI command sequences, checks.

Every workload is a sequence of real ``moyalcalc`` command lines run in
process through ``moyalcalc.cli.main`` with stdout captured. Inputs are made
from the seed alone with ``random.Random``; the program only ever sees the
generated command lines and config files. For tables-d4, star-bulk and
ir-sweep the input shapes (term counts, degrees, which terms carry waves,
grid sizes) are fixed and only values are drawn from the seed, so their work
barely depends on the seed. verify-d2 passes the seed to ``verify``, whose own
generator draws term counts too; its time at seeds 1 to 5 spans 20%, so it
runs ``verify`` at four seeds per pass.

``check`` runs after the timed sequence and returns (attempted, failed,
problems): ``failed`` counts operations the program itself reported as
failed, ``problems`` lists outputs the benchmark found wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

# graded tables at D=4 list every pair of the 19 graded generators, G2
# tables every pair of the 14 G2 generators
_G2_PAIRS_D4 = 14 * 15 // 2
_GRADED_PAIRS_D4 = 19 * 20 // 2


def run_cli(main, argv):
    """Run one command line in process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# seeded expression strings in the CLI grammar
# ---------------------------------------------------------------------------

def _coeff(rng):
    re_, im = 0.0, 0.0
    while re_ == 0.0 and im == 0.0:
        # eighths keep every coefficient exactly representable
        re_, im = rng.randint(-16, 16) / 8, rng.randint(-16, 16) / 8
    return f"({re_!r}{'+' if im >= 0 else '-'}{abs(im)!r}i)"


# sixteenths keep wave sums exact; no zero component, so every wave shifts
# every coordinate and the work per term does not depend on the values drawn
_WAVE_GRID = [k / 16 for k in range(-32, 33) if k]


def layout(D, shape, salt):
    """Monomial exponents for a shape of (degree, carries a wave) pairs.

    Drawn from ``salt`` alone, never from the seed, so every seed multiplies
    the same monomials and only coefficients and wave vectors change.
    """
    rng = random.Random(salt)
    polys = set()
    out = []
    for degree, wave in shape:
        for _attempt in range(100):
            alpha = [0] * D
            for _ in range(degree):
                alpha[rng.randrange(D)] += 1
            alpha = tuple(alpha)
            if wave or alpha not in polys:
                break
        else:
            raise ValueError(f"shape {shape} admits too few distinct polynomial terms")
        if not wave:
            polys.add(alpha)
        out.append((alpha, wave))
    return out


def expression(rng, terms):
    """A sum of distinct terms over a ``layout``, with seeded coefficients and waves."""
    seen = set()
    out = []
    for alpha, wave in terms:
        k = ()
        while wave and (not k or (alpha, k) in seen):
            k = tuple(rng.choice(_WAVE_GRID) for _ in alpha)
        seen.add((alpha, k))
        factors = [_coeff(rng)]
        factors += [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(alpha) if e]
        if k:
            factors.append("W[" + ",".join(repr(x) for x in k) + "]")
        out.append("*".join(factors))
    return " + ".join(out)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class VerifyD2:
    """``verify --scope all --dim 2``: the acceptance battery users run most.

    Tens of thousands of star products of about 3 term pairs each, so per-call
    overhead and the merge/sort in ``_finish`` dominate; the only workload
    with the gauge-covariance loops; no parsing and no one-loop fits. A pass
    runs the battery at the benchmark seed and at three seeds derived from it,
    which evens out the seed's effect on the amount of work. One operation is
    one check line.
    """

    name = "verify-d2"
    n_seeds = 4

    def __init__(self, seed, workdir):
        rng = random.Random(f"verify-d2/{seed}")
        seeds = [seed] + [rng.randrange(1, 2**31) for _ in range(self.n_seeds - 1)]
        self.commands = [["verify", "--scope", "all", "--dim", "2", "--seed", str(s)]
                         for s in seeds]

    def run(self, main):
        return [(argv, *run_cli(main, argv)) for argv in self.commands]

    def check(self, outputs, pkg):
        attempted, failed, problems = 0, 0, []
        for argv, code, text in outputs:
            lines = [ln for ln in text.splitlines() if ln.startswith(("pass ", "FAIL "))]
            bad = [ln for ln in lines if ln.startswith("FAIL")]
            attempted += len(lines)
            failed += len(bad)
            problems += [f"seed {argv[-1]}: check failed: {ln}" for ln in bad]
            if not lines:
                problems.append(f"seed {argv[-1]}: verify printed no check lines")
            if code != (1 if bad else 0):
                problems.append(f"seed {argv[-1]}: verify exited {code} "
                                f"with {len(bad)} failed checks")
        return attempted, failed, problems


class TablesD4:
    """``curvature --config`` and ``graded --config`` on seeded D=4 configs.

    The medium-product regime: 4 nonzero Theta entries, 105 G2 generator
    pairs and 190 graded pairs per table. Covariant slots, the generic
    bracket decomposition, both curvature paths, config parsing and large
    table formatting. One operation is one table; the command fails when the
    dual-path residual exceeds 1e-11.
    """

    name = "tables-d4"
    n_configs = 2
    # every component is two terms: a wave-dressed linear term and a quadratic one
    shape = ((1, True), (2, True))

    def __init__(self, seed, workdir):
        rng = random.Random(f"tables-d4/{seed}")
        D = 4
        dnames = [f"d{m}" for m in range(1, D + 1)]
        xnames = [f"X{m}{n}" for m in range(1, D + 1) for n in range(m, D + 1)]

        def scale():
            return rng.choice((0.5, 0.75, 1.0, 1.25, 1.5, 2.0))

        def terms(component):
            return layout(D, self.shape, f"tables-d4/{component}")

        self.commands = []
        for i in range(self.n_configs):
            conn = {
                "D": D, "theta": scale(), "mu": scale(), "alpha": scale(), "basis": "G2",
                "components": {n: expression(rng, terms(f"A/{n}")) for n in dnames + xnames},
            }
            graded = {
                "D": D, "theta": scale(), "m": scale(), "mu": scale(),
                "A0": {n: expression(rng, terms(f"A0/{n}")) for n in dnames},
                "A1": {n: expression(rng, terms(f"A1/{n}")) for n in dnames},
                "G0": {n: expression(rng, terms(f"G0/{n}")) for n in xnames},
                "phi": expression(rng, terms("phi")),
            }
            for kind, cfg in (("curvature", conn), ("graded", graded)):
                path = os.path.join(workdir, f"{kind}-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
                self.commands.append([kind, "--config", path])

    def run(self, main):
        return [(argv, *run_cli(main, argv)) for argv in self.commands]

    def check(self, outputs, pkg):
        problems = []
        failed = 0
        for argv, code, text in outputs:
            failed += code != 0
            expect = _G2_PAIRS_D4 if argv[0] == "curvature" else _GRADED_PAIRS_D4
            m = re.search(r"^# dual-path residual (\S+) \(tol", text, re.M)
            rows = sum(ln.startswith("F(") for ln in text.splitlines())
            if code != 0 or m is None or not float(m.group(1)) <= 1e-11:
                problems.append(f"{argv[0]} {os.path.basename(argv[2])}: exit {code}, "
                                f"residual {m.group(1) if m else 'missing'}")
            if rows != expect:
                problems.append(f"{argv[0]} table has {rows} rows, expected {expect}")
            if re.search(r"\b(nan|inf)\b", text):
                problems.append(f"{argv[0]} table holds a non-finite coefficient")
        return len(outputs), failed, problems


class StarBulk:
    """``star --dim {2,4} LEFT RIGHT`` on large seeded elements.

    Few products with hundreds of term pairs and thousands of output terms,
    so ``_poly_shift``, ``_star_couple`` and the merge dominate. Some left
    operands are printed products of earlier commands, as when a user chains
    ``moyalcalc star`` calls; that makes ``parse_expression`` and
    ``format_element`` work at hundreds to thousands of terms. One operation
    is one product.
    """

    name = "star-bulk"
    # (D, left shape, right shape): degrees up to 8 at D=2 and 6 at D=4
    fresh = (
        (2, [(d, i % 3 != 1) for i, d in enumerate((0, 1, 2, 3, 4, 5, 6, 7, 8) * 2)],
         [(d, i % 2 == 0) for i, d in enumerate((1, 2, 3, 4, 5, 6, 7, 8) * 2)]),
        (2, [(d, True) for d in (0, 1, 2, 3, 4, 5, 6, 7)],
         [(d, i % 2 == 1) for i, d in enumerate((1, 2, 3, 4, 5))]),
        (4, [(d, i % 3 != 1) for i, d in enumerate((0, 1, 2, 3, 4, 5, 6) * 2)],
         [(d, i % 2 == 0) for i, d in enumerate((1, 2, 3, 4, 5, 6) * 2)]),
        (4, [(d, True) for d in (0, 1, 2, 3, 4, 5, 6)],
         [(d, i % 2 == 1) for i, d in enumerate((1, 2, 3, 4, 5))]),
    )
    # (index of the fresh product printed as the left operand, right shape);
    # these left operands have several hundred terms, so parsing them is a
    # visible share of a pass without swamping the kernel
    chained = ((1, [(1, True), (2, True), (0, True)]), (3, [(1, True), (2, True), (0, True)]))

    def __init__(self, seed, workdir):
        rng = random.Random(f"star-bulk/{seed}")
        self.ops = []  # (D, theta, left expression or index of a printed product, right)
        for i, (D, left, right) in enumerate(self.fresh):
            theta = rng.choice((0.5, 1.0, 2.0))
            self.ops.append((D, theta, expression(rng, layout(D, left, f"star-bulk/{i}/left")),
                             expression(rng, layout(D, right, f"star-bulk/{i}/right"))))
        for i, (src, right) in enumerate(self.chained):
            D, theta = self.ops[src][:2]
            self.ops.append((D, theta, src,
                             expression(rng, layout(D, right, f"star-bulk/chain{i}"))))

    def run(self, main):
        outputs = []
        for D, theta, left, right in self.ops:
            if isinstance(left, int):
                left = outputs[left][2].splitlines()[-1]
            argv = ["star", "--dim", str(D), "--theta", repr(theta), "--", left, right]
            outputs.append((argv, *run_cli(main, argv)))
        return outputs

    def check(self, outputs, pkg):
        problems = []
        failed = 0
        products = []
        for (D, theta, left, right), (_argv, code, text) in zip(self.ops, outputs):
            failed += code != 0
            s = pkg.SymplecticStructure(D, theta)
            # a chained operand is the product computed for an earlier command;
            # that it equals the printed text is checked through the format below
            a = products[left] if isinstance(left, int) else pkg.parse_expression(left, s)
            b = pkg.parse_expression(right, s)
            c = pkg.star(a, b)
            products.append(c)
            if code != 0 or text.splitlines()[-1] != pkg.format_element(c):
                problems.append(f"star product {len(products)}: exit {code} or printed "
                                "product differs from the in-process product")
            rel = _rel_gap(c.dag(), pkg.star(b.dag(), a.dag()))
            if not rel <= 1e-12:
                problems.append(f"star product {len(products)}: (a*b)^dag vs "
                                f"b^dag*a^dag relative gap {rel:.3e} > 1e-12")
            # the involution identity holds for any deformation strength; the
            # coordinate commutator [x1, c] = i Theta_1nu d_nu c pins Theta, and
            # its tolerance allows for the 1e-12 relative pruning of each product
            x1 = pkg.coordinate(s, 1)
            rhs = sum(1j * float(s.Theta[0, nu]) * c.partial(nu + 1)
                      for nu in range(D) if s.Theta[0, nu])
            rel = _rel_gap(pkg.star(x1, c) - pkg.star(c, x1), rhs)
            if not rel <= 1e-10:
                problems.append(f"star product {len(products)}: [x1, a*b] vs "
                                f"i Theta d(a*b) relative gap {rel:.3e} > 1e-10")
            if pkg.load_element(pkg.dump_element(c), s).terms != c.terms:
                problems.append(f"star product {len(products)}: dump/load round trip changed it")
        return len(outputs), failed, problems


def _rel_gap(x, y):
    return (x - y).norm() / max(x.norm(), y.norm(), 1e-300)


_VERDICT = re.compile(r"^target (\S+), fitted (\S+) \(rel dev .*\) -> (pass|FAIL) at", re.M)


class IrSweep:
    """``oneloop`` over D x n_higgs x n-points x seeded (mu, theta, window).

    n_higgs is 0, 1, 2, 3 at D=2 and 0, 1, 3 and the default D(D+1)/2 = 10
    at D=4 (the default at D=2 would repeat n_higgs=3).

    Only ``oneloop``, ``structure`` and scipy quadrature; never enters
    ``elements``, so a star-kernel change should leave it unchanged. It has
    the largest share of import time. One operation is one fit, judged by
    the CLI's own 2% test.

    Known standing defect: at D=2 with n_higgs=0 the target is exactly 0 and
    the CLI divides by it, so those fits print ``rel dev inf%`` and exit 1
    although the fitted value is 0 to 1e-14. They stay in the grid and count
    as failed operations; the benchmark's own check accepts a zero target
    when the printed fit is zero.
    """

    name = "ir-sweep"
    # one (theta, mu) draw per stratum: at D=2 the quadrature effort grows as
    # theta falls, so the strata fix the effort and the seed only moves values
    strata = ((0.5, 0.05, 0.1), (1.0, 0.3, 0.6), (2.0, 0.6, 1.0))
    n_higgs = {2: (0, 1, 2, 3), 4: (0, 1, 3, None)}

    def __init__(self, seed, workdir):
        rng = random.Random(f"ir-sweep/{seed}")
        draws = []
        for theta0, mu_lo, mu_hi in self.strata:
            theta = round(theta0 * 2 ** rng.uniform(-0.125, 0.125), 4)
            # mu <= 1 keeps |ptilde| * mu <= 0.1 over the whole supported window
            mu = round(rng.uniform(mu_lo, mu_hi), 4)
            # the CLI wants a window inside [1e-2, 1e-1] spanning a ratio of 8 or more
            p_min = round(rng.uniform(0.01, 0.0112), 5)
            p_max = round(rng.uniform(0.0905, 0.1), 5)
            draws.append((mu, theta, p_min, p_max))
        self.commands = []
        for D, choices in self.n_higgs.items():
            for n_higgs in choices:
                for n_points in (4, 8, 12):
                    for mu, theta, p_min, p_max in draws:
                        argv = ["oneloop", "--dim", str(D), "--mu", repr(mu),
                                "--theta", repr(theta), "--p-min", repr(p_min),
                                "--p-max", repr(p_max), "--n-points", str(n_points)]
                        if n_higgs is not None:
                            argv += ["--n-higgs", str(n_higgs)]
                        self.commands.append(argv)

    def run(self, main):
        return [(argv, *run_cli(main, argv)) for argv in self.commands]

    def check(self, outputs, pkg):
        problems = []
        failed = 0
        for argv, code, text in outputs:
            failed += code != 0
            m = _VERDICT.search(text)
            if m is None or code not in (0, 1) or (code == 1) != (m.group(3) == "FAIL"):
                problems.append(f"{' '.join(argv)}: exit {code} without a matching verdict")
                continue
            target, fitted = float(m.group(1)), float(m.group(2))
            zero_target = argv[2] == "2" and "--n-higgs" in argv and argv[-1] == "0"
            if zero_target:
                ok = target == 0.0 and abs(fitted) < 1e-6
            else:
                ok = code == 0 and abs(fitted - target) <= 0.02 * abs(target)
            if not ok:
                problems.append(f"{' '.join(argv)}: target {target}, fitted {fitted}, exit {code}")
        return len(outputs), failed, problems


WORKLOADS = {w.name: w for w in (VerifyD2, TablesD4, StarBulk, IrSweep)}
