import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from moyalcalc.cli import CONVENTIONS, _build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_star_subcommand(capsys):
    code, out, _ = run_cli(["star", "--dim", "2", "x1", "x2"], capsys)
    assert code == 0
    assert "-0.5i + 1.0*x1*x2" in out
    assert "conventions" in out  # the header names the convention sheet


def test_star_parse_error_exits_2(capsys):
    code, _out, err = run_cli(["star", "--dim", "2", "x3", "x1"], capsys)
    assert code == 2
    assert "column" in err


@pytest.mark.parametrize(
    "left, right", [("W[1e400,0]", "W[0,1]"), ("W[1e308,0]", "W[1e308,1]")]
)
def test_star_non_finite_wave_exits_2(left, right, capsys):
    # an infinite input component, and a wave sum that overflows in the kernel
    code, out, err = run_cli(["star", "--dim", "2", left, right], capsys)
    assert code == 2
    assert err.startswith("error:") and "finite" in err
    assert out == ""


def test_star_deeply_nested_parentheses_exit_2(capsys):
    # the parser stops at its nesting limit instead of the recursion limit
    nested = "(" * 5000 + "x1" + ")" * 5000
    code, out, err = run_cli(["star", "--dim", "2", "--", nested, "1"], capsys)
    assert code == 2
    assert err.startswith("error:") and "column" in err
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "left, right", [("1e308", "1e308"), ("1e200*x1", "1e200*x2"), ("x2^200", "x1^200")]
)
def test_star_overflowing_coefficients_exit_2(left, right, capsys):
    # finite inputs whose product coefficients overflow to inf; the exact
    # coupling of x2^200 * x1^200 exceeds the float range
    code, out, err = run_cli(["star", "--dim", "2", left, right], capsys)
    assert code == 2
    assert err == "error: coefficients must be finite\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["star", "--dim", "2", "--theta", "inf", "x1", "x2"],
        ["verify", "--dim", "2", "--theta", "inf"],
        ["curvature"],
        ["oneloop", "--dim", "2", "--theta", "inf"],
        ["oneloop", "--dim", "2", "--mu", "nan"],
        ["oneloop", "--dim", "2", "--mu", "inf"],
    ],
)
def test_non_finite_parameters_exit_2(argv, tmp_path, capsys):
    if argv == ["curvature"]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"D": 2, "theta": Infinity, "components": {"d1": "x1"}}')
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "finite" in err


def test_verify_core_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--scope", "core", "--dim", "2", "--seed", "3"], capsys
    )
    assert code == 0
    assert "all checks passed" in out


def test_verify_invalid_dim_exits_2(capsys):
    code, _out, _err = run_cli(["verify", "--scope", "core", "--dim", "3"], capsys)
    assert code == 2


def test_verify_inconsistent_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"D": 2, "theta": 2.0}))
    code, _out, _err = run_cli(
        ["verify", "--scope", "core", "--config", str(cfg), "--theta", "1.0"], capsys
    )
    assert code == 2


def test_curvature_subcommand(tmp_path, capsys):
    cfg = tmp_path / "conn.json"
    cfg.write_text(
        json.dumps(
            {
                "D": 2,
                "theta": 1.0,
                "mu": 1.0,
                "alpha": 1.0,
                "basis": "G2",
                "components": {"d1": "0.3 W[1.0,0.5] + x1", "X12": "x1 x2"},
            }
        )
    )
    out_path = tmp_path / "table.txt"
    code, out, _ = run_cli(
        ["curvature", "--config", str(cfg), "--out", str(out_path)], capsys
    )
    assert code == 0
    assert "dual-path residual" in out
    assert out_path.read_text() == out


def test_graded_subcommand(tmp_path, capsys):
    cfg = tmp_path / "graded.json"
    cfg.write_text(
        json.dumps(
            {
                "D": 2,
                "m": 1.0,
                "phi": "0.3 + 0.2 W[0.5,0.5] + 0.2 W[-0.5,-0.5]",
                "A0": {"d1": "x2"},
                "A1": {"d1": "x2"},
            }
        )
    )
    code, out, _ = run_cli(["graded", "--config", str(cfg)], capsys)
    assert code == 0
    assert "F(J,J)" in out


_CONN_CFG = {
    "basis": "G2",
    "mu": 1.0,
    "alpha": 1.0,
    "components": {"d1": "0.3 W[1.0,0.5] + x1", "X12": "x1 x2"},
}
_GRADED_CFG = {
    "D": 2,
    "m": 1.0,
    "phi": "0.3 + 0.2 W[0.5,0.5] + 0.2 W[-0.5,-0.5]",
    "A0": {"d1": "x2"},
    "A1": {"d1": "x2"},
}

# D=4 tables pin the generator order of both bases and, through their nonzero
# residuals, the generic-path bits at four dimensions
_CONN_CFG_D4 = {
    "D": 4,
    "theta": 0.75,
    "mu": 0.7,
    "alpha": 1.0,
    "basis": "G2",
    "components": {
        "d1": "0.3 W[1.0,0.5,0,0] + x1",
        "d4": "x2 x3",
        "X13": "x1 x4",
        "X22": "0.5 W[0,0.25,-0.5,0]",
    },
}
_GRADED_CFG_D4 = {
    "D": 4,
    "theta": 0.3,
    "m": 1.0,
    "phi": "0.3 + 0.2 W[0.5,0.5,0,0] + 0.2 W[-0.5,-0.5,0,0]",
    "A0": {"d1": "x2", "d3": "0.5 W[0,0,0.25,0.5]"},
    "A1": {"d1": "x2", "d4": "x1 x3"},
    "G0": {"X12": "x1 x2", "X34": "0.25 W[0.5,0,0,-0.5]"},
}


@pytest.mark.parametrize(
    "command, cfg, flags, digest",
    [
        ("curvature", {"D": 2, "theta": 1.0, **_CONN_CFG}, [],
         "10fd7771850b917d1fc1e54c17ace6d4baa347f3b54ec39603fd2a8feb3b5893"),
        ("curvature", {"D": 2, **_CONN_CFG}, ["--theta", "0.75", "--mu", "0.7"],
         "eae3dda2cfa96a252cf6d27e7b246a539061e1667ad579d0a39d08dd0439a11a"),
        ("graded", _GRADED_CFG, [],
         "cc11d42969d9948b4cdaca965905ade20aaf158f0af5693601e043e91d251fac"),
        ("graded", _GRADED_CFG, ["--theta", "0.3"],
         "5df6d89b24e4e22f8973277cbcc2be96223fd28b4f675cb58a093794745174ee"),
        ("curvature", _CONN_CFG_D4, [],
         "868e1300b2c70b03f3f006334ea43844a42c7ad11334459b2d742fc7e445a18b"),
        ("graded", _GRADED_CFG_D4, [],
         "b6eb15ca87d23ec69f061ddb1d261cdf34a604498b5acd28b71df27168255cd2"),
    ],
)
def test_table_output_pinned(command, cfg, flags, digest, tmp_path, capsys):
    """sha256 of the whole table report: convention sheet, dual-path residual
    line and every row.  The flagged cases print a nonzero residual, so the
    generic curvature path is pinned to the bit as well."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli([command, "--config", str(path), *flags], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oneloop_csv_and_window_checks(tmp_path, capsys):
    out_csv = tmp_path / "ir.csv"
    code, out, _ = run_cli(
        [
            "oneloop",
            "--dim",
            "2",
            "--n-higgs",
            "3",
            "--n-points",
            "5",
            "--out",
            str(out_csv),
        ],
        capsys,
    )
    assert code == 0
    assert "target 0.954930" in out
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "ptilde_norm,c_fit,residual,D,N,mu,theta"
    assert len(lines) == 6
    # window violation is an input error
    code, _out, _err = run_cli(
        ["oneloop", "--dim", "2", "--p-max", "0.5"], capsys
    )
    assert code == 2


def test_oneloop_zero_target_passes(capsys):
    # D=2 with no Higgs fields has target 0; the fit is judged on one unit
    # of D + N - 2 instead of dividing by the target
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(["oneloop", "--dim", "2", "--n-higgs", "0"], capsys)
    assert code == 0
    assert "target 0.000000" in out
    assert "-> pass at 2.0%" in out


def test_bessel_check(capsys):
    code, out, _ = run_cli(["bessel-check"], capsys)
    assert code == 0
    assert "all checks passed" in out


def test_missing_config_exits_2(capsys):
    code, _out, err = run_cli(["curvature", "--config", "/nonexistent.json"], capsys)
    assert code == 2
    assert "cannot read config" in err


@pytest.mark.parametrize("command", ["curvature", "oneloop"])
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    # the write comes before any report line, so a failed write prints no verdict
    out_path = tmp_path / "missing" / "out.txt"
    if command == "curvature":
        cfg = tmp_path / "conn.json"
        cfg.write_text(json.dumps({"D": 2, "components": {"d1": "x1"}}))
        args = ["curvature", "--config", str(cfg)]
    else:
        args = ["oneloop", "--dim", "2", "--n-points", "4"]
    code, out, err = run_cli([*args, "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


_MINIMAL_CFG = {"curvature": {"D": 2, "components": {"d1": "x1"}}, "graded": {"D": 2}}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--scope", "derivations"], ["--tol", "1e-9"]),
        (["star", "x1", "x2"], ["--seed", "3"]),
        (["star", "x1", "x2"], ["--tol", "1e-9"]),
        (["curvature"], ["--seed", "3"]),
        (["curvature"], ["--alpha", "2.0"]),
        (["graded"], ["--seed", "3"]),
        (["graded"], ["--m", "2.0"]),
        (["graded"], ["--mu", "2.0"]),
        (["oneloop", "--n-points", "4"], ["--seed", "3"]),
        (["bessel-check"], ["--dim", "2"]),
        (["bessel-check"], ["--theta", "0.5"]),
        (["bessel-check"], ["--tol", "1e-9"]),
    ],
)
def test_flags_no_report_reads_exit_2(argv, flag, tmp_path, capsys):
    if argv[0] in _MINIMAL_CFG:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_MINIMAL_CFG[argv[0]]))
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run_cli([*argv, *flag], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage:") and "unrecognized arguments" in err


def test_each_subcommand_declares_only_the_flags_it_reads():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {a.dest for a in p._actions if a.dest != "help"} for name, p in sub.choices.items()
    }
    structure = {"dim", "theta"}
    assert declared == {
        "verify": structure | {"seed", "scope", "config"},
        "star": structure | {"left", "right"},
        "curvature": structure | {"tol", "config", "out", "mu"},
        "graded": structure | {"tol", "config", "out"},
        "oneloop": structure | {"tol", "mu", "n_higgs", "p_min", "p_max", "n_points", "out"},
        "bessel-check": {"seed"},
    }
    assert sum(map(len, declared.values())) == 30


def test_byte_identical_reruns(tmp_path):
    """Identical invocations produce byte-identical outputs."""
    cmd = [
        sys.executable,
        "-m",
        "moyalcalc.cli",
        "verify",
        "--scope",
        "derivations",
        "--dim",
        "2",
        "--seed",
        "11",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    r1 = subprocess.run(cmd, capture_output=True, env=env)
    r2 = subprocess.run(cmd, capture_output=True, env=env)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_graded_ignores_the_mu_key(tmp_path, capsys):
    cfg = tmp_path / "graded.json"
    cfg.write_text(json.dumps(_GRADED_CFG | {"mu": 0}))
    code, out, _ = run_cli(["graded", "--config", str(cfg)], capsys)
    assert code == 0
    assert "F(J,J)" in out


@pytest.mark.parametrize(
    "command, scale",
    [
        ("curvature", {"alpha": math.nan}),
        ("curvature", {"alpha": math.inf}),
        ("curvature", {"mu": math.nan}),
        ("graded", {"m": math.nan}),
        ("graded", {"m": math.inf}),
    ],
)
def test_non_finite_scales_exit_2(command, scale, tmp_path, capsys):
    fields = {"components": {"d1": "x1"}} if command == "curvature" else {"A0": {"d1": "x2"}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"D": 2, "theta": 1.0, **fields, **scale}))
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "finite" in err


@pytest.mark.parametrize("dim, theta", [("2", "1e-13"), ("4", "1e-13"), ("2", "1e-160")])
def test_verify_center_witness_at_tiny_theta_fails_without_traceback(dim, theta, capsys):
    # pruning drops every O(theta) commutator, so no monomial moves: the
    # witness reads 1e300 instead of dividing by zero
    code, out, err = run_cli(
        ["verify", "--scope", "core", "--dim", dim, "--theta", theta], capsys
    )
    assert code == 1
    assert (
        "FAIL  core         center witness (monomials move)  residual 1.000e+300  tol 1e+12\n"
        in out
    )
    assert err == ""


def test_bessel_check_stdout_pinned(capsys):
    code, out, err = run_cli(["bessel-check", "--seed", "1"], capsys)
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        *CONVENTIONS.splitlines(),
        "K recurrence residual      1.146e-16  tol 1e-10",
        "Wronskian I K' + I' K      8.187e-16  tol 1e-9",
        "K_-Q = K_Q                 0.000e+00  tol 1e-14",
        "small-argument M_-Q law    2.611e-04  tol 1e-2",
        "# all checks passed",
    ]


@pytest.mark.parametrize(
    "command, text",
    [
        ("curvature", '{"D": 2, "mu": null}'),
        ("curvature", '{"D": 2, "alpha": [1]}'),
        ("curvature", '{"D": 2, "components": [1]}'),
        ("curvature", '{"D": 2, "components": "x1"}'),
        ("curvature", '{"D": 2, "components": {"d1": 5}}'),
        ("graded", '{"D": 2, "m": null}'),
        ("graded", '{"D": 2, "G0": [1]}'),
        ("graded", '{"D": 2, "phi": 3}'),
        ("graded", '{"D": 2, "A0": {"d1": 2.5}}'),
        ("verify", '{"D": null}'),
        ("verify", '{"theta": [1]}'),
        ("verify", '{"D": 1e400}'),
        ("verify", '{"D": 4.9}'),
        ("curvature", '{"D": null}'),
        ("curvature", '{"theta": [1]}'),
        ("curvature", '{"D": 1e400}'),
        ("curvature", '{"D": 4.9}'),
        ("graded", '{"D": 4.9}'),
        ("curvature", '{"D": 2, "components": []}'),
        ("curvature", '{"D": 2, "components": ""}'),
        ("curvature", '{"D": 2, "components": 0}'),
        ("curvature", '{"D": 2, "components": false}'),
        ("graded", '{"D": 2, "A0": []}'),
        ("graded", '{"D": 2, "G0": false}'),
    ],
)
def test_malformed_config_values_exit_2(command, text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("dim", ["2", "4"])
def test_oneloop_overflowing_momentum_exits_2(dim, capsys):
    # |ptilde| = 1e-2 at theta 1e-160 needs |p| = 1e158, whose square is inf
    code, out, err = run_cli(["oneloop", "--dim", dim, "--theta", "1e-160"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: external momentum") and err.count("\n") == 1


@pytest.mark.parametrize("dim, message", [("2", "underflows to zero"), ("4", "out of float range")])
def test_oneloop_underflowing_masters_exit_2(dim, message, capsys):
    # |ptilde| = 1e-2 at theta 1e-150 puts the loop masses near 5e147, where
    # K_1 underflows (D = 2) and m^4 does (D = 4)
    code, out, err = run_cli(["oneloop", "--dim", dim, "--theta", "1e-150"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


def test_oneloop_in_range_tails_still_fit(capsys):
    # at theta 1e-6 the D = 2 integrands of the larger |ptilde| underflow in
    # the middle of [0, 1] but not near its ends, so the fit runs and is judged
    code, out, err = run_cli(["oneloop", "--dim", "2", "--theta", "1e-6"], capsys)
    assert code in (0, 1)
    assert err == ""
    assert out.splitlines()[-1].startswith("target ")


@pytest.mark.parametrize("command", ["curvature", "graded", "oneloop"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_exits_2(command, tol, tmp_path, capsys):
    argv = [command, "--tol", tol]
    if command != "oneloop":
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"D": 2}')
        argv += ["--config", str(cfg)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tol must be finite and nonnegative") and err.count("\n") == 1
