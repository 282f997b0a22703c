"""The benchmark tracer's contract with the package.

``bench/spans.py`` wraps package functions by module and name, and wraps
``quad`` through ``moyalcalc.oneloop.integrate``. A rename, or a module that
the CLI no longer imports eagerly, breaks ``bench/run.py --trace 1``; this
test makes such a change fail here instead.
"""

import importlib
import sys
from pathlib import Path

import moyalcalc.cli  # noqa: F401  (loads every module the tracer wraps)
from moyalcalc import connections, graded, oneloop

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_install_rebinds_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    curvature, integrate = connections.curvature, oneloop.integrate
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert connections.curvature is not curvature
        assert connections.curvature.__wrapped__ is curvature
        assert oneloop.integrate is not integrate
    finally:
        tracer.uninstall()
    assert connections.curvature is curvature
    assert oneloop.integrate is integrate


def test_traced_cli_call_records_its_report_span(monkeypatch, capsys):
    # ``main`` must dispatch through the module-level ``_report_*`` names that
    # the tracer rebinds, also when the parser is built only once
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("run"):
            assert moyalcalc.cli.main(["star", "--dim", "2", "x1", "x2"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.summary("run")["cli.star"]["calls"] == 1


def test_traced_library_config_loaders_record_their_parses(monkeypatch):
    # the loaders parse through ``gauge.parse_components``, which must look
    # ``parse_expression`` up at call time, so a library call is traced too
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("run"):
            connections.connection_from_config({"D": 2, "components": {"d1": "x1", "d2": "x2^2"}})
            graded.graded_connection_from_config({"D": 2, "phi": "x1", "A0": {"d1": "x2"}})
    finally:
        tracer.uninstall()
    assert tracer.summary("run")["expressions.parse"]["calls"] == 4


def test_traced_oneloop_counts_the_ptpt_quadratures(monkeypatch, capsys):
    # the tracer counts ``quad`` through ``oneloop.integrate`` and
    # ``bessel_m`` through its module global: the fit integrates ptpt only,
    # once per bubble diagram (1, 2, 4) and momentum
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("run"):
            assert moyalcalc.cli.main(["oneloop", "--dim", "2", "--n-points", "4"]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary("run")
    assert summary["oneloop.quad"]["calls"] == 3 * 4
    assert summary["oneloop.bessel_m"]["calls"] > 0


def test_traced_verify_records_every_suite_span(monkeypatch, capsys):
    # ``run_suites`` must look its suites up in ``SUITES`` at call time: the
    # tracer rebinds the dict values, and a list captured at import would
    # bypass the wrappers and zero the per-suite metrics
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("run"):
            assert moyalcalc.cli.main(["verify", "--dim", "2"]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary("run")
    for suite in ("core", "derivations", "connections", "graded"):
        assert summary[f"verify.{suite}"]["calls"] == 1
        assert summary[f"verify.{suite}"]["incl_s"] > 0
