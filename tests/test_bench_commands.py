"""The benchmark's command lines stay valid input for the CLI.

``bench/workloads.py`` builds real ``moyalcalc`` command lines. A flag that
the CLI drops or renames would break ``bench/run.py``; this test makes such
a change fail here instead.
"""

import importlib
import sys
from pathlib import Path

from moyalcalc.cli import _build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _parses(parser, argv):
    try:
        parser.parse_args(argv)
    except SystemExit:
        return False
    return True


def _print_x1(argv):
    """Stand-in for ``cli.main``: star-bulk reads a printed product back as an operand."""
    print("x1")
    return 0


def test_every_workload_command_line_parses(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    parser = _build_parser()
    seen = {}
    for name, workload in workloads.WORKLOADS.items():
        w = workload(1, str(tmp_path))
        if hasattr(w, "commands"):
            seen[name] = w.commands
        else:
            # star-bulk builds its chained command lines from earlier outputs
            seen[name] = [argv for argv, _code, _text in w.run(_print_x1)]
    assert set(seen) == {"verify-d2", "tables-d4", "star-bulk", "ir-sweep"}
    bad = [argv for argvs in seen.values() for argv in argvs if not _parses(parser, argv)]
    assert all(seen.values()) and bad == []
