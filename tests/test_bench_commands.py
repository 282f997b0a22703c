"""The benchmark's command lines stay valid input for the CLI.

``bench/workloads.py`` builds real ``moyalcalc`` command lines. A flag that
the CLI drops or renames would break ``bench/run.py``; this test makes such
a change fail here instead.
"""

import importlib
import sys
from pathlib import Path

import moyalcalc.elements as kernel
from moyalcalc.cli import _build_parser, main

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


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("workloads")


def test_every_workload_command_line_parses(monkeypatch, tmp_path):
    workloads = _workloads(monkeypatch)
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


def test_star_bulk_prints_the_same_through_both_merges(monkeypatch, tmp_path):
    # the benchmark's large products, merged by the pair loop and by the
    # batched merge, must print the same bytes
    star_bulk = _workloads(monkeypatch).WORKLOADS["star-bulk"](1, str(tmp_path))
    with monkeypatch.context() as mp:
        mp.setattr(kernel, "_BATCH_PAIRS", 10**9)
        looped = star_bulk.run(main)
    batches = []
    merge = kernel._BatchedMerge
    monkeypatch.setattr(kernel, "_BatchedMerge", lambda: batches.append(1) or merge())
    assert star_bulk.run(main) == looped
    assert [code for _argv, code, _text in looped] == [0] * 6
    assert len(batches) >= 4
