"""moyalcalc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Workloads (see ``workloads.py`` for
why each was chosen): verify-d2, tables-d4, star-bulk, ir-sweep. All load
comes from one single-threaded child interpreter per run, with BLAS thread
pools pinned to 1 and ``src`` on its path; workloads run one at a time.

Times are scaled to a fixed reference speed by ``probe.py``, because the
raw wall times of shared machines drift too far between runs; the raw
medians are printed on the comment lines. With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics:

* ``setup_s``: median over several fresh interpreters of the scaled time of
  ``import moyalcalc``;
* ``wall_s``: median scaled time of one pass over the workload's commands;
* ``peak_rss_mb``: peak resident memory of the process running the passes;
* ``ok_frac``: operations that succeeded / operations attempted, i.e. one
  minus the failure fraction (which is 0 on most workloads and so cannot
  carry a relative bound); any new failure lowers it.

With ``--trace 1`` it carries the per-layer metrics of one traced pass
instead (see ``spans.py``; their times are raw seconds) plus
``trace.overhead_s``, the traced pass's time minus ``wall_s``, both scaled
by the probe speed (the timer probe is off while tracing, so the traced pass
is scaled by probes run just before and after it), and the spans are
written to ``.bench_out/``. ``attempted`` and ``failed`` count operations
as each workload defines them; ``correct`` is false when a check of the
outputs found a wrong answer. The lines before it give provenance and the
sha256 of the captured CLI output, compared with ``baseline_digests.json``.
The digest is informational: a change may alter report bytes on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def source_id(root):
    """Git commit when the checkout is a repository, and a hash of the package source."""
    commit = "none"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((root / "src" / "moyalcalc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return commit, h.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "moyalcalc" / "__init__.py").is_file():
        print(f"error: no moyalcalc source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)

    setup_raw, setup = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            proc = subprocess.run([sys.executable, str(HERE / "probe.py")], env=env, cwd=root,
                                  capture_output=True, text=True, timeout=60, check=True)
            raw, scaled = map(float, proc.stdout.split())
            setup_raw.append(raw)
            setup.append(scaled)

    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_work")
    spans_path = None
    if args.trace:
        (root / ".bench_out").mkdir(exist_ok=True)
        spans_path = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    try:
        out = Path(workdir) / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir, "--out", str(out)]
        if spans_path:
            cmd += ["--spans", str(spans_path)]
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(out.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    baseline = json.loads((HERE / "baseline_digests.json").read_text(encoding="utf-8"))
    expected = baseline.get(args.workload, {}).get(str(args.seed))
    match = "no baseline" if expected is None else (
        "matches baseline" if expected == res["digest"] else "differs from baseline")
    commit, src = source_id(root)
    v = res["versions"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={v['python']} numpy={v['numpy']} "
          f"scipy={v['scipy']} commit={commit} src_sha256={src}")
    print(f"# passes={len(res['walls_s'])} walls_s={[round(w, 4) for w in res['walls_s']]} "
          f"raw median {statistics.median(res['raw_walls_s']):.4f} s; "
          f"fail_frac={res['failed'] / res['attempted']:.4f} "
          f"({res['failed']}/{res['attempted']})")
    if setup_raw:
        print(f"# setup_s samples={[round(x, 4) for x in setup]} "
              f"raw median {statistics.median(setup_raw):.4f} s")
    print(f"# output sha256={res['digest']} ({match})")
    for problem in res["problems"]:
        print(f"# problem: {problem}")

    if args.trace:
        print(f"# spans={res['spans']} written to {spans_path.relative_to(root)}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(res["walls_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1 - res["failed"] / res["attempted"], "unit": "fraction"},
        }
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
