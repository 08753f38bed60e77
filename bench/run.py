"""splitmono benchmark: time to tolerance on four workloads.

Run from the repository root:

    python3 bench/run.py --workload lin-ineq --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/selftest.py                      # smoke checks of the benchmark

Workloads (see workloads.py for the instances and the seeds):

    lin-ineq  fbhf, tseng, fbhf-ls and condat-vu on two linear-inequality QPs
    entropy   fbhf-ls and tseng-ls on the entropy-ball problem at four levels
    erm       incremental ERM against the corollary scheme on hinge-loss data
    metric    preconditioned, variable-metric and reference fbhf on a dense
              n = 200 instance, plus distributed consensus over three graph
              sequences

``--trace 0`` repeats the workload's solve grid for ``--seconds`` seconds and
reports the end-to-end metrics: the median grid time ``grid_s``, the median
set-up time ``setup_s``, the share of solves that pass their correctness
check ``solved_frac`` and the peak resident memory ``peak_rss_mb``.  Both
times are in reference seconds, CPU time corrected for the machine's speed
as sampled while the code runs (see refclock.py).
``--trace 1`` runs the grid once untraced and once with every layer wrapped
in spans, checks that both give bit-identical iterates and oracle counts,
and reports the per-layer metrics.  Spans are written to
``bench/out/spans-<workload>.npz``.

Each workload runs in a fresh child process with the BLAS and OpenMP thread
counts set to 1, one workload at a time.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("lin-ineq", "entropy", "erm", "metric")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 170


def _child(args) -> int:
    # thread counts must be fixed before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size, OUT)
    print(json.dumps(result))
    return 0


def _run_child(workload: str, args) -> dict | None:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"bench: {workload} printed no result", file=sys.stderr)
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: small instances for the self-test")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.child:
        return _child(args)
    if not (ROOT / "src" / "splitmono" / "__init__.py").is_file():
        print(f"bench: no splitmono sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = _run_child(name, args)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            print(f"result {name} {json.dumps(res)}")
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value for name, res in results.items()
                             for metric, value in res["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
