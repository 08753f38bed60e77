"""Smoke checks of the benchmark itself, on small instances.

    python3 bench/selftest.py

1. Every workload, untraced and traced, prints a result line whose metrics
   are exactly those BENCHMARK.json declares, each with its unit.
2. A corrupted solution is caught by the workload's correctness check and
   counted as a failed solve.
3. The traced pass reproduces the untraced iterates and oracle counts bit
   for bit, the fidelity check notices a counter that differs, and the
   oracle spans of the fbhf-family solves count exactly the calls their
   reports declare.
4. Timing the solves with the reference clock, whose speed probes run
   inside them, leaves every iterate and counter unchanged.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from run import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 1

for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import workloads  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import PLAIN, run_cells  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_printed_metrics(declared) -> None:
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                   "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            what = f"{workload} --trace {trace}"
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{what}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{what}: correct with {result['attempted']} solves")
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            expect(got == want, f"{what}: every {kind} metric printed with its unit")
            expect(all(isinstance(v["value"], float) and math.isfinite(v["value"])
                       for v in result["metrics"].values()), f"{what}: finite values")


def check_corruption() -> None:
    for workload, build in workloads.WORKLOADS.items():
        grid = build(SEED, "smoke", PLAIN)
        outcomes, _ = run_cells(grid.cells, PLAIN)
        before = sum(bool(r) for r in grid.check(outcomes))
        victim = next(i for i, r in enumerate(grid.check(outcomes)) if not r)
        outcomes[victim].report.z = outcomes[victim].report.z + 1.0
        reasons = grid.check(outcomes)
        expect(bool(reasons[victim]) and sum(bool(r) for r in reasons) > before,
               f"{workload}: corrupted {outcomes[victim].name} counted as failed "
               f"({'; '.join(reasons[victim])})")


def check_fidelity() -> None:
    for workload, build in workloads.WORKLOADS.items():
        _, plain, traced, spans, _, _ = measure.paired_passes(build, SEED, "smoke")
        expect(measure.fidelity(plain, traced) == [],
               f"{workload}: traced iterates and counters equal the untraced ones")
        traced[0].report.iterations += 1
        expect(measure.fidelity(plain, traced) != [],
               f"{workload}: fidelity check flags a changed counter")
        traced[0].report.iterations -= 1
        ids = [i for i, o in enumerate(traced) if o.layer == "fbhf" and o.report is not None]
        if not ids:
            continue
        totals = spans.totals(ids)
        for span_name, counter in (("operators.resolvent", "resolvent_evals"),
                                   ("operators.b1", "b1_evals"), ("operators.b2", "b2_evals")):
            calls = totals.get(span_name, {}).get("calls", 0)
            declared = sum(getattr(traced[i].report, counter) for i in ids)
            expect(calls == declared,
                   f"{workload}: {span_name} spans ({calls}) match {counter} ({declared})")


def check_refclock() -> None:
    """The speed probes that RefClock runs inside the solves leave every
    iterate and counter unchanged."""
    for workload, build in workloads.WORKLOADS.items():
        plain, _ = run_cells(build(SEED, "smoke", PLAIN).cells, PLAIN)
        probed, _ = run_cells(build(SEED, "smoke", PLAIN).cells, PLAIN, RefClock())
        expect(measure.fidelity(plain, probed) == [],
               f"{workload}: iterates and counters unchanged under the reference clock")
        expect(all(math.isfinite(o.seconds) and o.seconds > 0.0 for o in probed),
               f"{workload}: positive reference times")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_printed_metrics(declared)
    check_corruption()
    check_fidelity()
    check_refclock()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
