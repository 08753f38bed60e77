"""Measurement passes of one workload, run inside the workload's own process.

The untraced run gives the end-to-end metrics; the traced run repeats the
grid with every layer wrapped and gives the per-layer metrics.  Both call
the package only through its public API.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import workloads
from refclock import RefClock
from spans import Spans
from workloads import PLAIN, Traced, run_cells

SETUP_BATCH_S = 0.2
MIN_PASSES = 3
COUNTERS = ("iterations", "b1_evals", "b2_evals", "resolvent_evals", "backtracks")

END_TO_END = {"grid_s": "s", "setup_s": "s", "solved_frac": "frac", "peak_rss_mb": "MB"}

_CALLS_AND_S = ["operators.resolvent", "operators.b1", "operators.b2", "operators.project",
                "primal_dual.primal_resolvent", "primal_dual.dual_resolvent",
                "applications.erm.prox", "precond.resolvent_via_P", "precond.solve_P",
                "precond.solve_U", "linalg.power", "distributed.metric_norm",
                "distributed.laplacian_apply"]
PER_LAYER = {
    "fbhf.iterations": "count", "fbhf.us_per_iter": "us", "fbhf.self_s": "s",
    "fbhf.backtracks": "count", "fbhf.ls_accept_ratio": "ratio",
    "primal_dual.iterations": "count", "primal_dual.us_per_iter": "us",
    "primal_dual.self_s": "s",
    "applications.erm.iterations": "count", "applications.erm.us_per_iter": "us",
    "applications.erm.self_s": "s", "applications.gen.s": "s",
    "precond.iterations": "count", "precond.us_per_iter": "us", "precond.from_matrix.s": "s",
    "distributed.rounds": "count", "distributed.us_per_round": "us",
    "distributed.consensus_error": "norm",
    "cli.cell_overhead_ms": "ms", "trace.overhead_frac": "frac",
}
for _name in _CALLS_AND_S:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.s"] = "s"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "threads": {k: os.environ.get(k) for k in sorted(os.environ)
                        if k.endswith("_NUM_THREADS")}}


def _failures(reasons: list[list[str]], outcomes) -> dict[str, str]:
    return {o.name: "; ".join(r) for o, r in zip(outcomes, reasons) if r}


def _untraced(build, seed, size, seconds):
    """Repeat set-up and grid until the time is up, and at least MIN_PASSES
    times, so that every median has three samples: before every pass the
    instances are built afresh for SETUP_BATCH_S (at least once), so that
    lazily cached constants are paid on every pass and set-up samples
    spread over the whole run.

    Builds and solves are timed in reference seconds, CPU time corrected
    for the machine's speed (see refclock.py): the machine the benchmark
    was written on has slow spells that add up to 90% to any code running
    through them, and a whole run can fall in them.  ``grid_s`` sums every solve's median over the passes and
    ``setup_s`` is the median build.
    """
    clock = RefClock()
    t_end = time.perf_counter() + seconds
    setup, times, cpus, failed = [], [], [], {}
    while True:
        t_pass = time.perf_counter()
        grid = None
        while grid is None or time.perf_counter() < t_pass + SETUP_BATCH_S:
            with clock:
                grid = build(seed, size, PLAIN)
            setup.append(clock.elapsed)
        gc.collect()
        cpu = clock.cpu
        outcomes, _ = run_cells(grid.cells, PLAIN, clock)
        cpus.append(clock.cpu - cpu)
        times.append([o.seconds for o in outcomes])
        failed.update(_failures(grid.check(outcomes), outcomes))
        t_now = time.perf_counter()
        if len(times) >= MIN_PASSES and 2 * t_now - t_pass > t_end:
            break
    print(f"grid CPU seconds per pass: {' '.join(f'{c:.3f}' for c in cpus)}")
    metrics = {"grid_s": sum(statistics.median(ts) for ts in zip(*times)),
               "setup_s": statistics.median(setup),
               "solved_frac": 1.0 - len(failed) / len(grid.cells),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return len(grid.cells), failed, metrics, []


def fidelity(plain, traced) -> list[str]:
    """Solves whose final iterate or counters differ between the untraced
    and the traced pass."""
    out = []
    for a, b in zip(plain, traced):
        if a.error != b.error or (a.report is None) != (b.report is None):
            out.append(f"{a.name}: outcome differs ({a.error!r} vs {b.error!r})")
            continue
        if a.report is None:
            continue
        diff = [c for c in COUNTERS if getattr(a.report, c) != getattr(b.report, c)]
        if not np.array_equal(a.report.z, b.report.z, equal_nan=True):
            diff.append("final iterate")
        if diff:
            out.append(f"{a.name}: {', '.join(diff)} differ")
    return out


def layer_metrics(plain, traced, spans: Spans, overhead_frac: float,
                  cli_ms: float) -> dict[str, float]:
    totals = spans.totals()
    m = {name: 0.0 for name in PER_LAYER}

    def span(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def solver(prefix, layer, iterations="iterations", per="us_per_iter"):
        outs = [o for o in plain if o.layer == layer and o.report is not None]
        its = sum(o.report.iterations for o in outs)
        m[f"{prefix}.{iterations}"] = its
        m[f"{prefix}.{per}"] = 1e6 * sum(o.seconds for o in outs) / its if its else 0.0
        if f"{prefix}.self_s" in m:
            m[f"{prefix}.self_s"] = span(f"{layer}.solve", "self_s")
        return outs

    fbhf = solver("fbhf", "fbhf")
    m["fbhf.backtracks"] = sum(o.report.backtracks for o in fbhf)
    ls_ids = [i for i, o in enumerate(traced) if o.line_search and o.report is not None]
    ls_resolvents = spans.totals(ls_ids).get("operators.resolvent", {}).get("calls", 0)
    if ls_resolvents:
        m["fbhf.ls_accept_ratio"] = sum(traced[i].report.iterations for i in ls_ids) / ls_resolvents
    solver("primal_dual", "primal_dual")
    solver("applications.erm", "applications.erm")
    solver("precond", "precond")
    dist = solver("distributed", "distributed", "rounds", "us_per_round")
    m["distributed.consensus_error"] = max((o.trace[-1] for o in dist if o.trace), default=0.0)
    for name in _CALLS_AND_S:
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.s"] = span(name, "s")
    m["applications.gen.s"] = span("applications.gen", "s")
    m["precond.from_matrix.s"] = span("precond.from_matrix", "s")
    m["cli.cell_overhead_ms"] = cli_ms
    m["trace.overhead_frac"] = overhead_frac
    return m


def paired_passes(build, seed, size):
    """One untraced and one traced pass over the same inputs.  Returns the
    untraced grid, both outcome lists, the spans and both grid times."""
    grid = build(seed, size, PLAIN)
    gc.collect()
    plain, wall_plain = run_cells(grid.cells, PLAIN)
    spans = Spans()
    probe = Traced(spans)
    with probe.patched():
        with spans.span("setup"):
            traced_grid = build(seed, size, probe)
        gc.collect()
        traced, wall_traced = run_cells(traced_grid.cells, probe)
    return grid, plain, traced, spans, wall_plain, wall_traced


def _traced(build, seed, size, out_dir: Path, workload: str):
    grid, plain, traced, spans, wall_plain, wall_traced = paired_passes(build, seed, size)
    failed = _failures(grid.check(plain), plain)
    problems = fidelity(plain, traced)

    cli_ms = 0.0
    if workload == "lin-ineq":
        cli_ms, error = workloads.cli_overhead_ms(size, out_dir / "cli-lin-ineq")
        if error:
            problems.append(f"CLI grid: {error}")
    out_dir.mkdir(parents=True, exist_ok=True)
    spans.dump(out_dir / f"spans-{workload}.npz")
    metrics = layer_metrics(plain, traced, spans, wall_traced / wall_plain - 1.0, cli_ms)
    return len(grid.cells), failed, metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        out_dir: Path) -> dict:
    """Measure one workload and return the result object of the benchmark."""
    print("env " + json.dumps(environment()), flush=True)
    build = workloads.WORKLOADS[workload]
    if trace:
        attempted, failed, metrics, problems = _traced(build, seed, size, out_dir, workload)
        units = PER_LAYER
    else:
        attempted, failed, metrics, problems = _untraced(build, seed, size, seconds)
        units = END_TO_END
    known = workloads.KNOWN_FAILURES.get(workload, frozenset())
    for name, reason in failed.items():
        tag = "known failure" if name in known else "failed"
        print(f"{tag} {workload} {name}: {reason}")
    for problem in problems:
        print(f"trace check {workload}: {problem}")
    correct = not problems and set(failed) <= known
    return {"correct": correct, "attempted": attempted, "failed": len(failed),
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()}}
