"""The traced benchmark rebinds library names from outside the package
(``bench/workloads.py``, ``Traced.patched``).  Entering and leaving that
context here makes a deleted or renamed name fail the tests, not only a
``bench/run.py --trace 1`` run."""

import importlib
from pathlib import Path

from splitmono import distributed, linalg, precond
from splitmono.applications import gen_erm_hinge, gen_lin_ineq_qp, solve_nlp
from splitmono.fbhf import ConstantStep, SolveConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_run_rebinds_and_restores_library_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")

    def names():
        return (linalg.operator_norm, precond.resolvent_via_P,
                distributed.Graph.laplacian_apply)

    before = names()
    with workloads.Traced(spans.Spans()).patched():
        assert all(a is not b for a, b in zip(names(), before))
    assert names() == before


def test_traced_nlp_rebinding_reaches_solve_nlp_after_the_spec_is_cached(monkeypatch):
    # Traced.nlp rebinds saddle_spec on the instance; solve_nlp must call the
    # rebound one even when the problem has already built its spec
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    prob = gen_lin_ineq_qp(20, 2, 0)
    spec = prob.saddle_spec()
    assert prob.saddle_spec() is spec
    recorder = spans.Spans()
    traced = workloads.Traced(recorder).nlp(prob)
    report = solve_nlp(traced, ConstantStep(), SolveConfig(max_iterations=3, tolerance=1e-300))
    calls = {name: t["calls"] for name, t in recorder.totals().items()}
    assert report.iterations == 3
    assert calls == {"operators.resolvent": report.resolvent_evals,
                     "operators.b1": report.b1_evals, "operators.b2": report.b2_evals,
                     "operators.project": report.projections}


def test_benchmark_primal_dual_casts_match_the_constructors(monkeypatch):
    # the benchmark still builds its own primal-dual casts (the lin-ineq
    # dual block and the erm problem); swapping them for as_primal_dual
    # keeps every count and final iterate when these runs agree
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    cfg = SolveConfig(max_iterations=200, tolerance=1e-300)
    lin = workloads.SIZES["lin-ineq"]["smoke"]
    erm = workloads.SIZES["erm"]["smoke"]
    cells = {c.name: c.run for c in workloads.lin_ineq(0, "smoke", workloads.PLAIN).cells
             + workloads.erm(0, "smoke", workloads.PLAIN).cells}
    pairs = [(cells[f"condat-vu/{inst}"], gen_lin_ineq_qp(lin["N"], lin["p"], inst))
             for inst in workloads.LIN_INEQ_SEEDS]
    pairs.append((cells["corollary"], gen_erm_hinge(erm["d"], erm["m"], workloads.ERM_SEED)))
    for solve, prob in pairs:
        bench_pdp, *steps, _, z0 = solve.args
        bench = solve.func(bench_pdp, *steps, cfg, z0)
        ours = solve.func(prob.as_primal_dual(), *steps, cfg, z0)
        assert bench.iterations == 200
        assert ours.z.tobytes() == bench.z.tobytes()
        for key in ("iterations", "reason", "b1_evals", "b2_evals", "resolvent_evals"):
            assert getattr(ours, key) == getattr(bench, key), key
