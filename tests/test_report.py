"""What a solve report carries: a fixed amount of state by default, the whole
per-iteration history under ``keep_iterates``, and the fields that the
benchmark's fidelity and consensus checks read."""

import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from splitmono.applications import (erm_uniform_sigma_bound, gen_entropy_ls,
                                    gen_erm_hinge, gen_lin_ineq_qp,
                                    solve_erm_incremental)
from splitmono.distributed import Graph, GraphSequence, _spread, run_distributed
from splitmono.fbhf import (ConstantStep, LineSearch, SolveConfig,
                            _relative_change, chi, half_inverse, solve_fbhf,
                            solve_forward_backward, solve_tseng_fbf)
from splitmono.operators import (ClosedConvexSet, MaximalMonotone, ProblemSpec,
                                 quadratic_gradient)
from splitmono.primal_dual import solve_condat_vu

ENTROPY = gen_entropy_ls(8, -0.4, seed=2)
QP = gen_lin_ineq_qp(12, 2, seed=5)
ERM = gen_erm_hinge(3, 7, seed=0)
LS = LineSearch(epsilon=0.5, sigma=0.9, theta=0.3)
SIGMA_BAR = 0.01


def fbhf_line_search(cfg):
    return solve_fbhf(ENTROPY.saddle_spec(), LS, cfg, ENTROPY.default_start())


def fbhf_constant(cfg):
    return solve_fbhf(QP.saddle_spec(), ConstantStep(gamma=0.9 * chi(QP.beta, QP.data["L"])),
                      cfg)


def tseng_constant(cfg):
    gamma = 0.9 / (1.0 / QP.beta + QP.data["L"])
    return solve_tseng_fbf(QP.saddle_spec(), ConstantStep(gamma=gamma), cfg)


def tseng_line_search(cfg):
    return solve_tseng_fbf(ENTROPY.saddle_spec(), LS, cfg, ENTROPY.default_start())


def condat_vu(cfg):
    tau = 1.0 / (half_inverse(QP.beta) + SIGMA_BAR * QP.data["L"] ** 2)
    return solve_condat_vu(QP.as_primal_dual(), tau, SIGMA_BAR, cfg)


def erm_incremental(cfg):
    return solve_erm_incremental(ERM, [0.99 * erm_uniform_sigma_bound(7)], None, cfg)


def distributed_consensus(cfg):
    # a path of 8 agents at step 0.05 is still moving after 2000 rounds
    # (consensus error about 5e-9), so a stop at 1e-300 runs to the cap
    centers = np.random.default_rng(7).standard_normal((8, 1))
    proxes = [lambda g, v, c=c: (v + g * c) / (1.0 + g) for c in centers]
    return run_distributed(proxes, GraphSequence.fixed(Graph.path(8)), 0.05, 0.05, cfg)


def forward_backward(cfg):
    rng = np.random.default_rng(3)
    grad = quadratic_gradient(rng.standard_normal((6, 8)), rng.standard_normal(6))
    spec = ProblemSpec(A=MaximalMonotone.zero(), B1=grad, B2=None,
                       X=ClosedConvexSet.whole_space(), dimension=8)
    return solve_forward_backward(spec, 0.9 * grad.beta, cfg)


def retained_bytes(solve):
    """Bytes still allocated after ``solve()`` returns, and its output, kept
    alive while the bytes are counted: a report, or the (report, trace)
    pair of ``run_distributed``."""
    was_tracing = tracemalloc.is_tracing()
    gc.collect()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = solve()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, out
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("solve", [fbhf_line_search, tseng_constant, condat_vu,
                                   erm_incremental, distributed_consensus])
def test_report_memory_does_not_grow_with_iterations(solve):
    # a stop at 1e-300 runs to the cap; the first run fills lazy caches.  A
    # history list or a consensus trace holding one float per iteration would
    # retain 64 kB or more at 2000.  What may differ is a few counter ints
    # beyond the small-int cache.
    def run(n):
        return solve(SolveConfig(max_iterations=n, tolerance=1e-300))

    def report_of(out):
        return out[0] if isinstance(out, tuple) else out

    run(2000)
    short_bytes, short = retained_bytes(lambda: run(20))
    long_bytes, long = retained_bytes(lambda: run(2000))
    short, long = report_of(short), report_of(long)
    assert long.iterations >= 100 * short.iterations
    assert long.residuals is None and long.iterates is None and long.gammas is None
    assert long_bytes - short_bytes < 1024


STEPPED = [fbhf_line_search, fbhf_constant, tseng_constant, tseng_line_search,
           forward_backward]


@pytest.mark.parametrize("solve", STEPPED + [condat_vu, erm_incremental])
def test_kept_history_is_one_entry_per_iteration(solve):
    cfg = SolveConfig(max_iterations=300, tolerance=1e-300, keep_iterates=True)
    r = solve(cfg)
    assert len(r.residuals) == r.iterations == len(r.iterates) - 1
    for k, rel in enumerate(r.residuals):
        assert rel == _relative_change(r.iterates[k + 1], r.iterates[k])
    assert r.residuals[-1] == r.residual
    if solve in STEPPED:
        assert len(r.gammas) == r.iterations and r.gammas[-1] == r.gamma
    else:
        assert r.gamma is None and r.gammas is None
    slim = solve(dataclasses.replace(cfg, keep_iterates=False))
    assert np.array_equal(slim.z, r.z) and slim.iterations == r.iterations
    assert slim.residual == r.residual and slim.gamma == r.gamma


def test_kept_line_search_steps_are_the_searched_steps():
    r = fbhf_line_search(SolveConfig(max_iterations=50, tolerance=1e-300,
                                     keep_iterates=True))
    spec = ENTROPY.saddle_spec()
    assert len(set(r.gammas)) > 1
    one_step = SolveConfig(max_iterations=1, tolerance=1e-300)
    for z, gamma in zip(r.iterates, r.gammas):
        assert gamma == solve_fbhf(spec, LS, one_step, z).gamma


def test_fields_the_benchmark_reads():
    # bench/measure.py compares these fields between its untraced and traced
    # passes; a missing one would make that fidelity check fail or pass vacuously
    r = fbhf_line_search(SolveConfig(max_iterations=40, tolerance=1e-300))
    assert isinstance(r.z, np.ndarray) and r.z.shape == (ENTROPY.saddle_spec().dimension,)
    assert r.iterations == 40 and r.reason == "max_iter"
    counters = (r.b1_evals, r.b2_evals, r.resolvent_evals, r.backtracks)
    assert all(type(c) is int for c in counters)
    assert r.b1_evals == r.iterations and r.resolvent_evals == r.iterations + r.backtracks


def test_distributed_trace_has_one_consensus_value_per_round():
    # the benchmark's consensus error and criterion 12 read this trace; an
    # empty one would pass both without checking anything.  The trace follows
    # keep_iterates: one value per round when kept, else the last one alone.
    rng = np.random.default_rng(7)
    n, h = 4, 2
    centers = rng.standard_normal((n, h))
    proxes = [lambda g, v, c=c: (v + g * c) / (1.0 + g) for c in centers]

    def run(keep):
        return run_distributed(proxes, GraphSequence.fixed(Graph.ring(n)), 0.2, 0.2,
                               SolveConfig(max_iterations=60, tolerance=1e-300,
                                           keep_iterates=keep),
                               block_dim=h)

    out = run(True)
    assert isinstance(out, tuple) and len(out) == 2
    report, trace = out
    assert len(trace) == report.iterations == 60
    assert all(math.isfinite(v) for v in trace)
    assert trace[-1] == _spread(report.block(0).reshape(n, h))
    assert trace[-1] < trace[0]
    _, default_trace = run(False)
    assert default_trace == [trace[-1]]
