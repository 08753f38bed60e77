"""Count contract: every SolveReport counter equals the oracle calls seen
from outside the solver.

Each case wraps the oracles it hands to a solver in plain counting closures
(the way the benchmark's traced probe does) and compares the calls observed
with ``b1_evals``, ``b2_evals``, ``resolvent_evals`` and ``projections``.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from splitmono import precond
from splitmono.applications import (erm_uniform_sigma_bound, gen_entropy_ls,
                                    gen_erm_hinge, gen_lin_ineq_qp,
                                    solve_erm_incremental)
from splitmono.distributed import Graph, GraphSequence, run_distributed
from splitmono.fbhf import (ConstantStep, LineSearch, SolveConfig, chi,
                            solve_fbhf, solve_forward_backward, solve_tseng_fbf)
from splitmono.operators import (ClosedConvexSet, MaximalMonotone, MonotoneMap,
                                 ProblemSpec, normal_cone_box, quadratic_gradient)
from splitmono.precond import (MetricSchedule, Preconditioner, solve_precond_fbhf,
                               solve_variable_metric)
from splitmono.primal_dual import (BlockPreconditioner, CorollaryParams, DualBlock,
                                   PrimalDualProblem, solve_block_triangular,
                                   solve_condat_vu, solve_corollary)

ITERS = 40
CFG = SolveConfig(max_iterations=ITERS, tolerance=1e-300)
rep = dataclasses.replace


class Tally:
    """Counting closures wrapped around oracles from outside."""

    def __init__(self):
        self.calls = {}

    def __call__(self, name, fn):
        self.calls.setdefault(name, 0)

        def counted(*args):
            self.calls[name] += 1
            return fn(*args)

        return counted

    def __getitem__(self, name):
        return self.calls.get(name, 0)

    def observed(self, **routed):
        """Calls seen per report counter; ``routed`` names the tally that
        stands for a counter where the solver's oracle is another call."""
        keys = {"b1": "b1", "b2": "b2", "res": "res", "proj": "proj", **routed}
        return {counter: self[name] for counter, name in keys.items()}

    def evaluate(self, name, op):
        return None if op is None else rep(op, evaluate=self(name, op.evaluate))

    def resolvent(self, name, op):
        return rep(op, resolvent=self(name, op.resolvent))

    def spec(self, spec):
        return rep(spec, A=self.resolvent("res", spec.A),
                   B1=self.evaluate("b1", spec.B1), B2=self.evaluate("b2", spec.B2),
                   X=rep(spec.X, project=self("proj", spec.X.project)))

    def pdp(self, pdp):
        return rep(pdp, A=self.resolvent("res", pdp.A),
                   C1=self.evaluate("b1", pdp.C1), C2=self.evaluate("b2", pdp.C2),
                   blocks=tuple(rep(b, B=self.resolvent("res", b.B)) for b in pdp.blocks))


def _lin_ineq():
    prob = gen_lin_ineq_qp(12, 2, seed=5)
    return prob, prob.saddle_spec()


def _entropy():
    prob = gen_entropy_ls(8, -0.4, seed=2)
    return prob.saddle_spec(), prob.default_start()


def _ls():
    return LineSearch(epsilon=0.5, sigma=0.9, theta=0.3)


def _metric_instance(X):
    """Linear A, B1, skew B2 on R^4 with P = U + S, U diagonal, S nonzero."""
    rng = np.random.default_rng(11)
    sk = rng.standard_normal((4, 4))
    b2 = 0.1 * (sk - sk.T) / 2.0
    spec = ProblemSpec(A=MaximalMonotone.from_matrix(np.diag([1.0, 0.5, 2.0, 1.5])),
                       B1=quadratic_gradient(0.5 * rng.standard_normal((2, 4)),
                                             rng.standard_normal(2)),
                       B2=MonotoneMap.from_matrix(b2), X=X, dimension=4)
    sp = rng.standard_normal((4, 4))
    pre = Preconditioner.from_matrix(np.diag([3.0, 3.5, 4.0, 4.5]) + 0.1 * (sp - sp.T) / 2.0,
                                     b2_matrix=b2)
    return spec, pre


def _box():
    return ClosedConvexSet.box(-0.05 * np.ones(4), 0.05 * np.ones(4))


def _counted_via_P(t, monkeypatch):
    monkeypatch.setattr(precond, "resolvent_via_P",
                        t("via_P", precond.resolvent_via_P))


def case_fbhf_constant(t, monkeypatch):
    prob, spec = _lin_ineq()
    gamma = 0.9 * chi(prob.beta, prob.data["L"])
    return solve_fbhf(t.spec(spec), ConstantStep(gamma=gamma), CFG), t.observed()


def case_fbhf_line_search(t, monkeypatch):
    spec, z0 = _entropy()
    return solve_fbhf(t.spec(spec), _ls(), CFG, z0), t.observed()


def case_tseng_constant(t, monkeypatch):
    prob, spec = _lin_ineq()
    gamma = 0.9 / (1.0 / prob.beta + prob.data["L"])
    return solve_tseng_fbf(t.spec(spec), ConstantStep(gamma=gamma), CFG), t.observed()


def case_tseng_line_search(t, monkeypatch):
    spec, z0 = _entropy()
    return solve_tseng_fbf(t.spec(spec), _ls(), CFG, z0), t.observed()


def case_forward_backward(t, monkeypatch):
    rng = np.random.default_rng(3)
    grad = quadratic_gradient(rng.standard_normal((4, 8)), rng.standard_normal(4))
    spec = ProblemSpec(A=normal_cone_box(np.zeros(8), np.ones(8)), B1=grad, B2=None,
                       X=ClosedConvexSet.whole_space(), dimension=8)
    return solve_forward_backward(t.spec(spec), 0.9 * grad.beta, CFG), t.observed()


def case_precond_scalar(t, monkeypatch):
    _counted_via_P(t, monkeypatch)
    spec, pre = _metric_instance(_box())
    pre = Preconditioner.from_matrix(4.0 * np.eye(4), b2_matrix=spec.B2.matrix)
    report = solve_precond_fbhf(t.spec(spec), pre, CFG)
    # the scalar preconditioner runs the main iteration on A and X themselves
    assert t["via_P"] == 0
    return report, t.observed()


def case_precond_general(t, monkeypatch):
    _counted_via_P(t, monkeypatch)
    spec, pre = _metric_instance(_box())
    spec = rep(spec, X=rep(spec.X, metric_project=t("metric_proj", spec.X.metric_project)))
    report = solve_precond_fbhf(t.spec(spec), pre, CFG)
    # the oracles are J_{P^{-1}A} and the U-metric projection; this route
    # calls neither A's own resolvent nor the plain projection
    assert t["res"] == t["proj"] == 0
    return report, t.observed(res="via_P", proj="metric_proj")


def case_variable_metric(t, monkeypatch):
    _counted_via_P(t, monkeypatch)
    spec, pre = _metric_instance(ClosedConvexSet.whole_space())
    report = solve_variable_metric(t.spec(spec), MetricSchedule.constant(pre), CFG)
    assert t["res"] == t["proj"] == 0
    return report, t.observed(res="via_P")


def _pd_instance(with_c2):
    rng = np.random.default_rng(4)
    sk = rng.standard_normal((5, 5))
    c2 = MonotoneMap.from_matrix(0.1 * (sk - sk.T) / 2.0) if with_c2 else None
    soft = MaximalMonotone(
        resolvent=lambda g, y: np.sign(y) * np.maximum(np.abs(y) - 0.3 * g, 0.0))
    neg = MaximalMonotone(resolvent=lambda g, y: np.minimum(y, 0.0))
    blocks = (DualBlock(B=soft, L=rng.standard_normal((3, 5)), r=rng.standard_normal(3)),
              DualBlock(B=neg, L=rng.standard_normal((2, 5))))
    return PrimalDualProblem(A=MaximalMonotone(resolvent=lambda g, y: np.clip(y, -1.0, 1.0)),
                             C1=quadratic_gradient(rng.standard_normal((5, 5)) + 2.0 * np.eye(5),
                                                   rng.standard_normal(5)),
                             C2=c2, blocks=blocks, dim=5)


_PD_SIGMAS = (0.02, 0.05, 0.05)


def case_block_triangular(t, monkeypatch):
    pdp = _pd_instance(with_c2=True)
    off = {(1, 0): -1.5 * pdp.blocks[0].L, (2, 0): -1.5 * pdp.blocks[1].L,
           (2, 1): 0.1 * np.ones((2, 3))}
    bp = BlockPreconditioner(diag_scalars=tuple(1.0 / s for s in _PD_SIGMAS), off_diag=off)
    return solve_block_triangular(t.pdp(pdp), bp, None, CFG), t.observed()


def case_corollary(t, monkeypatch):
    pdp = _pd_instance(with_c2=True)
    params = CorollaryParams(theta=0.5, sigmas=_PD_SIGMAS)
    return solve_corollary(t.pdp(pdp), params, CFG), t.observed()


def case_condat_vu(t, monkeypatch):
    pdp = _pd_instance(with_c2=False)
    return solve_condat_vu(t.pdp(pdp), 0.01, 0.05, CFG), t.observed()


def case_erm_incremental(t, monkeypatch):
    prob = gen_erm_hinge(4, 9, seed=0)
    prob = rep(prob, proxes=tuple(t("res", p) for p in prob.proxes))
    return solve_erm_incremental(prob, [0.99 * erm_uniform_sigma_bound(9)], None, CFG), t.observed()


def case_run_distributed(t, monkeypatch):
    proxes = [t("res", lambda g, v, c=float(c): (v + g * c) / (1.0 + g))
              for c in (1.0, -2.0, 0.5, 3.0)]
    report, _ = run_distributed(proxes, GraphSequence.alternating(Graph.path(4), Graph.ring(4)),
                                0.3, 0.3, CFG)
    return report, t.observed()


CASES = {name[5:]: fn for name, fn in globals().items() if name.startswith("case_")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_counts_equal_observed_calls(name, monkeypatch):
    t = Tally()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, observed = CASES[name](t, monkeypatch)
    assert report.iterations == ITERS
    assert report.resolvent_evals > 0
    assert {"b1": report.b1_evals, "b2": report.b2_evals, "res": report.resolvent_evals,
            "proj": report.projections} == observed


def test_line_search_cases_backtrack():
    # the line-search cases exercise rejected candidates, whose resolvent
    # and B2 calls are counted too
    for case in (case_fbhf_line_search, case_tseng_line_search):
        report, _ = case(Tally(), None)
        assert report.backtracks > 0
