"""The four benchmark workloads: instances, solve grids and correctness checks.

Instance data come from fixed generator seeds, each chosen for the reason
given next to it.  The run seed (``--seed``) draws the starting point of
every solve: a perturbation of radius ``START_RADIUS`` around the solver's
default start, projected back where the solver needs a feasible start.
So every seed gives different inputs, while the iteration counts, and
with them the time to tolerance, stay within a few percent from seed to
seed (the most sensitive solve, tseng-ls at r = -0.4, varies by 4%).  A
fresh instance draw would move them by 60% or more (lin-ineq fbhf takes
1.7k to 11k iterations over generator seeds 0..19), which no time bound
could absorb.

Every public callable the solves go through is reached via a ``probe``.
The untraced run passes ``PLAIN``, which hands every object back
unchanged.  The traced run passes a ``Traced`` probe, which wraps the
oracles and layer entry points from outside, so the package itself is
never edited.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from splitmono import applications, cli, distributed, linalg, operators, precond, primal_dual
from splitmono.applications import (erm_uniform_sigma_bound, gen_entropy_ls, gen_erm_hinge,
                                    gen_lin_ineq_qp, solve_erm_incremental, solve_nlp)
from splitmono.distributed import Graph, GraphSequence, run_distributed
from splitmono.fbhf import ConstantStep, LineSearch, SolveConfig, SolveReport, solve_fbhf
from splitmono.operators import (ClosedConvexSet, DomainError, MaximalMonotone, MonotoneMap,
                                 ProblemSpec, quadratic_gradient, scalar_monotone)
from splitmono.precond import (MetricSchedule, Preconditioner, solve_precond_fbhf,
                               solve_variable_metric)
from splitmono.primal_dual import (CorollaryParams, DualBlock, PrimalDualProblem,
                                   solve_condat_vu, solve_corollary)

from refclock import WallClock

START_RADIUS = 0.001

# Instance sizes: "full" is what the benchmark measures, "smoke" is the
# small size the self-test runs.
SIZES = {
    "lin-ineq": {"full": {"N": 200, "p": 20}, "smoke": {"N": 20, "p": 2}},
    "entropy": {"full": {"N": 20, "r_fractions": (-0.2, -0.4, -0.6, -0.8)},
                "smoke": {"N": 20, "r_fractions": (-0.8,)}},
    "erm": {"full": {"d": 6, "m": 15}, "smoke": {"d": 3, "m": 8}},
    "metric": {"full": {"n": 200, "agents": 5, "rounds": 2000},
               "smoke": {"n": 20, "agents": 3, "rounds": 200}},
}

# Generator seeds.
# lin-ineq 0, 1: the CLI demo seeds; 0 is a slow instance (8.8k fbhf
#   iterations), 1 a medium one (4.8k).
# entropy 0: its fbhf-ls backtracking spans 0 per iteration (r = -0.2) to
#   8.5 per iteration (r = -0.4); on seed 1 fbhf-ls never backtracks.
# erm 0: at d = 6, m = 15 it converges in 2.6k (incremental) and 5.4k
#   (corollary) iterations; seeds 2 and 4 take 2-10x longer and seed 3
#   stops at the 150k cap without converging.
# metric 0: any seed gives the same spectra up to O(n^-1/2); 0 is the first.
LIN_INEQ_SEEDS = (0, 1)
ENTROPY_SEED = 0
ERM_SEED = 0
METRIC_SEED = 0

# Solves that fail at the time the benchmark was written: the distributed
# consensus over time-varying graphs settles into a cycle instead of
# converging (acceptance criterion 12).  They stay in the workload and
# count as failed; `correct` only turns false on a failure not listed here.
KNOWN_FAILURES = {"metric": frozenset({"distributed-alternating", "distributed-random"})}

# Distance allowed between the precond / variable-metric iterates and the
# fbhf reference, relative to 1 + ||reference||, at tolerance 1e-9.  The
# baseline distances are at most 2.9e-9 for run seeds 0..9, so the bound
# keeps a margin of 35x.
METRIC_AGREEMENT = 1e-7


# ---------------------------------------------------------------------------
# probes


class Plain:
    """Hooks of the untraced run: every object passes through unchanged."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def spec(self, spec: ProblemSpec) -> ProblemSpec:
        return spec

    def nlp(self, prob):
        return prob

    def pdp(self, pdp: PrimalDualProblem) -> PrimalDualProblem:
        return pdp

    def erm(self, prob):
        return prob

    def pre(self, pre: Preconditioner) -> Preconditioner:
        return pre

    def begin_solve(self, index: int) -> None:
        pass


PLAIN = Plain()

# module attributes that hold the power-iteration entry points
_POWER_NAMES = [(linalg, "operator_norm"), (linalg, "symmetric_min_eig"),
                (operators, "operator_norm"), (applications, "operator_norm"),
                (precond, "operator_norm"), (precond, "symmetric_min_eig"),
                (primal_dual, "operator_norm"), (primal_dual, "symmetric_min_eig"),
                (distributed, "operator_norm")]


class Traced(Plain):
    """Hooks of the traced run: oracles and layer entry points are wrapped
    so that each call is recorded as a span."""

    def __init__(self, spans):
        self.spans = spans

    def call(self, name, fn, *args, **kwargs):
        with self.spans.span(name):
            return fn(*args, **kwargs)

    def _wrap(self, name, fn):
        return self.spans.wrap(name, fn)

    def _evaluate(self, name, op):
        return None if op is None else dataclasses.replace(
            op, evaluate=self._wrap(name, op.evaluate))

    def spec(self, spec):
        rep = dataclasses.replace
        return rep(spec,
                   A=rep(spec.A, resolvent=self._wrap("operators.resolvent", spec.A.resolvent)),
                   B1=self._evaluate("operators.b1", spec.B1),
                   B2=self._evaluate("operators.b2", spec.B2),
                   X=rep(spec.X, project=self._wrap("operators.project", spec.X.project)))

    def nlp(self, prob):
        build = prob.saddle_spec
        prob.saddle_spec = lambda: self.spec(build())
        return prob

    def pdp(self, pdp):
        rep = dataclasses.replace
        dual = [rep(b, B=rep(b.B, resolvent=self._wrap("primal_dual.dual_resolvent",
                                                        b.B.resolvent)))
                for b in pdp.blocks]
        return rep(pdp,
                   A=rep(pdp.A, resolvent=self._wrap("primal_dual.primal_resolvent",
                                                     pdp.A.resolvent)),
                   C1=self._evaluate("operators.b1", pdp.C1),
                   C2=self._evaluate("operators.b2", pdp.C2),
                   blocks=tuple(dual))

    def erm(self, prob):
        return dataclasses.replace(
            prob, proxes=tuple(self._wrap("applications.erm.prox", p) for p in prob.proxes))

    def pre(self, pre):
        pre.solve_P = self._wrap("precond.solve_P", pre.solve_P)
        pre.solve_U = self._wrap("precond.solve_U", pre.solve_U)
        return pre

    def begin_solve(self, index):
        self.spans.solve_id = index

    @contextmanager
    def patched(self):
        """Rebind module-level entry points to traced wrappers; restore them
        on exit."""
        targets = [(owner, attr, "linalg.power") for owner, attr in _POWER_NAMES]
        targets += [(precond, "resolvent_via_P", "precond.resolvent_via_P"),
                    (distributed, "metric_norm", "distributed.metric_norm"),
                    (Graph, "laplacian_apply", "distributed.laplacian_apply")]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# grids


@dataclass
class Cell:
    name: str
    layer: str                 # span prefix of the solver's layer
    run: Callable[[], object]  # returns a SolveReport or (SolveReport, trace)
    line_search: bool = False


@dataclass
class Outcome:
    name: str
    layer: str
    report: Optional[SolveReport]
    trace: Optional[list]
    seconds: float             # solve time, in the clock the pass ran with
    error: Optional[str]
    line_search: bool


@dataclass
class Grid:
    cells: list[Cell]
    check: Callable[[list[Outcome]], list[list[str]]]


def run_cells(cells: list[Cell], probe: Plain,
              clock: WallClock = WallClock()) -> tuple[list[Outcome], float]:
    """Run every solve once, one after another, each timed by ``clock``;
    returns the outcomes and the summed solve time."""
    outcomes = []
    for i, cell in enumerate(cells):
        probe.begin_solve(i)
        report = trace = error = None
        try:
            with clock:
                out = probe.call(cell.layer + ".solve", cell.run)
        except Exception as exc:  # a failed solve is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        else:
            report, trace = out if isinstance(out, tuple) else (out, None)
        outcomes.append(Outcome(cell.name, cell.layer, report, trace, clock.elapsed, error,
                                cell.line_search))
    probe.begin_solve(-1)
    return outcomes, sum(o.seconds for o in outcomes)


def _basic(o: Outcome) -> list[str]:
    if o.error is not None:
        return [o.error]
    reasons = []
    if not np.all(np.isfinite(o.report.z)):
        reasons.append("non-finite iterate")
    if o.report.reason != "tolerance":
        reasons.append(f"stopped at {o.report.reason} after {o.report.iterations} iterations")
    return reasons


def _agreement(reasons, idx, values, close, what):
    """Cross-check the solves ``idx`` of one instance.  Two solves fail
    together when they disagree; with three or more, a solve fails when it
    disagrees with the median of the group."""
    ok = [i for i in idx if not reasons[i]]
    if len(ok) < 2:
        for i in ok:
            reasons[i].append(f"no partner solve to check the {what} against")
        return
    if len(ok) == 2:
        a, b = ok
        if not close(values[a], values[b]):
            for i in ok:
                reasons[i].append(f"{what} disagrees with the partner solve")
        return
    ref = np.median(np.array([values[i] for i in ok]), axis=0)
    for i in ok:
        if not close(values[i], ref):
            reasons[i].append(f"{what} disagrees with the median of its group")


def _rel_close(tol):
    return lambda a, b: abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _noise(seed: int, key: int, dim: int) -> np.ndarray:
    return START_RADIUS * np.random.default_rng((seed, key)).standard_normal(dim)


def _paper_line_search() -> LineSearch:
    # the default policy sits outside the theta < sqrt(1-eps) range and warns
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="theta=")
        return LineSearch()


def _nlp_start(prob, seed: int, key: int) -> np.ndarray:
    """Perturbed default start of the saddle inclusion, projected onto Y x R+."""
    z = prob.default_start() + _noise(seed, key, prob.dim + prob.p)
    return np.concatenate([prob.Y.project(z[:prob.dim]), np.maximum(z[prob.dim:], 0.0)])


def _nlp_objectives(reasons, outcomes, groups):
    for prob, idx in groups:
        values = {i: prob.objective(outcomes[i].report.z[:prob.dim])
                  for i in idx if not reasons[i]}
        yield prob, idx, values


# ---------------------------------------------------------------------------
# lin-ineq: box-constrained least squares with linear inequalities


def _neg_orthant_dual(prob) -> PrimalDualProblem:
    """The linear inequalities as one dual block with the normal cone of the
    nonpositive orthant, as the CLI builds it for condat-vu."""
    neg = MaximalMonotone(resolvent=lambda gamma, y: np.minimum(y, 0.0), tag="N-")
    return PrimalDualProblem(A=prob.f, C1=prob.h, C2=None,
                             blocks=(DualBlock(B=neg, L=prob.data["D"]),), dim=prob.dim)


def lin_ineq(seed: int, size: str, probe: Plain) -> Grid:
    dims = SIZES["lin-ineq"][size]
    cfg = SolveConfig(max_iterations=100_000, tolerance=1e-6)
    ls = _paper_line_search()
    sigma_bar = 8e-4
    cells, groups = [], []
    for inst in LIN_INEQ_SEEDS:
        prob = probe.call("applications.gen", gen_lin_ineq_qp, dims["N"], dims["p"], inst)
        beta, L = prob.beta, prob.data["L"]
        z0 = _nlp_start(prob, seed, inst)
        g_fbhf = 3.99 * beta / (1.0 + math.sqrt(1.0 + 16.0 * beta * beta * L * L))
        g_tseng = 0.99 / (1.0 / beta + L)
        tau = 1.0 / (1.0 / (2.0 * beta) + sigma_bar * L * L)
        pdp = probe.pdp(_neg_orthant_dual(prob))
        prob = probe.nlp(prob)
        first = len(cells)
        cells += [
            Cell(f"fbhf/{inst}", "fbhf",
                 partial(solve_nlp, prob, ConstantStep(gamma=g_fbhf), cfg, z0)),
            Cell(f"tseng/{inst}", "fbhf",
                 partial(solve_nlp, prob, ConstantStep(gamma=g_tseng), cfg, z0, "tseng")),
            Cell(f"fbhf-ls/{inst}", "fbhf", partial(solve_nlp, prob, ls, cfg, z0),
                 line_search=True),
            Cell(f"condat-vu/{inst}", "primal_dual",
                 partial(solve_condat_vu, pdp, tau, sigma_bar, cfg, z0)),
        ]
        groups.append((prob, range(first, len(cells))))

    def check(outcomes):
        reasons = [_basic(o) for o in outcomes]
        for _, idx, values in _nlp_objectives(reasons, outcomes, groups):
            # criterion 6: objectives agree within 1e-3 relative
            _agreement(reasons, idx, values, _rel_close(1e-3), "objective")
        return reasons

    return Grid(cells, check)


# ---------------------------------------------------------------------------
# entropy: least squares inside a relative-entropy ball


def entropy(seed: int, size: str, probe: Plain) -> Grid:
    dims = SIZES["entropy"][size]
    cfg = SolveConfig(max_iterations=500_000, tolerance=1e-9)
    ls = _paper_line_search()
    cells, groups = [], []
    for k, r in enumerate(dims["r_fractions"]):
        prob = probe.call("applications.gen", gen_entropy_ls, dims["N"], r, ENTROPY_SEED)
        z0 = _nlp_start(prob, seed, k)
        prob = probe.nlp(prob)
        first = len(cells)
        cells += [
            Cell(f"fbhf-ls/r={r}", "fbhf", partial(solve_nlp, prob, ls, cfg, z0),
                 line_search=True),
            Cell(f"tseng-ls/r={r}", "fbhf", partial(solve_nlp, prob, ls, cfg, z0, "tseng"),
                 line_search=True),
        ]
        groups.append((prob, range(first, len(cells))))

    def check(outcomes):
        reasons = [_basic(o) for o in outcomes]
        for prob, idx, values in _nlp_objectives(reasons, outcomes, groups):
            # criterion 7: objectives within 1e-4, constraint violation <= 1e-5
            for i in values:
                try:
                    g = prob.max_constraint(outcomes[i].report.z[:prob.dim])
                except DomainError as exc:
                    reasons[i].append(f"constraint undefined at the solution: {exc}")
                    continue
                if not g <= 1e-5:
                    reasons[i].append(f"max constraint {g:.3e} > 1e-5")
            _agreement(reasons, idx, values, _rel_close(1e-4), "objective")
        return reasons

    return Grid(cells, check)


# ---------------------------------------------------------------------------
# erm: hinge-loss ERM, incremental sweep against the corollary scheme


def erm(seed: int, size: str, probe: Plain) -> Grid:
    dims = SIZES["erm"][size]
    d, m = dims["d"], dims["m"]
    cfg = SolveConfig(max_iterations=150_000, tolerance=1e-5)
    prob = probe.call("applications.gen", gen_erm_hinge, d, m, ERM_SEED)
    sigma = 0.99 * erm_uniform_sigma_bound(m)
    pdp = PrimalDualProblem(
        A=MaximalMonotone.zero(), C1=None, C2=None, dim=d,
        blocks=tuple(DualBlock(B=scalar_monotone(prob.proxes[i]), L=prob.a[i][None, :])
                     for i in range(m)))
    params = CorollaryParams(theta=1.0, sigmas=(0.1,) * (m + 1))
    z0 = _noise(seed, 0, d + m)
    objective = prob.objective
    prob, pdp = probe.erm(prob), probe.pdp(pdp)
    cells = [
        Cell("incremental", "applications.erm",
             partial(solve_erm_incremental, prob, [sigma], None, cfg, z0)),
        Cell("corollary", "primal_dual", partial(solve_corollary, pdp, params, cfg, z0)),
    ]

    def check(outcomes):
        reasons = [_basic(o) for o in outcomes]
        values = {i: objective(o.report.z[:d]) for i, o in enumerate(outcomes) if not reasons[i]}
        # criterion 11: objectives agree within 1e-4 relative to the corollary's
        _agreement(reasons, range(2), values,
                   lambda inc, cor: abs(inc - cor) <= 1e-4 * max(1.0, abs(cor)), "objective")
        return reasons

    return Grid(cells, check)


# ---------------------------------------------------------------------------
# metric: dense preconditioned / variable-metric solves and distributed rounds


def metric_instance(n: int, seed: int, probe: Plain):
    """Dense three-operator instance on R^n with a non-self-adjoint
    preconditioner P = U + S.

    U's smallest eigenvalue (about 1.5) is separated from the rest of its
    spectrum ([2.5, 3.5]).  ``symmetric_min_eig`` needs that gap: on
    U = H^T H / 4 + 2 I at n = 100, whose bottom spectrum is clustered, it
    raises PowerIterationError.
    """
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(n)
    A = MaximalMonotone.from_matrix(np.diag(rng.uniform(0.5, 1.5, n)))
    B1 = quadratic_gradient(rng.standard_normal((n // 2, n)) * scale,
                            rng.standard_normal(n // 2))
    skew = rng.standard_normal((n, n)) * scale
    b2 = 0.2 * (skew - skew.T) / 2.0
    spec = ProblemSpec(A=A, B1=B1, B2=MonotoneMap.from_matrix(b2),
                       X=ClosedConvexSet.whole_space(), dimension=n)
    H = rng.standard_normal((n, n)) * scale
    U = np.diag(np.concatenate([[1.5], np.linspace(2.5, 3.5, n - 1)])) + 0.1 * (H + H.T) / 2.0
    Sp = rng.standard_normal((n, n)) * scale
    pre = probe.call("precond.from_matrix", Preconditioner.from_matrix,
                     U + 0.05 * (Sp - Sp.T) / 2.0, b2_matrix=b2)
    return spec, pre


def _graph_sequences(n: int, seed: int) -> dict[str, Callable[[], GraphSequence]]:
    # built per solve, so that every solve pays for its own cached norms
    return {
        "distributed-fixed": lambda: GraphSequence.fixed(Graph.ring(n)),
        "distributed-alternating": lambda: GraphSequence.alternating(Graph.path(n),
                                                                     Graph.star(n)),
        "distributed-random": lambda: GraphSequence.random(n, seed),
    }


def _run_consensus(proxes, sequence, step, cfg, x0):
    return run_distributed(proxes, sequence(), step, step, cfg, x0=x0)


def metric(seed: int, size: str, probe: Plain) -> Grid:
    dims = SIZES["metric"][size]
    n, agents = dims["n"], dims["agents"]
    cfg = SolveConfig(max_iterations=100_000, tolerance=1e-9)
    spec, pre = metric_instance(n, METRIC_SEED, probe)
    spec, pre = probe.spec(spec), probe.pre(pre)
    z0 = _noise(seed, 0, n)
    cells = [
        Cell("precond", "precond", partial(solve_precond_fbhf, spec, pre, cfg, z0)),
        Cell("variable-metric", "precond",
             partial(solve_variable_metric, spec, MetricSchedule.constant(pre), cfg, z0)),
        Cell("fbhf-reference", "fbhf", partial(solve_fbhf, spec, ConstantStep(), cfg, z0)),
    ]

    # the CLI's distributed cell: quadratic costs around seeded centers
    centers = np.random.default_rng(METRIC_SEED).standard_normal((agents, 1))
    proxes = [(lambda g, v, c=centers[i]: (v + g * c) / (1.0 + g)) for i in range(agents)]
    step = 0.9 / (2.0 * max(1, agents - 1))
    cfg_d = SolveConfig(max_iterations=dims["rounds"], tolerance=1e-9)
    x0 = _noise(seed, 1, agents)
    for name, sequence in _graph_sequences(agents, METRIC_SEED).items():
        cells.append(Cell(name, "distributed",
                          partial(_run_consensus, proxes, sequence, step, cfg_d, x0)))
    target = centers.mean(axis=0)

    def check(outcomes):
        reasons = [_basic(o) for o in outcomes]
        # precond, variable-metric and the fbhf reference agree; see METRIC_AGREEMENT
        values = {i: outcomes[i].report.z for i in range(3) if not reasons[i]}
        _agreement(reasons, range(3), values,
                   lambda a, b: np.linalg.norm(a - b) <= METRIC_AGREEMENT * (1.0 + np.linalg.norm(b)),
                   "iterate")
        for i in range(3, len(outcomes)):
            o = outcomes[i]
            if o.error is not None:
                continue
            # criterion 12: consensus and distance to the centralized solution < 1e-6
            X = o.report.z[:agents].reshape(agents, -1)
            consensus = o.trace[-1] if o.trace else 0.0
            dist = float(np.max(np.linalg.norm(X - target, axis=1)))
            if not consensus < 1e-6:
                reasons[i].append(f"consensus error {consensus:.2e} >= 1e-6")
            if not dist < 1e-6:
                reasons[i].append(f"distance to the centralized solution {dist:.2e} >= 1e-6")
        return reasons

    return Grid(cells, check)


WORKLOADS = {"lin-ineq": lin_ineq, "entropy": entropy, "erm": erm, "metric": metric}


# ---------------------------------------------------------------------------
# CLI guard


CLI_CONFIG = """\
[experiment]
kind = lin-ineq
n = {N}
p = {p}
seeds = {seeds}
tolerance = 1e-6
max_iterations = 100000

[solver fbhf]
delta = 3.99

[solver tseng]
delta = 0.99

[solver fbhf-ls]

[solver condat-vu]
sigma_bar = 0.0008
"""


def cli_overhead_ms(size: str, out_dir: Path) -> tuple[float, Optional[str]]:
    """Run the lin-ineq cells through ``splitmono run``'s entry point and
    return its wall time minus the summed per-cell solver times, in ms,
    with an error message when a cell failed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.ini"
    path.write_text(CLI_CONFIG.format(seeds=",".join(map(str, LIN_INEQ_SEEDS)),
                                      **SIZES["lin-ineq"][size]))
    cfg, diags = cli.validate_config(path)
    if diags:
        return 0.0, "; ".join(diags)
    t0 = time.perf_counter()
    code = cli.run_experiment(cfg, out_dir)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    with (out_dir / "report.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    solve_ms = sum(float(r["time-ms"]) for r in rows)
    error = None if code == 0 else f"splitmono run exited {code}"
    return wall_ms - solve_ms, error
