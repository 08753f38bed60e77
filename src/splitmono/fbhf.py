"""Core splitting solvers for 0 in A x + B1 x + B2 x over X.

The main iteration evaluates the cocoercive term B1 once per step and the
monotone term B2 twice:

    x_k   = J_{gamma_k A}(z_k - gamma_k (B1 + B2) z_k)
    z_k+1 = P_X(x_k + gamma_k (B2 z_k - B2 x_k))

With B2 absent (and X the whole space) it coincides with forward-backward
splitting; with B1 absent it coincides with Tseng's forward-backward-forward
iteration.  Both baselines are implemented here as well, each in constant
stepsize and Armijo-backtracking form.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import BlockLayout, at_most, strictly_below
from .operators import ProblemSpec


class ConfigurationError(ValueError):
    """Solver/problem pairing or parameter bound violated before iterating."""


class LineSearchError(RuntimeError):
    """Backtracking exhausted; carries the last candidate and its violation."""

    def __init__(self, gamma: float, ratio: float, tried: int):
        super().__init__(
            f"no step accepted after {tried} candidates; "
            f"last gamma={gamma:.3e} violated the Armijo condition by factor {ratio:.3e}")
        self.gamma = gamma
        self.ratio = ratio


def chi(beta: float, L: float) -> float:
    """Stepsize cap 4*beta / (1 + sqrt(1 + 16 beta^2 L^2)).

    Equals 2*beta at L = 0 and 1/L at beta = +inf, and never exceeds
    min(2*beta, 1/L).
    """
    if not beta > 0:
        raise ValueError("beta must be positive (or inf)")
    if not L >= 0:
        raise ValueError("L must be nonnegative")
    if math.isinf(beta) and L == 0.0:
        raise ValueError("chi is undefined when B1 and B2 are both absent")
    if math.isinf(beta):
        return 1.0 / L
    if L == 0.0:
        return 2.0 * beta
    return 4.0 * beta / (1.0 + math.sqrt(1.0 + 16.0 * beta * beta * L * L))


def half_inverse(beta: float) -> float:
    """The term 1/(2 beta) of the metric and primal-dual stepsize conditions;
    0 when B1 is absent (beta = +inf)."""
    return 0.0 if math.isinf(beta) else 1.0 / (2.0 * beta)


def metric_violation(rho: float, K: float, beta: float, strict: bool = True,
                     lhs_name: str = "K") -> Optional[str]:
    """Why the metric condition of the preconditioned and primal-dual schemes,
    rho > 0 and K^2 < rho (rho - 1/(2 beta)) (``<=`` unless ``strict``), fails
    under the margin rule, or None; ``lhs_name`` names K in the message."""
    if not rho > 0:
        return f"rho = {rho:.6g} must be positive"
    rhs = rho * (rho - half_inverse(beta))
    lhs = K ** 2
    if strictly_below(lhs, rhs) if strict else at_most(lhs, rhs):
        return None
    return (f"{lhs_name}^2 = {lhs:.12g} must be {'<' if strict else '<='} "
            f"rho(rho - 1/(2 beta)) = {rhs:.12g}")


# ---------------------------------------------------------------------------
# policies, config, report


def _count(name: str, value) -> int:
    """``value`` checked to be a count >= 1 and returned as an int.  Any
    integer type passes (numpy's included); a float, even an integral one,
    does not, as ``range()`` would reject it mid-solve."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} = {value!r} must be an integer count") from None
    if n < 1:
        raise ValueError(f"{name} must be >= 1")
    return n


@dataclass(frozen=True)
class ConstantStep:
    """Fixed stepsize; ``gamma=None`` selects 0.99 * chi(beta, L).

    ``unchecked=True`` skips the upper-bound validation (no convergence
    guarantee; exposed for the experiments probing beyond the bound).
    """

    gamma: Optional[float] = None
    unchecked: bool = False


@dataclass(frozen=True)
class LineSearch:
    """Armijo backtracking over the candidate steps 2*beta*eps*sigma^j.

    Accepts the largest candidate gamma with

        gamma * ||B2 z - B2 x_z(gamma)|| <= theta * ||z - x_z(gamma)||.

    ``gamma_init`` replaces the 2*beta*eps anchor when B1 is absent.
    The defaults mirror the entropy-experiment protocol; theta < sqrt(1-eps)
    is the theoretical range and a warning is emitted outside it.
    """

    epsilon: float = 0.88
    sigma: float = 0.9
    theta: float = 0.707
    max_backtracks: int = 60
    gamma_init: Optional[float] = None

    def __post_init__(self):
        for name in ("epsilon", "sigma", "theta"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} = {v} must lie in ]0, 1[")
        object.__setattr__(self, "max_backtracks",
                           _count("max_backtracks", self.max_backtracks))
        if self.gamma_init is not None and not (
                self.gamma_init > 0 and math.isfinite(self.gamma_init)):
            raise ValueError(f"gamma_init = {self.gamma_init} must be a positive, finite step")
        if self.theta >= math.sqrt(1.0 - self.epsilon):
            warnings.warn(
                f"theta={self.theta} >= sqrt(1-epsilon)={math.sqrt(1.0 - self.epsilon):.4f}: "
                "outside the guaranteed convergence range", stacklevel=2)


StepPolicy = ConstantStep | LineSearch


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rule and history retention of one solve.

    ``keep_iterates=True`` keeps the whole per-iteration history in the
    report: every iterate, every relative change (``residuals``) and, for a
    solver with a scalar step, every step (``gammas``).  Without it a report
    holds a fixed amount of state however many iterations run.
    """

    max_iterations: int = 100_000
    tolerance: float = 1e-7        # relative-change stopping threshold
    keep_iterates: bool = False

    def __post_init__(self):
        object.__setattr__(self, "max_iterations",
                           _count("max_iterations", self.max_iterations))
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive and finite")


@dataclass
class SolveReport:
    """Outcome of one solver run.

    The evaluation counters are counted where each oracle is called: every
    solver wraps its oracles once per solve, so a count is the number of
    calls the iteration made.  ``resolvent_evals`` counts the solver's
    backward oracle: J_{gamma A} for the main iteration and its baselines,
    J_{P^{-1}A} for the preconditioned and variable-metric solvers, and the
    primal, dual or per-sample/per-agent proxes of the primal-dual, ERM and
    distributed solvers.  ``backtracks`` counts rejected line-search
    candidates.

    ``residual`` is the last relative change ||z+ - z|| / ||z|| (the
    absolute change at the origin); it is non-finite when the run diverged.
    ``gamma`` is the step the last iteration returned to the iteration loop
    (``_run``): a float for the solvers that run a scalar step (the main
    iteration, its forward-backward and Tseng baselines and the
    preconditioned solver at P = Id/gamma), and None for the others.  The
    per-iteration history (``iterates``, ``residuals`` and ``gammas``, one
    entry per iteration after the starting point) is kept by ``_run``
    only under ``SolveConfig.keep_iterates`` and is None otherwise;
    ``gammas`` is also None for a solver without a scalar step.
    """

    z: np.ndarray
    iterations: int
    reason: str                    # "tolerance" | "max_iter" | "diverged"
    residual: float
    b1_evals: int = 0
    b2_evals: int = 0
    resolvent_evals: int = 0
    projections: int = 0
    backtracks: int = 0
    wall_time: float = 0.0
    gamma: Optional[float] = None
    iterates: Optional[list[np.ndarray]] = None
    residuals: Optional[list[float]] = None
    gammas: Optional[list[float]] = None
    layout: Optional[BlockLayout] = None

    def block(self, i: int) -> np.ndarray:
        if self.layout is None:
            raise ValueError("report carries no block layout")
        return self.layout.block(self.z, i)


class _Counters:
    """Oracle calls of one solve, counted where each oracle is called."""

    __slots__ = ("oracles", "backtracks")

    def __init__(self):
        self.oracles = {"b1": [], "b2": [], "res": [], "proj": []}
        self.backtracks = 0

    def count(self, name: str, fn: Callable, weight: int = 1) -> Callable:
        """``fn`` wrapped so that each call is counted under ``name`` as
        ``weight`` oracle calls (a call that evaluates ``weight`` oracles at
        once, as one array operation, counts as that many).

        An ``lru_cache`` of size 0 stores nothing and hashes no argument: it
        calls ``fn`` every time and counts the calls, as misses, in C, which
        costs the hot oracles about half of what a Python wrapper would."""
        counted = functools.lru_cache(maxsize=0)(fn)
        self.oracles[name].append((counted, weight))
        return counted

    def calls(self, name: str) -> int:
        return sum(fn.cache_info().misses * weight for fn, weight in self.oracles[name])

    def wrap(self, op, attr: str, name: str):
        """Copy of the oracle carrier ``op`` whose ``attr`` oracle counts its
        calls under ``name``; an absent ``op`` (None) stays absent."""
        if op is None:
            return None
        return dataclasses.replace(op, **{attr: self.count(name, getattr(op, attr))})


def _counted(spec: ProblemSpec, counters: _Counters) -> ProblemSpec:
    """``spec`` with A's resolvent, B1, B2 and the projection onto X each
    counting its own calls."""
    w = counters.wrap
    return dataclasses.replace(spec, A=w(spec.A, "resolvent", "res"),
                               B1=w(spec.B1, "evaluate", "b1"),
                               B2=w(spec.B2, "evaluate", "b2"),
                               X=w(spec.X, "project", "proj"))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector: ``sqrt(v.dot(v))``, literally what
    ``np.linalg.norm`` computes for 1-D input, so the same bits without its
    dispatch cost.  ``v.dot(v)`` also dispatches faster than ``v @ v``, with
    the same bits; the known case where ``.dot`` and ``@`` differ is a
    column-strided matrix (see ``MonotoneMap.from_matrix``)."""
    return math.sqrt(v.dot(v))


def _relative_change(z_new: np.ndarray, z: np.ndarray) -> float:
    num = _norm(z_new - z)
    den = _norm(z)
    # the criterion is undefined at the origin; fall back to absolute change
    return num if den < 1e-30 else num / den


def _run(step: Callable[[int, np.ndarray], tuple[np.ndarray, Optional[float]]],
         z0: np.ndarray, cfg: SolveConfig, counters: _Counters,
         layout: Optional[BlockLayout] = None) -> SolveReport:
    """Iterate ``z_{k+1}, gamma_k = step(k, z_k)`` from ``z0`` until the
    relative-change stop.

    ``gamma_k`` is iteration k's scalar step, or None for a solver that runs
    none; the report carries the last one.  The loop is the only owner of
    per-iteration state: it supplies k, and without ``cfg.keep_iterates`` it
    keeps nothing per iteration."""
    z = np.asarray(z0, dtype=float).copy()
    keep = cfg.keep_iterates
    iterates = [z.copy()] if keep else None
    residuals = [] if keep else None
    gammas = [] if keep else None
    reason = "max_iter"
    t0 = time.perf_counter()
    for k in range(cfg.max_iterations):
        z_new, gamma = step(k, z)
        rel = _relative_change(z_new, z)
        z = z_new
        if keep:
            residuals.append(rel)
            iterates.append(np.array(z))
            gammas.append(gamma)
        if rel < cfg.tolerance:
            reason = "tolerance"
            break
        if not math.isfinite(rel):
            # an iterate overflowed or turned NaN; no later step recovers
            reason = "diverged"
            break
    wall = time.perf_counter() - t0
    calls = counters.calls
    return SolveReport(z=z, iterations=k + 1, reason=reason,
                       residual=rel, b1_evals=calls("b1"),
                       b2_evals=calls("b2"), resolvent_evals=calls("res"),
                       projections=calls("proj"), backtracks=counters.backtracks,
                       wall_time=wall, gamma=gamma, iterates=iterates,
                       residuals=residuals, gammas=None if gamma is None else gammas,
                       layout=layout)


def _default_start(dim: int, z0) -> np.ndarray:
    """``z0`` checked to be a vector of length ``dim``; zeros when absent."""
    if z0 is None:
        return np.zeros(dim)
    z = np.asarray(z0, dtype=float)
    if z.shape != (dim,):
        raise ValueError("starting point has the wrong dimension")
    return z


# ---------------------------------------------------------------------------
# single steps


def _forward(spec: ProblemSpec,
             z: np.ndarray) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """(B2 z, (B1 + B2) z), with None for an absent term."""
    b1z = None if spec.B1 is None else spec.B1.evaluate(z)
    b2z = None if spec.B2 is None else spec.B2.evaluate(z)
    if b1z is None:
        return b2z, b2z
    return b2z, b1z if b2z is None else b1z + b2z


def _absent(x: np.ndarray) -> None:
    """The value of an absent operator term."""
    return None


def _backward(spec: ProblemSpec, z: np.ndarray, gamma: float,
              bz: Optional[np.ndarray]) -> np.ndarray:
    """J_{gamma A}(z - gamma bz), the backward step after the forward value bz."""
    return spec.A.resolvent(gamma, z if bz is None else z - gamma * bz)


def _fbhf_iteration(spec: ProblemSpec, z: np.ndarray, policy,
                    counters: Optional[_Counters]) -> tuple[float, np.ndarray, np.ndarray]:
    """One main iteration at the constant step ``policy`` (a float) or with
    the ``LineSearch`` policy; returns (gamma, x, z+)."""
    b2z, bz = _forward(spec, z)
    b2 = _absent if spec.B2 is None else spec.B2.evaluate
    if isinstance(policy, LineSearch):
        gamma, x, b2x = _backtrack(spec, z, policy, bz, b2z, b2, counters)
    else:
        gamma = policy
        x = _backward(spec, z, gamma, bz)
        b2x = b2(x)
    return gamma, x, spec.X.project(x if b2z is None else x + gamma * (b2z - b2x))


def fbhf_step(spec: ProblemSpec, z: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """One iteration: backward step on A after a full forward step, then the
    half forward correction on B2 and the projection.  Evaluates B1 exactly
    once and B2 exactly twice (when present)."""
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("gamma must be positive and finite")
    _, x, z_next = _fbhf_iteration(spec, z, gamma, None)
    return x, z_next


# ---------------------------------------------------------------------------
# line search


# A line-search candidate this close to z, in machine epsilons relative to
# ||z||, is a fixed point to working precision (see ``_backtrack``).
FIXED_POINT_ULPS = 16.0


def _ls_anchor(spec: ProblemSpec, policy: LineSearch) -> float:
    if math.isinf(spec.beta):
        if policy.gamma_init is None:
            raise ConfigurationError(
                "B1 is absent (beta = inf): the line search needs an explicit gamma_init anchor")
        return policy.gamma_init
    return 2.0 * spec.beta * policy.epsilon


def _backtrack(spec: ProblemSpec, z: np.ndarray, policy: LineSearch,
               drift_z: Optional[np.ndarray], check_z: Optional[np.ndarray],
               check_at: Callable[[np.ndarray], Optional[np.ndarray]],
               counters: _Counters) -> tuple[float, np.ndarray, Optional[np.ndarray]]:
    """Scan gamma = anchor * sigma^j, j = 1, 2, ... and return the first
    (largest) candidate satisfying the Armijo-type condition

        gamma * ||check(z) - check(x_z(gamma))|| <= theta * ||z - x_z(gamma)||.

    When every candidate fails, z may be a fixed point to working
    precision: both sides of the condition are then rounding noise.  The
    last (smallest) candidate is accepted if ||z - x|| <= FIXED_POINT_ULPS *
    eps * ||z||, that is within 16 machine epsilons relative to ||z||;
    otherwise LineSearchError is raised.  ||z|| is computed only then, so a
    search that accepts a candidate pays nothing for this test.
    """
    anchor = _ls_anchor(spec, policy)
    sigma, theta, resolvent = policy.sigma, policy.theta, spec.A.resolvent
    gamma = anchor
    lhs = rhs = 0.0
    for j in range(1, policy.max_backtracks + 1):
        gamma = anchor * sigma ** j
        x = resolvent(gamma, z if drift_z is None else z - gamma * drift_z)
        cx = check_at(x)
        rhs = theta * _norm(z - x)
        lhs = 0.0 if cx is None else gamma * _norm(check_z - cx)
        if lhs <= rhs:
            if gamma < 1e-12:
                warnings.warn(f"accepted line-search step {gamma:.3e} < 1e-12; "
                              "B2 may not be uniformly continuous here", stacklevel=2)
            return gamma, x, cx
        # a rejected candidate is a line-search event, not an oracle call
        counters.backtracks += 1
    if rhs <= theta * FIXED_POINT_ULPS * sys.float_info.epsilon * _norm(z):
        # the last candidate is accepted after all, so it was no backtrack
        counters.backtracks -= 1
        return gamma, x, cx
    raise LineSearchError(gamma, lhs / rhs if rhs > 0 else math.inf,
                          policy.max_backtracks)


# ---------------------------------------------------------------------------
# solvers


def check_step(spec: ProblemSpec, policy: StepPolicy,
               method: str = "fbhf") -> float | LineSearch:
    """The step ``method`` ("fbhf", "tseng" or "fb") runs on ``spec`` under
    ``policy``, checked as its solver checks it first: a ``LineSearch`` as
    given, or gamma (default 0.99 bound) in ]0, bound[ under the margin rule,
    for the bound chi(beta, L), chi(inf, 1/beta + L) (Tseng) or chi(beta, 0)
    (forward-backward), or +inf at beta = inf and L = 0.
    ``unchecked`` lifts the fbhf and Tseng upper bounds only.  Forward-backward
    never projects, so it also needs X = H.  Raises ConfigurationError."""
    if method == "fb" and (spec.B2 is not None or spec.B1 is None):
        raise ConfigurationError("forward-backward needs a cocoercive B1 and no B2")
    if method == "fb" and not spec.X.is_whole_space:
        raise ConfigurationError("forward-backward requires X = H")
    if isinstance(policy, LineSearch) and method != "fb":
        return policy
    if not isinstance(policy, ConstantStep):
        raise ConfigurationError(f"unknown step policy {policy!r} for {method}")
    L = spec.lipschitz
    if L is None:
        raise ConfigurationError("B2 carries no Lipschitz constant; a constant stepsize "
                                 "has no valid bound (use a LineSearch policy)")
    # each bound is chi of the method's own (beta, L)
    constants = {"fbhf": ("chi", spec.beta, L),
                 "tseng": ("Tseng", math.inf,
                           (0.0 if math.isinf(spec.beta) else 1.0 / spec.beta) + L),
                 "fb": ("forward-backward", spec.beta, 0.0)}
    if method not in constants:
        raise ValueError(f"unknown method {method!r} (expected fbhf, tseng or fb)")
    what, beta, lip = constants[method]
    bound = math.inf if math.isinf(beta) and lip == 0.0 else chi(beta, lip)
    gamma = policy.gamma
    if gamma is None:
        if math.isinf(bound):
            raise ConfigurationError("no finite default stepsize; pass gamma explicitly")
        gamma = 0.99 * bound
    unchecked = policy.unchecked and method != "fb"
    if not (0.0 < gamma < math.inf and (unchecked or strictly_below(gamma, bound))):
        raise ConfigurationError(f"gamma={gamma:.6g} outside the open interval "
                                 f"]0, {bound:.6g}[ of the {what} bound")
    return gamma


def solve_fbhf(spec: ProblemSpec, policy: StepPolicy, cfg: SolveConfig,
               z0=None) -> SolveReport:
    """Run the main splitting iteration until the relative-change stop."""
    policy = check_step(spec, policy, "fbhf")
    return _iterate_fbhf(spec, policy, cfg, _default_start(spec.dimension, z0))


def _iterate_fbhf(spec: ProblemSpec, policy, cfg: SolveConfig,
                  z_start: np.ndarray) -> SolveReport:
    """Run the main iteration at an already validated constant step
    ``policy`` (a float) or with the ``LineSearch`` policy."""
    counters = _Counters()
    spec = _counted(spec, counters)

    def step(k, z):
        gamma, _, z_next = _fbhf_iteration(spec, z, policy, counters)
        return z_next, gamma

    return _run(step, z_start, cfg, counters)


def solve_tseng_fbf(spec: ProblemSpec, policy: StepPolicy, cfg: SolveConfig,
                    z0=None) -> SolveReport:
    """Tseng's forward-backward-forward baseline on B = B1 + B2.

    The constant policy requires gamma < 1/(1/beta + L); the line-search
    variant re-evaluates the whole of B at every backtracking candidate.
    """
    policy = check_step(spec, policy, "tseng")
    z_start = _default_start(spec.dimension, z0)
    counters = _Counters()
    spec = _counted(spec, counters)
    # bound after _counted, so that every call is counted
    if spec.B1 is not None and spec.B2 is not None:
        b1, b2 = spec.B1.evaluate, spec.B2.evaluate

        def b_at(w):
            return b1(w) + b2(w)
    else:
        def b_at(w):
            return _forward(spec, w)[1]

    def step(k, z):
        bz = b_at(z)
        if isinstance(policy, LineSearch):
            gamma, x, bx = _backtrack(spec, z, policy, bz, bz, b_at, counters)
        else:
            gamma = policy
            x = _backward(spec, z, gamma, bz)
            bx = b_at(x)
        return spec.X.project(x if bz is None else x + gamma * (bz - bx)), gamma

    return _run(step, z_start, cfg, counters)


def solve_forward_backward(spec: ProblemSpec, gamma: float, cfg: SolveConfig,
                           z0=None) -> SolveReport:
    """Classical forward-backward iteration z -> J_{gamma A}(z - gamma B1 z).

    Requires B2 absent, X = H and gamma in the open interval ]0, 2*beta[.
    """
    gamma = check_step(spec, ConstantStep(gamma), "fb")
    z_start = _default_start(spec.dimension, z0)
    counters = _Counters()
    spec = _counted(spec, counters)

    def step(k, z):
        return spec.A.resolvent(gamma, z - gamma * spec.B1.evaluate(z)), gamma

    return _run(step, z_start, cfg, counters)


def phi_z_profile(spec: ProblemSpec, z, gamma_grid) -> list[float]:
    """Evaluate gamma -> ||z - x_z(gamma)|| / gamma on a positive grid.

    The profile is nonincreasing in gamma; tests certify that property.
    The forward evaluation at z does not depend on gamma and is done once.
    """
    z = np.asarray(z, dtype=float)
    grid = [float(g) for g in gamma_grid]
    if not grid or not all(0 < g < math.inf for g in grid):
        raise ValueError("gamma grid must be nonempty, positive and finite")
    _, bz = _forward(spec, z)
    return [_norm(z - _backward(spec, z, g, bz)) / g for g in grid]
