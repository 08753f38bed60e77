"""Concrete problem families: incremental empirical risk minimization,
nonlinear constrained optimization via the Lagrangian saddle inclusion, and
the seeded random generators behind the benchmark experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .linalg import (BlockLayout, aligned_empty, as_matrix, as_vector,
                     operator_norm, strictly_below)
from .operators import (ClosedConvexSet, CocoerciveMap, MaximalMonotone,
                        ProblemSpec, SmoothConstraint,
                        affine_constraints, entropy_constraint,
                        lagrangian_saddle_map, normal_cone_box, nonneg_cone,
                        quadratic_gradient, scalar_monotone)
from .fbhf import (ConfigurationError, SolveConfig, SolveReport, StepPolicy,
                   _Counters, _default_start, _run, solve_fbhf, solve_tseng_fbf)
from .primal_dual import DualBlock, PrimalDualProblem, _check_lambda


# ---------------------------------------------------------------------------
# incremental ERM


@dataclass(frozen=True)
class ErmProblem:
    """min (1/m) sum_i f_i(a_i^T x) with per-sample scalar prox oracles.

    ``proxes[i](gamma, t)`` evaluates prox of gamma * f_i at t; ``values[i]``
    evaluates f_i for objective reporting.
    """

    a: np.ndarray                       # m x d data rows
    proxes: tuple[Callable[[float, float], float], ...]
    values: tuple[Callable[[float], float], ...]

    def __post_init__(self):
        A = as_matrix(self.a)
        object.__setattr__(self, "a", A)
        if np.any(np.linalg.norm(A, axis=1) == 0.0):
            raise ValueError("every data row a_i must be nonzero")
        if len(self.proxes) != A.shape[0] or len(self.values) != A.shape[0]:
            raise ValueError("need one prox and one value oracle per sample")

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[1]

    def objective(self, x) -> float:
        t = self.a @ np.asarray(x, dtype=float)
        return float(sum(v(ti) for v, ti in zip(self.values, t))) / self.m

    @property
    def layout(self) -> BlockLayout:
        return BlockLayout.from_dims([self.d] + [1] * self.m)

    def as_primal_dual(self) -> PrimalDualProblem:
        """The problem as a composite primal-dual inclusion: A = 0, no C1 or
        C2, and one scalar dual block per sample, B_i = d f_i (through its
        prox) with L_i = a_i^T.  Its zeros 0 in sum_i a_i d f_i(a_i^T x) are
        the minimizers of sum_i f_i(a_i^T x), hence of (1/m) sum_i f_i."""
        return PrimalDualProblem(
            A=MaximalMonotone.zero(), C1=None, C2=None, dim=self.d,
            blocks=tuple(DualBlock(B=scalar_monotone(prox), L=self.a[i:i + 1])
                         for i, prox in enumerate(self.proxes)))


def erm_condition(sigmas, a_norms) -> tuple[float, float]:
    """(lhs, rhs) of the stepsize condition

        sqrt(sum ||a_i||^2) + sigma_0 sum ||a_i||^2
            + sigma_0/2 (max ||a_i||^2 - min ||a_i||^2)  <  1 / max_i sigma_i.
    """
    sig = [float(s) for s in sigmas]
    n2 = [float(n) ** 2 for n in a_norms]
    lhs = math.sqrt(sum(n2)) + sig[0] * sum(n2) + sig[0] / 2.0 * (max(n2) - min(n2))
    return lhs, 1.0 / max(sig)


def erm_relaxation_bound(sigmas, a_norms) -> float:
    """M constant whose reciprocal caps the relaxation lambda."""
    sig = [float(s) for s in sigmas]
    n2 = [float(n) ** 2 for n in a_norms]
    return (1.0 / min(sig) + 0.5 * math.sqrt(sum(n2))
            + sig[0] / 2.0 * (sum(n2) + max(n2)))


def erm_uniform_sigma_bound(m: int) -> float:
    """With unit-norm data and equal stepsizes the condition reduces to
    sigma < (sqrt(5) - 1) / (2 sqrt(m))."""
    return (math.sqrt(5.0) - 1.0) / (2.0 * math.sqrt(m))


def check_erm_steps(p: ErmProblem, sigmas,
                    lam: Optional[float]) -> tuple[list[float], float]:
    """The m+1 stepsizes (one value is repeated) and the relaxation that
    ``solve_erm_incremental`` runs with, checked as it checks them first."""
    sig = [float(s) for s in sigmas]
    if len(sig) == 1:
        sig = sig * (p.m + 1)
    if len(sig) != p.m + 1 or not all(0 < s < math.inf for s in sig):
        raise ConfigurationError("need m+1 positive, finite stepsizes (or one uniform value)")
    a_norms = np.linalg.norm(p.a, axis=1)
    lhs, rhs = erm_condition(sig, a_norms)
    if not strictly_below(lhs, rhs):
        raise ConfigurationError(
            f"ERM stepsize condition violated: lhs = {lhs:.12g} must be < "
            f"1/max(sigma) = {rhs:.12g}")
    M = erm_relaxation_bound(sig, a_norms)
    return sig, _check_lambda(lam, M)


def solve_erm_incremental(p: ErmProblem, sigmas, lam: Optional[float],
                          cfg: SolveConfig, start=None) -> SolveReport:
    """Incremental proximal sweep for the dualized ERM inclusion.

    Dual blocks are visited in ascending sample order; block i consumes the
    fresh duals v_1..v_{i-1} and the stale u_i..u_m.  The primal and dual
    corrections follow with relaxation ``lam`` (default 0.99/M).

    The per-sample rows G[i, :i] and G[i, i:] of the Gram matrix are sliced
    once per solve, against persistent v and u buffers, so a sample costs two
    dot products and one counted prox call.  The scalar recurrence and the
    Moreau identity v_i = w - sigma_i prox_{f_i/sigma_i}(w / sigma_i) run on
    plain floats, with the same bits as on numpy scalars.
    """
    sig, lam = check_erm_steps(p, sigmas, lam)
    layout = p.layout
    z0 = _default_start(layout.dim, None if start is None else as_vector(start))
    a, d, m = p.a, p.d, p.m
    halves = BlockLayout.from_dims([d, m])   # (x, u): the step's two parts
    G = a @ a.T                        # Gram matrix of the data rows
    G_lower = np.tril(G, -1)
    sig0, sig_tail = sig[0], np.asarray(sig[1:])
    counters = _Counters()
    v, u_buf = np.zeros(m), np.zeros(m)
    # sample i: fresh duals v_1..v_{i-1}, stale u_i..u_m
    samples = [(G[i, :i], v[:i], G[i, i:], u_buf[i:], s, 1.0 / s, counters.count("res", prox))
               for i, (s, prox) in enumerate(zip(sig[1:], p.proxes))]

    def step(k, zvec):
        x, u = zvec[:d], zvec[d:]
        u_buf[:] = u
        ax, u_list = a.dot(x).tolist(), u.tolist()
        for i, (g_fresh, v_fresh, g_stale, u_stale, s, inv_s, prox) in enumerate(samples):
            mix = float(g_fresh.dot(v_fresh)) + float(g_stale.dot(u_stale))
            w = u_list[i] + s * (ax[i] - sig0 * mix)
            # Moreau: prox of the conjugate loss from the loss prox
            v[i] = w - s * prox(inv_s, w / s)
        new_x = x - lam * a.T.dot(v)
        dv = v - u
        new_u = u + lam * (dv / sig_tail + sig0 * G_lower.dot(dv))
        return halves.concat([new_x, new_u]), None

    return _run(step, z0, cfg, counters, layout=layout)


# ---------------------------------------------------------------------------
# nonlinear constrained optimization


@dataclass
class NlpProblem:
    """min f(x) + h(x) subject to g_i(x) <= 0 over the localization set Y.

    ``f`` is given by its prox (a resolvent oracle), ``h`` by its gradient
    (cocoercive, with the function value attached for reporting), and each
    constraint by value and gradient oracles.  Its parts are not meant to
    change after construction: the saddle inclusion is built once.
    """

    f: MaximalMonotone
    h: CocoerciveMap
    constraints: list[SmoothConstraint]
    Y: ClosedConvexSet
    dim: int
    data: dict = field(default_factory=dict)   # generator metadata

    def __post_init__(self):
        if not self.constraints:
            raise ValueError("at least one constraint is required")

    @property
    def p(self) -> int:
        return len(self.constraints)

    @property
    def beta(self) -> float:
        return self.h.beta

    @property
    def layout(self) -> BlockLayout:
        return BlockLayout.from_dims([self.dim, self.p])

    def saddle_spec(self) -> ProblemSpec:
        """Lagrangian inclusion on (x, u): A = prox-part x nonneg cone,
        B1 = (grad h, 0), B2 = the constraint saddle map, X = Y x R^p_+.

        Built on the first call (the saddle map of affine constraints takes
        an SVD for its Lipschitz constant) and returned as is afterwards;
        its oracles keep no state between calls.  ``solve_nlp`` reaches it
        through the instance, so a caller may rebind it there to wrap it."""
        return self._saddle_spec

    @cached_property
    def _saddle_spec(self) -> ProblemSpec:
        """A and X are the product operators of the blocks (x, u): when f
        is the normal cone of a box and Y a box, as in every generator
        here, A's resolvent and the projection onto X are each one clamp
        over the stacked bounds, the u-block's bounds being [0, +inf)."""
        p = self.p
        n = self.dim
        h_eval = self.h.evaluate

        # B1 fills the x-block of one zeroed output vector
        def b1_eval(w):
            out = np.zeros(n + p)
            out[:n] = h_eval(w[:n])
            return out

        A = MaximalMonotone.product([(self.f, n), (nonneg_cone(p), p)], tag="saddle-A")
        B1 = CocoerciveMap(evaluate=b1_eval, beta=self.h.beta, tag="saddle-B1")
        X = ClosedConvexSet.product([(self.Y, n), (ClosedConvexSet.nonneg_orthant(), p)])
        return ProblemSpec(A=A, B1=B1, B2=lagrangian_saddle_map(self.constraints), X=X,
                           dimension=n + p)

    def objective(self, x) -> float:
        if self.h.value is None:
            raise ValueError("h carries no value oracle")
        return self.h.value(np.asarray(x, dtype=float))

    def max_constraint(self, x) -> float:
        return max(c.value(np.asarray(x, dtype=float)) for c in self.constraints)

    def default_start(self) -> np.ndarray:
        x0 = self.Y.project(np.zeros(self.dim))
        return np.concatenate([x0, np.zeros(self.p)])

    def as_primal_dual(self) -> PrimalDualProblem:
        """The problem as a composite primal-dual inclusion (the product-space
        view of Condat 2013 and Vu 2013): A = f, C1 = h, C2 = None and one
        dual block B = N_{R^p_-}, the normal cone of the nonpositive orthant,
        with L = D the stacked rows of the constraints g_i(x) = d_i^T x.  Its
        term L^T N_{R^p_-}(L x) encodes D x <= 0.

        Every constraint must be affine (carry ``affine_row``); any other
        raises ConfigurationError.  Y is a localization set: known to contain
        a solution, it is where the saddle iteration projects, and it is not
        part of this form."""
        if any(c.affine_row is None for c in self.constraints):
            raise ConfigurationError(
                "the primal-dual form needs affine constraints (affine_row on each)")
        D = np.vstack([c.affine_row for c in self.constraints])
        neg_orthant = MaximalMonotone(resolvent=lambda gamma, y: np.minimum(y, 0.0),
                                      tag="N-")
        return PrimalDualProblem(A=self.f, C1=self.h, C2=None,
                                 blocks=(DualBlock(B=neg_orthant, L=D),), dim=self.dim)


def solve_nlp(p: NlpProblem, policy: StepPolicy, cfg: SolveConfig,
              start=None, baseline: str = "fbhf") -> SolveReport:
    """Solve the Lagrangian saddle inclusion of the constrained problem.

    The main iteration reads, blockwise on (x, u):

        y    = prox_{gamma f}(x - gamma (grad h(x) + sum_i u_i grad g_i(x)))
        eta  = max(0, u + gamma g(x))
        u^+  = max(0, eta - gamma (g(x) - g(y)))
        x^+  = P_Y(y + gamma sum_i (u_i grad g_i(x) - eta_i grad g_i(y)))

    ``baseline="tseng"`` runs the forward-backward-forward comparison method
    on the same saddle inclusion instead.
    """
    spec = p.saddle_spec()
    z0 = p.default_start() if start is None else as_vector(start)
    if baseline == "fbhf":
        report = solve_fbhf(spec, policy, cfg, z0)
    elif baseline == "tseng":
        report = solve_tseng_fbf(spec, policy, cfg, z0)
    else:
        raise ConfigurationError(f"unknown baseline {baseline!r}")
    report.layout = p.layout
    return report


# ---------------------------------------------------------------------------
# seeded generators


def gen_lin_ineq_qp(N: int, p: int, seed: int) -> NlpProblem:
    """Box-constrained least squares with homogeneous linear inequalities:

        min 0.5 ||A x - b||^2  s.t.  x in [0, 1]^N,  d_i^T x <= 0,

    A is (N/2) x N, entries of A, D, b i.i.d. standard normal from the seed.
    x = 0 is always feasible.  A is drawn straight into storage that starts
    on a 64-byte boundary (``linalg.aligned_empty``; the same stream as
    ``standard_normal((N // 2, N))``), so ``data["A"]`` is the very matrix
    the gradient h multiplies by: at N = 200 its GEMVs run 25-40% faster
    than from a misaligned start, with the same bits.
    """
    if N % 2 != 0 or N < 2:
        raise ValueError("N must be even (A has N/2 rows)")
    if p < 1:
        raise ValueError("p must be >= 1")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal(out=aligned_empty((N // 2, N)))
    D = rng.standard_normal((p, N))
    b = rng.standard_normal(N // 2)
    h = quadratic_gradient(A, b)
    return NlpProblem(f=normal_cone_box(np.zeros(N), np.ones(N)),
                      h=h,
                      constraints=affine_constraints(D),
                      Y=ClosedConvexSet.box(np.zeros(N), np.ones(N)),
                      dim=N,
                      data={"A": A, "D": D, "b": b, "beta": h.beta,
                            "L": operator_norm(D)})


def gen_entropy_ls(N: int, r_fraction: float, seed: int) -> NlpProblem:
    """Least squares over the box [0.001, 1]^N with one relative-entropy
    ball constraint of level r = r_fraction * N around the all-ones vector."""
    if N % 2 != 0 or N < 2:
        raise ValueError("N must be even (A has N/2 rows)")
    if not -1.0 < r_fraction < 0.0:
        raise ValueError("r_fraction must lie in ]-1, 0[")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N // 2, N))
    b = rng.standard_normal(N // 2)
    lo = np.full(N, 0.001)
    hi = np.ones(N)
    h = quadratic_gradient(A, b)
    constraint = entropy_constraint(np.ones(N), r_fraction * N)
    return NlpProblem(f=normal_cone_box(lo, hi),
                      h=h,
                      constraints=[constraint],
                      Y=ClosedConvexSet.box(lo, hi),
                      dim=N,
                      data={"A": A, "b": b, "beta": h.beta,
                            "r": r_fraction * N})


def gen_erm_hinge(d: int, m: int, seed: int) -> ErmProblem:
    """Unit-norm random data with hinge losses max(0, 1 - b_i t) and random
    labels b_i in {-1, +1}."""
    from .operators import prox_hinge

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    labels = np.where(rng.standard_normal(m) >= 0.0, 1.0, -1.0)
    proxes = tuple(prox_hinge(float(b)) for b in labels)
    values = tuple((lambda t, b=float(b): max(0.0, 1.0 - b * t)) for b in labels)
    return ErmProblem(a=a, proxes=proxes, values=values)
