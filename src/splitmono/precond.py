"""Resolvents and splitting iterations under non-self-adjoint preconditioners.

A square strongly monotone ``P = U + S`` (symmetric part ``U``, skew part
``S``) replaces the scalar stepsize: the resolvent becomes ``J_{P^{-1}A}``
and the skew part is absorbed into the Lipschitz-monotone term, which is
what makes block-triangular ``P`` (Gauss-Seidel sweeps) admissible.  The
variable-metric iteration ``solve_variable_metric`` never inverts ``U``.
With ``T`` the fixed-metric step of ``solve_precond_fbhf`` (X = H), an
averaged-type operator in the ``U`` metric, it applies
``Q = Id - lambda U (Id - T)``: ``U (T z - z) = P (x - z) + B2 z - B2 x``
needs no ``U^{-1}``, and for ``0 < lambda <= ||U||^{-1}`` ``Q`` has the fixed
points of ``T`` and is of the same type in the standard metric.

A preconditioner is one fixed linear operator per solve, so each linear map
an iteration applies is factored once, on first use, and then costs one
matrix-vector product per call: ``U^{-1}`` (from the Cholesky factor of U,
on the first ``solve_U``) and ``P^{-1}`` (first ``solve_P``).  The first
``resolvent_via_P`` with an A prepares its route, once per (P, A) pair: the
matrix ``(P + M_A)^{-1} P`` for a linear A, or, for a block-separable A, the
checked block pattern of the forward substitution.  Each inverse is gated on its
condition number, ``||U|| / rho`` for U and ``||M||_1 ||M^{-1}||_1`` for others:
above ``linalg.MAX_INVERSE_CONDITION`` every call solves against the matrix
instead, because a stored inverse loses about log10(kappa) digits.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .linalg import (MAX_INVERSE_CONDITION, BlockLayout, as_matrix,
                     at_most, conditioned_inverse, operator_norm, spd_inverse,
                     split_symmetric_skew, symmetric_min_eig)
from .operators import MaximalMonotone, ProblemSpec
from .fbhf import (ConfigurationError, SolveConfig, SolveReport, _Counters,
                   _counted, _default_start, _forward, _iterate_fbhf, _positive,
                   _run, metric_violation)


@dataclass
class Preconditioner:
    """Strongly monotone linear preconditioner with cached split and constants.

    ``K`` is the Lipschitz constant of ``B2 - S`` for the problem the
    preconditioner will be used on; ``k_source`` records how it was obtained
    ("b2_matrix", "user", or "skew_only" when B2 is absent), and
    ``b2_matrix`` the matrix it was computed from, if any.

    The inverses behind ``solve_U``, ``solve_P`` and ``resolvent_via_P`` are
    built on first use (see the module docstring).  ``solve_U`` and
    ``solve_P`` are plain methods, so a caller may rebind them on an
    instance to wrap them.
    """

    P: np.ndarray
    U: np.ndarray
    S: np.ndarray
    rho: float
    K: float
    norm_U: float
    k_source: str = "skew_only"
    b2_matrix: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    # (key, route) for the last A passed to resolvent_via_P, the key being
    # A.matrix or A.blocks, matched by identity so that a second A on this
    # preconditioner never runs the first one's route
    _resolvent_slot: Optional[tuple] = field(default=None, init=False, repr=False,
                                             compare=False)

    @classmethod
    def from_matrix(cls, P, b2_matrix=None,
                    lipschitz_K: Optional[float] = None) -> "Preconditioner":
        """Split ``P = U + S`` and take rho = lambda_min(U), ||U|| and K
        (from ``b2_matrix - S``, the user's bound, or ``S``) from LAPACK."""
        Pm = as_matrix(P)
        if Pm.shape[0] != Pm.shape[1]:
            raise ValueError("preconditioner must be square")
        U, S = split_symmetric_skew(Pm)
        rho = symmetric_min_eig(U)
        norm_U = operator_norm(U)
        if b2_matrix is not None and lipschitz_K is not None:
            raise ValueError("give b2_matrix or lipschitz_K, not both")
        if b2_matrix is not None:
            b2_matrix = as_matrix(b2_matrix)
            K = operator_norm(b2_matrix - S)
            source = "b2_matrix"
        elif lipschitz_K is not None:
            if not 0 <= lipschitz_K < math.inf:
                raise ValueError("K must be nonnegative and finite")
            K = float(lipschitz_K)
            source = "user"
        else:
            K = operator_norm(S)
            source = "skew_only"
        return cls(P=Pm, U=U, S=S, rho=rho, K=K, norm_U=norm_U, k_source=source,
                   b2_matrix=b2_matrix)

    @property
    def dim(self) -> int:
        return self.P.shape[0]

    @cached_property
    def _U_inverse(self) -> Optional[np.ndarray]:
        # kappa_2(U) = ||U|| / lambda_min(U) is known without the inverse
        if self.rho <= 0:
            raise ConfigurationError("U is not positive definite (rho <= 0)")
        if self.norm_U / self.rho > MAX_INVERSE_CONDITION:
            return None
        return spd_inverse(self.U)

    @cached_property
    def _P_inverse(self) -> Optional[np.ndarray]:
        return conditioned_inverse(self.P)

    def solve_U(self, b: np.ndarray) -> np.ndarray:
        U_inv = self._U_inverse
        return np.linalg.solve(self.U, b) if U_inv is None else U_inv.dot(b)

    def solve_P(self, b: np.ndarray) -> np.ndarray:
        P_inv = self._P_inverse
        return np.linalg.solve(self.P, b) if P_inv is None else P_inv.dot(b)

    @cached_property
    def scalar_step(self) -> Optional[float]:
        """gamma with P = Id/gamma when the preconditioner is that exact
        scalar multiple, else None."""
        if np.any(self.S):
            return None
        c = self.P[0, 0]
        if c <= 0:
            return None
        if not np.array_equal(self.P, c * np.eye(self.dim)):
            return None
        return 1.0 / c


def resolvent_via_P(A: MaximalMonotone, pre: Preconditioner, z) -> np.ndarray:
    """Compute ``J_{P^{-1}A}(z)``, the point x with ``P(z - x) in A x``.

    Routes, each prepared once per (P, A) pair: a linear A (matrix ``M_A``)
    gives ``x = (P + M_A)^{-1} P z``, applied as one matrix; a block-separable
    A with a block-lower-triangular P and scalar diagonal blocks is solved by
    forward substitution (each block resolvent consumes only previously
    computed blocks).

    ``z`` must be a nonempty vector.  Non-finite entries pass through, as
    they do in every other resolvent, so that an overflowing run ends
    ``diverged`` in the iteration loop rather than raising here.
    """
    zv = np.asarray(z, dtype=float)
    if zv.ndim != 1 or zv.size == 0:
        raise ValueError("vector must be 1-D and nonempty")
    if pre.rho <= 0:
        raise ConfigurationError("preconditioner must be strongly monotone (rho > 0)")
    gamma = pre.scalar_step
    if gamma is not None:
        return A.resolvent(gamma, zv)
    key = A.matrix if A.matrix is not None else A.blocks
    if key is None:
        raise ConfigurationError(
            "no composite resolvent: A must be linear (matrix) or block-separable "
            "with a block-triangular preconditioner")
    slot = pre._resolvent_slot
    if slot is None or slot[0] is not key:
        route = _linear_resolvent if A.matrix is not None else _forward_substitution
        slot = pre._resolvent_slot = (key, route(pre.P, key))
    return slot[1](zv)


def _linear_resolvent(P: np.ndarray, M_A: np.ndarray) -> Callable:
    """Apply ``(P + M_A)^{-1} P`` as one matrix, or solve per call past the condition gate."""
    PA = P + M_A
    PA_inv = conditioned_inverse(PA)
    if PA_inv is None:
        return lambda z: np.linalg.solve(PA, P @ z)
    return (PA_inv @ P).dot


def _forward_substitution(P: np.ndarray, blocks) -> Callable:
    """Check that P is block lower triangular for ``blocks`` with positive scalar
    diagonal blocks; return the substitution over the nonzero blocks only."""
    off = BlockLayout.from_dims([d for _, d in blocks]).offsets
    if off[-1] != P.shape[0]:
        raise ConfigurationError("preconditioner and operator dimensions disagree")
    spans = [slice(a, b) for a, b in zip(off, off[1:])]
    if any(np.any(P[sl, sl.stop:]) for sl in spans):
        raise ConfigurationError("no composite resolvent: P is not block lower "
                                 "triangular for the block structure of A")
    rows = []
    for i, ((op, d), sl) in enumerate(zip(blocks, spans)):
        c = P[sl.start, sl.start]
        if c <= 0 or not np.array_equal(P[sl, sl], c * np.eye(d)):
            raise ConfigurationError(
                "no composite resolvent: diagonal blocks of P must be positive "
                "scalar multiples of the identity")
        earlier = [(sj, P[sl, sj]) for sj in spans[:i] if np.any(P[sl, sj])]
        # each call's carry starts from these zeros, which ``+`` never writes to
        rows.append((op.resolvent, sl, np.zeros(d), c, 1.0 / c, earlier))

    def substitute(z):
        x = np.empty(off[-1])
        for resolvent, sl, carry, c, step, earlier in rows:
            for sj, blk in earlier:
                carry = carry + blk @ (z[sj] - x[sj])
            x[sl] = resolvent(step, z[sl] + carry / c)
        return x

    return substitute


def _check_preconditioner(spec: ProblemSpec, pre: Preconditioner,
                          strict: bool = True, inflate: float = 0.0) -> None:
    """Admit ``pre`` for ``spec``, once per solve: matching dimensions, a K
    that accounts for B2 (from its matrix, or explicit for a nonlinear B2),
    the metric condition, non-strict at rho/(1+inflate) for the variable
    metric, and the check that K came from this B2: a K computed from a
    matrix must come from ``spec.B2.matrix``, an explicit K must bound
    ``||B2.matrix - S||`` (sampled for a nonlinear B2), and with B2 absent ``||S||``."""
    if pre.dim != spec.dimension:
        raise ConfigurationError("preconditioner dimension does not match the problem")
    if spec.B2 is not None:
        if spec.B2.matrix is None:
            if pre.k_source != "user":
                raise ConfigurationError(
                    "B2 is nonlinear: build the preconditioner with an explicit K")
        elif pre.k_source == "skew_only":
            raise ConfigurationError(
                "preconditioner was built without the B2 matrix; K is wrong")
    why = metric_violation(pre.rho / (1.0 + inflate), pre.K, spec.beta, strict)
    if why is not None:
        raise ConfigurationError(f"metric condition violated: {why} (rho = "
                                 f"{pre.rho:.6g}, K = {pre.K:.6g}, beta = {spec.beta:.6g})")
    M = None if spec.B2 is None else spec.B2.matrix
    if spec.B2 is None:
        norm_S = operator_norm(pre.S)   # B2 - S = -S
        if not at_most(norm_S, pre.K):
            raise ConfigurationError(f"K = {pre.K:.6g} is below ||S|| = {norm_S:.6g}, "
                                     "the Lipschitz constant of B2 - S with B2 absent")
    elif M is None:
        _validate_sampled_K(spec, pre)
    elif pre.k_source == "b2_matrix" and not (pre.b2_matrix is M
                                              or np.array_equal(pre.b2_matrix, M)):
        raise ConfigurationError(
            "preconditioner's K was computed from another B2 matrix; K is wrong")
    elif pre.k_source == "user":
        true_K = operator_norm(M - pre.S)
        if not at_most(true_K, pre.K):
            raise ConfigurationError(
                f"supplied K = {pre.K:.6g} is not a Lipschitz constant of B2 - S "
                f"(||B2 - S|| = {true_K:.6g})")


# Relative and absolute slack of the sampled Lipschitz check of a supplied K,
# for the rounding of both sides on random pairs: a sampling and rounding
# tolerance, not a condition margin (linalg.CONDITION_MARGIN), and its pairs.
K_SAMPLE_RTOL = 1e-8
K_SAMPLE_ATOL = 1e-12
K_SAMPLE_PAIRS = 1000


def _validate_sampled_K(spec: ProblemSpec, pre: Preconditioner) -> None:
    """Spot-check a user-supplied K by sampling ||(B2-S)u - (B2-S)v|| on
    K_SAMPLE_PAIRS standard-normal pairs drawn from a fixed seed, so every
    solve samples the same pairs."""
    rng = np.random.default_rng(0)
    tested = 0
    for _ in range(K_SAMPLE_PAIRS):
        u = rng.standard_normal(spec.dimension)
        v = rng.standard_normal(spec.dimension)
        dom = spec.B2.domain
        if dom is not None and not (dom(u) and dom(v)):
            continue
        cu = spec.B2.evaluate(u) - pre.S @ u
        cv = spec.B2.evaluate(v) - pre.S @ v
        gap = np.linalg.norm(u - v)
        if gap == 0:
            continue
        tested += 1
        if np.linalg.norm(cu - cv) > pre.K * gap * (1.0 + K_SAMPLE_RTOL) + K_SAMPLE_ATOL:
            raise ConfigurationError(
                f"supplied K = {pre.K:.6g} is not a Lipschitz constant of B2 - S "
                f"(violated on a sampled pair)")
    if tested < K_SAMPLE_PAIRS // 20:
        warnings.warn("K validation sampled too few in-domain pairs to be meaningful",
                      stacklevel=2)


def _metric_projector(spec: ProblemSpec, U: np.ndarray):
    if spec.X.is_whole_space:
        return lambda v: v
    if spec.X.metric_project is None:
        raise ConfigurationError("X provides no U-metric projection")
    off_diag = U - np.diag(np.diag(U))
    if np.any(off_diag):
        raise ConfigurationError(
            "U-metric projection onto X is only supported for diagonal U (or X = H)")
    return lambda v: spec.X.metric_project(U, v)


def _counted_backward(spec: ProblemSpec, counters: _Counters):
    """The counted step shared by the preconditioned iterations:
    ``backward(pre, z)`` returns x = J_{P^{-1}A}(z - P^{-1}(B1 + B2) z) and
    B2 z - B2 x (None when B2 is absent).  The resolvent counted is the call
    to ``resolvent_via_P``, looked up at call time."""
    A = spec.A
    resolvent = counters.count("res", lambda pre, z: resolvent_via_P(A, pre, z))
    spec = _counted(spec, counters)

    def backward(pre, z):
        b2z, bz = _forward(spec, z)
        x = resolvent(pre, z if bz is None else z - pre.solve_P(bz))
        return x, None if b2z is None else b2z - spec.B2.evaluate(x)

    return backward


def solve_precond_fbhf(spec: ProblemSpec, pre: Preconditioner, cfg: SolveConfig,
                       z0=None) -> SolveReport:
    """Preconditioned iteration

        x   = J_{P^{-1}A}(z - P^{-1}(B1 + B2) z)
        z^+ = proj_X^U(x + U^{-1}(B2 z - B2 x - S (z - x)))

    subject to K^2 < rho (rho - 1/(2 beta)).  With P = Id/gamma this is the
    constant-stepsize main iteration and the run delegates to it step by step.
    """
    _check_preconditioner(spec, pre)
    counters = _Counters()

    z_start = _default_start(spec.dimension, z0)
    gamma = pre.scalar_step
    if gamma is not None:
        # the metric condition above is the chi bound for this gamma
        return _iterate_fbhf(spec, gamma, cfg, z_start)

    project = counters.count("proj", _metric_projector(spec, pre.U))
    backward = _counted_backward(spec, counters)

    def step(k, z):
        x, b2_diff = backward(pre, z)
        corr = -pre.S.dot(z - x)
        if b2_diff is not None:
            corr = b2_diff + corr
        return project(x + pre.solve_U(corr)), None

    return _run(step, z_start, cfg, counters)


@dataclass
class MetricSchedule:
    """Per-iteration preconditioners P_k with the uniform constants the
    no-inversion iteration needs: M = sup_k ||U_k||, a margin epsilon in
    ]0, 1/(2M)[, and relaxations lambda_k in [epsilon, ||U_k||^{-1} - epsilon].
    """

    at: Callable[[int], Preconditioner]
    norm_sup: float
    epsilon: Optional[float] = None
    lambdas: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        _positive("norm_sup", self.norm_sup)
        cap = 1.0 / (2.0 * self.norm_sup)
        if self.epsilon is None:
            self.epsilon = min(0.01, cap / 2.0)
        if not 0.0 < self.epsilon < cap:
            raise ValueError(f"epsilon must lie in ]0, {cap:.6g}[")

    @classmethod
    def constant(cls, pre: Preconditioner, **kw) -> "MetricSchedule":
        return cls(at=lambda k: pre, norm_sup=pre.norm_U, **kw)

    @classmethod
    def cycle(cls, pres, **kw) -> "MetricSchedule":
        pres = list(pres)
        if not pres:
            raise ValueError("need at least one preconditioner")
        return cls(at=lambda k: pres[k % len(pres)],
                   norm_sup=max(p.norm_U for p in pres), **kw)

    def lambda_at(self, k: int, pre: Preconditioner) -> float:
        lo = self.epsilon
        hi = 1.0 / pre.norm_U - self.epsilon
        lam = hi if self.lambdas is None else float(self.lambdas(k))
        # lo <= lam <= hi under the margin rule, each side scaled by its bound
        if not (at_most(-lam, -lo) and at_most(lam, hi)):
            raise ConfigurationError(
                f"relaxation lambda_{k} = {lam:.6g} outside [{lo:.6g}, {hi:.6g}]")
        return lam


def solve_variable_metric(spec: ProblemSpec, sched: MetricSchedule,
                          cfg: SolveConfig, z0=None) -> SolveReport:
    """Variable-metric iteration that never inverts U_k:

        x   = J_{P_k^{-1}A}(z - P_k^{-1}(B1 + B2) z)
        z^+ = z + lambda_k (P_k (x - z) + B2 z - B2 x)

    Needs X = H and B2 with full domain; each P_k is admitted as
    ``solve_precond_fbhf`` admits its preconditioner, but under the inflated
    metric condition K_k^2 <= r_k (r_k - 1/(2 beta)), r_k = rho_k/(1+eps),
    and with ||U_k|| <= M; the first iteration k that meets a P_k admits it,
    once per solve, and a rejection names that k.
    """
    if not spec.X.is_whole_space:
        raise ConfigurationError("the no-inversion iteration requires X = H")
    if spec.B2 is not None and spec.B2.domain is not None:
        raise ConfigurationError("the no-inversion iteration requires dom B2 = H")

    z_start = _default_start(spec.dimension, z0)
    counters = _Counters()
    backward = _counted_backward(spec, counters)
    # the P_k this solve admitted, by identity; weak, so none is kept alive
    admitted = weakref.WeakValueDictionary()

    def step(k, z):
        pre = sched.at(k)
        if admitted.get(id(pre)) is not pre:
            try:
                _check_preconditioner(spec, pre, strict=False, inflate=sched.epsilon)
            except ConfigurationError as exc:
                raise ConfigurationError(f"P_{k}: {exc}") from None
            if not at_most(pre.norm_U, sched.norm_sup):
                raise ConfigurationError(
                    f"||U_{k}|| = {pre.norm_U:.6g} exceeds the declared bound "
                    f"M = {sched.norm_sup:.6g}")
            admitted[id(pre)] = pre
        lam = sched.lambda_at(k, pre)

        x, b2_diff = backward(pre, z)
        corr = pre.P.dot(x - z)
        if b2_diff is not None:
            corr = corr + b2_diff
        return z + lam * corr, None

    return _run(step, z_start, cfg, counters)
