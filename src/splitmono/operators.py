"""Monotone-operator catalog.

The solvers consume three kinds of single-point oracles: resolvents of
maximally monotone operators, evaluations of cocoercive maps, and
evaluations of (possibly non-Lipschitz) continuous monotone maps, plus
projections onto closed convex sets.  This module defines those carrier
types and the concrete instances used by the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import BlockLayout, as_matrix, as_vector, operator_norm


class DomainError(ValueError):
    """An oracle was evaluated outside its domain."""


# ---------------------------------------------------------------------------
# carrier types


@dataclass(frozen=True)
class MaximalMonotone:
    """Maximally monotone operator represented by its resolvent oracle.

    ``resolvent(gamma, y)`` returns ``J_{gamma A}(y) = (Id + gamma A)^{-1} y``.
    ``matrix`` is set when the operator is linear (``A x = matrix @ x``);
    ``blocks`` records block-separable structure as ``(operator, dim)`` pairs.
    """

    resolvent: Callable[[float, np.ndarray], np.ndarray]
    tag: str = ""
    domain: Optional[Callable[[np.ndarray], bool]] = None
    matrix: Optional[np.ndarray] = None
    blocks: Optional[tuple] = None

    @classmethod
    def zero(cls, tag: str = "zero") -> "MaximalMonotone":
        return cls(resolvent=lambda gamma, y: y, tag=tag)

    @classmethod
    def from_matrix(cls, M, tag: str = "linear") -> "MaximalMonotone":
        A = as_matrix(M)
        if A.shape[0] != A.shape[1]:
            raise ValueError("linear operator must be square")
        eye = np.eye(A.shape[0])

        def res(gamma, y):
            return np.linalg.solve(eye + gamma * A, y)

        return cls(resolvent=res, tag=tag, matrix=A)

    @classmethod
    def product(cls, parts, tag: str = "product") -> "MaximalMonotone":
        """Block-separable operator acting independently on each block."""
        ops = tuple((op, int(dim)) for op, dim in parts)
        layout = BlockLayout.from_dims([d for _, d in ops])

        def res(gamma, y):
            return layout.concat([op.resolvent(gamma, layout.block(y, i))
                                  for i, (op, _) in enumerate(ops)])

        return cls(resolvent=res, tag=tag, blocks=ops)


@dataclass(frozen=True)
class CocoerciveMap:
    """beta-cocoercive map: <Cx-Cy, x-y> >= beta ||Cx-Cy||^2.

    ``value`` optionally evaluates the convex function whose gradient this
    map is, for reporting.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    beta: float
    tag: str = ""
    value: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("cocoercivity modulus must be positive")


@dataclass(frozen=True)
class MonotoneMap:
    """Continuous monotone map; ``lipschitz`` is None when only continuity
    is known, which forces line-search solvers."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    lipschitz: Optional[float] = None
    tag: str = ""
    domain: Optional[Callable[[np.ndarray], bool]] = None
    matrix: Optional[np.ndarray] = None

    @classmethod
    def from_matrix(cls, M, tag: str = "linear") -> "MonotoneMap":
        A = as_matrix(M)
        return cls(evaluate=lambda x: A @ x, lipschitz=operator_norm(A),
                   tag=tag, matrix=A)


@dataclass(frozen=True)
class ClosedConvexSet:
    """Closed convex set given by a projection oracle.

    ``metric_project(U, v)`` is the projection in the inner product
    ``<U., .>`` and is only available for sets where it is closed-form.
    """

    project: Callable[[np.ndarray], np.ndarray]
    contains: Callable[[np.ndarray, float], bool]
    tag: str = ""
    metric_project: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    is_whole_space: bool = False

    @classmethod
    def whole_space(cls) -> "ClosedConvexSet":
        return cls(project=lambda v: v,
                   contains=lambda v, tol=0.0: True,
                   tag="H", metric_project=lambda U, v: v,
                   is_whole_space=True)

    @classmethod
    def box(cls, lo, hi) -> "ClosedConvexSet":
        lo, hi = _box_bounds(lo, hi)

        def proj(v):
            return np.minimum(np.maximum(v, lo), hi)

        def member(v, tol=1e-10):
            return bool(np.all(v >= lo - tol) and np.all(v <= hi + tol))

        # a diagonal metric separates coordinates, so the metric projection
        # onto a box is still the componentwise clamp
        return cls(project=proj, contains=member, tag="box",
                   metric_project=lambda U, v: proj(v))

    @classmethod
    def nonneg_orthant(cls) -> "ClosedConvexSet":
        def proj(v):
            return np.maximum(v, 0.0)

        return cls(project=proj,
                   contains=lambda v, tol=1e-10: bool(np.all(v >= -tol)),
                   tag="R+", metric_project=lambda U, v: proj(v))

    @classmethod
    def product(cls, parts) -> "ClosedConvexSet":
        sets = tuple((s, int(d)) for s, d in parts)
        layout = BlockLayout.from_dims([d for _, d in sets])

        def proj(v):
            return layout.concat([s.project(layout.block(v, i))
                                  for i, (s, _) in enumerate(sets)])

        def member(v, tol=1e-10):
            return all(s.contains(layout.block(v, i), tol)
                       for i, (s, _) in enumerate(sets))

        whole = all(s.is_whole_space for s, _ in sets)

        def mproj(U, v):
            # only valid for diagonal U; every factor set must support it
            return layout.concat([
                s.metric_project(U[layout.offsets[i]:layout.offsets[i + 1],
                                   layout.offsets[i]:layout.offsets[i + 1]],
                                 layout.block(v, i))
                for i, (s, _) in enumerate(sets)])

        ok_metric = all(s.metric_project is not None for s, _ in sets)
        return cls(project=proj, contains=member, tag="product",
                   metric_project=mproj if ok_metric else None,
                   is_whole_space=whole)


@dataclass(frozen=True)
class ProblemSpec:
    """Inclusion 0 in A x + B1 x + B2 x over the constraint set X.

    ``B1 is None`` encodes an absent cocoercive term (modulus +inf);
    ``B2 is None`` encodes an absent monotone term.  When ``B2`` carries no
    Lipschitz constant only line-search solvers apply.
    """

    A: MaximalMonotone
    B1: Optional[CocoerciveMap]
    B2: Optional[MonotoneMap]
    X: ClosedConvexSet
    dimension: int
    known_solution: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def beta(self) -> float:
        return math.inf if self.B1 is None else self.B1.beta

    @property
    def lipschitz(self) -> Optional[float]:
        """Lipschitz constant of B2; 0.0 when B2 is absent, None if unknown."""
        if self.B2 is None:
            return 0.0
        return self.B2.lipschitz


# ---------------------------------------------------------------------------
# catalog constructors


def _box_bounds(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Validate box bounds; infinite entries are allowed (half-open boxes)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
        raise ValueError("bounds must be matching nonempty vectors")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
        raise ValueError("box requires lo <= hi componentwise")
    return lo, hi


def normal_cone_box(lo, hi) -> MaximalMonotone:
    """Normal cone of the box [lo, hi]; its resolvent is the projection,
    independent of the step size."""
    lo, hi = _box_bounds(lo, hi)
    return MaximalMonotone(resolvent=lambda gamma, y: np.minimum(np.maximum(y, lo), hi),
                           tag="N_box")


def nonneg_cone(p: int) -> MaximalMonotone:
    """Normal cone of the nonnegative orthant of dimension p."""
    return MaximalMonotone(resolvent=lambda gamma, y: np.maximum(y, 0.0),
                           tag="N_R+")


def prox_conjugate(f_prox: MaximalMonotone) -> MaximalMonotone:
    """Prox of the Fenchel conjugate, built by the Moreau identity

        prox_{gamma f*}(y) = y - gamma * prox_{f/gamma}(y/gamma).
    """

    def res(gamma, y):
        if gamma <= 0:
            raise ValueError("step size must be positive")
        return y - gamma * f_prox.resolvent(1.0 / gamma, y / gamma)

    return MaximalMonotone(resolvent=res, tag=f"conj({f_prox.tag})")


def quadratic_gradient(A_mat, b) -> CocoerciveMap:
    """Gradient of x -> ||A x - b||^2 / 2, cocoercive with beta = ||A||^{-2}."""
    A = as_matrix(A_mat)
    rhs = as_vector(b)
    if A.shape[0] != rhs.shape[0]:
        raise ValueError("A and b dimensions disagree")
    beta = operator_norm(A) ** (-2)

    def grad(x):
        return A.T @ (A @ x - rhs)

    def val(x):
        r = A @ x - rhs
        return 0.5 * float(r @ r)

    return CocoerciveMap(evaluate=grad, beta=beta, tag="0.5||Ax-b||^2", value=val)


def affine_gradient(Q, d) -> CocoerciveMap:
    """Gradient x -> Q x - d of a convex quadratic with Q symmetric PSD."""
    Qm = as_matrix(Q)
    dv = as_vector(d)
    beta = 1.0 / operator_norm(Qm)
    return CocoerciveMap(evaluate=lambda x: Qm @ x - dv, beta=beta, tag="quad",
                         value=lambda x: 0.5 * float(x @ (Qm @ x)) - float(dv @ x))


@dataclass(frozen=True)
class SmoothConstraint:
    """One scalar convex constraint g(x) <= 0 with value and gradient oracles.

    ``value_and_gradient(x)``, when set, returns ``(value(x), gradient(x))``
    bit for bit in one pass that shares their common work.  Its caller has
    already checked that x lies in ``domain``, so it checks nothing itself.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    domain: Optional[Callable[[np.ndarray], bool]] = None
    affine_row: Optional[np.ndarray] = None  # set when g(x) = row @ x
    value_and_gradient: Optional[Callable[[np.ndarray], tuple[float, np.ndarray]]] = None


def affine_constraints(D) -> list[SmoothConstraint]:
    """Constraints d_i^T x <= 0 for the rows d_i of D."""
    Dm = as_matrix(D)
    out = []
    for row in Dm:
        r = row.copy()
        out.append(SmoothConstraint(value=lambda x, r=r: float(r @ x),
                                    gradient=lambda x, r=r: r,
                                    affine_row=r))
    return out


def entropy_constraint(a, r: float) -> SmoothConstraint:
    """Relative-entropy ball constraint

        g(x) = sum_i x_i (ln(x_i / a_i) - 1) - r <= 0

    with the convention 0 ln 0 = 0.  The gradient (ln(x_i/a_i))_i exists for
    x > 0 only.
    """
    av = as_vector(a)
    if np.any(av <= 0):
        raise ValueError("reference vector a must be strictly positive")
    if not (-float(np.sum(av)) < r < 0):
        raise ValueError("level r must satisfy -sum(a) < r < 0")

    def value(x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise DomainError("entropy constraint value requires x >= 0")
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = x[pos] * (np.log(x[pos] / av[pos]) - 1.0)
        return float(np.sum(out)) - r

    def gradient(x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise DomainError("entropy constraint gradient requires x > 0")
        return np.log(x / av)

    def value_and_gradient(x):
        # x > 0, so value's masked sum runs over every entry: same bits
        lg = np.log(x / av)
        return float((x * (lg - 1.0)).sum()) - r, lg

    # a NaN entry makes min() NaN, which fails the test, as it fails x > 0
    return SmoothConstraint(value=value, gradient=gradient,
                            domain=lambda x: bool(np.asarray(x).min() > 0),
                            value_and_gradient=value_and_gradient)


def lagrangian_saddle_map(constraints) -> MonotoneMap:
    """Saddle-point map of the constraint part of a Lagrangian,

        (x, u) -> ( sum_i u_i grad g_i(x), -g_1(x), ..., -g_p(x) ).

    Monotone and continuous for convex g_i; Lipschitz only when every g_i
    is affine, in which case the map is the skew matrix [[0, D^T], [-D, 0]]
    built from the stacked coefficient rows.  Otherwise each call checks
    every constraint's domain once, then uses its ``value_and_gradient``
    when it has one.
    """
    cons = list(constraints)
    if not cons:
        raise ValueError("at least one constraint is required")
    p = len(cons)

    all_affine = all(c.affine_row is not None for c in cons)
    D = np.vstack([c.affine_row for c in cons]) if all_affine else None

    def evaluate(w):
        w = np.asarray(w, dtype=float)
        n = w.shape[0] - p
        x = w[:n]
        out = np.empty_like(w)
        grad_part = out[:n]
        grad_part[:] = 0.0
        for i, c in enumerate(cons):
            if c.domain is not None and not c.domain(x):
                raise DomainError("saddle map evaluated outside dom g")
            ui = w[n + i]
            if c.value_and_gradient is not None:
                gi, grad = c.value_and_gradient(x)
                if ui != 0.0:
                    grad_part += ui * grad
            else:
                gi = c.value(x)
                if ui != 0.0:
                    grad_part += ui * c.gradient(x)
            out[n + i] = -gi
        return out

    lip = None
    matrix = None
    if all_affine:
        lip = operator_norm(D)
        n = D.shape[1]
        matrix = np.zeros((n + p, n + p))
        matrix[:n, n:] = D.T
        matrix[n:, :n] = -D

        def evaluate(w):  # noqa: F811 - affine fast path, same contract
            w = np.asarray(w, dtype=float)
            x, u = w[:-p], w[-p:]
            return np.concatenate([D.T @ u, -(D @ x)])

    return MonotoneMap(evaluate=evaluate, lipschitz=lip, tag="saddle",
                       domain=None if all_affine else
                       (lambda w: all(c.domain is None or c.domain(np.asarray(w)[:-p])
                                      for c in cons)),
                       matrix=matrix)


# scalar prox oracles used by the ERM experiments -----------------------------


def prox_abs_deviation(b: float) -> Callable[[float, float], float]:
    """Prox of t -> |t - b| (soft threshold shifted to b)."""

    def prox(gamma, t):
        d = t - b
        return b + math.copysign(max(abs(d) - gamma, 0.0), d)

    return prox


def prox_hinge(b: float) -> Callable[[float, float], float]:
    """Prox of the hinge loss t -> max(0, 1 - b t) for a nonzero label b."""
    if b == 0.0:
        raise ValueError("hinge label must be nonzero")

    def prox(gamma, t):
        cand = t + gamma * b
        if b * cand < 1.0:
            return cand
        if b * t > 1.0:
            return t
        return 1.0 / b

    return prox


def scalar_monotone(prox: Callable[[float, float], float], tag: str = "scalar") -> MaximalMonotone:
    """Wrap a scalar prox oracle as a 1-D MaximalMonotone.

    A 1-element vector, the input of every per-sample dual resolvent, takes
    a fast path that returns the same bits as the general one."""

    def res(gamma, y):
        if type(y) is np.ndarray and y.shape == (1,):
            return np.array([prox(gamma, float(y[0]))])
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.array([prox(gamma, float(t)) for t in y])

    return MaximalMonotone(resolvent=res, tag=tag)
