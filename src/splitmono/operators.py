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

from .linalg import (BlockLayout, aligned, aligned_empty, as_matrix, as_vector,
                     operator_norm)


class DomainError(ValueError):
    """An oracle was evaluated outside its domain."""


# ---------------------------------------------------------------------------
# carrier types


@dataclass(frozen=True)
class MaximalMonotone:
    """Maximally monotone operator represented by its resolvent oracle.

    ``resolvent(gamma, y)`` returns ``J_{gamma A}(y) = (Id + gamma A)^{-1} y``.
    ``matrix`` is set when the operator is linear (``A x = matrix @ x``);
    ``blocks`` records block-separable structure as ``(operator, dim)`` pairs;
    ``bounds`` is set when the operator is the normal cone of the box
    ``[lo, hi]``, as ``(lo, hi)``: vectors, or scalars that a product
    broadcasts to its block's dimension.  A product of such parts clamps by
    their ``bounds`` and never calls their ``resolvent``, so a wrapper (a
    call counter, a tracer) must wrap the built product, not a part:
    ``dataclasses.replace`` keeps ``bounds``, and a wrapped part is bypassed.
    """

    resolvent: Callable[[float, np.ndarray], np.ndarray]
    tag: str = ""
    matrix: Optional[np.ndarray] = None
    blocks: Optional[tuple] = None
    bounds: Optional[tuple] = None

    @classmethod
    def zero(cls, tag: str = "zero") -> "MaximalMonotone":
        return cls(resolvent=lambda gamma, y: y, tag=tag)

    @classmethod
    def from_matrix(cls, M, tag: str = "linear") -> "MaximalMonotone":
        """Linear operator ``x -> M x``.  Its resolvent solves against
        ``Id + gamma M`` on every call.  A diagonal M divides by the
        diagonal of ``Id + gamma M`` instead, which is what the LU solve
        computes on a diagonal matrix, bit for bit."""
        A = as_matrix(M)
        if A.shape[0] != A.shape[1]:
            raise ValueError("linear operator must be square")
        diag = np.diagonal(A)
        if not np.any(A - np.diag(diag)):
            def res_diag(gamma, y):
                return y / (1.0 + gamma * diag)

            return cls(resolvent=res_diag, tag=tag, matrix=A)
        eye = np.eye(A.shape[0])

        def res(gamma, y):
            return np.linalg.solve(eye + gamma * A, y)

        return cls(resolvent=res, tag=tag, matrix=A)

    @classmethod
    def product(cls, parts, tag: str = "product") -> "MaximalMonotone":
        """Block-separable operator acting independently on each block.

        When every part is the normal cone of a box, so is the product: its
        resolvent is one clamp over the stacked bounds.  Otherwise each
        part's resolvent fills its block of one output."""
        ops = tuple((op, int(dim)) for op, dim in parts)
        bounds = _stacked_bounds(ops)
        if bounds is not None:
            return cls(resolvent=_box_resolvent(*bounds), tag=tag, blocks=ops,
                       bounds=bounds)
        fill = _blockwise(ops)

        def res(gamma, y):
            return fill(y, lambda op, sl: op.resolvent(gamma, y[sl]))

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
        """Linear map ``x -> M x``, evaluated by ``M.dot``: the same bits as
        ``M @ x`` on the C- or Fortran-ordered M that ``as_matrix`` stores,
        at a lower per-call dispatch cost.  The two differ on a
        column-strided matrix such as ``M[:, ::2]`` or its transpose, so a
        product moves from ``@`` to ``.dot`` only after its own bit check."""
        A = as_matrix(M)
        return cls(evaluate=A.dot, lipschitz=operator_norm(A), tag=tag, matrix=A)


@dataclass(frozen=True)
class ClosedConvexSet:
    """Closed convex set given by a projection oracle.

    ``metric_project(U, v)`` is the projection in the inner product
    ``<U., .>`` and is only available for sets where it is closed-form.
    ``bounds`` is set when the set is the box ``[lo, hi]``, as for
    ``MaximalMonotone``.  A product of boxes clamps by its parts' ``bounds``
    and never calls their ``project``, so a wrapper must wrap the built
    product, not a part.
    """

    project: Callable[[np.ndarray], np.ndarray]
    tag: str = ""
    metric_project: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    is_whole_space: bool = False
    bounds: Optional[tuple] = None

    @classmethod
    def whole_space(cls) -> "ClosedConvexSet":
        return cls(project=lambda v: v, tag="H", metric_project=lambda U, v: v,
                   is_whole_space=True)

    @classmethod
    def box(cls, lo, hi) -> "ClosedConvexSet":
        return cls._box(_box_bounds(lo, hi), "box")

    @classmethod
    def _box(cls, bounds, tag) -> "ClosedConvexSet":
        proj = _clamp(*bounds)
        # a diagonal metric separates coordinates, so the metric projection
        # onto a box is still the componentwise clamp
        return cls(project=proj, tag=tag, metric_project=lambda U, v: proj(v),
                   bounds=bounds)

    @classmethod
    def nonneg_orthant(cls) -> "ClosedConvexSet":
        def proj(v):
            return np.maximum(v, 0.0)

        return cls(project=proj, tag="R+", metric_project=lambda U, v: proj(v),
                   bounds=_NONNEG_BOUNDS)

    @classmethod
    def product(cls, parts) -> "ClosedConvexSet":
        """Product of the sets of ``parts`` ((set, dim) pairs).  A product of
        boxes is a box, projected by one clamp over the stacked bounds;
        otherwise each set's projection fills its block of one output."""
        sets = tuple((s, int(d)) for s, d in parts)
        bounds = _stacked_bounds(sets)
        if bounds is not None:
            return cls._box(bounds, "product")
        fill = _blockwise(sets)

        def proj(v):
            return fill(v, lambda s, sl: s.project(v[sl]))

        def mproj(U, v):
            # only valid for diagonal U; every factor set must support it
            return fill(v, lambda s, sl: s.metric_project(U[sl, sl], v[sl]))

        ok_metric = all(s.metric_project is not None for s, _ in sets)
        return cls(project=proj, tag="product",
                   metric_project=mproj if ok_metric else None,
                   is_whole_space=all(s.is_whole_space for s, _ in sets))


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


# bounds of the nonnegative orthant, broadcast to its dimension by a product
_NONNEG_BOUNDS = (0.0, math.inf)


def _box_bounds(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Validate box bounds; infinite entries are allowed (half-open boxes)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
        raise ValueError("bounds must be matching nonempty vectors")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)) or np.any(lo > hi):
        raise ValueError("box requires lo <= hi componentwise")
    return lo, hi


def _clamp(lo, hi) -> Callable[[np.ndarray], np.ndarray]:
    """Projection onto the box [lo, hi]: ``maximum`` with lo, then
    ``minimum`` with hi in place, so NaN entries stay NaN."""

    def clamp(v):
        out = np.maximum(v, lo)
        np.minimum(out, hi, out=out)
        return out

    return clamp


def _box_resolvent(lo, hi) -> Callable[[float, np.ndarray], np.ndarray]:
    """Resolvent of the normal cone of the box [lo, hi]: ``_clamp``'s
    projection, whatever the step, as one ``(gamma, y)`` function."""

    def resolvent(gamma, y):
        out = np.maximum(y, lo)
        np.minimum(out, hi, out=out)
        return out

    return resolvent


def _stacked_bounds(parts) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Bounds of the product of the (part, dim) pairs ``parts``, each part's
    bounds broadcast to its dim, or None unless every part carries bounds.
    Bounds that do not broadcast to their dim raise ValueError."""
    stacked = []
    for i, (part, d) in enumerate(parts):
        if part.bounds is None:
            continue
        try:
            stacked.append([np.broadcast_to(b, (d,)) for b in part.bounds])
        except ValueError:
            shapes = [np.shape(b) for b in part.bounds]
            raise ValueError(f"block {i}: bounds of shapes {shapes} do not broadcast "
                             f"to its dimension {d}") from None
    if len(stacked) < len(parts):
        return None
    return tuple(np.concatenate(side) for side in zip(*stacked))


def _blockwise(parts) -> Callable:
    """``fill(v, block)`` for the (part, dim) pairs ``parts``: one output
    whose i-th block is ``block(part_i, slice_i)`` for an input v of the
    product's dimension.  A block result of any shape other than
    ``(dim_i,)`` raises ValueError naming the block."""
    layout = BlockLayout.from_dims([d for _, d in parts])
    dim, off = layout.dim, layout.offsets
    slices = [(i, part, d, slice(off[i], off[i + 1])) for i, (part, d) in enumerate(parts)]

    def fill(v, block):
        if np.shape(v) != (dim,):
            raise ValueError(f"product of dimension {dim} applied to shape {np.shape(v)}")
        out = np.empty(dim)
        for i, part, d, sl in slices:
            value = block(part, sl)
            if np.shape(value) != (d,):
                raise ValueError(f"block {i} of the product returned shape "
                                 f"{np.shape(value)}, expected ({d},)")
            out[sl] = value
        return out

    return fill


def normal_cone_box(lo, hi) -> MaximalMonotone:
    """Normal cone of the box [lo, hi]; its resolvent is the projection,
    independent of the step size."""
    bounds = _box_bounds(lo, hi)
    return MaximalMonotone(resolvent=_box_resolvent(*bounds), tag="N_box", bounds=bounds)


def nonneg_cone(p: int) -> MaximalMonotone:
    """Normal cone of the nonnegative orthant of dimension p."""
    return MaximalMonotone(resolvent=lambda gamma, y: np.maximum(y, 0.0),
                           tag="N_R+", bounds=_NONNEG_BOUNDS)


def quadratic_gradient(A_mat, b) -> CocoerciveMap:
    """Gradient of x -> ||A x - b||^2 / 2, cocoercive with beta = ||A||^{-2}.

    A is stored through ``linalg.aligned``: a caller's matrix of 4 KiB or
    more whose data do not start on a 64-byte boundary is copied once to one
    that does, where its two GEMVs (``A.dot`` and ``A.T.dot``) ran 25-40%
    faster at 100 x 200, with the same bits."""
    A = aligned(as_matrix(A_mat))
    rhs = as_vector(b)
    if A.shape[0] != rhs.shape[0]:
        raise ValueError("A and b dimensions disagree")
    beta = operator_norm(A) ** (-2)
    AT = A.T

    def grad(x):
        return AT.dot(A.dot(x) - rhs)

    def val(x):
        r = A @ x - rhs
        return 0.5 * float(r @ r)

    return CocoerciveMap(evaluate=grad, beta=beta, tag="0.5||Ax-b||^2", value=val)


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

    The domain test is ``min(x) > 0`` as one ufunc reduction, which a NaN
    entry fails.  The fused ``value_and_gradient`` sums by ``np.add.reduce``
    (what ``ndarray.sum`` runs) and, for an all-ones reference, takes
    ``log(x)``: ``x / 1.0`` is exactly x, so the division is skipped.
    """
    av = as_vector(a)
    if np.any(av <= 0):
        raise ValueError("reference vector a must be strictly positive")
    if not (-float(np.sum(av)) < r < 0):
        raise ValueError("level r must satisfy -sum(a) < r < 0")
    unit = bool((av == 1.0).all())

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
        lg = np.log(x if unit else x / av)
        return float(np.add.reduce(x * (lg - 1.0))) - r, lg

    def domain(x):
        # a NaN entry makes the minimum NaN, which fails the test, as it fails x > 0
        return float(np.minimum.reduce(x)) > 0.0

    return SmoothConstraint(value=value, gradient=gradient, domain=domain,
                            value_and_gradient=value_and_gradient)


def lagrangian_saddle_map(constraints) -> MonotoneMap:
    """Saddle-point map of the constraint part of a Lagrangian,

        (x, u) -> ( sum_i u_i grad g_i(x), -g_1(x), ..., -g_p(x) ).

    Monotone and continuous for convex g_i; Lipschitz only when every g_i
    is affine, in which case it applies [[0, D^T], [-D, 0]], D the stacked
    coefficient rows, as two ``ndarray.dot`` products with D.  The rows are
    stacked straight into storage that starts on a 64-byte boundary
    (``linalg.aligned_empty``), where the GEMVs over D^T run faster, with
    the same bits, and no second copy of D is held.  Otherwise each call checks
    every constraint's domain once, then uses its ``value_and_gradient``
    when it has one.  Each constraint's oracles are looked up once, when the
    map is built, not on every call.  The gradient block starts from zeros
    and each nonzero multiplier adds ``u_i * grad g_i(x)`` to it, so a -0.0
    product reads +0.0.
    """
    cons = list(constraints)
    if not cons:
        raise ValueError("at least one constraint is required")
    p = len(cons)

    if all(c.affine_row is not None for c in cons):
        n = len(cons[0].affine_row)
        D = np.stack([c.affine_row for c in cons], out=aligned_empty((p, n)))
        DT = D.T

        def affine(w):
            # both GEMVs write into one fresh output, the same bits as
            # concatenating D^T u and -(D x); a fresh array per call, as
            # callers hold an earlier value while evaluating the next
            w = np.asarray(w, dtype=float)
            out = np.empty(n + p)
            ou = out[n:]
            DT.dot(w[n:], out=out[:n])
            D.dot(w[:n], out=ou)
            np.negative(ou, out=ou)
            return out

        return MonotoneMap(evaluate=affine, lipschitz=operator_norm(D), tag="saddle")

    oracles = tuple((c.domain, c.value_and_gradient, c.value, c.gradient) for c in cons)

    def evaluate(w):
        w = np.asarray(w, dtype=float)
        n = w.shape[0] - p
        x = w[:n]
        out = np.empty(n + p)
        grad_part = out[:n]
        # zeros, then ``+=``: ``0.0 + ui * grad`` turns a -0.0 into +0.0
        grad_part.fill(0.0)
        i = n
        for domain, value_and_gradient, value, gradient in oracles:
            if domain is not None and not domain(x):
                raise DomainError("saddle map evaluated outside dom g")
            ui = w[i]
            if value_and_gradient is not None:
                gi, grad = value_and_gradient(x)
                if ui != 0.0:
                    grad_part += ui * grad
            else:
                gi = value(x)
                if ui != 0.0:
                    grad_part += ui * gradient(x)
            out[i] = -gi
            i += 1
        return out

    return MonotoneMap(evaluate=evaluate, tag="saddle",
                       domain=lambda w: all(c.domain is None or c.domain(np.asarray(w)[:-p])
                                            for c in cons))


# scalar prox oracles used by the ERM experiments -----------------------------


def _finite_label(b: float, kind: str) -> float:
    """``b`` as a Python float, rejecting a NaN or infinite label, which the
    prox would turn into NaN or silently ignore.  A float32 label would make
    the prox compute in float32; as a float it computes in float64, as the
    array form in ``stacked_scalar_resolvent`` does."""
    if not math.isfinite(b):
        raise ValueError(f"{kind} label must be finite, got {b!r}")
    return float(b)


def prox_abs_deviation(b: float) -> Callable[[float, float], float]:
    """Prox of t -> |t - b| (soft threshold shifted to b) for a finite b."""
    b = _finite_label(b, "absolute-deviation")

    def prox(gamma, t):
        d = t - b
        return b + math.copysign(max(abs(d) - gamma, 0.0), d)

    return prox


def prox_hinge(b: float) -> Callable[[float, float], float]:
    """Prox of the hinge loss t -> max(0, 1 - b t) for a finite, nonzero
    label b."""
    b = _finite_label(b, "hinge")
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
    a fast path that returns the same bits as the general one.  When
    ``prox`` is a ``prox_hinge`` or ``prox_abs_deviation`` prox, a solver
    can run many such resolvents as one array call
    (``stacked_scalar_resolvent``); a wrapped resolvent or prox is never
    recognised, so its wrapper always runs."""

    def res(gamma, y):
        if type(y) is np.ndarray and y.shape == (1,):
            return np.array([prox(gamma, float(y[0]))])
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.array([prox(gamma, float(t)) for t in y])

    return MaximalMonotone(resolvent=res, tag=tag)


def _hinge_array(b: np.ndarray, gamma: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``prox_hinge``'s arithmetic, entry by entry, for labels b and steps gamma."""
    gb, inv_b = gamma * b, 1.0 / b

    def prox(t):
        cand = t + gb
        return np.where(b * cand < 1.0, cand, np.where(b * t > 1.0, t, inv_b))

    return prox


def _abs_deviation_array(b: np.ndarray, gamma: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``prox_abs_deviation``'s arithmetic, entry by entry, for centers b and
    steps gamma: ``np.maximum`` keeps a NaN as ``max(nan, 0.0)`` does."""

    def prox(t):
        d = t - b
        return b + np.copysign(np.maximum(np.abs(d) - gamma, 0.0), d)

    return prox


def _cell_index(code, name: str) -> int:
    """Where functions with the code object ``code`` keep their closure
    variable ``name``.  It is looked up once, on import, so renaming that
    variable in ``scalar_monotone`` or a prox fails there, not in a solve."""
    return code.co_freevars.index(name)


# Functions are recognised by their code object, which a wrapper (a call
# counter, a tracer, ``functools.wraps``, ``lru_cache``) never shares: a
# wrapped oracle is not recognised, so its wrapper is never bypassed.  A
# marker attribute would not do, as ``functools.wraps`` copies ``__dict__``.
_SCALAR_RESOLVENT = scalar_monotone(abs).resolvent.__code__
_PROX_CELL = _cell_index(_SCALAR_RESOLVENT, "prox")
# prox code object -> (its array form, the closure cell of its label b)
_ARRAY_FORMS = {code: (form, _cell_index(code, "b")) for code, form in (
    (prox_hinge(1.0).__code__, _hinge_array),
    (prox_abs_deviation(0.0).__code__, _abs_deviation_array))}


def stacked_scalar_resolvent(resolvents, gammas) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """One array call ``res(ys)`` whose entry i has the bits of
    ``resolvents[i](gammas[i], ys[i:i + 1])``, or None.

    It exists when every resolvent is ``scalar_monotone``'s own, unwrapped,
    around an unwrapped prox of one family with an array form
    (``prox_hinge`` or ``prox_abs_deviation``): the array form runs that
    prox's arithmetic elementwise.  Anything else, a mix of the two families
    included, gives None and is left to one call per resolvent."""
    form, labels = None, []
    for res in resolvents:
        if getattr(res, "__code__", None) is not _SCALAR_RESOLVENT:
            return None
        prox = res.__closure__[_PROX_CELL].cell_contents
        entry = _ARRAY_FORMS.get(getattr(prox, "__code__", None))
        if entry is None or form not in (None, entry[0]):
            return None
        form, label_cell = entry
        labels.append(prox.__closure__[label_cell].cell_contents)
    if form is None:
        return None
    return form(np.array(labels), np.asarray(gammas, dtype=float))
