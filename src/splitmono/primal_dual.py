"""Composite primal-dual solvers on the product space H x G_1 x ... x G_m.

The model problem couples a maximally monotone A, a cocoercive C1 and a
monotone Lipschitz C2 on H with dualized terms (B_i inf-conv D_i)(L_i x - r_i):

    find x:  z in A x + sum_i L_i^T (B_i inf-conv D_i)(L_i x - r_i) + C1 x + C2 x.

A block-lower-triangular preconditioner turns the product-space iteration
into a Gauss-Seidel sweep over the dual blocks; the scalar-diagonal
specialization parameterized by theta in [-1, 1] and stepsizes sigma_i
recovers several classical primal-dual schemes.  A Condat-Vu baseline is
included for head-to-head comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .linalg import (BlockLayout, aligned_empty, as_matrix, as_vector, at_most,
                     operator_norm, strictly_below, symmetric_min_eig)
from .operators import (CocoerciveMap, MaximalMonotone, MonotoneMap,
                        stacked_scalar_resolvent)
from .fbhf import (ConfigurationError, SolveConfig, SolveReport, _Counters,
                   _default_start, _positive, _run, _steps, half_inverse,
                   metric_violation)


@dataclass(frozen=True)
class DualBlock:
    """One dualized term (B inf-conv D)(L x - r).

    ``B`` is the primal operator; its inverse resolvent is always obtained
    through the Moreau identity.  ``D_inv`` evaluates D^{-1} (None encodes
    D^{-1} = 0, i.e. nu = +inf).
    """

    B: MaximalMonotone
    L: np.ndarray
    r: Optional[np.ndarray] = None
    D_inv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    nu: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "L", as_matrix(self.L))
        if not np.any(self.L):
            raise ValueError("L_i must be nonzero")
        if self.r is not None:
            object.__setattr__(self, "r", as_vector(self.r))
            if self.r.shape[0] != self.L.shape[0]:
                raise ValueError("r_i dimension does not match L_i")
        if self.D_inv is None and not math.isinf(self.nu):
            raise ValueError("nu is finite but D_inv is missing")
        if not self.nu > 0:
            raise ValueError("nu must be positive")

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    def dual_resolvent(self, sigma: float, w: np.ndarray) -> np.ndarray:
        """J_{sigma B^{-1}}(w) = w - sigma * J_{B/sigma}(w / sigma) (Moreau)."""
        return w - sigma * self.B.resolvent(1.0 / sigma, w / sigma)


@dataclass(frozen=True)
class PrimalDualProblem:
    A: MaximalMonotone
    C1: Optional[CocoerciveMap]
    C2: Optional[MonotoneMap]
    blocks: tuple[DualBlock, ...]
    dim: int                       # dimension of H
    z: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("at least one dual block is required")
        for blk in self.blocks:
            if blk.L.shape[1] != self.dim:
                raise ValueError("L_i column count must equal dim H")
        if self.z is not None:
            object.__setattr__(self, "z", as_vector(self.z))
            if self.z.shape[0] != self.dim:
                raise ValueError("z dimension must equal dim H")

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def beta(self) -> float:
        mu = math.inf if self.C1 is None else self.C1.beta
        return min([mu] + [blk.nu for blk in self.blocks])

    @property
    def delta(self) -> float:
        if self.C2 is None:
            return 0.0
        if self.C2.lipschitz is None:
            raise ConfigurationError("C2 must carry a Lipschitz constant")
        return self.C2.lipschitz

    @property
    def layout(self) -> BlockLayout:
        return BlockLayout.from_dims([self.dim] + [b.dim for b in self.blocks])

    @cached_property
    def K(self) -> np.ndarray:
        """The stacked dual operator K = [L_1; ...; L_m], built on first use
        straight into storage that starts on a 64-byte boundary
        (``linalg.aligned_empty``), where its GEMVs run faster, with the
        same bits."""
        Ls = [blk.L for blk in self.blocks]
        height = sum(L.shape[0] for L in Ls)
        return np.concatenate(Ls, axis=0, out=aligned_empty((height, self.dim)))

    @cached_property
    def r(self) -> np.ndarray:
        """The stacked r = (r_1, ..., r_m), zero where a block has none."""
        return np.concatenate([np.zeros(blk.dim) if blk.r is None else blk.r
                               for blk in self.blocks])

    @cached_property
    def rows(self) -> tuple[slice, ...]:
        """Each block's row slice of K, r and the stacked dual vector."""
        ends = np.cumsum([blk.dim for blk in self.blocks]).tolist()
        return tuple(slice(a, b) for a, b in zip([0] + ends, ends))

    def norms_L(self) -> list[float]:
        """||L_i|| per dual block, each from ``operator_norm`` on the first
        call (a 1-row block takes its vector norm)."""
        return list(self._norms_L)

    @cached_property
    def _norms_L(self) -> tuple[float, ...]:
        return tuple(operator_norm(blk.L) for blk in self.blocks)

    def primal_resolvent(self, sigma: float, w: np.ndarray) -> np.ndarray:
        """Resolvent of the shifted block A - z at step sigma."""
        if self.z is None:
            return self.A.resolvent(sigma, w)
        return self.A.resolvent(sigma, w + sigma * self.z)


# ---------------------------------------------------------------------------
# block preconditioner and conditions


@dataclass(frozen=True)
class BlockPreconditioner:
    """Lower block triangle (P_ij)_{0<=j<=i<=m} with scalar diagonal blocks
    P_ii = diag_scalars[i] * Id, so every dual resolvent stays prox-friendly.
    The off-diagonal blocks are stored through ``as_matrix``, finite and in C
    or Fortran order, so ``.dot`` applies them with the same bits as ``@``."""

    diag_scalars: tuple[float, ...]
    off_diag: dict  # (i, j), i > j  ->  matrix G_j -> G_i

    def __post_init__(self):
        object.__setattr__(self, "diag_scalars",
                           tuple(_steps("diagonal scalars", self.diag_scalars)))
        for i, j in self.off_diag:
            if not (0 <= j < i <= self.m):
                raise ValueError("off-diagonal blocks must sit strictly below the diagonal")
        object.__setattr__(self, "off_diag",
                           {key: as_matrix(blk) for key, blk in self.off_diag.items()})

    @property
    def m(self) -> int:
        return len(self.diag_scalars) - 1

    def block(self, i: int, j: int) -> Optional[np.ndarray]:
        return self.off_diag.get((i, j))

    @classmethod
    def corollary_pattern(cls, theta: float, sigmas,
                          pdp: PrimalDualProblem) -> "BlockPreconditioner":
        """P_ii = Id/sigma_i, P_i0 = -(1+theta) L_i, interior blocks zero;
        one uniform sigma is repeated m+1 times."""
        sig = _steps("m+1 stepsizes", sigmas, pdp.m + 1)
        off = {}
        for i, blk in enumerate(pdp.blocks, start=1):
            Pi0 = -(1.0 + theta) * blk.L
            if np.any(Pi0):
                off[(i, 0)] = Pi0
        return cls(diag_scalars=tuple(1.0 / s for s in sig), off_diag=off)


def build_upsilon_sigma_delta(bp: BlockPreconditioner, L_mats):
    """The (m+1)x(m+1) comparison matrices of the block preconditioner:

    - Upsilon: off-diagonal block norms ||P_ij||/2 (zero diagonal),
    - Sigma: skew residues on the diagonal (zero for scalar blocks), the
      couplings ||L_i + P_i0/2|| in the first column, ||P_ij||/2 inside,
    - Delta: diag of the strong-monotonicity moduli of the P_ii.

    Absent blocks are zero, so only the stored blocks are visited, then the
    first column once for ``||L_i + P_i0/2||`` (``L_i + 0.0`` where P_i0 is
    absent): O(stored blocks + m) work, not O(m^2) block lookups.
    """
    m = bp.m
    Ls = [as_matrix(L) for L in L_mats]
    if len(Ls) != m:
        raise ValueError("need one L_i per dual block")
    ups = np.zeros((m + 1, m + 1))
    sig = np.zeros((m + 1, m + 1))
    for (i, j), blk in bp.off_diag.items():
        # P_ij maps G_j into G_i, with G_0 = H the domain of L_i
        expected = Ls[i - 1].shape if j == 0 else (Ls[i - 1].shape[0], Ls[j - 1].shape[0])
        if np.shape(blk) != expected:
            raise ValueError(f"off-diagonal block {(i, j)} must have shape "
                             f"{expected}, got {np.shape(blk)}")
        half = operator_norm(blk) / 2.0
        ups[i, j] = ups[j, i] = half
        if j > 0:
            sig[i, j] = sig[j, i] = half
    for i, L in enumerate(Ls, start=1):
        blk = bp.block(i, 0)
        comb = L + (blk / 2.0 if blk is not None else 0.0)
        sig[i, 0] = sig[0, i] = operator_norm(comb)
    delta = np.diag(np.asarray(bp.diag_scalars, dtype=float))
    return ups, sig, delta


@dataclass(frozen=True)
class PdCheck:
    rho: float
    M: float
    ok: bool
    detail: str


def check_pd_conditions(bp: BlockPreconditioner, L_mats, delta: float,
                        beta: float) -> PdCheck:
    """Verdict for the product-space metric condition

        Delta - Upsilon positive definite (smallest eigenvalue rho > 0) and
        (||Sigma||_2 + delta)^2 < rho (rho - 1/(2 beta)).

    Also returns M = max ||P_ii|| + ||Upsilon||_2, the bound for the
    relaxation range ]0, 1/M[.
    """
    ups, sig, dlt = build_upsilon_sigma_delta(bp, L_mats)
    rho = symmetric_min_eig(dlt - ups)
    M = max(bp.diag_scalars) + operator_norm(ups)
    why = metric_violation(rho, operator_norm(sig) + delta, beta, lhs_name="(||Sigma|| + delta)")
    if why is not None:
        return PdCheck(rho, M, False, f"{why} (rho = lambda_min(Delta - Upsilon))")
    return PdCheck(rho, M, True, "ok")


def rho_v(theta: float, sigmas, L_norms) -> float:
    """Reference strong-monotonicity constant of the classical product metric:

        max(sigma)^{-1} (1 - (1+theta)/2 * sqrt(sigma_0 sum_j sigma_j ||L_j||^2)).

    The scalar-diagonal pattern always achieves rho >= rho_v.
    """
    sig = _steps("stepsizes", sigmas)
    nl = [float(v) for v in L_norms]
    if len(nl) != len(sig) - 1:
        raise ValueError("need one ||L_i|| per dual stepsize")
    inner = sig[0] * sum(s * n * n for s, n in zip(sig[1:], nl))
    return (1.0 - (1.0 + theta) / 2.0 * math.sqrt(inner)) / max(sig)


@dataclass(frozen=True)
class CorollaryParams:
    """Scalar-diagonal pattern: stepsizes sigma_0..sigma_m and the reflection
    weight theta in [-1, 1]; lam defaults to 0.99/M, with M the relaxation
    bound ``check_pd_conditions`` gives for ``corollary_pattern``."""

    theta: float
    sigmas: tuple[float, ...]
    lam: Optional[float] = None

    def __post_init__(self):
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [-1, 1]")
        object.__setattr__(self, "sigmas", tuple(_steps("stepsizes", self.sigmas)))

    def omega(self, L_norms) -> np.ndarray:
        """The (m+1)x(m+1) comparison matrix of the pattern: 1/sigma_i on the
        diagonal, -(1+theta)/2 ||L_i|| in the first column."""
        m = len(L_norms)
        if m != len(self.sigmas) - 1:
            raise ValueError("need one ||L_i|| per dual stepsize")
        om = np.diag([1.0 / s for s in self.sigmas])
        for i, n in enumerate(L_norms, start=1):
            om[i, 0] = om[0, i] = -(1.0 + self.theta) / 2.0 * float(n)
        return om


def _check_lambda(lam: Optional[float], M: float) -> float:
    """The relaxation ``lam`` (default 0.99/M) checked to lie in ]0, 1/M[."""
    lam = 0.99 / M if lam is None else lam
    bound = 1.0 / M
    if not (0.0 < lam and strictly_below(lam, bound)):
        raise ConfigurationError(
            f"relaxation lambda = {lam:.6g} outside ]0, 1/M[ = ]0, {bound:.6g}[")
    return lam


# ---------------------------------------------------------------------------
# solvers


def _counted(pdp: PrimalDualProblem, counters: _Counters) -> PrimalDualProblem:
    """``pdp`` with C1, C2, the primal resolvent and every dual block's
    resolvent each counting its own calls."""
    w = counters.wrap
    return replace(pdp, A=w(pdp.A, "resolvent", "res"), C1=w(pdp.C1, "evaluate", "b1"),
                   C2=w(pdp.C2, "evaluate", "b2"),
                   blocks=tuple(replace(blk, B=w(blk.B, "resolvent", "res"))
                                for blk in pdp.blocks))


def _stacked_duals(pdp: PrimalDualProblem, counters: _Counters,
                   sig: np.ndarray) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """``ws -> (J_{B_i/sigma_i}(ws_i))_i`` over the stacked rows as one array
    call, counted as m resolvent calls, when every dual block is 1-D and
    ``stacked_scalar_resolvent`` recognises its resolvent's mark; None
    otherwise.  It reads the blocks as given, before ``_counted`` wraps
    them, so a block that its caller wrapped (a tracer, a counter) has no
    mark and keeps its own call."""
    if any(blk.dim != 1 for blk in pdp.blocks):
        return None
    stacked = stacked_scalar_resolvent([blk.B.resolvent for blk in pdp.blocks], 1.0 / sig)
    return None if stacked is None else counters.count("res", stacked, weight=pdp.m)


def solve_block_triangular(pdp: PrimalDualProblem, bp: BlockPreconditioner,
                           lam: Optional[float], cfg: SolveConfig,
                           start=None) -> SolveReport:
    """Gauss-Seidel sweep: primal resolvent, then the dual resolvents in
    order i = 1..m (each consuming the freshly updated earlier blocks),
    then the m+1 relaxed correction updates.  The product-space metric
    condition and the relaxation range are checked first.

    The sweep runs on the problem's stacked layout (``pdp.K``, ``pdp.r``,
    ``pdp.rows``), with the P_i0 stacked once per solve (zero rows where
    absent) and per-row vectors of P_ii = 1/sigma_i and sigma_i.  An
    iteration is then a few GEMVs with K, K^T (bound once per solve) and
    P_.0 plus a sequential pass that applies each row's nonzero interior
    blocks P_ij to the fresh duals v_1..v_{i-1} and makes the i-th block's
    one counted resolvent call.  The Moreau identity
    J_{sigma B^{-1}}(w) = w - sigma J_{B/sigma}(w / sigma) runs once over the
    stacked rows: ``w / sigma`` before the pass, ``w - sigma p`` after it,
    elementwise the same bits as ``DualBlock.dual_resolvent`` per block.
    Both corrections read one ``u - v`` and the ``x - y`` of the primal
    step, scaled by the negated P_ii, and are added into the two halves of
    the new iterate in place.  r is subtracted only when some block gives
    one, and the interior sum q only when there are interior blocks: each
    left-out term is an exact +0.0, so the bits stay those of the full
    expressions.

    Without nonzero interior blocks no dual reads another's fresh value, so
    the pass is a Jacobi pass.  When, moreover, every dual block is a 1-D
    ``scalar_monotone`` around a ``prox_hinge`` or ``prox_abs_deviation``
    prox (one family for all blocks; see ``_stacked_duals``), the pass is one
    array call over the stacked rows, with the same bits and counts as the
    per-block calls.  A block whose resolvent or prox is wrapped (a tracer,
    a counter, ``functools.wraps``) makes the pass run block by block."""
    if bp.m != pdp.m:
        raise ConfigurationError("preconditioner block count does not match the problem")
    check = check_pd_conditions(bp, [blk.L for blk in pdp.blocks],
                                pdp.delta, pdp.beta)
    if not check.ok:
        raise ConfigurationError(f"block preconditioner rejected: {check.detail}")
    lam = _check_lambda(lam, check.M)

    layout, d, K, r, rows = pdp.layout, pdp.dim, pdp.K, pdp.r, pdp.rows
    dims = [blk.dim for blk in pdp.blocks]
    sigmas = [1.0 / c for c in bp.diag_scalars]
    c, sig = np.repeat(bp.diag_scalars[1:], dims), np.repeat(sigmas[1:], dims)
    P0 = np.vstack([np.zeros_like(blk.L) if (P := bp.block(i, 0)) is None else P
                    for i, blk in enumerate(pdp.blocks, start=1)])
    KP0 = K + P0
    interior = [[(rows[j - 1], P) for j in range(1, i)
                 if (P := bp.block(i, j)) is not None and np.any(P)]
                for i in range(1, pdp.m + 1)]
    counters = _Counters()
    stacked = None if any(interior) else _stacked_duals(pdp, counters, sig)
    # ``a - 0.0`` is ``a`` for every float, -0.0 and NaN included, so an r
    # that no block gives (all +0.0) and the all-zero q of a pass without
    # interior blocks are left out; an r of the caller is always subtracted
    has_r, has_q = any(blk.r is not None for blk in pdp.blocks), any(interior)
    pdp = _counted(pdp, counters)
    C1, C2 = pdp.C1, pdp.C2
    KT, neg_c0, neg_c = K.T, -bp.diag_scalars[0], -c
    d_inv = [(sl, blk.D_inv) for blk, sl in zip(pdp.blocks, rows) if blk.D_inv is not None]
    sweep = [(sl, s, 1.0 / s, blk.B.resolvent, row)
             for blk, sl, s, row in zip(pdp.blocks, rows, sigmas[1:], interior)]

    def step(k, zvec):
        x, u = zvec[:d], zvec[d:]
        forward = KT.dot(u)
        if C1 is not None:
            forward += C1.evaluate(x)
        if C2 is not None:
            c2x = C2.evaluate(x)
            forward += c2x
        y = pdp.primal_resolvent(sigmas[0], x - sigmas[0] * forward)
        xy = x - y

        t = K.dot(x) + P0.dot(xy)
        if has_r:
            t -= r
        for sl, D_inv in d_inv:
            t[sl] -= D_inv(u[sl])
        w = u + sig * t
        ws = w / sig
        if stacked is not None:
            p = stacked(ws)
        else:
            p = np.empty_like(u)  # J_{B_i/sigma_i}(w_i / sigma_i), row by row
            # sum_{j<i} P_ij (u_j - v_j), row by row
            q = np.zeros_like(u) if has_q else None
            for sl, s, inv_s, resolvent, row in sweep:
                if row:
                    # the fresh v_j = w_j - sigma_j p_j of the earlier blocks
                    q[sl] = sum(P.dot(u[slj] - (w[slj] - sig[slj] * p[slj])) for slj, P in row)
                    w[sl] += s * q[sl]
                    ws[sl] = w[sl] / s
                p[sl] = resolvent(inv_s, ws[sl])
        v = w - sig * p
        uv = u - v

        # round to nearest gives fl(y - x) = -fl(x - y) and fl(v - u) =
        # -fl(u - v), and a rounded product commutes with negation, so
        # (-c0) xy and (-c) uv are the bits of c0 (y - x) and c (v - u),
        # up to the sign of a NaN
        new_z = np.empty_like(zvec)
        corr0 = neg_c0 * xy + KT.dot(uv)
        if C2 is not None:
            corr0 += c2x - C2.evaluate(y)
        np.add(x, lam * corr0, out=new_z[:d])
        corr = neg_c * uv - KP0.dot(xy)
        if has_q:
            corr -= q
        np.add(u, lam * corr, out=new_z[d:])
        return new_z, None

    return _run(step, _default_start(layout.dim, start), cfg, counters, layout=layout)


def solve_corollary(pdp: PrimalDualProblem, params: CorollaryParams,
                    cfg: SolveConfig, start=None) -> SolveReport:
    """Scalar-diagonal scheme with reflection weight theta: the
    block-triangular sweep on ``BlockPreconditioner.corollary_pattern``
    (P_ii = Id/sigma_i, P_i0 = -(1+theta) L_i), admitted by the same
    ``check_pd_conditions``.  For this pattern Delta - Upsilon is
    ``params.omega`` and ||Sigma|| = (1-theta)/2 sqrt(sum ||L_i||^2)."""
    bp = BlockPreconditioner.corollary_pattern(params.theta, params.sigmas, pdp)
    return solve_block_triangular(pdp, bp, params.lam, cfg, start)


def check_condat_vu(pdp: PrimalDualProblem, tau: float, sigmas) -> list[float]:
    """The dual steps ``solve_condat_vu`` runs with (one value is repeated
    per block), checked as it checks them first; raises ConfigurationError."""
    if pdp.C2 is not None:
        raise ConfigurationError(
            "the Condat-Vu baseline does not handle a nonlinear/Lipschitz C2 term")
    _positive("tau", tau)
    sig = _steps("m dual stepsizes", sigmas, pdp.m)
    load = tau * (half_inverse(pdp.beta)
                  + sum(s * n * n for s, n in zip(sig, pdp.norms_L())))
    if not at_most(load, 1.0):
        raise ConfigurationError(
            f"stepsize condition violated: tau (1/(2 beta) + sum sigma_i ||L_i||^2) "
            f"= {load:.12g} must be <= 1")
    return sig


def solve_condat_vu(pdp: PrimalDualProblem, tau: float, sigmas,
                    cfg: SolveConfig, start=None) -> SolveReport:
    """Condat-Vu baseline (unrelaxed): primal resolvent descent step, then
    dual ascent steps against the reflected primal 2 x^+ - x.

    Requires C2 absent and tau (1/(2 beta) + sum_i sigma_i ||L_i||^2) <= 1.
    An iteration is one ``K.T.dot`` and one ``K.dot`` on the problem's
    stacked layout, then one counted resolvent call per block, with the
    Moreau identity over the stacked rows as in ``solve_block_triangular``.
    As there, r is subtracted only when some block gives one, and the new
    iterate is written in place.
    """
    sig_blocks = check_condat_vu(pdp, tau, sigmas)
    layout, d, K, r, rows = pdp.layout, pdp.dim, pdp.K, pdp.r, pdp.rows
    sig = np.repeat(sig_blocks, [blk.dim for blk in pdp.blocks])
    counters = _Counters()
    # an r that no block gives is all +0.0, and ``a - 0.0`` is ``a``
    has_r = any(blk.r is not None for blk in pdp.blocks)
    pdp = _counted(pdp, counters)
    C1, KT = pdp.C1, K.T
    d_inv = [(sl, blk.D_inv) for blk, sl in zip(pdp.blocks, rows) if blk.D_inv is not None]
    duals = [(sl, 1.0 / s, blk.B.resolvent) for blk, sl, s in zip(pdp.blocks, rows, sig_blocks)]

    def step(k, zvec):
        x, u = zvec[:d], zvec[d:]
        forward = KT.dot(u)
        if C1 is not None:
            forward += C1.evaluate(x)
        new_x = pdp.primal_resolvent(tau, x - tau * forward)
        t = K.dot(2.0 * new_x - x)
        for sl, D_inv in d_inv:
            t[sl] -= D_inv(u[sl])
        if has_r:
            t -= r
        w = u + sig * t
        ws = w / sig
        p = np.empty_like(u)  # J_{B_i/sigma_i}(w_i / sigma_i), row by row
        for sl, inv_s, resolvent in duals:
            p[sl] = resolvent(inv_s, ws[sl])
        new_z = np.empty_like(zvec)
        new_z[:d] = new_x
        np.subtract(w, sig * p, out=new_z[d:])
        return new_z, None

    return _run(step, _default_start(layout.dim, start), cfg, counters, layout=layout)


def kkt_residual(pdp: PrimalDualProblem, x, us) -> float:
    """Optimality certificate at (x, u_1..u_m) for optimization instances:
    the primal prox-stationarity residual combined with the dual
    resolvent-feasibility residuals (all at unit step), evaluated on the
    problem's stacked layout.  ``us`` holds one vector per dual block, of
    that block's length; anything else raises ValueError."""
    x = as_vector(x)
    us = [as_vector(u) for u in us]
    dims, got = [blk.dim for blk in pdp.blocks], [u.shape[0] for u in us]
    if got != dims:
        raise ValueError(f"need one dual vector per block, of lengths {dims}; got {got}")
    u = np.concatenate(us)
    forward = pdp.K.T.dot(u)
    if pdp.C1 is not None:
        forward += pdp.C1.evaluate(x)
    if pdp.C2 is not None:
        forward += pdp.C2.evaluate(x)
    w = pdp.K.dot(x) - pdp.r
    for blk, sl in zip(pdp.blocks, pdp.rows):
        if blk.D_inv is not None:
            w[sl] -= blk.D_inv(u[sl])
    w += u
    v = np.concatenate([blk.dual_resolvent(1.0, w[sl]) for blk, sl in zip(pdp.blocks, pdp.rows)])
    return float(np.linalg.norm(np.concatenate(
        [x - pdp.primal_resolvent(1.0, x - forward), u - v])))
