import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from splitmono.fbhf import (ConfigurationError, SolveConfig, _Counters,
                            _default_start, _run, metric_violation)
from splitmono.linalg import operator_norm, symmetric_min_eig
from splitmono import primal_dual
from splitmono.applications import ErmProblem, gen_erm_hinge
from splitmono.operators import (CocoerciveMap, MaximalMonotone,
                                 MonotoneMap, prox_abs_deviation, prox_hinge,
                                 quadratic_gradient, scalar_monotone)
from splitmono.primal_dual import (BlockPreconditioner, CorollaryParams,
                                   DualBlock, PrimalDualProblem,
                                   build_upsilon_sigma_delta,
                                   _check_lambda, _counted, check_pd_conditions,
                                   kkt_residual, rho_v, solve_block_triangular,
                                   solve_condat_vu, solve_corollary)


def nonpos_cone() -> MaximalMonotone:
    return MaximalMonotone(resolvent=lambda g, y: np.minimum(y, 0.0), tag="N-")


def nonneg_prox() -> MaximalMonotone:
    return MaximalMonotone(resolvent=lambda g, y: np.maximum(y, 0.0), tag="N+")


def soft_threshold(weight: float) -> MaximalMonotone:
    def res(gamma, y):
        t = weight * gamma
        return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)

    return MaximalMonotone(resolvent=res, tag=f"{weight}*l1")


def minimal_instance() -> PrimalDualProblem:
    """H = G_1 = R, L = 1, A = normal cone of [0, inf), C1 = x - 2,
    dual operator the normal cone of (-inf, 0].  Unique primal solution 0,
    duals form the ray [2, inf)."""
    C1 = CocoerciveMap(evaluate=lambda x: x - 2.0, beta=1.0)
    blk = DualBlock(B=nonpos_cone(), L=np.array([[1.0]]))
    return PrimalDualProblem(A=nonneg_prox(), C1=C1, C2=None, blocks=(blk,),
                             dim=1)


def lasso_instance(seed=0, dim=6, rows=4):
    """Strongly convex smooth term plus two l1-type pieces, one composed
    with a random matrix; the primal solution is unique."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
    b = rng.standard_normal(dim)
    L1 = rng.standard_normal((rows, dim))
    r1 = 0.1 * rng.standard_normal(rows)
    C1 = quadratic_gradient(G, b)
    blk = DualBlock(B=soft_threshold(0.5), L=L1, r=r1)
    return PrimalDualProblem(A=soft_threshold(0.1), C1=C1, C2=None,
                             blocks=(blk,), dim=dim)


def coupled_instance(seed=5):
    """Every term the sweep handles: C1, a skew C2, three dual blocks of 3, 2
    and 1 rows, nonzero r_i on two of them and a finite nu with D^{-1} on the
    first; with a preconditioner that has every P_i0 and every interior P_ij."""
    rng = np.random.default_rng(seed)
    dim, dims, nu = 4, (3, 2, 1), 2.0
    S = rng.standard_normal((dim, dim))
    C1 = quadratic_gradient(rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim),
                            rng.standard_normal(dim))
    Ls = [rng.standard_normal((k, dim)) for k in dims]
    blocks = (DualBlock(B=soft_threshold(0.5), L=Ls[0], r=0.1 * rng.standard_normal(3),
                        D_inv=lambda u: u / nu, nu=nu),
              DualBlock(B=nonneg_prox(), L=Ls[1], r=0.1 * rng.standard_normal(2)),
              DualBlock(B=soft_threshold(0.2), L=Ls[2]))
    pdp = PrimalDualProblem(A=soft_threshold(0.1), C1=C1,
                            C2=MonotoneMap.from_matrix(0.5 * (S - S.T)),
                            blocks=blocks, dim=dim)
    off = {(i, 0): -0.5 * L + 0.1 * rng.standard_normal(L.shape)
           for i, L in enumerate(Ls, start=1)}
    off.update({(i, j): 0.3 * rng.standard_normal((dims[i - 1], dims[j - 1]))
                for i in range(2, 4) for j in range(1, i)})
    bp = BlockPreconditioner(diag_scalars=(40.0, 30.0, 30.0, 30.0), off_diag=off)
    return pdp, bp


def reference_sweep(pdp, bp, lam, cfg, start):
    """The block-triangular sweep transcribed block by block, as in the
    Gauss-Seidel description: one matrix product per coupling."""
    layout = pdp.layout
    m = pdp.m
    sigmas = [1.0 / c for c in bp.diag_scalars]
    counters = _Counters()
    pdp = _counted(pdp, counters)

    def step(k, zvec):
        x = layout.block(zvec, 0)
        us = [layout.block(zvec, i) for i in range(1, m + 1)]
        forward = np.zeros_like(x)
        if pdp.C1 is not None:
            forward = forward + pdp.C1.evaluate(x)
        c2x = None
        if pdp.C2 is not None:
            c2x = pdp.C2.evaluate(x)
            forward = forward + c2x
        for blk, u in zip(pdp.blocks, us):
            forward = forward + blk.L.T @ u
        y = pdp.primal_resolvent(sigmas[0], x - sigmas[0] * forward)
        xy = x - y
        vs = []
        for i, (blk, u) in enumerate(zip(pdp.blocks, us), start=1):
            inner = -(blk.L @ x)
            div = None if blk.D_inv is None else blk.D_inv(u)
            if div is not None:
                inner = inner + div
            Pi0 = bp.block(i, 0)
            if Pi0 is not None:
                inner = inner - Pi0 @ xy
            for j in range(1, i):
                Pij = bp.block(i, j)
                if Pij is not None:
                    inner = inner - Pij @ (us[j - 1] - vs[j - 1])
            w = u - sigmas[i] * inner
            if blk.r is not None:
                w = w - sigmas[i] * blk.r
            vs.append(blk.dual_resolvent(sigmas[i], w))
        corr0 = bp.diag_scalars[0] * (y - x)
        if c2x is not None:
            corr0 = corr0 + (c2x - pdp.C2.evaluate(y))
        for blk, u, v in zip(pdp.blocks, us, vs):
            corr0 = corr0 + blk.L.T @ (u - v)
        new_us = []
        for i, (blk, u) in enumerate(zip(pdp.blocks, us), start=1):
            corr = bp.diag_scalars[i] * (vs[i - 1] - u) - blk.L @ xy
            Pi0 = bp.block(i, 0)
            if Pi0 is not None:
                corr = corr + Pi0 @ (y - x)
            for j in range(1, i):
                Pij = bp.block(i, j)
                if Pij is not None:
                    corr = corr + Pij @ (vs[j - 1] - us[j - 1])
            new_us.append(u + lam * corr)
        return layout.concat([x + lam * corr0] + new_us), None

    return _run(step, _default_start(layout.dim, start), cfg, counters, layout=layout)


def per_block_moreau_sweep(pdp, bp, lam, cfg, start):
    """The stacked sweep with the Moreau identity evaluated block by block,
    through ``DualBlock.dual_resolvent``: the bit-level reference for the
    stacked evaluation of ``solve_block_triangular``."""
    layout = pdp.layout
    d = pdp.dim
    rows = [slice(a - d, b - d) for a, b in zip(layout.offsets[1:], layout.offsets[2:])]
    dims = [blk.dim for blk in pdp.blocks]
    sigmas = [1.0 / c for c in bp.diag_scalars]
    c, sig = np.repeat(bp.diag_scalars[1:], dims), np.repeat(sigmas[1:], dims)
    r = np.concatenate([np.zeros(blk.dim) if blk.r is None else blk.r for blk in pdp.blocks])
    K = np.vstack([blk.L for blk in pdp.blocks])
    P0 = np.vstack([np.zeros_like(blk.L) if (P := bp.block(i, 0)) is None else P
                    for i, blk in enumerate(pdp.blocks, start=1)])
    KP0 = K + P0
    interior = [[(rows[j - 1], P) for j in range(1, i)
                 if (P := bp.block(i, j)) is not None and np.any(P)]
                for i in range(1, pdp.m + 1)]
    counters = _Counters()
    pdp = _counted(pdp, counters)
    C1, C2 = pdp.C1, pdp.C2
    d_inv = [(sl, blk.D_inv) for blk, sl in zip(pdp.blocks, rows) if blk.D_inv is not None]
    sweep = [(sl, s, blk.dual_resolvent, row)
             for blk, sl, s, row in zip(pdp.blocks, rows, sigmas[1:], interior)]

    def step(k, zvec):
        x, u = zvec[:d], zvec[d:]
        forward = K.T @ u
        if C1 is not None:
            forward += C1.evaluate(x)
        if C2 is not None:
            c2x = C2.evaluate(x)
            forward += c2x
        y = pdp.primal_resolvent(sigmas[0], x - sigmas[0] * forward)
        xy = x - y
        t = K @ x + P0 @ xy - r
        for sl, D_inv in d_inv:
            t[sl] -= D_inv(u[sl])
        w = u + sig * t
        v = np.empty_like(u)
        q = np.zeros_like(u)
        for sl, s, dual_resolvent, row in sweep:
            if row:
                q[sl] = sum(P @ (u[slj] - v[slj]) for slj, P in row)
                w[sl] += s * q[sl]
            v[sl] = dual_resolvent(s, w[sl])
        new_z = np.empty_like(zvec)
        corr0 = bp.diag_scalars[0] * (y - x) + K.T @ (u - v)
        if C2 is not None:
            corr0 += c2x - C2.evaluate(y)
        new_z[:d] = x + lam * corr0
        new_z[d:] = u + lam * (c * (v - u) - KP0 @ xy - q)
        return new_z, None

    return _run(step, _default_start(layout.dim, start), cfg, counters, layout=layout)


def reference_condat_vu(pdp, tau, sigmas, cfg, start):
    """The Condat-Vu iteration transcribed block by block: one product with
    each L_i and one ``DualBlock.dual_resolvent`` call per block."""
    layout = pdp.layout
    counters = _Counters()
    pdp = _counted(pdp, counters)

    def step(k, zvec):
        x = layout.block(zvec, 0)
        us = [layout.block(zvec, i) for i in range(1, pdp.m + 1)]
        forward = np.zeros_like(x)
        if pdp.C1 is not None:
            forward = forward + pdp.C1.evaluate(x)
        for blk, u in zip(pdp.blocks, us):
            forward = forward + blk.L.T.dot(u)
        new_x = pdp.primal_resolvent(tau, x - tau * forward)
        refl = 2.0 * new_x - x
        new_us = []
        for s, blk, u in zip(sigmas, pdp.blocks, us):
            inner = blk.L.dot(refl)
            if blk.D_inv is not None:
                inner = inner - blk.D_inv(u)
            if blk.r is not None:
                inner = inner - blk.r
            new_us.append(blk.dual_resolvent(s, u + s * inner))
        return layout.concat([new_x] + new_us), None

    return _run(step, _default_start(layout.dim, start), cfg, counters, layout=layout)


def reference_kkt_residual(pdp, x, us):
    """``kkt_residual`` evaluated block by block."""
    forward = pdp.C1.evaluate(x) if pdp.C1 is not None else np.zeros_like(x)
    if pdp.C2 is not None:
        forward = forward + pdp.C2.evaluate(x)
    for blk, u in zip(pdp.blocks, us):
        forward = forward + blk.L.T @ u
    r2 = float(np.linalg.norm(x - pdp.primal_resolvent(1.0, x - forward))) ** 2
    for blk, u in zip(pdp.blocks, us):
        w = blk.L @ x
        if blk.r is not None:
            w = w - blk.r
        if blk.D_inv is not None:
            w = w - blk.D_inv(u)
        r2 += float(np.linalg.norm(u - blk.dual_resolvent(1.0, u + w))) ** 2
    return math.sqrt(r2)


def erm_corollary_instance(d=6, m=15):
    """The hinge-loss ERM instance of the benchmark, dualized one sample per
    block, with its corollary pattern (theta = 1, every sigma_i = 0.1)."""
    pdp = gen_erm_hinge(d, m, 0).as_primal_dual()
    return pdp, BlockPreconditioner.corollary_pattern(1.0, (0.1,) * (m + 1), pdp)


def coupled_instance_active_duals():
    """``coupled_instance`` with dual operators whose resolvents at step
    1/sigma_i = 1/30 seldom vanish, so every earlier v_j feeds the interior
    blocks."""
    pdp, bp = coupled_instance()
    blocks = tuple(replace(blk, B=soft_threshold(0.01)) for blk in pdp.blocks)
    return replace(pdp, blocks=blocks), bp


def feasible_sigma(pdp, theta):
    """A stepsize for which the theta-pattern condition holds comfortably:
    with equal stepsizes and m = 1, rho = 1/s - (1+theta)/2 ||L||, so aim at
    rho = 1/(2 beta) + ||L|| + 1."""
    norm_l = pdp.norms_L()[0]
    half_inv_beta = 0.0 if math.isinf(pdp.beta) else 1.0 / (2.0 * pdp.beta)
    rho_target = half_inv_beta + norm_l + 1.0
    s = 1.0 / (rho_target + (1.0 + theta) / 2.0 * norm_l)
    assert corollary_check(pdp, CorollaryParams(theta=theta, sigmas=(s, s))).ok
    return s


def corollary_check(pdp, params):
    """The check ``solve_corollary`` admits ``params`` by: the block check on
    the corollary pattern."""
    bp = BlockPreconditioner.corollary_pattern(params.theta, params.sigmas, pdp)
    return check_pd_conditions(bp, [b.L for b in pdp.blocks], pdp.delta, pdp.beta)


def reference_upsilon_sigma_delta(bp, L_mats):
    """``build_upsilon_sigma_delta`` as a double loop over every (i, j) pair,
    each absent block read as zero (its shape checks left out)."""
    m = bp.m
    Ls = [np.asarray(L, dtype=float) for L in L_mats]
    ups = np.zeros((m + 1, m + 1))
    sig = np.zeros((m + 1, m + 1))
    for i in range(1, m + 1):
        for j in range(i):
            blk = bp.block(i, j)
            nrm = operator_norm(blk) if blk is not None and np.any(blk) else 0.0
            ups[i, j] = ups[j, i] = nrm / 2.0
            if j == 0:
                comb = Ls[i - 1] + (blk / 2.0 if blk is not None else 0.0)
                cnrm = operator_norm(comb) if np.any(comb) else 0.0
                sig[i, 0] = sig[0, i] = cnrm
            else:
                sig[i, j] = sig[j, i] = nrm / 2.0
    return ups, sig, np.diag(np.asarray(bp.diag_scalars, dtype=float))


def random_pattern(seed=9, m=7):
    """Blocks L_i of mixed heights and a sparse lower triangle with interior
    blocks, a zero block and some first-column blocks absent."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 4, size=m)
    Ls = [rng.standard_normal((k, 5)) for k in dims]
    off = {}
    for i in range(1, m + 1):
        for j in range(i):
            if rng.random() < 0.5:
                rows = dims[i - 1]
                cols = 5 if j == 0 else dims[j - 1]
                off[(i, j)] = rng.standard_normal((rows, cols))
    off[(m, m - 1)] = np.zeros((dims[m - 1], dims[m - 2]))
    return BlockPreconditioner(diag_scalars=tuple(rng.uniform(5.0, 9.0, m + 1)),
                               off_diag=off), Ls


class TestComparisonMatrices:
    @pytest.mark.parametrize("m", [15, 50, 400])
    def test_stored_blocks_give_the_double_loop_bytes_on_the_corollary(self, m):
        pdp = gen_erm_hinge(20, m, 3).as_primal_dual()
        bp = BlockPreconditioner.corollary_pattern(1.0, (5.0 / m,) * (m + 1), pdp)
        Ls = [blk.L for blk in pdp.blocks]
        for got, ref in zip(build_upsilon_sigma_delta(bp, Ls),
                            reference_upsilon_sigma_delta(bp, Ls)):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_stored_blocks_give_the_double_loop_bytes_with_interior_blocks(self, seed):
        bp, Ls = random_pattern(seed)
        assert any(j > 0 for _, j in bp.off_diag)
        for got, ref in zip(build_upsilon_sigma_delta(bp, Ls),
                            reference_upsilon_sigma_delta(bp, Ls)):
            assert got.tobytes() == ref.tobytes()

    def test_corollary_pattern_entries(self):
        pdp = lasso_instance()
        theta = 0.3
        sig = (0.2, 0.3)
        bp = BlockPreconditioner.corollary_pattern(theta, sig, pdp)
        ups, sg, dlt = build_upsilon_sigma_delta(bp, [b.L for b in pdp.blocks])
        norm_l = pdp.norms_L()[0]
        assert sg[1, 1] == 0.0
        assert sg[1, 0] == pytest.approx((1.0 - theta) / 2.0 * norm_l, rel=1e-9)
        assert ups[1, 0] == pytest.approx((1.0 + theta) / 2.0 * norm_l, rel=1e-9)
        assert np.array_equal(np.diag(dlt), [5.0, 1.0 / 0.3])

    def test_theta_one_kills_sigma(self):
        pdp = lasso_instance()
        bp = BlockPreconditioner.corollary_pattern(1.0, (0.2, 0.2), pdp)
        _, sg, _ = build_upsilon_sigma_delta(bp, [b.L for b in pdp.blocks])
        assert not np.any(sg)

    def test_diagonal_only_blocks(self):
        bp = BlockPreconditioner(diag_scalars=(1.0, 2.0), off_diag={})
        ups, sg, dlt = build_upsilon_sigma_delta(bp, [np.array([[1.0]])])
        assert not np.any(ups)
        assert sg[1, 0] == pytest.approx(1.0)   # ||L_1 + 0/2||
        assert np.array_equal(np.diag(dlt), [1.0, 2.0])

    def test_omega_equals_delta_minus_upsilon_for_pattern(self):
        pdp = lasso_instance()
        theta = -0.25
        params = CorollaryParams(theta=theta, sigmas=(0.15, 0.25))
        bp = BlockPreconditioner.corollary_pattern(theta, params.sigmas, pdp)
        ups, _, dlt = build_upsilon_sigma_delta(bp, [b.L for b in pdp.blocks])
        omega = params.omega(pdp.norms_L())
        assert np.allclose(dlt - ups, omega, atol=1e-10)

    def test_misshaped_off_diagonal_block_rejected(self):
        L1, L2 = np.ones((3, 5)), np.ones((2, 5))
        cases = [({(1, 0): np.ones((1, 5))}, [L1], r"\(1, 0\).*\(3, 5\).*\(1, 5\)"),
                 ({(2, 1): np.ones((3, 2))}, [L1, L2], r"\(2, 1\).*\(2, 3\).*\(3, 2\)")]
        for off, Ls, msg in cases:
            bp = BlockPreconditioner(diag_scalars=(10.0,) * (len(Ls) + 1), off_diag=off)
            with pytest.raises(ValueError, match=msg):
                build_upsilon_sigma_delta(bp, Ls)
            pdp = PrimalDualProblem(A=soft_threshold(0.1), C1=None, C2=None,
                                    blocks=tuple(DualBlock(B=nonpos_cone(), L=L) for L in Ls),
                                    dim=5)
            with pytest.raises(ValueError, match=msg):
                solve_block_triangular(pdp, bp, None,
                                       SolveConfig(max_iterations=50, tolerance=1e-300))


class TestConditions:
    def test_trivial_identity_case(self):
        bp = BlockPreconditioner(diag_scalars=(1.0, 1.0),
                                 off_diag={(1, 0): np.zeros((1, 1))})
        # L must be nonzero in problems, but the checker itself accepts any
        check = check_pd_conditions(bp, [np.array([[1e-12]])], delta=0.0,
                                    beta=math.inf)
        assert check.ok and check.rho == pytest.approx(1.0, abs=1e-9)

    def test_theta_one_reduces_to_2_beta_rho(self):
        # with theta = 1 and C2 = 0 the condition is exactly rho > 1/(2 beta)
        pdp = minimal_instance()
        sigma = 0.45
        params = CorollaryParams(theta=1.0, sigmas=(sigma, sigma))
        rho = symmetric_min_eig(params.omega(pdp.norms_L()))
        beta = pdp.beta
        if 2.0 * beta * rho > 1.0 + 1e-9:
            assert corollary_check(pdp, params).ok
        sigma_bad = 0.7  # rho = 1/0.7 - 1 = 0.4286 < 0.5
        bad = CorollaryParams(theta=1.0, sigmas=(sigma_bad, sigma_bad))
        rho_bad = symmetric_min_eig(bad.omega(pdp.norms_L()))
        assert 2.0 * beta * rho_bad < 1.0
        assert not corollary_check(pdp, bad).ok

    def test_rho_exceeds_reference_on_eta_grid(self):
        alpha, sigma = 2.0, 0.4
        etas = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.05, 1.1, 1.2]
        for eta in etas:
            assert eta < 1.0 / (alpha * sigma)
            sig = (eta * eta * sigma, sigma)
            params = CorollaryParams(theta=1.0, sigmas=sig)
            rho = symmetric_min_eig(params.omega([alpha]))
            ref = rho_v(1.0, sig, [alpha])
            assert rho > ref + 1e-12
            # closed form of the pattern eigenvalue as an independent check
            closed = (1.0 / (2.0 * sigma)) * (
                (eta * eta + 1.0) / eta ** 2
                - math.sqrt(((eta * eta - 1.0) / eta ** 2) ** 2
                            + 4.0 * alpha * alpha * sigma * sigma))
            assert rho == pytest.approx(closed, rel=1e-9)

    def test_clustered_omega_spectrum(self):
        # the two smallest eigenvalues of Omega are 1.7635 and 1.7738
        params = CorollaryParams(theta=-0.5016681495016835,
                                 sigmas=(0.010070785432754496, 0.5634853329875733,
                                         0.19332662307850448, 0.2441876643772199,
                                         0.564331806056783))
        rho = symmetric_min_eig(params.omega([2.3219522798527064, 3.5521511968066375,
                                              2.55156942498802, 3.0217626862691707]))
        assert rho == pytest.approx(1.763549662606195, abs=1e-12)

    def test_validate_agrees_with_block_check_on_pattern(self):
        # solve_corollary is admitted by the block check on its pattern; the
        # closed form on Omega must reach the same rho and the same verdict
        rng = np.random.default_rng(8)
        identity = MaximalMonotone(resolvent=lambda g, y: y)
        verdicts = []
        for _ in range(500):
            m, dim = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            blocks = tuple(DualBlock(B=identity,
                                     L=rng.standard_normal((int(rng.integers(1, 4)), dim)))
                           for _ in range(m))
            pdp = PrimalDualProblem(
                A=identity, C1=CocoerciveMap(evaluate=lambda x: x, beta=rng.uniform(0.5, 5.0)),
                C2=MonotoneMap(evaluate=lambda x: 0.0 * x, lipschitz=rng.uniform(0.0, 0.5)),
                blocks=blocks, dim=dim)
            params = CorollaryParams(theta=rng.uniform(-1.0, 1.0),
                                     sigmas=tuple(rng.uniform(0.01, 0.6, m + 1)))
            check = corollary_check(pdp, params)
            norms = pdp.norms_L()
            rho = symmetric_min_eig(params.omega(norms))
            assert abs(rho - check.rho) <= 1e-12 * max(1.0, abs(rho))
            K = pdp.delta + (1.0 - params.theta) / 2.0 * math.sqrt(sum(n * n for n in norms))
            accepted = metric_violation(rho, K, pdp.beta) is None
            assert accepted == check.ok
            verdicts.append(accepted)
        assert any(verdicts) and not all(verdicts)

    def test_rho_equals_reference_at_eta_one(self):
        alpha, sigma = 2.0, 0.4
        params = CorollaryParams(theta=1.0, sigmas=(sigma, sigma))
        rho = symmetric_min_eig(params.omega([alpha]))
        assert rho == pytest.approx(rho_v(1.0, (sigma, sigma), [alpha]), abs=1e-9)


class TestRhoV:
    def test_theta_minus_one(self):
        assert rho_v(-1.0, (0.3, 0.7), [5.0]) == pytest.approx(1.0 / 0.7)

    def test_boundary_zero(self):
        # sigma_0 * sum sigma_j ||L_j||^2 = 1 at theta = 1 gives rho_v = 0
        assert rho_v(1.0, (1.0, 1.0), [1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_dominated_by_omega_eigenvalue_on_valid_draws(self):
        rng = np.random.default_rng(41)
        valid = 0
        while valid < 100:
            m = int(rng.integers(1, 5))
            theta = float(rng.uniform(-1.0, 1.0))
            sig = rng.uniform(0.1, 1.5, size=m + 1)
            norms = rng.uniform(0.1, 2.0, size=m)
            params = CorollaryParams(theta=theta, sigmas=tuple(sig))
            rho = symmetric_min_eig(params.omega(list(norms)))
            if rho <= 0:
                continue
            valid += 1
            assert rho >= rho_v(theta, sig, norms) - 1e-12


class TestBlockTriangularSolver:
    def test_minimal_instance_against_condat_vu(self):
        pdp = minimal_instance()
        cfg = SolveConfig(max_iterations=200_000, tolerance=1e-12)
        params = CorollaryParams(theta=0.0, sigmas=(0.4, 0.4))
        r = solve_corollary(pdp, params, cfg)
        cv = solve_condat_vu(pdp, tau=1.0, sigmas=0.5, cfg=cfg)
        assert abs(r.block(0)[0] - cv.block(0)[0]) <= 1e-6
        assert abs(r.block(0)[0]) <= 1e-6   # primal solution is 0

    def test_stationary_at_solution(self):
        pdp = minimal_instance()
        start = np.array([0.0, 2.0])
        cfg = SolveConfig(max_iterations=3, tolerance=1e-300)
        params = CorollaryParams(theta=0.25, sigmas=(0.4, 0.4))
        r = solve_corollary(pdp, params, cfg, start=start)
        assert np.allclose(r.z, start, atol=1e-12)
        cv = solve_condat_vu(pdp, tau=1.0, sigmas=0.5, cfg=cfg, start=start)
        assert np.allclose(cv.z, start, atol=1e-12)

    def test_corollary_pattern_is_bit_identical(self):
        pdp = lasso_instance(seed=3)
        theta = 0.5
        s = feasible_sigma(pdp, theta)
        lam = 0.5 / (1.0 / s + (1.0 + theta) / 2.0 * pdp.norms_L()[0])
        cfg = SolveConfig(max_iterations=50, tolerance=1e-300, keep_iterates=True)
        bp = BlockPreconditioner.corollary_pattern(theta, (s, s), pdp)
        r1 = solve_block_triangular(pdp, bp, lam, cfg)
        r2 = solve_corollary(pdp, CorollaryParams(theta=theta, sigmas=(s, s),
                                                  lam=lam), cfg)
        assert len(r1.iterates) == len(r2.iterates)
        for a, b in zip(r1.iterates, r2.iterates):
            assert np.array_equal(a, b)

    def test_sweep_matches_blockwise_reference(self):
        pdp, bp = coupled_instance()
        check = check_pd_conditions(bp, [b.L for b in pdp.blocks], pdp.delta, pdp.beta)
        assert check.ok
        lam = 0.99 / check.M
        start = np.random.default_rng(6).standard_normal(pdp.layout.dim)
        cfg = SolveConfig(max_iterations=300, tolerance=1e-300, keep_iterates=True)
        r = solve_block_triangular(pdp, bp, lam, cfg, start)
        ref = reference_sweep(pdp, bp, lam, cfg, start)
        assert len(r.iterates) == len(ref.iterates) == 301
        for a, b in zip(r.iterates, ref.iterates):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
        # the run moves every block, so no coupling is idle
        for i in range(pdp.m + 1):
            assert np.linalg.norm(r.block(i) - pdp.layout.block(start, i)) > 1e-3
        assert (r.b1_evals, r.b2_evals, r.resolvent_evals) == \
            (ref.b1_evals, ref.b2_evals, ref.resolvent_evals) == (300, 600, 1200)

    @pytest.mark.parametrize("instance", [erm_corollary_instance, coupled_instance,
                                          coupled_instance_active_duals])
    def test_stacked_moreau_is_bit_identical_to_per_block(self, instance):
        # one division before the pass and one subtraction after it give the
        # bits of dual_resolvent on every block, with the same counts
        pdp, bp = instance()
        lam = 0.99 / check_pd_conditions(bp, [b.L for b in pdp.blocks],
                                         pdp.delta, pdp.beta).M
        start = np.random.default_rng(7).standard_normal(pdp.layout.dim)
        cfg = SolveConfig(max_iterations=200, tolerance=1e-300, keep_iterates=True)
        r = solve_block_triangular(pdp, bp, lam, cfg, start)
        ref = per_block_moreau_sweep(pdp, bp, lam, cfg, start)
        assert len(r.iterates) == len(ref.iterates) == 201
        for a, b in zip(r.iterates, ref.iterates):
            assert np.array_equal(a, b)
        assert (r.b1_evals, r.b2_evals, r.resolvent_evals, r.iterations) == \
            (ref.b1_evals, ref.b2_evals, ref.resolvent_evals, ref.iterations)
        assert r.resolvent_evals == 200 * (pdp.m + 1)

    def test_column_strided_interior_block_gives_the_c_order_iterates(self):
        # on a column-strided P_ij, .dot and @ give other bits than on its
        # C-order copy; the preconditioner stores every block through
        # as_matrix, so the two runs agree bit for bit
        cfg = SolveConfig(max_iterations=30, tolerance=1e-300, keep_iterates=True)
        for seed in range(20):
            pdp, bp = coupled_instance(seed)
            strided = {(i, j): np.repeat(P, 2, axis=1)[:, ::2] if j > 0 else P
                       for (i, j), P in bp.off_diag.items()}
            assert sum(not P.flags.forc for P in strided.values()) == 3
            lam = 0.99 / check_pd_conditions(bp, [b.L for b in pdp.blocks],
                                              pdp.delta, pdp.beta).M
            r = solve_block_triangular(pdp, replace(bp, off_diag=strided), lam, cfg)
            ref = solve_block_triangular(pdp, bp, lam, cfg)
            for a, b in zip(r.iterates, ref.iterates):
                assert np.array_equal(a, b)

    def test_rejects_failing_condition(self):
        pdp = lasso_instance(seed=4)
        norm_l = pdp.norms_L()[0]
        s = 10.0 / norm_l
        bp = BlockPreconditioner.corollary_pattern(1.0, (s, s), pdp)
        with pytest.raises(ConfigurationError):
            solve_block_triangular(pdp, bp, None,
                                   SolveConfig(max_iterations=10, tolerance=1e-9))


class TestCorollarySolver:
    def test_theta_sweep_reaches_common_primal(self):
        pdp = lasso_instance(seed=1)
        cfg = SolveConfig(max_iterations=500_000, tolerance=1e-11)
        sols = []
        for theta in (-1.0, 0.0, 1.0):
            s = feasible_sigma(pdp, theta)
            r = solve_corollary(pdp, CorollaryParams(theta=theta, sigmas=(s, s)),
                                cfg)
            sols.append(r.block(0))
        for x in sols[1:]:
            assert np.linalg.norm(x - sols[0]) <= 1e-6 * (1.0 + np.linalg.norm(sols[0]))

    def test_two_step_bound_straddle(self):
        # C1 = C2 = 0, m = 1, theta = 0: valid iff sigma_0 + sigma_1 < 2/||L||
        blk = DualBlock(B=soft_threshold(1.0), L=np.eye(2))
        pdp = PrimalDualProblem(A=soft_threshold(0.2), C1=None, C2=None,
                                blocks=(blk,), dim=2)
        good = CorollaryParams(theta=0.0, sigmas=(0.99, 0.99))
        assert corollary_check(pdp, good).ok
        bad = CorollaryParams(theta=0.0, sigmas=(1.01, 1.01))
        assert not corollary_check(pdp, bad).ok
        cfg = SolveConfig(max_iterations=10, tolerance=1e-9)
        with pytest.raises(ConfigurationError, match="block preconditioner rejected"):
            solve_corollary(pdp, bad, cfg)
        with pytest.raises(ConfigurationError, match=r"need exactly m\+1 stepsizes"):
            solve_corollary(pdp, CorollaryParams(theta=0.0, sigmas=(0.5,) * 3), cfg)

    def test_lambda_range_enforced(self):
        pdp = lasso_instance(seed=2)
        s = feasible_sigma(pdp, 0.0)
        M = corollary_check(pdp, CorollaryParams(theta=0.0, sigmas=(s, s))).M
        with pytest.raises(ConfigurationError):
            solve_corollary(pdp, CorollaryParams(theta=0.0, sigmas=(s, s),
                                                 lam=1.0 / M),
                            SolveConfig(max_iterations=10, tolerance=1e-9))

    @pytest.mark.parametrize("M", [0.3, 1.0, 2.0 / 3.0, 1234.5])
    def test_default_relaxation_is_099_over_M(self, M):
        assert _check_lambda(None, M) == 0.99 / M
        assert _check_lambda(0.5 / M, M) == 0.5 / M


class TestCondatVu:
    def test_rejects_c2(self):
        pdp = minimal_instance()
        with_c2 = PrimalDualProblem(A=pdp.A, C1=pdp.C1,
                                    C2=MonotoneMap(evaluate=lambda x: 0.1 * x,
                                                   lipschitz=0.1),
                                    blocks=pdp.blocks, dim=pdp.dim)
        with pytest.raises(ConfigurationError):
            solve_condat_vu(with_c2, tau=0.5, sigmas=0.5,
                            cfg=SolveConfig(max_iterations=10, tolerance=1e-9))

    def test_stepsize_condition_enforced(self):
        pdp = minimal_instance()
        with pytest.raises(ConfigurationError):
            solve_condat_vu(pdp, tau=1.5, sigmas=0.5,
                            cfg=SolveConfig(max_iterations=10, tolerance=1e-9))

    def test_load_slack_is_the_shared_margin(self):
        # minimal instance: load = tau (1/(2 beta) + sigma ||L||^2) = tau
        pdp = minimal_instance()
        cfg = SolveConfig(max_iterations=10, tolerance=1e-9)
        solve_condat_vu(pdp, tau=1.0 + 5e-13, sigmas=0.5, cfg=cfg)
        with pytest.raises(ConfigurationError, match="must be <= 1"):
            solve_condat_vu(pdp, tau=1.0 + 5e-11, sigmas=0.5, cfg=cfg)

    def test_paper_coupling_is_accepted(self):
        pdp = lasso_instance(seed=5)
        beta = pdp.beta
        norm_l = pdp.norms_L()[0]
        sigma_bar = 0.05
        tau = 1.0 / (1.0 / (2.0 * beta) + sigma_bar * norm_l ** 2)
        r = solve_condat_vu(pdp, tau=tau, sigmas=sigma_bar,
                            cfg=SolveConfig(max_iterations=200_000,
                                            tolerance=1e-11))
        assert r.reason == "tolerance"

    def test_stacked_matches_blockwise_reference_on_three_blocks(self):
        # three blocks of 3, 2 and 1 rows, r_i on two of them, D^{-1} on the
        # first and one sigma per block
        pdp, _ = coupled_instance()
        pdp = replace(pdp, C2=None)
        sigmas = [0.3, 0.2, 0.1]
        tau = 0.9 / (1.0 / (2.0 * pdp.beta)
                     + sum(s * n * n for s, n in zip(sigmas, pdp.norms_L())))
        start = np.random.default_rng(9).standard_normal(pdp.layout.dim)
        cfg = SolveConfig(max_iterations=60, tolerance=1e-300, keep_iterates=True)
        r = solve_condat_vu(pdp, tau, sigmas, cfg, start)
        ref = reference_condat_vu(pdp, tau, sigmas, cfg, start)
        assert len(r.iterates) == len(ref.iterates) == 61
        for a, b in zip(r.iterates, ref.iterates):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
        for i in range(pdp.m + 1):
            assert np.linalg.norm(r.block(i) - pdp.layout.block(start, i)) > 1e-3
        assert (r.b1_evals, r.b2_evals, r.resolvent_evals) == \
            (ref.b1_evals, ref.b2_evals, ref.resolvent_evals) == (60, 0, 240)
        us = [r.block(i) for i in range(1, pdp.m + 1)]
        assert kkt_residual(pdp, r.block(0), us) == pytest.approx(
            reference_kkt_residual(pdp, r.block(0), us), rel=1e-12)

    def test_agrees_with_corollary_solver(self):
        pdp = lasso_instance(seed=6)
        cfg = SolveConfig(max_iterations=500_000, tolerance=1e-11)
        s = feasible_sigma(pdp, 1.0)
        r = solve_corollary(pdp, CorollaryParams(theta=1.0, sigmas=(s, s)), cfg)
        beta = pdp.beta
        norm_l = pdp.norms_L()[0]
        sigma_bar = 0.05
        tau = 1.0 / (1.0 / (2.0 * beta) + sigma_bar * norm_l ** 2)
        cv = solve_condat_vu(pdp, tau=tau, sigmas=sigma_bar, cfg=cfg)
        assert np.linalg.norm(r.block(0) - cv.block(0)) <= 1e-5 * (
            1.0 + np.linalg.norm(cv.block(0)))


class TestKktResidual:
    def test_small_at_tight_termination(self):
        pdp = lasso_instance(seed=7)
        tol = 1e-9
        cfg = SolveConfig(max_iterations=500_000, tolerance=tol)
        s = feasible_sigma(pdp, 0.0)
        start = np.zeros(pdp.layout.dim)
        r = solve_corollary(pdp, CorollaryParams(theta=0.0, sigmas=(s, s)), cfg,
                            start=start)
        res = kkt_residual(pdp, r.block(0), [r.block(1)])
        assert res <= 10.0 * tol * (1.0 + np.linalg.norm(start)) * 100.0 or \
            res <= 1e-6
        # the tighter spec-level form is exercised on the minimal instance
        mini = minimal_instance()
        r2 = solve_corollary(mini, CorollaryParams(theta=0.0, sigmas=(0.4, 0.4)),
                             cfg, start=np.zeros(2))
        res2 = kkt_residual(mini, r2.block(0), [r2.block(1)])
        assert res2 <= 10.0 * tol * (1.0 + 0.0)

    def test_rejects_wrong_block_count_or_length(self):
        # zip used to drop the missing blocks and return a smaller residual
        pdp, _ = coupled_instance()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(pdp.dim)
        us = [rng.standard_normal(blk.dim) for blk in pdp.blocks]
        assert kkt_residual(pdp, x, us) == pytest.approx(
            reference_kkt_residual(pdp, x, us), rel=1e-12)
        for bad in (us[:2], us[:1], [], us + [np.ones(1)],
                    [us[0], us[1], np.ones(2)], [us[0][:2], us[1], us[2]]):
            with pytest.raises(ValueError, match="one dual vector per block"):
                kkt_residual(pdp, x, bad)


# ---------------------------------------------------------------------------
# the stacked Jacobi pass over scalar prox blocks


def wrapped(pdp, wrap, which=None):
    """``pdp`` with the dual resolvent of each block in ``which`` (every
    block when None) replaced by ``wrap(resolvent)``."""
    return replace(pdp, blocks=tuple(
        replace(blk, B=replace(blk.B, resolvent=wrap(blk.B.resolvent)))
        if which is None or i in which else blk
        for i, blk in enumerate(pdp.blocks)))


def closure(resolvent):
    return lambda gamma, y: resolvent(gamma, y)


def looped(pdp):
    """``pdp`` with every dual resolvent behind a plain closure, which the
    stacked pass does not recognise: the per-block reference."""
    return wrapped(pdp, closure)


def abs_deviation_erm(d=3, m=8, seed=2):
    """ERM with absolute-deviation losses |a_i^T x - b_i|."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, d))
    b = rng.standard_normal(m)
    return ErmProblem(a=a, proxes=tuple(prox_abs_deviation(float(bi)) for bi in b),
                      values=tuple((lambda t, bi=float(bi): abs(t - bi)) for bi in b))


def mixed_erm(d=3, m=6, seed=4):
    """ERM whose samples alternate hinge and absolute-deviation losses."""
    prob = abs_deviation_erm(d, m, seed)
    proxes = tuple(prox_hinge(1.0) if i % 2 else prox for i, prox in enumerate(prob.proxes))
    return replace(prob, proxes=proxes)


def corollary(pdp, cfg, seed=0):
    m = pdp.m
    start = np.random.default_rng(seed).standard_normal(pdp.layout.dim)
    return solve_corollary(pdp, CorollaryParams(theta=1.0, sigmas=(0.1,) * (m + 1)),
                           cfg, start)


def interior(pdp, cfg, seed=0):
    """The corollary pattern plus one nonzero interior block P_21."""
    m = pdp.m
    bp = BlockPreconditioner.corollary_pattern(1.0, (0.1,) * (m + 1), pdp)
    bp = replace(bp, off_diag={**bp.off_diag, (2, 1): np.array([[0.05]])})
    start = np.random.default_rng(seed).standard_normal(pdp.layout.dim)
    return solve_block_triangular(pdp, bp, None, cfg, start)


def assert_same_run(r, ref):
    assert (r.iterations, r.reason, r.b1_evals, r.b2_evals, r.resolvent_evals,
            r.projections, r.backtracks) == \
        (ref.iterations, ref.reason, ref.b1_evals, ref.b2_evals, ref.resolvent_evals,
         ref.projections, ref.backtracks)
    assert r.z.tobytes() == ref.z.tobytes()
    assert len(r.iterates) == len(ref.iterates)
    for a, b in zip(r.iterates, ref.iterates):
        assert a.tobytes() == b.tobytes()


@pytest.fixture
def stacked_passes(monkeypatch):
    """Whether each solve's dual pass was stacked, in solve order."""
    seen = []
    real = primal_dual._stacked_duals

    def spy(*args):
        stacked = real(*args)
        seen.append(stacked is not None)
        return stacked

    monkeypatch.setattr(primal_dual, "_stacked_duals", spy)
    return seen


TO_TOLERANCE = SolveConfig(max_iterations=150_000, tolerance=1e-5, keep_iterates=True)
CAPPED = SolveConfig(max_iterations=2_000, tolerance=1e-300, keep_iterates=True)


class TestStackedDualPass:
    @pytest.mark.parametrize("make, solve, cfg", [
        (lambda: gen_erm_hinge(6, 15, 0), corollary, TO_TOLERANCE),
        # criterion 11's instance, whose run to tolerance takes 17,106 iterations
        (lambda: gen_erm_hinge(20, 50, 3), corollary, CAPPED),
        (abs_deviation_erm, corollary, TO_TOLERANCE),
    ], ids=["erm-6-15", "erm-20-50-3", "abs-deviation"])
    def test_same_run_as_the_per_block_pass(self, make, solve, cfg, stacked_passes):
        pdp = make().as_primal_dual()
        r, ref = solve(pdp, cfg), solve(looped(pdp), cfg)
        assert stacked_passes == [True, False]
        assert_same_run(r, ref)
        assert r.reason == ("tolerance" if cfg is TO_TOLERANCE else "max_iter")
        # the stacked call counts as one resolvent call per block
        assert r.resolvent_evals == r.iterations * (pdp.m + 1)

    @pytest.mark.parametrize("wrap", [
        closure,
        lambda res: functools.wraps(res)(lambda gamma, y: res(gamma, y)),
        lambda res: functools.lru_cache(maxsize=0)(res),
    ], ids=["closure", "functools.wraps", "lru_cache"])
    def test_a_wrapped_block_takes_the_per_block_pass(self, wrap, stacked_passes):
        pdp = gen_erm_hinge(6, 15, 0).as_primal_dual()
        calls = []

        def counting(res):
            inner = wrap(res)
            return lambda gamma, y: calls.append(1) or inner(gamma, y)

        r = corollary(wrapped(pdp, counting, which={7}), CAPPED)
        ref = corollary(looped(pdp), CAPPED)
        assert stacked_passes == [False, False]
        assert len(calls) == r.iterations
        assert_same_run(r, ref)

    def test_a_wrapper_that_copies_a_marker_is_not_bypassed(self, stacked_passes):
        # functools.wraps copies the wrapped function's __dict__, so a marker
        # attribute would survive the wrapping; recognition goes by identity
        pdp = gen_erm_hinge(6, 15, 0).as_primal_dual()
        res = pdp.blocks[3].B.resolvent
        res.marker = "scalar"
        calls = []

        @functools.wraps(res)
        def counting(gamma, y):
            calls.append(1)
            return res(gamma, y)

        assert counting.marker == "scalar"
        r = corollary(wrapped(pdp, lambda res: counting, which={3}), CAPPED)
        assert stacked_passes == [False]
        assert len(calls) == r.iterations

    def test_a_wrapped_prox_takes_the_per_block_pass(self, stacked_passes):
        prob = gen_erm_hinge(6, 15, 0)
        proxes = list(prob.proxes)
        proxes[2] = functools.wraps(proxes[2])(lambda gamma, t, f=proxes[2]: f(gamma, t))
        pdp = replace(prob, proxes=tuple(proxes)).as_primal_dual()
        r, ref = corollary(pdp, CAPPED), corollary(looped(prob.as_primal_dual()), CAPPED)
        assert stacked_passes == [False, False]
        assert_same_run(r, ref)

    def test_mixed_prox_families_take_the_per_block_pass(self, stacked_passes):
        pdp = mixed_erm().as_primal_dual()
        r, ref = corollary(pdp, CAPPED), corollary(looped(pdp), CAPPED)
        assert stacked_passes == [False, False]
        assert_same_run(r, ref)

    def test_an_interior_block_takes_the_per_block_pass(self, stacked_passes):
        pdp = gen_erm_hinge(6, 15, 0).as_primal_dual()
        r, ref = interior(pdp, CAPPED), interior(looped(pdp), CAPPED)
        # the pattern never asked for the stacked pass
        assert stacked_passes == []
        assert_same_run(r, ref)
        # and P_21 acts: without it the run differs
        plain = corollary(pdp, CAPPED)
        assert plain.z.tobytes() != r.z.tobytes()

    def test_a_block_of_several_rows_takes_the_per_block_pass(self, stacked_passes):
        prob = abs_deviation_erm()
        pdp = prob.as_primal_dual()
        blocks = (replace(pdp.blocks[0], L=prob.a[:2]),) + pdp.blocks[2:]
        pdp = replace(pdp, blocks=blocks)
        r, ref = corollary(pdp, CAPPED), corollary(looped(pdp), CAPPED)
        assert stacked_passes == [False, False]
        assert_same_run(r, ref)
