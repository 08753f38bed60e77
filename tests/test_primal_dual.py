import math

import numpy as np
import pytest

from splitmono.fbhf import (ConfigurationError, SolveConfig, _Counters,
                            _default_start, _run)
from splitmono.linalg import symmetric_min_eig
from splitmono.operators import (CocoerciveMap, MaximalMonotone,
                                 MonotoneMap, quadratic_gradient)
from splitmono.primal_dual import (BlockPreconditioner, CorollaryParams,
                                   DualBlock, PrimalDualProblem,
                                   build_upsilon_sigma_delta,
                                   _counted, _sweep, check_pd_conditions,
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

    def step(zvec):
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
            div = blk.d_inv_at(u)
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
        return layout.concat([x + lam * corr0] + new_us)

    return _run(step, _default_start(layout.dim, start), cfg, counters, layout=layout)


def feasible_sigma(pdp, theta):
    """A stepsize for which the theta-pattern condition holds comfortably:
    with equal stepsizes and m = 1, rho = 1/s - (1+theta)/2 ||L||, so aim at
    rho = 1/(2 beta) + ||L|| + 1."""
    norm_l = pdp.norms_L()[0]
    half_inv_beta = 0.0 if math.isinf(pdp.beta) else 1.0 / (2.0 * pdp.beta)
    rho_target = half_inv_beta + norm_l + 1.0
    s = 1.0 / (rho_target + (1.0 + theta) / 2.0 * norm_l)
    CorollaryParams(theta=theta, sigmas=(s, s)).validate(pdp)
    return s


class TestComparisonMatrices:
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
        rho, _ = params.constants(pdp.norms_L())
        beta = pdp.beta
        if 2.0 * beta * rho > 1.0 + 1e-9:
            params.validate(pdp)
        sigma_bad = 0.7  # rho = 1/0.7 - 1 = 0.4286 < 0.5
        bad = CorollaryParams(theta=1.0, sigmas=(sigma_bad, sigma_bad))
        rho_bad, _ = bad.constants(pdp.norms_L())
        assert 2.0 * beta * rho_bad < 1.0
        with pytest.raises(ConfigurationError):
            bad.validate(pdp)

    def test_rho_exceeds_reference_on_eta_grid(self):
        alpha, sigma = 2.0, 0.4
        etas = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.05, 1.1, 1.2]
        for eta in etas:
            assert eta < 1.0 / (alpha * sigma)
            sig = (eta * eta * sigma, sigma)
            params = CorollaryParams(theta=1.0, sigmas=sig)
            rho, _ = params.constants([alpha])
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
        rho, _ = params.constants([2.3219522798527064, 3.5521511968066375,
                                   2.55156942498802, 3.0217626862691707])
        assert rho == pytest.approx(1.763549662606195, abs=1e-12)

    def test_validate_agrees_with_block_check_on_pattern(self):
        # solve_corollary runs the sweep on CorollaryParams.validate alone;
        # the general check on the same pattern must reach the same verdict
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
            bp = BlockPreconditioner.corollary_pattern(params.theta, params.sigmas, pdp)
            check = check_pd_conditions(bp, [b.L for b in blocks], pdp.delta, pdp.beta)
            rho, M = params.constants(pdp.norms_L())
            assert abs(rho - check.rho) <= 1e-12 * max(1.0, abs(rho))
            assert M == pytest.approx(check.M, rel=1e-12)
            try:
                params.validate(pdp)
                accepted = True
            except ConfigurationError:
                accepted = False
            assert accepted == check.ok
            verdicts.append(accepted)
        assert any(verdicts) and not all(verdicts)

    def test_rho_equals_reference_at_eta_one(self):
        alpha, sigma = 2.0, 0.4
        params = CorollaryParams(theta=1.0, sigmas=(sigma, sigma))
        rho, _ = params.constants([alpha])
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
        r = _sweep(pdp, bp, lam, cfg, start)
        ref = reference_sweep(pdp, bp, lam, cfg, start)
        assert len(r.iterates) == len(ref.iterates) == 301
        for a, b in zip(r.iterates, ref.iterates):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
        # the run moves every block, so no coupling is idle
        for i in range(pdp.m + 1):
            assert np.linalg.norm(r.block(i) - pdp.layout.block(start, i)) > 1e-3
        assert (r.b1_evals, r.b2_evals, r.resolvent_evals) == \
            (ref.b1_evals, ref.b2_evals, ref.resolvent_evals) == (300, 600, 1200)

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
        good.validate(pdp)
        bad = CorollaryParams(theta=0.0, sigmas=(1.01, 1.01))
        with pytest.raises(ConfigurationError):
            bad.validate(pdp)

    def test_lambda_range_enforced(self):
        pdp = lasso_instance(seed=2)
        s = feasible_sigma(pdp, 0.0)
        _, M = CorollaryParams(theta=0.0, sigmas=(s, s)).constants(pdp.norms_L())
        with pytest.raises(ConfigurationError):
            solve_corollary(pdp, CorollaryParams(theta=0.0, sigmas=(s, s),
                                                 lam=1.0 / M),
                            SolveConfig(max_iterations=10, tolerance=1e-9))


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
