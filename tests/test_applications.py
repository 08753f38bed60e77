import math
from dataclasses import replace

import numpy as np
import pytest

from splitmono.applications import (ErmProblem, NlpProblem, erm_condition,
                                    erm_relaxation_bound, erm_uniform_sigma_bound,
                                    gen_entropy_ls, gen_erm_hinge, gen_lin_ineq_qp,
                                    solve_erm_incremental, solve_nlp)
from splitmono.fbhf import (ConfigurationError, ConstantStep, LineSearch,
                            SolveConfig, _Counters, _default_start, _run, chi,
                            half_inverse, solve_fbhf, solve_tseng_fbf)
from splitmono.linalg import operator_norm
from splitmono.operators import (ClosedConvexSet, MaximalMonotone,
                                 affine_constraints,
                                 prox_abs_deviation, quadratic_gradient,
                                 scalar_monotone)
from splitmono.primal_dual import (BlockPreconditioner, CorollaryParams, DualBlock,
                                   PrimalDualProblem, check_pd_conditions,
                                   solve_block_triangular, solve_condat_vu,
                                   solve_corollary)


def ls_policy(**kw):
    return LineSearch(epsilon=kw.pop("epsilon", 0.5), sigma=kw.pop("sigma", 0.9),
                      theta=kw.pop("theta", 0.3), **kw)


def elementwise_incremental(p, sigma, lam, cfg, start):
    """The incremental sweep with numpy-scalar recurrences, per-sample Gram
    slices and a Moreau helper per sample: the bit-level reference for the
    plain-float loop of ``solve_erm_incremental``."""
    sig = [float(sigma)] * (p.m + 1)
    layout = p.layout
    G = p.a @ p.a.T
    G_lower = np.tril(G, -1)
    sig_tail = np.asarray(sig[1:])
    counters = _Counters()
    proxes = [counters.count("res", prox) for prox in p.proxes]
    m = p.m

    def dual_prox(i, sigma, w):
        return w - sigma * proxes[i](1.0 / sigma, w / sigma)

    def step(k, zvec):
        x = layout.block(zvec, 0)
        u = zvec[p.d:]
        ax = p.a @ x
        v = np.empty(m)
        for i in range(m):
            mix = float(G[i, :i] @ v[:i]) + float(G[i, i:] @ u[i:])
            w = u[i] + sig[i + 1] * (ax[i] - sig[0] * mix)
            v[i] = dual_prox(i, sig[i + 1], w)
        new_x = x - lam * (p.a.T @ v)
        dv = v - u
        new_u = u + lam * (dv / sig_tail + sig[0] * (G_lower @ dv))
        return np.concatenate([new_x, new_u]), None

    return _run(step, _default_start(layout.dim, start), cfg, counters, layout=layout)


class TestErmCondition:
    def test_uniform_bound_is_sharp(self):
        m = 9
        bound = erm_uniform_sigma_bound(m)
        ok = 0.99 * bound
        lhs, rhs = erm_condition([ok] * (m + 1), [1.0] * m)
        assert lhs < rhs
        lhs, rhs = erm_condition([bound] * (m + 1), [1.0] * m)
        assert lhs >= rhs - 1e-9

    def test_solver_enforces_bound_exactly(self):
        prob = gen_erm_hinge(4, 9, seed=0)
        bound = erm_uniform_sigma_bound(9)
        cfg = SolveConfig(max_iterations=10, tolerance=1e-9)
        with pytest.raises(ConfigurationError, match="stepsize condition"):
            solve_erm_incremental(prob, [bound], None, cfg)
        r = solve_erm_incremental(prob, [0.99 * bound], None, cfg)
        assert r.iterations == 10

    def test_solver_enforces_relaxation_range(self):
        prob = gen_erm_hinge(4, 9, seed=0)
        sigma = 0.99 * erm_uniform_sigma_bound(9)
        M = erm_relaxation_bound([sigma] * 10, np.linalg.norm(prob.a, axis=1))
        cfg = SolveConfig(max_iterations=10, tolerance=1e-9)
        for lam in (1.0 / M, 0.0):
            with pytest.raises(ConfigurationError, match="relaxation lambda"):
                solve_erm_incremental(prob, [sigma], lam, cfg)
        r = solve_erm_incremental(prob, [sigma], 0.99 / M, cfg)
        assert r.iterations == 10


class TestErmSolver:
    def test_two_sample_analytic_solution(self):
        # separable absolute deviations: min |x_1 - b_1| + |x_2 - b_2|
        b = np.array([0.7, -1.3])
        prob = ErmProblem(a=np.eye(2),
                          proxes=(prox_abs_deviation(b[0]),
                                  prox_abs_deviation(b[1])),
                          values=(lambda t: abs(t - b[0]),
                                  lambda t: abs(t - b[1])))
        sigma = 0.99 * erm_uniform_sigma_bound(2)
        r = solve_erm_incremental(prob, [sigma], None,
                                  SolveConfig(max_iterations=500_000,
                                              tolerance=1e-12))
        assert np.linalg.norm(r.block(0) - b) <= 1e-6

    def test_single_sample_matches_corollary_pattern(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b = 0.8
        prob = ErmProblem(a=a[None, :], proxes=(prox_abs_deviation(b),),
                          values=(lambda t: abs(t - b),))
        sigma, lam = 0.3, 0.2
        cfg = SolveConfig(max_iterations=60, tolerance=1e-300, keep_iterates=True)
        r1 = solve_erm_incremental(prob, [sigma], lam, cfg)
        r2 = solve_corollary(prob.as_primal_dual(),
                             CorollaryParams(theta=0.0, sigmas=(sigma, sigma), lam=lam), cfg)
        for za, zb in zip(r1.iterates, r2.iterates):
            assert np.linalg.norm(za - zb) <= 1e-10

    def test_start_of_wrong_length_rejected(self):
        prob = gen_erm_hinge(4, 6, 0)
        sigma = 0.5 * erm_uniform_sigma_bound(prob.m)
        cfg = SolveConfig(max_iterations=5, tolerance=1e-9)
        for n in (prob.d + prob.m - 1, prob.d + prob.m + 1):
            with pytest.raises(ValueError, match="starting point has the wrong dimension"):
                solve_erm_incremental(prob, [sigma], None, cfg, start=np.zeros(n))

    def test_incremental_is_the_block_triangular_sweep(self):
        # P_ii = Id/sigma, P_i0 = -a_i^T and P_ij = sigma_0 a_i a_j^T turn the
        # general sweep into the incremental one: block i reads the fresh
        # duals v_1..v_{i-1} through the interior blocks
        prob = gen_erm_hinge(4, 6, 0)
        m = prob.m
        pdp = prob.as_primal_dual()
        cfg = SolveConfig(max_iterations=200, tolerance=1e-300, keep_iterates=True)
        for frac in (0.3, 0.6, 0.9):
            sigma = frac * erm_uniform_sigma_bound(m)
            off = {(i, 0): -prob.a[i - 1][None, :] for i in range(1, m + 1)}
            off.update({(i, j): sigma * np.array([[prob.a[i - 1] @ prob.a[j - 1]]])
                        for i in range(2, m + 1) for j in range(1, i)})
            bp = BlockPreconditioner(diag_scalars=(1.0 / sigma,) * (m + 1), off_diag=off)
            check = check_pd_conditions(bp, [b.L for b in pdp.blocks], 0.0, math.inf)
            assert check.ok
            M = erm_relaxation_bound([sigma] * (m + 1), np.linalg.norm(prob.a, axis=1))
            lam = 0.99 / max(M, check.M)
            r1 = solve_erm_incremental(prob, [sigma], lam, cfg)
            r2 = solve_block_triangular(pdp, bp, lam, cfg)
            assert len(r1.iterates) == len(r2.iterates) == 201
            for za, zb in zip(r1.iterates, r2.iterates):
                assert np.max(np.abs(za - zb)) <= 1e-12

    @pytest.mark.parametrize("d, m", [(6, 15), (5, 9)])
    def test_plain_float_loop_is_bit_identical(self, d, m):
        # the benchmark's ERM instance, and one whose dual block starts at an
        # odd offset of the iterate
        prob = gen_erm_hinge(d, m, 0)
        sigma = 0.99 * erm_uniform_sigma_bound(m)
        lam = 0.99 / erm_relaxation_bound([sigma] * (m + 1), np.linalg.norm(prob.a, axis=1))
        start = np.random.default_rng(7).standard_normal(d + m)
        cfg = SolveConfig(max_iterations=200, tolerance=1e-300, keep_iterates=True)
        r = solve_erm_incremental(prob, [sigma], None, cfg, start)
        ref = elementwise_incremental(prob, sigma, lam, cfg, start)
        assert len(r.iterates) == len(ref.iterates) == 201
        for za, zb in zip(r.iterates, ref.iterates):
            assert np.array_equal(za, zb)
        assert (r.resolvent_evals, r.iterations) == (ref.resolvent_evals, ref.iterations)
        assert r.resolvent_evals == 200 * m

    def test_hinge_objective_matches_cross_solver_oracle(self):
        # desk-size variant; the full d=20, m=50 case runs in the acceptance suite
        d, m = 10, 20
        prob = gen_erm_hinge(d, m, seed=3)
        sigma = 0.99 * erm_uniform_sigma_bound(m)
        r = solve_erm_incremental(prob, [sigma], None,
                                  SolveConfig(max_iterations=100_000,
                                              tolerance=1e-6))
        obj = prob.objective(r.block(0))
        oracle = solve_corollary(prob.as_primal_dual(),
                                 CorollaryParams(theta=1.0, sigmas=(0.15,) * (m + 1)),
                                 SolveConfig(max_iterations=100_000, tolerance=1e-6))
        obj_ref = prob.objective(oracle.block(0))
        assert abs(obj - obj_ref) <= 1e-4 * max(1.0, abs(obj_ref))


class TestNlpSolver:
    def analytic_instance(self):
        # min (x+1)^2/2 subject to x <= 0; unconstrained minimum -1 feasible
        h = quadratic_gradient(np.array([[1.0]]), np.array([-1.0]))
        return NlpProblem(f=MaximalMonotone.zero(), h=h,
                          constraints=affine_constraints(np.array([[1.0]])),
                          Y=ClosedConvexSet.whole_space(), dim=1)

    def test_feasible_unconstrained_minimum_is_fixed_point(self):
        prob = self.analytic_instance()
        start = np.array([-1.0, 0.0])
        gamma = 0.9 * chi(prob.beta, 1.0)
        r = solve_nlp(prob, ConstantStep(gamma=gamma),
                      SolveConfig(max_iterations=5, tolerance=1e-300),
                      start=start)
        assert np.array_equal(r.z, start)

    def test_affine_constant_step_matches_reference(self):
        prob = gen_lin_ineq_qp(30, 3, seed=1)
        beta, L = prob.beta, prob.data["L"]
        gamma = 3.99 * beta / (1.0 + math.sqrt(1.0 + 16.0 * beta * beta * L * L))
        r = solve_nlp(prob, ConstantStep(gamma=gamma),
                      SolveConfig(max_iterations=400_000, tolerance=1e-9))
        ref = solve_nlp(prob, ConstantStep(gamma=gamma),
                        SolveConfig(max_iterations=1_000_000, tolerance=1e-11))
        ox = prob.objective(r.block(0))
        oref = prob.objective(ref.block(0))
        assert abs(ox - oref) <= 1e-4 * max(1.0, abs(oref))
        assert prob.max_constraint(r.block(0)) <= 1e-6

    def test_entropy_line_search_head_to_head(self):
        prob = gen_entropy_ls(12, -0.4, seed=0)
        cfg = SolveConfig(max_iterations=400_000, tolerance=1e-10)
        r_f = solve_nlp(prob, ls_policy(), cfg)
        r_t = solve_nlp(prob, ls_policy(), cfg, baseline="tseng")
        of = prob.objective(r_f.block(0))
        ot = prob.objective(r_t.block(0))
        assert abs(of - ot) <= 1e-4 * max(1.0, abs(of), abs(ot))
        assert prob.max_constraint(r_f.block(0)) <= 1e-5
        assert r_f.b1_evals <= r_t.b1_evals

    def test_duals_stay_nonnegative(self):
        prob = gen_entropy_ls(10, -0.6, seed=2)
        cfg = SolveConfig(max_iterations=3000, tolerance=1e-8,
                          keep_iterates=True)
        r = solve_nlp(prob, ls_policy(), cfg)
        for z in r.iterates:
            assert np.all(z[prob.dim:] >= 0.0)

    def test_complementarity_at_termination(self):
        prob = gen_entropy_ls(10, -0.8, seed=4)
        tol = 1e-10
        r = solve_nlp(prob, ls_policy(),
                      SolveConfig(max_iterations=500_000, tolerance=tol))
        x, u = r.block(0), r.block(1)
        g = prob.constraints[0].value(x)
        x0 = prob.default_start()[:prob.dim]
        g0 = prob.constraints[0].value(x0)
        assert abs(u[0] * g) <= 10.0 * tol * (1.0 + abs(g0)) * 1e6 or \
            abs(u[0] * g) <= 1e-6

    def test_nonaffine_requires_line_search(self):
        prob = gen_entropy_ls(8, -0.4, seed=5)
        with pytest.raises(ConfigurationError):
            solve_nlp(prob, ConstantStep(gamma=0.1),
                      SolveConfig(max_iterations=10, tolerance=1e-9))


def transcribed_a_x(prob):
    """The saddle spec's A resolvent and X projection as they were written by
    hand before A and X became product operators, with each box's clamp
    spelled out from its bounds: the bit-level reference for the products."""
    n, p = prob.dim, prob.p
    (f_lo, f_hi), (y_lo, y_hi) = prob.f.bounds, prob.Y.bounds

    def a_res(gamma, y):
        out = np.empty(n + p)
        out[:n] = np.minimum(np.maximum(y[:n], f_lo), f_hi)
        np.maximum(y[n:], 0.0, out=out[n:])
        return out

    def x_proj(v):
        out = np.empty(n + p)
        out[:n] = np.minimum(np.maximum(v[:n], y_lo), y_hi)
        np.maximum(v[n:], 0.0, out=out[n:])
        return out

    return a_res, x_proj


SADDLE_PROBLEMS = {"lin-ineq": lambda: gen_lin_ineq_qp(20, 3, seed=0),
                   "entropy": lambda: gen_entropy_ls(10, -0.4, seed=0)}


class TestSaddleSpecOracles:
    """The saddle spec's A and X are products of boxes, each one clamp; they
    must equal, bit for bit, the hand-written blockwise oracles."""

    @pytest.mark.parametrize("name", sorted(SADDLE_PROBLEMS))
    def test_matches_transcribed_oracles(self, name):
        prob = SADDLE_PROBLEMS[name]()
        n, p = prob.dim, prob.p
        spec = prob.saddle_spec()
        a_res, x_proj = transcribed_a_x(prob)
        rng = np.random.default_rng(0)
        special = np.resize([-0.0, np.nan, -np.inf, np.inf, 0.0005, 1.5, -2.0], n + p)
        for w in [special, special[::-1].copy()] + [2.0 * rng.standard_normal(n + p)
                                                   for _ in range(20)]:
            # points outside the box and with negative multipliers
            gamma = float(rng.uniform(0.01, 2.0))
            assert spec.A.resolvent(gamma, w).tobytes() == a_res(gamma, w).tobytes()
            assert spec.X.project(w).tobytes() == x_proj(w).tobytes()
            assert spec.X.metric_project(np.eye(n + p), w).tobytes() == x_proj(w).tobytes()
            if np.all(np.isfinite(w)):
                assert np.array_equal(spec.B1.evaluate(w),
                                      np.concatenate([prob.h.evaluate(w[:n]), np.zeros(p)]))
        assert [d for _, d in spec.A.blocks] == [n, p] and spec.A.blocks[0][0] is prob.f
        assert spec.A.bounds is not None and spec.X.bounds is not None

    @pytest.mark.parametrize("name,baseline,policy", [
        ("lin-ineq", "fbhf", "constant"), ("lin-ineq", "tseng", "constant"),
        ("lin-ineq", "fbhf", "ls"), ("lin-ineq", "tseng", "ls"),
        ("entropy", "fbhf", "ls"), ("entropy", "tseng", "ls")])
    def test_solves_match_transcribed_oracles(self, name, baseline, policy):
        prob = SADDLE_PROBLEMS[name]()
        spec = prob.saddle_spec()
        a_res, x_proj = transcribed_a_x(prob)
        hand = replace(spec, A=replace(spec.A, resolvent=a_res),
                       X=replace(spec.X, project=x_proj))
        step = ConstantStep() if policy == "constant" else ls_policy()
        solve = solve_fbhf if baseline == "fbhf" else solve_tseng_fbf
        # up to 1,000 iterations: thousands of A and X calls, line-search
        # candidates included
        cfg = SolveConfig(max_iterations=1000, tolerance=1e-9)
        z0 = prob.default_start()
        r, ref = solve(spec, step, cfg, z0), solve(hand, step, cfg, z0)
        assert r.z.tobytes() == ref.z.tobytes()
        assert r.iterations > 1
        for key in ("iterations", "reason", "b1_evals", "b2_evals", "resolvent_evals",
                    "projections", "backtracks"):
            assert getattr(r, key) == getattr(ref, key), key


class TestPrimalDualForms:
    """``as_primal_dual`` is the one place that casts an application as a
    composite primal-dual inclusion.  Each reference below writes that cast
    out by hand from the generator's data, and a solve on it must give the
    constructor's iterates and counts bit for bit."""

    CFG = SolveConfig(max_iterations=200, tolerance=1e-300, keep_iterates=True)

    @staticmethod
    def lin_ineq_reference(prob):
        neg_orthant = MaximalMonotone(resolvent=lambda gamma, y: np.minimum(y, 0.0))
        return PrimalDualProblem(A=prob.f, C1=prob.h, C2=None,
                                 blocks=(DualBlock(B=neg_orthant, L=prob.data["D"]),),
                                 dim=prob.dim)

    @staticmethod
    def erm_reference(prob):
        return PrimalDualProblem(A=MaximalMonotone.zero(), C1=None, C2=None, dim=prob.d,
                                 blocks=tuple(DualBlock(B=scalar_monotone(prob.proxes[i]),
                                                        L=prob.a[i][None, :])
                                              for i in range(prob.m)))

    @staticmethod
    def assert_same_run(r, ref):
        assert len(r.iterates) == len(ref.iterates) == 201
        for za, zb in zip(r.iterates, ref.iterates):
            assert za.tobytes() == zb.tobytes()
        for key in ("iterations", "reason", "b1_evals", "b2_evals", "resolvent_evals"):
            assert getattr(r, key) == getattr(ref, key), key

    def test_lin_ineq_form_is_the_reference_cast(self):
        prob = gen_lin_ineq_qp(20, 3, seed=0)
        pdp = prob.as_primal_dual()
        # the step the CLI's condat-vu cell takes from the form's ||L||
        assert pdp.norms_L() == [prob.data["L"]]
        sigma = 0.01
        tau = 1.0 / (half_inverse(prob.beta) + sigma * prob.data["L"] ** 2)
        start = np.random.default_rng(4).standard_normal(prob.dim + prob.p)
        self.assert_same_run(solve_condat_vu(pdp, tau, sigma, self.CFG, start),
                             solve_condat_vu(self.lin_ineq_reference(prob), tau, sigma,
                                             self.CFG, start))

    def test_erm_form_is_the_reference_cast(self):
        prob = gen_erm_hinge(4, 9, seed=1)
        params = CorollaryParams(theta=1.0, sigmas=(0.1,) * (prob.m + 1))
        start = np.random.default_rng(5).standard_normal(prob.d + prob.m)
        self.assert_same_run(solve_corollary(prob.as_primal_dual(), params, self.CFG, start),
                             solve_corollary(self.erm_reference(prob), params, self.CFG, start))

    def test_nonaffine_constraint_has_no_primal_dual_form(self):
        with pytest.raises(ConfigurationError, match="affine"):
            gen_entropy_ls(8, -0.4, seed=0).as_primal_dual()


class TestGenerators:
    def test_lin_ineq_deterministic(self):
        p1 = gen_lin_ineq_qp(12, 3, seed=7)
        p2 = gen_lin_ineq_qp(12, 3, seed=7)
        assert np.array_equal(p1.data["A"], p2.data["A"])
        assert np.array_equal(p1.data["D"], p2.data["D"])
        assert np.array_equal(p1.data["b"], p2.data["b"])
        p3 = gen_lin_ineq_qp(12, 3, seed=8)
        assert not np.array_equal(p1.data["A"], p3.data["A"])

    def test_lin_ineq_beta_consistent(self):
        prob = gen_lin_ineq_qp(4, 1, seed=0)
        assert prob.beta * operator_norm(prob.data["A"]) ** 2 == pytest.approx(
            1.0, abs=1e-10)

    def test_lin_ineq_origin_is_feasible(self):
        prob = gen_lin_ineq_qp(10, 4, seed=3)
        x0 = np.zeros(10)
        assert np.array_equal(prob.Y.project(x0), x0)
        assert prob.max_constraint(x0) <= 0.0

    def test_lin_ineq_shape_contract(self):
        prob = gen_lin_ineq_qp(10, 4, seed=3)
        assert prob.data["A"].shape == (5, 10)
        with pytest.raises(ValueError):
            gen_lin_ineq_qp(11, 4, seed=3)

    def test_entropy_deterministic_and_feasible(self):
        p1 = gen_entropy_ls(10, -0.4, seed=11)
        p2 = gen_entropy_ls(10, -0.4, seed=11)
        assert np.array_equal(p1.data["A"], p2.data["A"])
        # the all-ones center has g1 = -N - r < 0, strictly feasible
        ones = np.ones(10)
        g = p1.constraints[0].value(ones)
        assert g == pytest.approx(-10.0 - p1.data["r"], abs=1e-12)
        assert g < 0

    def test_entropy_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            gen_entropy_ls(10, 0.2, seed=0)
        with pytest.raises(ValueError):
            gen_entropy_ls(10, -1.5, seed=0)

    def test_erm_rows_unit_norm(self):
        prob = gen_erm_hinge(6, 11, seed=2)
        assert np.allclose(np.linalg.norm(prob.a, axis=1), 1.0, atol=1e-12)
