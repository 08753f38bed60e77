import math

import numpy as np
import pytest

from splitmono.fbhf import (ConfigurationError, ConstantStep, LineSearch,
                            LineSearchError, SolveConfig, check_step, chi, fbhf_step,
                            phi_z_profile, solve_fbhf, solve_forward_backward,
                            solve_tseng_fbf)
from splitmono.operators import (ClosedConvexSet, CocoerciveMap, MaximalMonotone,
                                 MonotoneMap, ProblemSpec, nonneg_cone,
                                 normal_cone_box, quadratic_gradient)
from splitmono.applications import gen_entropy_ls, gen_lin_ineq_qp


def shift_map(b, beta=1.0):
    """x -> x - b, which is 1-cocoercive."""
    b = np.asarray(b, dtype=float)
    return CocoerciveMap(evaluate=lambda x: x - b, beta=beta)


def skew_map(S):
    return MonotoneMap.from_matrix(np.asarray(S, dtype=float))


SKEW2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def scalar_halfline_spec():
    """A = normal cone of [0, inf), B1 = x - 1, no B2; unique zero at 1."""
    return ProblemSpec(A=nonneg_cone(1), B1=shift_map(np.ones(1)), B2=None,
                      X=ClosedConvexSet.whole_space(), dimension=1)


class TestChi:
    def test_pure_cocoercive_limit(self):
        assert chi(1.0, 0.0) == 2.0

    def test_pure_lipschitz_limit(self):
        assert chi(math.inf, 2.0) == 0.5

    def test_mixed_value(self):
        assert chi(1.0, 1.0) == pytest.approx(4.0 / (1.0 + math.sqrt(17.0)),
                                              abs=1e-15)

    def test_never_exceeds_either_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            beta = float(rng.uniform(0.01, 50.0))
            L = float(rng.uniform(0.0, 50.0))
            c = chi(beta, L)
            assert c <= min(2.0 * beta, math.inf if L == 0 else 1.0 / L) + 1e-12

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chi(0.0, 1.0)
        with pytest.raises(ValueError):
            chi(-1.0, 1.0)
        with pytest.raises(ValueError):
            chi(math.inf, 0.0)
        with pytest.raises(ValueError):
            chi(1.0, -0.5)


class TestFbhfStep:
    def test_scalar_one_step_to_fixed_point(self):
        spec = scalar_halfline_spec()
        x, z1 = fbhf_step(spec, np.zeros(1), 1.0)
        assert x[0] == 1.0 and z1[0] == 1.0
        x2, z2 = fbhf_step(spec, z1, 1.0)
        assert z2[0] == 1.0

    def test_rotation_contraction_factor(self):
        # with A = 0, B1 = 0, B2 the 2-D rotation: z+ = (1-g^2) z - g B2 z,
        # so ||z+||^2 = (1 - g^2 + g^4) ||z||^2 = 0.8125 ||z||^2 at g = 0.5
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=None, B2=skew_map(SKEW2),
                          X=ClosedConvexSet.whole_space(), dimension=2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = rng.standard_normal(2)
            _, z1 = fbhf_step(spec, z, 0.5)
            assert np.linalg.norm(z1) ** 2 == pytest.approx(
                0.8125 * np.linalg.norm(z) ** 2, rel=1e-12)

    def test_zero_is_fixed(self):
        # zero of A + B1 + B2 with A = 0: z* solves z + S z = b
        rng = np.random.default_rng(6)
        S = np.triu(rng.standard_normal((3, 3)), 1)
        S = S - S.T
        b = rng.standard_normal(3)
        z_star = np.linalg.solve(np.eye(3) + S, b)
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=shift_map(b),
                          B2=skew_map(S), X=ClosedConvexSet.whole_space(),
                          dimension=3)
        _, z1 = fbhf_step(spec, z_star, 0.3)
        assert np.allclose(z1, z_star, atol=1e-12)


ONE_STEP = SolveConfig(max_iterations=1, tolerance=1e-300)


class TestLineSearch:
    """The search of the first iteration, read from a one-iteration run's
    report (``gamma``, ``backtracks``)."""

    def test_no_b2_accepts_first_candidate(self):
        spec = scalar_halfline_spec()
        policy = LineSearch(epsilon=0.5, sigma=0.5, theta=0.3)
        r = solve_fbhf(spec, policy, ONE_STEP, np.zeros(1))
        assert r.gamma == pytest.approx(2.0 * 1.0 * 0.5 * 0.5)
        assert r.backtracks == 0

    def test_zero_point_accepts_first_candidate(self):
        # integer data makes z* an exact floating-point zero of B1 + B2
        S = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 3.0], [2.0, -3.0, 0.0]])
        z_star = np.array([1.0, 2.0, -1.0])
        b = z_star + S @ z_star
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=shift_map(b),
                          B2=skew_map(S), X=ClosedConvexSet.whole_space(),
                          dimension=3)
        policy = LineSearch(epsilon=0.5, sigma=0.7, theta=0.3)
        r = solve_fbhf(spec, policy, ONE_STEP, z_star)
        assert r.gamma == pytest.approx(2.0 * 0.5 * 0.7) and r.backtracks == 0
        assert np.array_equal(r.z, z_star)

    def test_entropy_instance_maximality(self):
        prob = gen_entropy_ls(10, -0.4, seed=0)
        spec = prob.saddle_spec()
        policy = LineSearch(epsilon=0.5, sigma=0.9, theta=0.3)
        z = prob.default_start()
        r = solve_fbhf(spec, policy, ONE_STEP, z)
        gamma = r.gamma
        b2 = spec.B2.evaluate
        fz = spec.B1.evaluate(z) + b2(z)

        def check(g):
            xg = spec.A.resolvent(g, z - g * fz)
            return g * np.linalg.norm(b2(z) - b2(xg)) <= 0.3 * np.linalg.norm(z - xg)

        assert check(gamma)
        anchor = 2.0 * spec.B1.beta * 0.5
        first = anchor * 0.9
        assert gamma == pytest.approx(first * 0.9 ** r.backtracks)
        assert r.backtracks == 0 or not check(gamma / 0.9)

    def test_exhaustion_raises_with_context(self):
        spec = ProblemSpec(A=nonneg_cone(2), B1=shift_map(np.ones(2)),
                          B2=skew_map(100.0 * SKEW2),
                          X=ClosedConvexSet.nonneg_orthant(), dimension=2)
        policy = LineSearch(epsilon=0.88, sigma=0.9, theta=0.3, max_backtracks=10)
        with pytest.raises(LineSearchError) as err:
            solve_fbhf(spec, policy, ONE_STEP, np.array([3.0, 2.0]))
        assert err.value.gamma > 0 and err.value.ratio > 1

    def test_fixed_point_to_rounding_stops_without_raising(self):
        # near z* = (0, 1) the candidates' z - x and B z - B x are rounding
        # noise that can fail every Armijo test; the search then accepts its
        # smallest step, and the run settles on a floating-point fixed point
        spec = ProblemSpec(A=MaximalMonotone(resolvent=lambda g, y: y),
                           B1=shift_map(np.ones(2)), B2=skew_map(SKEW2),
                           X=ClosedConvexSet.whole_space(), dimension=2)
        cfg = SolveConfig(max_iterations=1000, tolerance=1e-300)
        r = solve_tseng_fbf(spec, LineSearch(epsilon=0.5, theta=0.3), cfg,
                            z0=np.ones(2))
        assert r.reason == "tolerance" and r.residual == 0.0
        assert np.allclose(r.z, [0.0, 1.0], rtol=0.0, atol=1e-15)
        assert r.resolvent_evals == r.iterations + r.backtracks

    def test_beta_infinite_needs_anchor(self):
        spec = ProblemSpec(A=nonneg_cone(2), B1=None, B2=skew_map(SKEW2),
                          X=ClosedConvexSet.nonneg_orthant(), dimension=2)
        with pytest.raises(ConfigurationError, match="gamma_init"):
            solve_fbhf(spec, LineSearch(epsilon=0.5, sigma=0.5, theta=0.3), ONE_STEP,
                       np.array([1.0, 1.0]))
        r = solve_fbhf(spec, LineSearch(epsilon=0.5, sigma=0.5, theta=0.3, gamma_init=1.0),
                       ONE_STEP, np.array([1.0, 1.0]))
        # the candidates are gamma_init * sigma^j, j >= 1
        assert r.gamma == pytest.approx(0.5 ** (1 + r.backtracks))

    def test_theta_outside_theory_warns(self):
        with pytest.warns(UserWarning, match="theta"):
            LineSearch(epsilon=0.88, sigma=0.9, theta=0.707)

    def test_parameter_ranges(self):
        # gamma_init = 0 used to report a converged run at gamma = 0, and
        # gamma_init = -1 to run at gamma = -0.9
        for bad in ({"epsilon": 0.0}, {"sigma": 1.0}, {"theta": 1.5},
                    {"gamma_init": 0.0}, {"gamma_init": -1.0}):
            with pytest.raises(ValueError):
                LineSearch(**{"epsilon": 0.5, "sigma": 0.5, "theta": 0.3, **bad})


class TestSolveFbhf:
    def test_matches_forward_backward_bitwise(self):
        # reduction: B2 absent and X the whole space collapse the iteration
        # onto classical forward-backward
        for seed in range(5):
            rng = np.random.default_rng(seed)
            A_mat = rng.standard_normal((6, 12))
            b = rng.standard_normal(6)
            grad = quadratic_gradient(A_mat, b)
            spec = ProblemSpec(A=normal_cone_box(np.zeros(12), np.ones(12)),
                              B1=grad, B2=None,
                              X=ClosedConvexSet.whole_space(), dimension=12)
            gamma = 0.9 * grad.beta
            cfg = SolveConfig(max_iterations=100, tolerance=1e-300,
                              keep_iterates=True)
            r1 = solve_fbhf(spec, ConstantStep(gamma=gamma), cfg)
            r2 = solve_forward_backward(spec, gamma, cfg)
            assert len(r1.iterates) == len(r2.iterates) == 101
            for a, c in zip(r1.iterates, r2.iterates):
                assert np.array_equal(a, c)

    @staticmethod
    def skew_saddle_spec(rng):
        """A box normal cone, no B1, and a skew saddle map as B2."""
        D = rng.standard_normal((3, 8))
        smap = MonotoneMap.from_matrix(
            np.block([[np.zeros((8, 8)), D.T], [-D, np.zeros((3, 3))]]))
        return ProblemSpec(A=normal_cone_box(-np.ones(11), np.ones(11)),
                           B1=None, B2=smap,
                           X=ClosedConvexSet.box(-2 * np.ones(11), 2 * np.ones(11)),
                           dimension=11)

    def test_matches_tseng_bitwise_without_b1(self):
        for seed in range(5):
            spec = self.skew_saddle_spec(np.random.default_rng(100 + seed))
            gamma = 0.9 / spec.lipschitz
            cfg = SolveConfig(max_iterations=100, tolerance=1e-300,
                              keep_iterates=True)
            r1 = solve_fbhf(spec, ConstantStep(gamma=gamma), cfg)
            r2 = solve_tseng_fbf(spec, ConstantStep(gamma=gamma), cfg)
            for a, c in zip(r1.iterates, r2.iterates):
                assert np.array_equal(a, c)

    def test_matches_tseng_line_search_bitwise_without_b1(self):
        # the same reduction under the Armijo search: both solvers scan the
        # same candidates, so iterates, backtracks and B2 calls agree
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            spec = self.skew_saddle_spec(rng)
            z0 = rng.uniform(-1.0, 1.0, 11)
            policy = LineSearch(epsilon=0.5, sigma=0.9, theta=0.5,
                                gamma_init=2.0 / spec.lipschitz)
            cfg = SolveConfig(max_iterations=100, tolerance=1e-300,
                              keep_iterates=True)
            r1 = solve_fbhf(spec, policy, cfg, z0)
            r2 = solve_tseng_fbf(spec, policy, cfg, z0)
            assert len(r1.iterates) == len(r2.iterates) == 101
            for a, c in zip(r1.iterates, r2.iterates):
                assert np.array_equal(a, c)
            assert r1.gammas == r2.gammas
            assert r1.backtracks == r2.backtracks > 500
            assert (r1.b2_evals, r1.resolvent_evals) == (r2.b2_evals, r2.resolvent_evals)

    def test_small_qp_converges_to_reference(self):
        prob = gen_lin_ineq_qp(40, 4, seed=0)
        spec = prob.saddle_spec()
        beta, L = prob.beta, prob.data["L"]
        gamma = 3.99 * beta / (1.0 + math.sqrt(1.0 + 16.0 * beta * beta * L * L))
        z0 = prob.default_start()
        r = solve_fbhf(spec, ConstantStep(gamma=gamma),
                       SolveConfig(max_iterations=100_000, tolerance=1e-7), z0)
        assert r.reason == "tolerance"
        assert r.residual < 1e-7
        ref = solve_fbhf(spec, ConstantStep(gamma=gamma),
                         SolveConfig(max_iterations=1_000_000, tolerance=1e-11), z0)
        obj = prob.objective(r.z[:40])
        obj_ref = prob.objective(ref.z[:40])
        assert abs(obj - obj_ref) <= 1e-5 * max(1.0, abs(obj_ref))

    def test_default_gamma_is_fraction_of_chi(self):
        spec = scalar_halfline_spec()
        r = solve_fbhf(spec, ConstantStep(), SolveConfig(max_iterations=5,
                                                         tolerance=1e-12))
        assert r.gamma == pytest.approx(0.99 * 2.0)

    def test_gamma_bound_enforced_and_unchecked(self):
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=shift_map(np.zeros(2)),
                          B2=skew_map(SKEW2), X=ClosedConvexSet.whole_space(),
                          dimension=2)
        bound = chi(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            solve_fbhf(spec, ConstantStep(gamma=bound),
                       SolveConfig(max_iterations=5, tolerance=1e-9))
        r = solve_fbhf(spec, ConstantStep(gamma=bound, unchecked=True),
                       SolveConfig(max_iterations=5, tolerance=1e-9),
                       z0=np.array([1.0, -1.0]))
        assert r.iterations == 5

    def test_non_finite_iterates_stop_as_diverged(self):
        # ten times the cocoercive bound on the unconstrained least-squares
        # part grows like 9^k until it overflows; the run stops at the first
        # non-finite relative change instead of iterating on NaNs
        prob = gen_lin_ineq_qp(10, 2, seed=0)
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=prob.h, B2=None,
                          X=ClosedConvexSet.whole_space(), dimension=prob.dim)
        cfg = SolveConfig(max_iterations=50_000, tolerance=1e-9, keep_iterates=True)
        with np.errstate(over="ignore", invalid="ignore"):
            r = solve_fbhf(spec, ConstantStep(gamma=10.0 * prob.beta, unchecked=True),
                           cfg, z0=np.ones(prob.dim))
        assert r.reason == "diverged"
        assert r.iterations < cfg.max_iterations // 10
        assert len(r.residuals) == r.iterations
        assert not math.isfinite(r.residual) and not math.isfinite(r.residuals[-1])
        assert all(math.isfinite(v) for v in r.residuals[:-1])

    def test_no_lipschitz_demands_line_search(self):
        prob = gen_entropy_ls(8, -0.4, seed=1)
        spec = prob.saddle_spec()
        with pytest.raises(ConfigurationError):
            solve_fbhf(spec, ConstantStep(gamma=0.1),
                       SolveConfig(max_iterations=10, tolerance=1e-9))

    def test_fejer_monotone_toward_limit(self):
        prob = gen_lin_ineq_qp(20, 2, seed=3)
        spec = prob.saddle_spec()
        beta, L = prob.beta, prob.data["L"]
        gamma = 0.99 * chi(beta, L)
        z0 = prob.default_start()
        cfg = SolveConfig(max_iterations=20_000, tolerance=1e-9,
                          keep_iterates=True)
        run = solve_fbhf(spec, ConstantStep(gamma=gamma), cfg, z0)
        ref = solve_fbhf(spec, ConstantStep(gamma=gamma),
                         SolveConfig(max_iterations=10 * run.iterations,
                                     tolerance=1e-300), z0)
        dists = [np.linalg.norm(z - ref.z) for z in run.iterates]
        for a, c in zip(dists, dists[1:]):
            assert c <= a + 1e-10

    def test_evaluation_counters(self):
        prob = gen_lin_ineq_qp(12, 2, seed=5)
        spec = prob.saddle_spec()
        beta, L = prob.beta, prob.data["L"]
        cfg = SolveConfig(max_iterations=50, tolerance=1e-300)
        gamma = 0.9 * chi(beta, L)
        r = solve_fbhf(spec, ConstantStep(gamma=gamma), cfg)
        assert r.b1_evals == r.iterations == 50
        assert r.b2_evals == 2 * r.iterations
        assert r.resolvent_evals == r.iterations
        t = solve_tseng_fbf(spec, ConstantStep(gamma=0.9 / (1.0 / beta + L)), cfg)
        assert t.b1_evals == 2 * t.iterations

    def test_line_search_counters(self):
        prob = gen_entropy_ls(8, -0.4, seed=2)
        spec = prob.saddle_spec()
        policy = LineSearch(epsilon=0.5, sigma=0.9, theta=0.3)
        cfg = SolveConfig(max_iterations=200, tolerance=1e-300)
        z0 = prob.default_start()
        r = solve_fbhf(spec, policy, cfg, z0)
        assert r.b1_evals == r.iterations
        # one B2 at z plus one per candidate; candidates = iters + backtracks
        assert r.b2_evals == 2 * r.iterations + r.backtracks
        assert r.resolvent_evals == r.iterations + r.backtracks
        t = solve_tseng_fbf(spec, policy, cfg, z0)
        assert t.b1_evals == 2 * t.iterations + t.backtracks

    def test_relative_stop_guard_at_origin(self):
        # z+ = z - (z - 0) = 0: from the origin the change is measured in
        # absolute terms (0/0 would not be finite), and a run that lands on
        # the origin measures its first step relatively and its second at 0
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=shift_map(np.zeros(2)),
                          B2=None, X=ClosedConvexSet.whole_space(), dimension=2)
        r = solve_fbhf(spec, ConstantStep(gamma=1.0),
                       SolveConfig(max_iterations=50, tolerance=1e-9),
                       z0=np.zeros(2))
        assert r.reason == "tolerance" and r.iterations == 1
        assert math.isfinite(r.residual) and r.residual == 0.0
        landed = solve_fbhf(spec, ConstantStep(gamma=1.0),
                            SolveConfig(max_iterations=50, tolerance=1e-9,
                                        keep_iterates=True),
                            z0=np.array([1.0, -2.0]))
        assert landed.reason == "tolerance" and landed.residuals == [1.0, 0.0]

    def test_history_retention_modes(self):
        spec = scalar_halfline_spec()
        cfg = SolveConfig(max_iterations=10, tolerance=1e-300)
        slim = solve_fbhf(spec, ConstantStep(gamma=1.0), cfg)
        assert slim.iterates is slim.residuals is slim.gammas is None
        assert slim.gamma == 1.0 and math.isfinite(slim.residual)
        full = solve_fbhf(spec, ConstantStep(gamma=1.0),
                          SolveConfig(max_iterations=10, tolerance=1e-300,
                                      keep_iterates=True))
        assert len(full.iterates) == full.iterations + 1
        assert len(full.residuals) == len(full.gammas) == full.iterations
        assert full.residuals[-1] == full.residual and full.gammas == [1.0] * full.iterations


class TestStepBounds:
    """check_step's Tseng and forward-backward bounds are chi of their own
    constants, with the bits of their closed forms."""

    @staticmethod
    def spec(beta, L):
        return ProblemSpec(
            A=MaximalMonotone.zero(),
            B1=None if math.isinf(beta) else shift_map(np.zeros(2), beta=beta),
            B2=None if L == 0.0 else MonotoneMap(evaluate=lambda x: 0.0 * x, lipschitz=L),
            X=ClosedConvexSet.whole_space(), dimension=2)

    @pytest.mark.parametrize("beta", [0.7, 3.1, 1e-3, math.inf])
    @pytest.mark.parametrize("L", [0.0, 1.3, 17.0])
    def test_tseng_bound_is_one_over_inverse_beta_plus_L(self, beta, L):
        spec = self.spec(beta, L)
        if math.isinf(beta) and L == 0.0:
            with pytest.raises(ConfigurationError, match="no finite default"):
                check_step(spec, ConstantStep(), "tseng")
            assert check_step(spec, ConstantStep(gamma=1e300), "tseng") == 1e300
            return
        bound = 1.0 / ((0.0 if math.isinf(beta) else 1.0 / beta) + L)
        assert check_step(spec, ConstantStep(), "tseng") == 0.99 * bound
        with pytest.raises(ConfigurationError, match="of the Tseng bound"):
            check_step(spec, ConstantStep(gamma=bound), "tseng")

    @pytest.mark.parametrize("beta", [0.7, 3.1, 1e-3, math.inf])
    def test_forward_backward_bound_is_two_beta(self, beta):
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=shift_map(np.zeros(2), beta=beta),
                           B2=None, X=ClosedConvexSet.whole_space(), dimension=2)
        if math.isinf(beta):
            with pytest.raises(ConfigurationError, match="no finite default"):
                check_step(spec, ConstantStep(), "fb")
            assert check_step(spec, ConstantStep(gamma=1e300), "fb") == 1e300
            return
        assert check_step(spec, ConstantStep(), "fb") == 0.99 * (2.0 * beta)
        with pytest.raises(ConfigurationError, match="of the forward-backward bound"):
            check_step(spec, ConstantStep(gamma=2.0 * beta), "fb")


class TestForwardBackward:
    def test_scalar_fixed_point(self):
        spec = scalar_halfline_spec()
        r = solve_forward_backward(spec, 1.0,
                                   SolveConfig(max_iterations=100, tolerance=1e-14),
                                   z0=np.zeros(1))
        assert r.z[0] == pytest.approx(1.0, abs=1e-12)
        assert r.gamma == 1.0

    def test_near_boundary_step_matches_normal_equations(self):
        rng = np.random.default_rng(12)
        G = rng.standard_normal((7, 7)) + 3.0 * np.eye(7)
        b = rng.standard_normal(7)
        grad = quadratic_gradient(G, b)
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=grad, B2=None,
                          X=ClosedConvexSet.whole_space(), dimension=7)
        r = solve_forward_backward(spec, 1.99 * grad.beta,
                                   SolveConfig(max_iterations=500_000,
                                               tolerance=1e-13))
        x_ref = np.linalg.solve(G.T @ G, G.T @ b)
        assert np.linalg.norm(r.z - x_ref) <= 1e-8 * (1.0 + np.linalg.norm(x_ref))

    def test_boundary_gamma_rejected(self):
        spec = scalar_halfline_spec()
        with pytest.raises(ConfigurationError):
            solve_forward_backward(spec, 2.0 * spec.beta,
                                   SolveConfig(max_iterations=10, tolerance=1e-9))

    def test_upper_bound_keeps_the_condition_margin(self):
        # 0 < gamma < 2 beta is strict: the margin rule of every other step
        # condition rejects a gamma within 1e-12 max(1, 2 beta) of the bound
        spec = scalar_halfline_spec()
        bound = 2.0 * spec.beta
        cfg = SolveConfig(max_iterations=10, tolerance=1e-9)
        with pytest.raises(ConfigurationError, match="outside the open interval"):
            solve_forward_backward(spec, bound - 0.5e-12 * max(1.0, bound), cfg)
        solve_forward_backward(spec, 0.99 * bound, cfg)

    def test_constraint_set_rejected(self):
        # the step never projects: on X = [0, 1]^2 it would return the
        # unconstrained zero (5, 5) where the main iteration returns (1, 1)
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=shift_map(5.0 * np.ones(2)),
                           B2=None, X=ClosedConvexSet.box(np.zeros(2), np.ones(2)),
                           dimension=2)
        cfg = SolveConfig(max_iterations=100, tolerance=1e-12)
        with pytest.raises(ConfigurationError, match="X = H"):
            solve_forward_backward(spec, 0.5, cfg)
        assert np.allclose(solve_fbhf(spec, ConstantStep(gamma=0.5), cfg).z, [1.0, 1.0])

    def test_b2_present_rejected(self):
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=shift_map(np.zeros(2)),
                          B2=skew_map(SKEW2), X=ClosedConvexSet.whole_space(),
                          dimension=2)
        with pytest.raises(ConfigurationError):
            solve_forward_backward(spec, 0.5,
                                   SolveConfig(max_iterations=10, tolerance=1e-9))


class TestTsengBaseline:
    def test_zero_b_reduces_to_projected_resolvent(self):
        spec = ProblemSpec(A=normal_cone_box(np.zeros(2), np.ones(2)), B1=None,
                          B2=None, X=ClosedConvexSet.whole_space(), dimension=2)
        r = solve_tseng_fbf(spec, ConstantStep(gamma=1.0),
                            SolveConfig(max_iterations=20, tolerance=1e-14),
                            z0=np.array([2.0, -1.0]))
        assert np.array_equal(r.z, [1.0, 0.0])

    def test_fixed_point_is_stationary(self):
        rng = np.random.default_rng(14)
        S = np.triu(rng.standard_normal((3, 3)), 1)
        S = S - S.T
        b = rng.standard_normal(3)
        z_star = np.linalg.solve(np.eye(3) + S, b)
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=shift_map(b),
                          B2=skew_map(S), X=ClosedConvexSet.whole_space(),
                          dimension=3)
        r = solve_tseng_fbf(spec, ConstantStep(gamma=0.2),
                            SolveConfig(max_iterations=3, tolerance=1e-300),
                            z0=z_star)
        assert np.allclose(r.z, z_star, atol=1e-12)


class TestPhiProfile:
    def test_zero_point_gives_zero_profile(self):
        rng = np.random.default_rng(19)
        S = np.triu(rng.standard_normal((3, 3)), 1)
        S = S - S.T
        b = rng.standard_normal(3)
        z_star = np.linalg.solve(np.eye(3) + S, b)
        spec = ProblemSpec(A=MaximalMonotone.zero(), B1=shift_map(b),
                          B2=skew_map(S), X=ClosedConvexSet.whole_space(),
                          dimension=3)
        vals = phi_z_profile(spec, z_star, np.logspace(-3, 1, 20))
        assert np.allclose(vals, 0.0, atol=1e-12)

    def test_scalar_profile_is_constant_one(self):
        spec = scalar_halfline_spec()
        vals = phi_z_profile(spec, np.zeros(1), np.logspace(-3, 1, 20))
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_random_instance_profiles_nonincreasing(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            prob = gen_lin_ineq_qp(10, 2, seed=int(rng.integers(1000)))
            spec = prob.saddle_spec()
            z = rng.standard_normal(12)
            z[10:] = np.abs(z[10:])
            vals = phi_z_profile(spec, z, np.logspace(-3, 1, 20))
            for a, c in zip(vals, vals[1:]):
                assert c <= a + 1e-10

    def test_grid_validation(self):
        spec = scalar_halfline_spec()
        with pytest.raises(ValueError):
            phi_z_profile(spec, np.zeros(1), [])
        with pytest.raises(ValueError):
            phi_z_profile(spec, np.zeros(1), [0.0, 1.0])
