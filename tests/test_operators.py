from dataclasses import replace

import numpy as np
import pytest

from splitmono.operators import (ClosedConvexSet, DomainError, MaximalMonotone,
                                 affine_constraints, entropy_constraint,
                                 lagrangian_saddle_map, normal_cone_box,
                                 prox_abs_deviation, prox_conjugate, prox_hinge,
                                 quadratic_gradient, scalar_monotone)


def central_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestNormalConeBox:
    def test_clamps_outside_point(self):
        op = normal_cone_box(np.zeros(2), np.ones(2))
        for gamma in (0.1, 1.0, 10.0):
            assert np.array_equal(op.resolvent(gamma, np.array([2.0, -1.0])),
                                  [1.0, 0.0])

    def test_identity_inside(self):
        op = normal_cone_box(np.zeros(2), np.ones(2))
        y = np.array([0.25, 0.75])
        assert np.array_equal(op.resolvent(1.0, y), y)

    def test_entropy_experiment_box(self):
        n = 8
        op = normal_cone_box(np.full(n, 0.001), np.ones(n))
        assert np.array_equal(op.resolvent(0.5, np.zeros(n)), np.full(n, 0.001))

    def test_equals_clip_bitwise(self):
        rng = np.random.default_rng(0)
        lo = np.array([0.0, -np.inf, 0.001, -1.0, 0.5])
        hi = np.array([1.0, 2.0, np.inf, 1.0, 0.5])
        op = normal_cone_box(lo, hi)
        box = ClosedConvexSet.box(lo, hi)
        for _ in range(50):
            y = 3.0 * rng.standard_normal(5)
            assert np.array_equal(op.resolvent(1.0, y), np.clip(y, lo, hi))
            assert np.array_equal(box.project(y), np.clip(y, lo, hi))
            assert np.array_equal(box.metric_project(np.eye(5), y), np.clip(y, lo, hi))

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            normal_cone_box(np.array([1.0]), np.array([0.0]))


class TestFirmNonexpansiveness:
    @pytest.mark.parametrize("factory,dim", [
        (lambda: normal_cone_box(-np.ones(4), np.ones(4)), 4),
        (lambda: MaximalMonotone.from_matrix(np.array([[2.0, 0.5], [0.5, 1.0]])), 2),
        (lambda: prox_conjugate(scalar_monotone(prox_abs_deviation(0.0))), 3),
    ])
    def test_sampled_inequality(self, factory, dim):
        op = factory()
        rng = np.random.default_rng(42)
        for gamma in (0.1, 1.0, 10.0):
            for _ in range(100):
                x = rng.standard_normal(dim)
                y = rng.standard_normal(dim)
                jx = op.resolvent(gamma, x)
                jy = op.resolvent(gamma, y)
                lhs = np.linalg.norm(jx - jy) ** 2
                rhs = float((jx - jy) @ (x - y))
                assert lhs <= rhs + 1e-10


class TestProxConjugate:
    def test_single_point_indicator(self):
        # f = indicator of {psi}: prox of f* is y - gamma * psi
        psi = np.array([0.0, 0.0])
        point = MaximalMonotone(resolvent=lambda gamma, y: psi.copy())
        conj = prox_conjugate(point)
        y = np.array([3.0, -2.0])
        assert np.array_equal(conj.resolvent(2.5, y), y)

    def test_abs_value_dual_is_clamp(self):
        conj = prox_conjugate(scalar_monotone(prox_abs_deviation(0.0)))
        for gamma in (0.1, 1.0, 7.0):
            y = np.array([-3.0, -0.4, 0.9, 2.5])
            assert np.allclose(conj.resolvent(gamma, y),
                               np.clip(y, -1.0, 1.0), atol=1e-14)

    def test_nonneg_indicator_dual(self):
        nonneg = MaximalMonotone(resolvent=lambda gamma, y: np.maximum(y, 0.0))
        conj = prox_conjugate(nonneg)
        y = np.array([-1.5, 0.0, 2.0])
        for gamma in (0.5, 1.0, 4.0):
            assert np.allclose(conj.resolvent(gamma, y),
                               np.minimum(y, 0.0), atol=1e-14)

    def test_moreau_identity_closure(self):
        rng = np.random.default_rng(5)
        ops = [(normal_cone_box(-np.ones(3), np.ones(3)), 3),
               (scalar_monotone(prox_abs_deviation(0.7)), 1),
               (MaximalMonotone.from_matrix(np.array([[1.5, 0.2], [0.2, 1.0]])), 2)]
        for op, dim in ops:
            conj = prox_conjugate(op)
            for _ in range(50):
                gamma = float(rng.uniform(0.05, 5.0))
                y = rng.standard_normal(dim)
                lhs = op.resolvent(gamma, y) + gamma * conj.resolvent(
                    1.0 / gamma, y / gamma)
                assert np.allclose(lhs, y, atol=1e-10)


class TestEntropyConstraint:
    def test_value_and_gradient_at_reference(self):
        a = np.array([1.0, 2.0, 0.5])
        r = -1.0
        con = entropy_constraint(a, r)
        assert con.value(a) == pytest.approx(-np.sum(a) - r, abs=1e-12)
        assert np.allclose(con.gradient(a), 0.0, atol=1e-14)

    def test_all_ones_reference_value(self):
        n = 10
        con = entropy_constraint(np.ones(n), -0.4 * n)
        assert con.value(np.ones(n)) == pytest.approx(-0.6 * n, abs=1e-12)

    def test_zero_times_log_zero_convention(self):
        con = entropy_constraint(np.ones(2), -0.5)
        x = np.array([0.0, 1.0])
        assert con.value(x) == pytest.approx(-1.0 - (-0.5), abs=1e-12)

    def test_gradient_domain_error(self):
        con = entropy_constraint(np.ones(2), -0.5)
        with pytest.raises(DomainError):
            con.gradient(np.array([0.0, 1.0]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            entropy_constraint(np.array([1.0, -1.0]), -0.5)
        with pytest.raises(ValueError):
            entropy_constraint(np.ones(2), 0.5)
        with pytest.raises(ValueError):
            entropy_constraint(np.ones(2), -3.0)

    def test_fused_oracle_matches_value_and_gradient_bitwise(self):
        rng = np.random.default_rng(1)
        for n in (1, 5, 20):
            a = rng.uniform(0.5, 2.0, n)
            con = entropy_constraint(a, -0.3 * float(np.sum(a)))
            for _ in range(20):
                x = rng.uniform(1e-4, 3.0, n)
                val, grad = con.value_and_gradient(x)
                assert val == con.value(x)
                assert np.array_equal(grad, con.gradient(x))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        con = entropy_constraint(rng.uniform(0.5, 2.0, size=6), -0.8)
        for _ in range(100):
            x = rng.uniform(0.5, 1.5, size=6)
            g = con.gradient(x)
            fd = central_diff(con.value, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


class TestLagrangianSaddleMap:
    def test_affine_is_skew_block(self):
        d = np.array([1.0, -2.0, 0.5])
        smap = lagrangian_saddle_map(affine_constraints(d[None, :]))
        assert smap.lipschitz == pytest.approx(np.linalg.norm(d), rel=1e-9)
        w = np.array([0.3, -1.0, 2.0, 0.7])  # (x, u)
        x, u = w[:3], w[3:]
        out = smap.evaluate(w)
        assert np.allclose(out[:3], d * u[0], atol=1e-14)
        assert np.allclose(out[3:], -(d @ x), atol=1e-14)

    def test_zero_multiplier(self):
        con = entropy_constraint(np.ones(4), -1.0)
        smap = lagrangian_saddle_map([con])
        x = np.full(4, 0.5)
        out = smap.evaluate(np.concatenate([x, [0.0]]))
        assert np.array_equal(out[:4], np.zeros(4))
        assert out[4] == pytest.approx(-con.value(x))

    def test_entropy_at_reference_point(self):
        n = 6
        r = -0.4 * n
        con = entropy_constraint(np.ones(n), r)
        smap = lagrangian_saddle_map([con])
        w = np.concatenate([np.ones(n), [1.0]])
        out = smap.evaluate(w)
        assert np.allclose(out[:n], 0.0, atol=1e-14)
        assert out[n] == pytest.approx(n + r, abs=1e-12)

    def test_monotonicity_on_samples(self):
        rng = np.random.default_rng(23)
        con = entropy_constraint(np.ones(4), -1.2)
        smap = lagrangian_saddle_map([con])
        for _ in range(200):
            x1 = rng.uniform(0.2, 1.5, size=4)
            x2 = rng.uniform(0.2, 1.5, size=4)
            u1 = rng.uniform(0.0, 2.0, size=1)
            u2 = rng.uniform(0.0, 2.0, size=1)
            w1 = np.concatenate([x1, u1])
            w2 = np.concatenate([x2, u2])
            gap = float((smap.evaluate(w1) - smap.evaluate(w2)) @ (w1 - w2))
            assert gap >= -1e-8

    def test_fused_and_separate_oracles_match_reference_bitwise(self):
        # the same two constraints with and without the fused oracle, against
        # the map assembled from value and gradient calls
        rng = np.random.default_rng(2)
        n = 6
        fused = [entropy_constraint(np.ones(n), -2.0),
                 entropy_constraint(np.full(n, 0.5), -1.0)]
        plain = [replace(c, value_and_gradient=None) for c in fused]
        f_map, p_map = lagrangian_saddle_map(fused), lagrangian_saddle_map(plain)
        for u in ([0.0, 0.0], [1.5, 0.0], [0.0, 2.0], [0.3, 0.7]):
            x = rng.uniform(0.01, 2.0, n)
            grad_part = np.zeros(n)
            for ui, c in zip(u, fused):
                if ui != 0.0:
                    grad_part = grad_part + ui * c.gradient(x)
            ref = np.concatenate([grad_part, [-c.value(x) for c in fused]])
            w = np.concatenate([x, u])
            assert np.array_equal(f_map.evaluate(w), ref)
            assert np.array_equal(p_map.evaluate(w), ref)

    def test_domain_violation(self):
        con = entropy_constraint(np.ones(3), -1.0)
        smap = lagrangian_saddle_map([con])
        with pytest.raises(DomainError):
            smap.evaluate(np.concatenate([[-0.5, 1.0, 1.0], [1.0]]))


class TestQuadraticGradient:
    def test_identity_case(self):
        grad = quadratic_gradient(np.eye(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(grad.evaluate(x), x)
        assert grad.beta == pytest.approx(1.0, abs=1e-9)

    def test_scaled_diagonal(self):
        grad = quadratic_gradient(np.diag([2.0]), np.zeros(1))
        assert np.allclose(grad.evaluate(np.array([3.0])), [12.0])
        assert grad.beta == pytest.approx(0.25, rel=1e-9)

    def test_cocoercivity_inequality_sampled(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((5, 10))
        grad = quadratic_gradient(A, rng.standard_normal(5))
        for _ in range(100):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            gx, gy = grad.evaluate(x), grad.evaluate(y)
            lhs = float((gx - gy) @ (x - y))
            rhs = grad.beta * np.linalg.norm(gx - gy) ** 2
            assert lhs >= rhs - 1e-10 * (1.0 + np.linalg.norm(x - y) ** 2)

    def test_value_oracle(self):
        A = np.array([[1.0, 2.0]])
        grad = quadratic_gradient(A, np.array([3.0]))
        assert grad.value(np.array([1.0, 1.0])) == pytest.approx(0.0)


class TestClosedConvexSet:
    def test_projection_idempotent_and_member(self):
        rng = np.random.default_rng(3)
        box = ClosedConvexSet.box(np.zeros(4), np.ones(4))
        for _ in range(50):
            v = rng.standard_normal(4) * 3
            pv = box.project(v)
            assert np.allclose(box.project(pv), pv, atol=1e-12)
            assert box.contains(pv, 1e-10)

    def test_product_set(self):
        prod = ClosedConvexSet.product([
            (ClosedConvexSet.box(np.zeros(2), np.ones(2)), 2),
            (ClosedConvexSet.nonneg_orthant(), 2),
        ])
        v = np.array([2.0, -1.0, -3.0, 4.0])
        assert np.array_equal(prod.project(v), [1.0, 0.0, 0.0, 4.0])
        assert not prod.is_whole_space
        assert ClosedConvexSet.whole_space().is_whole_space


class TestScalarProxes:
    def test_abs_deviation_prox(self):
        prox = prox_abs_deviation(2.0)
        assert prox(0.5, 4.0) == pytest.approx(3.5)
        assert prox(0.5, 2.2) == pytest.approx(2.0)

    def test_hinge_prox_cases(self):
        prox = prox_hinge(1.0)
        assert prox(0.5, 2.0) == pytest.approx(2.0)      # inactive branch
        assert prox(0.5, -1.0) == pytest.approx(-0.5)    # sloped branch
        assert prox(0.5, 0.9) == pytest.approx(1.0)      # kink

    def test_hinge_prox_optimality_sampled(self):
        # prox output must minimize gamma*max(0, 1 - b t) + (t - w)^2/2
        rng = np.random.default_rng(8)
        for b in (1.0, -1.0, 2.0):
            prox = prox_hinge(b)
            for _ in range(50):
                w = float(rng.uniform(-3, 3))
                gamma = float(rng.uniform(0.1, 2.0))
                t_star = prox(gamma, w)
                obj = lambda t: gamma * max(0.0, 1.0 - b * t) + 0.5 * (t - w) ** 2
                grid = t_star + np.linspace(-0.5, 0.5, 101)
                assert obj(t_star) <= min(obj(t) for t in grid) + 1e-9

    def test_scalar_monotone_fast_path_matches_general_path(self):
        # a 1-element vector skips atleast_1d and the list comprehension;
        # every input must give the general path's bits and shape
        prox = prox_hinge(-1.5)
        res = scalar_monotone(prox).resolvent

        def general(gamma, y):
            y = np.atleast_1d(np.asarray(y, dtype=float))
            return np.array([prox(gamma, float(t)) for t in y])

        for y in (np.array([0.3]), np.array([-0.0]), np.array([2]), 0.3, -4.0,
                  np.array(0.3), [0.3], [0.3, -2.0, 5.0], np.array([0.3, -2.0, 5.0])):
            got, want = res(0.7, y), general(0.7, y)
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
