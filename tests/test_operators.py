import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from splitmono.fbhf import _norm
from splitmono.linalg import aligned_empty
from splitmono.operators import (ClosedConvexSet, DomainError, MaximalMonotone,
                                 MonotoneMap, affine_constraints, entropy_constraint,
                                 lagrangian_saddle_map, nonneg_cone, normal_cone_box,
                                 prox_abs_deviation, prox_hinge,
                                 quadratic_gradient, scalar_monotone,
                                 stacked_scalar_resolvent)


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


class TestLinearResolvent:
    def test_diagonal_matrix_matches_solve_bitwise(self):
        d = np.random.default_rng(4).uniform(0.5, 1.5, 7)
        A = MaximalMonotone.from_matrix(np.diag(d))
        rng = np.random.default_rng(5)
        for gamma in (0.25, 0.37, 0.37, 0.37, 2.0):
            y = rng.standard_normal(7)
            assert np.array_equal(A.resolvent(gamma, y),
                                  np.linalg.solve(np.eye(7) + gamma * np.diag(d), y))


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


# The entropy constraint and the nonlinear saddle map, written out in their
# first form, which the fast paths must reproduce byte for byte.

def entropy_reference(a, r):
    """(value, gradient, domain) of ``entropy_constraint(a, r)``."""
    def value(x):
        return float((x * (np.log(x / a) - 1.0)).sum()) - r

    def gradient(x):
        return np.log(x / a)

    def domain(x):
        return bool(x.min() > 0)

    return value, gradient, domain


def saddle_reference(refs, w):
    """The saddle map over the (value, gradient, domain) triples ``refs``: a
    zeroed output, then ``+= ui * grad`` for each nonzero multiplier."""
    p = len(refs)
    n = w.size - p
    x = w[:n]
    out = np.zeros(n + p)
    for i, (value, gradient, _) in enumerate(refs):
        ui = w[n + i]
        if ui != 0.0:
            out[:n] += ui * gradient(x)
        out[n + i] = -value(x)
    return out


N_PINNED = 2000


def pinned_points(rng, a):
    """``N_PINNED`` points x > 0, about one entry in four equal to its
    reference entry, where the gradient entry is +0.0 and its product with a
    negative multiplier is -0.0."""
    x = rng.uniform(1e-3, 2.0, (N_PINNED, a.size))
    hit = rng.random(x.shape) < 0.25
    x[hit] = np.broadcast_to(a, x.shape)[hit]
    return x


def pinned_multipliers(rng, p):
    """Multipliers, each 0.0, -0.0, positive or negative with equal odds."""
    u = rng.uniform(1e-3, 2.0, (N_PINNED, p))
    kind = rng.integers(0, 4, u.shape)
    u[kind == 0] = 0.0
    u[kind == 1] = -0.0
    u[kind == 2] *= -1.0
    return u


UNIT = (np.ones(6), -2.0)
NON_UNIT = (np.array([0.5, 1.0, 2.0, 0.75, 1.5, 1.25]), -1.5)


class TestFastPathsMatchReferenceBitwise:
    @pytest.mark.parametrize("a, r", [UNIT, NON_UNIT], ids=["unit", "non-unit"])
    def test_fused_oracle_and_domain(self, a, r):
        rng = np.random.default_rng(5)
        con = entropy_constraint(a, r)
        value, gradient, domain = entropy_reference(a, r)
        for x in pinned_points(rng, a):
            val, grad = con.value_and_gradient(x)
            assert np.float64(val).tobytes() == np.float64(value(x)).tobytes()
            assert grad.tobytes() == gradient(x).tobytes()
            assert con.domain(x) is domain(x) is True

    @pytest.mark.parametrize("bad", [0.0, -1e-300, -0.5, np.nan], ids=str)
    def test_domain_verdicts_outside(self, bad):
        rng = np.random.default_rng(6)
        con = entropy_constraint(*NON_UNIT)
        smap = lagrangian_saddle_map([con])
        for x in pinned_points(rng, NON_UNIT[0])[:200]:
            x[rng.integers(x.size)] = bad
            assert con.domain(x) is entropy_reference(*NON_UNIT)[2](x) is False
            with pytest.raises(DomainError):
                smap.evaluate(np.concatenate([x, [1.0]]))

    @pytest.mark.parametrize("pairs", [[UNIT], [NON_UNIT], [UNIT, NON_UNIT]],
                             ids=["one-unit", "one-non-unit", "two"])
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "value-and-gradient"])
    def test_saddle_map(self, pairs, fused):
        rng = np.random.default_rng(7)
        cons = [entropy_constraint(a, r) for a, r in pairs]
        if not fused:
            cons = [replace(c, value_and_gradient=None) for c in cons]
        smap = lagrangian_saddle_map(cons)
        refs = [entropy_reference(a, r) for a, r in pairs]
        # every constraint shares the unit reference's length
        xs = pinned_points(rng, pairs[-1][0])
        us = pinned_multipliers(rng, len(pairs))
        signed_zero_products = 0
        for x, u in zip(xs, us):
            w = np.concatenate([x, u])
            assert smap.evaluate(w).tobytes() == saddle_reference(refs, w).tobytes()
            signed_zero_products += bool(np.any(u < 0) and np.any(x == pairs[-1][0]))
        # the -0.0 products that the zeroed output turns into +0.0 occur
        assert signed_zero_products > N_PINNED // 10


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


class TestMatrixOraclesMatchMatmulBitwise:
    """The hot matrix oracles multiply by ``ndarray.dot``.  On their operands,
    C-contiguous matrices, their transposes and contiguous vectors (slices of
    a longer vector included), that gives the bits of ``@``."""

    SHAPES = [(1, 1), (3, 7), (10, 20), (100, 200), (37, 5)]

    @staticmethod
    def vectors(rng, n):
        # a fresh vector and a slice of a longer one
        return [rng.standard_normal(n), rng.standard_normal(n + 7)[3:3 + n]]

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_quadratic_gradient(self, rows, cols):
        rng = np.random.default_rng(rows * cols)
        A, b = rng.standard_normal((rows, cols)), rng.standard_normal(rows)
        grad = quadratic_gradient(A, b).evaluate
        for x in self.vectors(rng, cols):
            assert np.array_equal(grad(x), A.T @ (A @ x - b))

    @pytest.mark.parametrize("n", [1, 6, 200])
    def test_monotone_map_from_matrix(self, n):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        op = MonotoneMap.from_matrix(M)
        for x in self.vectors(rng, n):
            assert np.array_equal(op.evaluate(x), M @ x)

    @pytest.mark.parametrize("p, n", SHAPES)
    def test_affine_saddle_map(self, p, n):
        rng = np.random.default_rng(p + n)
        D = rng.standard_normal((p, n))
        smap = lagrangian_saddle_map(affine_constraints(D))
        for w in self.vectors(rng, n + p):
            ref = np.concatenate([D.T @ w[n:], -(D @ w[:n])])
            assert np.array_equal(smap.evaluate(w), ref)

    def test_column_strided_matrix_is_stored_in_c_order(self):
        # on M[:, ::2], .dot and @ differ; the stored copy makes them agree
        rng = np.random.default_rng(11)
        M = rng.standard_normal((30, 60))[:, ::2]
        op = MonotoneMap.from_matrix(M)
        assert op.matrix.flags.c_contiguous
        x = rng.standard_normal(30)
        assert np.array_equal(op.evaluate(x), np.ascontiguousarray(M) @ x)
        assert np.array_equal(op.evaluate(x), op.matrix @ x)

    def test_affine_saddle_map_returns_a_fresh_array_per_call(self):
        # callers hold one value while they evaluate the next
        rng = np.random.default_rng(5)
        smap = lagrangian_saddle_map(affine_constraints(rng.standard_normal((4, 9))))
        first = smap.evaluate(rng.standard_normal(13))
        kept = first.copy()
        second = smap.evaluate(rng.standard_normal(13))
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("n", [1, 7, 220, 1000])
    def test_norm_matches_linalg_norm(self, n):
        rng = np.random.default_rng(n)
        for v in self.vectors(rng, n) + [1e-200 * rng.standard_normal(n)]:
            assert _norm(v) == np.linalg.norm(v)


def closure_vars(fn):
    """The closure variables of ``fn`` by name."""
    return {name: cell.cell_contents
            for name, cell in zip(fn.__code__.co_freevars, fn.__closure__)}


def misaligned(M):
    """A C-order copy of M whose data start 8 bytes past a 64-byte boundary."""
    out = aligned_empty(M.size + 1)[1:].reshape(M.shape)
    out[...] = M
    return out


class TestMatricesAreStoredAligned:
    """The matrices the iterations multiply by start on a 64-byte boundary,
    where their GEMVs run faster with the same bits."""

    def test_quadratic_gradient_copies_a_misaligned_matrix_once(self):
        rng = np.random.default_rng(3)
        A, b = misaligned(rng.standard_normal((100, 200))), rng.standard_normal(100)
        grad = quadratic_gradient(A, b)
        stored = closure_vars(grad.evaluate)["A"]
        assert stored is not A and stored.ctypes.data % 64 == 0
        assert np.array_equal(stored, A)
        x = rng.standard_normal(200)
        assert grad.evaluate(x).tobytes() == (A.T @ (A @ x - b)).tobytes()

    def test_quadratic_gradient_keeps_an_aligned_or_small_matrix(self):
        rng = np.random.default_rng(4)
        big = rng.standard_normal(out=aligned_empty((100, 200)))
        small = misaligned(rng.standard_normal((10, 20)))
        for A in (big, small):
            assert closure_vars(quadratic_gradient(A, np.zeros(A.shape[0])).evaluate)["A"] is A

    @pytest.mark.parametrize("p, n", [(20, 200), (2, 20)])
    def test_affine_saddle_map_stacks_into_aligned_storage(self, p, n):
        rng = np.random.default_rng(p)
        D = rng.standard_normal((p, n))
        D_stored = closure_vars(lagrangian_saddle_map(affine_constraints(D)).evaluate)["D"]
        assert D_stored.ctypes.data % 64 == 0 and D_stored.flags.c_contiguous
        assert D_stored.tobytes() == D.tobytes()


class TestClosedConvexSet:
    def test_projection_idempotent_and_member(self):
        rng = np.random.default_rng(3)
        box = ClosedConvexSet.box(np.zeros(4), np.ones(4))
        for _ in range(50):
            v = rng.standard_normal(4) * 3
            pv = box.project(v)
            assert np.allclose(box.project(pv), pv, atol=1e-12)
            assert np.all((pv >= 0.0) & (pv <= 1.0))

    def test_product_set(self):
        prod = ClosedConvexSet.product([
            (ClosedConvexSet.box(np.zeros(2), np.ones(2)), 2),
            (ClosedConvexSet.nonneg_orthant(), 2),
        ])
        v = np.array([2.0, -1.0, -3.0, 4.0])
        assert np.array_equal(prod.project(v), [1.0, 0.0, 0.0, 4.0])
        assert not prod.is_whole_space
        assert ClosedConvexSet.whole_space().is_whole_space


def _clip(v, lo, hi):
    """Per-block reference clamp, written as the single-box oracles were."""
    return np.minimum(np.maximum(v, lo), hi)


# entries the clamp must carry through: signed zeros, NaN, values outside
# every box and infinities
SPECIAL = np.array([-0.0, 0.0, np.nan, -3.0, 7.0, -np.inf, np.inf, 0.5, 1.0, -np.nan])


def _counting(op, calls):
    def res(gamma, y):
        calls.append(gamma)
        return op.resolvent(gamma, y)
    return replace(op, resolvent=res)


class TestBoxProduct:
    """A product of boxes is one clamp over the stacked bounds, bit for bit
    the per-block clamps; any other product fills its blocks one by one."""

    LO = np.array([0.0, -np.inf, 0.001, -1.0, 0.5])
    HI = np.array([1.0, 2.0, np.inf, 1.0, 0.5])

    def samples(self, dim):
        rng = np.random.default_rng(dim)
        out = [np.resize(SPECIAL, dim), np.resize(SPECIAL[::-1], dim)]
        return out + [3.0 * rng.standard_normal(dim) for _ in range(20)]

    def reference(self, v):
        # box block (5), orthant block (3), nested box x orthant block (2 + 2)
        return np.concatenate([_clip(v[:5], self.LO, self.HI), np.maximum(v[5:8], 0.0),
                               _clip(v[8:10], -1.0, np.inf * np.ones(2)),
                               np.maximum(v[10:], 0.0)])

    def test_operator_product_equals_per_block_clamps(self):
        inner = MaximalMonotone.product([(normal_cone_box(-np.ones(2), np.full(2, np.inf)), 2),
                                         (nonneg_cone(2), 2)])
        prod = MaximalMonotone.product([(normal_cone_box(self.LO, self.HI), 5),
                                        (nonneg_cone(3), 3), (inner, 4)], tag="t")
        for v in self.samples(12):
            for gamma in (1e-3, 1.0, 50.0):
                assert prod.resolvent(gamma, v).tobytes() == self.reference(v).tobytes()
        assert [d for _, d in prod.blocks] == [5, 3, 4] and prod.tag == "t"
        lo, hi = prod.bounds
        assert np.array_equal(lo, np.concatenate([self.LO, np.zeros(3), -np.ones(2), np.zeros(2)]))
        assert np.array_equal(hi, np.concatenate([self.HI, np.full(3, np.inf), np.full(4, np.inf)]))

    def test_set_product_equals_per_block_clamps(self):
        inner = ClosedConvexSet.product([(ClosedConvexSet.box(-np.ones(2), np.full(2, np.inf)), 2),
                                         (ClosedConvexSet.nonneg_orthant(), 2)])
        prod = ClosedConvexSet.product([(ClosedConvexSet.box(self.LO, self.HI), 5),
                                        (ClosedConvexSet.nonneg_orthant(), 3), (inner, 4)])
        U = np.diag(np.linspace(1.0, 2.0, 12))
        for v in self.samples(12):
            ref = self.reference(v).tobytes()
            assert prod.project(v).tobytes() == ref
            assert prod.metric_project(U, v).tobytes() == ref
        assert prod.bounds is not None and not prod.is_whole_space

    def test_orthant_bounds_are_scalars_broadcast_by_the_product(self):
        for part in (nonneg_cone(4), ClosedConvexSet.nonneg_orthant()):
            assert part.bounds == (0.0, np.inf)
        prod = MaximalMonotone.product([(nonneg_cone(4), 4)])
        assert np.array_equal(prod.bounds[0], np.zeros(4))
        assert np.array_equal(prod.bounds[1], np.full(4, np.inf))
        v = np.resize(SPECIAL, 4)
        assert prod.resolvent(1.0, v).tobytes() == np.maximum(v, 0.0).tobytes()

    def test_a_non_box_part_takes_the_generic_path(self):
        box_calls, lin_calls = [], []
        box = _counting(normal_cone_box(np.zeros(2), np.ones(2)), box_calls)
        lin = _counting(MaximalMonotone.from_matrix(np.diag([1.0, 3.0])), lin_calls)
        prod = MaximalMonotone.product([(box, 2), (lin, 2)])
        assert prod.bounds is None
        v = np.array([2.0, -0.0, 4.0, -8.0])
        ref = np.concatenate([_clip(v[:2], 0.0, 1.0), v[2:] / (1.0 + 0.5 * np.array([1.0, 3.0]))])
        assert prod.resolvent(0.5, v).tobytes() == ref.tobytes()
        assert box_calls == [0.5] and lin_calls == [0.5]
        # a wrapped box carries no bounds, so a product of it alone still
        # calls the wrapper rather than clamping by itself
        only_box = MaximalMonotone.product([(box, 2)])
        assert only_box.bounds is None
        assert only_box.resolvent(0.5, v[:2]).tobytes() == _clip(v[:2], 0.0, 1.0).tobytes()
        assert box_calls == [0.5, 0.5]

    def test_set_product_with_a_non_box_part_takes_the_generic_path(self):
        prod = ClosedConvexSet.product([(ClosedConvexSet.box(np.zeros(2), np.ones(2)), 2),
                                        (ClosedConvexSet.whole_space(), 2)])
        assert prod.bounds is None
        v = np.array([2.0, -1.0, -3.0, 4.0])
        assert np.array_equal(prod.project(v), [1.0, 0.0, -3.0, 4.0])
        assert np.array_equal(prod.metric_project(np.eye(4), v), [1.0, 0.0, -3.0, 4.0])

    @pytest.mark.parametrize("kind", ["operator", "set"])
    def test_misaligned_blocks_raise(self, kind):
        # a 2-block that grows by one and a 3-block that shrinks by one used
        # to fill the layout as [0, 1, 9, 2, 3]
        grow, shrink = (lambda y: np.append(y, 9.0)), (lambda y: y[:-1])
        if kind == "operator":
            def make(*fns):
                return MaximalMonotone.product(
                    [(MaximalMonotone(resolvent=lambda g, y, f=f: f(y)), d)
                     for f, d in zip(fns, (2, 3))]).resolvent(1.0, np.arange(5.0))
        else:
            def make(*fns):
                return ClosedConvexSet.product(
                    [(ClosedConvexSet(project=f), d) for f, d in zip(fns, (2, 3))]
                ).project(np.arange(5.0))
        with pytest.raises(ValueError, match="block 0"):
            make(grow, shrink)
        # a length-1 result is not broadcast into its block
        with pytest.raises(ValueError, match="block 1"):
            make(lambda y: y, lambda y: np.ones(1))

    def test_input_of_the_wrong_dimension_raises(self):
        prod = MaximalMonotone.product([(MaximalMonotone.zero(), 2), (MaximalMonotone.zero(), 3)])
        with pytest.raises(ValueError, match="dimension 5"):
            prod.resolvent(1.0, np.arange(6.0))

    @pytest.mark.parametrize("make", [
        lambda: MaximalMonotone.product([(normal_cone_box(np.zeros(2), np.ones(2)), 3)]),
        lambda: MaximalMonotone.product([(MaximalMonotone.zero(), 1),
                                         (normal_cone_box(np.zeros(2), np.ones(2)), 3)]),
        lambda: ClosedConvexSet.product([(ClosedConvexSet.box(np.zeros(3), np.ones(3)), 2)]),
    ], ids=["operator", "operator-mixed", "set"])
    def test_bounds_that_do_not_broadcast_raise_when_built(self, make):
        with pytest.raises(ValueError, match="do not broadcast"):
            make()


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


class TestStackedScalarResolvent:
    """One array call over scalar resolvents gives each entry the bits of its
    own resolvent, on the kinks and on non-finite inputs too."""

    LABELS = {"hinge": [1.0, -1.0, 2.5, -0.3], "abs-deviation": [0.0, -1.5, 0.7, 3.0]}
    FAMILIES = {"hinge": prox_hinge, "abs-deviation": prox_abs_deviation}

    def entries(self, family):
        rng = np.random.default_rng(11)
        labels, gammas, ys = [], [], []
        specials = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e300, math.inf, -math.inf, math.nan]
        for b in self.LABELS[family]:
            for gamma in (0.1, 10.0, float(rng.uniform(0.01, 5.0))):
                kinks = [1.0 / b, 1.0 / b - gamma * b] if family == "hinge" else \
                    [b, b + gamma, b - gamma]
                for t in specials + kinks + list(rng.uniform(-4.0, 4.0, 6)):
                    labels.append(b)
                    gammas.append(gamma)
                    ys.append(t)
        return labels, np.array(gammas), np.array(ys)

    @pytest.mark.parametrize("family", ["hinge", "abs-deviation"])
    def test_matches_one_call_per_entry(self, family):
        labels, gammas, ys = self.entries(family)
        make = self.FAMILIES[family]
        resolvents = [scalar_monotone(make(b)).resolvent for b in labels]
        stacked = stacked_scalar_resolvent(resolvents, gammas)
        assert stacked is not None
        want = np.concatenate([res(float(g), ys[i:i + 1])
                               for i, (res, g) in enumerate(zip(resolvents, gammas))])
        assert stacked(ys).tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", ["hinge", "abs-deviation"])
    def test_a_float32_label_computes_in_float64(self, family):
        # the constructors take the label as a float, so a float32 label
        # gives the float64 arithmetic of the array form, not float32's
        labels, gammas, ys = self.entries(family)
        make = self.FAMILIES[family]
        narrow = [np.float32(b) for b in labels]
        resolvents = [scalar_monotone(make(b)).resolvent for b in narrow]
        wide = [scalar_monotone(make(float(b))).resolvent for b in narrow]
        per_entry = [np.concatenate([res(float(g), ys[i:i + 1])
                                     for i, (res, g) in enumerate(zip(these, gammas))])
                     for these in (resolvents, wide)]
        assert per_entry[0].tobytes() == per_entry[1].tobytes()
        assert stacked_scalar_resolvent(resolvents, gammas)(ys).tobytes() == \
            per_entry[0].tobytes()

    def test_unrecognised_resolvents_give_none(self):
        hinge = scalar_monotone(prox_hinge(1.0)).resolvent
        dev = scalar_monotone(prox_abs_deviation(0.5)).resolvent
        prox = prox_hinge(-1.0)
        gammas = np.ones(2)
        assert stacked_scalar_resolvent([hinge, hinge], gammas) is not None
        for other in (lambda g, y: hinge(g, y), functools.wraps(hinge)(lambda g, y: y),
                      functools.lru_cache(maxsize=0)(hinge), dev,
                      scalar_monotone(lambda g, t: prox(g, t)).resolvent,
                      scalar_monotone(functools.wraps(prox)(lambda g, t: t)).resolvent,
                      nonneg_cone(1).resolvent, functools.partial(hinge)):
            assert stacked_scalar_resolvent([hinge, other], gammas) is None
        assert stacked_scalar_resolvent([], np.ones(0)) is None

