import dataclasses
import math
import re

import numpy as np
import pytest

from splitmono import precond
from splitmono.fbhf import (ConfigurationError, ConstantStep, SolveConfig, fbhf_step,
                            metric_violation, solve_fbhf, solve_tseng_fbf)
from splitmono.operators import (ClosedConvexSet, CocoerciveMap, MaximalMonotone,
                                 MonotoneMap, ProblemSpec, normal_cone_box,
                                 quadratic_gradient)
from splitmono.precond import (MetricSchedule, Preconditioner, resolvent_via_P,
                               solve_precond_fbhf, solve_variable_metric)


def shift_map(b, beta=1.0):
    b = np.asarray(b, dtype=float)
    return CocoerciveMap(evaluate=lambda x: x - b, beta=beta)


def random_strong_pre(rng, n, b2_matrix=None):
    G = rng.standard_normal((n, n))
    U = G.T @ G / n + 0.5 * np.eye(n)
    Sk = rng.standard_normal((n, n))
    S = (Sk - Sk.T) / 2
    return Preconditioner.from_matrix(U + S, b2_matrix=b2_matrix)


class TestResolventViaP:
    def test_linear_example(self):
        # A = Id, P = [[2,1],[0,2]]: x = (P+I)^{-1} P z = (2/3, 0) at z = (1,0)
        pre = Preconditioner.from_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
        A = MaximalMonotone.from_matrix(np.eye(2))
        x = resolvent_via_P(A, pre, np.array([1.0, 0.0]))
        assert np.allclose(x, [2.0 / 3.0, 0.0], atol=1e-12)

    def test_scalar_preconditioner_is_plain_resolvent(self):
        A = MaximalMonotone.from_matrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
        gamma = 0.7
        pre = Preconditioner.from_matrix(np.eye(2) / gamma)
        z = np.array([0.4, -1.2])
        assert np.allclose(resolvent_via_P(A, pre, z),
                           A.resolvent(gamma, z), atol=1e-12)

    def test_zero_of_A_with_no_skew_drift_is_fixed(self):
        A = MaximalMonotone.from_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        pre = Preconditioner.from_matrix(np.array([[1.5, 0.2], [0.2, 1.0]]))
        x = resolvent_via_P(A, pre, np.zeros(2))
        assert np.allclose(x, 0.0, atol=1e-14)

    def test_matches_direct_solve_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pre = random_strong_pre(rng, 5)
            Q = rng.standard_normal((5, 5))
            M_A = Q.T @ Q
            A = MaximalMonotone.from_matrix(M_A)
            z = rng.standard_normal(5)
            got = resolvent_via_P(A, pre, z)
            ref = np.linalg.solve(pre.P + M_A, pre.P @ z)
            assert np.linalg.norm(got - ref) <= 1e-9

    def test_u_metric_firm_nonexpansiveness(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pre = random_strong_pre(rng, 4)
            Q = rng.standard_normal((4, 4))
            A = MaximalMonotone.from_matrix(Q.T @ Q)
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            jx = resolvent_via_P(A, pre, x)
            jy = resolvent_via_P(A, pre, y)
            d = jx - jy
            lhs = float(d @ (pre.P @ x - pre.P @ y))
            rhs = float(d @ (pre.U @ d))
            assert lhs >= rhs - 1e-9

    def test_forward_substitution_matches_linear_route(self):
        # block-separable linear A solved both ways must agree
        rng = np.random.default_rng(2)
        d1, d2 = 2, 3
        A1 = np.diag(rng.uniform(0.5, 2.0, d1))
        A2 = np.diag(rng.uniform(0.5, 2.0, d2))
        blockA = MaximalMonotone.product([
            (MaximalMonotone.from_matrix(A1), d1),
            (MaximalMonotone.from_matrix(A2), d2)])
        linA = MaximalMonotone.from_matrix(
            np.block([[A1, np.zeros((d1, d2))], [np.zeros((d2, d1)), A2]]))
        P = np.eye(5) * 2.0
        P[3, 0] = 0.4
        pre = Preconditioner.from_matrix(P)
        z = rng.standard_normal(5)
        assert np.allclose(resolvent_via_P(blockA, pre, z),
                           resolvent_via_P(linA, pre, z), atol=1e-10)

    def test_unsupported_operator_rejected(self):
        pre = Preconditioner.from_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
        opaque = MaximalMonotone(resolvent=lambda g, y: y)
        with pytest.raises(ConfigurationError, match="no composite resolvent"):
            resolvent_via_P(opaque, pre, np.zeros(2))

    def test_upper_triangular_block_rejected(self):
        blockA = MaximalMonotone.product([
            (normal_cone_box(-np.ones(2), np.ones(2)), 2),
            (normal_cone_box(-np.ones(2), np.ones(2)), 2)])
        P = np.eye(4)
        P[0, 3] = 0.5   # above the diagonal in block terms
        pre = Preconditioner.from_matrix(P)
        with pytest.raises(ConfigurationError, match="triangular"):
            resolvent_via_P(blockA, pre, np.zeros(4))


# The forward substitution as it ran before its preparation was kept per
# (P, A) pair: every call checks the block pattern and tests every block
# below the diagonal.  Kept as the reference the prepared route is pinned to.
def per_call_forward_substitution(A, pre, z):
    dims = [d for _, d in A.blocks]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    P = pre.P
    n = offsets[-1]
    if n != pre.dim:
        raise ConfigurationError("preconditioner and operator dimensions disagree")
    for i in range(len(dims)):
        for j in range(i + 1, len(dims)):
            if np.any(P[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]]):
                raise ConfigurationError("P is not block lower triangular")
    x = np.empty(n)
    for i, (op, d) in enumerate(A.blocks):
        lo, hi = offsets[i], offsets[i + 1]
        Pii = P[lo:hi, lo:hi]
        c = Pii[0, 0]
        if c <= 0 or not np.array_equal(Pii, c * np.eye(d)):
            raise ConfigurationError("diagonal blocks of P must be positive scalar multiples")
        carry = np.zeros(d)
        for j in range(i):
            blk = P[lo:hi, offsets[j]:offsets[j + 1]]
            if np.any(blk):
                carry = carry + blk @ (z[offsets[j]:offsets[j + 1]] - x[offsets[j]:offsets[j + 1]])
        x[lo:hi] = op.resolvent(1.0 / c, z[lo:hi] + carry / c)
    return x


DIMS = (2, 1, 3, 2)


def four_block_operator():
    """A product of four different parts with block dimensions ``DIMS``."""
    rng = np.random.default_rng(11)
    parts = [MaximalMonotone.from_matrix(np.diag(rng.uniform(0.5, 2.0, 2))),
             normal_cone_box(-0.3 * np.ones(1), 0.3 * np.ones(1)),
             MaximalMonotone(resolvent=lambda g, y: np.sign(y) * np.maximum(np.abs(y) - g, 0.0)),
             MaximalMonotone.from_matrix(np.array([[1.0, 0.4], [-0.4, 1.0]]))]
    return MaximalMonotone.product(list(zip(parts, DIMS)))


def four_block_P(below=((1, 0), (2, 1), (3, 0), (3, 2))):
    """Block-lower-triangular P for ``DIMS`` with diagonal blocks 2, 1.5, 3
    and 2.5 times the identity and random blocks at ``below``; by default
    the last block row has two nonzero earlier blocks and one zero block."""
    rng = np.random.default_rng(12)
    off = np.cumsum((0,) + DIMS)
    P = np.zeros((off[-1], off[-1]))
    for i, c in enumerate((2.0, 1.5, 3.0, 2.5)):
        P[off[i]:off[i + 1], off[i]:off[i + 1]] = c * np.eye(DIMS[i])
    for i, j in below:
        P[off[i]:off[i + 1], off[j]:off[j + 1]] = 0.3 * rng.standard_normal((DIMS[i], DIMS[j]))
    return P


class TestForwardSubstitution:
    def test_matches_per_call_reference_bitwise(self):
        A, pre = four_block_operator(), Preconditioner.from_matrix(four_block_P())
        assert pre.rho > 0 and pre.scalar_step is None
        rng = np.random.default_rng(13)
        for _ in range(50):
            z = 2.0 * rng.standard_normal(pre.dim)
            assert np.array_equal(resolvent_via_P(A, pre, z),
                                  per_call_forward_substitution(A, pre, z))

    def test_pattern_checked_once_per_operator(self, monkeypatch):
        prepared = []
        prepare = precond._forward_substitution
        monkeypatch.setattr(precond, "_forward_substitution",
                            lambda P, blocks: prepared.append(blocks) or prepare(P, blocks))
        A = four_block_operator()
        pre = Preconditioner.from_matrix(four_block_P())
        z = np.random.default_rng(14).standard_normal(pre.dim)
        first = resolvent_via_P(A, pre, z)
        # later calls test no block of P
        tested = []
        any_ = np.any
        monkeypatch.setattr(np, "any", lambda *args: tested.append(1) or any_(*args))
        for _ in range(3):
            assert np.array_equal(resolvent_via_P(A, pre, z), first)
        monkeypatch.setattr(np, "any", any_)
        assert len(prepared) == 1 and not tested
        # a second operator with the same parts prepares its own route, and
        # the first one's is prepared again when it comes back
        other = MaximalMonotone.product(A.blocks)
        for op in (other, other, A):
            assert np.array_equal(resolvent_via_P(op, pre, z), first)
        assert [b is A.blocks for b in prepared] == [True, False, True]

    @pytest.mark.parametrize("P, message", [
        (np.tril(np.ones((9, 9))) + np.eye(9), "dimensions disagree"),
        (four_block_P(below=((0, 3),)), "block lower triangular"),
        (four_block_P() + np.diag([0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]),
         "diagonal blocks of P must be positive scalar multiples"),
    ], ids=["dimensions", "upper-block", "non-scalar-diagonal"])
    def test_rejected_pattern_is_never_stored(self, P, message):
        A, pre = four_block_operator(), Preconditioner.from_matrix(P)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match=message):
                resolvent_via_P(A, pre, np.zeros(pre.dim))
        assert pre._resolvent_slot is None


# The linear route and U-solve as they were before the cached factors: a
# Cholesky factor followed by two general solves per U-solve, and a dense
# solve against U + S + M_A per resolvent.  Kept as the reference the cached
# factors are pinned to.

def two_solve_spd(U):
    L = np.linalg.cholesky(U)
    return lambda b: np.linalg.solve(L.T, np.linalg.solve(L, b))


def two_solve_resolvent(A, pre, z):
    w = z + pre.solve_U(pre.S @ z)
    return np.linalg.solve(pre.U + pre.S + A.matrix, pre.U @ w)


def two_solve_pre(pre):
    ref = dataclasses.replace(pre)
    ref.solve_U = two_solve_spd(pre.U)
    ref.solve_P = lambda b: np.linalg.solve(pre.P, b)
    return ref


def dense_metric_instance(n, seed):
    """Dense three-operator instance with a non-self-adjoint P = U + S,
    drawn like the benchmark's metric workload."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(n)
    A = MaximalMonotone.from_matrix(np.diag(rng.uniform(0.5, 1.5, n)))
    B1 = quadratic_gradient(rng.standard_normal((n // 2, n)) * scale,
                            rng.standard_normal(n // 2))
    skew = rng.standard_normal((n, n)) * scale
    b2 = 0.2 * (skew - skew.T) / 2.0
    spec = ProblemSpec(A=A, B1=B1, B2=MonotoneMap.from_matrix(b2),
                       X=ClosedConvexSet.whole_space(), dimension=n)
    H = rng.standard_normal((n, n)) * scale
    U = np.diag(np.concatenate([[1.5], np.linspace(2.5, 3.5, n - 1)])) + 0.1 * (H + H.T) / 2.0
    Sp = rng.standard_normal((n, n)) * scale
    return spec, Preconditioner.from_matrix(U + 0.05 * (Sp - Sp.T) / 2.0, b2_matrix=b2)


class TestOverflowEndsDiverged:
    """An iterate that overflows ends the run as ``diverged`` in every solver:
    ``resolvent_via_P`` lets non-finite entries through, as every other
    resolvent does, and still rejects what is not a nonempty vector."""

    @pytest.mark.parametrize("solver", ["fbhf", "precond", "variable-metric"])
    def test_overflowing_start_ends_diverged(self, solver):
        spec, pre = dense_metric_instance(8, 0)
        cfg = SolveConfig(max_iterations=50)
        z0 = np.full(8, 1.7e308)
        run = {"fbhf": lambda: solve_fbhf(spec, ConstantStep(), cfg, z0),
               "precond": lambda: solve_precond_fbhf(spec, pre, cfg, z0),
               "variable-metric": lambda: solve_variable_metric(
                   spec, MetricSchedule.constant(pre), cfg, z0)}[solver]
        with np.errstate(over="ignore", invalid="ignore"):
            report = run()
        assert report.reason == "diverged"
        assert report.iterations < cfg.max_iterations

    def test_non_finite_entries_pass_through(self):
        spec, pre = dense_metric_instance(8, 0)
        z = np.zeros(8)
        z[3] = np.nan
        z[5] = np.inf
        with np.errstate(invalid="ignore"):
            x = resolvent_via_P(spec.A, pre, z)
        assert x.shape == (8,) and not np.all(np.isfinite(x))

    @pytest.mark.parametrize("z", [np.zeros((2, 4)), np.zeros(0)], ids=["2-D", "empty"])
    def test_a_non_vector_still_raises(self, z):
        spec, pre = dense_metric_instance(8, 0)
        with pytest.raises(ValueError, match="1-D and nonempty"):
            resolvent_via_P(spec.A, pre, z)


class TestCachedFactors:
    @pytest.mark.parametrize("solver", ["precond", "variable-metric"])
    def test_matches_two_solve_reference(self, monkeypatch, solver):
        spec, pre = dense_metric_instance(200, 0)
        z0 = np.random.default_rng(1).standard_normal(200)
        cfg = SolveConfig(max_iterations=100_000, tolerance=1e-9, keep_iterates=True)

        def run(p):
            if solver == "precond":
                return solve_precond_fbhf(spec, p, cfg, z0)
            return solve_variable_metric(spec, MetricSchedule.constant(p), cfg, z0)

        got = run(pre)
        monkeypatch.setattr(precond, "resolvent_via_P", two_solve_resolvent)
        ref = run(two_solve_pre(pre))
        for name in ("iterations", "reason", "b1_evals", "b2_evals",
                     "resolvent_evals", "projections", "backtracks"):
            assert getattr(got, name) == getattr(ref, name), name
        assert len(got.iterates) == len(ref.iterates)
        for a, b in zip(got.iterates, ref.iterates):
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)

    def test_badly_conditioned_preconditioner_solves_on_every_call(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 6
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        U = Q @ np.diag(np.logspace(0.0, -12.0, n)) @ Q.T
        Sk = 1e-13 * rng.standard_normal((n, n))
        pre = Preconditioner.from_matrix((U + U.T) / 2.0 + (Sk - Sk.T) / 2.0)
        assert pre.norm_U / pre.rho > 1e11
        M_A = 1e-13 * np.eye(n)
        A = MaximalMonotone.from_matrix(M_A)
        z = rng.standard_normal(n)
        expected = {"resolvent": np.linalg.solve(pre.P + M_A, pre.P @ z),
                    "solve_P": np.linalg.solve(pre.P, z),
                    "solve_U": np.linalg.solve(pre.U, z)}
        solve = np.linalg.solve
        calls = []

        def counted_solve(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        oracles = {"resolvent": lambda: resolvent_via_P(A, pre, z),
                   "solve_P": lambda: pre.solve_P(z),
                   "solve_U": lambda: pre.solve_U(z)}
        for name, oracle in oracles.items():
            for _ in range(2):
                before = len(calls)
                assert np.array_equal(oracle(), expected[name]), name
                assert len(calls) == before + 1, name

    def test_well_conditioned_route_solves_nothing_after_the_first_call(self, monkeypatch):
        rng = np.random.default_rng(6)
        pre = random_strong_pre(rng, 5)
        Q = rng.standard_normal((5, 5))
        A = MaximalMonotone.from_matrix(Q.T @ Q)
        z = rng.standard_normal(5)
        first = resolvent_via_P(A, pre, z), pre.solve_P(z), pre.solve_U(z)

        def no_solve(*args):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        again = resolvent_via_P(A, pre, z), pre.solve_P(z), pre.solve_U(z)
        for a, b in zip(first, again):
            assert np.array_equal(a, b)

    def test_one_preconditioner_with_two_operators(self):
        rng = np.random.default_rng(4)
        pre = random_strong_pre(rng, 5)
        ops = []
        for _ in range(2):
            Q = rng.standard_normal((5, 5))
            ops.append(MaximalMonotone.from_matrix(Q.T @ Q))
        z = rng.standard_normal(5)
        for A in ops + ops:
            got = resolvent_via_P(A, pre, z)
            ref = np.linalg.solve(pre.P + A.matrix, pre.P @ z)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_solve_entry_points_rebindable_on_the_instance(self):
        # a tracer wraps pre.solve_P and pre.solve_U by assigning to the
        # instance: no __slots__, no frozen dataclass
        rng = np.random.default_rng(8)
        n = 4
        Sk = rng.standard_normal((n, n))
        B2m = 0.1 * (Sk - Sk.T) / 2
        spec = ProblemSpec(A=MaximalMonotone.from_matrix(np.eye(n)),
                           B1=shift_map(rng.standard_normal(n)),
                           B2=MonotoneMap.from_matrix(B2m),
                           X=ClosedConvexSet.whole_space(), dimension=n)
        pre = random_strong_pre(rng, n, b2_matrix=B2m)
        pre = Preconditioner.from_matrix(2.0 * np.eye(n) + (pre.P - pre.P.T) / 20,
                                         b2_matrix=B2m)
        calls = {"solve_P": 0, "solve_U": 0}
        for name in calls:
            def counted(b, fn=getattr(pre, name), name=name):
                calls[name] += 1
                return fn(b)

            setattr(pre, name, counted)
        r = solve_precond_fbhf(spec, pre, SolveConfig(max_iterations=200, tolerance=1e-9))
        assert r.iterations > 1
        assert calls == {"solve_P": r.iterations, "solve_U": r.iterations}


class TestPreconditionerConstants:
    def test_split_and_moduli(self):
        P = np.array([[2.0, 1.0], [0.0, 2.0]])
        pre = Preconditioner.from_matrix(P)
        assert np.array_equal(pre.U, [[2.0, 0.5], [0.5, 2.0]])
        assert np.array_equal(pre.S, [[0.0, 0.5], [-0.5, 0.0]])
        assert pre.rho == pytest.approx(1.5, abs=1e-9)   # eigs 2 +- 1/2
        assert pre.norm_U == pytest.approx(2.5, abs=1e-9)

    def test_k_from_b2_matrix(self):
        S = np.array([[0.0, 0.5], [-0.5, 0.0]])
        pre = Preconditioner.from_matrix(np.eye(2) + S, b2_matrix=S)
        assert pre.K == pytest.approx(0.0, abs=1e-10)
        assert pre.k_source == "b2_matrix"

    def test_k_defaults_to_skew_norm(self):
        S = np.array([[0.0, 0.5], [-0.5, 0.0]])
        pre = Preconditioner.from_matrix(np.eye(2) + S)
        assert pre.K == pytest.approx(0.5, abs=1e-10)


class TestSolvePrecondFbhf:
    def _skew_problem(self, rng, n=4, scale=0.1):
        Sk = rng.standard_normal((n, n))
        B2 = scale * (Sk - Sk.T) / 2
        b = rng.standard_normal(n)
        spec = ProblemSpec(A=MaximalMonotone.from_matrix(np.eye(n)),
                          B1=shift_map(b), B2=MonotoneMap.from_matrix(B2),
                          X=ClosedConvexSet.whole_space(), dimension=n)
        return spec, B2

    def test_scalar_precond_bitwise_identical_to_main_solver(self):
        rng = np.random.default_rng(3)
        spec, B2 = self._skew_problem(rng)
        gamma = 0.25   # dyadic so 1/(1/gamma) round-trips exactly
        pre = Preconditioner.from_matrix(np.eye(4) / gamma, b2_matrix=B2)
        cfg = SolveConfig(max_iterations=60, tolerance=1e-300, keep_iterates=True)
        z0 = rng.standard_normal(4)
        r1 = solve_precond_fbhf(spec, pre, cfg, z0)
        r2 = solve_fbhf(spec, ConstantStep(gamma=gamma), cfg, z0)
        for a, b_ in zip(r1.iterates, r2.iterates):
            assert np.array_equal(a, b_)

    def test_scalar_precond_needs_no_lipschitz_constant_of_b2(self):
        # nonlinear B2 without a declared Lipschitz constant: the metric
        # condition with the user's K stands in for the chi bound, so the
        # delegation to the main iteration must not ask for B2.lipschitz
        spec = ProblemSpec(A=normal_cone_box(-np.ones(3), np.ones(3)),
                           B1=shift_map(np.array([0.5, -2.0, 0.25])),
                           B2=MonotoneMap(evaluate=np.arctan),
                           X=ClosedConvexSet.box(-np.ones(3), np.ones(3)),
                           dimension=3)
        gamma = 0.5
        pre = Preconditioner.from_matrix(np.eye(3) / gamma, lipschitz_K=1.0)
        cfg = SolveConfig(max_iterations=30, tolerance=1e-300, keep_iterates=True)
        z = np.array([0.3, 0.9, -0.7])
        r = solve_precond_fbhf(spec, pre, cfg, z)
        assert len(r.iterates) == 31
        for got in r.iterates[1:]:
            _, z = fbhf_step(spec, z, gamma)
            assert np.array_equal(got, z)

    def test_condition_equality_boundary_rejected(self):
        # beta = inf and K = rho exactly: the strict inequality K^2 < rho^2 fails
        S = np.array([[0.0, 1.0], [-1.0, 0.0]])
        pre = Preconditioner.from_matrix(np.eye(2) + S, b2_matrix=2.0 * S)
        # K = ||2S - S|| = 1 = rho
        spec = ProblemSpec(A=MaximalMonotone.from_matrix(np.eye(2)), B1=None,
                          B2=MonotoneMap.from_matrix(2.0 * S),
                          X=ClosedConvexSet.whole_space(), dimension=2)
        assert pre.rho == pytest.approx(1.0, abs=1e-9)
        assert pre.K == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ConfigurationError, match="metric condition"):
            solve_precond_fbhf(spec, pre, SolveConfig(max_iterations=10,
                                                      tolerance=1e-9))

    def test_violated_condition_reports_quantities(self):
        rng = np.random.default_rng(5)
        spec, B2 = self._skew_problem(rng, scale=5.0)
        pre = Preconditioner.from_matrix(0.1 * np.eye(4), b2_matrix=B2)
        with pytest.raises(ConfigurationError) as err:
            solve_precond_fbhf(spec, pre, SolveConfig(max_iterations=10,
                                                      tolerance=1e-9))
        assert "K^2" in str(err.value) and "rho" in str(err.value)

    def test_triangular_gauss_seidel_matches_tseng(self):
        # two prox blocks, skew-plus-monotone linear B2, no B1
        rng = np.random.default_rng(7)
        C = 0.2 * rng.standard_normal((2, 2))
        B2m = 0.05 * np.block([[0.5 * np.eye(2), C], [-C.T, 0.5 * np.eye(2)]])
        shift = np.array([0.3, -0.4, 0.2, 0.1])
        blockA = MaximalMonotone.product([
            (MaximalMonotone(resolvent=lambda g, y: np.clip(y - g * shift[:2], -1, 1)), 2),
            (MaximalMonotone(resolvent=lambda g, y: np.clip(y - g * shift[2:], -1, 1)), 2)])
        spec = ProblemSpec(A=blockA, B1=None,
                          B2=MonotoneMap.from_matrix(B2m),
                          X=ClosedConvexSet.whole_space(), dimension=4)
        P = np.eye(4)
        P[2:, :2] = 0.3 * rng.standard_normal((2, 2))
        pre = Preconditioner.from_matrix(P, b2_matrix=B2m)
        cfg = SolveConfig(max_iterations=200_000, tolerance=1e-12)
        r1 = solve_precond_fbhf(spec, pre, cfg)
        r2 = solve_tseng_fbf(spec, ConstantStep(), cfg)
        assert np.linalg.norm(r1.z - r2.z) <= 1e-7

    def test_box_constraint_with_nondiagonal_u_rejected(self):
        rng = np.random.default_rng(9)
        spec, B2 = self._skew_problem(rng)
        spec = ProblemSpec(A=spec.A, B1=spec.B1, B2=spec.B2,
                          X=ClosedConvexSet.box(-np.ones(4), np.ones(4)),
                          dimension=4)
        pre = random_strong_pre(rng, 4, b2_matrix=B2)
        pre = Preconditioner.from_matrix(3.0 * np.eye(4) + (pre.P - pre.P.T) / 2,
                                         b2_matrix=B2)
        # S nonzero makes the scalar fast path unavailable; U stays diagonal
        r = solve_precond_fbhf(spec, pre, SolveConfig(max_iterations=50,
                                                      tolerance=1e-9))
        assert r.iterations >= 1
        bad = Preconditioner.from_matrix(np.array(
            [[3.0, 0.5, 0, 0], [0.5, 3.0, 0, 0], [0, 0, 3.0, 0], [0, 0, 0, 3.0]]),
            b2_matrix=B2)
        with pytest.raises(ConfigurationError, match="diagonal U"):
            solve_precond_fbhf(spec, bad, SolveConfig(max_iterations=10,
                                                      tolerance=1e-9))

    def test_nonlinear_b2_requires_user_k(self):
        def ev(w):
            return np.array([math.tanh(w[0]), -math.tanh(w[1])]) * 0.0 + w * 0.0

        nonlinear = MonotoneMap(evaluate=lambda w: 0.1 * np.tanh(w))
        spec = ProblemSpec(A=MaximalMonotone.from_matrix(np.eye(2)),
                          B1=None, B2=nonlinear,
                          X=ClosedConvexSet.whole_space(), dimension=2)
        pre_plain = Preconditioner.from_matrix(np.eye(2) * 2.0 + np.array(
            [[0.0, 0.1], [-0.1, 0.0]]))
        with pytest.raises(ConfigurationError, match="explicit K"):
            solve_precond_fbhf(spec, pre_plain,
                               SolveConfig(max_iterations=10, tolerance=1e-9))
        pre = Preconditioner.from_matrix(np.eye(2) * 2.0 + np.array(
            [[0.0, 0.1], [-0.1, 0.0]]), lipschitz_K=0.25)
        r = solve_precond_fbhf(spec, pre, SolveConfig(max_iterations=50,
                                                      tolerance=1e-10))
        assert r.reason == "tolerance"
        lying = Preconditioner.from_matrix(np.eye(2) * 2.0 + np.array(
            [[0.0, 0.1], [-0.1, 0.0]]), lipschitz_K=1e-6)
        with pytest.raises(ConfigurationError, match="Lipschitz"):
            solve_precond_fbhf(spec, lying, SolveConfig(max_iterations=10,
                                                        tolerance=1e-9))


class TestOneAdmissionCheck:
    """Both preconditioned solvers admit a preconditioner by the same rules;
    the variable-metric one names the iteration whose P_k fails them."""

    @staticmethod
    def run(solver, spec, pre, max_iterations=10):
        cfg = SolveConfig(max_iterations=max_iterations, tolerance=1e-10)
        if solver == "precond":
            return solve_precond_fbhf(spec, pre, cfg)
        return solve_variable_metric(spec, MetricSchedule.constant(pre), cfg)

    @pytest.mark.parametrize("solver, label", [("precond", ""), ("variable-metric", "P_0: ")])
    def test_k_that_ignores_linear_b2_rejected(self, solver, label):
        # K = ||S|| passes the (inflated) metric condition, the true
        # K = ||B2 - S|| fails it; the variable-metric run used to diverge
        n = 6
        rng = np.random.default_rng(1)

        def skew():
            G = rng.standard_normal((n, n))
            return (G - G.T) / 2

        B2 = 3.0 * skew()
        G = rng.standard_normal((n, n))
        spec = ProblemSpec(A=MaximalMonotone.from_matrix(0.5 * np.eye(n)),
                           B1=quadratic_gradient(0.1 * G.T @ G / n, rng.standard_normal(n)),
                           B2=MonotoneMap.from_matrix(B2),
                           X=ClosedConvexSet.whole_space(), dimension=n)
        P = 5.0 * np.eye(n) + 0.3 * skew()
        pre = Preconditioner.from_matrix(P)
        true_K = Preconditioner.from_matrix(P, b2_matrix=B2).K
        r = pre.rho / (1.0 + MetricSchedule.constant(pre).epsilon)
        assert metric_violation(r, pre.K, spec.beta, strict=False) is None
        assert metric_violation(r, true_K, spec.beta, strict=False) is not None
        with pytest.raises(ConfigurationError,
                           match=f"^{label}preconditioner was built without the B2 matrix"):
            self.run(solver, spec, pre)

    @staticmethod
    def skew_spec(b2_scale):
        """Linear B2 = b2_scale * skew with ||skew|| = 2, beta = 0.075, and
        P = 20 I + 0.1 skew."""
        n = 6
        rng = np.random.default_rng(2)
        G = rng.standard_normal((n, n))
        skew = 2.0 * (G - G.T) / np.linalg.norm(G - G.T, 2)
        spec = ProblemSpec(A=MaximalMonotone.from_matrix(np.eye(n)),
                           B1=shift_map(rng.standard_normal(n), beta=0.075),
                           B2=MonotoneMap.from_matrix(b2_scale * skew),
                           X=ClosedConvexSet.whole_space(), dimension=n)
        return spec, skew, 20.0 * np.eye(n) + 0.1 * skew

    @pytest.mark.parametrize("solver, label", [("precond", ""), ("variable-metric", "P_0: ")])
    def test_k_from_another_b2_matrix_rejected(self, solver, label):
        # K = ||0.01 skew - S|| = 0.18 passes the metric condition, while the
        # K of the problem's B2 = 20 skew fails it; both solvers used to run
        # to diverged
        spec, skew, P = self.skew_spec(20.0)
        stale = Preconditioner.from_matrix(P, b2_matrix=0.01 * skew)
        assert stale.K == pytest.approx(0.18)
        with pytest.raises(ConfigurationError, match=f"^{label}preconditioner's K was "
                                                     f"computed from another B2 matrix"):
            self.run(solver, spec, stale)
        with pytest.raises(ConfigurationError, match=f"^{label}metric condition violated"):
            self.run(solver, spec, Preconditioner.from_matrix(P, b2_matrix=20.0 * skew))

    @pytest.mark.parametrize("solver, label", [("precond", ""), ("variable-metric", "P_0: ")])
    def test_user_k_below_the_linear_b2_constant_rejected(self, solver, label):
        # K = 0.18 passes the metric condition, while ||B2 - S|| = 39.8 for
        # B2 = 20 skew fails it; both solvers used to run to diverged
        spec, skew, P = self.skew_spec(20.0)
        with pytest.raises(ConfigurationError, match=f"^{label}supplied K = 0.18 is not a "
                                                     f"Lipschitz constant of B2 - S"):
            self.run(solver, spec, Preconditioner.from_matrix(P, lipschitz_K=0.18))
        # a K equal to ||B2 - S|| = ||0.4 skew|| = 0.8 is admitted
        spec, skew, P = self.skew_spec(0.5)
        r = self.run(solver, spec, Preconditioner.from_matrix(P, lipschitz_K=0.8))
        assert r.iterations == 10

    @pytest.mark.parametrize("solver, label", [("precond", ""), ("variable-metric", "P_0: ")])
    def test_k_below_the_skew_norm_rejected_without_b2(self, solver, label):
        # with B2 absent, B2 - S = -S: K = 0, given or computed from
        # b2_matrix = S, passes the metric condition, while the true
        # K = ||S|| = 3 fails it (K^2 = 9 >= rho (rho - 1/(2 beta)) = 0.5)
        n = 6
        G = np.random.default_rng(3).standard_normal((n, n))
        skew = (G - G.T) / np.linalg.norm(G - G.T, 2)
        spec = ProblemSpec(A=MaximalMonotone.from_matrix(0.1 * np.eye(n)),
                           B1=quadratic_gradient(np.eye(n), np.ones(n)), B2=None,
                           X=ClosedConvexSet.whole_space(), dimension=n)
        P = np.eye(n) + 3.0 * skew
        S = Preconditioner.from_matrix(P).S
        for pre in (Preconditioner.from_matrix(P, lipschitz_K=0.0),
                    Preconditioner.from_matrix(P, b2_matrix=S)):
            assert pre.K == 0.0
            with pytest.raises(ConfigurationError,
                               match="^" + re.escape(f"{label}K = 0 is below ||S|| = 3,")):
                self.run(solver, spec, pre)
        # a K of ||S|| is admitted where the metric condition allows it
        r = self.run(solver, spec, Preconditioner.from_matrix(P + 9.0 * np.eye(n),
                                                              lipschitz_K=3.0))
        assert r.iterations == 10

    def test_b2_matrix_compared_once_per_solve(self, monkeypatch):
        # an equal copy of B2's matrix is admitted; the variable metric
        # compares it once per solve, not once per iteration
        spec, skew, P = self.skew_spec(0.5)
        pre = Preconditioner.from_matrix(P, b2_matrix=0.5 * skew)
        assert pre.b2_matrix is not spec.B2.matrix
        calls = []
        array_equal = np.array_equal
        monkeypatch.setattr(precond.np, "array_equal",
                            lambda a, b: calls.append(1) or array_equal(a, b))
        for _ in range(2):
            r = self.run("variable-metric", spec, pre, max_iterations=7)
            assert r.iterations == 7
        assert len(calls) == 2

    @pytest.mark.parametrize("solver, label", [("precond", ""), ("variable-metric", "P_0: ")])
    def test_nonlinear_b2_needs_explicit_k(self, solver, label):
        spec = ProblemSpec(A=MaximalMonotone.from_matrix(np.eye(2)), B1=None,
                           B2=MonotoneMap(evaluate=lambda w: 0.1 * np.tanh(w)),
                           X=ClosedConvexSet.whole_space(), dimension=2)
        P = 2.0 * np.eye(2) + np.array([[0.0, 0.1], [-0.1, 0.0]])
        with pytest.raises(ConfigurationError, match=f"^{label}B2 is nonlinear.*explicit K"):
            self.run(solver, spec, Preconditioner.from_matrix(P))
        r = self.run(solver, spec, Preconditioner.from_matrix(P, lipschitz_K=0.25),
                     max_iterations=500)
        assert r.reason == "tolerance"

    @staticmethod
    def tanh_spec(n, calls=None):
        """B2 = 5 tanh(w), 5-Lipschitz, with a linear A and a quadratic B1;
        ``calls`` counts every B2 evaluation, sampled or iterated."""
        rng = np.random.default_rng(0)

        def b2(w):
            if calls is not None:
                calls.append(1)
            return 5.0 * np.tanh(w)

        spec = ProblemSpec(A=MaximalMonotone.from_matrix(np.eye(n)),
                           B1=quadratic_gradient(0.3 * rng.standard_normal((n, n)),
                                                 rng.standard_normal(n)),
                           B2=MonotoneMap(evaluate=b2),
                           X=ClosedConvexSet.whole_space(), dimension=n)
        G = rng.standard_normal((n, n))
        return spec, 2.0 * np.eye(n) + 0.1 * (G - G.T) / 2

    @pytest.mark.parametrize("solver, label", [("precond", ""), ("variable-metric", "P_0: ")])
    def test_user_k_below_the_true_constant_rejected(self, solver, label):
        # K = 1e-6 passes the metric condition; sampling B2 - S refutes it
        spec, P = self.tanh_spec(6)
        pre = Preconditioner.from_matrix(P, lipschitz_K=1e-6)
        with pytest.raises(ConfigurationError,
                           match=f"^{label}supplied K = 1e-06 is not a Lipschitz constant"):
            self.run(solver, spec, pre)

    def test_each_distinct_preconditioner_sampled_once_per_solve(self):
        # the sampled check evaluates B2 twice per pair, 1000 pairs; a solve
        # cycling over two preconditioners samples each once, and the next
        # solve samples them again
        calls = []
        spec, P = self.tanh_spec(4, calls)
        pres = [Preconditioner.from_matrix(4.0 * P, lipschitz_K=5.5),
                Preconditioner.from_matrix(4.0 * P + 0.5 * np.eye(4), lipschitz_K=5.5)]
        cfg = SolveConfig(max_iterations=7, tolerance=1e-300)
        for _ in range(2):
            calls.clear()
            r = solve_variable_metric(spec, MetricSchedule.cycle(pres), cfg)
            assert r.iterations == 7
            assert len(calls) == r.b2_evals + 2 * 2000


class TestScheduleMarginRule:
    """lo <= lambda_k <= hi and ||U_k|| <= M are decided by the margin rule,
    an allowance of 1e-12 max(1, |bound|) beyond each bound."""

    @staticmethod
    def lambda_verdicts(norm_U, epsilon, lams):
        pre = Preconditioner.from_matrix(norm_U * np.eye(2))
        sched = MetricSchedule.constant(pre, epsilon=epsilon, lambdas=lambda k: lams[k])
        verdicts = []
        for k in range(len(lams)):
            try:
                sched.lambda_at(k, pre)
            except ConfigurationError as exc:
                assert "relaxation" in str(exc)
                verdicts.append(False)
            else:
                verdicts.append(True)
        return verdicts

    @staticmethod
    def norm_verdict(norm_sup, norm_U):
        pre = Preconditioner.from_matrix(norm_U * np.eye(2))
        spec = ProblemSpec(A=MaximalMonotone.from_matrix(np.eye(2)), B1=None, B2=None,
                           X=ClosedConvexSet.whole_space(), dimension=2)
        try:
            solve_variable_metric(spec, MetricSchedule(at=lambda k: pre, norm_sup=norm_sup),
                                  SolveConfig(max_iterations=1, tolerance=1e-300))
        except ConfigurationError as exc:
            assert "exceeds the declared bound" in str(exc)
            return False
        return True

    def test_bounds_up_to_one_allow_an_absolute_margin(self):
        # ||U|| = 2: lo = 0.01 and hi = 0.49 take 1e-12, M = 2 takes 2e-12
        lo, hi = 0.01, 0.5 - 0.01
        assert self.lambda_verdicts(2.0, 0.01, [hi + 0.5e-12, hi + 2e-12,
                                                lo - 0.5e-12, lo - 2e-12]) == [
            True, False, True, False]
        assert self.norm_verdict(2.0, 2.0 * (1.0 + 0.5e-12))
        assert not self.norm_verdict(2.0, 2.0 * (1.0 + 2e-12))

    def test_bounds_beyond_one_scale_the_margin(self):
        # ||U|| = 0.25, epsilon = 1.5: lo = 1.5 and hi = 2.5 take 1e-12 |bound|,
        # while M = 0.25 < 1 takes 1e-12 (not 0.25e-12)
        lo, hi = 1.5, 4.0 - 1.5
        assert self.lambda_verdicts(0.25, 1.5, [hi + 2e-12, hi + 4e-12,
                                                lo - 1.3e-12, lo - 3e-12]) == [
            True, False, True, False]
        assert self.norm_verdict(0.25, 0.25 + 0.6e-12)
        assert not self.norm_verdict(0.25, 0.25 + 2e-12)


class TestVariableMetric:
    def _strong_problem(self, rng, n=4):
        Sk = rng.standard_normal((n, n))
        B2m = 0.1 * (Sk - Sk.T) / 2
        b = rng.standard_normal(n)
        return ProblemSpec(A=MaximalMonotone.from_matrix(0.5 * np.eye(n)),
                           B1=shift_map(b), B2=MonotoneMap.from_matrix(B2m),
                           X=ClosedConvexSet.whole_space(), dimension=n), B2m

    def test_constant_schedule_agrees_with_inverted_variant(self):
        for seed in range(5):
            rng = np.random.default_rng(20 + seed)
            spec, B2m = self._strong_problem(rng)
            G = rng.standard_normal((4, 4))
            U = G.T @ G / 8 + 1.5 * np.eye(4)
            Sk = 0.05 * rng.standard_normal((4, 4))
            pre = Preconditioner.from_matrix(U + (Sk - Sk.T) / 2, b2_matrix=B2m)
            cfg = SolveConfig(max_iterations=500_000, tolerance=1e-12)
            r_vm = solve_variable_metric(spec, MetricSchedule.constant(pre), cfg)
            r_pc = solve_precond_fbhf(spec, pre, cfg)
            assert np.linalg.norm(r_vm.z - r_pc.z) <= 1e-8

    def test_scalar_schedule_is_relaxed_main_iteration(self):
        rng = np.random.default_rng(31)
        spec, B2m = self._strong_problem(rng)
        gamma = 0.5
        eta = 0.6
        pre = Preconditioner.from_matrix(np.eye(4) / gamma, b2_matrix=B2m)
        sched = MetricSchedule.constant(pre, lambdas=lambda k: eta * gamma)
        cfg = SolveConfig(max_iterations=40, tolerance=1e-300, keep_iterates=True)
        z0 = rng.standard_normal(4)
        r = solve_variable_metric(spec, sched, cfg, z0)
        # manual relaxed iteration z+ = z + eta (x + g(B2 z - B2 x) - z)
        z = z0.copy()
        for zk in r.iterates[1:]:
            fz = spec.B1.evaluate(z) + spec.B2.evaluate(z)
            x = spec.A.resolvent(gamma, z - gamma * fz)
            corr = (x - z) / gamma + spec.B2.evaluate(z) - spec.B2.evaluate(x)
            z = z + eta * gamma * corr
            assert np.linalg.norm(z - zk) <= 1e-9

    def test_alternating_schedule_converges_to_same_zero(self):
        rng = np.random.default_rng(33)
        spec, B2m = self._strong_problem(rng, n=2)
        pre1 = Preconditioner.from_matrix(1.5 * np.eye(2), b2_matrix=B2m)
        pre2 = Preconditioner.from_matrix(
            2.0 * np.eye(2) + np.array([[0.0, 0.1], [-0.1, 0.0]]), b2_matrix=B2m)
        cfg = SolveConfig(max_iterations=500_000, tolerance=1e-12)
        r_alt = solve_variable_metric(spec, MetricSchedule.cycle([pre1, pre2]), cfg)
        r_1 = solve_variable_metric(spec, MetricSchedule.constant(pre1), cfg)
        assert np.linalg.norm(r_alt.z - r_1.z) <= 1e-8

    def test_run_loop_supplies_the_iteration_index(self):
        # the schedule sees k = 0, 1, ..., iterations - 1, once each, in order
        rng = np.random.default_rng(41)
        spec, B2m = self._strong_problem(rng)
        pre = Preconditioner.from_matrix(1.5 * np.eye(4), b2_matrix=B2m)
        seen = []

        def at(k):
            seen.append(k)
            return pre

        r = solve_variable_metric(spec, MetricSchedule(at=at, norm_sup=pre.norm_U),
                                  SolveConfig(max_iterations=25, tolerance=1e-300))
        assert r.iterations == 25 and seen == list(range(25))

    def test_violating_schedule_names_iteration(self):
        rng = np.random.default_rng(35)
        spec, B2m = self._strong_problem(rng)
        good = Preconditioner.from_matrix(1.5 * np.eye(4), b2_matrix=B2m)
        bad = Preconditioner.from_matrix(0.01 * np.eye(4), b2_matrix=B2m)
        sched = MetricSchedule(at=lambda k: bad if k == 3 else good,
                               norm_sup=good.norm_U)
        with pytest.raises(ConfigurationError, match="P_3"):
            solve_variable_metric(spec, sched,
                                  SolveConfig(max_iterations=10, tolerance=1e-300))

    def test_requires_whole_space(self):
        rng = np.random.default_rng(37)
        spec, B2m = self._strong_problem(rng)
        boxed = ProblemSpec(A=spec.A, B1=spec.B1, B2=spec.B2,
                           X=ClosedConvexSet.box(-np.ones(4), np.ones(4)),
                           dimension=4)
        pre = Preconditioner.from_matrix(1.5 * np.eye(4), b2_matrix=B2m)
        with pytest.raises(ConfigurationError, match="X = H"):
            solve_variable_metric(boxed, MetricSchedule.constant(pre),
                                  SolveConfig(max_iterations=10, tolerance=1e-9))

    def test_step_square_sums_plateau(self):
        rng = np.random.default_rng(39)
        spec, B2m = self._strong_problem(rng)
        pre = Preconditioner.from_matrix(1.5 * np.eye(4), b2_matrix=B2m)
        sched = MetricSchedule.constant(pre, lambdas=lambda k: 0.1)
        cfg = SolveConfig(max_iterations=500, tolerance=1e-300, keep_iterates=True)
        r = solve_variable_metric(spec, sched, cfg)
        steps = [np.linalg.norm(b - a) ** 2
                 for a, b in zip(r.iterates, r.iterates[1:])]
        assert len(steps) >= 200
        assert sum(steps[-100:]) < 1e-12
