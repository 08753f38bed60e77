import numpy as np
import pytest

from splitmono.distributed import (AgentState, Graph, GraphSequence,
                                   consensus_error, consensus_step,
                                   metric_norm, run_distributed,
                                   t_class_consensus_step)
from splitmono.fbhf import ConfigurationError, SolveConfig
from splitmono.linalg import operator_norm
from splitmono.operators import ClosedConvexSet, CocoerciveMap, MaximalMonotone, ProblemSpec
from splitmono.fbhf import ConstantStep, solve_fbhf


def quad_prox(center):
    c = np.atleast_1d(np.asarray(center, dtype=float))
    return lambda gamma, v: (v + gamma * c) / (1.0 + gamma)


def centralized_mean(centers, h=1):
    """Reference solution of min sum_i ||x - c_i||^2/2 computed by the main
    splitting solver on the summed gradient."""
    centers = np.asarray(centers, dtype=float).reshape(len(centers), h)
    n = len(centers)
    grad = CocoerciveMap(
        evaluate=lambda x: sum(x - centers[i] for i in range(n)),
        beta=1.0 / n)
    spec = ProblemSpec(A=MaximalMonotone.zero(), B1=grad, B2=None,
                      X=ClosedConvexSet.whole_space(), dimension=h)
    r = solve_fbhf(spec, ConstantStep(), SolveConfig(max_iterations=100_000,
                                                     tolerance=1e-13))
    return r.z


class TestGraph:
    def test_laplacian_annihilates_constants_exactly(self):
        for g in (Graph.path(5), Graph.ring(5), Graph.star(4)):
            L = g.laplacian()
            assert np.array_equal(L @ np.ones(g.n), np.zeros(g.n))
            assert np.array_equal(L, L.T)

    def test_connectivity_enforced(self):
        with pytest.raises(ValueError, match="connected"):
            Graph(4, ((0, 1), (2, 3)))

    def test_fiedler_positive_for_builtin_graphs(self):
        for g in (Graph.path(4), Graph.ring(6), Graph.star(5)):
            assert g.fiedler_value() > 1e-10

    def test_random_connected_deterministic(self):
        gs1 = GraphSequence.random(5, seed=3)
        gs2 = GraphSequence.random(5, seed=3)
        for t in range(6):
            assert gs1.at(t).edges == gs2.at(t).edges

    def test_norm_laplacian_matches_svd_norm(self):
        rng = np.random.default_rng(4)
        graphs = [Graph.ring(6), Graph.path(5), Graph.star(7), Graph.path(2)]
        graphs += [Graph.random_connected(n, rng) for n in (3, 5, 8)]
        for g in graphs:
            lam = g.norm_laplacian()
            assert lam == pytest.approx(operator_norm(g.laplacian()), rel=1e-9)
        assert Graph(1, ()).norm_laplacian() == 0.0

    def test_random_sequence_keeps_latest_graph_only(self):
        gs = GraphSequence.random(5, seed=3)
        g0 = gs.at(0)
        assert gs.at(0) is g0
        g1 = gs.at(1)
        assert gs.at(1) is g1
        # round 0 is drawn again from its own generator: equal, not cached
        again = gs.at(0)
        assert again is not g0 and again.edges == g0.edges

    def test_blockwise_apply_matches_matrix(self):
        g = Graph.ring(5)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 3))
        assert np.allclose(g.laplacian_apply(X), g.laplacian() @ X, atol=1e-12)

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 0),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 5),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (1, 0), (1, 2)))


class TestLocality:
    def test_non_neighbor_blocks_do_not_leak(self):
        g = Graph.path(5)   # agent 0 talks to agent 1 only
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 2))
        X_alt = X.copy()
        X_alt[3] = 0.0
        out = g.laplacian_apply(X)
        out_alt = g.laplacian_apply(X_alt)
        assert np.array_equal(out[0], out_alt[0])
        assert np.array_equal(out[1], out_alt[1])

    def test_consensus_step_locality_bitwise(self):
        g = Graph.path(5)
        rng = np.random.default_rng(2)
        centers = rng.standard_normal((5, 1))
        gamma = tau = 0.1

        def states_from(X, Y):
            return [AgentState(x=X[i], y=Y[i], prox=quad_prox(centers[i]))
                    for i in range(5)]

        X = rng.standard_normal((5, 1))
        Y = rng.standard_normal((5, 1))
        X_alt, Y_alt = X.copy(), Y.copy()
        X_alt[4] = 7.0
        Y_alt[4] = -3.0
        a = consensus_step(states_from(X, Y), g, gamma, tau)
        b = consensus_step(states_from(X_alt, Y_alt), g, gamma, tau)
        # agent 4 is two hops from agent 0; one round cannot reach x_0, and
        # the dual of agent 0 sees only neighbor primals
        assert np.array_equal(a[0].x, b[0].x)
        assert np.array_equal(a[0].y, b[0].y)


class TestConsensusStep:
    def test_two_agents_reach_average(self):
        g = Graph.path(2)
        c = [1.0, 3.0]
        states = [AgentState(x=np.zeros(1), y=np.zeros(1), prox=quad_prox(c[i]))
                  for i in range(2)]
        for _ in range(4000):
            states = consensus_step(states, g, 0.4, 0.4)
        assert abs(states[0].x[0] - 2.0) <= 1e-8
        assert abs(states[1].x[0] - 2.0) <= 1e-8

    def test_consensual_stationary_state_is_fixed(self):
        g = Graph.ring(4)
        c = 1.0
        states = [AgentState(x=np.array([c]), y=np.zeros(1), prox=quad_prox(c))
                  for _ in range(4)]
        nxt = consensus_step(states, g, 0.2, 0.2)
        for s, t in zip(states, nxt):
            assert np.allclose(s.x, t.x, atol=1e-15)
            assert np.allclose(s.y, t.y, atol=1e-15)

    def test_path_and_star_share_the_limit(self):
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((5, 1))
        target = centralized_mean(centers)
        for g in (Graph.path(5), Graph.star(5)):
            states = [AgentState(x=np.zeros(1), y=np.zeros(1),
                                 prox=quad_prox(centers[i])) for i in range(5)]
            for _ in range(20000):
                states = consensus_step(states, g, 0.1, 0.1)
            for s in states:
                assert np.linalg.norm(s.x - target) <= 1e-6

    def test_stepsize_condition_rejected(self):
        g = Graph.ring(4)
        states = [AgentState(x=np.zeros(1), y=np.zeros(1), prox=quad_prox(0.0))
                  for _ in range(4)]
        with pytest.raises(ConfigurationError, match="stepsize condition"):
            consensus_step(states, g, 1.0, 1.0)


class TestTClassStep:
    def test_mu_range_enforced(self):
        g = Graph.path(3)
        states = [AgentState(x=np.zeros(1), y=np.zeros(1), prox=quad_prox(0.0))
                  for _ in range(3)]
        bad = 1.5 / metric_norm(g, 0.2, 0.2)
        with pytest.raises(ConfigurationError, match="mu"):
            t_class_consensus_step(states, g, 0.2, 0.2, bad)

    def test_fixed_points_shared_with_plain_step(self):
        g = Graph.ring(4)
        rng = np.random.default_rng(7)
        centers = rng.standard_normal((4, 1))
        states = [AgentState(x=np.zeros(1), y=np.zeros(1),
                             prox=quad_prox(centers[i])) for i in range(4)]
        for _ in range(30000):
            states = consensus_step(states, g, 0.2, 0.2)
        mu = 0.99 / metric_norm(g, 0.2, 0.2)
        moved = t_class_consensus_step(states, g, 0.2, 0.2, mu)
        for s, t in zip(states, moved):
            assert np.linalg.norm(s.x - t.x) <= 1e-10
            assert np.linalg.norm(s.y - t.y) <= 1e-10

    def test_fixed_graph_limit_matches_plain_iteration(self):
        g = Graph.path(3)
        rng = np.random.default_rng(9)
        centers = rng.standard_normal((3, 1))
        proxes = [quad_prox(centers[i]) for i in range(3)]
        gs = GraphSequence.fixed(g)
        report, trace = run_distributed(proxes, gs, 0.2, 0.2,
                                        SolveConfig(max_iterations=200_000,
                                                    tolerance=1e-12))
        states = [AgentState(x=np.zeros(1), y=np.zeros(1), prox=proxes[i])
                  for i in range(3)]
        for _ in range(50000):
            states = consensus_step(states, g, 0.2, 0.2)
        X = report.block(0).reshape(3, 1)
        for i in range(3):
            assert np.linalg.norm(X[i] - states[i].x) <= 1e-6


class TestRunDistributed:
    def test_single_agent_reduces_to_proximal_point(self):
        report, trace = run_distributed([quad_prox(2.5)],
                                        GraphSequence.fixed(Graph(1, ())),
                                        0.5, 0.5,
                                        SolveConfig(max_iterations=20000,
                                                    tolerance=1e-13))
        assert abs(report.block(0)[0] - 2.5) <= 1e-9
        assert trace[-1] == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_fixed_graph_consensus_matches_centralized(self, n):
        rng = np.random.default_rng(10 + n)
        centers = rng.standard_normal((n, 1))
        proxes = [quad_prox(centers[i]) for i in range(n)]
        target = centralized_mean(centers)
        deg = 2.0 * max(1, n - 1)
        report, trace = run_distributed(proxes, GraphSequence.fixed(Graph.ring(n)),
                                        0.9 / deg, 0.9 / deg,
                                        SolveConfig(max_iterations=100_000,
                                                    tolerance=1e-11))
        X = report.block(0).reshape(n, 1)
        assert trace[-1] < 1e-6
        for i in range(n):
            assert np.linalg.norm(X[i] - target) <= 1e-6

    def test_two_agents_any_sequence_converges(self):
        # on two vertices every connected graph is the single edge, so the
        # alternating and random sequences are effectively constant
        rng = np.random.default_rng(12)
        centers = rng.standard_normal((2, 1))
        proxes = [quad_prox(centers[i]) for i in range(2)]
        target = centralized_mean(centers)
        for gs in (GraphSequence.random(2, seed=1),
                   GraphSequence.alternating(Graph.path(2), Graph.path(2))):
            report, trace = run_distributed(proxes, gs, 0.4, 0.4,
                                            SolveConfig(max_iterations=100_000,
                                                        tolerance=1e-11))
            X = report.block(0).reshape(2, 1)
            assert trace[-1] < 1e-6
            assert np.linalg.norm(X[0] - target) <= 1e-6

    def test_alternating_cycle_amplitude_scales_with_stepsize(self):
        # the per-round transform Q_t needs the dual target L_t y* =
        # -grad f(x*), which differs between genuinely time-varying graphs,
        # so iterating it settles into a cycle whose consensus error shrinks
        # linearly with the stepsizes instead of vanishing
        rng = np.random.default_rng(13)
        n = 3
        centers = rng.standard_normal((n, 1))
        proxes = [quad_prox(centers[i]) for i in range(n)]
        gs = GraphSequence.alternating(Graph.path(n), Graph.star(n))
        plateaus = []
        for s, iters in ((0.1, 20_000), (0.01, 100_000)):
            states = [AgentState(x=np.zeros(1), y=np.zeros(1), prox=p)
                      for p in proxes]
            for k in range(iters):
                g = gs.at(k)
                states = t_class_consensus_step(states, g, s, s,
                                                0.99 / metric_norm(g, s, s))
            plateaus.append(consensus_error(states))
        assert plateaus[0] > 1e-3          # the cycle is real, not noise
        assert plateaus[1] <= 0.25 * plateaus[0]

    def test_alternating_dual_block_is_graph_independent_certificate(self):
        # w = L y has the same fixed point on every graph, w_i = c_i - x*
        rng = np.random.default_rng(5)
        n = 5
        centers = rng.standard_normal((n, 1))
        proxes = [quad_prox(centers[i]) for i in range(n)]
        gs = GraphSequence.alternating(Graph.path(n), Graph.star(n))
        s = 0.9 / 8
        report, trace = run_distributed(proxes, gs, s, s,
                                        SolveConfig(max_iterations=30_000,
                                                    tolerance=1e-11))
        assert report.reason == "tolerance"
        W = report.block(1).reshape(n, 1)
        assert np.max(np.abs(W - (centers - centers.mean(axis=0)))) <= 1e-6

    def test_round_stepsize_condition_checked_per_graph(self):
        # gamma tau = 0.2326 is below 1/lambda_max(path(5)) (about 0.276)
        # and above 1/lambda_max(star(5)) = 0.2; star(5) is round 1's graph
        centers = np.random.default_rng(5).standard_normal((5, 1))
        proxes = [quad_prox(c) for c in centers]
        gs = GraphSequence.alternating(Graph.path(5), Graph.star(5))
        s = np.sqrt(0.2326)
        with pytest.raises(ConfigurationError, match="round 1"):
            run_distributed(proxes, gs, s, s,
                            SolveConfig(max_iterations=10, tolerance=1e-300))

    def test_distance_to_limit_nonincreasing(self):
        rng = np.random.default_rng(21)
        n = 3
        centers = rng.standard_normal((n, 1))
        proxes = [quad_prox(centers[i]) for i in range(n)]
        gs = GraphSequence.fixed(Graph.path(n))
        cfg = SolveConfig(max_iterations=5000, tolerance=1e-9,
                          keep_iterates=True)
        run, _ = run_distributed(proxes, gs, 0.2, 0.2, cfg)
        ref, _ = run_distributed(proxes, gs, 0.2, 0.2,
                                 SolveConfig(max_iterations=200_000,
                                             tolerance=1e-300))
        dists = [np.linalg.norm(z - ref.z) for z in run.iterates]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-10

    def test_step_square_sums_plateau(self):
        rng = np.random.default_rng(23)
        n = 3
        proxes = [quad_prox(rng.standard_normal(1)) for _ in range(n)]
        gs = GraphSequence.fixed(Graph.path(n))
        cfg = SolveConfig(max_iterations=2000, tolerance=1e-300,
                          keep_iterates=True)
        run, _ = run_distributed(proxes, gs, 0.2, 0.2, cfg)
        steps = [np.linalg.norm(b - a) ** 2
                 for a, b in zip(run.iterates, run.iterates[1:])]
        assert len(steps) >= 200
        assert sum(steps[-100:]) < 1e-12

    def test_block_dimension_above_one(self):
        rng = np.random.default_rng(25)
        n, h = 3, 4
        centers = rng.standard_normal((n, h))
        proxes = [quad_prox(centers[i]) for i in range(n)]
        target = centralized_mean(centers, h=h)
        gs = GraphSequence.fixed(Graph.ring(n))
        report, trace = run_distributed(proxes, gs, 0.2, 0.2,
                                        SolveConfig(max_iterations=200_000,
                                                    tolerance=1e-11),
                                        block_dim=h)
        X = report.block(0).reshape(n, h)
        for i in range(n):
            assert np.linalg.norm(X[i] - target) <= 1e-6
