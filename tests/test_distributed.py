import itertools

import numpy as np
import pytest

from splitmono import distributed
from splitmono.distributed import Graph, GraphSequence, _check_round, _spread, run_distributed
from splitmono.fbhf import ConfigurationError, SolveConfig
from splitmono.linalg import operator_norm, strictly_below
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


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_laplacian_apply(g, X):
    """The per-agent loop that the neighbor-rank product replaced: agent i
    subtracts its neighbors from deg(i) X_i one by one, in ascending order."""
    X = np.asarray(X, dtype=float)
    out = np.empty_like(X)
    for i in range(g.n):
        nbrs = sorted({b if a == i else a for (a, b) in g.edges if i in (a, b)})
        acc = len(nbrs) * X[i]
        for j in nbrs:
            acc = acc - X[j]
        out[i] = acc
    return out


def reference_spread(X):
    """The pairwise consensus error that ``_spread`` replaced."""
    n = X.shape[0]
    return max((float(np.linalg.norm(X[i] - X[j]))
                for i in range(n) for j in range(i + 1, n)), default=0.0)


def reference_random_edges(n, rng):
    """``Graph.random_connected`` drawing one uniform per call."""
    while True:
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5)
        try:
            return Graph(n, edges).edges
        except ValueError:
            continue


def reference_check_round(graph, gamma, tau, k):
    """The per-round step check without the n <= 1/(2 gamma tau) screen:
    always the eigenvalue test."""
    lam = float(np.linalg.eigvalsh(graph.laplacian())[-1]) if graph.edges else 0.0
    if not strictly_below(lam, 1.0 / (gamma * tau)):
        raise ConfigurationError(
            f"round {k}: stepsize condition violated: 1/(gamma tau) = "
            f"{1.0 / (gamma * tau):.6g} must exceed lambda_max(L_{k}) = {lam:.6g}")


def check_round_outcome(check, graph, gamma, tau, k):
    try:
        check(graph, gamma, tau, k)
    except ConfigurationError as exc:
        return str(exc)
    return None


class TestGraph:
    def test_laplacian_annihilates_constants_exactly(self):
        for g in (Graph.path(5), Graph.ring(5), Graph.star(4)):
            L = g.laplacian()
            assert np.array_equal(L @ np.ones(g.n), np.zeros(g.n))
            assert np.array_equal(L, L.T)

    def test_connectivity_enforced(self):
        with pytest.raises(ValueError, match="connected"):
            Graph(4, ((0, 1), (2, 3)))

    def test_random_connected_deterministic(self):
        gs1 = GraphSequence.random(5, seed=3)
        gs2 = GraphSequence.random(5, seed=3)
        for t in range(6):
            assert gs1.at(t).edges == gs2.at(t).edges

    def test_random_connected_keeps_the_per_pair_draw_order(self):
        for n in (3, 5, 8):
            for seed in range(6):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert Graph.random_connected(n, rng).edges == reference_random_edges(n, ref)
                # rejected attempts consumed the same draws too
                assert rng.random() == ref.random()

    def test_random_sequence_pins_the_stream(self):
        # round t of seed s is the first connected draw of default_rng((s, t)),
        # one uniform per vertex pair in lexicographic order
        for n in (2, 3, 5, 8):
            for seed in (0, 11):
                gs = GraphSequence.random(n, seed)
                for t in range(200):
                    ref = reference_random_edges(n, np.random.default_rng((seed, t)))
                    assert gs.at(t).edges == ref

    def test_drawn_graph_equals_the_checked_graph(self):
        # random_connected skips the constructor's checks; the graph it
        # returns must be the one Graph(n, edges) would build and check
        for n in range(2, 9):
            for seed in range(8):
                g = Graph.random_connected(n, np.random.default_rng((n, seed)))
                ref = Graph(n, g.edges)
                assert g == ref and g.edges == ref.edges
                assert g.neighbors == ref.neighbors
                assert bitwise_equal(g.degrees, ref.degrees)
                assert bitwise_equal(g.laplacian(), ref.laplacian())
                for a, b in zip(g._index_pair(), ref._index_pair()):
                    assert bitwise_equal(a, b)
                X = np.random.default_rng(seed).standard_normal((n, 2))
                assert bitwise_equal(g.laplacian_apply(X), ref.laplacian_apply(X))

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
        rng = np.random.default_rng(0)
        for n, h in itertools.product((1, 2, 3, 4, 5, 8), (1, 3)):
            # the last graph's edges come reversed and unsorted, so the
            # constructor sorts them before the index pair reads them
            unsorted = (Graph(4, ((3, 0), (2, 1), (1, 0))),) if n == 4 else ()
            for g in (Graph.path(n), Graph.ring(n), Graph.star(n),
                      Graph.random_connected(n, rng)) + unsorted:
                X = rng.standard_normal((n, h))
                X[rng.random((n, h)) < 0.25] = 0.0
                X[rng.random((n, h)) < 0.25] = -0.0
                zeros = np.where(rng.random((n, h)) < 0.5, 0.0, -0.0)
                for Y in (X, zeros):
                    out = g.laplacian_apply(Y)
                    assert np.allclose(out, g.laplacian() @ Y, atol=1e-12)
                    assert bitwise_equal(out, reference_laplacian_apply(g, Y))
                    assert bitwise_equal(g.laplacian_apply(Y[:, 0]),
                                         reference_laplacian_apply(g, Y[:, 0]))
                    if h == 1:
                        assert bitwise_equal(_spread(Y), reference_spread(Y))
                    else:
                        assert _spread(Y) == pytest.approx(reference_spread(Y),
                                                           rel=1e-15, abs=0.0)
        # the pairwise norm squares each difference, so it overflows and
        # underflows: the extreme-pair spread must do the same
        for col in ([1e160, -1e160, 0.0], [1e-170, 0.0, -1e-171]):
            Y = np.array(col)[:, None]
            with np.errstate(over="ignore"):
                assert bitwise_equal(_spread(Y), reference_spread(Y))

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 0),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 5),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (1, 0), (1, 2)))
        # a label must be an integer, not a float or a string that compares
        # or truncates like one
        for bad in ((1, 2.0), (1, 1.5), (1, "2"), (1, None), (0, 1, 2), 5):
            with pytest.raises(ValueError, match="invalid edge"):
                Graph(3, ((0, 1), bad))
        assert Graph(3, ((np.int64(0), np.intp(1)), (1, 2))).edges == ((0, 1), (1, 2))
        with pytest.raises(ValueError, match="agent"):
            Graph.random_connected(0, np.random.default_rng(0))


class TestLocality:
    def test_non_neighbor_blocks_do_not_leak(self):
        g = Graph.path(5)   # agent 0 talks to agent 1 only
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 2))
        out = g.laplacian_apply(X)
        for value in (0.0, np.inf, np.nan):
            X_alt = X.copy()
            X_alt[3] = value
            out_alt = g.laplacian_apply(X_alt)
            assert bitwise_equal(out[:2], out_alt[:2])

    def test_one_round_locality_bitwise(self):
        g = Graph.path(5)
        rng = np.random.default_rng(2)
        centers = rng.standard_normal((5, 1))
        proxes = [quad_prox(c) for c in centers]
        X = rng.standard_normal((5, 1))
        cfg = SolveConfig(max_iterations=1, tolerance=1e-300)
        a, _ = run_distributed(proxes, GraphSequence.fixed(g), 0.1, 0.1, cfg, x0=X)
        for value in (7.0, np.inf, np.nan):
            X_alt = X.copy()
            X_alt[4] = value
            with np.errstate(invalid="ignore"):   # inf - inf in agent 4's rows
                b, _ = run_distributed(proxes, GraphSequence.fixed(g), 0.1, 0.1,
                                       cfg, x0=X_alt)
            assert a.iterations == b.iterations == 1
            # agent 4 is two hops from agent 0; one round cannot reach x_0,
            # and the dual block of agent 0 sees only neighbor primals
            assert bitwise_equal(a.block(0)[0], b.block(0)[0])
            assert bitwise_equal(a.block(1)[0], b.block(1)[0])


class TestRunDistributed:
    def test_single_agent_reduces_to_proximal_point(self):
        report, trace = run_distributed([quad_prox(2.5)],
                                        GraphSequence.fixed(Graph(1, ())),
                                        0.5, 0.5,
                                        SolveConfig(max_iterations=20000,
                                                    tolerance=1e-13))
        assert abs(report.block(0)[0] - 2.5) <= 1e-9
        assert trace[-1] == 0.0

    @pytest.mark.parametrize("n, make", [
        pytest.param(2, Graph.ring, id="2"),
        pytest.param(3, Graph.ring, id="3"),
        pytest.param(5, Graph.ring, id="5"),
        pytest.param(5, Graph.path, id="path-5"),
        pytest.param(5, Graph.star, id="star-5"),
    ])
    def test_fixed_graph_consensus_matches_centralized(self, n, make):
        rng = np.random.default_rng(10 + n)
        centers = rng.standard_normal((n, 1))
        proxes = [quad_prox(centers[i]) for i in range(n)]
        target = centralized_mean(centers)
        deg = 2.0 * max(1, n - 1)
        report, trace = run_distributed(proxes, GraphSequence.fixed(make(n)),
                                        0.9 / deg, 0.9 / deg,
                                        SolveConfig(max_iterations=100_000,
                                                    tolerance=1e-11))
        X = report.block(0).reshape(n, 1)
        assert trace[-1] < 1e-6
        for i in range(n):
            assert np.linalg.norm(X[i] - target) <= 1e-6

    def test_probe_entry_points_rebindable(self, monkeypatch):
        # a tracer rebinds these module names and the product on the class;
        # every round must call the product through the class, once
        assert callable(distributed.metric_norm)
        assert callable(distributed.operator_norm)
        calls = []
        product = Graph.laplacian_apply

        def counted(graph, X):
            calls.append(graph)
            return product(graph, X)

        monkeypatch.setattr(Graph, "laplacian_apply", counted)
        proxes = [quad_prox(c) for c in (1.0, -2.0, 0.5, 3.0, 0.0)]
        cfg = SolveConfig(max_iterations=3, tolerance=1e-300)
        for gs in (GraphSequence.fixed(Graph.ring(5)), GraphSequence.random(5, seed=2)):
            calls.clear()
            report, _ = run_distributed(proxes, gs, 0.1, 0.1, cfg)
            assert report.iterations == 3 and len(calls) == 3

    def test_run_loop_supplies_the_round_index(self):
        # the graph sequence sees t = 0, 1, ..., iterations - 1, once each,
        # in order
        seen = []

        def at(t):
            seen.append(t)
            return Graph.ring(4)

        proxes = [quad_prox(c) for c in (1.0, -2.0, 0.5, 3.0)]
        report, _ = run_distributed(proxes, GraphSequence(at=at, n=4), 0.2, 0.2,
                                    SolveConfig(max_iterations=25, tolerance=1e-300))
        assert report.iterations == 25 and seen == list(range(25))

    def test_consensual_start_is_fixed_point(self):
        c = 1.0
        proxes = [quad_prox(c) for _ in range(4)]
        x0 = np.full(4, c)
        report, trace = run_distributed(proxes, GraphSequence.fixed(Graph.ring(4)),
                                        0.2, 0.2,
                                        SolveConfig(max_iterations=100,
                                                    tolerance=1e-13),
                                        x0=x0)
        assert report.reason == "tolerance" and report.iterations == 1
        assert np.array_equal(report.z, np.concatenate([x0, np.zeros(4)]))
        assert trace == [0.0]

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
        # and above 1/lambda_max(star(5)) = 0.2; star(5) is round 1's graph.
        # gamma tau = 1 on ring(4) (lambda_max = 4) fails in round 0.
        centers = np.random.default_rng(5).standard_normal((5, 1))
        cases = [
            (GraphSequence.alternating(Graph.path(5), Graph.star(5)),
             np.sqrt(0.2326), "round 1"),
            (GraphSequence.fixed(Graph.ring(4)), 1.0, "round 0"),
        ]
        for gs, s, where in cases:
            proxes = [quad_prox(c) for c in centers[:gs.n]]
            with pytest.raises(ConfigurationError, match=where):
                run_distributed(proxes, gs, s, s,
                                SolveConfig(max_iterations=10, tolerance=1e-300))

    def test_round_graph_on_other_agents_rejected(self):
        # a larger round graph would leave its extra agents' blocks of z
        # unwritten, and a smaller one would misread the blocks
        proxes = [quad_prox(1.0), quad_prox(-1.0)]
        for at, where in ((lambda t: Graph.ring(4), "round 0"),
                          (lambda t: Graph.path(2) if t < 3 else Graph(1, ()), "round 3")):
            with pytest.raises(ConfigurationError, match=where):
                run_distributed(proxes, GraphSequence(at=at, n=2), 0.2, 0.2,
                                SolveConfig(max_iterations=10, tolerance=1e-300),
                                block_dim=2)

    def test_screened_round_check_matches_the_eigenvalue_test(self):
        # the screen passes a round with n <= 1/(2 gamma tau) unseen; every
        # verdict and message must equal the eigenvalue test's, on both sides
        # of 1/lambda_max (within 1e-12 included) and of the screen's n
        rng = np.random.default_rng(8)
        graphs = [make(n) for n in range(1, 9)
                  for make in (Graph.path, Graph.ring, Graph.star)]
        graphs += [Graph.random_connected(n, rng) for n in range(1, 9) for _ in range(3)]
        raised = passed = 0
        for g in graphs:
            lam = float(np.linalg.eigvalsh(g.laplacian())[-1]) if g.edges else 0.0
            limits = [2.0 * g.n, float(g.n)] + ([lam] if lam > 0 else [1.0])
            for limit in limits:
                for rel in (-1e-3, -1e-11, -1e-12, -2e-13, 0.0, 2e-13, 1e-12, 1e-11, 1e-3):
                    rhs = limit * (1.0 + rel)
                    for gamma in (1.0, 0.37, 1e-3):
                        tau = 1.0 / (rhs * gamma)
                        fresh = Graph(g.n, g.edges)
                        got = check_round_outcome(_check_round, fresh, gamma, tau, 4)
                        want = check_round_outcome(reference_check_round, g, gamma, tau, 4)
                        assert got == want, (g, gamma, tau)
                        raised += want is not None
                        passed += want is None
        assert raised > 100 and passed > 100

    def test_screened_round_needs_no_laplacian(self):
        # a round far inside the step condition passes on n alone
        g = Graph.random_connected(8, np.random.default_rng(0))
        _check_round(g, 0.1, 0.1, 0)
        assert "laplacian" not in g._cache and "norm_laplacian" not in g._cache
        _check_round(g, 0.3, 0.3, 0)
        assert "norm_laplacian" in g._cache

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
