"""Acceptance suite: one test per project acceptance criterion, each at its
pinned tolerance.  The terminal summary (conftest) prints one pass/fail line
per criterion."""

import csv
import math
import warnings

import numpy as np
import pytest

from splitmono.applications import (gen_entropy_ls, gen_erm_hinge,
                                    gen_lin_ineq_qp, erm_uniform_sigma_bound,
                                    solve_erm_incremental, solve_nlp)
from splitmono.cli import run_experiment, validate_config
from splitmono.distributed import Graph, GraphSequence, run_distributed
from splitmono.fbhf import (ConfigurationError, ConstantStep, LineSearch,
                            SolveConfig, chi, phi_z_profile, solve_fbhf,
                            solve_forward_backward, solve_tseng_fbf)
from splitmono.linalg import symmetric_min_eig
from splitmono.operators import (ClosedConvexSet, CocoerciveMap, MaximalMonotone,
                                 MonotoneMap, ProblemSpec, normal_cone_box,
                                 prox_abs_deviation, quadratic_gradient)
from splitmono.precond import (MetricSchedule, Preconditioner, resolvent_via_P,
                               solve_precond_fbhf, solve_variable_metric)
from splitmono.primal_dual import (BlockPreconditioner, CorollaryParams,
                                   DualBlock, PrimalDualProblem, check_pd_conditions,
                                   rho_v, solve_block_triangular, solve_condat_vu,
                                   solve_corollary)


def paper_ls_policy():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="theta=")
        return LineSearch(epsilon=0.88, sigma=0.9, theta=0.707)


def test_criterion_01_chi_formula():
    assert chi(1.0, 0.0) == 2.0
    assert chi(math.inf, 2.0) == 0.5
    assert abs(chi(1.0, 1.0) - 4.0 / (1.0 + math.sqrt(17.0))) <= 1e-12


def test_criterion_02_fejer_monotonicity():
    for seed in range(10):
        prob = gen_lin_ineq_qp(100, 10, seed=seed)
        spec = prob.saddle_spec()
        gamma = 0.99 * chi(prob.beta, prob.data["L"])
        z0 = prob.default_start()
        run = solve_fbhf(spec, ConstantStep(gamma=gamma),
                         SolveConfig(max_iterations=200_000, tolerance=1e-6,
                                     keep_iterates=True), z0)
        ref = solve_fbhf(spec, ConstantStep(gamma=gamma),
                         SolveConfig(max_iterations=10 * run.iterations,
                                     tolerance=1e-300), z0)
        dists = [np.linalg.norm(z - ref.z) for z in run.iterates]
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 1e-10, f"seed {seed}: distance uptick {b - a:.2e}"


def test_criterion_03_reduction_identities():
    # B2 absent, X = H: the main iteration coincides with forward-backward
    for seed in range(5):
        rng = np.random.default_rng(seed)
        A_mat = rng.standard_normal((6, 12))
        grad = quadratic_gradient(A_mat, rng.standard_normal(6))
        spec = ProblemSpec(A=normal_cone_box(np.zeros(12), np.ones(12)),
                          B1=grad, B2=None, X=ClosedConvexSet.whole_space(),
                          dimension=12)
        gamma = 0.9 * grad.beta
        cfg = SolveConfig(max_iterations=100, tolerance=1e-300,
                          keep_iterates=True)
        r1 = solve_fbhf(spec, ConstantStep(gamma=gamma), cfg)
        r2 = solve_forward_backward(spec, gamma, cfg)
        assert len(r1.iterates) == 101
        for a, b in zip(r1.iterates, r2.iterates):
            assert np.array_equal(a, b)
    # B1 absent: the main iteration coincides with the Tseng baseline
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        D = rng.standard_normal((3, 8))
        smap = MonotoneMap.from_matrix(
            np.block([[np.zeros((8, 8)), D.T], [-D, np.zeros((3, 3))]]))
        spec = ProblemSpec(A=normal_cone_box(-np.ones(11), np.ones(11)),
                          B1=None, B2=smap,
                          X=ClosedConvexSet.box(-2 * np.ones(11), 2 * np.ones(11)),
                          dimension=11)
        gamma = 0.9 / smap.lipschitz
        cfg = SolveConfig(max_iterations=100, tolerance=1e-300,
                          keep_iterates=True)
        r1 = solve_fbhf(spec, ConstantStep(gamma=gamma), cfg)
        r2 = solve_tseng_fbf(spec, ConstantStep(gamma=gamma), cfg)
        for a, b in zip(r1.iterates, r2.iterates):
            assert np.array_equal(a, b)


def test_criterion_04_resolvent_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        G = rng.standard_normal((5, 5))
        Sk = rng.standard_normal((5, 5))
        P = G.T @ G / 5 + 0.5 * np.eye(5) + (Sk - Sk.T) / 2
        pre = Preconditioner.from_matrix(P)
        assert pre.rho > 0
        Q = rng.standard_normal((5, 5))
        M_A = Q.T @ Q
        z = rng.standard_normal(5)
        got = resolvent_via_P(MaximalMonotone.from_matrix(M_A), pre, z)
        ref = np.linalg.solve(P + M_A, P @ z)
        assert np.linalg.norm(got - ref) <= 1e-9


def test_criterion_05_phi_profile_monotone():
    rng = np.random.default_rng(1)
    grid = np.logspace(-3, 1, 20)
    for _ in range(50):
        prob = gen_lin_ineq_qp(10, 2, seed=int(rng.integers(10_000)))
        spec = prob.saddle_spec()
        z = rng.standard_normal(12)
        z[10:] = np.abs(z[10:])
        vals = phi_z_profile(spec, z, grid)
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10


def test_criterion_06_head_to_head_ordering():
    cfg = SolveConfig(max_iterations=400_000, tolerance=1e-7)
    for seed in range(5):
        prob = gen_lin_ineq_qp(200, 20, seed=seed)
        beta, L = prob.beta, prob.data["L"]
        g_f = 3.99 * beta / (1.0 + math.sqrt(1.0 + 16.0 * beta * beta * L * L))
        g_t = 0.99 / (1.0 / beta + L)
        rf = solve_nlp(prob, ConstantStep(gamma=g_f), cfg)
        rt = solve_nlp(prob, ConstantStep(gamma=g_t), cfg, baseline="tseng")
        assert rf.b1_evals < rt.b1_evals, f"seed {seed}"
        of = prob.objective(rf.block(0))
        ot = prob.objective(rt.block(0))
        assert abs(of - ot) <= 1e-3 * max(1.0, abs(of), abs(ot)), f"seed {seed}"


def test_criterion_07_entropy_agreement():
    policy = paper_ls_policy()
    cfg = SolveConfig(max_iterations=500_000, tolerance=1e-9)
    for seed in range(5):
        prob = gen_entropy_ls(20, -0.4, seed=seed)
        rf = solve_nlp(prob, policy, cfg)
        rt = solve_nlp(prob, policy, cfg, baseline="tseng")
        of = prob.objective(rf.block(0))
        ot = prob.objective(rt.block(0))
        assert abs(of - ot) <= 1e-4 * max(1.0, abs(of), abs(ot)), f"seed {seed}"
        assert prob.max_constraint(rf.block(0)) <= 1e-5, f"seed {seed}"
        assert rf.b1_evals <= rt.b1_evals, f"seed {seed}"


def test_criterion_08_constraint_activity():
    policy = paper_ls_policy()
    cfg = SolveConfig(max_iterations=500_000, tolerance=1e-9)
    inactive = active = 0
    for seed in range(5):
        loose = gen_entropy_ls(20, -0.2, seed=seed)
        g = loose.max_constraint(solve_nlp(loose, policy, cfg).block(0))
        inactive += g < -1e-3
        tight = gen_entropy_ls(20, -0.8, seed=seed)
        g = tight.max_constraint(solve_nlp(tight, policy, cfg).block(0))
        active += abs(g) <= 1e-4
    assert inactive >= 4, f"constraint inactive on only {inactive}/5 seeds"
    assert active >= 4, f"constraint active on only {active}/5 seeds"


def test_criterion_09_primal_dual_constants():
    rng = np.random.default_rng(2)
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
    # the m = 1 comparison instance: strict dominance away from eta = 1
    alpha, sigma = 2.0, 0.4
    for eta in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.05, 1.1, 1.2):
        assert 0.0 < eta < 1.0 / (alpha * sigma)
        sig = (eta * eta * sigma, sigma)
        rho = symmetric_min_eig(CorollaryParams(theta=1.0, sigmas=sig).omega([alpha]))
        assert rho > rho_v(1.0, sig, [alpha]) + 1e-12, f"eta={eta}"


def _lasso_instance(seed, dim=6, rows=4):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
    b = rng.standard_normal(dim)
    L1 = rng.standard_normal((rows, dim))
    r1 = 0.1 * rng.standard_normal(rows)

    def soft(weight):
        return MaximalMonotone(
            resolvent=lambda g, y, w=weight: np.sign(y) * np.maximum(
                np.abs(y) - w * g, 0.0))

    blk = DualBlock(B=soft(0.5), L=L1, r=r1)
    return PrimalDualProblem(A=soft(0.1), C1=quadratic_gradient(G, b), C2=None,
                             blocks=(blk,), dim=dim)


def _feasible_sigma(pdp, theta):
    norm_l = pdp.norms_L()[0]
    half_inv_beta = 0.0 if math.isinf(pdp.beta) else 1.0 / (2.0 * pdp.beta)
    rho_target = half_inv_beta + norm_l + 1.0
    return 1.0 / (rho_target + (1.0 + theta) / 2.0 * norm_l)


def test_criterion_10_cross_solver_agreement():
    # part 1: the corollary pattern reproduces the block-triangular sweep
    pdp = _lasso_instance(0)
    theta = 0.5
    s = _feasible_sigma(pdp, theta)
    lam = 0.5 / (1.0 / s + (1.0 + theta) / 2.0 * pdp.norms_L()[0])
    cfg = SolveConfig(max_iterations=60, tolerance=1e-300, keep_iterates=True)
    bp = BlockPreconditioner.corollary_pattern(theta, (s, s), pdp)
    r1 = solve_block_triangular(pdp, bp, lam, cfg)
    r2 = solve_corollary(pdp, CorollaryParams(theta=theta, sigmas=(s, s),
                                              lam=lam), cfg)
    for a, b in zip(r1.iterates, r2.iterates):
        assert np.array_equal(a, b)
    # part 2: theta sweep and the Condat-Vu baseline share the primal point
    cfg = SolveConfig(max_iterations=500_000, tolerance=1e-11)
    for seed in range(5):
        pdp = _lasso_instance(10 + seed)
        norm_l = pdp.norms_L()[0]
        sols = []
        for theta in (-1.0, 0.0, 1.0):
            s = _feasible_sigma(pdp, theta)
            r = solve_corollary(pdp, CorollaryParams(theta=theta,
                                                     sigmas=(s, s)), cfg)
            sols.append(r.block(0))
        sigma_bar = 0.05
        tau = 1.0 / (1.0 / (2.0 * pdp.beta) + sigma_bar * norm_l ** 2)
        cv = solve_condat_vu(pdp, tau=tau, sigmas=sigma_bar, cfg=cfg)
        ref = cv.block(0)
        for x in sols:
            assert np.linalg.norm(x - ref) <= 1e-5 * (1.0 + np.linalg.norm(ref)), \
                f"seed {seed}"


def _product_space_step(pdp, bp, lam):
    """The variable-metric no-inversion step on the primal-dual product space,

        z+ = z + lam (P (x - z) + B2 z - B2 x),
        x  = J_{P^{-1} A}(z - P^{-1} (B1 + B2) z),

    with A the product of the primal operator and the B_i^{-1} + r_i,
    B1 (x, u) = (C1 x, 0), B2 (x, u) = (K^T u, -K x) and P the full matrix of
    the block preconditioner (instances without D_i^{-1} or C2)."""
    assert pdp.C2 is None and all(blk.D_inv is None for blk in pdp.blocks)
    d, K = pdp.dim, pdp.K
    n = d + K.shape[0]
    spans = [slice(0, d)] + [slice(d + sl.start, d + sl.stop) for sl in pdp.rows]
    P = np.zeros((n, n))
    for i, rows in enumerate(spans):
        P[rows, rows] = bp.diag_scalars[i] * np.eye(rows.stop - rows.start)
        for j in range(i):
            if bp.block(i, j) is not None:
                P[rows, spans[j]] = bp.block(i, j)
    pre = Preconditioner.from_matrix(P)

    def dual_operator(blk):
        r = 0.0 if blk.r is None else blk.r
        return MaximalMonotone(resolvent=lambda g, w: blk.dual_resolvent(g, w - g * r))

    A = MaximalMonotone.product([(MaximalMonotone(resolvent=pdp.primal_resolvent), d)]
                                + [(dual_operator(blk), blk.dim) for blk in pdp.blocks])

    def B2(z):
        return np.concatenate([K.T @ z[d:], -K @ z[:d]])

    def B(z):
        out = B2(z)
        if pdp.C1 is not None:
            out[:d] += pdp.C1.evaluate(z[:d])
        return out

    def step(z):
        x = resolvent_via_P(A, pre, z - pre.solve_P(B(z)))
        return z + lam * (P @ (x - z) + B2(z) - B2(x))

    return step


def _assert_sweep_is_product_space_step(pdp, bp, iterations, seed):
    lam = 0.99 / check_pd_conditions(bp, [blk.L for blk in pdp.blocks], pdp.delta,
                                     pdp.beta).M
    z = np.random.default_rng(seed).standard_normal(pdp.layout.dim)
    cfg = SolveConfig(max_iterations=iterations, tolerance=1e-300, keep_iterates=True)
    sweep = solve_block_triangular(pdp, bp, lam, cfg, z).iterates
    assert len(sweep) == iterations + 1
    step = _product_space_step(pdp, bp, lam)
    for k, ref in enumerate(sweep[1:], start=1):
        z = step(z)
        assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref), f"iteration {k}"


def test_block_triangular_sweep_is_the_variable_metric_step():
    # the Gauss-Seidel primal-dual sweep is the preconditioned iteration on
    # the product space with the block-lower-triangular P: criterion 10's
    # lasso instances over the theta range, and the hinge ERM at theta = 1,
    # at m = 15 and at criterion 11's m = 50.  At theta = -1 with equal steps
    # P is Id/s, so resolvent_via_P takes its scalar route; every other case
    # takes forward substitution.
    for seed in range(3):
        pdp = _lasso_instance(seed)
        for theta in (-1.0, 0.0, 0.5, 1.0):
            s = _feasible_sigma(pdp, theta)
            bp = BlockPreconditioner.corollary_pattern(theta, (s, s), pdp)
            _assert_sweep_is_product_space_step(pdp, bp, 500, seed)
    for d, m, seed, iterations in ((6, 15, 0, 200), (20, 50, 3, 100)):
        pdp = gen_erm_hinge(d, m, seed).as_primal_dual()
        bp = BlockPreconditioner.corollary_pattern(1.0, (0.1,) * (m + 1), pdp)
        _assert_sweep_is_product_space_step(pdp, bp, iterations, 0)


def test_criterion_11_erm():
    # analytic two-sample instance
    from splitmono.applications import ErmProblem

    b = np.array([0.7, -1.3])
    analytic = ErmProblem(a=np.eye(2),
                          proxes=(prox_abs_deviation(b[0]),
                                  prox_abs_deviation(b[1])),
                          values=(lambda t: abs(t - b[0]),
                                  lambda t: abs(t - b[1])))
    sigma = 0.99 * erm_uniform_sigma_bound(2)
    r = solve_erm_incremental(analytic, [sigma], None,
                              SolveConfig(max_iterations=500_000,
                                          tolerance=1e-12))
    assert np.linalg.norm(r.block(0) - b) <= 1e-6
    # the sigma bound is enforced exactly
    with pytest.raises(ConfigurationError):
        solve_erm_incremental(analytic, [erm_uniform_sigma_bound(2)], None,
                              SolveConfig(max_iterations=10, tolerance=1e-9))
    # d = 20, m = 50 against the cross-solver oracle
    d, m = 20, 50
    prob = gen_erm_hinge(d, m, seed=3)
    sig = 0.99 * erm_uniform_sigma_bound(m)
    run = solve_erm_incremental(prob, [sig], None,
                                SolveConfig(max_iterations=150_000,
                                            tolerance=1e-5))
    obj = prob.objective(run.block(0))
    oracle = solve_corollary(prob.as_primal_dual(),
                             CorollaryParams(theta=1.0, sigmas=(0.1,) * (m + 1)),
                             SolveConfig(max_iterations=150_000,
                                         tolerance=1e-5))
    obj_ref = prob.objective(oracle.block(0))
    assert abs(obj - obj_ref) <= 1e-4 * max(1.0, abs(obj_ref))


def _quad_prox(center):
    c = np.atleast_1d(np.asarray(center, dtype=float))
    return lambda gamma, v: (v + gamma * c) / (1.0 + gamma)


def _centralized(centers):
    centers = np.asarray(centers, dtype=float).reshape(len(centers), -1)
    n, h = centers.shape
    grad = CocoerciveMap(evaluate=lambda x: sum(x - centers[i] for i in range(n)),
                         beta=1.0 / n)
    spec = ProblemSpec(A=MaximalMonotone.zero(), B1=grad, B2=None,
                      X=ClosedConvexSet.whole_space(), dimension=h)
    return solve_fbhf(spec, ConstantStep(),
                      SolveConfig(max_iterations=100_000, tolerance=1e-13)).z


def test_criterion_12_distributed_consensus():
    """Fixed, alternating and seeded-random graph sequences at n in {2,3,5}
    must reach consensus (< 1e-6) at the centralized solution (< 1e-6), and
    Laplacian products must be neighbor-local bitwise.

    The solver iterates on w = L y rather than the dual y, so every round
    shares the fixed point (consensual x*, w_i* = -grad f_i(x*)) whatever
    the graph, and the alternating and random sequences converge like the
    fixed one.
    """
    # locality, bitwise
    g = Graph.path(5)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 2))
    for value in (0.0, np.inf, np.nan):
        X_alt = X.copy()
        X_alt[3] = value
        assert g.laplacian_apply(X)[:2].tobytes() == g.laplacian_apply(X_alt)[:2].tobytes()

    failures = []
    for n in (2, 3, 5):
        rng = np.random.default_rng(40 + n)
        centers = rng.standard_normal((n, 1))
        proxes = [_quad_prox(centers[i]) for i in range(n)]
        target = _centralized(centers)
        deg = 2.0 * max(1, n - 1)
        s = 0.9 / deg
        sequences = {
            "fixed": GraphSequence.fixed(Graph.ring(n)),
            "alternating": GraphSequence.alternating(Graph.path(n),
                                                     Graph.star(n)),
            "random": GraphSequence.random(n, seed=n),
        }
        for name, gs in sequences.items():
            report, trace = run_distributed(proxes, gs, s, s,
                                            SolveConfig(max_iterations=30_000,
                                                        tolerance=1e-11))
            X = report.block(0).reshape(n, 1)
            consensus = trace[-1]
            dist = max(float(np.linalg.norm(X[i] - target)) for i in range(n))
            if consensus >= 1e-6 or dist >= 1e-6:
                failures.append(f"n={n} {name}: consensus={consensus:.2e} "
                                f"dist={dist:.2e}")
    assert not failures, "; ".join(failures)


def test_criterion_13_variable_metric():
    for seed in range(5):
        rng = np.random.default_rng(50 + seed)
        n = 4
        Sk = rng.standard_normal((n, n))
        B2m = 0.1 * (Sk - Sk.T) / 2
        b = rng.standard_normal(n)
        spec = ProblemSpec(A=MaximalMonotone.from_matrix(0.5 * np.eye(n)),
                          B1=CocoerciveMap(evaluate=lambda x, bb=b: x - bb,
                                           beta=1.0),
                          B2=MonotoneMap.from_matrix(B2m),
                          X=ClosedConvexSet.whole_space(), dimension=n)
        G = rng.standard_normal((n, n))
        U = G.T @ G / 8 + 1.5 * np.eye(n)
        Sp = 0.05 * rng.standard_normal((n, n))
        pre = Preconditioner.from_matrix(U + (Sp - Sp.T) / 2, b2_matrix=B2m)
        cfg = SolveConfig(max_iterations=500_000, tolerance=1e-12)
        r_vm = solve_variable_metric(spec, MetricSchedule.constant(pre), cfg)
        r_pc = solve_precond_fbhf(spec, pre, cfg)
        assert np.linalg.norm(r_vm.z - r_pc.z) <= 1e-8, f"seed {seed}"
    # the per-iteration checker rejects a schedule that breaks the condition
    bad = Preconditioner.from_matrix(0.01 * np.eye(4), b2_matrix=B2m)
    sched = MetricSchedule(at=lambda k: bad if k == 2 else pre,
                           norm_sup=pre.norm_U)
    with pytest.raises(ConfigurationError, match="P_2"):
        solve_variable_metric(spec, sched,
                              SolveConfig(max_iterations=10, tolerance=1e-300))


CLI_CONFIG = """\
[experiment]
kind = lin-ineq
n = 20
p = 2
seeds = 0,1
tolerance = 1e-6
max_iterations = 200000

[solver fbhf]
delta = 3.99

[solver tseng]
delta = 0.99

[solver fbhf-ls]
theta = 0.316
epsilon = 0.88
sigma = 0.9

[solver condat-vu]
sigma_bar = 0.0008
"""


def test_criterion_14_cli_determinism(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(CLI_CONFIG)
    cfg, diags = validate_config(path)
    assert not diags
    assert run_experiment(cfg, tmp_path / "a") == 0
    assert run_experiment(cfg, tmp_path / "b") == 0

    def strip_time(path):
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[6] = "t"
        return rows

    a = strip_time(tmp_path / "a" / "report.csv")
    b = strip_time(tmp_path / "b" / "report.csv")
    assert a == b

    with (tmp_path / "a" / "report.csv").open(newline="") as fh:
        for rec in csv.DictReader(fh):
            iters = int(rec["iterations"])
            b1 = int(rec["b1-evals"])
            backtracks = int(rec["backtracks"])
            assert rec["status"] == "tolerance"
            if rec["solver"] in ("fbhf", "fbhf-ls", "condat-vu"):
                assert b1 == iters, rec["solver"]
            elif rec["solver"] == "tseng":
                assert b1 == 2 * iters
            elif rec["solver"] == "tseng-ls":
                assert b1 == 2 * iters + backtracks
