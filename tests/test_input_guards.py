"""Every step, relaxation and metric parameter of the public entry points,
and every label of a scalar prox, rejects NaN, +inf and -inf with a
ValueError (ConfigurationError is one) before any iteration, and every
solver but the distributed simulator rejects a NaN or infinite start.  A
guard written ``x <= 0`` lets NaN through, so a new one fails here.  The
solves below run on oracles that fail the test when called, so a value that
slipped past its check cannot pass as a run."""

import math

import numpy as np
import pytest

from splitmono import distributed
from splitmono.applications import (ErmProblem, NlpProblem, check_erm_steps,
                                    erm_uniform_sigma_bound, gen_erm_hinge,
                                    solve_erm_incremental, solve_nlp)
from splitmono.fbhf import (ConfigurationError, ConstantStep, LineSearch, SolveConfig,
                            check_step, fbhf_step, phi_z_profile, solve_fbhf,
                            solve_forward_backward, solve_tseng_fbf)
from splitmono.operators import (ClosedConvexSet, CocoerciveMap, MaximalMonotone, ProblemSpec,
                                 affine_constraints, prox_abs_deviation, prox_hinge)
from splitmono.precond import (MetricSchedule, Preconditioner, solve_precond_fbhf,
                               solve_variable_metric)
from splitmono.primal_dual import (BlockPreconditioner, CorollaryParams, DualBlock,
                                   PrimalDualProblem, check_condat_vu, solve_block_triangular,
                                   solve_condat_vu, solve_corollary)


def never(*args):
    raise AssertionError("an oracle ran: the parameter was not checked before iterating")


ONE_STEP = SolveConfig(max_iterations=1, tolerance=1e-9)
# B1 = x - 1 with beta = 1, no B2: the bounds are chi = 2, Tseng = 1 and fb = 2
SPEC = ProblemSpec(A=MaximalMonotone.zero(),
                   B1=CocoerciveMap(evaluate=lambda x: x - 1.0, beta=1.0), B2=None,
                   X=ClosedConvexSet.whole_space(), dimension=1)
# P = 2 Id runs the scalar route, whose first call is A's resolvent
NEVER_SPEC = ProblemSpec(A=MaximalMonotone(resolvent=never), B1=None, B2=None,
                         X=ClosedConvexSet.whole_space(), dimension=2)
PRE = Preconditioner.from_matrix(2.0 * np.eye(2))
PDP = PrimalDualProblem(A=MaximalMonotone(resolvent=never), C1=None, C2=None,
                        blocks=(DualBlock(B=MaximalMonotone(resolvent=never), L=[[1.0]]),),
                        dim=1)
ERM = gen_erm_hinge(3, 4, 0)
SIGMA = 0.5 * erm_uniform_sigma_bound(ERM.m)
GRAPHS = distributed.GraphSequence.fixed(distributed.Graph.ring(3))
PROXES = [never] * 3
LS = {"epsilon": 0.5, "sigma": 0.5, "theta": 0.3}

ENTRY_POINTS = {
    **{f"ConstantStep.gamma[{method}, unchecked={unchecked}]":
       (lambda v, m=method, u=unchecked: check_step(SPEC, ConstantStep(gamma=v, unchecked=u), m))
       for method in ("fbhf", "tseng", "fb") for unchecked in (False, True)},
    **{f"LineSearch.{key}": (lambda v, k=key: LineSearch(**{**LS, k: v}))
       for key in ("epsilon", "sigma", "theta", "gamma_init")},
    "SolveConfig.tolerance": lambda v: SolveConfig(tolerance=v),
    "SolveConfig.max_iterations": lambda v: SolveConfig(max_iterations=v),
    "fbhf_step.gamma": lambda v: fbhf_step(SPEC, np.zeros(1), v),
    "phi_z_profile.gamma_grid": lambda v: phi_z_profile(SPEC, np.zeros(1), [1.0, v]),
    "check_erm_steps.sigmas": lambda v: check_erm_steps(ERM, [v], None),
    "check_erm_steps.lam": lambda v: check_erm_steps(ERM, [SIGMA], v),
    "check_condat_vu.tau": lambda v: check_condat_vu(PDP, v, 0.5),
    "check_condat_vu.sigmas": lambda v: check_condat_vu(PDP, 0.5, [v]),
    "distributed.check_steps.gamma": lambda v: distributed.check_steps(PROXES, GRAPHS, v, 0.1),
    "distributed.check_steps.tau": lambda v: distributed.check_steps(PROXES, GRAPHS, 0.1, v),
    "CorollaryParams.theta": lambda v: CorollaryParams(theta=v, sigmas=(0.4, 0.4)),
    "CorollaryParams.sigmas": lambda v: CorollaryParams(theta=0.0, sigmas=(0.4, v)),
    "CorollaryParams.lam": lambda v: solve_corollary(
        PDP, CorollaryParams(theta=0.0, sigmas=(0.4, 0.4), lam=v), ONE_STEP),
    "BlockPreconditioner.diag_scalars": lambda v: BlockPreconditioner((1.0, v), {}),
    "BlockPreconditioner.off_diag": lambda v: BlockPreconditioner(
        (1.0, 1.0), {(1, 0): np.array([[v]])}),
    "Preconditioner.from_matrix.lipschitz_K": lambda v: Preconditioner.from_matrix(
        np.eye(2), lipschitz_K=v),
    "MetricSchedule.norm_sup": lambda v: MetricSchedule(at=lambda k: PRE, norm_sup=v),
    "MetricSchedule.epsilon": lambda v: MetricSchedule.constant(PRE, epsilon=v),
    "MetricSchedule.lambdas": lambda v: solve_variable_metric(
        NEVER_SPEC, MetricSchedule.constant(PRE, lambdas=lambda k: v), ONE_STEP),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_parameter_rejected_before_iterating(entry, value):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("make", [prox_hinge, prox_abs_deviation],
                         ids=["prox_hinge", "prox_abs_deviation"])
def test_non_finite_prox_label_rejected(make, value):
    # a NaN label made the prox return NaN, an infinite one ignored the label
    with pytest.raises(ValueError, match="label must be finite"):
        make(value)


@pytest.mark.parametrize("value", [0.1, np.float64(0.1), np.array(0.1), [0.1]],
                         ids=["float", "float64", "0-d array", "1-element list"])
def test_one_uniform_step_is_repeated(value):
    # a 0-d array raised TypeError in both checks, and a float in check_erm_steps
    pdp = ERM.as_primal_dual()
    assert check_condat_vu(pdp, 0.5, value) == [0.1] * pdp.m
    assert check_erm_steps(ERM, value, None)[0] == [0.1] * (ERM.m + 1)


@pytest.mark.parametrize("value", [math.nan, 0.0, -0.1, np.float64(math.nan), np.array(-0.1)],
                         ids=["nan", "zero", "negative", "float64-nan", "0-d-negative"])
@pytest.mark.parametrize("check", [lambda v: check_condat_vu(ERM.as_primal_dual(), 0.5, v),
                                   lambda v: check_erm_steps(ERM, v, None)],
                         ids=["check_condat_vu", "check_erm_steps"])
def test_a_bad_uniform_step_is_rejected(check, value):
    with pytest.raises(ConfigurationError, match="positive"):
        check(value)


COUNTS = {
    "SolveConfig.max_iterations": lambda v: SolveConfig(max_iterations=v).max_iterations,
    "LineSearch.max_backtracks": lambda v: LineSearch(**LS, max_backtracks=v).max_backtracks,
}


def test_preconditioner_takes_one_source_of_K():
    # a K computed from b2_matrix used to replace the given one silently
    with pytest.raises(ValueError, match="b2_matrix or lipschitz_K, not both"):
        Preconditioner.from_matrix(2.0 * np.eye(2), b2_matrix=np.zeros((2, 2)),
                                   lipschitz_K=5.0)


@pytest.mark.parametrize("value", [2.5, 2.0, "3", None], ids=["2.5", "2.0", "str", "None"])
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_non_integral_count_rejected(entry, value):
    # range() would raise TypeError on the first iteration of the solve
    with pytest.raises(ValueError, match="integer count"):
        COUNTS[entry](value)


@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3)], ids=["int", "int64", "int32"])
@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_integer_count_accepted_as_int(entry, value):
    count = COUNTS[entry](value)
    assert count == 3 and type(count) is int


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_count_below_one_rejected(entry):
    with pytest.raises(ValueError, match=">= 1"):
        COUNTS[entry](0)


def run_distributed(**kwargs):
    return distributed.run_distributed(PROXES, GRAPHS, 0.1, 0.1, ONE_STEP, **kwargs)


@pytest.mark.parametrize("value", [2.5, 2.0, "3", None], ids=["2.5", "2.0", "str", "None"])
def test_distributed_block_dim_must_be_an_integer_count(value):
    with pytest.raises(ValueError, match="block_dim = .* must be an integer count"):
        run_distributed(block_dim=value)


@pytest.mark.parametrize("value", [0, -1])
def test_distributed_block_dim_below_one_rejected(value):
    with pytest.raises(ValueError, match="block_dim must be >= 1"):
        run_distributed(block_dim=value)


@pytest.mark.parametrize("x0, block_dim", [(np.zeros(2), 1), (np.zeros(4), 1),
                                           (np.zeros(3), 2), (np.zeros((3, 1)), 2)],
                         ids=["short", "long", "short-blocks", "short-matrix"])
def test_distributed_start_of_wrong_dimension_rejected(x0, block_dim):
    with pytest.raises(ValueError, match="starting point has the wrong dimension"):
        run_distributed(x0=x0, block_dim=block_dim)


# every oracle fails the test when called; B1 = never with beta = 1 gives
# every constant-step method a bound, and an accepted start would call it
NEVER_B1_SPEC = ProblemSpec(A=MaximalMonotone(resolvent=never),
                            B1=CocoerciveMap(evaluate=never, beta=1.0), B2=None,
                            X=ClosedConvexSet.whole_space(), dimension=2)
NEVER_ERM = ErmProblem(a=ERM.a, proxes=(never,) * ERM.m, values=ERM.values)
NEVER_NLP = NlpProblem(f=MaximalMonotone(resolvent=never),
                       h=CocoerciveMap(evaluate=never, beta=1.0),
                       constraints=affine_constraints(np.ones((1, 1))),
                       Y=ClosedConvexSet.whole_space(), dim=1)

# (dimension of the start, solve from that start)
STARTS = {
    "fbhf": (2, lambda z0: solve_fbhf(NEVER_B1_SPEC, ConstantStep(), ONE_STEP, z0)),
    "tseng": (2, lambda z0: solve_tseng_fbf(NEVER_B1_SPEC, ConstantStep(), ONE_STEP, z0)),
    "forward-backward": (2, lambda z0: solve_forward_backward(NEVER_B1_SPEC, 1.0, ONE_STEP,
                                                              z0)),
    "precond": (2, lambda z0: solve_precond_fbhf(NEVER_SPEC, PRE, ONE_STEP, z0)),
    "variable-metric": (2, lambda z0: solve_variable_metric(
        NEVER_SPEC, MetricSchedule.constant(PRE), ONE_STEP, z0)),
    "block-triangular": (2, lambda z0: solve_block_triangular(
        PDP, BlockPreconditioner.corollary_pattern(0.0, 0.4, PDP), None, ONE_STEP, z0)),
    "corollary": (2, lambda z0: solve_corollary(
        PDP, CorollaryParams(theta=0.0, sigmas=(0.4, 0.4)), ONE_STEP, z0)),
    "condat-vu": (2, lambda z0: solve_condat_vu(PDP, 0.5, 0.5, ONE_STEP, z0)),
    "erm": (ERM.d + ERM.m, lambda z0: solve_erm_incremental(NEVER_ERM, [SIGMA], None,
                                                            ONE_STEP, z0)),
    "nlp": (2, lambda z0: solve_nlp(NEVER_NLP, ConstantStep(), ONE_STEP, z0)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solver", sorted(STARTS))
def test_non_finite_start_rejected_before_iterating(solver, value):
    # solve_fbhf used to run one iteration from a NaN start and stop diverged
    dim, solve = STARTS[solver]
    z0 = np.zeros(dim)
    z0[-1] = value
    with pytest.raises(ValueError, match="starting point has non-finite entries"):
        solve(z0)
