"""Operator-splitting solvers for three-operator monotone inclusions.

The core iteration handles 0 in A x + B1 x + B2 x over a constraint set by
evaluating the cocoercive part once and the monotone-Lipschitz (or merely
continuous) part twice per step.  Preconditioned, variable-metric,
primal-dual, incremental and distributed variants build on it, together
with forward-backward / Tseng / Condat-Vu baselines and a benchmark CLI.
"""

from .linalg import (BlockLayout, operator_norm, split_symmetric_skew,
                     symmetric_min_eig)
from .operators import (ClosedConvexSet, CocoerciveMap, MaximalMonotone,
                        MonotoneMap, ProblemSpec, SmoothConstraint,
                        affine_constraints, entropy_constraint,
                        lagrangian_saddle_map, normal_cone_box, quadratic_gradient)
from .fbhf import (ConfigurationError, ConstantStep, LineSearch, LineSearchError,
                   SolveConfig, SolveReport, chi, fbhf_step, phi_z_profile,
                   solve_fbhf, solve_forward_backward, solve_tseng_fbf)
from .precond import (MetricSchedule, Preconditioner, resolvent_via_P,
                      solve_precond_fbhf, solve_variable_metric)
from .primal_dual import (BlockPreconditioner, CorollaryParams, DualBlock,
                          PrimalDualProblem, build_upsilon_sigma_delta,
                          check_pd_conditions, kkt_residual, rho_v,
                          solve_block_triangular, solve_condat_vu,
                          solve_corollary)
from .applications import (ErmProblem, NlpProblem, erm_condition,
                           erm_uniform_sigma_bound, gen_entropy_ls,
                           gen_erm_hinge, gen_lin_ineq_qp,
                           solve_erm_incremental, solve_nlp)
from .distributed import Graph, GraphSequence, run_distributed

__version__ = "0.1.0"
