"""Constrained k-median / k-means clustering with outliers.

The central entry point is :func:`outlier_reduce.reduction.run_reduction`,
which converts an instance with an outlier budget into a family of
outlier-free constrained instances, solves each with a pluggable solver,
and returns the best feasible solution. Brute-force oracles for desk-scale
verification live in :mod:`outlier_reduce.oracle`.
"""

from .baseline import AnchorSet, anchor_cost_of, solve_unconstrained
from .bmatching import (BMatchingInfeasible, BMatchingProblem,
                        BMatchingSolution, prune_left, solve_bmatching)
from .instance import (ClusteringInstance, ConstraintSpec, Solution,
                       check, cost, instance_from_dict, load_instance,
                       validate_solution)
from .metric import MetricSpace
from .oracle import OracleBudget, exact_outlier_opt, ulam_bfs
from .reduction import (ReductionConfig, ReductionInfeasible, ReductionResult,
                        run_reduction)
from .sampling import dz_sample, exhaustive_pool, sample_size
from .solvers import (OutlierFreeProblem, SolverPlugin, SolverResult,
                      assign_given_centers, get_plugin, solve_exact,
                      solve_local_search)

__version__ = "0.1.0"
