"""Network resilience assessment via shortest-path QoS degradation.

Given a directed graph with per-edge budget-to-weight tables, a pair set
and a threshold T, find a small total budget of weight increases under
which every target pair's shortest-path distance reaches T.
"""

from .at import block_adaptive
from .baselines import min_budget_to_block, oracle_opt, run_cc
from .errors import (ConfigError, GammaZeroError, InfeasibleBoxError, InvalidInstanceError,
                     IterationLimitError, NonlinearWeightsError, ParseError, QosdError, SolverTimeout,
                     StallError)
from .experiment import ExperimentConfig, derive_seed, parse_config, run_algorithm, run_experiment, rows_to_csv
from .framework import potential_paths, run_iterative
from .ig import block_greedy
from .instance import (Graph, QosdInstance, WeightFunction, build_weights, concave_ratio, generate_er,
                       load_edge_list, load_instance, make_er_instance, sample_pairs, save_instance)
from .lr import LpSolution, constraint_generation, eta, round_solution, run_lr, solve_lp
from .pathcore import BudgetVector, PathSupport, edge_lengths, pair_shortest_paths, prune, unseparated_pairs
from .report import Deadline, RunReport
from .sa import SaConfig, SampledPath, build_sp_tree, greedy_chunk, run_sa, sample_count, sample_path

__version__ = "0.1.0"
