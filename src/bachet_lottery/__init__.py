"""Equilibrium solver and convergence verifier for a misère take-away
game whose moves are lotteries over {1, ..., m}.

The root exports the library surface: a game, its solve, its checks and
the oracles.  Every other name is imported from its own module."""

from .analysis import deviation_series, drop_constants, run_checks
from .engine import payoff_kernel, solve
from .lotteries import GameSpec, compute_conditions, finite_set, truncated_simplex
from .oracles import SimConfig, brute_force_values, estimate_win_prob, one_shot_deviation_gap

__all__ = [
    "GameSpec",
    "SimConfig",
    "brute_force_values",
    "compute_conditions",
    "deviation_series",
    "drop_constants",
    "estimate_win_prob",
    "finite_set",
    "one_shot_deviation_gap",
    "payoff_kernel",
    "run_checks",
    "solve",
    "truncated_simplex",
]
