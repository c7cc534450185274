"""Independent validation of the equilibrium engine.

Two routes that never touch the backward-induction maximization or its
tie rule: Monte-Carlo play of the actual game under the engine's policy,
and exhaustive enumeration of stationary pure profiles on small instances
with a one-shot-deviation optimality filter.  Both share only the
one-step payoff, `payoff_kernel` and `payoffs`, with the engine.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .engine import ValueTable, payoff_kernel, payoffs
from .errors import InstanceTooLargeError
from .lotteries import GameSpec

# a profile stays one-shot optimal while no deviation gains more than this
OPTIMALITY_TOL = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo setup: both players follow the table's argmax policy."""

    table: ValueTable
    n: int
    replications: int
    seed: int

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not (1 <= self.n <= self.table.n):
            raise ValueError(f"n={self.n} outside the solved range 1..{self.table.n}")


@dataclass(frozen=True)
class SimResult:
    wins_first_player: int
    replications: int
    p_hat: float
    std_err: float


def estimate_win_prob(cfg: SimConfig) -> SimResult:
    """Estimate the first player's win probability by replicated play.

    Randomness comes from a counter-based Philox stream keyed by the
    seed; replication r consumes row r of the (R x n) uniform draw
    matrix, so results are reproducible and independent of evaluation
    order.  A game over n objects ends within n moves.
    """
    vt, n, R = cfg.table, cfg.n, cfg.replications
    # cumulative move probabilities of the policy at pile size k, row k - 1
    cum = np.cumsum([c.probs for c in vt.candidates], axis=1)[vt.argmax_index[:n]]
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    draws = rng.random((R, n))

    pile = np.full(R, n, dtype=np.int64)
    alive = np.arange(R)
    wins = 0
    for t in range(n):
        if alive.size == 0:
            break
        u = draws[alive, t]
        take = 1 + (u[:, None] >= cum[pile[alive] - 1]).sum(axis=1)
        np.minimum(take, vt.m, out=take)
        ends = take >= pile[alive]
        if t % 2:
            wins += int(ends.sum())
        alive = alive[~ends]
        pile[alive] -= take[~ends]
    p_hat = wins / R
    return SimResult(
        wins_first_player=wins,
        replications=R,
        p_hat=p_hat,
        std_err=math.sqrt(p_hat * (1.0 - p_hat) / R),
    )


def one_shot_deviation_gap(vt: ValueTable) -> float:
    """Largest gain any single-state deviation achieves against the
    engine's policy; non-positive (up to round-off) iff the policy is
    subgame perfect."""
    vals = np.array(payoffs(vt.candidates, vt.p_ext))
    own = vals[vt.argmax_index, np.arange(vt.n)]
    return float((vals - own).max())


def brute_force_values(spec: GameSpec) -> dict[int, float]:
    """Equilibrium values by exhaustive profile enumeration.

    Enumerates every stationary pure profile (pile size -> candidate
    index), keeps those that are one-shot-deviation optimal at every pile
    size, and returns for each k the maximum value among surviving
    profiles.  Deliberately avoids the engine's maximization step.
    """
    cands = spec.K.lotteries
    if len(cands) > 4 or spec.n > 12:
        raise InstanceTooLargeError(
            f"brute force limited to |K| <= 4 and n <= 12, got |K|={len(cands)}, n={spec.n}"
        )
    m, n = spec.m, spec.n
    kernel = payoff_kernel(cands)
    result: dict[int, float] = {}
    any_profile = False
    for profile in itertools.product(range(len(cands)), repeat=n):
        v = [1.0] * m + [0.0] * n
        optimal = True
        for k in range(1, n + 1):
            a = k + m - 1
            vals = kernel(*v[a - m : a])  # v_{k-m}..v_{k-1}
            chosen = vals[profile[k - 1]]
            if chosen < max(vals) - OPTIMALITY_TOL:
                optimal = False
                break
            v[a] = chosen
        if not optimal:
            continue
        any_profile = True
        for k in range(1, n + 1):
            val = v[k + m - 1]
            if k not in result or val > result[k]:
                result[k] = val
    assert any_profile, "no one-shot-optimal profile found; enumeration is broken"
    return result
