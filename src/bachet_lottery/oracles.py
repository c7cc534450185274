"""Independent validation of the equilibrium engine.

Two routes that never touch the backward-induction maximization or the
choice among its tied moves: Monte-Carlo play of the actual game under
the engine's policy, and exhaustive enumeration of stationary pure
profiles on small instances with a one-shot-deviation optimality filter.
Both take from the engine only `payoff_kernel` and `payoffs`, which
share no text with its loop.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .engine import ValueTable, payoff_kernel, payoffs
from .errors import InstanceTooLargeError
from .lotteries import GameSpec

# a profile stays one-shot optimal while no deviation gains more than this
OPTIMALITY_TOL = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo setup: both players follow the table's argmax policy.

    ``n``, ``replications`` and ``seed`` are integers, numpy's included
    and bool excluded, and ``seed`` is non-negative; a bad field raises
    ValueError naming it, before numpy sees it."""

    table: ValueTable
    n: int
    replications: int
    seed: int

    def __post_init__(self):
        for name in ("n", "replications", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def draw_stream(seed: int, size: int) -> np.ndarray:
    """The first ``size`` 64-bit words (uint64) of the counter-based
    Philox stream keyed by ``seed`` (Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3", SC'11).  The stream of a smaller size is
    a prefix of a larger one's.  Word w is the draw: numpy's uniform
    double of it, ``Generator(Philox(seed)).random()``, is exactly
    ``(w >> 11) * 2**-53``."""
    return np.random.Philox(seed).random_raw(size)


def estimate_win_prob(cfg: SimConfig, draws: np.ndarray | None = None) -> SimResult:
    """Estimate the first player's win probability by replicated play.

    Randomness comes from ``draw_stream(seed, ...)``: row r of the (R x n)
    draw matrix, the draws of replication r, is ``stream[r*n:(r+1)*n]``,
    so results are reproducible and independent of evaluation order, and
    the matrix of a smaller n reads a prefix of the same stream.
    ``draws``, when given, is that stream of cfg.seed: a one-dimensional
    uint64 ndarray at least R*n words long (else ValueError).  A run over
    several n draws it once for the largest, and each n's matrix is a view
    of its first R*n words.  Without it the function draws R*n words
    itself.  A game over n objects ends within n moves.

    A game plays word w as the uniform u = i * 2**-53 with i = w >> 11,
    numpy's double of it, but never forms u: for c in [0, 1], c * 2**53 is
    exact (a power-of-two scaling) and i is an integer below 2**53, so
    ``u >= c`` iff ``i >= ceil(c * 2**53)``.  The policy is held as m - 1
    threshold rows of such ceilings indexed by pile size: ``thr[j, k]``
    is that of entry j of the cumulative move probabilities of the
    lottery picked at pile size k.  A zero cumulative weight gives 0,
    which every draw reaches; 1.0 gives 2**53, which none does, and so
    does column 0, a finished game.  Move t plays all R games at once on
    column t of the draws, shifted into one length-R buffer of i.  It takes
    ``1 + #{j < m-1: i >= thr[j, pile]}`` objects from one length-R pile
    array, counting the hits in the smallest unsigned dtype that holds m,
    and clamps the pile at 0, where a finished game stays; the games that
    reach 0 at an odd t are the first player's wins.  A move takes at
    most m objects, so no game can end before move ceil(n/m) - 1, and the
    moves before it skip the clamp and the count.  The cumulative sums do
    not decrease, so u >= cum[m-1] implies u >= every earlier entry, and
    the count without the last entry equals
    ``min(1 + #{j <= m-1: u >= cum[j]}, m)`` bit for bit.  Besides the
    draws the loop holds five length-R buffers.
    """
    vt, n, R = cfg.table, int(cfg.n), int(cfg.replications)
    if draws is None:
        draws = draw_stream(cfg.seed, R * n)
    elif not (isinstance(draws, np.ndarray) and draws.dtype == np.uint64
              and draws.ndim == 1 and draws.size >= R * n):
        got = (f"{draws.dtype} of shape {draws.shape}" if isinstance(draws, np.ndarray)
               else type(draws).__name__)
        raise ValueError(f"draws must be a flat array of at least {R * n} words, got {got}")
    draws = draws[: R * n].reshape(R, n)
    cum = np.cumsum([c.probs for c in vt.candidates], axis=1)
    ceils = np.ceil(cum[:, :-1] * 2.0**53).astype(np.uint64)
    thr = np.full((vt.m - 1, n + 1), 2**53, dtype=np.uint64)
    thr[:, 1:] = ceils[vt.argmax(np.arange(1, n + 1))].T

    pile = np.full(R, n, dtype=np.intp)
    take = np.empty(R, dtype=np.min_scalar_type(vt.m))
    bound = np.empty(R, dtype=np.uint64)
    hit = np.empty(R, dtype=bool)
    i = np.empty(R, dtype=np.uint64)
    first_end = -(-n // vt.m) - 1
    alive, wins = R, 0
    for t in range(n):
        np.right_shift(draws[:, t], 11, out=i)
        take.fill(1)
        for row in thr:
            # pile stays in 0..n: clip never clips, and spares the copy that
            # take's default bounds check makes of ``out``
            row.take(pile, out=bound, mode="clip")
            np.greater_equal(i, bound, out=hit)
            take += hit.view(np.uint8)
        pile -= take
        if t < first_end:
            continue
        np.maximum(pile, 0, out=pile)
        left = int(np.count_nonzero(pile))
        if t % 2:
            wins += alive - left
        alive = left
        if not alive:
            break
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
    subgame perfect.

    The payoffs come from the stored prefix, one column per pile size
    1..computed; each stored pick is marked in the column of the pile size
    it repeats.  Later pile sizes repeat the last period's columns and
    picks, so the gains are those of the marked (pick, column) pairs, at
    most |K| per column however many picks are stored.  Rounding is
    monotone, so the best payoff of a column less the pick's payoff is,
    bit for bit, the largest of every payoff less the pick's."""
    vals = np.array(payoffs(vt.candidates, vt.p_prefix))
    c, period, picks = vt.computed, vt.period, vt.picks
    seen = np.zeros(vals.shape, dtype=bool)
    seen[picks[:c], np.arange(c)] = True
    # picks past computed (a policy a caller set) take the last period's columns in turn
    for r in range(min(period, picks.size - c)):
        seen[picks[c + r :: period], c - period + r] = True
    return float((vals.max(axis=0) - vals)[seen].max())


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
