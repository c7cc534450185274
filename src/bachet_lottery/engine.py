"""Backward-induction equilibrium engine.

The mover at pile size k wins with probability 1 - sum_i pi_i * p_{k-i}
for a chosen lottery pi, with the boundary convention p_s = 1 for s <= 0
(taking the last object loses).  The equilibrium value p_k maximizes this
over the candidate lotteries; the recursion runs k = 1..n.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lotteries import GameSpec, Lottery

TIE_TOL = 1e-12

TIE_LOWEST = "lowest_index"
TIE_HIGHEST = "highest_index"
TIE_RANDOM = "seeded_random"
TIE_RULES = (TIE_LOWEST, TIE_HIGHEST, TIE_RANDOM)


@dataclass(frozen=True)
class ValueTable:
    """Solved equilibrium values and move choices for one game spec.

    ``p_ext`` holds p_k for k = -(m-1)..n (index k + m - 1); the first m
    entries are the boundary ones.  ``argmax_index[k-1]`` is the candidate
    chosen at pile size k, ``tie_sets[k-1]`` all candidates within TIE_TOL
    of the maximum there.

    ``computed`` is the number of pile sizes the recursion evaluated before
    it stopped at a repeated state, and ``period`` the length of that
    repeat, or 0 when no state repeated before n (then computed == n).
    Beyond the evaluated part everything repeats: p_k == p_{k-period} for
    k > computed - m, and tie_sets[k-1] == tie_sets[k-1-period] for
    k > computed.  ``tie_rule`` names the rule the moves were picked by;
    under lowest_index and highest_index argmax_index repeats there too,
    under seeded_random it does not.
    """

    m: int
    n: int
    candidates: tuple[Lottery, ...]
    p_ext: np.ndarray
    argmax_index: np.ndarray
    tie_sets: tuple[tuple[int, ...], ...]
    tie_rule: str
    computed: int
    period: int

    def p(self, k: int) -> float:
        """Equilibrium win probability at pile size k (1 for k <= 0)."""
        if k <= 0:
            return 1.0
        return float(self.p_ext[k + self.m - 1])

    def policy(self, k: int) -> Lottery:
        """Lottery the engine plays at pile size k."""
        return self.candidates[int(self.argmax_index[k - 1])]

    def values(self) -> dict[int, float]:
        """All stored values as a map k -> p_k, k = -(m-1)..n."""
        return {k: float(self.p_ext[k + self.m - 1]) for k in range(1 - self.m, self.n + 1)}


def payoff_kernel(candidates: Sequence[Lottery]):
    """Build f(t_0, ..., t_{m-1}) -> tuple of per-candidate payoffs.

    The payoff of lottery pi is the mover's win probability
    1 - sum_i pi_i * p_{k-i}, summed left to right over i = 1..m with
    zero weights left out.  t_j = p_{k-m+j}, i.e. the tail in increasing
    k order.  n can reach 1e5..1e6, so the lottery coefficients are baked
    into generated bytecode to keep the inner loop allocation-free.
    """
    m = candidates[0].m
    args = ", ".join(f"t{j}" for j in range(m))
    exprs = []
    for lot in candidates:
        # payoff 1 - sum_i pi_i * p_{k-i}; p_{k-i} is argument t_{m-i}
        terms = " + ".join(
            f"{lot.probs[i - 1]!r}*t{m - i}" for i in range(1, m + 1) if lot.probs[i - 1] != 0.0
        )
        exprs.append(f"1.0 - ({terms})" if terms else "1.0")
    src = f"def _kernel({args}):\n    return ({', '.join(exprs)},)"
    ns: dict = {}
    exec(src, ns)
    return ns["_kernel"]


def _repeat_last(head: np.ndarray, period: int, size: int) -> np.ndarray:
    """``head`` extended to ``size`` entries by repeating its last ``period``
    entries.  The tail is one broadcast copy into a (cycles, period) view
    of the result, so no repeated temporary is built."""
    start, rest = head.size, size - head.size
    if not rest:
        return head
    cycles = -(-rest // period)
    out = np.empty(start + cycles * period, head.dtype)
    out[:start] = head
    out[start:].reshape(cycles, period)[...] = head[-period:]
    return out[:size]


def solve(spec: GameSpec, tie_rule: str = TIE_LOWEST, seed: int = 0) -> ValueTable:
    """Solve the game by backward induction over pile sizes 1..n.

    The stored value at each k is the exact maximum over candidates, so
    the values map does not depend on the tie rule; only argmax_index may.

    p_{k+1} and the tie set at k+1 are functions of the state
    (p_{k-m+1}, ..., p_k) alone, so once a state repeats bit for bit the
    rest of the table repeats with the same period.  Brent's cycle
    detection compares each state with one saved state, moved at powers
    of two; at the first match the loop stops and the last ``period``
    values and tie sets are repeated up to n.  States are compared with
    ``==``, and that is enough for the tail to be bit-identical to the
    full loop's: lotteries are finite, so no NaN arises, and two equal
    states differ at most in the sign of a zero, which cannot change the
    kernel's ``1.0 - (sum of w*t)`` (a zero term leaves a non-zero sum
    unchanged, and 1.0 - (+-0.0) is 1.0).  The moves are picked after the
    loop: seeded_random draws once per pile size in k order, the same
    sequence as a pick inside the loop would; the deterministic rules pick
    over the evaluated pile sizes and repeat their last ``period`` picks.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    candidates = spec.K.lotteries
    kernel = payoff_kernel(candidates)
    m, n = spec.m, spec.n

    p = [1.0] * m
    tie_sets: list[tuple[int, ...]] = []
    state = saved = p[:]
    period, power = 0, 1
    for k in range(1, n + 1):
        vals = kernel(*state)
        best = max(vals)
        thr = best - TIE_TOL
        tie_sets.append(tuple(i for i, v in enumerate(vals) if v >= thr))
        p.append(best)
        state = p[k:]
        period += 1
        if state == saved:
            break
        if period == power:
            saved, period, power = state, 0, 2 * power
    else:
        period = 0  # no state repeated before n
    computed = len(tie_sets)
    p_ext = _repeat_last(np.asarray(p), period, n + m)
    rest = n - computed
    if rest:
        # stopped at a repeat: the last `period` tie sets recur up to n
        tie_sets += (tie_sets[-period:] * (rest // period + 1))[:rest]
    if tie_rule == TIE_RANDOM:
        rng = random.Random(seed)
        argmax = np.fromiter((t[rng.randrange(len(t))] for t in tie_sets), np.int64, n)
    else:
        # the picks repeat with the tie sets: pick over the evaluated part
        # only (fromiter reads `computed` items, no copy of the list)
        pick = operator.itemgetter(0 if tie_rule == TIE_LOWEST else -1)
        picks = np.fromiter(map(pick, tie_sets), np.int64, computed)
        argmax = _repeat_last(picks, period, n)
    return ValueTable(
        m=m,
        n=n,
        candidates=candidates,
        p_ext=p_ext,
        argmax_index=argmax,
        tie_sets=tuple(tie_sets),
        tie_rule=tie_rule,
        computed=computed,
        period=period,
    )
