"""Backward-induction equilibrium engine.

The mover at pile size k wins with probability 1 - sum_i pi_i * p_{k-i}
for a chosen lottery pi, with the boundary convention p_s = 1 for s <= 0
(taking the last object loses).  The equilibrium value p_k maximizes this
over the candidate lotteries; the recursion runs k = 1..n.

The recursion is one generated Python function per solve: the last m
values live in locals, each pile size costs one ``max`` over the
candidates' payoff expressions, and the loop stops at the first repeated
state.  Everything about ties is worked out after the loop, in numpy,
from the evaluated prefix: the kernel's expressions are elementwise, so
on arrays they give the same doubles as in the loop.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    chosen at pile size k.

    ``computed`` is the number of pile sizes the recursion evaluated before
    it stopped at a repeated state, and ``period`` the length of that
    repeat, or 0 when no state repeated before n (then computed == n).
    Beyond the evaluated part everything repeats: p_k == p_{k-period} for
    k > computed - m, and so do the tie sets for k > computed.
    ``tie_mask`` is the (computed, |K|) boolean array whose row k-1 marks
    the candidates within TIE_TOL of the maximum at pile size k; it covers
    the evaluated pile sizes only.
    """

    m: int
    n: int
    candidates: tuple[Lottery, ...]
    p_ext: np.ndarray
    argmax_index: np.ndarray
    tie_mask: np.ndarray
    computed: int
    period: int

    @cached_property
    def tie_sets(self) -> tuple[tuple[int, ...], ...]:
        """``tie_sets[k-1]``: the indices of all candidates within TIE_TOL of
        the maximum at pile size k, for k = 1..n.  Built from ``tie_mask``
        and the period on first read."""
        return tuple(_tie_sets(self.tie_mask, self.period, self.n))

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


def _payoff_exprs(candidates: Sequence[Lottery]) -> list[str]:
    """Each lottery's payoff 1 - sum_i pi_i * p_{k-i} as expression text in
    t0..t{m-1}, where t_j = p_{k-m+j}: summed left to right over i = 1..m,
    zero weights left out.  The one definition of the payoff."""
    m = candidates[0].m
    exprs = []
    for lot in candidates:
        # p_{k-i} is t_{m-i}
        terms = " + ".join(
            f"{lot.probs[i - 1]!r}*t{m - i}" for i in range(1, m + 1) if lot.probs[i - 1] != 0.0
        )
        exprs.append(f"1.0 - ({terms})" if terms else "1.0")
    return exprs


def _compiled(src: str, name: str):
    """The function ``name`` that the generated ``src`` defines."""
    ns: dict = {}
    exec(src, ns)
    return ns[name]


def payoff_kernel(candidates: Sequence[Lottery]):
    """Build f(t_0, ..., t_{m-1}) -> tuple of per-candidate payoffs.

    t_j = p_{k-m+j}, i.e. the tail in increasing k order.  The lottery
    coefficients are baked into generated bytecode.  The arguments may
    be floats or equal-length float64 arrays: every operation is
    elementwise, so entry j of the array result is the scalar result
    for column j, bit for bit.
    """
    args = ", ".join(f"t{j}" for j in range(candidates[0].m))
    body = ", ".join(_payoff_exprs(candidates))
    return _compiled(f"def _kernel({args}):\n    return ({body},)", "_kernel")


def payoffs(candidates: Sequence[Lottery], ext: np.ndarray) -> tuple[np.ndarray, ...]:
    """Candidate i's payoff at pile sizes k = 1..len(ext) - m as entry i,
    from ``ext`` holding p_k at index k + m - 1; the recursion's doubles."""
    return payoff_kernel(candidates)(*sliding_window_view(ext[:-1], candidates[0].m).T)


def _recursion(candidates: Sequence[Lottery]):
    """Build run(put, n, t0, ..., t{m-1}) -> period.

    From the state (t0, ..., t{m-1}) = (p_{1-m}, ..., p_0) it evaluates
    p_k = max over the candidates' payoffs for k = 1, 2, ..., passes each
    to ``put``, and shifts it into the locals.  Brent's saved state lives
    in the locals s0..s{m-1}.  It returns the repeat length at the first
    state equal to the saved one, or 0 after n pile sizes without one.
    """
    m = candidates[0].m
    exprs = _payoff_exprs(candidates)
    state = [f"t{j}" for j in range(m)]
    saved = [f"s{j}" for j in range(m)]
    shift = [f"t{j} = t{j + 1}" for j in range(m - 1)] + [f"t{m - 1} = best"]
    same = " and ".join(f"{t} == {s}" for t, s in zip(state, saved))
    best = exprs[0] if len(exprs) == 1 else f"max({', '.join(exprs)})"
    lines = [
        f"def _run(put, n, {', '.join(state)}):",
        f"    {', '.join(saved)} = {', '.join(state)}",
        "    period, power = 0, 1",
        "    for _ in range(n):",
        f"        best = {best}",
        "        put(best)",
        *(f"        {s}" for s in shift),
        "        period += 1",
        f"        if {same}:",
        "            return period",
        "        if period == power:",
        f"            {', '.join(saved)} = {', '.join(state)}",
        "            period, power = 0, 2 * power",
        "    return 0",
    ]
    return _compiled("\n".join(lines), "_run")


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


def _tie_sets(mask: np.ndarray, period: int, n: int) -> Iterator[tuple[int, ...]]:
    """The tie set of each pile size 1..n in k order, from the mask of the
    evaluated ones; past them the last ``period`` sets repeat."""
    sets = [tuple(itertools.compress(range(mask.shape[1]), row)) for row in mask.tolist()]
    cycle = itertools.cycle(sets[len(sets) - period :])
    return itertools.chain(sets, itertools.islice(cycle, n - len(sets)))


def solve(spec: GameSpec, tie_rule: str = TIE_LOWEST, seed: int = 0) -> ValueTable:
    """Solve the game by backward induction over pile sizes 1..n.

    The stored value at each k is the exact maximum over candidates, so
    the values map does not depend on the tie rule; only argmax_index may.

    The loop is one generated function (see ``_recursion``) that does the
    recursion and nothing else.  p_{k+1} and the tie set at k+1 are
    functions of the state (p_{k-m+1}, ..., p_k) alone, so once a state
    repeats bit for bit the rest of the table repeats with the same
    period.  Brent's cycle detection compares each state with one saved
    state, moved at powers of two; at the first match the loop stops and
    the last ``period`` values are repeated up to n.  The state and the
    saved state are m float locals each, compared one by one with
    ``==``, and that is enough for the tail to be bit-identical to the
    full loop's: lotteries are finite, so no NaN arises, and two locals
    that compare equal differ at most in the sign of a zero, which cannot
    change a payoff ``1.0 - (sum of w*t)`` (a zero term leaves a non-zero
    sum unchanged, and 1.0 - (+-0.0) is 1.0).

    The ties are found after the loop, over the evaluated pile sizes at
    once: ``payoffs`` of the prefix gives the loop's doubles, and a candidate
    ties at k when its payoff is >= p_k - TIE_TOL, the same IEEE
    operations as a test inside the loop would do.  lowest_index and
    highest_index take the first and last marked candidate of each row
    and repeat the last ``period`` picks; seeded_random draws once per
    pile size in k order, the same sequence as a pick inside the loop.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    candidates = spec.K.lotteries
    m, n = spec.m, spec.n

    p = [1.0] * m
    period = _recursion(candidates)(p.append, n, *p)
    computed = len(p) - m
    head = np.array(p)
    del p  # a float object per pile size; head holds the values now
    p_ext = _repeat_last(head, period, n + m)

    thr = head[m:] - TIE_TOL
    ties = np.stack([v >= thr for v in payoffs(candidates, head)], axis=1)
    if tie_rule == TIE_RANDOM:
        rng = random.Random(seed)
        sets = _tie_sets(ties, period, n)
        argmax = np.fromiter((t[rng.randrange(len(t))] for t in sets), np.int64, n)
    elif tie_rule == TIE_LOWEST:
        argmax = _repeat_last(ties.argmax(1), period, n)
    else:
        argmax = _repeat_last(len(candidates) - 1 - ties[:, ::-1].argmax(1), period, n)
    return ValueTable(
        m=m,
        n=n,
        candidates=candidates,
        p_ext=p_ext,
        argmax_index=argmax,
        tie_mask=ties,
        computed=computed,
        period=period,
    )
