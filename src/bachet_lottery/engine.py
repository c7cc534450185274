"""Backward-induction equilibrium engine.

The mover at pile size k wins with probability 1 - sum_i pi_i * p_{k-i}
for a chosen lottery pi, with the boundary convention p_s = 1 for s <= 0
(taking the last object loses).  The equilibrium value p_k maximizes this
over the candidate lotteries; the recursion runs k = 1..n.

The recursion is one generated Python function per shape of the
candidate set (m and each lottery's nonzero positions), compiled once
and called with the lottery weights bound: the last m values live in
locals, each pile size keeps the least of the candidates' sums
sum_i pi_i p_{k-i} and takes p_k = 1.0 less it, and the loop stops at the
first repeated state it sees.  Everything about ties is worked out on the
first read of a table's ties or moves, in numpy, from the evaluated
prefix: the payoff kernel is written from the same sum text and is
elementwise, so on arrays it gives the same doubles as the loop.  A
caller that reads only values never pays for ties.  The table keeps
that prefix only, so its size does not grow with n once a state repeats;
a later pile size is read by going back whole periods (``fold``).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lotteries import GameSpec, Lottery

TIE_TOL = 1e-12

TIE_LOWEST = "lowest_index"
TIE_HIGHEST = "highest_index"
TIE_RANDOM = "seeded_random"
TIE_RULES = (TIE_LOWEST, TIE_HIGHEST, TIE_RANDOM)


def fold(k, computed: int, period: int):
    """The pile size whose value, move and tie set pile size ``k`` repeats:
    ``k`` itself up to ``computed``, else ``k`` less the whole number of
    periods that brings it into computed - period + 1..computed.  ``k``
    may be an int or an integer array."""
    if not period:
        return k
    return k - (k > computed) * (period * ((k - computed - 1) // period + 1))


@dataclass(frozen=True)
class ValueTable:
    """Solved equilibrium values and move choices for one game spec.

    Only the evaluated prefix is stored.  ``computed`` is the number of
    pile sizes the recursion evaluated before it stopped at a repeated
    state, and ``period`` the length of that repeat, or 0 when no state
    repeated before n (then computed == n).  Beyond the evaluated part
    everything repeats: p_k == p_{k-period} for k > computed - m, and so
    do the tie sets and the moves for k > computed.

    ``p_prefix`` holds p_k for k = -(m-1)..computed (index k + m - 1); the
    first m entries are the boundary ones.  ``tie_rule`` and ``seed`` are
    the ones ``solve`` was given; only ``picks`` depends on them.
    ``tie_mask`` and ``picks`` are worked out from the prefix on first
    read and kept (see ``solve``).  ``p(k)`` and ``argmax(k)`` read any k
    in 1..n through ``fold``, and reject a k past n.
    """

    m: int
    n: int
    candidates: tuple[Lottery, ...]
    p_prefix: np.ndarray
    computed: int
    period: int
    tie_rule: str
    seed: int

    @cached_property
    def p_ext(self) -> np.ndarray:
        """p_k for k = -(m-1)..n, index k + m - 1: the dense form, built on
        first read; no package code reads it."""
        return self.p_upto(self.n)

    @cached_property
    def tie_mask(self) -> np.ndarray:
        """The (computed, |K|) boolean array whose row k-1 marks the
        candidates within TIE_TOL of the maximum at pile size k: a candidate
        ties when its payoff (``payoffs`` of the prefix, the loop's doubles)
        is >= p_k - TIE_TOL, the same IEEE operations as a test inside the
        loop would do."""
        thr = self.p_prefix[self.m :] - TIE_TOL
        return np.stack([v >= thr for v in payoffs(self.candidates, self.p_prefix)], axis=1)

    @cached_property
    def picks(self) -> np.ndarray:
        """``picks[k-1]``: the candidate chosen at pile size k under
        ``tie_rule``, for k = 1..computed, or for k = 1..n under
        seeded_random, whose draws do not repeat.  lowest_index and
        highest_index take the first and last marked candidate of each
        ``tie_mask`` row, and the table repeats the last ``period`` of
        them; seeded_random draws once per pile size 1..n in k order from
        ``random.Random(seed)``, the same sequence as a pick inside the
        loop."""
        ties = self.tie_mask
        if self.tie_rule == TIE_RANDOM:
            rng = random.Random(self.seed)
            sets = _tie_sets(ties, self.period, self.n)
            return np.fromiter((t[rng.randrange(len(t))] for t in sets), np.int64, self.n)
        if self.tie_rule == TIE_LOWEST:
            return ties.argmax(1)
        return len(self.candidates) - 1 - ties[:, ::-1].argmax(1)

    @cached_property
    def tie_sets(self) -> tuple[tuple[int, ...], ...]:
        """``tie_sets[k-1]``: the indices of all candidates within TIE_TOL of
        the maximum at pile size k, for k = 1..n: the dense form, built on
        first read; no package code reads it."""
        return tuple(_tie_sets(self.tie_mask, self.period, self.n))

    def p(self, k: int) -> float:
        """Equilibrium win probability at pile size k: 1 for k <= 0, the
        table's value for k in 1..n; a larger k raises ValueError."""
        if k <= 0:
            return 1.0
        if k > self.n:
            raise ValueError(f"pile size outside 1..{self.n}")
        return float(self.p_prefix[fold(k, self.computed, self.period) + self.m - 1])

    def p_upto(self, last: int) -> np.ndarray:
        """p_k for k = -(m-1)..last, index k + m - 1: a view of
        ``p_prefix`` while last <= computed, else one broadcast copy of its
        last period into a (cycles, period) view of the result, so no
        repeated temporary is built."""
        head, size = self.p_prefix, last + self.m
        if size <= head.size:
            return head[:size]
        cycles = -(-(size - head.size) // self.period)
        out = np.empty(head.size + cycles * self.period, head.dtype)
        out[: head.size] = head
        out[head.size :].reshape(cycles, self.period)[...] = head[-self.period :]
        return out[:size]

    def argmax(self, k):
        """The candidate index chosen at pile size k, for an int or an
        integer array of pile sizes in 1..n; any other pile size raises
        ValueError."""
        if not np.all((k >= 1) & (k <= self.n)):
            raise ValueError(f"pile size outside 1..{self.n}")
        return self.picks[fold(k, self.picks.size, self.period) - 1]

    def policy(self, k: int) -> Lottery:
        """Lottery the engine plays at pile size k."""
        return self.candidates[int(self.argmax(k))]


def _shape(candidates: Sequence[Lottery]) -> tuple[tuple, tuple[float, ...]]:
    """(shape, weights) of a candidate list.  The shape is m and, for each
    candidate in order, the positions i whose weight pi_i is nonzero; the
    weights are those nonzero pi_i in the same order.  Sets of one shape
    share their generated code, and only the weights bound to it differ."""
    m = candidates[0].m
    positions = tuple(
        tuple(i for i in range(1, m + 1) if lot.probs[i - 1] != 0.0) for lot in candidates
    )
    weights = tuple(w for lot in candidates for w in lot.probs if w != 0.0)
    return (m, positions), weights


def _sum_exprs(shape: tuple) -> list[str]:
    """Each candidate's sum_i pi_i * p_{k-i} as expression text in the
    weights w0, w1, ... (numbered across the candidates, in ``_shape``'s
    order) and t0..t{m-1}, where t_j = p_{k-m+j}: summed left to right
    over i = 1..m, zero weights left out.  The payoff is 1.0 less this
    sum: the one definition of the payoff."""
    m, positions = shape
    weight = itertools.count()
    # p_{k-i} is t_{m-i}
    return [" + ".join(f"w{next(weight)}*t{m - i}" for i in pos) or "0.0" for pos in positions]


def _compiled(src: str, name: str):
    """The function ``name`` that the generated ``src`` defines."""
    ns: dict = {}
    exec(src, ns)
    return ns[name]


@lru_cache(maxsize=64)
def _generated(name: str, shape: tuple):
    """The generated function ``name`` for one shape: ``_kernel`` (see
    ``payoff_kernel``) or ``_run`` (see ``_recursion``), each taking the
    weights w0, w1, ... as its leading parameters.  Both are written from
    ``_sum_exprs``; the cache keeps the code of the last 64 (name, shape)
    pairs, so a process compiles each shape's code once and holds a
    bounded amount of it whatever sets it meets."""
    m, positions = shape
    sums = _sum_exprs(shape)
    weights = [f"w{j}" for j in range(sum(map(len, positions)))]
    state = [f"t{j}" for j in range(m)]
    if name == "_kernel":
        body = ", ".join(f"1.0 - ({s})" for s in sums)
        return _compiled(f"def _kernel({', '.join(weights + state)}):\n    return ({body},)", name)
    saved = [f"s{j}" for j in range(m)]
    least = [f"x = {sums[0]}"]
    for s in sums[1:]:
        least += [f"y = {s}", "if y < x: x = y"]
    shift = [f"t{j} = t{j + 1}" for j in range(m - 1)] + [f"t{m - 1} = best"]
    same = " and ".join(f"{t} == {s}" for t, s in zip(state, saved))
    lines = [
        f"def _run({', '.join(weights + ['put', 'n'] + state)}):",
        f"    {', '.join(saved)} = {', '.join(state)}",
        "    period, power = 0, 1",
        "    for _ in range(n):",
        *(f"        {s}" for s in least),
        "        best = 1.0 - x",
        "        put(best)",
        *(f"        {s}" for s in shift),
        "        period += 1",
        f"        if {same}:",
        "            return period",
        "        if period == power:",
        f"            {', '.join(saved)} = {', '.join(state)}",
        "            period, power = 0, power + (power >> 4) + 1",
        "    return 0",
    ]
    return _compiled("\n".join(lines), name)


def _bound(name: str, candidates: Sequence[Lottery]):
    """The generated function ``name`` for the candidates' shape, with
    their weights bound."""
    shape, weights = _shape(candidates)
    return partial(_generated(name, shape), *weights)


def payoff_kernel(candidates: Sequence[Lottery]):
    """Build f(t_0, ..., t_{m-1}) -> tuple of per-candidate payoffs.

    t_j = p_{k-m+j}, i.e. the tail in increasing k order.  Each payoff is
    ``1.0 - (sum)`` with the sum from ``_sum_exprs``; the code is
    generated once per shape and the lottery weights are bound to it.
    The arguments may be floats or equal-length float64 arrays: every
    operation is elementwise, so entry j of the array result is the
    scalar result for column j, bit for bit.
    """
    return _bound("_kernel", candidates)


def payoffs(candidates: Sequence[Lottery], ext: np.ndarray) -> tuple[np.ndarray, ...]:
    """Candidate i's payoff at pile sizes k = 1..len(ext) - m as entry i,
    from ``ext`` holding p_k at index k + m - 1; the recursion's doubles."""
    return payoff_kernel(candidates)(*sliding_window_view(ext[:-1], candidates[0].m).T)


def _recursion(candidates: Sequence[Lottery]):
    """Build run(put, n, t0, ..., t{m-1}) -> period.

    From the state (t0, ..., t{m-1}) = (p_{1-m}, ..., p_0) it evaluates
    p_k for k = 1, 2, ..., passes each to ``put``, and shifts it into the
    locals.  p_k is 1.0 less the least of the candidates' sums, kept by
    one ``if y < x`` per candidate after the first: rounding to nearest
    is monotone, so fl(1 - s) does not increase in s, and the maximum of
    the payoffs fl(1 - s_j) is fl(1 - min_j s_j) bit for bit (1.0 - s is
    never -0.0, so equal payoffs have equal bits).  Brent's saved state
    lives in the locals s0..s{m-1}.  It returns the repeat length at the
    first state equal to the saved one, or 0 after n pile sizes without
    one.
    """
    return _bound("_run", candidates)


def _tie_sets(mask: np.ndarray, period: int, n: int) -> Iterator[tuple[int, ...]]:
    """The tie set of each pile size 1..n in k order, from the mask of the
    evaluated ones; past them the last ``period`` sets repeat."""
    sets = [tuple(itertools.compress(range(mask.shape[1]), row)) for row in mask.tolist()]
    cycle = itertools.cycle(sets[len(sets) - period :])
    return itertools.chain(sets, itertools.islice(cycle, n - len(sets)))


def solve(spec: GameSpec, tie_rule: str = TIE_LOWEST, seed: int = 0) -> ValueTable:
    """Solve the game by backward induction over pile sizes 1..n.

    The stored value at each k is the exact maximum over candidates, so
    the values do not depend on the tie rule; only the picks may.

    The loop is one generated function (see ``_recursion``) that does the
    recursion and nothing else.  p_{k+1} and the tie set at k+1 are
    functions of the state (p_{k-m+1}, ..., p_k) alone, so once a state
    repeats bit for bit the rest of the table repeats with the same
    period.  Brent's cycle detection compares each state with one saved
    state; at the first match the loop stops, and the table keeps the
    evaluated prefix (see ``ValueTable``).  The saved state moves to the
    current one when the count of pile sizes since it last moved reaches
    a gap, and the gap then grows by a sixteenth of itself plus one (1, 2,
    ..., 16, 18, 20, ...).  Any gaps that grow without bound give the
    repeat length exactly, since after a move at or past the transient the
    first match comes one period later; gaps this slow put that move
    within about a sixteenth of the transient past its end, where doubling
    ones could put it nearly a whole transient past.  The state
    and the saved state are m float locals each, compared one by one with
    ``==``, and that is enough for the repeated tail to be bit-identical
    to the full loop's: lotteries are finite, so no NaN arises, and two
    locals that compare equal differ at most in the sign of a zero, which
    cannot change p_{k+1}, 1.0 less the least sum of w*t (a zero term
    leaves a non-zero sum unchanged, a zero sum compares equal to a zero
    of either sign, and 1.0 - (+-0.0) is 1.0).

    solve runs only the loop: the ties and the moves under ``tie_rule``
    are worked out from the prefix on the first read of ``tie_mask`` or
    ``picks`` (or of anything built on them), so a caller that reads
    values alone never computes them.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    candidates = spec.K.lotteries
    m, n = spec.m, spec.n

    p = [1.0] * m
    period = _recursion(candidates)(p.append, n, *p)
    return ValueTable(
        m=m,
        n=n,
        candidates=candidates,
        p_prefix=np.array(p),
        computed=len(p) - m,
        period=period,
        tie_rule=tie_rule,
        seed=seed,
    )
