"""Backward-induction equilibrium engine.

The mover at pile size k wins with probability 1 - sum_i pi_i * p_{k-i}
for a chosen lottery pi, with p_s = 1 for s <= 0 (taking the last object
loses); p_k is the maximum over the candidate lotteries, k = 1..n.
``solve`` runs that recursion in the loop that ``_generated`` compiles and
keeps the values up to the end of the first period; ``fold`` maps a later
pile size back onto them.  ``values_at`` reads a few values straight from
the loop's list, with no table.  ``payoff_kernel`` is the payoff written
from the formula alone, and a table's ties and moves are worked out from
it.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lotteries import GameSpec, Lottery

TIE_TOL = 1e-12

# terms of one `+` chain in the generated code, which the compiler walks
# recursively: a longer sum is written as several statements (``_chain``)
_CHAIN_TERMS = 256


def fold(k, n: int, computed: int, period: int):
    """The pile size whose value, move and tie set pile size ``k`` repeats:
    ``k`` itself up to ``computed``, else ``k`` less the whole number of
    periods that brings it into computed - period + 1..computed.  ``k``
    may be an int or an integer array of pile sizes in 1..n; any other
    pile size raises ValueError.  ``computed`` may also be the pile size at
    which the loop stopped (see ``values_at``)."""
    if not np.all((k >= 1) & (k <= n)):
        raise ValueError(f"pile size outside 1..{n}")
    if not period:
        return k
    return k - (k > computed) * (period * ((k - computed - 1) // period + 1))


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Solved equilibrium values and move choices for one game spec.

    Only a prefix is stored.  ``period`` is the length of the repeat the
    recursion saw before n, or 0 when it saw none.  ``computed`` is then
    mu + period, where the state after pile size mu is the first that comes
    back, or n when period is 0.  Beyond the stored part the values
    repeat: p_k == p_{k-period} for k > computed - m.  So do the tie sets
    and the moves for k > computed.  The move at pile size k is the
    lowest-index candidate of its tie set.

    ``p_prefix`` holds p_k for k = -(m-1)..computed (index k + m - 1); the
    first m entries are the boundary ones.  ``tie_mask`` and ``picks`` are
    worked out from the prefix on first read and kept (see ``solve``).
    ``p(k)`` and ``argmax(k)`` read any k in 1..n through ``fold``, which
    rejects a k past n.

    Tables compare and hash by identity: the generated ``==`` would
    compare the prefix arrays, whose truth value numpy refuses.
    """

    m: int
    n: int
    candidates: tuple[Lottery, ...]
    p_prefix: np.ndarray
    computed: int
    period: int

    @cached_property
    def p_ext(self) -> np.ndarray:
        """p_k for k = -(m-1)..n, index k + m - 1: the dense form, built on
        first read.  Its only reader is ``bench/spans.py``; it goes with
        ROADMAP item 3(a)."""
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
        """``picks[k-1]``: the candidate chosen at pile size k, for k =
        1..computed: the first marked candidate of each ``tie_mask`` row.
        The table repeats the last ``period`` of them."""
        return self.tie_mask.argmax(1)

    @cached_property
    def tie_sets(self) -> tuple[tuple[int, ...], ...]:
        """``tie_sets[k-1]``: the indices of all candidates within TIE_TOL of
        the maximum at pile size k, for k = 1..n: the dense form, built on
        first read.  Past computed the last ``period`` sets repeat.  Its
        only reader is ``bench/spans.py``; it goes with ROADMAP item 3(a)."""
        sets = [tuple(itertools.compress(range(len(self.candidates)), row))
                for row in self.tie_mask.tolist()]
        cycle = itertools.cycle(sets[len(sets) - self.period :])
        return (*sets, *itertools.islice(cycle, self.n - len(sets)))

    def p(self, k: int) -> float:
        """Equilibrium win probability at pile size k: 1 for k <= 0, the
        table's value for k in 1..n; a larger k raises ValueError."""
        if k <= 0:
            return 1.0
        return float(self.p_prefix[fold(k, self.n, self.computed, self.period) + self.m - 1])

    def p_upto(self, last: int) -> np.ndarray:
        """p_k for k = -(m-1)..last, index k + m - 1: a view of
        ``p_prefix`` while last <= computed, else one broadcast copy of its
        last period into a (cycles, period) view of the result, so no
        repeated temporary is built.  A ``last`` outside 1..n raises
        ValueError (``fold``)."""
        fold(last, self.n, self.computed, self.period)
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
        return self.picks[fold(k, self.n, self.picks.size, self.period) - 1]


def _shape(candidates: Sequence[Lottery]) -> tuple[tuple, tuple[float, ...]]:
    """(shape, weights) of a candidate list.  The nonzero weights fall into
    classes of equal value, numbered in order of first appearance; the
    weights are one value per class, in that order.  The shape is m and,
    for each candidate in order, its terms (i, c): each position i whose
    weight pi_i is nonzero, left to right, with the class c of that
    weight.  Sets of one shape share their generated code, and only the
    weights bound to it differ; two sets whose nonzero positions agree
    but whose weights coincide differently have two shapes."""
    m = candidates[0].m
    classes: dict[float, int] = {}
    terms = tuple(
        tuple((i, classes.setdefault(w, len(classes))) for i, w in enumerate(lot.probs, 1) if w != 0.0)
        for lot in candidates
    )
    return (m, terms), tuple(classes)


def _sum_exprs(shape: tuple, named) -> list[list[str]]:
    """The terms of each candidate's sum_i pi_i * p_{k-i} as text, in the
    order of its terms (i, c) of ``_shape``, zero weights left out; the
    sum runs left to right (``_chain``).  The product of a term in
    ``named`` is the local q{c}_{i}, every other one is w{c}*t{m-i}, where
    w{c} is class c's weight and t_j = p_{k-m+j}."""
    m, terms = shape
    # p_{k-i} is t_{m-i}
    return [[f"q{c}_{i}" if (i, c) in named else f"w{c}*t{m - i}" for i, c in cand] for cand in terms]


def _chain(target: str, terms: list[str]) -> tuple[list[str], str]:
    """(statements, expression): the expression is the sum of ``terms``
    left to right once the statements have run.  A sum of up to
    _CHAIN_TERMS terms is one ``+`` chain and no statement; a longer one
    sums its leading runs of _CHAIN_TERMS into ``target`` (``target =
    target + ...``), which keeps the order and every bit, so a lottery of
    any length compiles."""
    runs = range(0, len(terms), _CHAIN_TERMS)
    expr, *rest = [" + ".join(terms[i : i + _CHAIN_TERMS]) for i in runs] or ["0.0"]
    lines = []
    for run in rest:
        lines.append(f"{target} = {expr}")
        expr = f"{target} + {run}"
    return lines, expr


def _compiled(src: str):
    """The function ``_run`` that the generated ``src`` defines."""
    ns: dict = {}
    exec(src, ns)
    return ns["_run"]


@lru_cache(maxsize=64)
def _generated(shape: tuple):
    """The loop of one shape (``_shape``), generated and compiled, the
    package's only generated code: _run(w0, w1, ..., put, n, t0, ...,
    t{m-1}) -> period, where w{c} is the weight of class c.

    From the state (t0, ..., t{m-1}) = (p_{1-m}, ..., p_0) it evaluates p_k
    for k = 1, 2, ..., passes each to ``put``, and shifts it into the
    locals.  A class of equal weights that two or more terms use, at one
    position or at several, keeps a window of locals q{c}_{i} = w_c *
    p_{k-i}, i = 1..its last position: after each pile size it forms the
    one new product w_c * p_k and shifts the window, so a product is formed
    once and read at each later pile size that needs it (exact, see
    ``payoff_kernel``), and the symmetric simplex forms two products per
    pile size, not m * m.  A class that one term uses stays inline, so a
    set whose weights are all distinct gets the plain sums.  p_k is 1.0
    less the least of the candidates' sums, kept by one ``if y < x`` per
    candidate after the first: rounding to nearest is monotone, so
    fl(1 - s) does not increase in s, and the maximum of the payoffs
    fl(1 - s_j) is fl(1 - min_j s_j) bit for bit (no value is -0.0, see
    below).

    The loop stops at the first repeat of the state (p_{k-m+1}, ..., p_k)
    that it sees, by Brent's cycle detection.  p_{k+1} and the tie set at
    k+1 are functions of the state alone, so once a state repeats bit for
    bit the rest of the table repeats with the same period.  Each state is
    compared with one saved state, held in the locals s0..s{m-1}.  The pile
    sizes run one gap at a time, the last gap cut short at n: an inner
    ``for`` over the gap counts the distance from the saved state, the
    state is saved after each gap, and the gap then grows by
    a sixteenth of itself plus one (1, 2, ..., 16, 18, 20, ...), so no
    pile size updates or tests a counter of its own.  Any gaps that grow
    without bound give the repeat length exactly, since after a save at or
    past the transient the first match comes one period later; gaps this
    slow put that save within about a sixteenth of the transient past its
    end, where doubling ones could put it nearly a whole transient past.
    The state locals are compared one by one with ``==``, and that is enough
    for the repeated tail to be bit-identical to the full loop's:
    lotteries are finite, so no NaN arises, and no value is -0.0 (the
    boundary values are 1.0, and 1.0 - x is +0.0 where x is 1.0), so two
    values that compare equal have equal bits.  It returns the repeat
    length at the first state equal to the saved one, or 0 after n pile
    sizes without one.

    The cache keeps the code of the last 64 shapes, so a process compiles
    each shape's loop once and holds a bounded amount of code whatever sets
    it meets."""
    m, terms = shape
    weights = [f"w{c}" for c in range(len({c for cand in terms for _, c in cand}))]
    state = [f"t{j}" for j in range(m)]
    # a class that two or more terms use keeps the window q{c}_1..q{c}_{last},
    # shifted from the top down
    uses = Counter(c for cand in terms for _, c in cand)
    last = {c: i for i, c in sorted(itertools.chain.from_iterable(terms))}
    window = [(i, c) for c in sorted(last) if uses[c] > 1 for i in range(last[c], 0, -1)]
    (pre, expr), *others = [_chain("y" if j else "x", cand)
                            for j, cand in enumerate(_sum_exprs(shape, set(window)))]
    least = [*pre, f"x = {expr}"]
    for pre, expr in others:
        least += [*pre, f"y = {expr}", "if y < x: x = y"]
    saved = [f"s{j}" for j in range(m)]
    shift = [f"t{j} = t{j + 1}" for j in range(m - 1)] + [f"t{m - 1} = best"]
    shift += [f"q{c}_{i} = q{c}_{i - 1}" if i > 1 else f"q{c}_1 = w{c}*best" for i, c in window]
    same = " and ".join(f"{t} == {s}" for t, s in zip(state, saved))
    lines = [
        f"def _run({', '.join(weights + ['put', 'n'] + state)}):",
        f"    {', '.join(saved)} = {', '.join(state)}",
        *(f"    q{c}_{i} = w{c}*t{m - i}" for i, c in window),
        "    power = 1",
        "    while n:",
        "        gap = min(power, n)",
        "        n -= gap",
        "        for period in range(1, gap + 1):",
        *(f"            {s}" for s in least),
        "            best = 1.0 - x",
        "            put(best)",
        *(f"            {s}" for s in shift),
        f"            if {same}:",
        "                return period",
        f"        {', '.join(saved)} = {', '.join(state)}",
        "        power += (power >> 4) + 1",
        "    return 0",
    ]
    return _compiled("\n".join(lines))


def payoff_kernel(candidates: Sequence[Lottery]):
    """Build f(t_0, ..., t_{m-1}) -> tuple of per-candidate payoffs.

    t_j = p_{k-m+j}, i.e. the tail in increasing k order.  Each payoff is
    1 - sum_i pi_i p_{k-i} from ``lot.probs`` alone: s = 0.0, then s +=
    pi_i * p_{k-i} for i = 1..m, and 1.0 - s.  The arguments may be
    floats or equal-length float64 arrays: every operation is elementwise,
    so entry j of an array result is the scalar result for column j.
    These are the loop's doubles bit for bit, though no text is shared:
    w * p is one IEEE operation, so a window local q{c}_{i} holds the same
    double; a zero weight of either sign adds +-0.0 to a sum that is
    >= +0.0, and 0.0 + x = x, so neither a zero term the loop leaves out
    nor the leading 0.0 changes a bit; and i runs in the loop's order.
    Because no text is shared, a wrong term list in the loop shows up in
    the ties and the oracles instead of being checked against itself.
    """

    def kernel(*tail):
        out = []
        for lot in candidates:
            s = 0.0
            for w, p in zip(lot.probs, reversed(tail)):  # p_{k-1}, p_{k-2}, ...
                s += w * p
            out.append(1.0 - s)
        return tuple(out)

    return kernel


def payoffs(candidates: Sequence[Lottery], ext: np.ndarray) -> tuple[np.ndarray, ...]:
    """Candidate i's payoff at pile sizes k = 1..len(ext) - m as entry i,
    from ``ext`` holding p_k at index k + m - 1; the recursion's doubles."""
    return payoff_kernel(candidates)(*sliding_window_view(ext[:-1], candidates[0].m).T)


def _run_loop(spec: GameSpec) -> tuple[list[float], int]:
    """(values, period): the loop of ``_generated`` run once on ``spec``.
    ``values`` holds p_k for k = -(m-1)..L, index k + m - 1, where L is the
    pile size at which the loop stopped; ``period`` is what it returned."""
    shape, weights = _shape(spec.K.lotteries)
    p = [1.0] * spec.m
    return p, _generated(shape)(*weights, p.append, spec.n, *p)


def values_at(spec: GameSpec, ks: Iterable[int]) -> list[float]:
    """p_k for each pile size k in ``ks`` (each in 1..n), in that order,
    from one run of the loop and no table: each is read from the loop's
    list through ``fold``, with the stop pile L = len(values) - m in place
    of ``computed``.

    That is exact because of where the loop stops.  It returns the period
    lambda at pile size L, where the state (p_{L-m+1}, ..., p_L) equals the
    state saved at s = L - lambda, and p_{k+1} is a function of the state
    alone, so p_{k+lambda} = p_k for every k > s - m.  So every pile size
    past L has the value of the one that ``fold`` maps it to in s+1..L,
    and no pass that finds mu is needed.  With no repeat, the loop stops at
    L = n.  Each value is the same double as ``solve(spec).p(k)``: the list
    entries are the doubles that ``solve`` copies into ``p_prefix``.  A k
    outside 1..n raises ValueError (``fold``)."""
    p, period = _run_loop(spec)
    m = spec.m
    stop = len(p) - m
    return [p[fold(k, spec.n, stop, period) + m - 1] for k in ks]


def solve(spec: GameSpec) -> ValueTable:
    """Solve the game by backward induction over pile sizes 1..n.

    The stored value at each k is the exact maximum over candidates, so
    the values do not depend on which of the tied candidates is played;
    the table plays the lowest-index one (``picks``).

    The recursion runs in the loop of ``_generated``, which returns the
    repeat length some way past mu + period (see ``ValueTable``).  One
    numpy pass then compares each evaluated value with the one a period
    later, bit for bit, which agrees with the loop's ``==`` (see
    ``_generated``).  A state equal to the state a period later makes
    every later state so, so if p_i is the last value that differs from
    the one a period later, mu = i + m, the first pile size whose state
    lies wholly past it (mu = 0 when none differs).  The table keeps p_k
    up to k = mu + period.

    solve computes no ties: the ties and the moves are worked out from
    the prefix on the first read of ``tie_mask`` or ``picks`` (or of
    anything built on them), so a caller that reads values alone never
    computes them.
    """
    candidates = spec.K.lotteries
    m, n = spec.m, spec.n

    p, period = _run_loop(spec)
    prefix = np.fromiter(p, np.float64, len(p))
    if period:
        # the indices j whose p_{j+1-m} differs in a bit from the value a
        # period later: the state after pile size (the last j) + 1 is the
        # first to come back
        bits = prefix.view(np.int64)
        differs = np.flatnonzero(bits[period:] != bits[:-period])
        mu = int(differs[-1]) + 1 if differs.size else 0
        prefix = prefix[: mu + period + m]
    return ValueTable(
        m=m,
        n=n,
        candidates=candidates,
        p_prefix=prefix,
        computed=prefix.size - m,
        period=period,
    )
