"""Lotteries, admissible lottery sets, and the structural constants eta / nu.

A lottery is a probability vector over take-counts 1..m.  The admissible
set K is given either as an explicit finite list, as the vertex list of a
polytope, or as a truncated simplex {pi : pi_i >= eps_i, sum pi = 1}.
Because the one-step payoff is affine in the lottery, maximization over a
convex K reduces exactly to its vertices, so every set is held as a
finite candidate list: the list itself, or the m simplex vertices.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DegenerateSetError,
    NegativeEntryError,
    SumNotOneError,
    WrongLengthError,
)

SUM_TOL = 1e-12


@dataclass(frozen=True)
class Lottery:
    """Probability vector over taking 1..m objects; validated, immutable."""

    probs: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.probs)


def validate_lottery(probs: Sequence[float]) -> Lottery:
    """Validate a raw vector and wrap it as a Lottery.

    A vector that sums to 1 within SUM_TOL is accepted, with one
    coordinate moved by about the residual so that the left-to-right
    float sum is exactly 1.0: the payoff recursion sums in that order,
    so every set of accepted lotteries has p_1 = 0 exactly.

    Degenerate (pure) lotteries are accepted here; they are only flagged
    later via the eta < 1 condition.
    """
    vec = tuple(float(x) for x in probs)
    if len(vec) < 2:
        raise WrongLengthError(f"lottery needs at least 2 coordinates, got {len(vec)}")
    for i, x in enumerate(vec):
        if not 0.0 <= x <= 1.0:  # also rejects NaN
            raise NegativeEntryError(f"coordinate {i} = {x} outside [0, 1]")
    total = _running_sum(vec)
    if abs(total - 1.0) > SUM_TOL:
        raise SumNotOneError(f"coordinates sum to {total!r}, expected 1 within {SUM_TOL}")
    return Lottery(_snap_sum_to_one(list(vec)))


def _running_sum(vec: Sequence[float]) -> float:
    """The left-to-right float sum, the recursion's order, so a config
    solves the same game on every interpreter: builtin ``sum`` compensates
    its float sums from Python 3.12 on."""
    total = 0.0
    for x in vec:
        total += x
    return total


def _snap_sum_to_one(vec: list[float]) -> tuple[float, ...]:
    # Canonicalize within SUM_TOL: nudge the largest coordinate until the
    # left-to-right running sum is exactly 1.0.  The payoff recursion uses
    # the same summation order, so p_1 = 1 - sum(pi) comes out identically 0.
    raw = tuple(vec)
    for _ in range(5):
        residual = _running_sum(vec) - 1.0
        if residual == 0.0:
            return tuple(vec)
        j = max(range(len(vec)), key=vec.__getitem__)
        vec[j] -= residual
    # The nudges can keep missing 1.0 by an ulp.  Then put fl(1 - S) in
    # place of a nonzero coordinate, S the running sum before it, last
    # one first.
    heads = [0.0, *itertools.accumulate(raw)]
    for j in reversed(range(len(raw))):
        x = 1.0 - heads[j]
        if raw[j] and 0.0 <= x <= 1.0 and abs(x - raw[j]) <= SUM_TOL:
            snapped = (*raw[:j], x, *raw[j + 1 :])
            if _running_sum(snapped) == 1.0:
                return snapped
    return tuple(vec)


@dataclass(frozen=True)
class LotterySet:
    """Admissible set of lotteries, held as its finite candidate list."""

    lotteries: tuple[Lottery, ...]

    def __post_init__(self):
        if not self.lotteries:
            raise DegenerateSetError("finite lottery set must be non-empty")
        m = self.lotteries[0].m
        if any(lot.m != m for lot in self.lotteries):
            raise WrongLengthError("all lotteries in a set must share the same m")

    @property
    def m(self) -> int:
        return self.lotteries[0].m


def finite_set(vectors: Sequence[Sequence[float]]) -> LotterySet:
    """An explicit list of lotteries, or the vertex list of a polytope."""
    return LotterySet(tuple(validate_lottery(v) for v in vectors))


def truncated_simplex(epsilon: Sequence[float]) -> LotterySet:
    """{pi : pi_i >= eps_i, sum pi = 1}, held as its m vertices: each sits
    at the lower bound in all coordinates but one."""
    eps = tuple(float(e) for e in epsilon)
    if len(eps) < 2:
        raise DegenerateSetError("truncated simplex needs m >= 2 lower bounds")
    if not all(0.0 < e < math.inf for e in eps):  # also rejects NaN
        raise DegenerateSetError("every epsilon_i must be positive and finite")
    total = _running_sum(eps)
    if total >= 1.0:
        raise DegenerateSetError("sum of epsilon_i must be below 1")
    verts = []
    for j in range(len(eps)):
        coords = list(eps)
        coords[j] = 1.0 - (total - eps[j])
        verts.append(validate_lottery(coords))
    return LotterySet(tuple(verts))


def candidate_set(K: LotterySet) -> list[Lottery]:
    """Finite candidate list sufficient for affine maximization over K.
    Its only reader is ``bench/spans.py``; it goes with ROADMAP item 3(a)."""
    return list(K.lotteries)


@dataclass(frozen=True)
class GameSpec:
    """One game instance: pile size n, max take m, admissible set K."""

    n: int
    m: int
    K: LotterySet

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if self.K.m != self.m:
            raise WrongLengthError(f"lottery set has m={self.K.m}, game spec has m={self.m}")


@dataclass(frozen=True)
class ConditionReport:
    """Structural constants of K and whether the convergence hypotheses hold."""

    eta: float
    nu: float

    @property
    def eta_ok(self) -> bool:
        return self.eta < 1.0

    @property
    def nu_ok(self) -> bool:
        return self.nu > 0.0


def compute_conditions(K: LotterySet) -> ConditionReport:
    """Compute eta (largest coordinate over K) and nu (min over coordinates
    of the per-coordinate maximum over K).

    Both are coordinate-wise linear functionals, so evaluating them on the
    candidate vertices is exact for convex K.
    """
    cands = K.lotteries
    eta = max(max(lot.probs) for lot in cands)
    nu = min(max(lot.probs[i] for lot in cands) for i in range(K.m))
    return ConditionReport(eta=eta, nu=nu)
