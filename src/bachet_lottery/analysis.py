"""Deviation series of the value table and numerical checks of the
contraction argument behind p_n -> 1/2.

`deviation_series` is the one reader of a solved table; every check
scans that series and records violations of one proved inequality.  On
a table whose lottery set satisfies eta < 1 and nu > 0, all checks must
come back clean; a violation beyond the slack tolerance indicates an
implementation defect, not a counterexample.

Window convention: W_k = {k, k-1, ..., k-m+1}, and indices s <= 0 carry
the boundary values p_s = 1, Delta_s = 1/2.  With this convention
DeltaBar_1 = 1/2 exactly, which the geometric envelope uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import ValueTable
from .errors import InvalidEtaNuError, TauOutOfRangeError
from .lotteries import ConditionReport

SLACK_TOL = 1e-9

DEFAULT_KAPPA_GRID = tuple(round(0.1 * i, 10) for i in range(1, 10))


@dataclass(frozen=True)
class DeviationSeries:
    """p_k, its deviation from 1/2 and derived window extrema, k = 1..n.

    Arrays are indexed by k - 1; windows of k < m reach into the boundary
    values.  Accessors extend below k = 1 with the boundary values.

    Round-to-nearest is monotone and odd, so the window maxima of Delta
    and DeltaMinus are, bit for bit, max(fl(p_max - 1/2), fl(1/2 - p_min))
    and max(fl(1/2 - p_min), 0): the window extrema of p fix both.
    """

    m: int
    n: int
    p: np.ndarray            # p_k
    p_min: np.ndarray        # min of p over W_k
    p_max: np.ndarray        # max of p over W_k
    d: np.ndarray            # D_k = p_k - 1/2
    delta: np.ndarray        # |D_k|
    delta_bar: np.ndarray    # max of delta over W_k
    delta_plus: np.ndarray   # max(0, D_k)
    delta_minus: np.ndarray  # max(0, -D_k)
    delta_bar_minus: np.ndarray  # max of delta_minus over W_k

    def delta_at(self, k: int) -> float:
        return 0.5 if k <= 0 else float(self.delta[k - 1])

    def dbar(self, k: int) -> float:
        return 0.5 if k <= 0 else float(self.delta_bar[k - 1])

    def dbar_minus(self, k: int) -> float:
        return 0.0 if k <= 0 else float(self.delta_bar_minus[k - 1])


def deviation_series(vt: ValueTable) -> DeviationSeries:
    """Derive every series the checks read from a solved table."""
    m = vt.m
    # column k - 1 is W_k; extrema over axis 0 take m elementwise passes
    windows = np.lib.stride_tricks.sliding_window_view(vt.p_ext, m)[1:].T
    p_min, p_max = windows.min(axis=0), windows.max(axis=0)
    d = vt.p_ext[m:] - 0.5
    below = 0.5 - p_min
    return DeviationSeries(
        m=m,
        n=vt.n,
        p=vt.p_ext[m:],
        p_min=p_min,
        p_max=p_max,
        d=d,
        delta=np.abs(d),
        delta_bar=np.maximum(p_max - 0.5, below),
        delta_plus=np.maximum(d, 0.0),
        delta_minus=np.maximum(-d, 0.0),
        delta_bar_minus=np.maximum(below, 0.0),
    )


def _tau_upper(eta: float, nu: float) -> float:
    return (nu / (1.0 - nu)) * (2.0 - 2.0 * eta) / (2.0 - eta)


def _delta_of_tau(eta: float, nu: float, tau: float) -> float:
    branch_a = (eta / (2.0 - eta)) * (nu / (nu - tau + nu * tau))
    branch_b = 1.0 / (1.0 + tau)
    return max(branch_a, branch_b)


@dataclass(frozen=True)
class DropConstants:
    """Contraction constants: per-3m-block factor delta for given eta, nu, tau."""

    eta: float
    nu: float
    tau: float
    delta: float


def _golden_section_min(f, lo: float, hi: float, tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def drop_constants(eta: float, nu: float, tau: float | None = None) -> DropConstants:
    """Build the contraction constants.

    tau must lie in the open interval (0, (nu/(1-nu)) * (2-2*eta)/(2-eta));
    if omitted, it is chosen to minimize delta by golden-section search.
    delta = max{(eta/(2-eta)) * nu/(nu - tau + nu*tau), 1/(1+tau)} and is
    strictly below 1 for any admissible tau.
    """
    if not (0.0 < eta < 1.0) or not (0.0 < nu < 1.0):
        raise InvalidEtaNuError(f"need 0 < eta < 1 and 0 < nu < 1, got eta={eta}, nu={nu}")
    hi = _tau_upper(eta, nu)
    if tau is None:
        tau = _golden_section_min(
            lambda t: _delta_of_tau(eta, nu, t), hi * 1e-9, hi * (1.0 - 1e-9), 1e-10
        )
    elif not (0.0 < tau < hi):
        raise TauOutOfRangeError(f"tau={tau} outside the open interval (0, {hi})")
    delta = _delta_of_tau(eta, nu, tau)
    if not (0.0 < delta < 1.0):
        raise InvalidEtaNuError(f"derived delta={delta} not in (0, 1)")
    return DropConstants(eta=eta, nu=nu, tau=tau, delta=delta)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality scan: where it applied, where it failed."""

    lemma_id: str
    checked_k: np.ndarray
    violations: list[tuple[int, float, float]]
    min_slack: float
    extra: dict = field(default_factory=dict)

    @classmethod
    def scan(cls, lemma_id: str, k: np.ndarray, lhs: np.ndarray, rhs: np.ndarray,
             **extra) -> BoundReport:
        """Assert lhs <= rhs + SLACK_TOL at every index k (parallel arrays)."""
        slack = rhs - lhs
        bad = np.flatnonzero(slack < -SLACK_TOL)
        violations = list(zip(k[bad].tolist(), lhs[bad].tolist(), rhs[bad].tolist()))
        min_slack = float(slack.min()) if slack.size else math.inf
        return cls(lemma_id, np.asarray(k, dtype=np.int64), violations, min_slack, extra)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "checked": len(self.checked_k),
            "violations": len(self.violations),
            "min_slack": None if math.isinf(self.min_slack) else self.min_slack,
            **self.extra,
        }


def _pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Interleave two equal-length arrays: first[0], second[0], first[1], ..."""
    return np.column_stack((first, second)).ravel()


def check_monotonicity(ds: DeviationSeries) -> BoundReport:
    """Delta_k <= DeltaBar_{k-1} and DeltaBar_k <= DeltaBar_{k-1} for k = 2..n."""
    prev = ds.delta_bar[:-1]
    return BoundReport.scan(
        "monotonicity",
        np.repeat(np.arange(2, ds.n + 1), 2),
        _pairs(ds.delta[1:], ds.delta_bar[1:]),
        np.repeat(prev, 2),
        # empirical observation only; per-step strict decrease is not asserted
        delta_bar_strictly_decreasing_per_step=bool(np.all(ds.delta_bar[1:] < prev)),
    )


def check_no_long_winning(ds: DeviationSeries) -> BoundReport:
    """After m consecutive winning positions, the next one loses.

    Whenever p_j > 1/2 on the whole window W_k (k > m): p_{k+1} < 1/2 and
    p_{k-m} <= 1/2.
    """
    m, n = ds.m, ds.n
    k = np.arange(m + 1, n + 1)
    k = k[ds.p_min[k - 1] > 0.5]
    # p_{k+1} is only checked while k + 1 <= n
    p_next = ds.p[np.minimum(k, n - 1)]
    keep = np.ones(2 * k.size, dtype=bool)
    keep[0::2] = k < n
    lhs = _pairs(p_next, ds.p[k - m - 1])[keep]
    return BoundReport.scan("no_long_winning", np.repeat(k, 2)[keep], lhs,
                            np.full_like(lhs, 0.5))


def check_km_bound(
    ds: DeviationSeries, eta: float, kappa_grid=DEFAULT_KAPPA_GRID
) -> list[BoundReport]:
    """When the whole window sits above 1/2 + (1-kappa)*Delta_{k+1}, the
    deviation m steps back dominates: Delta_{k+1} <= eta/((2-eta)(1-kappa))
    * Delta_{k-m}.  One report per kappa.
    """
    k = np.arange(ds.m + 1, ds.n)
    window_min = ds.p_min[k - 1]
    d_next = ds.delta[k]             # Delta_{k+1}
    d_back = ds.delta[k - ds.m - 1]  # Delta_{k-m}
    reports = []
    for kappa in kappa_grid:
        if not (0.0 < kappa < 1.0):
            raise ValueError(f"kappa must be in (0, 1), got {kappa}")
        factor = eta / ((2.0 - eta) * (1.0 - kappa))
        hit = window_min >= 0.5 + (1.0 - kappa) * d_next
        reports.append(BoundReport.scan(
            f"km_bound[kappa={kappa:g}]", k[hit], d_next[hit], factor * d_back[hit]
        ))
    return reports


def check_corridor(ds: DeviationSeries, nu: float) -> BoundReport:
    """Losing position k+1 forces the window to reach above the corridor:

        max_{i in W_k} (p_i - (1/2 + Delta_{k+1}))
            >= (nu/(1-nu)) * max_{i in W_k} ((1/2 + Delta_{k+1}) - p_i).

    max_i fl(c - p_i) = fl(c - min_i p_i) exactly (see `DeviationSeries`).
    """
    if not (0.0 < nu < 1.0):
        raise InvalidEtaNuError(f"corridor check needs 0 < nu < 1, got {nu}")
    ratio = nu / (1.0 - nu)
    k = np.arange(1, ds.n)
    k = k[ds.p[k] < 0.5]
    ceil = 0.5 + ds.delta[k]
    return BoundReport.scan(
        "corridor", k, ratio * (ceil - ds.p_min[k - 1]), ds.p_max[k - 1] - ceil
    )


def check_drop_down(ds: DeviationSeries, dc: DropConstants) -> list[BoundReport]:
    """The three contraction inequalities with factor delta:

    - losing positions (p_{k+1} < 1/2, k > m): Delta_{k+1} <= delta * DeltaBar_{k-m}
    - all k > 2m: Delta_{k+1} <= delta * DeltaBar_{k-2m}
    - all k > 3m: DeltaBar_k <= delta * DeltaBar_{k-3m}
    """
    m, n, delta = ds.m, ds.n, dc.delta
    k = np.arange(m + 1, n)
    k = k[ds.p[k] < 0.5]
    losing = BoundReport.scan(
        "drop_down_losing", k, ds.delta[k], delta * ds.delta_bar[k - m - 1]
    )
    k = np.arange(2 * m + 1, n)
    every = BoundReport.scan(
        "drop_down_2m", k, ds.delta[k], delta * ds.delta_bar[k - 2 * m - 1]
    )
    k = np.arange(3 * m + 1, n + 1)
    block = BoundReport.scan(
        "drop_down_3m", k, ds.delta_bar[k - 1], delta * ds.delta_bar[k - 3 * m - 1]
    )
    return [losing, every, block]


def check_plus_minus(ds: DeviationSeries) -> BoundReport:
    """Upward deviation is capped by the recent downward ones:
    DeltaPlus_{k+1} <= DeltaBarMinus_k for k = 1..n-1."""
    return BoundReport.scan(
        "plus_minus", np.arange(1, ds.n), ds.delta_plus[1:], ds.delta_bar_minus[:-1]
    )


def check_envelope(ds: DeviationSeries, dc: DropConstants) -> BoundReport:
    """Geometric envelope: DeltaBar_k <= 0.5 * delta^floor((k-1)/(3m)).

    At k = 1 + 3mN this is the N-fold contraction of DeltaBar_1 = 1/2;
    monotonicity of DeltaBar extends it to every k in between.
    """
    return BoundReport.scan(
        "envelope", np.arange(1, ds.n + 1), ds.delta_bar, envelope(ds.n, dc.delta, ds.m)
    )


def run_checks(
    ds: DeviationSeries, cond: ConditionReport, dc: DropConstants,
    kappa_grid=DEFAULT_KAPPA_GRID,
) -> list[BoundReport]:
    """All inequality checks on one solved table's series, in report order."""
    reports = [check_monotonicity(ds), check_no_long_winning(ds)]
    reports += check_km_bound(ds, cond.eta, kappa_grid)
    reports.append(check_corridor(ds, cond.nu))
    reports += check_drop_down(ds, dc)
    reports.append(check_plus_minus(ds))
    reports.append(check_envelope(ds, dc))
    return reports


def envelope_bound(k: int, delta: float, m: int) -> float:
    """The geometric envelope value at pile size k."""
    return 0.5 * delta ** ((k - 1) // (3 * m))


def envelope(n: int, delta: float, m: int) -> np.ndarray:
    """envelope_bound(k, delta, m) for k = 1..n, indexed by k - 1.

    One scalar power per 3m-block keeps the float path of envelope_bound.
    """
    block = np.arange(n) // (3 * m)
    bounds = [envelope_bound(1 + 3 * m * j, delta, m) for j in range((n - 1) // (3 * m) + 1)]
    return np.array(bounds)[block]
