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

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import ValueTable, fold
from .errors import InvalidEtaNuError, TauOutOfRangeError

SLACK_TOL = 1e-9

DEFAULT_KAPPA_GRID = tuple(round(0.1 * i, 10) for i in range(1, 10))


@dataclass(frozen=True)
class DeviationSeries:
    """p_k, its deviation from 1/2 and derived window extrema.

    ``computed`` and ``period`` are the table's (on a solved table, the
    state after pile size computed - period is the first that comes back,
    period pile sizes later).  The arrays are indexed by k - 1 and cover
    k = 1..min(n, computed + period + 3m); windows of k < m reach into the
    boundary values.  Past computed - 1 every series repeats with the
    table's period, because each window W_k with k >= computed holds only
    values that repeat.  A check reads at most 3m pile sizes back, so its
    inputs repeat from k = computed + 3m on, and the arrays reach one
    period past that (see ``_folded``).  The accessors read any k in 1..n
    by going back whole periods (see ``engine.fold``), and extend below
    k = 1 with the boundary values.

    Round-to-nearest is monotone and odd, so the window maxima of Delta
    and DeltaMinus are, bit for bit, max(fl(p_max - 1/2), fl(1/2 - p_min))
    and max(fl(1/2 - p_min), 0): the window extrema of p fix both, and
    are the only window reductions.
    """

    m: int
    n: int
    computed: int
    period: int
    p: np.ndarray            # p_k
    p_min: np.ndarray        # min of p over W_k
    p_max: np.ndarray        # max of p over W_k
    d: np.ndarray            # D_k = p_k - 1/2
    delta: np.ndarray        # |D_k|
    delta_bar: np.ndarray    # max of delta over W_k
    delta_plus: np.ndarray   # max(0, D_k)
    delta_minus: np.ndarray  # max(0, -D_k)
    delta_bar_minus: np.ndarray  # max of delta_minus over W_k

    def index(self, k):
        """The array index that holds pile size k, an int or an integer
        array of pile sizes in 1..n; any other pile size raises ValueError
        (``engine.fold``)."""
        return fold(k, self.n, self.computed, self.period) - 1

    def _at(self, series: np.ndarray, k: int, boundary: float) -> float:
        """``series`` at pile size k in 1..n, ``boundary`` for k <= 0; a
        larger k raises ValueError."""
        if k <= 0:
            return boundary
        return float(series[self.index(k)])

    def delta_at(self, k: int) -> float:
        return self._at(self.delta, k, 0.5)

    def dbar(self, k: int) -> float:
        return self._at(self.delta_bar, k, 0.5)

    def dbar_minus(self, k: int) -> float:
        return self._at(self.delta_bar_minus, k, 0.0)


def deviation_series(vt: ValueTable) -> DeviationSeries:
    """Derive every series the checks read from a solved table."""
    m = vt.m
    ext = vt.p_upto(min(vt.n, vt.computed + vt.period + 3 * m))
    # column k - 1 is W_k; extrema over axis 0 take m elementwise passes
    windows = np.lib.stride_tricks.sliding_window_view(ext, m)[1:].T
    p_min, p_max = windows.min(axis=0), windows.max(axis=0)
    d = ext[m:] - 0.5
    below = 0.5 - p_min
    return DeviationSeries(
        m=m,
        n=vt.n,
        computed=vt.computed,
        period=vt.period,
        p=ext[m:],
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
    """Outcome of one inequality scan: where it applied, where it failed.

    ``k`` holds the representative pile sizes the scan evaluated, and
    ``weight`` how many checked pile sizes each one stands for (see
    ``_folded``).  ``checked`` and ``violation_count`` count every pile
    size; ``violations`` lists (k, lhs, rhs) at the representatives that
    fail, in k order.
    """

    lemma_id: str
    k: np.ndarray
    weight: np.ndarray
    violation_count: int
    violations: list[tuple[int, float, float]]
    min_slack: float
    extra: dict = field(default_factory=dict)

    @classmethod
    def scan(cls, lemma_id: str, k: np.ndarray, lhs: np.ndarray, rhs: np.ndarray,
             weight: np.ndarray, **extra) -> BoundReport:
        """Assert lhs <= rhs + SLACK_TOL at every index k (parallel arrays),
        where entry i stands for weight[i] checked pile sizes."""
        slack = rhs - lhs
        bad = slack < -SLACK_TOL
        at = np.flatnonzero(bad)
        violations = list(zip(k[at].tolist(), lhs[at].tolist(), rhs[at].tolist()))
        min_slack = float(slack.min()) if slack.size else math.inf
        return cls(lemma_id, k, weight, int(weight[bad].sum()), violations, min_slack, extra)

    @property
    def checked(self) -> int:
        return int(self.weight.sum())

    @property
    def ok(self) -> bool:
        return not self.violation_count

    def summary(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "checked": self.checked,
            "violations": self.violation_count,
            "min_slack": None if math.isinf(self.min_slack) else self.min_slack,
            **self.extra,
        }


def _folded(ds: DeviationSeries, k_lo: int, k_hi: int, lag: int):
    """The checked pile sizes k_lo..k_hi as (representative k, multiplicity).

    Every series repeats past computed - 1, so a check that reads its
    series at most ``lag`` pile sizes behind k, and anywhere ahead of it,
    has the same lhs and rhs, bit for bit, at k and at k - period for
    every k >= computed + lag.  The representatives are the pile sizes
    below that point plus one period of them; each one from that point on
    stands for every checked k of its residue class, so a report counts
    all n pile sizes while the work is O(computed).
    """
    start, period = ds.computed + lag, ds.period
    last = min(k_hi, max(start, k_lo) + period - 1) if period else k_hi
    k = np.arange(k_lo, last + 1)
    weight = np.ones_like(k)
    if period:
        tail = k >= start
        weight[tail] = (k_hi - k[tail]) // period + 1
    return k, weight


def _pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Interleave two equal-length arrays: first[0], second[0], first[1], ..."""
    return np.column_stack((first, second)).ravel()


def check_monotonicity(ds: DeviationSeries) -> BoundReport:
    """Delta_k <= DeltaBar_{k-1} and DeltaBar_k <= DeltaBar_{k-1} for k = 2..n."""
    k, weight = _folded(ds, 2, ds.n, 1)
    prev = ds.delta_bar[k - 2]
    return BoundReport.scan(
        "monotonicity",
        np.repeat(k, 2),
        _pairs(ds.delta[k - 1], ds.delta_bar[k - 1]),
        np.repeat(prev, 2),
        np.repeat(weight, 2),
        # empirical observation only; per-step strict decrease is not asserted
        delta_bar_strictly_decreasing_per_step=bool(np.all(ds.delta_bar[k - 1] < prev)),
    )


def check_no_long_winning(ds: DeviationSeries) -> BoundReport:
    """After m consecutive winning positions, the next one loses.

    Whenever p_j > 1/2 on the whole window W_k (k > m): p_{k+1} < 1/2 and
    p_{k-m} <= 1/2.
    """
    m, n = ds.m, ds.n
    k, weight = _folded(ds, m + 1, n, m)
    hit = ds.p_min[k - 1] > 0.5
    k, weight = k[hit], weight[hit]
    # p_{k+1} is only checked while k + 1 <= n: not at pile size n, the
    # last member of the class that reaches it
    ahead = weight - (k + (weight - 1) * ds.period == n)
    p_next = ds.p[np.minimum(k, ds.p.size - 1)]
    keep = _pairs(ahead > 0, weight > 0)
    lhs = _pairs(p_next, ds.p[k - m - 1])[keep]
    return BoundReport.scan("no_long_winning", np.repeat(k, 2)[keep], lhs,
                            np.full_like(lhs, 0.5), _pairs(ahead, weight)[keep])


def check_km_bound(
    ds: DeviationSeries, eta: float, kappa_grid=DEFAULT_KAPPA_GRID
) -> list[BoundReport]:
    """When the whole window sits above 1/2 + (1-kappa)*Delta_{k+1}, the
    deviation m steps back dominates: Delta_{k+1} <= eta/((2-eta)(1-kappa))
    * Delta_{k-m}.  One report per kappa, with id ``km_bound[kappa=...]``
    holding repr(kappa), so that distinct kappas get distinct ids; a
    kappa outside (0, 1) or given twice raises ValueError.
    """
    k, weight = _folded(ds, ds.m + 1, ds.n - 1, ds.m)
    window_min = ds.p_min[k - 1]
    d_next = ds.delta[k]             # Delta_{k+1}
    d_back = ds.delta[k - ds.m - 1]  # Delta_{k-m}
    reports = {}
    for kappa in kappa_grid:
        if not (0.0 < kappa < 1.0):
            raise ValueError(f"kappa must be in (0, 1), got {kappa}")
        lemma = f"km_bound[kappa={float(kappa)!r}]"
        if lemma in reports:
            raise ValueError(f"kappa {kappa} given twice: each names one report")
        factor = eta / ((2.0 - eta) * (1.0 - kappa))
        hit = window_min >= 0.5 + (1.0 - kappa) * d_next
        reports[lemma] = BoundReport.scan(
            lemma, k[hit], d_next[hit], factor * d_back[hit], weight[hit]
        )
    return list(reports.values())


def check_corridor(ds: DeviationSeries, nu: float) -> BoundReport:
    """Losing position k+1 forces the window to reach above the corridor:

        max_{i in W_k} (p_i - (1/2 + Delta_{k+1}))
            >= (nu/(1-nu)) * max_{i in W_k} ((1/2 + Delta_{k+1}) - p_i).

    max_i fl(c - p_i) = fl(c - min_i p_i) exactly (see `DeviationSeries`).
    """
    if not (0.0 < nu < 1.0):
        raise InvalidEtaNuError(f"corridor check needs 0 < nu < 1, got {nu}")
    ratio = nu / (1.0 - nu)
    k, weight = _folded(ds, 1, ds.n - 1, 0)
    losing = ds.p[k] < 0.5
    k, weight = k[losing], weight[losing]
    ceil = 0.5 + ds.delta[k]
    return BoundReport.scan(
        "corridor", k, ratio * (ceil - ds.p_min[k - 1]), ds.p_max[k - 1] - ceil, weight
    )


def check_drop_down(ds: DeviationSeries, dc: DropConstants) -> list[BoundReport]:
    """The three contraction inequalities with factor delta:

    - losing positions (p_{k+1} < 1/2, k > m): Delta_{k+1} <= delta * DeltaBar_{k-m}
    - all k > 2m: Delta_{k+1} <= delta * DeltaBar_{k-2m}
    - all k > 3m: DeltaBar_k <= delta * DeltaBar_{k-3m}
    """
    m, n, delta = ds.m, ds.n, dc.delta
    k, weight = _folded(ds, m + 1, n - 1, m)
    losing = ds.p[k] < 0.5
    k, weight = k[losing], weight[losing]
    losing = BoundReport.scan(
        "drop_down_losing", k, ds.delta[k], delta * ds.delta_bar[k - m - 1], weight
    )
    k, weight = _folded(ds, 2 * m + 1, n - 1, 2 * m)
    every = BoundReport.scan(
        "drop_down_2m", k, ds.delta[k], delta * ds.delta_bar[k - 2 * m - 1], weight
    )
    k, weight = _folded(ds, 3 * m + 1, n, 3 * m)
    block = BoundReport.scan(
        "drop_down_3m", k, ds.delta_bar[k - 1], delta * ds.delta_bar[k - 3 * m - 1], weight
    )
    return [losing, every, block]


def check_plus_minus(ds: DeviationSeries) -> BoundReport:
    """Upward deviation is capped by the recent downward ones:
    DeltaPlus_{k+1} <= DeltaBarMinus_k for k = 1..n-1."""
    k, weight = _folded(ds, 1, ds.n - 1, 0)
    return BoundReport.scan(
        "plus_minus", k, ds.delta_plus[k], ds.delta_bar_minus[k - 1], weight
    )


def check_envelope(ds: DeviationSeries, dc: DropConstants) -> BoundReport:
    """Geometric envelope: DeltaBar_k <= 0.5 * delta^floor((k-1)/(3m)).

    At k = 1 + 3mN this is the N-fold contraction of DeltaBar_1 = 1/2;
    monotonicity of DeltaBar extends it to every k in between.

    The one check whose rhs does not repeat.  Along a residue class past
    the prefix DeltaBar repeats and the rhs does not increase, and
    fl(a - c) is monotone in a, so the slack does not increase either:
    the violations of a class are a suffix of it, found by a search over
    its members, and its minimum slack is at its last member.  So each
    class enters the scan as at most two pile sizes: its last member that
    holds, standing for that one and every earlier member, and its last
    member, standing for the suffix that fails.
    """
    m, delta, period = ds.m, dc.delta, ds.period
    k, weight = _folded(ds, 1, ds.n, 0)
    classes = weight > 1
    ks, weights = [], []
    for r, count in zip(k[classes].tolist(), weight[classes].tolist()):
        bar = float(ds.delta_bar[r - 1])
        members = range(r, r + count * period, period)
        holds = bisect.bisect_left(
            members, True, key=lambda j: envelope_bound(j, delta, m) - bar < -SLACK_TOL
        )
        if holds:
            ks.append(members[holds - 1])
            weights.append(holds)
        if holds < count:
            ks.append(members[-1])
            weights.append(count - holds)
    k = np.concatenate((k[~classes], np.array(ks, dtype=k.dtype)))
    weight = np.concatenate((weight[~classes], np.array(weights, dtype=k.dtype)))
    order = np.argsort(k)
    k, weight = k[order], weight[order]
    blocks, block_of = np.unique((k - 1) // (3 * m), return_inverse=True)
    rhs = np.array([envelope_bound(1 + 3 * m * b, delta, m) for b in blocks.tolist()])
    return BoundReport.scan("envelope", k, ds.delta_bar[ds.index(k)], rhs[block_of], weight)


def run_checks(
    ds: DeviationSeries, dc: DropConstants, kappa_grid=DEFAULT_KAPPA_GRID,
) -> list[BoundReport]:
    """All inequality checks on one solved table's series, in report order,
    with eta, nu and delta from the drop constants ``dc``."""
    reports = [check_monotonicity(ds), check_no_long_winning(ds)]
    reports += check_km_bound(ds, dc.eta, kappa_grid)
    reports.append(check_corridor(ds, dc.nu))
    reports += check_drop_down(ds, dc)
    reports.append(check_plus_minus(ds))
    reports.append(check_envelope(ds, dc))
    return reports


def envelope_bound(k: int, delta: float, m: int) -> float:
    """The geometric envelope value at pile size k."""
    return 0.5 * delta ** ((k - 1) // (3 * m))
