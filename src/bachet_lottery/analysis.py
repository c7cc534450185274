"""Deviation series of the value table and numerical checks of the
contraction argument behind p_n -> 1/2.

`deviation_series` is the one reader of a solved table; each check states
one proved inequality on its series as a record that `_scan` evaluates.
On a table whose lottery set satisfies eta < 1 and nu > 0, all checks
must come back clean; a violation beyond the slack tolerance indicates an
implementation defect, not a counterexample.

Window convention: W_k = {k, k-1, ..., k-m+1}, and indices s <= 0 carry
the boundary values p_s = 1, Delta_s = 1/2.  With this convention
DeltaBar_1 = 1/2 exactly, which the geometric envelope uses.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .engine import ValueTable, fold
from .errors import InvalidEtaNuError, TauOutOfRangeError

SLACK_TOL = 1e-9

DEFAULT_KAPPA_GRID = tuple(round(0.1 * i, 10) for i in range(1, 10))
_KM_BLOCK = 1 << 15  # (kappa, k) pairs that check_km_bound scans at a time


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
    period past that (see ``_folded``).

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
        array of pile sizes in 1..n: ``series[ds.index(k)]`` reads any
        series at k.  Any other pile size raises ValueError (``engine.fold``)."""
        return fold(k, self.n, self.computed, self.period) - 1


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


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Outcome of one inequality scan: where it applied, where it failed.

    ``checked`` and ``violation_count`` count every pile size;
    ``violations`` lists (k, lhs, rhs) at the representatives that fail.
    ``k`` holds the representatives the scan evaluated, and ``weight`` how
    many pile sizes each one stands for (see ``_folded``), both in k order:
    they are derived on first read from ``entries``, the scan's fold, the k
    and multiplicity of its entries (None: the fold's) and its hit mask.
    """

    lemma_id: str
    checked: int
    violation_count: int
    violations: list[tuple[int, float, float]]
    min_slack: float
    entries: tuple = field(repr=False)
    extra: dict = field(default_factory=dict)

    @cached_property
    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        fold, at, weight, hit = self.entries
        at, weight, hit = (a.T for a in np.broadcast_arrays(*fold.columns(at, weight), hit))
        order = np.argsort(at[hit], kind="stable")  # k order, then row order
        return at[hit][order], weight[hit][order]

    k = property(lambda self: self._entries[0])
    weight = property(lambda self: self._entries[1])
    ok = property(lambda self: not self.violation_count)

    def summary(self) -> dict:
        low = None if math.isinf(self.min_slack) else self.min_slack
        return {"lemma_id": self.lemma_id, "checked": self.checked,
                "violations": self.violation_count, "min_slack": low, **self.extra}


class _Fold(NamedTuple):
    """The representatives k_lo..last of the checked pile sizes k_lo..k_hi
    (last = k_lo - 1 when there are none, so every view is empty); those
    from index ``split`` on stand for their residue class."""

    k_lo: int
    last: int
    k_hi: int
    split: int
    period: int

    def at(self, series: np.ndarray, shift: int = 0) -> np.ndarray:
        """``series`` at k + shift for every representative k: a view."""
        return series[self.k_lo - 1 + shift : self.last + shift]

    def columns(self, at=None, weight=None) -> tuple[np.ndarray, np.ndarray]:
        """``at`` and ``weight``, where None the representatives and their
        multiplicities: 1 below ``split``, then the class members up to k_hi."""
        k = np.arange(self.k_lo, self.last + 1)
        if weight is None:
            weight = np.ones_like(k)
            weight[self.split :] += (self.k_hi - k[self.split :]) // max(self.period, 1)
        return k if at is None else at, weight


def _folded(ds: DeviationSeries, k_lo: int, k_hi: int, lag: int) -> _Fold:
    """The checked pile sizes k_lo..k_hi, folded onto their representatives.

    Every series repeats past computed - 1, so a check that reads its
    series at most ``lag`` pile sizes behind k, and anywhere ahead of it,
    has the same lhs and rhs, bit for bit, at k and at k - period for
    every k >= computed + lag.  The representatives are the pile sizes
    below that point plus one period of them; each one from that point on
    stands for every checked k of its residue class, so a report counts
    all n pile sizes while the work is O(computed).
    """
    start, period = ds.computed + lag, ds.period
    last = max(min(k_hi, max(start, k_lo) + period - 1) if period else k_hi, k_lo - 1)
    size = last - k_lo + 1
    return _Fold(k_lo, last, k_hi, min(max(start - k_lo, 0), size) if period else size, period)


def _scan(ids, fold: _Fold, lhs, rhs, hit=None, weight=None, at=None, **extra):
    """The evaluator of every check: lhs <= rhs + SLACK_TOL on one folded
    range.  A check states its lemma once, as a record: the range and lag
    it folds (``_folded``), lhs, rhs and ``hit``, where it applies (None:
    everywhere), read through ``fold.at`` views; ``at`` replaces the k the
    entries stand for, ``weight`` the multiplicities where a masked row
    checks fewer pile sizes.  Rows are inequalities: a str id makes one
    report of them all, at each k in row order; a list of ids one report
    per row (km_bound's kappas).  The hit mask compresses nothing: the
    slack reads +inf outside it, and only failing entries are gathered.
    """
    every = hit is None  # every pile size, once per row
    slack = np.atleast_2d(rhs - lhs if every else np.where(hit, rhs - lhs, math.inf))
    hit = np.ones((len(slack), 1), dtype=bool) if every else np.atleast_2d(hit)
    checked = [max(fold.k_hi - fold.k_lo + 1, 0)] * len(slack) if every else np.einsum(
        "...j,...j->...", hit, fold.columns(at, weight)[1]).tolist()
    bad, low = slack < -SLACK_TOL, slack.min(axis=1, initial=math.inf).tolist()
    merged, fails, reports = isinstance(ids, str), bad.any(axis=1).tolist(), []
    for i, lemma in enumerate([ids] if merged else ids):
        rows, violations, count = slice(None) if merged else slice(i, i + 1), [], 0
        if any(fails[rows]):
            where = bad[rows].T  # k order, then row order
            k, w, lhs_at, rhs_at = (np.broadcast_to(a, slack.shape)[rows].T[where].tolist()
                                    for a in (*fold.columns(at, weight), lhs, rhs))
            count, violations = sum(w), list(zip(k, lhs_at, rhs_at))
        reports.append(BoundReport(lemma, sum(checked[rows]), count, violations, min(low[rows]),
                                   (fold, at, weight, hit[rows]), dict(extra)))
    return reports


def check_monotonicity(ds: DeviationSeries) -> BoundReport:
    """Delta_k <= DeltaBar_{k-1} and DeltaBar_k <= DeltaBar_{k-1} for k = 2..n."""
    fold = _folded(ds, 2, ds.n, 1)
    bar, prev = fold.at(ds.delta_bar), fold.at(ds.delta_bar, -1)
    # empirical observation only; per-step strict decrease is not asserted
    return _scan("monotonicity", fold, np.array((fold.at(ds.delta), bar)), prev,
                 delta_bar_strictly_decreasing_per_step=bool(np.all(bar < prev)))[0]


def check_no_long_winning(ds: DeviationSeries) -> BoundReport:
    """After m consecutive winning positions, the next one loses: whenever
    p_j > 1/2 on the whole window W_k (k > m), p_{k+1} < 1/2 (while k < n)
    and p_{k-m} <= 1/2."""
    fold = _folded(ds, ds.m + 1, ds.n, ds.m)
    (k, weight), hit = fold.columns(), fold.at(ds.p_min) > 0.5
    # no p_{n+1}: the p_{k+1} row counts one member fewer of the class that reaches n
    ahead = weight - (k + (weight - 1) * ds.period == ds.n)
    p_next = np.append(fold.at(ds.p, 1), 0.5)[: k.size]
    return _scan("no_long_winning", fold, np.array((p_next, fold.at(ds.p, -ds.m))), 0.5,
                 np.array((hit & (ahead > 0), hit)), np.array((ahead, weight)))[0]


def check_km_bound(ds: DeviationSeries, eta: float,
                   kappa_grid=DEFAULT_KAPPA_GRID) -> list[BoundReport]:
    """When the whole window sits above 1/2 + (1-kappa)*Delta_{k+1}, the
    deviation m steps back dominates: Delta_{k+1} <= eta/((2-eta)(1-kappa))
    * Delta_{k-m}.  One report per kappa, with id ``km_bound[kappa=...]``
    holding repr(kappa), so that distinct kappas get distinct ids; a
    kappa outside (0, 1) or given twice raises ValueError.  The kappas
    are the rows of one scan, taken _KM_BLOCK (kappa, k) pairs at a time.
    """
    below = {}  # id -> 1 - kappa
    for kappa in kappa_grid:
        if not (0.0 < kappa < 1.0):
            raise ValueError(f"kappa must be in (0, 1), got {kappa}")
        lemma = f"km_bound[kappa={float(kappa)!r}]"
        if lemma in below:
            raise ValueError(f"kappa {kappa} given twice: each names one report")
        below[lemma] = 1.0 - kappa
    fold = _folded(ds, ds.m + 1, ds.n - 1, ds.m)
    window_min, d_next, d_back = fold.at(ds.p_min), fold.at(ds.delta, 1), fold.at(ds.delta, -ds.m)
    ids, below = list(below), np.array(list(below.values()))[:, None]
    rows, reports = max(1, _KM_BLOCK // max(d_next.size, 1)), []
    for lo in range(0, len(ids), rows):
        c = below[lo : lo + rows]
        reports += _scan(ids[lo : lo + rows], fold, d_next, eta / ((2.0 - eta) * c) * d_back,
                         window_min >= 0.5 + c * d_next)
    return reports


def check_corridor(ds: DeviationSeries, nu: float) -> BoundReport:
    """Losing position k+1 forces the window to reach above the corridor:

        max_{i in W_k} (p_i - (1/2 + Delta_{k+1}))
            >= (nu/(1-nu)) * max_{i in W_k} ((1/2 + Delta_{k+1}) - p_i).

    max_i fl(c - p_i) = fl(c - min_i p_i) exactly (see `DeviationSeries`).
    """
    if not (0.0 < nu < 1.0):
        raise InvalidEtaNuError(f"corridor check needs 0 < nu < 1, got {nu}")
    fold = _folded(ds, 1, ds.n - 1, 0)
    ceil = 0.5 + fold.at(ds.delta, 1)
    return _scan("corridor", fold, nu / (1.0 - nu) * (ceil - fold.at(ds.p_min)),
                 fold.at(ds.p_max) - ceil, fold.at(ds.p, 1) < 0.5)[0]


def check_drop_down(ds: DeviationSeries, dc: DropConstants) -> list[BoundReport]:
    """The three contraction inequalities with factor delta:

    - losing positions (p_{k+1} < 1/2, k > m): Delta_{k+1} <= delta * DeltaBar_{k-m}
    - all k > 2m: Delta_{k+1} <= delta * DeltaBar_{k-2m}
    - all k > 3m: DeltaBar_k <= delta * DeltaBar_{k-3m}
    """
    m, n, delta = ds.m, ds.n, dc.delta
    fold = _folded(ds, m + 1, n - 1, m)
    reports = _scan("drop_down_losing", fold, fold.at(ds.delta, 1),
                    delta * fold.at(ds.delta_bar, -m), fold.at(ds.p, 1) < 0.5)
    fold = _folded(ds, 2 * m + 1, n - 1, 2 * m)
    reports += _scan("drop_down_2m", fold, fold.at(ds.delta, 1),
                     delta * fold.at(ds.delta_bar, -2 * m))
    fold = _folded(ds, 3 * m + 1, n, 3 * m)
    return reports + _scan("drop_down_3m", fold, fold.at(ds.delta_bar),
                           delta * fold.at(ds.delta_bar, -3 * m))


def check_plus_minus(ds: DeviationSeries) -> BoundReport:
    """Upward deviation is capped by the recent downward ones:
    DeltaPlus_{k+1} <= DeltaBarMinus_k for k = 1..n-1."""
    fold = _folded(ds, 1, ds.n - 1, 0)
    return _scan("plus_minus", fold, fold.at(ds.delta_plus, 1), fold.at(ds.delta_bar_minus))[0]


def check_envelope(ds: DeviationSeries, dc: DropConstants) -> BoundReport:
    """Geometric envelope: DeltaBar_k <= 0.5 * delta^floor((k-1)/(3m)).

    At k = 1 + 3mN this is the N-fold contraction of DeltaBar_1 = 1/2;
    monotonicity of DeltaBar extends it to every k in between.

    The one check whose rhs does not repeat.  Along a residue class past
    the prefix DeltaBar repeats and the rhs does not increase, and fl(a - c)
    is monotone in a, so neither does the slack: the scan reads each class
    at its last member, where the slack is least, and a class that fails
    there enters the report as two pile sizes, found by a search: its last
    member that holds, for it and every earlier one, and its last member.
    """
    m, delta, period = ds.m, dc.delta, max(ds.period, 1)
    fold = _folded(ds, 1, ds.n, 0)
    reps, weight = fold.columns()
    last = reps + (weight - 1) * period
    prefix = [envelope_bound(1 + 3 * m * b, delta, m) for b in range(-(-fold.split // (3 * m)))]
    rhs = np.concatenate((np.repeat(prefix, 3 * m)[: fold.split],  # k = 1.. by blocks of 3m
                          [envelope_bound(j, delta, m) for j in last[fold.split :].tolist()]))
    report = _scan("envelope", fold, fold.at(ds.delta_bar), rhs, at=last)[0]
    if not report.violations:
        return report
    held = np.zeros_like(weight)  # the class of representative i + 1 holds at held[i] members
    for k, bar, _ in report.violations:
        i = int(np.flatnonzero(last == k)[0])
        held[i] = bisect.bisect_left(range(i + 1, k + 1, period), True,
                                     key=lambda j: envelope_bound(j, delta, m) - bar < -SLACK_TOL)
    at, weight = np.array((last - (weight - held) * period, last)), np.array((held, weight - held))
    return replace(report, violation_count=report.violation_count - int(held.sum()),
                   violations=sorted(report.violations), entries=(fold, at, weight, weight > 0))


def run_checks(ds: DeviationSeries, dc: DropConstants,
               kappa_grid=DEFAULT_KAPPA_GRID) -> list[BoundReport]:
    """All inequality checks on one solved table's series, in report order,
    with eta, nu and delta from the drop constants ``dc``."""
    return [check_monotonicity(ds), check_no_long_winning(ds),
            *check_km_bound(ds, dc.eta, kappa_grid), check_corridor(ds, dc.nu),
            *check_drop_down(ds, dc), check_plus_minus(ds), check_envelope(ds, dc)]


def envelope_bound(k: int, delta: float, m: int) -> float:
    """The geometric envelope value at pile size k."""
    return 0.5 * delta ** ((k - 1) // (3 * m))
