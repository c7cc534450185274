import dataclasses
import math
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bachet_lottery import (
    GameSpec,
    compute_conditions,
    deviation_series,
    drop_constants,
    finite_set,
    run_checks,
    solve,
    truncated_simplex,
)
from bachet_lottery.analysis import (
    DropConstants,
    check_corridor,
    check_drop_down,
    check_envelope,
    check_km_bound,
    check_monotonicity,
    check_no_long_winning,
    check_plus_minus,
)
from bachet_lottery.errors import InvalidEtaNuError, TauOutOfRangeError

HALF = finite_set([[0.5, 0.5]])


@pytest.fixture(scope="module")
def half_table():
    return solve(GameSpec(20, 2, HALF))


@pytest.fixture(scope="module")
def half_series(half_table):
    return deviation_series(half_table)


@pytest.fixture(scope="module")
def trunc_table():
    return solve(GameSpec(10_000, 2, truncated_simplex([0.05, 0.05])))


@pytest.fixture(scope="module")
def trunc_series(trunc_table):
    return deviation_series(trunc_table)


@pytest.fixture(scope="module")
def trunc_constants():
    cond = compute_conditions(truncated_simplex([0.05, 0.05]))
    return drop_constants(cond.eta, cond.nu)


@st.composite
def _games(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        eps = draw(st.lists(st.floats(0.001, 0.9 / m), min_size=m, max_size=m))
        K = truncated_simplex(eps)
    else:
        rows = draw(st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m), min_size=1, max_size=4
        ))
        K = finite_set([[w / sum(row) for w in row] for row in rows])
    return GameSpec(n, m, K)


# kappas anywhere in (0, 1), and some so close to 0 or 1 that their
# reports may hit nothing, or every pile size whose window is above 1/2
KAPPA_GRIDS = st.lists(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    | st.sampled_from([5e-324, 1e-12, 0.5, 1.0 - 2.0**-53]),
    min_size=1, max_size=9, unique_by=lambda kappa: repr(float(kappa)),
)


def _assert_p_windows(vt, ds):
    """p, p_min and p_max against per-index values of the table: in order
    over the arrays, and through ``ds.index`` at every pile size 1..n."""
    assert ds.n == vt.n
    size = min(vt.n, vt.computed + vt.period + 3 * vt.m)
    assert ds.p.shape == ds.p_min.shape == ds.p_max.shape == (size,)
    windows = [[vt.p(j) for j in range(k - vt.m + 1, k + 1)] for k in range(1, vt.n + 1)]
    assert ds.p.tolist() == [vt.p(k) for k in range(1, size + 1)]
    assert ds.p_min.tolist() == [min(w) for w in windows[:size]]
    assert ds.p_max.tolist() == [max(w) for w in windows[:size]]
    for k, window in enumerate(windows, start=1):
        i = ds.index(k)
        assert (ds.p[i], ds.p_min[i], ds.p_max[i]) == (vt.p(k), min(window), max(window))
        assert ds.delta[i] == abs(vt.p(k) - 0.5)
        assert ds.delta_bar[i] == max(abs(x - 0.5) for x in window)
        assert ds.delta_bar_minus[i] == max(max(0.0, -(x - 0.5)) for x in window)


# 1/2 and its neighbours, the ends, the smallest subnormal and normal
# doubles, and 2^-54, the spacing of the doubles just below 1/2
EDGE_P = [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 0.0, 1.0,
          5e-324, sys.float_info.min, 2.0**-54]


@st.composite
def _p_ext_tables(draw):
    """A solved table whose p_ext, boundary entries included, is replaced
    by arbitrary values in [0, 1]."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 60))
    p = st.floats(0.0, 1.0) | st.sampled_from(EDGE_P)
    p_ext = np.array(draw(st.lists(p, min_size=n + m, max_size=n + m)))
    return _with_p_ext(solve(GameSpec(n, m, truncated_simplex([0.05] * m))), p_ext)


def _with_p_ext(vt, p_ext):
    """``vt`` with the values p_ext for k = 1-m..n, none of them repeating."""
    return dataclasses.replace(vt, p_prefix=p_ext, computed=vt.n, period=0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestDeviationSeries:
    @given(_p_ext_tables())
    @settings(max_examples=200)
    def test_every_series_matches_its_definition(self, vt):
        """Bit for bit, index by index: the pointwise series against their
        expressions in p_k, the window series against maxima over W_k."""
        ds = deviation_series(vt)
        ext, m = vt.p_ext.tolist(), vt.m
        p = ext[m:]
        windows = [ext[k : k + m] for k in range(1, vt.n + 1)]  # W_k, p_{k-m+1}..p_k
        d = [x - 0.5 for x in p]
        minus = [max(0.0, -(x - 0.5)) for x in p]
        assert _bits(ds.p) == _bits(p)
        assert _bits(ds.p_min) == _bits([min(w) for w in windows])
        assert _bits(ds.p_max) == _bits([max(w) for w in windows])
        assert _bits(ds.d) == _bits(d)
        assert _bits(ds.delta) == _bits([abs(x) for x in d])
        assert _bits(ds.delta_plus) == _bits([max(0.0, x) for x in d])
        assert _bits(ds.delta_minus) == _bits(minus)
        assert _bits(ds.delta_bar) == _bits([max(abs(x - 0.5) for x in w) for w in windows])
        assert _bits(ds.delta_bar_minus) == _bits(
            [max(max(0.0, -(x - 0.5)) for x in w) for w in windows]
        )

    def test_peak_memory_of_a_long_kappa_grid(self):
        # verify-m3's table: one pass of 2000 kappas over its 635 folded
        # pile sizes would take 10 MB per temporary; the scan takes blocks
        K = truncated_simplex([0.05] * 3)
        vt = solve(GameSpec(10_000, 3, K))
        cond = compute_conditions(K)
        ds, dc = deviation_series(vt), drop_constants(cond.eta, cond.nu)
        grid = [(i + 1) / 2001 for i in range(2000)]
        tracemalloc.start()
        try:
            reports = run_checks(ds, dc, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 2008 and all(r.ok for r in reports)
        assert peak < 6.7 * 2**20

    def test_peak_memory_at_n_1e6(self):
        # the table keeps pile sizes 1..632 and repeats with period 4: the
        # series and the checks cover about 650 pile sizes, whatever n is
        K = truncated_simplex([0.05] * 3)
        vt = solve(GameSpec(10**6, 3, K))
        cond = compute_conditions(K)
        dc = drop_constants(cond.eta, cond.nu)
        tracemalloc.start()
        try:
            reports = run_checks(deviation_series(vt), dc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert all(r.ok for r in reports)

    def test_p_is_a_view_of_the_table(self):
        # without a repeat the series covers the whole prefix
        vt = solve(GameSpec(3000, 3, truncated_simplex([0.001] * 3)))
        assert vt.period == 0
        assert np.shares_memory(deviation_series(vt).p, vt.p_prefix)

    def test_reads_past_n_rejected(self):
        K = truncated_simplex([0.05] * 3)
        repeats, plain = solve(GameSpec(2000, 3, K)), solve(GameSpec(50, 3, K))
        assert repeats.period > 0 and plain.period == 0
        for vt in (repeats, plain):
            ds, n = deviation_series(vt), vt.n
            assert ds.index(1) == 0 and ds.index(np.array([1, n])).tolist() == [0, ds.index(n)]
            for bad in (0, -1, n + 1, 10**6, np.array([1, n + 1]), np.array([0, n])):
                with pytest.raises(ValueError, match=f"^pile size outside 1\\.\\.{n}$"):
                    ds.index(bad)

    def test_delta_values(self, half_series):
        expect = [0.5, 0.0, 0.25, 0.125, 0.0625, 0.09375]
        for k, want in enumerate(expect, start=1):
            assert half_series.delta[k - 1] == pytest.approx(want, abs=1e-15)

    def test_window_maxima(self, half_series):
        ds = half_series
        assert ds.delta_bar[ds.index(2)] == 0.5
        assert ds.delta_bar[ds.index(6)] == 0.09375

    def test_boundary_window_gives_half(self, half_series):
        # window of k=1 reaches the boundary entries where Delta = 1/2
        assert half_series.delta_bar[half_series.index(1)] == 0.5

    def test_p_windows(self, half_table, half_series):
        _assert_p_windows(half_table, half_series)
        # W_1 = {p_1, p_0} reaches the boundary value p_0 = 1
        assert half_series.p_min[0] == 0.0 and half_series.p_max[0] == 1.0

    @given(_games())
    @settings(max_examples=40)
    def test_p_windows_on_solved_tables(self, spec):
        vt = solve(spec)
        _assert_p_windows(vt, deviation_series(vt))

    def test_plus_times_minus_is_zero(self, trunc_series):
        assert (trunc_series.delta_plus * trunc_series.delta_minus == 0.0).all()

    def test_delta_is_max_of_signed_parts(self, trunc_series):
        assert np.allclose(
            trunc_series.delta,
            np.maximum(trunc_series.delta_plus, trunc_series.delta_minus),
            atol=0,
        )

    def test_bounded_by_half(self, trunc_series):
        assert trunc_series.delta.max() <= 0.5


class TestDropConstants:
    def test_hand_value(self):
        dc = drop_constants(0.5, 0.5, tau=0.5)
        assert dc.delta == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_optimized_tau(self):
        dc = drop_constants(0.5, 0.5)
        assert dc.tau == pytest.approx(0.5, abs=1e-8)
        assert dc.delta == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_invalid_eta(self):
        with pytest.raises(InvalidEtaNuError):
            drop_constants(1.0, 0.5)
        with pytest.raises(InvalidEtaNuError):
            drop_constants(0.5, 0.0)

    def test_tau_out_of_range(self):
        upper = (0.5 / 0.5) * (2 - 1.0) / (2 - 0.5)
        with pytest.raises(TauOutOfRangeError):
            drop_constants(0.5, 0.5, tau=upper)
        with pytest.raises(TauOutOfRangeError):
            drop_constants(0.5, 0.5, tau=0.0)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=50)
    def test_delta_always_below_one(self, eta, nu):
        dc = drop_constants(eta, nu)
        assert 0.0 < dc.delta < 1.0
        assert 0.0 < dc.tau < (nu / (1 - nu)) * (2 - 2 * eta) / (2 - eta)


def _crossing_tau(eta, nu):
    """Where delta's increasing branch meets its decreasing one: the minimizer."""
    c = eta / (2.0 - eta)
    return nu * (1.0 - c) / (1.0 - nu + c * nu)


class TestDefaultTauIsOptimal:
    """delta(tau) = max(c*nu/(nu - tau + nu*tau), 1/(1+tau)) with c = eta/(2-eta);
    the first branch increases and the second decreases, so the optimum sits
    where they cross, at tau* = nu(1-c)/(1-nu+c*nu)."""

    def test_grid(self):
        for eta in np.linspace(0.0, 1.0, 62)[1:-1].tolist():
            for nu in np.linspace(0.0, 1.0, 64)[1:-1].tolist():
                star = _crossing_tau(eta, nu)
                assert 0.0 < star < (nu / (1 - nu)) * (2 - 2 * eta) / (2 - eta)
                dc = drop_constants(eta, nu)
                # the golden-section search stops on a bracket 1e-10 wide
                assert abs(dc.tau - star) <= 5e-11
                assert dc.delta >= (1.0 - 1e-15) / (1.0 + star)

    @pytest.mark.parametrize("m,eps", [(2, 0.05), (3, 0.05), (4, 0.01), (3, 0.001), (5, 0.1)])
    def test_roadmap_configs(self, m, eps):
        cond = compute_conditions(truncated_simplex([eps] * m))
        dc = drop_constants(cond.eta, cond.nu)
        assert abs(dc.delta - 1.0 / (1.0 + _crossing_tau(cond.eta, cond.nu))) <= 2e-11


class TestMonotonicity:
    def test_hand_examples(self, half_series):
        ds = half_series
        rep = check_monotonicity(ds)
        assert rep.ok
        assert ds.delta[ds.index(4)] <= ds.delta_bar[ds.index(3)]
        assert ds.delta[ds.index(2)] <= ds.delta_bar[ds.index(1)]

    def test_large_table(self, trunc_series):
        rep = check_monotonicity(trunc_series)
        assert rep.ok
        assert isinstance(rep.extra["delta_bar_strictly_decreasing_per_step"], bool)

    def test_bar_sequence_sorted_descending(self, trunc_series):
        ds = trunc_series
        bars = ds.delta_bar[ds.index(np.arange(1, ds.n + 1))].tolist()
        assert all(bars[i + 1] <= bars[i] + 1e-12 for i in range(len(bars) - 1))


class TestNoLongWinning:
    def test_classical_pattern(self):
        K = finite_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        vt = solve(GameSpec(50, 3, K))
        rep = check_no_long_winning(deviation_series(vt))
        assert rep.ok
        assert rep.checked  # runs of three wins do occur

    def test_vacuous_when_no_window_qualifies(self, half_series):
        # with p2 = 0.5 the m=2 window {p3, p2} never satisfies p_j > 1/2 twice in a row early on
        rep = check_no_long_winning(half_series)
        assert rep.ok

    def test_large_table(self, trunc_series):
        assert check_no_long_winning(trunc_series).ok


class _Unread:
    """A deviation series that fails the test when it is read."""

    def __getattr__(self, name):
        pytest.fail(f"series read before the kappa grid was checked: {name}")


class TestKmBound:
    def test_grid_of_reports(self, trunc_series):
        eta = compute_conditions(truncated_simplex([0.05, 0.05])).eta
        reports = check_km_bound(trunc_series, eta)
        assert len(reports) == 9
        assert all(rep.ok for rep in reports)

    def test_rejects_bad_kappa(self, half_series):
        with pytest.raises(ValueError):
            check_km_bound(half_series, compute_conditions(HALF).eta, kappa_grid=[1.0])

    @given(KAPPA_GRIDS, st.data())
    def test_bad_or_repeated_kappa_raises_before_any_read(self, grid, data):
        wrong = data.draw(st.sampled_from([0.0, 1.0, -0.5, 1.5, math.nan, math.inf, *grid]))
        at = data.draw(st.integers(0, len(grid)))
        with pytest.raises(ValueError):
            check_km_bound(_Unread(), 0.5, [*grid[:at], wrong, *grid[at:]])

    @pytest.mark.parametrize("grid", [(0.3, 0.3), [0.1, 0.3, 0.1], (0.5, np.float64(0.5))])
    def test_rejects_repeated_kappa(self, trunc_series, trunc_constants, grid):
        # each kappa names its report: a repeat would give two of one name
        cond = compute_conditions(truncated_simplex([0.05, 0.05]))
        with pytest.raises(ValueError, match="given twice"):
            check_km_bound(trunc_series, cond.eta, kappa_grid=grid)
        with pytest.raises(ValueError, match="given twice"):
            run_checks(trunc_series, trunc_constants, kappa_grid=grid)


class TestCorridor:
    def test_hand_example(self, half_table, half_series):
        # k = 3: p4 = 0.375 < 1/2, window {p3, p2} = {0.75, 0.5}
        ceil = 0.5 + half_series.delta[half_series.index(4)]
        lhs = max(half_table.p(3) - ceil, half_table.p(2) - ceil)
        rhs = max(ceil - half_table.p(3), ceil - half_table.p(2))
        assert lhs == pytest.approx(0.125, abs=1e-15)
        assert rhs == pytest.approx(0.125, abs=1e-15)
        rep = check_corridor(half_series, nu=0.5)
        assert rep.ok and 3 in rep.k

    def test_winning_positions_skipped(self, half_series):
        rep = check_corridor(half_series, nu=0.5)
        assert 2 not in rep.k  # p3 = 0.75 >= 1/2

    def test_full_scan(self, trunc_series):
        nu = compute_conditions(truncated_simplex([0.05, 0.05])).nu
        assert check_corridor(trunc_series, nu).ok


class TestDropDown:
    def test_three_reports_clean(self, trunc_series, trunc_constants):
        reports = check_drop_down(trunc_series, trunc_constants)
        assert [r.lemma_id for r in reports] == [
            "drop_down_losing",
            "drop_down_2m",
            "drop_down_3m",
        ]
        assert all(r.ok for r in reports)

    def test_hand_block_drop(self):
        vt = solve(GameSpec(8, 2, HALF))
        ds = deviation_series(vt)
        dc = drop_constants(0.5, 0.5, tau=0.5)
        bar = ds.delta_bar[ds.index(np.array([7, 1]))]
        assert bar[0] <= dc.delta * bar[1] + 1e-15  # 0.09375 <= 1/3
        reports = check_drop_down(ds, dc)
        assert all(r.ok for r in reports)

    def test_small_k_excluded_from_block_form(self, half_series):
        dc = drop_constants(0.5, 0.5, tau=0.5)
        block = check_drop_down(half_series, dc)[2]
        assert min(block.k) == 3 * half_series.m + 1


class TestPlusMinus:
    def test_hand_example(self, half_series):
        # k = 2: DeltaPlus_3 = 0.25, DeltaBarMinus_2 = max(0, 0.5) = 0.5
        assert half_series.delta_plus[2] == 0.25
        assert half_series.delta_bar_minus[half_series.index(2)] == 0.5
        assert check_plus_minus(half_series).ok

    def test_full_scan(self, trunc_series):
        assert check_plus_minus(trunc_series).ok


class TestEnvelope:
    def test_instance_n2(self, half_series):
        dc = drop_constants(0.5, 0.5, tau=0.5)
        rep = check_envelope(half_series, dc)
        assert rep.ok
        assert half_series.delta_bar[half_series.index(13)] <= 0.5 * (2.0 / 3.0) ** 2 + 1e-12

    def test_convergence_threshold(self, trunc_series, trunc_constants):
        rep = check_envelope(trunc_series, trunc_constants)
        assert rep.ok
        n_star = 1 + 3 * 2 * math.ceil(math.log(2e-3) / math.log(trunc_constants.delta))
        assert n_star <= trunc_series.n
        ds = trunc_series
        assert (ds.delta[ds.index(np.arange(n_star, ds.n + 1))] < 1e-3).all()


class _RefReport:
    """Per-index recorder the vectorised BoundReport must reproduce."""

    def __init__(self, lemma_id):
        self.lemma_id = lemma_id
        self.checked_k = []
        self.violations = []
        self.min_slack = math.inf
        self.extra = {}

    def record(self, k, lhs, rhs):
        self.checked_k.append(k)
        slack = rhs - lhs
        if slack < self.min_slack:
            self.min_slack = slack
        if slack < -1e-9:
            self.violations.append((k, lhs, rhs))

    def summary(self):
        return {
            "lemma_id": self.lemma_id,
            "checked": len(self.checked_k),
            "violations": len(self.violations),
            "min_slack": None if math.isinf(self.min_slack) else self.min_slack,
            **self.extra,
        }


def _per_index(vt):
    """Delta_k, DeltaBar_k and DeltaBarMinus_k for k = 0..n, each list
    indexed by k: worked out from the windows W_k of ``vt.p``, with the
    boundary values p_s = 1 for s <= 0, and not from the series the checks
    read."""
    m = vt.m
    p = [vt.p(k) for k in range(1 - m, vt.n + 1)]  # p_k at index k + m - 1
    windows = [p[k : k + m] for k in range(vt.n + 1)]  # W_k at index k
    delta = [abs(x - 0.5) for x in p[m - 1 :]]
    bar = [max(abs(x - 0.5) for x in w) for w in windows]
    bar_minus = [max(max(0.0, -(x - 0.5)) for x in w) for w in windows]
    return delta, bar, bar_minus


def _reference_checks(vt, nu, dc, kappa_grid):
    """The per-index loops of every check, in report order."""
    m, n, delta = vt.m, vt.n, dc.delta
    dk, bar, bar_minus = _per_index(vt)
    mono = _RefReport("monotonicity")
    strict = True
    for k in range(2, n + 1):
        prev = bar[k - 1]
        mono.record(k, dk[k], prev)
        mono.record(k, bar[k], prev)
        if bar[k] >= prev:
            strict = False
    mono.extra["delta_bar_strictly_decreasing_per_step"] = strict
    runs = _RefReport("no_long_winning")
    for k in range(m + 1, n + 1):
        if all(vt.p(j) > 0.5 for j in range(k - m + 1, k + 1)):
            if k + 1 <= n:
                runs.record(k, vt.p(k + 1), 0.5)
            runs.record(k, vt.p(k - m), 0.5)
    reports = [mono, runs]
    eta = max(max(c.probs) for c in vt.candidates)
    for kappa in kappa_grid:
        km = _RefReport(f"km_bound[kappa={kappa!r}]")
        factor = eta / ((2.0 - eta) * (1.0 - kappa))
        for k in range(m + 1, n):
            threshold = 0.5 + (1.0 - kappa) * dk[k + 1]
            if all(vt.p(j) >= threshold for j in range(k - m + 1, k + 1)):
                km.record(k, dk[k + 1], factor * dk[k - m])
        reports.append(km)
    corridor = _RefReport("corridor")
    ratio = nu / (1.0 - nu)
    for k in range(1, n):
        if vt.p(k + 1) >= 0.5:
            continue
        ceil = 0.5 + dk[k + 1]
        window = [vt.p(j) for j in range(k - m + 1, k + 1)]
        corridor.record(k, ratio * max(ceil - p for p in window), max(p - ceil for p in window))
    reports.append(corridor)
    losing = _RefReport("drop_down_losing")
    for k in range(m + 1, n):
        if vt.p(k + 1) < 0.5:
            losing.record(k, dk[k + 1], delta * bar[k - m])
    every = _RefReport("drop_down_2m")
    for k in range(2 * m + 1, n):
        every.record(k, dk[k + 1], delta * bar[k - 2 * m])
    block = _RefReport("drop_down_3m")
    for k in range(3 * m + 1, n + 1):
        block.record(k, bar[k], delta * bar[k - 3 * m])
    reports += [losing, every, block]
    plus = _RefReport("plus_minus")
    for k in range(1, n):
        plus.record(k, max(0.0, vt.p(k + 1) - 0.5), bar_minus[k])
    envelope = _RefReport("envelope")
    for k in range(1, n + 1):
        envelope.record(k, bar[k], 0.5 * delta ** ((k - 1) // (3 * m)))
    reports += [plus, envelope]
    return reports


def _members(report, period):
    """Every checked pile size the report's entries stand for, sorted: an
    entry stands for its class from k on, or, for envelope, up to k."""
    step = -period if report.lemma_id == "envelope" else period
    return sorted(k + j * step
                  for k, w in zip(report.k.tolist(), report.weight.tolist()) for j in range(w))


def _assert_matches_reference(vt, ds, cond, dc, kappa_grid=(0.1, 0.3, 0.5, 0.7, 0.9)):
    got = run_checks(ds, dc, kappa_grid)
    want = _reference_checks(vt, cond.nu, dc, kappa_grid)
    assert [r.summary() for r in got] == [r.summary() for r in want]
    for g, w in zip(got, want):
        assert _members(g, vt.period) == sorted(w.checked_k)
        assert set(g.violations) <= set(w.violations)
        if vt.n == vt.computed:
            # nothing repeats: every checked k is its own representative
            assert g.violations == w.violations
            assert g.k.tolist() == w.checked_k
    return got


class TestMatchesPerIndexReference:
    @given(_games(), KAPPA_GRIDS)
    @settings(max_examples=60)
    def test_solved_tables(self, spec, kappa_grid):
        vt = solve(spec)
        cond = compute_conditions(spec.K)
        _assert_matches_reference(vt, deviation_series(vt), cond,
                                  drop_constants(cond.eta, cond.nu), kappa_grid)

    def test_grid_with_reports_that_hit_nothing(self):
        # at kappa = 1e-12 the whole window must clear 1/2 + Delta_{k+1},
        # which it never does in the first 300 pile sizes of this game
        K = truncated_simplex([0.05] * 3)
        vt = solve(GameSpec(300, 3, K))
        cond = compute_conditions(K)
        got = _assert_matches_reference(vt, deviation_series(vt), cond,
                                        drop_constants(cond.eta, cond.nu), [0.9, 1e-12, 0.5])
        checked = {r.lemma_id: r.checked for r in got}
        assert checked["km_bound[kappa=1e-12]"] == 0 < checked["km_bound[kappa=0.9]"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_tables_report_nothing(self, n):
        K = truncated_simplex([0.05, 0.05, 0.05])
        vt = solve(GameSpec(n, 3, K))
        cond = compute_conditions(K)
        got = _assert_matches_reference(
            vt, deviation_series(vt), cond, drop_constants(cond.eta, cond.nu)
        )
        # every k these scan needs k > m
        empty = [r for r in got if r.lemma_id.startswith(("no_long", "km_bound", "drop_down"))]
        assert len(empty) == 9
        assert all(r.summary()["checked"] == 0 for r in empty)
        assert all(r.summary()["min_slack"] is None for r in empty)

    def test_perturbed_table_violates_every_check(self):
        K = truncated_simplex([0.05, 0.05, 0.05])
        vt = solve(GameSpec(2000, 3, K))
        noise = np.random.default_rng(1).uniform(0.0, 1.0, vt.n)
        vt = _with_p_ext(vt, np.concatenate((vt.p_ext[: vt.m], noise)))
        cond = compute_conditions(K)
        got = _assert_matches_reference(
            vt, deviation_series(vt), cond, drop_constants(cond.eta, cond.nu)
        )
        assert all(r.violations for r in got)


def _dense_series(vt):
    """Every series at every pile size 1..n, from the dense ``vt.p_ext``."""
    m = vt.m
    windows = np.lib.stride_tricks.sliding_window_view(vt.p_ext, m)[1:].T
    p_min, p_max = windows.min(axis=0), windows.max(axis=0)
    p = vt.p_ext[m:]
    d = p - 0.5
    below = 0.5 - p_min
    return SimpleNamespace(
        m=m, n=vt.n, p=p, p_min=p_min, p_max=p_max, delta=np.abs(d),
        delta_bar=np.maximum(p_max - 0.5, below), delta_plus=np.maximum(d, 0.0),
        delta_bar_minus=np.maximum(below, 0.0),
    )


def _dense_scan(lemma_id, k, lhs, rhs, **extra):
    """(summary, violations) of one check scanned at every index k."""
    slack = rhs - lhs
    bad = np.flatnonzero(slack < -1e-9)
    violations = list(zip(k[bad].tolist(), lhs[bad].tolist(), rhs[bad].tolist()))
    summary = {
        "lemma_id": lemma_id,
        "checked": len(k),
        "violations": len(violations),
        "min_slack": float(slack.min()) if slack.size else None,
        **extra,
    }
    return summary, violations


def _dense_envelope(n, delta, m):
    """0.5 * delta^floor((k-1)/(3m)) for k = 1..n, one scalar power per block."""
    block = np.arange(n) // (3 * m)
    return np.array([0.5 * delta**j for j in range((n - 1) // (3 * m) + 1)])[block]


def _pairs(first, second):
    return np.column_stack((first, second)).ravel()


def _dense_checks(vt, cond, dc, kappa_grid=(0.1, 0.3, 0.5, 0.7, 0.9)):
    """Every check scanned at every pile size 1..n, in report order: the
    vectorised checks as they were before their scans were folded."""
    ds = _dense_series(vt)
    m, n, delta = ds.m, ds.n, dc.delta
    prev = ds.delta_bar[:-1]
    out = [_dense_scan(
        "monotonicity", np.repeat(np.arange(2, n + 1), 2),
        _pairs(ds.delta[1:], ds.delta_bar[1:]), np.repeat(prev, 2),
        delta_bar_strictly_decreasing_per_step=bool(np.all(ds.delta_bar[1:] < prev)),
    )]
    k = np.arange(m + 1, n + 1)
    k = k[ds.p_min[k - 1] > 0.5]
    keep = np.ones(2 * k.size, dtype=bool)
    keep[0::2] = k < n
    lhs = _pairs(ds.p[np.minimum(k, n - 1)], ds.p[k - m - 1])[keep]
    out.append(_dense_scan("no_long_winning", np.repeat(k, 2)[keep], lhs, np.full_like(lhs, 0.5)))
    k = np.arange(m + 1, n)
    for kappa in kappa_grid:
        factor = cond.eta / ((2.0 - cond.eta) * (1.0 - kappa))
        hit = ds.p_min[k - 1] >= 0.5 + (1.0 - kappa) * ds.delta[k]
        out.append(_dense_scan(f"km_bound[kappa={kappa!r}]", k[hit], ds.delta[k][hit],
                               factor * ds.delta[k - m - 1][hit]))
    k = np.arange(1, n)
    k = k[ds.p[k] < 0.5]
    ceil = 0.5 + ds.delta[k]
    out.append(_dense_scan("corridor", k, cond.nu / (1.0 - cond.nu) * (ceil - ds.p_min[k - 1]),
                           ds.p_max[k - 1] - ceil))
    k = np.arange(m + 1, n)
    k = k[ds.p[k] < 0.5]
    out.append(_dense_scan("drop_down_losing", k, ds.delta[k], delta * ds.delta_bar[k - m - 1]))
    k = np.arange(2 * m + 1, n)
    out.append(_dense_scan("drop_down_2m", k, ds.delta[k], delta * ds.delta_bar[k - 2 * m - 1]))
    k = np.arange(3 * m + 1, n + 1)
    out.append(_dense_scan("drop_down_3m", k, ds.delta_bar[k - 1],
                           delta * ds.delta_bar[k - 3 * m - 1]))
    out.append(_dense_scan("plus_minus", np.arange(1, n), ds.delta_plus[1:],
                           ds.delta_bar_minus[:-1]))
    out.append(_dense_scan("envelope", np.arange(1, n + 1), ds.delta_bar,
                           _dense_envelope(n, delta, m)))
    return out


def _assert_matches_dense(vt, cond, dc, kappa_grid=(0.1, 0.3, 0.5, 0.7, 0.9)):
    """The folded checks against the dense scans: equal summaries (floats
    compared with ==), and equal violation lists while nothing repeats."""
    got = run_checks(deviation_series(vt), dc, kappa_grid)
    want = _dense_checks(vt, cond, dc, kappa_grid)
    assert [r.summary() for r in got] == [s for s, _ in want]
    if vt.n == vt.computed:
        assert [r.violations for r in got] == [v for _, v in want]
    return got, want


# every set of the values.csv writer tests that has eta < 1 and nu > 0
DENSE_SETS = [
    *((f"simplex m={m}", truncated_simplex([0.05] * m)) for m in (2, 3, 4, 5)),
    ("simplex m=4 eps=0.01", truncated_simplex([0.01] * 4)),
    ("|K|=10 pair set", finite_set([[0.1 + 0.08 * i, 0.9 - 0.08 * i] for i in range(10)])),
    ("|K|=12 pair set", finite_set([[0.05 + 0.075 * i, 0.95 - 0.075 * i] for i in range(12)])),
    ("zero-weight set", finite_set([[0.5, 0.3, 0.2], [0, 0.5, 0.5], [0.6, 0, 0.4]])),
]
AROUND_COMPUTED = ["c-1", "c", "c+1", "c+period", "c+3m-1", "c+3m+1", "3c", "1e5"]


def _periodic_table(rng, m, transient, period, cycles, n):
    """A table of random values in (0, 1) whose last ``cycles`` periods
    repeat one random cycle; it repeats that cycle up to n."""
    values = np.concatenate((np.ones(m), rng.uniform(0.0, 1.0, transient),
                             np.tile(rng.uniform(0.0, 1.0, period), cycles)))
    vt = solve(GameSpec(n, m, truncated_simplex([0.05] * m)))
    computed = values.size - m
    return dataclasses.replace(vt, p_prefix=values, computed=computed, period=period)


class TestMatchesDenseScan:
    """The checks fold each repeating range onto one period; every count
    and min_slack must be what a scan of every pile size gives."""

    @pytest.mark.parametrize("at", AROUND_COMPUTED)
    @pytest.mark.parametrize("label, K", DENSE_SETS, ids=[label for label, _ in DENSE_SETS])
    def test_solved_tables(self, label, K, at):
        probe = solve(GameSpec(10**5, K.m, K))
        c, period, m = probe.computed, probe.period, K.m
        assert period > 0
        n = {"c-1": c - 1, "c": c, "c+1": c + 1, "c+period": c + period,
             "c+3m-1": c + 3 * m - 1, "c+3m+1": c + 3 * m + 1, "3c": 3 * c, "1e5": 10**5}[at]
        cond = compute_conditions(K)
        _assert_matches_dense(solve(GameSpec(n, m, K)), cond, drop_constants(cond.eta, cond.nu))

    @pytest.mark.parametrize("delta", [0.01, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("m, transient, period", [(2, 40, 3), (3, 200, 7), (4, 5, 1)])
    @pytest.mark.parametrize("n", [230, 2000, 10**5])
    def test_periodic_table_with_violations(self, m, transient, period, n, delta):
        # deviations of order 0.1 repeat for ever, so small factors fail in
        # the tail: drop_down_* everywhere, envelope once its rhs has
        # fallen below a class's DeltaBar, which differs between classes
        rng = np.random.default_rng(transient + period + n)
        vt = _periodic_table(rng, m, transient, period, -(-m // period) + 1, n)
        cond = compute_conditions(truncated_simplex([0.05] * m))
        dc = DropConstants(eta=cond.eta, nu=cond.nu, tau=0.5, delta=delta)
        got, want = _assert_matches_dense(vt, cond, dc)
        drops = {r.lemma_id: r for r in got}
        assert all(drops[f"drop_down_{x}"].violation_count for x in ("2m", "3m"))
        # envelope: each residue class past the prefix fails on a suffix of
        # it, and the report holds that suffix as one weighted entry
        env, (_, dense) = got[-1], want[-1]
        c = vt.computed
        per_class = {}
        for k, _, _ in dense:
            if k >= c:
                per_class.setdefault((k - c) % period, []).append(k)
        for members in per_class.values():
            last = members[-1]
            assert last > n - period
            assert members == list(range(last - (len(members) - 1) * period, last + 1, period))
        weights = dict(zip(env.k.tolist(), env.weight.tolist()))
        folded = {(k - c) % period: weights[k] for k, _, _ in env.violations if k >= c}
        assert folded == {r: len(members) for r, members in per_class.items()}
        if n > 2 * c and delta < 0.99:
            assert per_class  # the tail does fail
