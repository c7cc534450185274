import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bachet_lottery import (
    GameSpec,
    LotterySet,
    TIE_HIGHEST,
    TIE_LOWEST,
    TIE_RANDOM,
    finite_set,
    payoff_kernel,
    solve,
    truncated_simplex,
    validate_lottery,
)
from bachet_lottery import cli, engine
from bachet_lottery.engine import TIE_RULES, TIE_TOL
from bachet_lottery.errors import DegenerateSetError

HALF = finite_set([[0.5, 0.5]])


def reference_payoff(lot, tail):
    """1 - sum_i pi_i * p_{k-i}, accumulated left to right.

    ``tail`` holds p_{k-1}, ..., p_{k-m} in that order.
    """
    acc = 0.0
    for w, t in zip(lot.probs, tail):
        acc += w * t
    return 1.0 - acc


def win_probs(candidates, tail):
    """The kernel's payoffs for a tail given as p_{k-1}, ..., p_{k-m}."""
    return payoff_kernel(candidates)(*reversed(tail))


def best_response(candidates, tail):
    """(maximum payoff, lowest maximizing index, indices within TIE_TOL)."""
    vals = win_probs(candidates, tail)
    value = max(vals)
    ties = tuple(i for i, v in enumerate(vals) if v >= value - TIE_TOL)
    return value, ties[0], ties


@st.composite
def lottery_sets(draw):
    m = draw(st.integers(2, 5))
    weights = st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=m, max_size=m
    ).filter(lambda v: sum(v) > 0.0)
    raw = draw(st.lists(weights, min_size=1, max_size=4))
    cands = [validate_lottery([w / sum(v) for w in v]) for v in raw]
    tail = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    return cands, tail


class TestPayoffKernel:
    @settings(max_examples=200, deadline=None)
    @given(lottery_sets())
    def test_bit_identical_to_reference(self, case):
        cands, tail = case
        assert win_probs(cands, tail) == tuple(reference_payoff(c, tail) for c in cands)

    @settings(max_examples=200, deadline=None)
    @given(lottery_sets(), st.data())
    def test_arrays_match_scalar_calls(self, case, data):
        # solve's tie pass runs the kernel on arrays and relies on this
        cands, _ = case
        m = cands[0].m
        column = st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)
        columns = data.draw(st.lists(column, min_size=1, max_size=20))
        kernel = payoff_kernel(cands)
        got = np.array(kernel(*np.array(columns).T))
        want = np.array([kernel(*col) for col in columns]).T
        assert got.shape == want.shape == (len(cands), len(columns))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestExpectedWinProb:
    """The one-step payoff of a single lottery, as the kernel computes it."""

    def test_all_moves_lose(self):
        assert win_probs([validate_lottery((0.5, 0.5))], (1.0, 1.0)) == (0.0,)

    def test_mixed_tail(self):
        assert win_probs([validate_lottery((0.5, 0.5))], (0.0, 1.0)) == (0.5,)

    def test_skewed(self):
        (value,) = win_probs([validate_lottery((0.9, 0.1))], (0.0, 1.0))
        assert value == pytest.approx(0.9, abs=1e-15)


class TestBestResponse:
    """The maximum of the kernel's payoffs over a candidate list."""

    CANDS = [validate_lottery((0.9, 0.1)), validate_lottery((0.1, 0.9))]

    def test_prefers_low_continuation(self):
        value, argmax, ties = best_response(self.CANDS, (0.0, 1.0))
        assert value == pytest.approx(0.9, abs=1e-15)
        assert argmax == 0 and ties == (0,)

    def test_prefers_other_side(self):
        value, argmax, _ = best_response(self.CANDS, (0.9, 0.0))
        assert value == pytest.approx(0.91, abs=1e-15)
        assert argmax == 1

    def test_singleton(self):
        single = [validate_lottery((0.5, 0.5))]
        value, argmax, ties = best_response(single, (0.3, 0.8))
        assert value == reference_payoff(single[0], (0.3, 0.8))
        assert (argmax, ties) == (0, (0,))

    def test_empty_candidates(self):
        # an empty set never reaches the payoff: it is rejected on construction
        with pytest.raises(DegenerateSetError):
            finite_set([])

    @given(
        st.integers(0, 1),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.5),
    )
    def test_monotone_tail_sensitivity(self, pos, t0, t1, bump):
        # raising any continuation value can only hurt the mover
        lo, _, _ = best_response(self.CANDS, (t0, t1))
        raised = [t0, t1]
        raised[pos] = min(1.0, raised[pos] + bump)
        hi, _, _ = best_response(self.CANDS, tuple(raised))
        assert hi <= lo + 1e-12


class TestSolve:
    def test_hand_recursion_golden(self):
        vt = solve(GameSpec(6, 2, HALF))
        expect = [0.0, 0.5, 0.75, 0.375, 0.4375, 0.59375]
        for k, want in enumerate(expect, start=1):
            assert vt.p(k) == pytest.approx(want, abs=1e-15)

    def test_boundary_convention(self):
        vt = solve(GameSpec(4, 2, HALF))
        assert vt.p(0) == 1.0 and vt.p(-1) == 1.0
        assert vt.p(1) == 0.0

    def test_classical_pattern(self):
        K = finite_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        vt = solve(GameSpec(9, 3, K))
        for k in range(1, 10):
            assert vt.p(k) == (0.0 if k % 4 == 1 else 1.0)

    def test_n1_any_set(self):
        for K in (HALF, finite_set([[0.9, 0.1], [0.1, 0.9]])):
            assert solve(GameSpec(1, 2, K)).p(1) == 0.0

    def test_values_in_unit_interval(self):
        vt = solve(GameSpec(500, 2, finite_set([[0.7, 0.3], [0.2, 0.8]])))
        assert all(0.0 <= vt.p(k) <= 1.0 for k in range(1, 501))

    def test_consistency_with_best_response(self):
        vt = solve(GameSpec(50, 3, finite_set([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]])))
        for k in range(1, 51):
            tail = tuple(vt.p(k - i) for i in range(1, 4))
            vals = [reference_payoff(c, tail) for c in vt.candidates]
            assert vt.p(k) == max(vals)
            assert vt.tie_sets[k - 1] == tuple(
                i for i, v in enumerate(vals) if v >= max(vals) - TIE_TOL
            )

    def test_tie_rule_value_invariance(self):
        K = finite_set([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
        spec = GameSpec(60, 2, K)
        base = solve(spec, TIE_LOWEST)
        for rule, seed in ((TIE_HIGHEST, 0), (TIE_RANDOM, 7), (TIE_RANDOM, 8)):
            other = solve(spec, rule, seed=seed)
            assert all(
                abs(base.p(k) - other.p(k)) <= 1e-12 for k in range(1, 61)
            )

    def test_seeded_random_is_reproducible(self):
        K = finite_set([[0.5, 0.5], [0.5, 0.5]])
        spec = GameSpec(30, 2, K)
        a = solve(spec, TIE_RANDOM, seed=3)
        b = solve(spec, TIE_RANDOM, seed=3)
        k = np.arange(1, 31)
        assert (a.argmax(k) == b.argmax(k)).all()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2), min_size=1, max_size=4))
    def test_random_sets_stay_bounded(self, raw):
        K = finite_set([[w / sum(v) for w in v] for v in raw])
        vt = solve(GameSpec(40, 2, K))
        assert all(-1e-12 <= vt.p(k) <= 1.0 + 1e-12 for k in range(1, 41))

    def test_policy_and_tie_sets_exposed(self):
        vt = solve(GameSpec(5, 2, HALF))
        assert vt.policy(3).probs == (0.5, 0.5)
        assert vt.tie_sets[0] == (0,)
        assert [vt.p(k) for k in range(-1, 6)] == vt.p_ext.tolist()
        assert vt.p(-1) == 1.0 and vt.p(1) == 0.0 and vt.p_ext.size == 7


def _reference_solve(spec, tie_rule, seed):
    """(p_ext, argmax, tie_sets) from the recursion at every pile size,
    with the move picked inside the loop and no cycle detection."""
    kernel = payoff_kernel(spec.K.lotteries)
    m, n = spec.m, spec.n
    rng = random.Random(seed)
    p = [1.0] * m + [0.0] * n
    argmax = np.zeros(n, dtype=np.int64)
    tie_sets = [()] * n
    for k in range(1, n + 1):
        a = k + m - 1
        vals = kernel(*p[a - m : a])
        best = max(vals)
        ties = tuple(i for i, v in enumerate(vals) if v >= best - TIE_TOL)
        if tie_rule == TIE_LOWEST:
            argmax[k - 1] = ties[0]
        elif tie_rule == TIE_HIGHEST:
            argmax[k - 1] = ties[-1]
        else:
            argmax[k - 1] = ties[rng.randrange(len(ties))]
        tie_sets[k - 1] = ties
        p[a] = best
    return np.asarray(p), argmax, tuple(tie_sets)


def assert_matches_reference(spec, tie_rule, seed=0):
    vt = solve(spec, tie_rule, seed=seed)
    # solve runs the recursion only; the ties are worked out on first read
    assert "tie_mask" not in vt.__dict__ and "picks" not in vt.__dict__
    p_ext, argmax, tie_sets = _reference_solve(spec, tie_rule, seed)
    assert vt.p_ext.dtype == p_ext.dtype and vt.p_ext.tobytes() == p_ext.tobytes()
    moves = vt.argmax(np.arange(1, spec.n + 1))
    assert moves.dtype == argmax.dtype and moves.tobytes() == argmax.tobytes()
    assert vt.tie_sets == tie_sets
    return vt


# (label, K, pile size at which solve first sees a repeated state).  The
# periodic parts start at k = 970 (period 3), 629 (4), 2716 (5), 210 (1),
# 1 (4) and 158 (1); the repeat is seen later because the saved state
# moves only after a gap that grows by a sixteenth of itself plus one.
CYCLES = [
    ("simplex m=2 eps=0.05", truncated_simplex([0.05] * 2), 981),
    ("simplex m=3 eps=0.05", truncated_simplex([0.05] * 3), 649),
    ("simplex m=4 eps=0.01", truncated_simplex([0.01] * 4), 2789),
    ("|K|=10 pair set", finite_set([[0.1 + 0.08 * i, 0.9 - 0.08 * i] for i in range(10)]), 221),
    ("classical pure moves m=3", finite_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 10),
    ("duplicate lotteries m=2", finite_set([[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]]), 175),
]
CYCLE_IDS = [label for label, _, _ in CYCLES]


class TestCycleDetection:
    """solve stops at a repeated state and fills the periodic tail; the
    table must be the one the full recursion computes, bit for bit."""

    @pytest.mark.parametrize("rule", TIE_RULES)
    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_matches_reference_around_detection(self, label, K, detect, rule):
        for n in (detect - 1, detect, detect + 1, 2 * detect + 3):
            assert_matches_reference(GameSpec(n, K.m, K), rule, seed=n)

    @pytest.mark.parametrize("rule", TIE_RULES)
    def test_matches_reference_before_any_repeat(self, rule):
        # the transients last 2716 and 30697 pile sizes
        assert_matches_reference(GameSpec(2000, 4, truncated_simplex([0.01] * 4)), rule, 1)
        assert_matches_reference(GameSpec(3000, 3, truncated_simplex([0.001] * 3)), rule, 2)

    @settings(max_examples=60, deadline=None)
    @given(lottery_sets(), st.integers(1, 3000), st.sampled_from(TIE_RULES), st.integers(0, 3))
    def test_matches_reference_on_random_sets(self, case, n, rule, seed):
        cands, _ = case
        assert_matches_reference(GameSpec(n, cands[0].m, LotterySet(tuple(cands))), rule, seed)

    @pytest.mark.parametrize(
        "rule, seed", [(TIE_LOWEST, 0), (TIE_HIGHEST, 0), (TIE_RANDOM, 0), (TIE_RANDOM, 9)]
    )
    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_prefix_of_longer_solve(self, label, K, detect, rule, seed):
        full = solve(GameSpec(3 * detect, K.m, K), rule, seed=seed)
        for n in (1, detect - 1, detect, detect + 1, 2 * detect + 1):
            part = solve(GameSpec(n, K.m, K), rule, seed=seed)
            assert part.p_ext.tobytes() == full.p_ext[: n + K.m].tobytes()
            k = np.arange(1, n + 1)
            assert part.argmax(k).tobytes() == full.argmax(k).tobytes()
            assert part.tie_sets == full.tie_sets[:n]

    def test_unknown_tie_rule_rejected_first(self, monkeypatch):
        def no_code(name, shape):
            pytest.fail(f"{name} built before the tie rule was checked")

        # the cache may hold this shape already; the builder behind it is
        # replaced, so reaching it fails either way
        solve(GameSpec(5, 2, HALF))
        monkeypatch.setattr(engine, "_generated", no_code)
        with pytest.raises(ValueError, match="'no_such_rule'"):
            solve(GameSpec(5, 2, HALF), "no_such_rule")


def _reference_cycle(p_ext, m, n):
    """(computed, period): Brent's search over the states p_ext[k : k+m] of
    the full recursion, k = 0..n, stopping at the first repeat; the saved
    state moves after gaps of 1, 2, ..., 16, 18, 20, ..., each the last
    plus a sixteenth of it plus one."""
    saved, period, gap = p_ext[:m].tolist(), 0, 1
    for k in range(1, n + 1):
        state = p_ext[k : k + m].tolist()
        period += 1
        if state == saved:
            return k, period
        if period == gap:
            saved, period, gap = state, 0, gap + gap // 16 + 1
    return n, 0


def _random_set(rng, count, m):
    """``count`` lotteries over 1..m, about half their weights zero."""
    rows = []
    for _ in range(count):
        v = [rng.choice((0.0, rng.uniform(0.01, 1.0))) for _ in range(m)]
        v[rng.randrange(m)] = rng.uniform(0.01, 1.0)
        rows.append([w / sum(v) for w in v])
    return finite_set(rows)


# (label, K, pile size at which solve first sees a repeated state): one of
# each shape the generated loop takes
SHAPES = [
    ("|K|=1, no max", finite_set([[0.2, 0.3, 0.5]]), 197),
    ("first weight zero", finite_set([[0.0, 0.6, 0.4], [0.3, 0.3, 0.4]]), 221),
    ("30 random lotteries", _random_set(random.Random(30), 30, 4), 247),
    ("m=2", truncated_simplex([0.2] * 2), 223),
    ("m=6", truncated_simplex([0.02] * 6), 1153),
    ("duplicate lotteries", finite_set([[0.1, 0.2, 0.7], [0.1, 0.2, 0.7], [0.6, 0.2, 0.2]]), 175),
]
SHAPE_IDS = [label for label, _, _ in SHAPES]


class TestGeneratedLoop:
    """Each shape of the generated recursion against the full recursion."""

    @pytest.mark.parametrize("rule", TIE_RULES)
    @pytest.mark.parametrize("label, K, detect", SHAPES, ids=SHAPE_IDS)
    def test_matches_reference(self, label, K, detect, rule):
        m = K.m
        for n in (1, m, detect - 1, detect, 2 * detect + 3):
            vt = assert_matches_reference(GameSpec(n, m, K), rule, seed=n)
            # vt.p_ext is the full recursion's, bit for bit
            assert (vt.computed, vt.period) == _reference_cycle(vt.p_ext, m, n)
            assert vt.tie_mask.shape == (vt.computed, len(K.lotteries))

    def test_cases_have_their_shape(self):
        single, zero_first, many, two, six, twins = (K for _, K, _ in SHAPES)
        assert len(single.lotteries) == 1
        assert zero_first.lotteries[0].probs[0] == 0.0
        assert len(many.lotteries) == 30
        assert any(0.0 in lot.probs for lot in many.lotteries)
        assert (two.m, six.m) == (2, 6)
        # the twins' sums are equal at every pile size, so the least-sum
        # chain meets equal sums, and each tie set holds both twins or neither
        assert twins.lotteries[0] == twins.lotteries[1]
        vt = solve(GameSpec(100, 3, twins))
        assert vt.tie_mask[:, 0].tolist() == vt.tie_mask[:, 1].tolist() and vt.tie_mask[:, 0].any()
        for label, K, detect in SHAPES:
            assert solve(GameSpec(3 * detect, K.m, K)).computed == detect, label


class TestLeastSum:
    """The loop keeps the least candidate sum and subtracts it once."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
        st.data(),
    )
    def test_max_of_payoffs_is_one_less_least_sum(self, sums, data):
        # rounding to nearest is monotone, so fl(1 - s) does not increase in s
        sums = sums + data.draw(st.lists(st.sampled_from(sums), max_size=4))
        sums = data.draw(st.permutations(sums))
        least = sums[0]
        for y in sums[1:]:
            if y < least:
                least = y
        want = max(1.0 - s for s in sums)
        assert (1.0 - least).hex() == (1.0 - min(sums)).hex() == want.hex()


class TestCompiledOncePerShape:
    """The loop and the kernel are generated once per shape of the set."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        names = []
        real = engine._compiled

        def counting(src, name):
            names.append(name)
            return real(src, name)

        engine._generated.cache_clear()
        monkeypatch.setattr(engine, "_compiled", counting)
        yield names
        engine._generated.cache_clear()

    def test_sweep_compiles_one_loop_and_picks_one_kernel(self, compiled, tmp_path, monkeypatch):
        eps = [0.001, 0.003, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"game": {"n": 200, "m": 3}, "sweep": {"epsilon_values": eps}}))
        tables = []
        monkeypatch.setattr(cli, "solve", lambda *a: tables.append(solve(*a)) or tables[-1])
        assert cli.run("sweep", cfg, output=tmp_path / "out") == 0
        assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 1 + len(eps)
        # sweep reads values only; the kernel is built on the first read of picks
        assert compiled == ["_run"] and len(tables) == len(eps)
        for vt in tables:
            vt.picks
        assert sorted(compiled) == ["_kernel", "_run"]
        # another shape: first weight zero
        solve(GameSpec(50, 3, finite_set([[0.0, 0.6, 0.4], [0.3, 0.3, 0.4]]))).picks
        assert sorted(compiled) == ["_kernel", "_kernel", "_run", "_run"]
        solve(GameSpec(50, 3, finite_set([[0.0, 0.5, 0.5], [0.2, 0.4, 0.4]]))).picks
        assert len(compiled) == 4

    def test_cache_is_bounded(self, compiled):
        size = engine._generated.cache_info().maxsize
        assert isinstance(size, int) and size > 0
        # sets of more shapes than the cache holds: |K| = 1..size, m = 2
        for count in range(1, size + 2):
            solve(GameSpec(5, 2, finite_set([[0.5, 0.5]] * count))).picks
        assert engine._generated.cache_info().currsize == size
        assert len(compiled) == 2 * (size + 1)


# the repeat lengths of CYCLES, in the same order
CYCLE_PERIODS = dict(zip(CYCLE_IDS, (3, 4, 5, 1, 4, 1)))


def _picker_pass(vt, rule, seed):
    """The moves at 1..n as one picker mapped over all n tie sets in k order."""
    if rule == TIE_RANDOM:
        rng = random.Random(seed)
        picks = [t[rng.randrange(len(t))] for t in vt.tie_sets]
    else:
        picks = [t[0] if rule == TIE_LOWEST else t[-1] for t in vt.tie_sets]
    return np.array(picks, dtype=np.int64)


# (m, eps, the pile size at which solve stopped when its saved state moved
# at powers of two): the sets of the measured state in ROADMAP.md
DOUBLING_STOPS = [
    (2, 0.05, 1026),
    (2, 0.001, 65538),
    (3, 0.05, 1027),
    (3, 0.001, 32771),
    (4, 0.01, 4100),
    (6, 0.001, 32774),
]


def _first_repeat(p_ext, m):
    """(mu, lam): the state after pile size mu + lam is the first state
    p_ext[k : k+m] equal to an earlier one, the state after mu."""
    seen = {}
    for k in range(p_ext.size - m + 1):
        state = p_ext[k : k + m].tobytes()
        if state in seen:
            return seen[state], k - seen[state]
        seen[state] = k
    raise AssertionError("no state repeats")


class TestCycleFields:
    """`computed` and `period` record where solve stopped and what repeats."""

    @pytest.mark.parametrize("m, eps, doubling", DOUBLING_STOPS)
    def test_stops_within_a_tenth_of_the_first_repeat(self, m, eps, doubling):
        # no detector can stop before mu + lam; the slow-growing gaps stop
        # at most a tenth past it, and never later than doubling ones did
        K = truncated_simplex([eps] * m)
        vt = solve(GameSpec(10**6, m, K))
        p_ext, _, _ = _reference_solve(GameSpec(vt.computed, m, K), TIE_LOWEST, 0)
        mu, lam = _first_repeat(p_ext, m)
        assert vt.period == lam
        assert mu + lam <= vt.computed <= 1.10 * (mu + lam)
        assert vt.computed <= doubling

    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_no_repeat_before_n(self, label, K, detect):
        vt = solve(GameSpec(detect - 1, K.m, K))
        assert (vt.computed, vt.period) == (detect - 1, 0)

    @pytest.mark.parametrize("n, m, eps", [(2000, 4, 0.01), (3000, 3, 0.001)])
    def test_no_repeat_in_long_transient(self, n, m, eps):
        vt = solve(GameSpec(n, m, truncated_simplex([eps] * m)))
        assert (vt.computed, vt.period) == (n, 0)

    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_values_repeat_past_computed(self, label, K, detect):
        for n in (detect, detect + 1, 2 * detect + 3):
            vt = solve(GameSpec(n, K.m, K))
            c, period = vt.computed, vt.period
            assert (c, period) == (detect, CYCLE_PERIODS[label])
            # p_ext[k+m-1] == p_ext[k+m-1-period] for every k > c - m
            assert vt.p_ext[c:].tobytes() == vt.p_ext[c - period : vt.p_ext.size - period].tobytes()
            assert vt.tie_sets[c:] == vt.tie_sets[c - period : n - period]

    @pytest.mark.parametrize("rule", TIE_RULES)
    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_moves_equal_picker_pass(self, label, K, detect, rule):
        for n in (detect - 1, detect, detect + 1, 3 * detect + 2):
            vt = solve(GameSpec(n, K.m, K), rule, seed=n)
            want = _picker_pass(vt, rule, n)
            moves = vt.argmax(np.arange(1, n + 1))
            assert moves.dtype == want.dtype and moves.tobytes() == want.tobytes()


class TestFoldedReads:
    """The table keeps the evaluated prefix; ``p(k)``, ``argmax(k)`` and the
    dense properties read every later pile size by going back whole periods."""

    @pytest.mark.parametrize("rule", TIE_RULES)
    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_reads_match_reference(self, label, K, detect, rule):
        n = 3 * detect + 2
        vt = solve(GameSpec(n, K.m, K), rule, seed=n)
        p_ext, argmax, _ = _reference_solve(GameSpec(n, K.m, K), rule, n)
        assert vt.p_prefix.size == vt.computed + K.m
        assert vt.picks.size == (n if rule == TIE_RANDOM else vt.computed)
        assert [vt.p(k) for k in range(1 - K.m, n + 1)] == p_ext.tolist()
        k = np.arange(1, n + 1)
        assert vt.argmax(k).tobytes() == argmax.tobytes()
        assert [vt.policy(j) for j in k.tolist()] == [vt.candidates[i] for i in argmax]

    def test_huge_n_stores_the_prefix_only(self):
        n = 10**15
        vt = solve(GameSpec(n, 3, truncated_simplex([0.05] * 3)))
        assert (vt.computed, vt.period) == (649, 4)
        assert vt.p_prefix.size == 652 and vt.picks.size == 649
        # n = 0 (mod 4): it repeats 648, the third pile size of the last
        # period 646..649, and n - 1 repeats 647
        assert vt.p(n) == vt.p(648) and vt.p(n - 1) == vt.p(647)
        assert vt.argmax(np.array([n, n - 1])).tolist() == vt.argmax(np.array([648, 647])).tolist()

    @pytest.mark.parametrize("rule", TIE_RULES)
    def test_moves_outside_the_game_rejected(self, rule):
        small = solve(GameSpec(10, 2, finite_set([[0.7, 0.3], [0.3, 0.7]])), rule)
        # the picks run to 2000 under seeded_random, to 649 otherwise
        long = solve(GameSpec(2000, 3, truncated_simplex([0.05] * 3)), rule)
        for vt in (small, long):
            n = vt.n
            assert vt.argmax(np.array([1, n])).tolist() == [vt.argmax(1), vt.argmax(n)]
            for bad in (0, -1, n + 1, np.array([1, n + 1]), np.array([0, n])):
                with pytest.raises(ValueError, match=f"pile size outside 1\\.\\.{n}$"):
                    vt.argmax(bad)
            for bad in (0, -1, n + 1):
                with pytest.raises(ValueError, match=f"1\\.\\.{n}"):
                    vt.policy(bad)

    def test_values_past_n_rejected(self):
        K = truncated_simplex([0.05] * 3)
        repeats, plain = solve(GameSpec(2000, 3, K)), solve(GameSpec(50, 3, K))
        assert repeats.period > 0 and plain.period == 0
        for vt in (repeats, plain):
            n = vt.n
            assert vt.p(n) == vt.p_ext[-1] and vt.p(0) == vt.p(-5) == 1.0
            for bad in (n + 1, 10**6):
                with pytest.raises(ValueError, match=f"^pile size outside 1\\.\\.{n}$"):
                    vt.p(bad)

    @given(st.integers(1, 50), st.integers(0, 50), st.integers(1, 10**6))
    def test_fold_lands_in_the_last_period(self, period, extra, k):
        computed = period + extra
        j = engine.fold(k, computed, period)
        assert j == engine.fold(np.array([k]), computed, period)[0]
        if k <= computed:
            assert j == k
        else:
            assert computed - period < j <= computed and (k - j) % period == 0
        assert engine.fold(k, computed, 0) == k
