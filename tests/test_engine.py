import json
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bachet_lottery import (
    GameSpec,
    SimConfig,
    finite_set,
    one_shot_deviation_gap,
    payoff_kernel,
    solve,
    truncated_simplex,
)
from bachet_lottery import cli, engine
from bachet_lottery.engine import TIE_TOL
from bachet_lottery.errors import DegenerateSetError
from bachet_lottery.lotteries import LotterySet, validate_lottery
from test_acceptance import other_tie_breaks, replayed_values, tie_break
from test_cli import WRITER_SETS, finite_games
from test_oracles import _reference_gap, _with_picks

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
    @settings(max_examples=200)
    @given(lottery_sets())
    def test_bit_identical_to_reference(self, case):
        cands, tail = case
        assert win_probs(cands, tail) == tuple(reference_payoff(c, tail) for c in cands)

    @settings(max_examples=200)
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

    def test_tie_break_value_invariance(self):
        # playing another tied candidate gives the lowest-index table's values
        K = finite_set([[0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
        spec = GameSpec(60, 2, K)
        base = solve(spec)
        for choose in other_tie_breaks(7, 8):
            replay = replayed_values(spec, choose)
            assert all(abs(base.p(k) - v) <= 1e-12 for k, v in enumerate(replay, 1))

    @settings(max_examples=25)
    @given(st.lists(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2), min_size=1, max_size=4))
    def test_random_sets_stay_bounded(self, raw):
        K = finite_set([[w / sum(v) for w in v] for v in raw])
        vt = solve(GameSpec(40, 2, K))
        assert all(-1e-12 <= vt.p(k) <= 1.0 + 1e-12 for k in range(1, 41))

    def test_policy_and_tie_sets_exposed(self):
        vt = solve(GameSpec(5, 2, HALF))
        assert vt.candidates[vt.argmax(3)].probs == (0.5, 0.5)
        assert vt.tie_sets[0] == (0,)
        assert [vt.p(k) for k in range(-1, 6)] == vt.p_ext.tolist()
        assert vt.p(-1) == 1.0 and vt.p(1) == 0.0 and vt.p_ext.size == 7

    def test_tables_compare_and_hash_by_identity(self):
        # the generated == would compare the prefix arrays and raise
        spec = GameSpec(100, 3, truncated_simplex([0.05] * 3))
        a, b = solve(spec), solve(spec)
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b, a}) == 2
        cfg = {"n": 50, "replications": 10, "seed": 0}
        assert SimConfig(table=a, **cfg) != SimConfig(table=b, **cfg)
        assert SimConfig(table=a, **cfg) == SimConfig(table=a, **cfg)
        assert hash(SimConfig(table=a, **cfg)) == hash(SimConfig(table=a, **cfg))


def _reference_solve(spec):
    """(p_ext, argmax, tie_sets) from the recursion at every pile size,
    with the lowest-index move picked inside the loop and no cycle
    detection."""
    kernel = payoff_kernel(spec.K.lotteries)
    m, n = spec.m, spec.n
    p = [1.0] * m + [0.0] * n
    argmax = np.zeros(n, dtype=np.int64)
    tie_sets = [()] * n
    for k in range(1, n + 1):
        a = k + m - 1
        vals = kernel(*p[a - m : a])
        best = max(vals)
        ties = tuple(i for i, v in enumerate(vals) if v >= best - TIE_TOL)
        argmax[k - 1] = ties[0]
        tie_sets[k - 1] = ties
        p[a] = best
    return np.asarray(p), argmax, tuple(tie_sets)


def assert_matches_reference(spec):
    vt = solve(spec)
    # solve runs the recursion only; the ties are worked out on first read
    assert "tie_mask" not in vt.__dict__ and "picks" not in vt.__dict__
    p_ext, argmax, tie_sets = _reference_solve(spec)
    assert vt.p_ext.dtype == p_ext.dtype and vt.p_ext.tobytes() == p_ext.tobytes()
    moves = vt.argmax(np.arange(1, spec.n + 1))
    assert moves.dtype == argmax.dtype and moves.tobytes() == argmax.tobytes()
    assert vt.tie_sets == tie_sets
    return vt


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


def assert_keeps_the_first_period(vt, p_ext):
    """``vt`` keeps pile sizes 1..mu + period of the full recursion's values
    ``p_ext`` when solve saw a repeat, and 1..n when it saw none."""
    if vt.period:
        mu, lam = _first_repeat(p_ext[: vt.computed + vt.m], vt.m)
        assert (vt.computed, vt.period) == (mu + lam, lam)
    else:
        assert vt.computed == vt.n
    assert vt.p_prefix.tobytes() == p_ext[: vt.computed + vt.m].tobytes()


# (label, K, pile size at which solve first sees a repeated state).  The
# periodic parts start at k = 970 (period 3), 629 (4), 2716 (5), 210 (1),
# 1 (4) and 158 (1) (CYCLE_REPEATS); the repeat is seen later because the
# saved state moves only after a gap that grows by a sixteenth of itself
# plus one.
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

    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_matches_reference_around_detection(self, label, K, detect):
        for n in (detect - 1, detect, detect + 1, 2 * detect + 3):
            assert_matches_reference(GameSpec(n, K.m, K))

    def test_matches_reference_before_any_repeat(self):
        # the transients last 2716 and 30697 pile sizes
        assert_matches_reference(GameSpec(2000, 4, truncated_simplex([0.01] * 4)))
        assert_matches_reference(GameSpec(3000, 3, truncated_simplex([0.001] * 3)))

    @settings(max_examples=60)
    @given(lottery_sets(), st.integers(1, 3000))
    def test_matches_reference_on_random_sets(self, case, n):
        cands, _ = case
        assert_matches_reference(GameSpec(n, cands[0].m, LotterySet(tuple(cands))))

    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_prefix_of_longer_solve(self, label, K, detect):
        full = solve(GameSpec(3 * detect, K.m, K))
        for n in (1, detect - 1, detect, detect + 1, 2 * detect + 1):
            part = solve(GameSpec(n, K.m, K))
            assert part.p_ext.tobytes() == full.p_ext[: n + K.m].tobytes()
            k = np.arange(1, n + 1)
            assert part.argmax(k).tobytes() == full.argmax(k).tobytes()
            assert part.tie_sets == full.tie_sets[:n]


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
    ("asymmetric simplex", truncated_simplex([0.02, 0.05, 0.1]), 410),
    ("one weight at two positions", finite_set([[0.3, 0.4, 0.3], [0.3, 0.2, 0.5], [0.2, 0.5, 0.3]]), 155),
]
SHAPE_IDS = [label for label, _, _ in SHAPES]


class TestGeneratedLoop:
    """Each shape of the generated recursion against the full recursion."""

    @pytest.mark.parametrize("label, K, detect", SHAPES, ids=SHAPE_IDS)
    def test_matches_reference(self, label, K, detect):
        m = K.m
        for n in (1, m, detect - 1, detect, 2 * detect + 3):
            vt = assert_matches_reference(GameSpec(n, m, K))
            # vt.p_ext is the full recursion's, bit for bit
            assert_keeps_the_first_period(vt, vt.p_ext)
            assert vt.tie_mask.shape == (vt.computed, len(K.lotteries))

    def test_long_sums_match_reference(self):
        # sums of more terms than one generated `+` chain holds are written
        # as several statements: distinct weights (plain products) and one
        # weight at every position (a window of products)
        m = 2 * engine._CHAIN_TERMS + 7
        rng = random.Random(m)
        v = [rng.uniform(0.01, 1.0) for _ in range(m)]
        K = finite_set([[w / sum(v) for w in v], [1 / m] * m])
        tail = [rng.random() for _ in range(m)]
        assert win_probs(K.lotteries, tail) == tuple(reference_payoff(c, tail) for c in K.lotteries)
        assert_matches_reference(GameSpec(3 * m, m, K))

    def test_cases_have_their_shape(self):
        single, zero_first, many, two, six, twins, tilted, spread = (K for _, K, _ in SHAPES)
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
        # each weight of the tilted simplex sits at one position, and each eps
        # is shared by two vertices: products shared within one pile size only
        (_, terms), _ = engine._shape(tilted.lotteries)
        assert all(len({i for cand in terms for i, c in cand if c == d}) == 1 for _, d in terms[0])
        assert sum(len(cand) for cand in terms) > len({t for cand in terms for t in cand})
        # 0.3 sits at positions 1 and 3 of several candidates: a window with a gap
        (_, terms), weights = engine._shape(spread.lotteries)
        at = {(i, cand_no) for cand_no, cand in enumerate(terms) for i, c in cand if weights[c] == 0.3}
        assert {i for i, _ in at} == {1, 3} and len({k for _, k in at}) == 3
        for label, K, detect in SHAPES:
            assert solve(GameSpec(detect - 1, K.m, K)).period == 0, label
            assert solve(GameSpec(detect, K.m, K)).period > 0, label


@st.composite
def pooled_sets(draw):
    """Lottery sets whose weights come from a small pool, so that equal
    weights recur across positions and candidates, duplicates included."""
    m = draw(st.integers(2, 5))
    parts = st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any)
    raw = draw(st.lists(parts, min_size=1, max_size=5))
    raw += draw(st.lists(st.sampled_from(raw), max_size=3))
    raw = draw(st.permutations(raw))
    return finite_set([[a / sum(v) for a in v] for v in raw])


class TestSharedProducts:
    """Every class of equal weights that two or more terms use, at one
    position or at several, keeps a window: the loop forms each of its
    products once, and the tables stay those of the full recursion, bit
    for bit."""

    @settings(max_examples=80)
    @given(pooled_sets(), st.integers(1, 1500))
    def test_pooled_weights_match_reference(self, K, n):
        spec = GameSpec(n, K.m, K)
        vt = solve(spec)
        p_ext, argmax, _ = _reference_solve(spec)
        assert vt.p_ext.tobytes() == p_ext.tobytes()
        assert_keeps_the_first_period(vt, p_ext)
        assert vt.argmax(np.arange(1, n + 1)).tobytes() == argmax.tobytes()


class TestLeastSum:
    """The loop keeps the least candidate sum and subtracts it once."""

    @settings(max_examples=300)
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
    """The loop is generated once per shape of the set; the payoff kernel
    is a plain function, so reading ties or moves compiles nothing."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """The source of each loop compiled while the test runs."""
        sources = []
        real = engine._compiled
        engine._generated.cache_clear()
        monkeypatch.setattr(engine, "_compiled", lambda src: real(sources.append(src) or src))
        yield sources
        engine._generated.cache_clear()

    def test_sweep_compiles_one_loop_per_weight_pattern(self, compiled, tmp_path, monkeypatch):
        eps = [0.001, 0.003, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"game": {"n": 200, "m": 3}, "sweep": {"epsilon_values": eps}}))
        runs, run_loop = [], engine._run_loop
        monkeypatch.setattr(engine, "_run_loop", lambda spec: runs.append(spec) or run_loop(spec))
        assert cli.run("sweep", cfg, output=tmp_path / "out") == 0
        assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 1 + len(eps)
        # up to eps=0.05 every vertex holds eps and one value 1 - 2*eps; from
        # 0.1 on the last vertex's large weight rounds to a third value
        patterns = {len(engine._shape(spec.K.lotteries)[1]) for spec in runs}
        assert patterns == {2, 3}
        assert len(compiled) == 2 and len(runs) == len(eps)
        # solving the same games and reading their moves compiles nothing more
        for spec in runs[: len(eps)]:
            solve(spec).picks
        assert len(compiled) == 2 and len(runs) == 2 * len(eps)
        compiled.clear()
        # another shape: first weight zero
        solve(GameSpec(50, 3, finite_set([[0.0, 0.6, 0.4], [0.3, 0.3, 0.4]]))).picks
        assert len(compiled) == 1
        # the same shape: other weights that coincide in the same places
        solve(GameSpec(50, 3, finite_set([[0.0, 0.8, 0.2], [0.4, 0.4, 0.2]]))).picks
        assert len(compiled) == 1
        # the same nonzero positions, but two weights coincide: two loops
        solve(GameSpec(50, 3, finite_set([[0.2, 0.3, 0.5]])))
        solve(GameSpec(50, 3, finite_set([[0.25, 0.25, 0.5]])))
        assert len(compiled) == 3

    @pytest.mark.parametrize("m", [3, 5])
    def test_symmetric_simplex_forms_two_products_per_pile(self, compiled, m):
        # two weights, eps and 1 - (m-1)*eps, at every vertex; at some eps
        # (0.05 at m=5) one vertex's large weight rounds to a third value
        K = truncated_simplex([0.01] * m)
        assert len(engine._shape(K.lotteries)[1]) == 2
        solve(GameSpec(10, m, K))
        assert len(compiled) == 1
        loop = compiled[0][compiled[0].index("for period in") :]
        # w0*best and w1*best: one new product per weight, not m*m
        assert len(re.findall(r"\bw\d+\*", loop)) == 2
        # 0.5 sits at position 1 of both lotteries: a class that two terms
        # use at one position keeps a window too, so one product per class
        K = finite_set([[0.5, 0.3, 0.2], [0.5, 0.2, 0.3]])
        assert len(engine._shape(K.lotteries)[1]) == 3
        compiled.clear()
        solve(GameSpec(10, 3, K))
        loop = compiled[0][compiled[0].index("for period in") :]
        assert len(re.findall(r"\bw\d+\*", loop)) == 3

    def test_cache_is_bounded(self, compiled):
        size = engine._generated.cache_info().maxsize
        assert isinstance(size, int) and size > 0
        # sets of more shapes than the cache holds: |K| = 1..size, m = 2
        for count in range(1, size + 2):
            solve(GameSpec(5, 2, finite_set([[0.5, 0.5]] * count))).picks
        assert engine._generated.cache_info().currsize == size
        assert len(compiled) == size + 1


# (mu, period) of CYCLES, in the same order: the state after pile size
# mu + period is the first that equals an earlier one, the state after mu
CYCLE_REPEATS = dict(zip(CYCLE_IDS, ((969, 3), (628, 4), (2715, 5), (209, 1), (0, 4), (157, 1))))


def _picker_pass(vt):
    """The moves at 1..n as the lowest index of each of the n tie sets in k
    order."""
    return np.array([t[0] for t in vt.tie_sets], dtype=np.int64)


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


class TestCycleFields:
    """`period` is the repeat length and `computed` where the first repeat
    ends, mu + period, wherever the loop saw it."""

    @pytest.mark.parametrize("m, eps, doubling", DOUBLING_STOPS)
    def test_stops_within_a_tenth_of_the_first_repeat(self, m, eps, doubling):
        # no detector can stop before mu + lam; the loop's slow-growing gaps
        # stop at most a tenth past it, and never later than doubling ones
        # did.  The table keeps 1..mu + lam wherever the loop stopped
        K = truncated_simplex([eps] * m)
        p = [1.0] * m
        shape, weights = engine._shape(K.lotteries)
        period = engine._generated(shape)(*weights, p.append, 10**6, *p)
        stop = len(p) - m
        p_ext, _, _ = _reference_solve(GameSpec(stop, m, K))
        assert np.array(p).tobytes() == p_ext.tobytes()
        mu, lam = _first_repeat(p_ext, m)
        assert period == lam
        assert mu + lam <= stop <= 1.10 * (mu + lam)
        assert stop <= doubling
        vt = solve(GameSpec(10**6, m, K))
        assert (vt.computed, vt.period) == (mu + lam, lam)

    @pytest.mark.parametrize("label, K", [*((label, K) for label, K, _ in CYCLES), *WRITER_SETS],
                             ids=[*CYCLE_IDS, *(f"writer {label}" for label, _ in WRITER_SETS)])
    def test_keeps_the_first_period(self, label, K):
        vt = solve(GameSpec(10**6, K.m, K))
        p_ext, _, _ = _reference_solve(GameSpec(vt.computed, K.m, K))
        assert vt.period > 0
        assert_keeps_the_first_period(vt, p_ext)

    @settings(max_examples=60)
    @given(finite_games())
    def test_keeps_the_first_period_of_random_games(self, spec):
        vt = solve(spec)
        p_ext, _, _ = _reference_solve(spec)
        assert_keeps_the_first_period(vt, p_ext)

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
            mu, lam = CYCLE_REPEATS[label]
            assert (c, period) == (mu + lam, lam)
            # p_ext[k+m-1] == p_ext[k+m-1-period] for every k > c - m
            assert vt.p_ext[c:].tobytes() == vt.p_ext[c - period : vt.p_ext.size - period].tobytes()
            assert vt.tie_sets[c:] == vt.tie_sets[c - period : n - period]

    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_moves_equal_picker_pass(self, label, K, detect):
        for n in (detect - 1, detect, detect + 1, 3 * detect + 2):
            vt = solve(GameSpec(n, K.m, K))
            want = _picker_pass(vt)
            moves = vt.argmax(np.arange(1, n + 1))
            assert moves.dtype == want.dtype and moves.tobytes() == want.tobytes()


class TestFoldedReads:
    """The table keeps the evaluated prefix; ``p(k)``, ``argmax(k)`` and the
    dense properties read every later pile size by going back whole periods."""

    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_reads_match_reference(self, label, K, detect):
        n = 3 * detect + 2
        vt = solve(GameSpec(n, K.m, K))
        p_ext, argmax, _ = _reference_solve(GameSpec(n, K.m, K))
        assert vt.p_prefix.size == vt.computed + K.m
        assert vt.picks.size == vt.computed
        assert [vt.p(k) for k in range(1 - K.m, n + 1)] == p_ext.tolist()
        k = np.arange(1, n + 1)
        assert vt.argmax(k).tobytes() == argmax.tobytes()

    def test_huge_n_stores_the_prefix_only(self):
        n = 10**15
        vt = solve(GameSpec(n, 3, truncated_simplex([0.05] * 3)))
        assert (vt.computed, vt.period) == (632, 4)
        assert vt.p_prefix.size == 635 and vt.picks.size == 632
        # n = 0 (mod 4): it repeats 632, the last pile size of the last
        # period 629..632, and n - 1 repeats 631
        assert vt.p(n) == vt.p(632) and vt.p(n - 1) == vt.p(631)
        assert vt.argmax(np.array([n, n - 1])).tolist() == vt.argmax(np.array([632, 631])).tolist()

    def test_moves_outside_the_game_rejected(self):
        small = solve(GameSpec(10, 2, finite_set([[0.7, 0.3], [0.3, 0.7]])))
        # the picks run to 632 of the 2000 pile sizes
        long = solve(GameSpec(2000, 3, truncated_simplex([0.05] * 3)))
        for vt in (small, long):
            n = vt.n
            assert vt.argmax(np.array([1, n])).tolist() == [vt.argmax(1), vt.argmax(n)]
            for bad in (0, -1, n + 1, np.array([1, n + 1]), np.array([0, n])):
                with pytest.raises(ValueError, match=f"pile size outside 1\\.\\.{n}$"):
                    vt.argmax(bad)

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

    def test_p_upto_reads_pile_sizes_1_to_n_only(self):
        # a table with a repeat (n past computed) and one without
        K = truncated_simplex([0.05] * 3)
        repeats, plain = solve(GameSpec(1000, 3, K)), solve(GameSpec(50, 3, K))
        assert repeats.computed < repeats.n and plain.period == 0
        for vt in (repeats, plain):
            n = vt.n
            for last in (1, vt.computed, n):
                assert vt.p_upto(last).tolist() == [vt.p(k) for k in range(1 - vt.m, last + 1)]
            for bad in (0, -10, n + 1, n + 5, 10**6):
                with pytest.raises(ValueError, match=f"^pile size outside 1\\.\\.{n}$"):
                    vt.p_upto(bad)

    @given(st.integers(1, 50), st.integers(0, 50), st.integers(1, 10**6))
    def test_fold_lands_in_the_last_period(self, period, extra, k):
        computed, n = period + extra, 10**6
        j = engine.fold(k, n, computed, period)
        assert j == engine.fold(np.array([k]), n, computed, period)[0]
        if k <= computed:
            assert j == k
        else:
            assert computed - period < j <= computed and (k - j) % period == 0
        assert engine.fold(k, n, computed, 0) == k
        # one pile size outside 1..n rejects the whole array
        for bad in (0, -1, n + 1):
            for repeat in (period, 0):
                with pytest.raises(ValueError, match=f"^pile size outside 1\\.\\.{n}$"):
                    engine.fold(np.array([k, bad]), n, computed, repeat)


# the tie breaks a table does not play: the last tied candidate, or one drawn
# per pile size by random.Random(1) or random.Random(2)
TIE_BREAKS = pytest.mark.parametrize("seed", [None, 1, 2], ids=["last tied", "Random(1)", "Random(2)"])
# the pile size at which the loop stops on the writer's sets that CYCLES lacks
WRITER_STOPS = {"simplex m=4": 542, "simplex m=5": 451, "|K|=12 pair set": 339, "zero-weight set": 137}
TIE_BREAK_CASES = [
    *CYCLES,
    *((f"shape {label}", K, detect) for label, K, detect in SHAPES),
    *((f"writer {label}", K, WRITER_STOPS[label]) for label, K in WRITER_SETS if label in WRITER_STOPS),
]
TIE_BREAK_SETS = pytest.mark.parametrize(
    "label, K, detect", TIE_BREAK_CASES, ids=[label for label, _, _ in TIE_BREAK_CASES]
)


@TIE_BREAK_SETS
@TIE_BREAKS
class TestOtherTieBreaks:
    """A table plays the lowest-index tied candidate.  Another tie break,
    drawn from the test side at every pile size 1..n of a game past its
    repeat and set as a table's picks, is read back as it was set, and no
    single-state deviation from it gains more than TIE_TOL.  (Replayed on
    its own values it may drift from the table's by more than 1e-12 over a
    long game: a TIE_TOL tie is a near-tie.)"""

    def test_reads_of_a_policy_a_caller_sets(self, label, K, detect, seed):
        # n picks are read as they are; the first computed of them are read
        # past computed by going back whole periods, onto a tied candidate
        n = 2 * detect + 3
        vt = solve(GameSpec(n, K.m, K))
        choose = tie_break(seed)
        drawn = np.fromiter((choose(t) for t in vt.tie_sets), np.int64, n)
        k = np.arange(1, n + 1)
        assert _with_picks(vt, drawn).argmax(k).tobytes() == drawn.tobytes()
        c, period = vt.computed, vt.period
        assert 0 < period and c < n
        back = np.where(k <= c, k, c - period + (k - c - 1) % period + 1)
        moves = _with_picks(vt, drawn[:c]).argmax(k)
        assert moves.tobytes() == drawn[back - 1].tobytes()
        assert all(j in ties for j, ties in zip(moves.tolist(), vt.tie_sets))

    def test_policy_is_a_best_response(self, label, K, detect, seed):
        # no single-state deviation gains more than TIE_TOL, the gap's loop
        # past computed agreeing with the per-pile-size loop bit for bit
        n = 2 * detect + 3
        vt = solve(GameSpec(n, K.m, K))
        choose = tie_break(seed)
        forced = _with_picks(vt, np.fromiter((choose(t) for t in vt.tie_sets), np.int64, n))
        gap = one_shot_deviation_gap(forced)
        assert struct.pack("<d", gap) == struct.pack("<d", _reference_gap(forced))
        assert gap <= TIE_TOL


# the n at which the property test looks for where the loop stops on a set
PROBE_N = 20_000


@st.composite
def values_at_cases(draw):
    """(spec, ks): a set of m = 2..5 and 1..10 lotteries, zero weights
    included; an n from 1 up, or about where the loop first sees a repeat on
    the set (n just before, at or past mu + period, or the pile size at
    which the loop stops), or several periods past that; and pile sizes 1,
    n, the loop's stop L on the game, L + 1, some pile sizes several
    periods past L, and some drawn from 1..n."""
    m = draw(st.integers(2, 5))
    weights = st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=m, max_size=m
    ).filter(lambda v: sum(v) > 0.0)
    raw = draw(st.lists(weights, min_size=1, max_size=10))
    K = LotterySet(tuple(validate_lottery([w / sum(v) for w in v]) for v in raw))
    vt = solve(GameSpec(PROBE_N, m, K))
    values, period = engine._run_loop(GameSpec(PROBE_N, m, K))
    stop = len(values) - m
    near = [1, draw(st.integers(1, PROBE_N)), stop - 1, stop, stop + 1, stop + 2]
    if period:
        near += [vt.computed - 1, vt.computed, vt.computed + 1,
                 stop + draw(st.integers(2, 9)) * period + draw(st.integers(0, period - 1)), 10**15]
    n = draw(st.sampled_from([k for k in near if k >= 1]))
    spec = GameSpec(n, m, K)
    values, period = engine._run_loop(spec)
    stop = len(values) - m
    ks = [1, n, stop, stop + 1, *(stop + j * max(period, 1) + j % 3 for j in range(2, 6))]
    ks += draw(st.lists(st.integers(1, n), max_size=5))
    return spec, [k for k in ks if 1 <= k <= n]


class TestValuesAt:
    """``values_at`` reads p_k from one run of the loop, with no table; the
    table ``solve`` builds is the reference."""

    @settings(max_examples=150)
    @given(values_at_cases())
    def test_equals_the_tables_values(self, case):
        spec, ks = case
        vt = solve(spec)
        assert [v.hex() for v in engine.values_at(spec, ks)] == [vt.p(k).hex() for k in ks]

    @pytest.mark.parametrize("label, K, detect", CYCLES, ids=CYCLE_IDS)
    def test_around_the_stop(self, label, K, detect):
        for n in (1, detect - 1, detect, detect + 1, 5 * detect + 3):
            spec = GameSpec(n, K.m, K)
            ks = list(range(1, n + 1))
            assert [v.hex() for v in engine.values_at(spec, ks)] == [v.hex() for v in
                                                                     solve(spec).p_ext[K.m :]]

    def test_pile_sizes_outside_the_game_rejected(self):
        K = truncated_simplex([0.05] * 3)
        for n in (50, 2000):
            spec = GameSpec(n, 3, K)
            assert engine.values_at(spec, []) == []
            for bad in (0, -1, n + 1):
                with pytest.raises(ValueError, match=f"^pile size outside 1\\.\\.{n}$"):
                    engine.values_at(spec, [1, bad])


def test_hypothesis_examples_have_no_deadline():
    # tests/conftest.py loads one profile for every @given test: a wall-clock
    # deadline would fail slow examples on a loaded machine
    assert settings().deadline is None
