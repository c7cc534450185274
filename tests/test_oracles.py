import dataclasses
import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bachet_lottery import (
    GameSpec,
    LotterySet,
    SimConfig,
    SimResult,
    brute_force_values,
    estimate_win_prob,
    finite_set,
    one_shot_deviation_gap,
    payoff_kernel,
    solve,
    truncated_simplex,
    validate_lottery,
)
from bachet_lottery.engine import TIE_LOWEST, TIE_RANDOM, TIE_RULES
from bachet_lottery.errors import InstanceTooLargeError
from bachet_lottery.lotteries import SUM_TOL

HALF = finite_set([[0.5, 0.5]])


def _with_picks(vt, picks):
    """A copy of ``vt`` that plays ``picks`` (picks[k-1] at pile size k):
    they are set as its cached ``picks``, which no tie pass then replaces."""
    forced = dataclasses.replace(vt)
    forced.__dict__["picks"] = np.asarray(picks)
    return forced


def _p_hat(vt, n, seed=0, replications=50):
    return estimate_win_prob(SimConfig(table=vt, n=n, replications=replications, seed=seed)).p_hat


class TestSimulateGame:
    """Single-policy games through estimate_win_prob: with pure moves, or
    when every move ends the game, each replication has the same winner,
    so p_hat is exactly 0 or 1."""

    def test_n1_first_always_loses(self):
        vt = solve(GameSpec(1, 2, HALF))
        assert all(_p_hat(vt, 1, seed=s) == 0.0 for s in range(20))

    def test_forced_take_two(self):
        # take 1 at pile 1, take 2 at pile 2: the first mover overshoots
        vt = solve(GameSpec(2, 2, finite_set([[1.0, 0.0], [0.0, 1.0]])))
        forced = _with_picks(vt, [0, 1])
        assert _p_hat(forced, 2) == 0.0

    def test_forced_take_one(self):
        vt = solve(GameSpec(2, 2, finite_set([[1.0, 0.0]])))
        assert _p_hat(vt, 2) == 1.0

    def test_policy_read_at_every_pile_size(self):
        # random pure policies: p_hat is the winner of the one forced play
        vt = solve(GameSpec(12, 3, finite_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
        rng = np.random.default_rng(3)
        for _ in range(30):
            policy = rng.integers(0, 3, vt.n)
            forced = _with_picks(vt, policy)
            for n in range(1, vt.n + 1):
                pile, mover = n, 0
                while policy[pile - 1] + 1 < pile:
                    pile -= policy[pile - 1] + 1
                    mover ^= 1
                assert _p_hat(forced, n, replications=4) == float(mover == 1)

    def test_classical_policy_deterministic(self):
        K = finite_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        vt = solve(GameSpec(10, 3, K))
        assert all(_p_hat(vt, 10, seed=s) == vt.p(10) for s in range(10))


class TestEstimateWinProb:
    def test_n1_exact_zero(self):
        vt = solve(GameSpec(1, 2, HALF))
        res = estimate_win_prob(SimConfig(table=vt, n=1, replications=1000, seed=1))
        assert res.p_hat == 0.0 and res.wins_first_player == 0

    def test_matches_engine_within_ci(self):
        vt = solve(GameSpec(4, 2, HALF))
        res = estimate_win_prob(SimConfig(table=vt, n=4, replications=200_000, seed=42))
        assert abs(res.p_hat - 0.375) <= 4 * res.std_err

    def test_deterministic_given_seed(self):
        vt = solve(GameSpec(7, 2, HALF))
        cfg = SimConfig(table=vt, n=7, replications=50_000, seed=9)
        assert estimate_win_prob(cfg) == estimate_win_prob(cfg)

    def test_std_err_formula(self):
        vt = solve(GameSpec(2, 2, HALF))
        res = estimate_win_prob(SimConfig(table=vt, n=2, replications=10_000, seed=5))
        assert res.std_err == pytest.approx(
            (res.p_hat * (1 - res.p_hat) / res.replications) ** 0.5, abs=1e-15
        )

    def test_rejects_bad_config(self):
        vt = solve(GameSpec(3, 2, HALF))
        with pytest.raises(ValueError):
            SimConfig(table=vt, n=4, replications=10, seed=0)
        with pytest.raises(ValueError):
            SimConfig(table=vt, n=3, replications=0, seed=0)
        good = {"n": 3, "replications": 10, "seed": 0}
        bad = [
            ("n", True), ("n", 3.0), ("n", np.bool_(True)), ("n", "3"),
            ("replications", 2.5), ("replications", False),
            ("seed", 1.5), ("seed", True), ("seed", -1), ("seed", np.int64(-1)),
        ]
        for field, value in bad:
            with pytest.raises(ValueError, match=f"^{field} "):
                SimConfig(table=vt, **{**good, field: value})

    def test_accepts_numpy_integers(self):
        vt = solve(GameSpec(3, 2, HALF))
        cfg = SimConfig(table=vt, n=np.int64(3), replications=np.int32(10), seed=np.uint64(4))
        got = estimate_win_prob(cfg)
        assert got == estimate_win_prob(SimConfig(table=vt, n=3, replications=10, seed=4))
        assert [type(v) for v in dataclasses.astuple(got)] == [int, int, float, float]

    def test_trailing_zero_weight(self):
        # the last cumulative threshold is 1.0, which no draw reaches
        K = finite_set([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        for rule in TIE_RULES:
            vt = solve(GameSpec(30, 3, K), rule)
            for n in (1, 2, 3, 17, 30):
                cfg = SimConfig(table=vt, n=n, replications=40, seed=n)
                assert estimate_win_prob(cfg) == _reference_result(cfg)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_per_game_loop(self, data):
        m = data.draw(st.integers(2, 5))
        if data.draw(st.booleans()):
            eps = st.lists(st.floats(1e-3, 0.9 / m), min_size=m, max_size=m)
            K = truncated_simplex(data.draw(eps))
        else:
            weights = st.lists(
                st.one_of(st.just(0.0), st.just(0.5), st.floats(0.01, 1.0)), min_size=m, max_size=m
            ).filter(lambda v: sum(v) > 0.0)
            lots = []
            for v in data.draw(st.lists(weights, min_size=1, max_size=5)):
                probs = [w / sum(v) for w in v]
                # a sum off 1 within SUM_TOL, which validate_lottery snaps
                i = data.draw(st.integers(0, m - 1))
                off = data.draw(st.floats(-SUM_TOL / 2, SUM_TOL / 2))
                probs[i] = min(1.0, max(0.0, probs[i] + off))
                lots.append(validate_lottery(probs))
            K = LotterySet(tuple(lots))
        vt = solve(GameSpec(data.draw(st.integers(1, 80)), m, K),
                   data.draw(st.sampled_from(TIE_RULES)), seed=data.draw(st.integers(0, 9)))
        if data.draw(st.booleans()):
            # an arbitrary policy, so that every candidate gets played
            seed = data.draw(st.integers(0, 2**32 - 1))
            policy = np.random.default_rng(seed).integers(0, len(K.lotteries), vt.n)
            vt = _with_picks(vt, policy)
        cfg = SimConfig(
            table=vt,
            n=data.draw(st.integers(1, vt.n)),
            replications=data.draw(st.integers(1, 50)),
            seed=data.draw(st.integers(0, 2**64)),
        )
        got = estimate_win_prob(cfg)
        assert type(got.wins_first_player) is int
        assert got == _reference_result(cfg)

    def test_memory_is_the_draws_and_length_r_buffers(self):
        # the benchmark's largest game; a second R x n array (a transposed
        # copy of the draws, say) would break the bound
        vt = solve(GameSpec(400, 3, truncated_simplex([0.05] * 3)))
        R, n = 2000, 400
        cfg = SimConfig(table=vt, n=n, replications=R, seed=0)
        # the first draw in a process imports the modules of numpy's
        # seeding, which tracemalloc would count
        estimate_win_prob(SimConfig(table=vt, n=1, replications=1, seed=0))
        tracemalloc.start()
        try:
            estimate_win_prob(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < R * n * 8 + 16 * R * 8


def _reference_result(cfg):
    """estimate_win_prob as a loop over games and moves: game r reads row r
    of the same Philox draws, moves min(1 + #{j: u >= cum_j}, m) objects
    and ends on the move that takes at least the pile."""
    vt, n, R = cfg.table, cfg.n, cfg.replications
    draws = np.random.Generator(np.random.Philox(cfg.seed)).random((R, n)).tolist()
    cums = [list(itertools.accumulate(vt.policy(k).probs)) for k in range(1, n + 1)]
    wins = 0
    for row in draws:
        pile = n
        for t, u in enumerate(row):
            move = min(1 + sum(u >= c for c in cums[pile - 1]), vt.m)
            if move >= pile:
                wins += t % 2
                break
            pile -= move
    p_hat = wins / R
    return SimResult(wins, R, p_hat, math.sqrt(p_hat * (1.0 - p_hat) / R))


class TestBruteForce:
    def test_single_profile(self):
        spec = GameSpec(3, 2, HALF)
        values = brute_force_values(spec)
        assert values == pytest.approx({1: 0.0, 2: 0.5, 3: 0.75}, abs=1e-15)

    def test_two_candidate_profile(self):
        spec = GameSpec(3, 2, finite_set([[0.9, 0.1], [0.1, 0.9]]))
        values = brute_force_values(spec)
        assert values[2] == pytest.approx(0.9, abs=1e-15)
        assert values[3] == pytest.approx(0.91, abs=1e-15)

    def test_k2_is_max_pi1(self):
        for vecs in ([[0.7, 0.3]], [[0.4, 0.6], [0.55, 0.45]]):
            spec = GameSpec(2, 2, finite_set(vecs))
            assert brute_force_values(spec)[2] == pytest.approx(
                max(v[0] for v in vecs), abs=1e-15
            )

    def test_matches_engine(self):
        spec = GameSpec(9, 3, finite_set([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7], [0.3, 0.4, 0.3]]))
        vt = solve(spec)
        values = brute_force_values(spec)
        assert all(abs(values[k] - vt.p(k)) <= 1e-10 for k in values)

    def test_instance_bounds(self):
        with pytest.raises(InstanceTooLargeError):
            brute_force_values(GameSpec(13, 2, HALF))
        big = finite_set([[0.5, 0.5], [0.4, 0.6], [0.6, 0.4], [0.3, 0.7], [0.7, 0.3]])
        with pytest.raises(InstanceTooLargeError):
            brute_force_values(GameSpec(3, 2, big))


class TestOneShotDeviation:
    def test_engine_policy_is_optimal(self):
        for vecs in ([[0.5, 0.5]], [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]):
            vt = solve(GameSpec(30, 2, finite_set(vecs)))
            assert one_shot_deviation_gap(vt) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_per_pile_loop(self, data):
        m = data.draw(st.integers(2, 6))
        weights = st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=m, max_size=m
        ).filter(lambda v: sum(v) > 0.0)
        raw = data.draw(st.lists(weights, min_size=1, max_size=8))
        K = LotterySet(tuple(validate_lottery([w / sum(v) for w in v]) for v in raw))
        vt = solve(GameSpec(data.draw(st.integers(1, 3000)), m, K),
                   data.draw(st.sampled_from(TIE_RULES)), seed=data.draw(st.integers(0, 9)))
        if data.draw(st.booleans()):
            # an arbitrary policy, so that deviations gain something
            seed = data.draw(st.integers(0, 2**32 - 1))
            policy = np.random.default_rng(seed).integers(0, len(K.lotteries), vt.n)
            vt = _with_picks(vt, policy)
        got, want = one_shot_deviation_gap(vt), _reference_gap(vt)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_prefix_only_at_large_n(self):
        # solve stops at pile size 649 at n = 1e6: the gap reads 649
        # columns, also under seeded_random, which stores 1e6 picks.  The
        # picks are read first, so their tie pass is not counted
        spec = GameSpec(10**6, 3, truncated_simplex([0.05] * 3))
        for rule, gap in ((TIE_LOWEST, 9.287015600989434e-13), (TIE_RANDOM, 9.988676552552533e-13)):
            vt = solve(spec, rule)
            vt.picks
            tracemalloc.start()
            try:
                got = one_shot_deviation_gap(vt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert struct.pack("<d", got) == struct.pack("<d", gap), rule
            assert peak < 1 << 20, rule

    def test_gain_past_computed_counts(self):
        # solve stops at pile size 10 in Bachet's game: the engine's moves,
        # but at one winning pile size past 10 a move that hands the
        # opponent a win
        vt = solve(GameSpec(40, 3, finite_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
        assert (vt.computed, vt.period) == (10, 4)
        picks = vt.argmax(np.arange(1, 41))
        assert one_shot_deviation_gap(_with_picks(vt, picks)) == 0.0
        for k in (38, 39, 40):
            bad = picks.copy()
            bad[k - 1] = (picks[k - 1] + 1) % 3
            bad = _with_picks(vt, bad)
            assert one_shot_deviation_gap(bad) == _reference_gap(bad) == 1.0


def _reference_gap(vt):
    """one_shot_deviation_gap as a loop over pile sizes: the kernel on each
    window p_{k-m}..p_{k-1}, every payoff minus the chosen one."""
    kernel = payoff_kernel(vt.candidates)
    p, chosen = vt.p_ext.tolist(), vt.argmax(np.arange(1, vt.n + 1)).tolist()
    gap = -math.inf
    for k in range(1, vt.n + 1):
        vals = kernel(*p[k - 1 : k + vt.m - 1])  # p_{k-m}..p_{k-1}
        own = vals[chosen[k - 1]]
        for val in vals:
            gap = max(gap, val - own)
    return gap
