import dataclasses
import itertools
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bachet_lottery import (
    GameSpec,
    SimConfig,
    brute_force_values,
    estimate_win_prob,
    finite_set,
    one_shot_deviation_gap,
    payoff_kernel,
    solve,
    truncated_simplex,
)
from bachet_lottery import engine
from bachet_lottery.errors import InstanceTooLargeError
from bachet_lottery.lotteries import SUM_TOL, LotterySet, validate_lottery
from bachet_lottery.oracles import SimResult, draw_stream

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
        vt = solve(GameSpec(30, 3, K))
        for n in (1, 2, 3, 17, 30):
            cfg = SimConfig(table=vt, n=n, replications=40, seed=n)
            assert estimate_win_prob(cfg) == _reference_result(cfg)

    @settings(max_examples=120)
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
        vt = solve(GameSpec(data.draw(st.integers(1, 80)), m, K))
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
        # the stream of a longer game of the same seed: n's draws are its prefix
        longest = data.draw(st.integers(cfg.n, vt.n))
        stream = draw_stream(cfg.seed, cfg.replications * longest)
        assert estimate_win_prob(cfg, stream) == got

    def test_rejects_short_or_shaped_draws(self):
        vt = solve(GameSpec(30, 3, truncated_simplex([0.05] * 3)))
        cfg = SimConfig(table=vt, n=30, replications=40, seed=2)
        stream = draw_stream(2, 40 * 30)
        assert estimate_win_prob(cfg, stream) == estimate_win_prob(cfg)
        # the stream's doubles, or its words as signed integers, would play
        # a different game
        doubles = (stream >> 11) * 2.0**-53
        message = "^draws must be a flat array of at least 1200 words, got "
        for bad in (stream[:-1], stream.reshape(40, 30), doubles, stream.view(np.int64),
                    stream.tolist()):
            with pytest.raises(ValueError, match=message):
                estimate_win_prob(cfg, bad)

    def test_stream_is_the_row_major_matrix(self):
        # row r of the (R x n) matrix is stream[r*n:(r+1)*n], for any n of
        # the stream's seed, and a word's double is numpy's uniform of it
        stream = draw_stream(2**64, 7 * 401)
        assert stream.dtype == np.uint64
        for n in (1, 2, 5, 400, 401):
            want = np.random.Generator(np.random.Philox(2**64)).random((7, n))
            got = (stream[: 7 * n].reshape(7, n) >> 11) * 2.0**-53
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100)
    @given(st.data())
    def test_threshold_identity(self, data):
        # (w >> 11) >= ceil(c * 2**53) is (w >> 11) * 2**-53 >= c, for the
        # cumulative weights c that estimate_win_prob compares against and
        # words w on either side of each threshold.  At pile 2 of a game
        # with the one lottery (c, 1 - c), the first player wins exactly
        # when the first move's u < c, so estimate_win_prob on those words
        # counts the draws below the threshold it built
        j = data.draw(st.integers(0, 2**53))
        cs = [0.0, 1.0, 5e-324, j * 2.0**-53]
        cs += [np.nextafter(cs[-1], -1.0), np.nextafter(cs[-1], 2.0)]
        m = data.draw(st.integers(2, 6))
        weights = st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=m, max_size=m
        ).filter(lambda v: sum(v) > 0.0)
        probs = validate_lottery([w / sum(v) for v in [data.draw(weights)] for w in v]).probs
        cs += np.cumsum(probs).tolist()
        for c in cs:
            if c < 0.0:
                continue
            ceil = int(math.ceil(c * 2.0**53))
            words = [2**64 - 1] + [
                w for d in (0, 1, 2**11) for w in (ceil * 2**11 - d, ceil * 2**11 + d)
                if 0 <= w < 2**64
            ]
            i = np.array(words, dtype=np.uint64) >> 11
            u = i * 2.0**-53
            assert (i >= ceil).tolist() == (u >= c).tolist(), c
            if c > 1.0:
                continue
            # snapping the sum may move a weight above 1/2 by an ulp
            c = validate_lottery([c, 1.0 - c]).probs[0]
            vt = solve(GameSpec(2, 2, finite_set([[c, 1.0 - c]])))
            draws = np.zeros(2 * len(words), dtype=np.uint64)
            draws[::2] = words
            cfg = SimConfig(table=vt, n=2, replications=len(words), seed=0)
            got = estimate_win_prob(cfg, draws).wins_first_player
            assert got == int(np.count_nonzero(u < c)), c

    @pytest.mark.parametrize("R", [1, 3])
    def test_first_move_that_can_end_a_game(self, R):
        # take m every move: each game ends on move ceil(n/m) - 1, the first
        # move that the loop does not skip
        for m in range(2, 6):
            vt = solve(GameSpec(3 * m + 1, m, finite_set([[0.0] * (m - 1) + [1.0]])))
            for n in range(1, 3 * m + 2):
                cfg = SimConfig(table=vt, n=n, replications=R, seed=n)
                got = estimate_win_prob(cfg)
                assert got == _reference_result(cfg)
                assert got.wins_first_player == R * ((-(-n // m) - 1) % 2)

    @pytest.mark.parametrize("R", [1, 3])
    def test_games_that_last_about_n_moves(self, R):
        # always take 1, and take 1 with probability 7/8.  A game that
        # reaches move n - 1 has one object left, so the last column's draw
        # never matters; at n = 10 column 8 does
        for probs in ([1.0, 0.0], [0.875, 0.125]):
            vt = solve(GameSpec(17, 2, finite_set([probs])))
            for n in (7, 8, 9, 10, 17):
                for seed in range(10):
                    cfg = SimConfig(table=vt, n=n, replications=R, seed=seed)
                    assert estimate_win_prob(cfg) == _reference_result(cfg)

    def test_take_count_wider_than_a_byte(self):
        # every move takes 300 objects, a count that wraps to 44 in uint8
        vt = solve(GameSpec(1000, 300, finite_set([[0.0] * 299 + [1.0]])))
        for n in (299, 300, 301, 999, 1000):
            cfg = SimConfig(table=vt, n=n, replications=3, seed=n)
            assert estimate_win_prob(cfg) == _reference_result(cfg)
        # at n=1000 move 3 takes the last 100 objects: the first player wins
        assert estimate_win_prob(cfg).p_hat == 1.0

    def test_memory_is_the_draws_and_length_r_buffers(self):
        # the benchmark's largest game; a second R x n array (a transposed
        # copy of the draws, say) or an (8, R) tile of shifted draws would
        # break the bound, which leaves room for the five length-R buffers
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
        assert peak < R * n * 8 + 8 * R * 8


def _reference_result(cfg):
    """estimate_win_prob as a loop over games and moves: game r reads row r
    of the same Philox draws, moves min(1 + #{j: u >= cum_j}, m) objects
    and ends on the move that takes at least the pile."""
    vt, n, R = cfg.table, cfg.n, cfg.replications
    draws = np.random.Generator(np.random.Philox(cfg.seed)).random((R, n)).tolist()
    cums = [list(itertools.accumulate(vt.candidates[vt.argmax(k)].probs)) for k in range(1, n + 1)]
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

    @settings(max_examples=80)
    @given(st.data())
    def test_matches_per_pile_loop(self, data):
        m = data.draw(st.integers(2, 6))
        weights = st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=m, max_size=m
        ).filter(lambda v: sum(v) > 0.0)
        raw = data.draw(st.lists(weights, min_size=1, max_size=8))
        K = LotterySet(tuple(validate_lottery([w / sum(v) for w in v]) for v in raw))
        vt = solve(GameSpec(data.draw(st.integers(1, 3000)), m, K))
        if data.draw(st.booleans()):
            # an arbitrary policy, so that deviations gain something
            seed = data.draw(st.integers(0, 2**32 - 1))
            policy = np.random.default_rng(seed).integers(0, len(K.lotteries), vt.n)
            vt = _with_picks(vt, policy)
        got, want = one_shot_deviation_gap(vt), _reference_gap(vt)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_prefix_only_at_large_n(self):
        # the table keeps pile sizes 1..632 at n = 1e6: the gap reads 632
        # columns, also for a policy of 1e6 picks, one tied candidate drawn
        # per pile size.  The picks are made first, so their tie pass is not
        # counted
        vt = solve(GameSpec(10**6, 3, truncated_simplex([0.05] * 3)))
        rng = random.Random(0)
        drawn = np.fromiter((t[rng.randrange(len(t))] for t in vt.tie_sets), np.int64, vt.n)
        for table, gap in ((vt, 9.287015600989434e-13), (_with_picks(vt, drawn), 9.988676552552533e-13)):
            table.picks
            tracemalloc.start()
            try:
                got = one_shot_deviation_gap(table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert struct.pack("<d", got) == struct.pack("<d", gap), table.picks.size
            assert peak < 1 << 20, table.picks.size

    def test_read_order_does_not_matter(self):
        # the gap and the moves read the same payoffs of the prefix, whether
        # the gap or the picks are read first
        spec = GameSpec(100, 3, truncated_simplex([0.05] * 3))
        fresh, read = solve(spec), solve(spec)
        want = read.picks
        gap = one_shot_deviation_gap(fresh)
        assert fresh.picks.tobytes() == want.tobytes()
        assert fresh.tie_mask.tobytes() == read.tie_mask.tobytes()
        assert one_shot_deviation_gap(read) == gap

    def test_gain_past_computed_counts(self):
        # Bachet's game repeats from pile size 1, so the table keeps 1..4:
        # the engine's moves, but at one winning pile size past 4 a move
        # that hands the opponent a win
        vt = solve(GameSpec(40, 3, finite_set([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
        assert (vt.computed, vt.period) == (4, 4)
        picks = vt.argmax(np.arange(1, 41))
        assert one_shot_deviation_gap(_with_picks(vt, picks)) == 0.0
        for k in (38, 39, 40):
            bad = picks.copy()
            bad[k - 1] = (picks[k - 1] + 1) % 3
            bad = _with_picks(vt, bad)
            assert one_shot_deviation_gap(bad) == _reference_gap(bad) == 1.0


class TestCatchesLoopDefects:
    """The oracles read the payoff from the weights, not from the solve
    loop's term list, so a wrong term list changes the solved table and
    not the game it is checked against."""

    @pytest.fixture
    def reversed_terms(self, monkeypatch):
        # each lottery's nonzero positions reversed: (i, c) -> (m + 1 - i, c)
        real = engine._shape

        def mutated(candidates):
            (m, terms), weights = real(candidates)
            return (m, tuple(tuple((m + 1 - i, c) for i, c in cand) for cand in terms)), weights

        engine._generated.cache_clear()
        monkeypatch.setattr(engine, "_shape", mutated)
        yield
        engine._generated.cache_clear()

    def test_reversed_positions_caught(self, reversed_terms):
        # a set closed under reversal (a symmetric simplex, say) would be an
        # equivalent mutant: the reversed lotteries are the same set
        spec = GameSpec(8, 3, finite_set([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]]))
        vt = solve(spec)
        values = brute_force_values(spec)
        assert max(abs(values[k] - vt.p(k)) for k in values) > 1e-3
        assert one_shot_deviation_gap(vt) > 1e-3


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
