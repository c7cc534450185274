import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bachet_lottery import (
    GameSpec,
    LotterySet,
    SimConfig,
    brute_force_values,
    estimate_win_prob,
    finite_set,
    one_shot_deviation_gap,
    payoff_kernel,
    solve,
    validate_lottery,
)
from bachet_lottery.engine import TIE_RULES
from bachet_lottery.errors import InstanceTooLargeError

HALF = finite_set([[0.5, 0.5]])


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
        forced = dataclasses.replace(vt, argmax_index=np.array([0, 1]))
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
            forced = dataclasses.replace(vt, argmax_index=policy)
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
            vt = dataclasses.replace(vt, argmax_index=policy)
        got, want = one_shot_deviation_gap(vt), _reference_gap(vt)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want)


def _reference_gap(vt):
    """one_shot_deviation_gap as a loop over pile sizes: the kernel on each
    window p_{k-m}..p_{k-1}, every payoff minus the chosen one."""
    kernel = payoff_kernel(vt.candidates)
    p, chosen = vt.p_ext.tolist(), vt.argmax_index.tolist()
    gap = -math.inf
    for k in range(1, vt.n + 1):
        vals = kernel(*p[k - 1 : k + vt.m - 1])  # p_{k-m}..p_{k-1}
        own = vals[chosen[k - 1]]
        for val in vals:
            gap = max(gap, val - own)
    return gap
