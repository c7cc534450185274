import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bachet_lottery import GameSpec, compute_conditions, finite_set, solve, truncated_simplex
from bachet_lottery import lotteries
from bachet_lottery.lotteries import candidate_set, validate_lottery
from bachet_lottery.errors import (
    DegenerateSetError,
    NegativeEntryError,
    SumNotOneError,
    WrongLengthError,
)


class TestValidateLottery:
    def test_symmetric_point(self):
        lot = validate_lottery((0.5, 0.5))
        assert lot.m == 2
        assert lot.probs == (0.5, 0.5)

    def test_degenerate_pure_move_allowed(self):
        lot = validate_lottery((1.0, 0.0))
        assert lot.probs == (1.0, 0.0)

    def test_sum_not_one(self):
        with pytest.raises(SumNotOneError):
            validate_lottery((0.6, 0.6))

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            validate_lottery((1.2, -0.2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry(self, bad):
        with pytest.raises(NegativeEntryError):
            validate_lottery((bad, 0.5))

    def test_wrong_length(self):
        with pytest.raises(WrongLengthError):
            validate_lottery((1.0,))

    @given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5))
    def test_normalized_vectors_accepted(self, weights):
        total = sum(weights)
        lot = validate_lottery([w / total for w in weights])
        assert abs(sum(lot.probs) - 1.0) <= 1e-12
        assert all(0.0 <= x <= 1.0 for x in lot.probs)

    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=2, max_size=12)
           .filter(any))
    @settings(max_examples=300)
    def test_running_sum_is_exactly_one(self, weights):
        # the payoff recursion sums the coordinates left to right, so
        # p_1 = 1 - sum(pi) is 0 exactly
        total = sum(weights)
        K = finite_set([[w / total for w in weights]])
        running = 0.0
        for x in K.lotteries[0].probs:
            running += x
        assert running == 1.0
        assert solve(GameSpec(1, K.m, K)).p(1) == 0.0


class TestCandidateSet:
    def test_finite_pass_through(self):
        K = finite_set([[0.5, 0.5]])
        assert [c.probs for c in candidate_set(K)] == [(0.5, 0.5)]

    def test_truncated_simplex_m2(self):
        K = truncated_simplex([0.1, 0.1])
        got = sorted(c.probs for c in candidate_set(K))
        assert got == [(0.1, 0.9), (0.9, 0.1)]

    def test_truncated_simplex_m3(self):
        K = truncated_simplex([0.1, 0.1, 0.1])
        got = sorted(c.probs for c in candidate_set(K))
        expect = [(0.1, 0.1, 0.8), (0.1, 0.8, 0.1), (0.8, 0.1, 0.1)]
        assert all(
            max(abs(a - b) for a, b in zip(g, e)) <= 1e-15 for g, e in zip(got, expect)
        )

    def test_vertices_are_valid_lotteries(self):
        K = truncated_simplex([0.2, 0.05, 0.1])
        for vert in candidate_set(K):
            validate_lottery(vert.probs)

    def test_degenerate_truncated_simplex(self):
        with pytest.raises(DegenerateSetError):
            truncated_simplex([0.6, 0.5])
        with pytest.raises(DegenerateSetError):
            truncated_simplex([0.0, 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_epsilon(self, bad):
        with pytest.raises(DegenerateSetError):
            truncated_simplex([bad, 0.05])

    def test_sums_do_not_depend_on_the_builtin_sum(self, monkeypatch):
        # from Python 3.12 on, builtin sum compensates float sums as fsum
        # does; the epsilons are summed left to right on every interpreter,
        # the order of the running sum the recursion uses
        monkeypatch.setattr(lotteries, "sum", math.fsum, raising=False)
        K = truncated_simplex([0.085, 0.1859, 0.29619050110887085])
        assert K.lotteries[2].probs[2] == 0.7291


class TestComputeConditions:
    def test_single_symmetric(self):
        rep = compute_conditions(finite_set([[0.5, 0.5]]))
        assert rep.eta == 0.5 and rep.nu == 0.5
        assert rep.eta_ok and rep.nu_ok

    def test_two_mirrored(self):
        rep = compute_conditions(finite_set([[0.9, 0.1], [0.1, 0.9]]))
        assert rep.eta == 0.9 and rep.nu == 0.9

    def test_pure_move_flags_eta(self):
        rep = compute_conditions(finite_set([[1.0, 0.0]]))
        assert rep.eta == 1.0 and not rep.eta_ok
        assert rep.nu == 0.0 and not rep.nu_ok

    def test_truncated_simplex_closed_form(self):
        eps = (0.05, 0.1, 0.2)
        rep = compute_conditions(truncated_simplex(eps))
        total = sum(eps)
        assert rep.eta == pytest.approx(1.0 - min(total - e for e in eps), abs=1e-15)

    def test_vertices_dominate_grid_samples(self):
        # eta/nu are coordinate-wise linear, so interior grid points of the
        # truncated simplex can never beat the vertex values
        eps = (0.1, 0.1)
        rep = compute_conditions(truncated_simplex(eps))
        for t in np.linspace(0.0, 1.0, 101):
            p1 = 0.1 + 0.8 * t
            point = (p1, 1.0 - p1)
            assert max(point) <= rep.eta + 1e-12
        assert rep.nu >= 0.1 - 1e-12
