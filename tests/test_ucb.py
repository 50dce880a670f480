import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaybandit import (
    Discount,
    make_instance,
    materialize_instance,
    preset_fig2,
    run_pi_low,
    run_ucb_rankings,
    ucb_index,
)
from delaybandit.core import Environment, substream
from helpers import (assert_same_columns, fig3_instance, log_blocks_by_block,
                     random_exact_instance, random_float_instance, ucb_reference)


class TestUcbIndex:
    def test_reference_value(self):
        # at n = e^2 selections the bonus for a once-played policy is exactly 2
        assert ucb_index(0.5, 1, math.e**2) == pytest.approx(2.5, abs=1e-12)
        assert ucb_index(0.5, 1, 100) == 0.5 + math.sqrt(2 * math.log(100))

    def test_unplayed_is_infinite(self):
        assert ucb_index(0.0, 0, 10) == math.inf

    def test_bonus_vanishes(self):
        n = 10**9
        assert ucb_index(0.0, n, n) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            ucb_index(0.5, 1, 0)


class TestRunUcb:
    def test_single_policy(self):
        inst = make_instance([F(3, 4)], [1], Discount.constant(F(1, 2)))
        run = run_ucb_rankings(inst, 400, seed=0)
        assert len(run.trace) == 400
        assert run.total_switches == 0
        assert run.selections == 200

    def test_rollout_pair_structure(self):
        # every selection is 2m pulls of the cutoff cycle; only a truncated
        # final pair may break the pattern
        inst = fig3_instance()
        run = run_ucb_rankings(inst, 1001, seed=1)
        pol = run.trace.policy
        t = 0
        while t < len(pol):
            m = int(pol[t])
            block = min(2 * m, len(pol) - t)
            assert (pol[t:t + block] == m).all()
            expect_arms = np.array([i % m for i in range(block)])
            assert np.array_equal(run.trace.arms[t:t + block], expect_arms)
            t += block

    def test_estimates_use_only_second_rollouts(self):
        # retained pulls sit on the steady cycle: gap equals the cutoff
        inst = fig3_instance()
        run = run_ucb_rankings(inst, 2000, seed=2)
        tr = run.trace
        mask = tr.retained
        assert mask.sum() > 0
        assert np.array_equal(tr.gaps[mask], tr.policy[mask])

    def test_zero_variance_log_selection_bound(self):
        # deterministic per-pull payoffs: g = (0, 1/2); the suboptimal policy
        # is selected only O(log n) times (classical UCB1 count, slack 2x)
        inst = make_instance([1, 0], [1, 1], Discount.constant(1), relaxed=True)
        run = run_ucb_rankings(inst, 10**4, seed=3)
        n1 = run.selection_counts[1]
        gap = 0.5
        bound = 2 * (8 * math.log(run.selections) / gap**2) + 8
        assert 1 <= n1 <= bound
        assert run.means[1] == 0.0
        assert run.means[2] == 0.5

    def test_switches_exceed_low_switch_learner_on_tied_instance(self):
        inst = fig3_instance()
        ucb = run_ucb_rankings(inst, 50_000, seed=4)
        low = run_pi_low(inst, 50_000, 0.1, seed=4)
        assert ucb.total_switches > low.total_switches

    def test_deterministic(self):
        inst = fig3_instance()
        a = run_ucb_rankings(inst, 3000, seed=5)
        b = run_ucb_rankings(inst, 3000, seed=5)
        assert np.array_equal(a.trace.realized, b.trace.realized)
        assert a.selection_counts == b.selection_counts

    def test_warm_up_plays_every_cutoff_once_in_order(self):
        # unplayed cutoffs all index +inf; the strict tie rule takes the lowest first
        inst = materialize_instance(preset_fig2().instance, 2)
        run = run_ucb_rankings(inst, 1000, seed=6)
        starts = [c * (c - 1) for c in range(1, inst.k + 1)]   # selection c follows 2(1 + ... + c-1) pulls
        assert [int(run.trace.policy[t]) for t in starts] == list(range(1, inst.k + 1))


def assert_run_equals_reference(inst, T, seed):
    # selections, counts, means and all seven log columns, bit for bit
    run = run_ucb_rankings(inst, T, seed=seed)
    n, counts, means, env = ucb_reference(inst, T, seed)
    assert (run.selections, run.selection_counts, run.means) == (n, counts, means)
    cols = env.columns()
    assert_same_columns({name: getattr(run.trace, name) for name in cols}, cols)


class TestMatchesPerSelectionReference:
    @pytest.mark.parametrize("draw", [0, 1, 2, 3, 4, "fig3"])
    def test_preset_instances(self, draw):
        fig2 = preset_fig2().instance
        inst = fig3_instance() if draw == "fig3" else materialize_instance(fig2, draw)
        k = inst.k
        for T in (0, 1, 2 * k - 1, 2 * k, 401, 1001, 20000):
            assert_run_equals_reference(inst, T, seed=7)

    def test_single_arm(self):
        inst = make_instance([F(3, 4)], [1], Discount.constant(F(1, 2)))
        for T in (0, 1, 2, 3, 401):
            assert_run_equals_reference(inst, T, seed=0)

    @pytest.mark.parametrize("k", [30, 100])
    @pytest.mark.parametrize("d", [3, 50])
    def test_many_arms(self, k, d):
        for T in (0, 2 * k - 1, 2 * k, 20000):
            assert_run_equals_reference(many_arms(k, d), T, seed=8)

    def test_fig2_benchmark_horizon(self):
        # 443 of its 18,340 scored picks fall back to a full scan and rebuild the index bounds
        assert_run_equals_reference(materialize_instance(preset_fig2().instance, 0), 200_000, seed=0)

    @pytest.mark.parametrize("T", [1000, 50_000])
    def test_all_indices_tied(self, T):
        # every payoff is 1 at every delay: equal counts mean equal indices, so the lowest
        # cutoff wins each tie, near scan or full, and the counts stay level
        inst = make_instance([1, 1, 1, 1], [1, 1, 1, 1], Discount.constant(0), relaxed=True)
        assert_run_equals_reference(inst, T, seed=0)
        assert run_ucb_rankings(inst, T, seed=0).selection_counts == dict.fromkeys(range(1, 5), T // 20)


def test_chunked_log_equals_block_by_block():
    # the picks are logged as they are decided, by one `log_blocks` call over the run: the
    # blocks, prefix ids and clock equal logging the reference's 16,757 picks one at a time
    inst, T = fig3_instance(), 50_000
    run = run_ucb_rankings(inst, T, seed=7)
    ref = ucb_reference(inst, T, 7)[3]
    picks = np.frombuffer(ref._blocks, np.int64).reshape(-1, 4)[:, [0, 2]].tolist()
    assert run.selections == len(picks) == 16_757
    env = Environment(inst, substream(7, "ucb"), capacity=T)
    log_blocks_by_block(env, [(tuple(range(m)), pulls, m, m) for pulls, m in picks])
    assert (run.env._blocks, run.env._cycle_ids, run.env.t) == (env._blocks, env._cycle_ids, T)


def many_arms(k, d):
    """k arms with baselines 1 - i/(k+1), all of delay d, geometric discount 0.9."""
    return make_instance([1 - i / (k + 1) for i in range(k)], [d] * k, Discount.geometric(0.9))


def test_many_arms_memory_stays_near_the_log():
    # a pick reads its own uniforms, so memory is the uniforms, the log and its columns,
    # with no k x T table of hits
    tracemalloc.start()
    try:
        run_ucb_rankings(many_arms(100, 3), 200_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@settings(max_examples=60, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), exact=st.booleans(),
       T=st.integers(0, 500), seed=st.integers(0, 2**32 - 1))
def test_run_equals_per_selection_reference(instance_seed, exact, T, seed):
    rng = np.random.default_rng(instance_seed)
    draw = random_exact_instance if exact else random_float_instance
    assert_run_equals_reference(draw(rng, kmax=6, dmax=8), T, seed)


@settings(max_examples=15, deadline=None)
@given(instance_seed=st.integers(0, 2**32 - 1), exact=st.booleans(),
       T=st.integers(1_000, 20_000), seed=st.integers(0, 2**32 - 1))
def test_long_run_equals_per_selection_reference(instance_seed, exact, T, seed):
    # long enough for the index bounds to run out and be rebuilt many times
    rng = np.random.default_rng(instance_seed)
    draw = random_exact_instance if exact else random_float_instance
    assert_run_equals_reference(draw(rng, kmax=6, dmax=8), T, seed)


def test_non_integer_horizon_is_rejected():
    with pytest.raises(ValueError, match="horizon T must be an integer, got 11.5"):
        run_ucb_rankings(fig3_instance(), 11.5)
    assert len(run_ucb_rankings(fig3_instance(), 0).trace) == 0
