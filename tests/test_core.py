import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from delaybandit import (
    Arm,
    BanditInstance,
    Discount,
    Environment,
    advance_state,
    expected_payoff,
    initial_state,
    make_instance,
    sample_reward,
    segment_sum,
    substream,
)
from helpers import random_exact_instance, random_float_instance, step_columns


def fig3_instance():
    return make_instance([F(1), F(13, 15)], [2, 2], Discount.table([F(3, 10), F(1, 4)]))


class TestDiscount:
    def test_table_must_be_nonincreasing(self):
        with pytest.raises(ValueError):
            Discount.table([0.3, 0.4])

    def test_table_extends_with_last_value(self):
        f = Discount.table([0.5, 0.2])
        assert f(1) == 0.5
        assert f(2) == 0.2
        assert f(7) == 0.2

    def test_bounds(self):
        with pytest.raises(ValueError):
            Discount.geometric(1.0)
        with pytest.raises(ValueError):
            Discount.geometric(0.0)
        with pytest.raises(ValueError):
            Discount.constant(1.5)
        with pytest.raises(ValueError):
            Discount.table([1.2])
        with pytest.raises(ValueError):
            Discount.table([])

    def test_not_defined_below_one(self):
        with pytest.raises(ValueError):
            Discount.constant(0.5)(0)

    def test_geometric_is_lazy_power(self):
        f = Discount.geometric(F(1, 2))
        assert f(3) == F(1, 8)


class TestInstanceValidation:
    def test_ties_rejected(self):
        with pytest.raises(ValueError):
            make_instance([0.5, 0.5], [1, 1], Discount.constant(0.1))

    def test_relaxed_allows_ties_and_zero(self):
        inst = make_instance([1, 1, 0], [1, 2, 1], Discount.constant(1), relaxed=True)
        assert inst.k == 3

    def test_increasing_rejected(self):
        with pytest.raises(ValueError):
            make_instance([0.2, 0.5], [1, 1], Discount.constant(0.1))

    def test_arm_bounds(self):
        with pytest.raises(ValueError):
            Arm(1.5, 1)
        with pytest.raises(ValueError):
            Arm(0.5, 0)
        with pytest.raises(ValueError):
            Arm(0.5, 1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BanditInstance([], Discount.constant(0.5))


class TestExpectedPayoff:
    def test_first_pull_pays_baseline(self):
        inst = make_instance([0.9], [5], Discount.constant(0.8))
        assert expected_payoff(inst, 0, 0) == 0.9

    def test_beyond_delay_pays_baseline(self):
        inst = make_instance([0.9], [3], Discount.constant(0.8))
        assert expected_payoff(inst, 0, 4) == 0.9

    def test_half_discount_within_window(self):
        inst = make_instance([F(1)], [1], Discount.constant(F(1, 2)))
        assert expected_payoff(inst, 0, 1) == F(1, 2)

    def test_geometric_evaluation(self):
        inst = make_instance([1.0], [3], Discount.geometric(0.999))
        assert expected_payoff(inst, 0, 2) == pytest.approx(1 - 0.999**2, abs=1e-15)

    def test_out_of_range_arm(self):
        inst = make_instance([0.9], [1], Discount.constant(0.5))
        with pytest.raises(IndexError):
            expected_payoff(inst, 1, 0)
        with pytest.raises(ValueError):
            expected_payoff(inst, 0, -1)

    def test_baseline_at_zero_and_past_delay_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            inst = random_exact_instance(rng)
            for i, arm in enumerate(inst.arms):
                assert expected_payoff(inst, i, 0) == arm.mu
                assert expected_payoff(inst, i, arm.d + 1) == arm.mu
                assert expected_payoff(inst, i, arm.d + 5) == arm.mu

    def test_nondecreasing_in_tau(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            inst = random_exact_instance(rng)
            for i, arm in enumerate(inst.arms):
                vals = [expected_payoff(inst, i, tau) for tau in range(1, arm.d + 2)]
                assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestAdvanceState:
    def test_first_pull(self):
        inst = make_instance([0.9, 0.4], [1, 1], Discount.constant(0.5))
        assert advance_state((0, 0), 0, inst) == (1, 0)

    def test_pulled_arm_resets_to_one(self):
        inst = make_instance([0.9, 0.4], [1, 1], Discount.constant(0.5))
        assert advance_state((1, 0), 0, inst) == (1, 0)

    def test_wrap_past_delay(self):
        inst = make_instance([0.9, 0.4], [2, 3], Discount.constant(0.5))
        assert advance_state((2, 1), 1, inst) == (0, 1)

    def test_range_and_periodicity(self):
        # iterating a fixed pattern must reach a periodic state orbit
        rng = np.random.default_rng(3)
        for _ in range(20):
            inst = random_exact_instance(rng)
            pattern = [int(rng.integers(0, inst.k)) for _ in range(int(rng.integers(1, 4)))]
            bound = 1
            for arm in inst.arms:
                bound *= arm.d + 1
            state = initial_state(inst)
            seen = {state}
            for rounds in range(bound + 1):
                for a in pattern:
                    state = advance_state(state, a, inst)
                    for tau, arm in zip(state, inst.arms):
                        assert 0 <= tau <= arm.d
                if state in seen:
                    break
                seen.add(state)
            else:
                pytest.fail("no periodic orbit within the state-count bound")

    def test_invalid_inputs(self):
        inst = make_instance([0.9], [1], Discount.constant(0.5))
        with pytest.raises(IndexError):
            advance_state((0,), 2, inst)
        with pytest.raises(ValueError):
            advance_state((0, 0), 0, inst)
        with pytest.raises(ValueError):
            advance_state((5,), 0, inst)


class TestSampleReward:
    def test_degenerate_means(self):
        rng = substream(0, "samples")
        inst = make_instance([1, 0], [1, 1], Discount.constant(1), relaxed=True)
        assert all(sample_reward(inst, 0, 0, rng) == 1 for _ in range(50))
        assert all(sample_reward(inst, 1, 0, rng) == 0 for _ in range(50))

    def test_monte_carlo_mean(self):
        rng = substream(1, "samples")
        inst = make_instance([0.7], [1], Discount.constant(0.5))
        n = 10**5
        total = sum(sample_reward(inst, 0, 0, rng) for _ in range(n))
        assert abs(total / n - 0.7) < 3 * math.sqrt(0.21 / n)


class TestSegmentSum:
    def test_single_arm(self):
        inst = fig3_instance()
        assert segment_sum(inst, 0, 1, 1) == expected_payoff(inst, 0, 1)

    def test_fig3_past_delay(self):
        inst = fig3_instance()
        assert segment_sum(inst, 0, 2, 3) == F(1) + F(13, 15)

    def test_full_discount_zeroes_everything(self):
        inst = make_instance([1, F(1, 2)], [2, 2], Discount.constant(1))
        assert segment_sum(inst, 0, 2, 1) == 0
        assert segment_sum(inst, 0, 2, 2) == 0

    def test_additivity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            inst = random_exact_instance(rng)
            k = inst.k
            d = int(rng.integers(0, 5))
            j = int(rng.integers(0, k))
            assert segment_sum(inst, 0, k, d) == (
                segment_sum(inst, 0, j, d) + segment_sum(inst, j, k, d)
            )

    def test_bad_range(self):
        inst = fig3_instance()
        with pytest.raises(ValueError):
            segment_sum(inst, 1, 0, 1)
        with pytest.raises(ValueError):
            segment_sum(inst, 0, 3, 1)


class TestSubstream:
    def test_deterministic(self):
        a = substream(7, "env").random(4)
        b = substream(7, "env").random(4)
        assert np.array_equal(a, b)

    def test_purposes_differ(self):
        a = substream(7, "env").random(4)
        b = substream(7, "delays").random(4)
        c = substream(8, "env").random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestEnvironment:
    def test_state_matches_pure_dynamics(self):
        # every pull against the delay-vector model: tau from advance_state, gap from the
        # last-pull times, expected from the payoff law, realized from the raw stream;
        # the two long runs cross the environment's uniform-chunk boundary
        rng = np.random.default_rng(5)
        runs = [(random_exact_instance(rng), 60) for _ in range(10)]
        runs += [(random_exact_instance(rng), 10_000), (random_float_instance(rng), 10_000)]
        for seed, (inst, n) in enumerate(runs):
            env = Environment(inst, substream(seed, "dyn"))
            u = substream(seed, "dyn").random(n)
            state = initial_state(inst)
            last = {}
            for t in range(n):
                assert env.delay_state() == state
                arm = int(rng.integers(0, inst.k))
                rs = env.pull(arm)
                p = float(expected_payoff(inst, arm, state[arm]))
                gap = t - last[arm] if arm in last else -1
                assert (rs.arm, rs.tau, rs.gap) == (arm, state[arm], gap)
                assert rs.expected == p and rs.realized == int(u[t] < p)
                last[arm] = t
                state = advance_state(state, arm, inst)

    def test_block_equals_stepwise(self):
        # same stream, same pull sequence: the two paths must agree bit for bit
        inst = make_instance([0.9, 0.6, 0.3], [2, 3, 1], Discount.geometric(0.7))
        e1 = Environment(inst, substream(3, "env"))
        e2 = Environment(inst, substream(3, "env"))
        prefix = (0, 1, 2)
        n = 443  # force the vectorized path on e1
        e1.pull_cycles(prefix, n, policy=3, retain_from=3)
        for t in range(n):
            e2.pull(prefix[t % 3], policy=3, retained=t >= 3)
        c1, c2 = e1.columns(), e2.columns()
        for key in c1:
            assert np.array_equal(c1[key], c2[key]), key
        assert e1.delay_state() == e2.delay_state()

    def test_gap_recording(self):
        inst = make_instance([0.9, 0.6], [1, 1], Discount.constant(0.5))
        env = Environment(inst, substream(0, "gaps"))
        assert env.pull(0).gap == -1
        assert env.pull(1).gap == -1
        rs = env.pull(0)
        assert rs.gap == 2 and rs.tau == 0  # wrapped past d = 1
        assert float(rs.expected) == 0.9

    def test_retained_accounting(self):
        inst = make_instance([1.0], [1], Discount.constant(0.0))
        env = Environment(inst, substream(0, "ret"))
        ret_sum, ret_n = env.pull_cycles((0,), 10, retain_from=4)
        assert (ret_sum, ret_n) == (6.0, 6)  # zero discount: every pull pays 1

    @pytest.mark.parametrize("prefix", [(), (0, 2), (-1,)])
    def test_bad_prefix_is_rejected_before_logging(self, prefix):
        inst = make_instance([0.9, 0.6], [1, 1], Discount.constant(0.5))
        env = Environment(inst, substream(0, "bad"))
        with pytest.raises((ValueError, IndexError)):
            env.pull_cycles(prefix, 3)
        assert env.t == 0 and len(env.columns()["arms"]) == 0

    def test_long_block_with_repeated_arms_equals_stepwise(self):
        # tiled past the first cycle with per-position gaps (2, 1, 3)
        inst = make_instance([0.9, 0.6, 0.3], [2, 3, 1], Discount.geometric(0.7))
        e1 = Environment(inst, substream(3, "env"))
        e2 = Environment(inst, substream(3, "env"))
        prefix = (0, 0, 1)
        got = e1.pull_cycles(prefix, 200, retain_from=70)
        samples = [e2.pull(prefix[t % 3], retained=t >= 70) for t in range(200)]
        assert got == (float(sum(s.realized for s in samples[70:])), 130)
        c1, c2 = e1.columns(), e2.columns()
        for key in c1:
            assert c1[key].dtype == c2[key].dtype and np.array_equal(c1[key], c2[key]), key
        assert list(c1["gaps"][3:6]) == [2, 1, 3]
        assert e1.delay_state() == e2.delay_state()

    @pytest.mark.parametrize("n, retain_from", [(180, 0), (199, 150), (165, 40)])
    def test_long_block_under_two_cycles_equals_stepwise(self, n, retain_from):
        # m = 100 > 64 with repeats and m + 64 < n < 2m: the second cycle's payoff loop
        # runs past the block's end, and the block after it reads every arm's last pull
        inst = make_instance([0.9, 0.7, 0.5, 0.3, 0.1], [3, 5, 2, 7, 4], Discount.geometric(0.6))
        prefix = tuple(int(a) for a in np.random.default_rng(8).integers(0, 5, size=100))
        e1 = Environment(inst, substream(4, "env"))
        e2 = Environment(inst, substream(4, "env"))
        got = e1.pull_cycles(prefix, n, policy=2, retain_from=retain_from)
        after = e1.pull_cycles(range(5), 5)
        samples = [e2.pull(prefix[t % 100], policy=2, retained=t >= retain_from) for t in range(n)]
        assert got == (float(sum(s.realized for s in samples[retain_from:])), n - retain_from)
        assert after == (float(sum(e2.pull(a).realized for a in range(5))), 5)
        c1, c2 = e1.columns(), e2.columns()
        for key in c1:
            assert c1[key].dtype == c2[key].dtype and np.array_equal(c1[key], c2[key]), key
        assert e1.delay_state() == e2.delay_state()

    def test_short_block_with_repeated_arms_equals_stepwise(self):
        inst = make_instance([0.9, 0.6, 0.3], [2, 3, 1], Discount.geometric(0.7))
        e1 = Environment(inst, substream(3, "env"))
        e2 = Environment(inst, substream(3, "env"))
        prefix = (0, 0, 1)
        e1.pull_cycles(prefix, 60, retain_from=5)
        for t in range(60):
            e2.pull(prefix[t % 3], retained=t >= 5)
        c1, c2 = e1.columns(), e2.columns()
        for key in c1:
            assert np.array_equal(c1[key], c2[key]), key

    def test_construction_cost_does_not_grow_with_delay(self):
        # the payoff table covers the taus the buffered pulls can reach, not all of 0..d
        inst = make_instance([0.9], [10**6], Discount.geometric(0.999))
        rng = substream(0, "env")
        tracemalloc.start()
        try:
            Environment(inst, rng, capacity=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_large_delay_past_the_start_buffer_equals_stepwise(self):
        # tau reaches 301, past the 16-slot start buffer, so the table grows with it
        inst = make_instance([0.9, 0.6], [10**6, 10**6], Discount.geometric(0.999))
        blocks = [((0,), 1, -1, 0), ((1,), 300, -1, 0), ((0, 1), 40, -1, 0)]
        env = Environment(inst, substream(5, "env"), capacity=16)
        for prefix, n, policy, retain_from in blocks:
            env.pull_cycles(prefix, n, policy, retain_from)
        got = env.columns()
        want = step_columns(inst, blocks, substream(5, "env").random(env.t))
        assert got["taus"].max() == 301
        for key in want:
            assert got[key].dtype == want[key].dtype and np.array_equal(got[key], want[key]), key
