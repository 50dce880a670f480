import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from delaybandit import (
    BanditInstance,
    Discount,
    Environment,
    advance_state,
    expected_payoff,
    initial_state,
    make_instance,
    substream,
)
from helpers import (assert_same_columns, delay_vector, log_blocks_by_block,
                     random_exact_instance, random_float_instance, step_columns)


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
            make_instance([1.5], [1], Discount.constant(0.5))
        with pytest.raises(ValueError):
            make_instance([0.5], [0], Discount.constant(0.5))
        with pytest.raises(ValueError):
            make_instance([0.5], [1.5], Discount.constant(0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BanditInstance([], [], Discount.constant(0.5))


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
            for i, (mu, d) in enumerate(zip(inst.mus, inst.ds)):
                assert expected_payoff(inst, i, 0) == mu
                assert expected_payoff(inst, i, d + 1) == mu
                assert expected_payoff(inst, i, d + 5) == mu

    def test_nondecreasing_in_tau(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            inst = random_exact_instance(rng)
            for i, d in enumerate(inst.ds):
                vals = [expected_payoff(inst, i, tau) for tau in range(1, d + 2)]
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
            for d in inst.ds:
                bound *= d + 1
            state = initial_state(inst)
            seen = {state}
            for rounds in range(bound + 1):
                for a in pattern:
                    state = advance_state(state, a, inst)
                    for tau, d in zip(state, inst.ds):
                        assert 0 <= tau <= d
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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            substream(seed, "env")


class TestEnvironment:
    def test_state_matches_pure_dynamics(self):
        # every pull against the delay-vector model: tau and the delay vector from
        # advance_state, gap, expected and realized from the per-pull reference log; the
        # two long runs cross the environment's uniform-chunk boundary
        rng = np.random.default_rng(5)
        runs = [(random_exact_instance(rng), 60) for _ in range(10)]
        runs += [(random_exact_instance(rng), 10_000), (random_float_instance(rng), 10_000)]
        for seed, (inst, n) in enumerate(runs):
            env = Environment(inst, substream(seed, "dyn"))
            u = substream(seed, "dyn").random(n)
            states, arms = [initial_state(inst)], []
            for t in range(n):
                arms.append(int(rng.integers(0, inst.k)))
                p = float(expected_payoff(inst, arms[t], states[t][arms[t]]))
                assert env.pull_cycles((arms[t],), 1) == (float(u[t] < p), 1)
                states.append(advance_state(states[t], arms[t], inst))
            got = env.columns()
            assert_same_columns(got, step_columns(inst, [((a,), 1, -1, 0) for a in arms], u))
            assert got["taus"].tolist() == [s[a] for s, a in zip(states, arms)]
            for t, state in enumerate(states):
                assert delay_vector(inst, got["arms"], t) == state

    def test_block_equals_stepwise(self):
        # same stream, same pull sequence: the block and the per-pull log agree bit for bit
        inst = make_instance([0.9, 0.6, 0.3], [2, 3, 1], Discount.geometric(0.7))
        env = Environment(inst, substream(3, "env"))
        prefix = (0, 1, 2)
        n = 443  # force the vectorized path
        env.pull_cycles(prefix, n, policy=3, retain_from=3)
        got = env.columns()
        want = step_columns(inst, [(prefix, n, 3, 3)], substream(3, "env").random(n))
        assert_same_columns(got, want)
        assert delay_vector(inst, got["arms"], n) == delay_vector(inst, want["arms"], n)

    def test_logged_blocks_equal_pulled_blocks(self):
        # repeated prefixes, a repeated arm, an empty block, a vector-sized block, a clipped
        # retain_from and a last block shorter than its prefix
        inst = make_instance([0.9, 0.6, 0.3, 0.2], [2, 3, 1, 4], Discount.geometric(0.7))
        blocks = [((0, 1), 4, 2, 2), ((2,), 1, 1, 0), ((0, 1), 3, 2, 9), ((3, 3, 1), 0, 3, 0),
                  ((3, 3, 1), 200, 3, 5), ((0, 1, 2, 3), 8, 4, 4), ((0, 1), 4, 2, 2),
                  ((0, 1, 2, 3), 3, 4, 4)]
        pulled, logged = (Environment(inst, substream(2, "log"), capacity=16) for _ in range(2))
        for block in blocks:
            pulled.pull_cycles(*block)
        logged.log_blocks(blocks)
        assert_same_columns(logged.columns(), pulled.columns())
        assert logged.t == pulled.t == 223
        assert logged._last_pulls() == pulled._last_pulls() == [220, 221, 222, 215]
        assert logged.pull_cycles((3, 2, 1, 0), 5) == pulled.pull_cycles((3, 2, 1, 0), 5)

    @pytest.mark.parametrize("prefix", [(), (0, 2), (-1,)])
    def test_bulk_logging_stops_at_a_bad_prefix_as_pulling_does(self, prefix):
        # the block before the bad one is logged, the bad one is not
        inst = make_instance([0.9, 0.6], [1, 1], Discount.constant(0.5))
        env = Environment(inst, substream(0, "bad"))
        with pytest.raises((ValueError, IndexError)):
            env.log_blocks([((0,), 2, -1, 0), (prefix, 3, -1, 0)])
        assert env.t == 2 and env.columns()["arms"].tolist() == [0, 0]
        assert env._last_pulls() == [1, None]

    def test_bulk_logging_stops_where_its_iterable_raises(self):
        # blocks are consumed lazily (UCB's run is a generator): an error inside the
        # iterable propagates, and the blocks it yielded before stay logged
        def blocks():
            yield (0,), 2, -1, 0
            raise RuntimeError("decided no further")

        inst = make_instance([0.9, 0.6], [1, 1], Discount.constant(0.5))
        env = Environment(inst, substream(0, "bad"))
        with pytest.raises(RuntimeError, match="decided no further"):
            env.log_blocks(blocks())
        assert env.t == 2 and env.columns()["arms"].tolist() == [0, 0]
        assert env._last_pulls() == [1, None]

    @pytest.mark.parametrize("repeat", [1, 2, 1000])
    def test_repeated_blocks_log_as_the_repeated_list(self, repeat):
        # a block shorter than its prefix, an empty block, a clipped retain_from; arm 3 was
        # pulled before the list and arm 4 never, and the list pulls neither
        inst = make_instance([0.9, 0.7, 0.5, 0.3, 0.1], [2, 3, 1, 4, 2], Discount.geometric(0.7))
        blocks = [((0, 1, 2), 2, 1, 0), ((2,), 0, 2, 0), ((1, 2, 0), 5, 3, 9), ((0,), 1, -1, 0)]
        once, listed = (Environment(inst, substream(5, "rep"), capacity=16) for _ in range(2))
        for env in (once, listed):
            env.pull_cycles((3,), 1)
        once.log_blocks(blocks, repeat=repeat)
        listed.log_blocks(blocks * repeat)
        assert once._blocks == listed._blocks and once._cycle_ids == listed._cycle_ids
        assert once.t == listed.t == 1 + 8 * repeat
        assert once._last_pulls() == listed._last_pulls() and once._last_pulls()[3:] == [0, None]
        assert_same_columns(once.columns(), listed.columns())

    @pytest.mark.parametrize("prefix", [(), (0, 2), (-1,)])
    @pytest.mark.parametrize("first", [True, False])
    def test_repeated_logging_stops_at_a_bad_prefix_in_the_first_copy(self, prefix, first):
        # a bad first block logs nothing; a bad second block leaves only the first copy of
        # the block before it, as the repeated list does
        inst = make_instance([0.9, 0.6], [1, 1], Discount.constant(0.5))
        blocks = [(prefix, 3, -1, 0), ((0,), 2, -1, 0)] if first else \
            [((0,), 2, -1, 0), (prefix, 3, -1, 0)]
        once, listed = (Environment(inst, substream(0, "bad")) for _ in range(2))
        with pytest.raises((ValueError, IndexError)):
            once.log_blocks(blocks, repeat=1000)
        with pytest.raises((ValueError, IndexError)):
            listed.log_blocks(blocks * 1000)
        assert (once.t, once._last_pulls()) == (listed.t, listed._last_pulls()) == \
            ((0, [None, None]) if first else (2, [1, None]))
        assert once._blocks == listed._blocks and once._cycle_ids == listed._cycle_ids

    def test_pulled_pairs_retain_the_hits_at_gap_m(self):
        # the second of a pair of distinct-arm cycles retains the pulls whose uniform falls
        # below the payoff at gap m, whatever was pulled before the pair: the count UCB reads
        inst = make_instance([0.9, 0.6, 0.3], [2, 3, 1], Discount.table([0.5, 0.25]))
        n = 60
        u = substream(4, "hits").random(n)
        rng = np.random.default_rng(1)
        for prefix in [(0,), (0, 1), (0, 1, 2), (2, 0, 1)]:
            m = len(prefix)
            pay = [float(expected_payoff(inst, a, m)) for a in prefix]
            for t in range(n - 2 * m + 1):
                env = Environment(inst, substream(4, "hits"), capacity=n)
                env.log_blocks([((int(a),), 1, -1, 0) for a in rng.integers(0, 3, size=t)])
                hits = sum(u[t + m + j] < pay[j] for j in range(m))
                assert env.pull_cycles(prefix, 2 * m, retain_from=m) == (float(hits), m)

    def test_gap_recording(self):
        inst = make_instance([0.9, 0.6], [1, 1], Discount.constant(0.5))
        env = Environment(inst, substream(0, "gaps"))
        for arm in (0, 1, 0):
            env.pull_cycles((arm,), 1)
        got = env.columns()
        blocks = [((arm,), 1, -1, 0) for arm in (0, 1, 0)]
        assert_same_columns(got, step_columns(inst, blocks, substream(0, "gaps").random(3)))
        assert got["gaps"].tolist() == [-1, -1, 2]
        assert got["taus"][2] == 0 and got["expected"][2] == 0.9  # wrapped past d = 1

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

    @pytest.mark.parametrize("n, retain_from", [(2.7, 0), (2, 0.9), (2, 2.5), (2, -0.5),
                                                (-0.5, 0), (0, 0.5), (np.float64(2), 0),
                                                (2, F(1))])
    def test_fractional_sizes_raise_before_logging(self, n, retain_from):
        # 2.7 pulls retained from 0.9 is an error, not 2 pulls retained from 0; the blocks
        # logged before the bad one stay, as with a bad prefix
        inst = make_instance([0.9, 0.6], [1, 1], Discount.constant(0.5))
        pulled, logged = (Environment(inst, substream(0, "frac")) for _ in range(2))
        with pytest.raises(TypeError):
            pulled.pull_cycles((0, 1), n, retain_from=retain_from)
        with pytest.raises(TypeError):
            logged.log_blocks([((1,), 3, -1, 1), ((0, 1), n, 2, retain_from), ((0,), 2, 3, 0)])
        assert (pulled.t, len(pulled._blocks)) == (0, 0)
        assert (logged.t, logged._blocks.tolist()) == (3, [3, 0, -1, 1])

    def test_numpy_integer_sizes_are_accepted(self):
        inst = make_instance([0.9, 0.6], [1, 1], Discount.constant(0.5))
        ints, nps = (Environment(inst, substream(0, "np")) for _ in range(2))
        assert ints.pull_cycles((0, 1), 5, retain_from=1) == \
            nps.pull_cycles((0, 1), np.int64(5), retain_from=np.int32(1))
        ints.log_blocks([((1,), 3, -1, 9)], repeat=2)
        nps.log_blocks([((1,), np.int16(3), np.int8(-1), np.uint64(9))], repeat=2)
        assert ints._blocks == nps._blocks and type(nps.t) is int and nps.t == ints.t == 11

    def test_thousands_of_logged_blocks_equal_pulled_and_referenced_blocks(self):
        # 6,000 blocks from a capacity of 16: UCB-like pairs, truncated pairs, single pulls,
        # empty blocks and clipped retain_from, logged in one call, pulled one by one and
        # logged by the block-by-block reference
        inst = make_instance([0.9, 0.7, 0.5, 0.3, 0.1], [2, 3, 1, 4, 2], Discount.geometric(0.7))
        rng = np.random.default_rng(7)
        blocks = []
        for m, kind, rf in zip(rng.integers(1, 6, 6000).tolist(), rng.integers(0, 8, 6000).tolist(),
                               rng.integers(-2, 12, 6000).tolist()):
            prefix = tuple(range(m)) if kind else (m - 1,)
            n = (2 * m, m + 1, 1, 0, 3 * m + 70)[kind % 5]
            blocks.append((prefix, n, m, m if kind < 4 else rf))
        logged, pulled, ref = (Environment(inst, substream(8, "many"), capacity=16)
                               for _ in range(3))
        logged.log_blocks(blocks)
        for block in blocks:
            pulled.pull_cycles(*block)
        log_blocks_by_block(ref, blocks)
        for env in (pulled, ref):
            assert logged._blocks == env._blocks and logged._cycle_ids == env._cycle_ids
            assert (logged.t, len(logged._u)) == (env.t, len(env._u))
        assert len(logged._blocks) // 4 > 5000
        assert_same_columns(logged.columns(), pulled.columns())

    def test_long_block_with_repeated_arms_equals_stepwise(self):
        # tiled past the first cycle with per-position gaps (2, 1, 3)
        inst = make_instance([0.9, 0.6, 0.3], [2, 3, 1], Discount.geometric(0.7))
        env = Environment(inst, substream(3, "env"))
        prefix = (0, 0, 1)
        got = env.pull_cycles(prefix, 200, retain_from=70)
        want = step_columns(inst, [(prefix, 200, -1, 70)], substream(3, "env").random(200))
        assert got == (float(want["realized"][70:].sum()), 130)
        cols = env.columns()
        assert_same_columns(cols, want)
        assert list(cols["gaps"][3:6]) == [2, 1, 3]
        assert delay_vector(inst, cols["arms"], 200) == delay_vector(inst, want["arms"], 200)

    @pytest.mark.parametrize("n, retain_from", [(180, 0), (199, 150), (165, 40)])
    def test_long_block_under_two_cycles_equals_stepwise(self, n, retain_from):
        # m = 100 > 64 with repeats and m + 64 < n < 2m: the second cycle's payoff loop
        # runs past the block's end, and the block after it reads every arm's last pull
        inst = make_instance([0.9, 0.7, 0.5, 0.3, 0.1], [3, 5, 2, 7, 4], Discount.geometric(0.6))
        prefix = tuple(int(a) for a in np.random.default_rng(8).integers(0, 5, size=100))
        env = Environment(inst, substream(4, "env"))
        got = env.pull_cycles(prefix, n, policy=2, retain_from=retain_from)
        after = env.pull_cycles(range(5), 5)
        want = step_columns(inst, [(prefix, n, 2, retain_from), (range(5), 5, -1, 0)],
                            substream(4, "env").random(n + 5))
        assert got == (float(want["realized"][retain_from:n].sum()), n - retain_from)
        assert after == (float(want["realized"][n:].sum()), 5)
        cols = env.columns()
        assert_same_columns(cols, want)
        assert delay_vector(inst, cols["arms"], n + 5) == delay_vector(inst, want["arms"], n + 5)

    def test_short_block_with_repeated_arms_equals_stepwise(self):
        inst = make_instance([0.9, 0.6, 0.3], [2, 3, 1], Discount.geometric(0.7))
        env = Environment(inst, substream(3, "env"))
        prefix = (0, 0, 1)
        env.pull_cycles(prefix, 60, retain_from=5)
        want = step_columns(inst, [(prefix, 60, -1, 5)], substream(3, "env").random(60))
        assert_same_columns(env.columns(), want)

    def test_construction_cost_does_not_grow_with_delay(self):
        # the payoff cache holds only the (arm, tau) pairs pulls have read, so a new
        # environment holds none
        inst = make_instance([0.9], [10**6], Discount.geometric(0.999))
        rng = substream(0, "env")
        tracemalloc.start()
        try:
            Environment(inst, rng, capacity=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_windows_gather_from_the_one_payoff_row(self):
        # arm 0's tau reaches 2^17 + 1: windows() reads its three taus from the payoff cache
        # through a lookup up to that tau (8 B a tau, about 1 MiB, freed with the window), so
        # its payoff memory is a window's worth; a list row beside a numpy copy peaked at
        # 6.6 MiB
        inst = make_instance([0.9, 0.5], [10**6, 1], Discount.geometric(0.999))
        env = Environment(inst, substream(0, "env"), capacity=2**18)
        env.log_blocks([((0,), 1, -1, 0), ((1,), 2**17, -1, 0), ((0,), 1, -1, 0)])
        tracemalloc.start()
        try:
            for _ in env.windows():
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_payoff_rows_cost_what_the_pulls_reach(self, monkeypatch):
        # a payoff is computed once per (arm, tau) pair the pulls read, however far the buffer
        # and the delay reach: back-to-back pulls of one arm read tau 0 and 1 only, and a
        # gap of 10^5 + 1 under a delay of 10^6 reads arm 0 at taus 0 and 100001 and arm 1 at
        # 0 and 1, four pairs, not every tau up to 100001
        exact = make_instance([F(7, 10)], [5000], Discount.geometric(F(999, 1000)))
        wide = make_instance([0.9, 0.5], [10**6, 1], Discount.geometric(0.999))
        for inst, blocks, most in (
                (exact, [((0,), 5000, -1, 0)], 2),
                (wide, [((0,), 1, -1, 0), ((1,), 10**5, -1, 0), ((0,), 1, -1, 0)], 4)):
            computed = []

            def counted(instance, arm, tau):
                computed.append((arm, tau))
                return expected_payoff(instance, arm, tau)

            monkeypatch.setattr("delaybandit.core.expected_payoff", counted)
            env = Environment(inst, substream(6, "env"))
            for block in blocks:
                env.pull_cycles(*block)
            got = env.columns()
            assert len(computed) <= most
            monkeypatch.undo()
            assert_same_columns(got, step_columns(inst, blocks,
                                                  substream(6, "env").random(env.t)))

    def test_large_delay_past_the_start_buffer_equals_stepwise(self):
        # tau reaches 301, past the 16-slot start buffer. In the second input pull_cycles and
        # windows() take turns adding arm 0's taus to the payoff cache: windows() is drained
        # after every block and a block that retains nothing reads no payoff, so arm 0's taus
        # 31 and 301 are first read by pull_cycles, 101 and 601 by windows()
        inst = make_instance([0.9, 0.6], [10**6, 10**6], Discount.geometric(0.999))
        turns = [((0,), 1, -1, 0)]
        for n, retain_from in zip((30, 100, 300, 600), (0, 1, 0, 1)):
            turns += [((1,), n, -1, 0), ((0,), 1, -1, retain_from)]
        for blocks, drain in (([((0,), 1, -1, 0), ((1,), 300, -1, 0), ((0, 1), 40, -1, 0)], False),
                              (turns, True)):
            env = Environment(inst, substream(5, "env"), capacity=16)
            cached = []     # arm 0's cached taus after each of its blocks
            for block in blocks:
                env.pull_cycles(*block)
                if drain:
                    for _ in env.windows():
                        pass
                    if block[0] == (0,):
                        cached.append(sorted(env._pay[0]))
            got = env.columns()
            assert got["taus"].max() == (601 if drain else 301)
            assert cached == ([[0], [0, 31], [0, 31, 101], [0, 31, 101, 301],
                               [0, 31, 101, 301, 601]] if drain else [])
            assert_same_columns(got, step_columns(inst, blocks,
                                                  substream(5, "env").random(env.t)))
