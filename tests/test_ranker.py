import math
from fractions import Fraction as F

import numpy as np
import pytest

from delaybandit import (
    Discount,
    Environment,
    ExperimentConfig,
    calibrated_sample_round,
    calibrated_sampler,
    epsilon_r,
    iid_bernoulli_sampler,
    make_instance,
    materialize_instance,
    preset_fig2,
    rank_arms,
    stage_schedule,
    substream,
)
from delaybandit.ranker import _sampler, _slack_radii, baseline_pulls
from helpers import assert_same_columns, bernoulli_rounds, by_round, rank_arms_by_round


class TestEpsilon:
    def test_reference_values(self):
        assert epsilon_r(2, 1, 0.1) == pytest.approx(math.sqrt(0.5 * math.log(80)), abs=1e-12)
        assert epsilon_r(2, 1, 0.8) == pytest.approx(math.sqrt(0.5 * math.log(10)), abs=1e-12)

    def test_shrinks(self):
        assert epsilon_r(2, 2, 0.1) < epsilon_r(2, 1, 0.1)
        assert epsilon_r(5, 2, 0.3) < epsilon_r(5, 1, 0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            epsilon_r(1, 1, 0.1)
        with pytest.raises(ValueError):
            epsilon_r(2, 0, 0.1)
        with pytest.raises(ValueError):
            epsilon_r(2, 1, 0.0)

    @pytest.mark.parametrize("k", [2, 3, 7, 100])
    @pytest.mark.parametrize("delta", [1e-6, 0.1, 0.5, 0.99])
    def test_slack_radii_never_exceed_epsilon_r(self, k, delta):
        # numpy's log may lie an ulp above math.log, so the chunked search shrinks its radii;
        # after the log, epsilon_r's division and sqrt are correctly rounded in both, so the
        # math radius of every round is math.log over numpy's argument
        r = np.arange(1, 200_001, dtype=float)
        x = 2.0 * k * r * (r + 1) / delta
        exact = np.sqrt(np.array(list(map(math.log, x.tolist()))) / (2.0 * r))
        for i in range(0, len(r), 997):
            assert exact[i] == epsilon_r(k, i + 1, delta)
        assert (_slack_radii(k, r, delta) <= exact).all()


@pytest.mark.parametrize("delta", [0, 1, -0.5, float("nan")])
def test_every_entry_point_checks_delta_by_one_rule(delta):
    config = dict(instance=preset_fig2().instance, algorithms=("ucb",), horizon=100,
                  switch_cost=0.0, seeds=(0,))
    for call in (lambda: epsilon_r(2, 1, delta),
                 lambda: rank_arms(lambda active, rounds: None, 2, delta),
                 lambda: stage_schedule(2, 100, delta),
                 lambda: ExperimentConfig(delta=delta, **config)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"delta must lie in (0, 1), got {delta}"


class TestRankArms:
    def test_rejects_single_arm(self):
        with pytest.raises(ValueError):
            rank_arms(lambda a: ({}, 0), 1, 0.1)

    @pytest.mark.parametrize("k, delta, pull_cap", [(3, 0.0, 100), (3, 1.0, 100),
                                                     (3, float("nan"), 100), (3, 0.1, 0)])
    def test_bad_arguments_pull_nothing(self, k, delta, pull_cap):
        calls = []
        with pytest.raises(ValueError):
            rank_arms(lambda active, rounds: calls.append(active), k, delta, pull_cap)
        assert calls == []

    def test_zero_variance_two_arms(self):
        # deterministic means (1, 0): both arms separate at the first round
        # where the radius drops below half the gap
        r_expect = 1
        while epsilon_r(2, r_expect, 0.1) >= 0.5:
            r_expect += 1
        out = rank_arms(iid_bernoulli_sampler([1.0, 0.0], substream(0, "zv")), 2, 0.1)
        assert out.permutation == (0, 1)
        assert out.complete
        assert out.rounds == r_expect
        assert out.pulls == 2 * r_expect

    def test_zero_variance_recovers_any_order(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            k = int(rng.integers(2, 9))
            mus = rng.permutation(np.linspace(1.0, 0.0, k))
            out = rank_arms(iid_bernoulli_sampler(mus, substream(3, "zv2")), k, 0.1)
            assert out.complete
            assert list(out.permutation) == sorted(range(k), key=lambda a: -mus[a])

    def test_permutation_property(self):
        for seed in range(8):
            rng = substream(seed, "perm")
            out = rank_arms(iid_bernoulli_sampler([0.9, 0.55, 0.35, 0.1], rng), 4, 0.2)
            assert sorted(out.permutation) == [0, 1, 2, 3]
            assert out.pulls >= 4

    def test_bernoulli_accuracy(self):
        correct = 0
        for seed in range(20):
            rng = substream(seed, "acc")
            out = rank_arms(iid_bernoulli_sampler([0.9, 0.5, 0.1], rng), 3, 0.1)
            correct += out.permutation == (0, 1, 2)
        assert correct >= 16

    def test_elimination_soundness(self):
        # at removal, the arm's mean is separated by > 2 eps_r from every
        # other active arm, on the correct side; replay the sample stream
        log = []
        base = bernoulli_rounds([0.85, 0.55, 0.2], substream(7, "snd"))

        def sampler(active):
            samples, used = base(active)
            log.append(dict(samples))
            return samples, used

        out = rank_arms(by_round(sampler), 3, 0.1)
        sums = {a: 0.0 for a in range(3)}
        active = set(range(3))
        for r, samples in enumerate(log, start=1):
            for a, v in samples.items():
                sums[a] += v
            eps = epsilon_r(3, r, 0.1)
            means = {a: sums[a] / r for a in active}
            removed = [a for a in active if out.elimination_round[a] == r]
            for a in sorted(removed, key=lambda a: -means[a]):
                others = [means[b] for b in active if b != a]
                above = [v for v in others if v >= means[a]]
                below = [v for v in others if v <= means[a]]
                assert not above or min(above) > means[a] + 2 * eps
                assert not below or max(below) < means[a] - 2 * eps
                active.discard(a)

    def test_eliminated_arm_mean_covers_its_own_rounds(self):
        # arm 2 leaves at round 96 of 352 with 8 successes; its mean is 8/96, not 8/352
        log = []
        base = bernoulli_rounds([0.9, 0.6, 0.1], substream(1, "m"))

        def sampler(active):
            samples, used = base(active)
            log.append(samples)
            return samples, used

        out = rank_arms(by_round(sampler), 3, 0.1)
        assert (out.permutation, out.rounds, out.elimination_round[2]) == ((0, 1, 2), 352, 96)
        assert out.means[2] == 8 / 96
        for arm in range(3):
            kept = [samples[arm] for samples in log if arm in samples]
            assert out.means[arm] == sum(kept) / len(kept)

    def test_iid_mean_outside_the_unit_interval_raises_before_any_draw(self):
        rng = substream(0, "bad")
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            iid_bernoulli_sampler([1.5, 0.2], rng)
        assert rng.bit_generator.state == state

    def test_pull_cap_incomplete(self):
        out = rank_arms(iid_bernoulli_sampler([0.51, 0.49], substream(0, "cap")), 2, 0.1,
                        pull_cap=100)
        assert not out.complete
        assert sorted(out.permutation) == [0, 1]
        assert out.pulls >= 100


class TestCalibratedSampling:
    def make_env(self, seed=0, k=6):
        mus = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4][:k]
        ds = [1, 2, 1, 2, 1, 2][:k]
        inst = make_instance(mus, ds, Discount.constant(0.5))
        return Environment(inst, substream(seed, "cal"))

    def test_exact_group(self):
        env = self.make_env(k=3)
        samples, pulls = calibrated_sample_round(env, [0, 1, 2], 3)
        assert pulls == 2 * 3
        assert len(samples) == 3

    def test_deficient_group_padding(self):
        # |A| = d0 + 1: two groups, second padded; padding samples dropped
        env = self.make_env(k=6)
        samples, pulls = calibrated_sample_round(env, [0, 1, 2, 3], 3)
        assert pulls == 4 * 3
        assert len(samples) == 4

    def test_retained_gap_is_exactly_d0(self):
        env = self.make_env(k=6)
        for _ in range(5):
            calibrated_sample_round(env, [0, 1, 2, 3, 4], 3)
        cols = env.columns()
        gaps = cols["gaps"][cols["retained"]]
        assert (gaps == 3).all()

    def test_unbiased_means(self):
        inst = make_instance([0.8, 0.6, 0.4, 0.2], [2, 2, 2, 2], Discount.constant(0.9))
        env = Environment(inst, substream(1, "mc"))
        n = 4000
        totals = np.zeros(4)
        for _ in range(n):
            samples, _ = calibrated_sample_round(env, [0, 1, 2, 3], 3)
            for a, v in samples.items():
                totals[a] += v
        means = totals / n
        for a, mu in enumerate([0.8, 0.6, 0.4, 0.2]):
            sigma = math.sqrt(mu * (1 - mu) / n)
            assert abs(means[a] - mu) < 4 * sigma

    def test_fallback_when_no_padding_pool(self):
        # k < d0 and nothing removed yet: serialized calibration, still unbiased
        inst = make_instance([1.0, 0.5], [2, 2], Discount.constant(1.0))
        env = Environment(inst, substream(2, "fb"))
        samples, pulls = calibrated_sample_round(env, [0, 1], 4)
        assert len(samples) == 2
        assert pulls == 2 * (4 + 1)
        assert samples[0] == 1.0  # gap > d always pays the full baseline here
        cols = env.columns()
        gaps = cols["gaps"][cols["retained"]]
        assert ((gaps > 2) | (gaps == -1)).all()

    def test_d0_validation(self):
        env = self.make_env()
        with pytest.raises(ValueError):
            calibrated_sample_round(env, [0, 1], 2)  # d0 must exceed max d = 2

    @pytest.mark.parametrize("blocks", [
        [((1, 0), 2, -1, 0)],                       # out of the order of active
        [((0, 1, 2), 3, -1, 0)],                    # retains an arm that is not active
        [((0, 1), 2, -1, 1)],                       # retains no pull of arm 0
        [((0,), 1, -1, 0), ((0, 1), 2, -1, 0)],     # retains arm 0 twice
    ])
    def test_round_must_retain_each_active_arm_once_in_order(self, blocks):
        env = self.make_env(k=3)
        with pytest.raises(RuntimeError):
            _sampler(env, lambda active: blocks)([0, 1], 5)
        assert env.t == 0

    @pytest.mark.parametrize("draw", range(5))
    def test_retained_pulls_are_the_ranking_samples(self, draw):
        # each arm's retained pulls in the log are its samples: one per round until it
        # leaves, and their realized mean is the outcome's mean, exactly
        inst = materialize_instance(preset_fig2().instance, draw)
        env = Environment(inst, substream(draw, "rank"))
        out = rank_arms(calibrated_sampler(env, max(inst.ds) + 1), inst.k, 0.1)
        cols = env.columns()
        for arm in range(inst.k):
            kept = cols["realized"][cols["retained"] & (cols["arms"] == arm)]
            assert len(kept) == (out.elimination_round[arm] or out.rounds)
            assert out.means[arm] == int(kept.sum()) / len(kept)

    def test_end_to_end_ranking_on_environment(self):
        inst = make_instance([0.95, 0.6, 0.25], [2, 1, 2], Discount.constant(0.8))
        correct = 0
        for seed in range(10):
            env = Environment(inst, substream(seed, "e2e"))
            out = rank_arms(calibrated_sampler(env, 3), 3, 0.1)
            correct += out.permutation == (0, 1, 2)
        assert correct >= 8


class TestBaselinePulls:
    """`baseline_pulls`, which sizes `rank`'s uniform buffer, on fig2 draw 0 (d 4 3 3 6 4 3 4)."""

    def test_fig2_draw0(self):
        inst = materialize_instance(preset_fig2().instance, 0)
        assert baseline_pulls(inst, 7, 0.1, 10**7) == 147_882   # the README's figure
        assert baseline_pulls(inst, 7, 0.1, 1000) == 1000

    @pytest.mark.parametrize("d0, delta", [(6, 0.1), (7, 1.0)])
    def test_rejected_inputs_give_zero(self, d0, delta):
        # d0 = 6 is not above the largest delay, and delta = 1 is out of range
        inst = materialize_instance(preset_fig2().instance, 0)
        assert baseline_pulls(inst, d0, delta, 10**7) == 0

    def test_tied_arms_run_to_the_cap(self):
        # arms 1 and 2 never separate, so the baseline run is the cap
        inst = make_instance([F(1), F(1, 2), F(1, 2)], [1, 1, 1], Discount.constant(F(1, 2)),
                             relaxed=True)
        assert baseline_pulls(inst, 2, 0.1, 10**6) == 10**6


class TestChunkedRounds:
    """`rank_arms` over chunks of rounds equals the per-round reference loop."""

    @pytest.mark.parametrize("draw, seed", [(d, s) for d in range(5) for s in sorted({d, 3})])
    @pytest.mark.parametrize("pull_cap", [10**7, 5000])
    def test_calibrated_fig2_draws_equal_rounds_by_round(self, draw, seed, pull_cap):
        inst = materialize_instance(preset_fig2().instance, draw)
        d0 = max(inst.ds) + 1
        chunked, stepped = (Environment(inst, substream(seed, "rank")) for _ in range(2))
        got = rank_arms(calibrated_sampler(chunked, d0), inst.k, 0.1, pull_cap)
        want = rank_arms_by_round(lambda active: calibrated_sample_round(stepped, active, d0),
                                  inst.k, 0.1, pull_cap)
        assert got == want
        assert chunked.t == stepped.t == got.pulls
        assert chunked._last_pulls() == stepped._last_pulls()
        assert len(chunked._u) == len(stepped._u)
        assert_same_columns(chunked.columns(), stepped.columns())
