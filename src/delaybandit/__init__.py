"""Bandits whose arm payoffs depend on the delay since the arm's last pull.

Environment and payoff law, exact periodic-policy oracles, the low-switch
elimination learner over ranking policies, an arm-ordering learner, a UCB
baseline, and an experiment harness with CSV output.
"""

__version__ = "0.1.0"

from .core import (
    BanditInstance,
    Discount,
    Environment,
    advance_state,
    expected_payoff,
    initial_state,
    make_instance,
    substream,
)
from .policies import (
    GhostSummary,
    GreedyPolicy,
    PolicyTrace,
    RankingPolicy,
    g_value,
    ghost_summary,
    greedy_arm,
    orbit,
    rollout,
)
from .oracle import (
    OptimalCycle,
    PmspInstance,
    PmspSchedule,
    StateGraph,
    alternation_value,
    build_state_graph,
    long_run_average,
    max_mean_cycle,
    optimal_average,
    pmsp_feasible,
    pmsp_threshold,
    pmsp_to_bandit,
    steady_state_average,
)
from .low_switch import (
    LowSwitchRun,
    StageRecord,
    StageSchedule,
    plays_per_policy,
    run_pi_low,
    stage_schedule,
)
from .ranker import (
    RankingOutcome,
    calibrated_sample_round,
    calibrated_sampler,
    epsilon_r,
    iid_bernoulli_sampler,
    rank_arms,
)
from .ucb import UcbRun, run_ucb_rankings, ucb_index
from .harness import (
    ExperimentConfig,
    RegretCurve,
    dump_instance,
    ghost_reference,
    instance_hash,
    load_instance,
    materialize_instance,
    preset_fig2,
    preset_fig3,
    regret_vs_ghost,
    run_experiment,
)
