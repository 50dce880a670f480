"""Test settings: hypothesis draws the same examples on every run.

`derandomize=True` derives each test's examples from the test itself, so a
run neither depends on a random seed nor replays examples from a local
`.hypothesis/` database (derandomize turns the database off). Each test's own
`max_examples` and `deadline` still apply. To draw fresh examples, run
pytest with `--hypothesis-profile default --hypothesis-seed N`.

A test's examples derive from its source, so any edit to the body of a
hypothesis test, even one that keeps every draw, gives it a new example set.
A case that must stay covered belongs in a plain test, as
`test_greedy_blocks_equal_step_loop_inside_delay_windows` does.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
