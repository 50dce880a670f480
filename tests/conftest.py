"""Test settings: hypothesis draws the same examples on every run.

`derandomize=True` derives each test's examples from the test itself, so a
run neither depends on a random seed nor replays examples from a local
`.hypothesis/` database (derandomize turns the database off). Each test's own
`max_examples` and `deadline` still apply. To draw fresh examples, run
pytest with `--hypothesis-profile default --hypothesis-seed N`.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
