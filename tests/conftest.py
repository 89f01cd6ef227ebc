"""Hypothesis draws the same examples on every run: each test's random
generator is seeded from the test itself, so the suite's wall time and its
cases do not change between runs of the same tree.  Each test's own
max_examples and deadline still apply."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
