"""One Hypothesis profile for the whole suite: derandomized, so every run
replays the same examples, and without a deadline, so a slow host cannot
fail a property test."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
