"""One Hypothesis profile for the whole suite: derandomized, and without a
deadline, so a slow host cannot fail a property test.

Derandomized runs replay the same examples only while the code stays the
same: Hypothesis mixes the numeric literals of every local module it sees
into its draws, so an edit to any literal in ``src/`` or ``tests/`` can
re-draw the examples of an unrelated property test."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
