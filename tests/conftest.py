"""Shared Hypothesis profile: derandomised, no example database, no deadline,
so every property test draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("arrlevels", derandomize=True, database=None, deadline=None)
settings.load_profile("arrlevels")
