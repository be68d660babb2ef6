"""Shared test set-up: a hypothesis profile that keeps the suite
deterministic, free of timing deadlines, and without an example
database on disk."""

from hypothesis import settings

settings.register_profile("zonobalance", derandomize=True, deadline=None, database=None)
settings.load_profile("zonobalance")
