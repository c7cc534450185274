"""Hypothesis settings shared by every test module."""
from hypothesis import settings

# No deadline per example: on a shared machine whose core speed drifts by
# up to 1.7x, a wall-clock deadline fails examples that are not slow.
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")
