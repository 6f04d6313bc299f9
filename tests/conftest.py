"""Test-wide settings: one Hypothesis profile for every property test."""

from hypothesis import settings

# Property tests here build predictors and Gram matrices per example, whose
# time varies with the host; a per-example deadline would only add flakes.
settings.register_profile("decal", deadline=None)
settings.load_profile("decal")
