"""Hypothesis settings for the whole suite.

Examples are drawn from a seed derived from each test, so every run of the
suite checks the same examples; there is no example database to replay from,
and no timing deadline, since the eigensolver properties take a variable
fraction of a second per example.
"""

from hypothesis import settings

settings.register_profile(
    "reproducible", derandomize=True, database=None, deadline=None
)
settings.load_profile("reproducible")
