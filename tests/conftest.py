"""Hypothesis profiles for the test suite.

The suite loads ``tier1``, which is derandomized: every run draws the same
examples, so a verdict never depends on the run.  ``search`` draws fresh
examples from ``--hypothesis-seed``; run the property tests under it with
``-m hypothesis --hypothesis-profile search --hypothesis-seed <seed>``, and
turn each find into an ``@example`` of its test.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("search", derandomize=False, database=None, print_blob=True)
settings.load_profile("tier1")
