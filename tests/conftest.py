"""Hypothesis profiles for the test suite.

Tier-1 draws fixed examples: the default ``tier1`` profile derandomizes
every ``@given`` test and keeps no example database, so two runs of one
commit test the same inputs and a local ``.hypothesis/`` directory
cannot replay other ones.  ``HYPOTHESIS_PROFILE=explore`` draws fresh
examples on every run instead (a CI step runs the ``@given`` files that
way); a failure it finds becomes an ``@example`` on the test.  A
test's own ``@settings(...)`` overrides only the fields it sets.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
