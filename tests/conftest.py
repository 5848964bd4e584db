"""Hypothesis profiles for the suite.

``tier1`` (loaded by default) derandomizes every fuzz, so each run draws the
same examples and a result does not depend on the run; it also keeps no
example database.  ``explore`` draws fresh examples on each run:

    PYTHONPATH=src python -m pytest --hypothesis-profile=explore
"""

from hypothesis import HealthCheck, settings

# The fuzzes share module-scoped fixtures and tmp_path across examples, and a CLI run may take seconds.
_COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

settings.register_profile("tier1", derandomize=True, **_COMMON)
settings.register_profile("explore", **_COMMON)
settings.load_profile("tier1")
