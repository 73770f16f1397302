"""The one Hypothesis profile for the suite.

Registered and loaded here, before any test module is imported, so
every ``settings(...)`` a module builds derives from the same parent
whichever modules are collected and in whatever order.  Each property
test states its own ``max_examples``.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
