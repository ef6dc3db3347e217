"""Pytest set-up: a hypothesis profile ``ci`` that draws the same examples
on every run, so a property that fails in CI fails the same way on a rerun
(``pytest --hypothesis-profile=ci``)."""

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves
    pass
else:
    settings.register_profile("ci", derandomize=True, deadline=None)
