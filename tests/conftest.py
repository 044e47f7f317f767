"""One hypothesis profile for the whole suite.

No per-example deadline, so a slow or shared host cannot fail a property test on
timing, and derandomized generation, so any failure reproduces run to run. Tests
keep their own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("linerig", deadline=None, derandomize=True)
settings.load_profile("linerig")
