"""Shared test settings: one hypothesis profile for the whole suite.

Several properties run whole tomography routes per example, so a per-example
deadline would measure the host's load rather than the code.
"""

from hypothesis import settings

settings.register_profile("spinqpt", deadline=None)
settings.load_profile("spinqpt")
