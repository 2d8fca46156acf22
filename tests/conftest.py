"""Suite-wide hypothesis profile: reproducible examples, no per-example deadline."""

from hypothesis import settings

settings.register_profile("winavc", derandomize=True, deadline=None)
settings.load_profile("winavc")
