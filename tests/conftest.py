"""Suite-wide hypothesis settings: every property draws the same examples on
every run and keeps no example database, so a run's verdict depends on the
code alone, not on earlier runs or on luck."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
