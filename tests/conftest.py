"""Session-wide test settings.

Registers the Hypothesis profile ``ci``: derandomized, so every run draws the
same examples, and printing the reproduce blob of a failure.  CI selects it
with ``--hypothesis-profile=ci``; the same flag replays a CI failure locally.
Without Hypothesis installed nothing is registered, and the tests that need
it fail at their own import.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", derandomize=True, print_blob=True)
