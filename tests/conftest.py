"""Session-wide test settings.

Registers the Hypothesis profile ``ci``: derandomized, so every run draws the
same examples, and printing the reproduce blob of a failure.  CI selects it
with ``--hypothesis-profile=ci``; the same flag replays a CI failure locally.
Without Hypothesis installed nothing is registered, and the tests that need
it fail at their own import.

Hypothesis's pytest plugin imports ``hypothesis.extra._patching`` when a test
fails, to write its patch file, and with ``libcst`` present that import can
raise a third-party ``DeprecationWarning`` (an old ``mypy_extensions``).
Under ``-W error`` that warning ended the run in ``INTERNALERROR`` instead of
the falsifying example, so the module is imported here once, with only that
category ignored and only for that import; without ``libcst`` the import
fails and the plugin takes its own ``ImportError`` path.
"""

import warnings

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", derandomize=True, print_blob=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass
