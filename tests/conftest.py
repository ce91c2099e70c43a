"""Shared test settings.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile, which derandomizes
hypothesis so that a CI run draws the same examples every time.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
