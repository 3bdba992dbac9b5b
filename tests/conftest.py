"""Suite-wide settings: hypothesis draws the same examples on every run
and leaves nothing in the working tree."""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("relaypower", derandomize=True, deadline=None, database=None)
settings.load_profile("relaypower")

_home = None


def pytest_configure(config):
    # with no example database, hypothesis still caches the constants it
    # mines from source files, starting at collection; keep that cache in a
    # temporary directory for the length of the session
    global _home
    _home = tempfile.mkdtemp(prefix="relaypower-hypothesis-")
    set_hypothesis_home_dir(_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    if _home is not None:
        shutil.rmtree(_home, ignore_errors=True)
