import os
import tempfile

from hypothesis import settings

# property tests draw the same examples on every run and keep no example
# database; the cache of source constants goes to the temp directory, so a
# test run leaves no .hypothesis/ in the checkout
settings.register_profile("cowkd", derandomize=True, deadline=None, database=None)
settings.load_profile("cowkd")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "cowkd-hypothesis"))
