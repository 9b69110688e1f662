"""Shared test settings.

Hypothesis runs derandomized and without an example database, so every
run of the suite draws the same examples.  Hypothesis still caches the
constants it finds in loaded source files; that cache goes to a
temporary directory removed at exit, so the suite writes no
`.hypothesis/` directory.  The example count keeps the property tests to
about a second.  The `ci` profile (`--hypothesis-profile=ci`) draws
about 2,000 examples for a test whose decorator sets no count of its
own; CI runs the argv property of `cli.main` under it.
"""

import os
import tempfile

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)

from hypothesis import settings  # noqa: E402  (reads the storage directory above)

settings.register_profile("graphdivisors", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.register_profile("ci", settings.get_profile("graphdivisors"), max_examples=2000)
settings.load_profile("graphdivisors")
