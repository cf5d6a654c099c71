"""Repository-level pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (useful for running the test suite directly from a checkout) and
the tools in ``scripts`` beside it (``tests/test_reprolint.py`` imports
``scripts/reprolint.py``), and registers the ``slow`` marker so the fast
tier can be selected with ``-m "not slow"``.
"""

import os
import sys

for _DIR in ("src", "scripts"):
    _PATH = os.path.join(os.path.dirname(__file__), _DIR)
    if _PATH not in sys.path:
        sys.path.insert(0, _PATH)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running perf/benchmark tests (deselect with -m \"not slow\")")
