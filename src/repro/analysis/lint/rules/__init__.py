"""Bundled reprolint rules.

Importing this package registers every bundled rule with the framework
registry.  Each module encodes one family of documented contracts:

* :mod:`.determinism` — byte-identical replay across engine modes
* :mod:`.wake` — the wake()/notify_active() protocol
* :mod:`.hotpath` — hot-path authoring discipline (``__slots__``,
  allocation-free tick bodies)
* :mod:`.counters` — counter exactness
* :mod:`.obs` — probe-network entry points stay free when disabled
"""

from repro.analysis.lint.rules import (  # noqa: F401
    counters,
    determinism,
    hotpath,
    obs,
    wake,
)
