"""repro: a reproduction of the Aethereal on-chip network interface.

This package reproduces, in Python, the system described in "An Efficient
On-Chip Network Interface Offering Guaranteed Services, Shared-Memory
Abstraction, and Flexible Network Configuration" (Radulescu, Dielissen,
Goossens, Rijpkema, Wielage — DATE 2004):

* :mod:`repro.core` — the network interface itself: kernel (queues, GT/BE
  scheduler, packetization, credit-based end-to-end flow control, memory-
  mapped configuration registers) and shells (narrowcast, multicast,
  multi-connection, master/slave adapters, configuration shell);
* :mod:`repro.network` — the NoC substrate: GT/BE routers, links, TDM slot
  tables, topologies, source routing;
* :mod:`repro.protocol` — transactions and message formats (Figure 7);
* :mod:`repro.config` — run-time configuration: slot allocation, register
  programs, centralized configuration over the NoC, distributed model;
* :mod:`repro.design` — design-time instantiation from (XML) specs, plus the
  calibrated area and timing models of Section 5;
* :mod:`repro.analysis` — analytic throughput/latency/jitter guarantees and
  verification against simulation;
* :mod:`repro.ip` — IP-module models (traffic generators, memories);
* :mod:`repro.baselines` — software protocol stack and shared-bus baselines;
* :mod:`repro.api` — the declarative :class:`~repro.api.SystemBuilder` and
  the scenario registry (``scenarios.build(name, **params)``): the one way
  the examples, tests and benchmarks obtain a ready-made simulated system.
"""

__version__ = "1.0.0"

from repro.design.generator import build_system
from repro.design.spec import reference_ni_spec, reference_noc_spec

__all__ = [
    "__version__",
    "build_system",
    "reference_ni_spec",
    "reference_noc_spec",
]
