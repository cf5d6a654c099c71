"""Run-time NoC configuration: connections, slot allocation, configuration
managers.

"Before the Aethereal NoC can be used by an application, it must be
configured.  NoC (re)configuration means opening and closing connections in
the system." (Section 3)

This package provides:

* :mod:`repro.config.connection` — connection specifications and the register
  programs (lists of register writes) that open and close them;
* :mod:`repro.config.slot_allocation` — TDM slot allocation with per-link
  conflict checking (the shared-resource part of opening a connection);
* :mod:`repro.config.manager` — the centralized configuration manager that
  programs the NIs over the NoC itself, a functional configurator for tests,
  and the distributed-configuration model of Section 3.
"""

from repro.config.connection import (
    ChannelEndpointRef,
    ChannelPairSpec,
    ConnectionSpec,
    RegisterWrite,
    build_close_program,
    build_open_program,
)
from repro.config.manager import (
    CentralizedConfigurationManager,
    ConfigurationError,
    DistributedConfigurationModel,
    FunctionalConfigurator,
)
from repro.config.slot_allocation import (
    CentralizedSlotAllocator,
    SlotAllocationError,
    SlotRequest,
    evenly_spaced_slots,
)

__all__ = [
    "CentralizedConfigurationManager",
    "CentralizedSlotAllocator",
    "ChannelEndpointRef",
    "ChannelPairSpec",
    "ConfigurationError",
    "ConnectionSpec",
    "DistributedConfigurationModel",
    "FunctionalConfigurator",
    "RegisterWrite",
    "SlotAllocationError",
    "SlotRequest",
    "build_close_program",
    "build_open_program",
    "evenly_spaced_slots",
]
