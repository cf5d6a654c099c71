"""NI shells (Figure 1 of the paper).

Shells wrap the NI kernel ports and add higher-level functionality: connection
types beyond point-to-point (narrowcast, multicast), arbitration between
multiple connections at a slave port, protocol adapters (master/slave shells
taking ``Transaction`` objects), and the configuration shell.  "All these
shells can be plugged in or left out at design time according to the needs."
"""

from repro.core.shells.base import ConnectionShell, ShellError
from repro.core.shells.config_shell import ConfigOperation, ConfigShell, ConfigurationSlave
from repro.core.shells.master import MasterShell
from repro.core.shells.multicast import MulticastShell
from repro.core.shells.multiconnection import MultiConnectionShell
from repro.core.shells.narrowcast import AddressRange, NarrowcastShell
from repro.core.shells.point_to_point import PointToPointShell
from repro.core.shells.slave import SlaveShell

__all__ = [
    "AddressRange",
    "ConfigOperation",
    "ConfigShell",
    "ConfigurationSlave",
    "ConnectionShell",
    "MasterShell",
    "MulticastShell",
    "MultiConnectionShell",
    "NarrowcastShell",
    "PointToPointShell",
    "ShellError",
    "SlaveShell",
]
