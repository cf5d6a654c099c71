"""The assembled network interface: kernel plus port clocks.

:class:`NetworkInterface` is a convenience container matching Figure 1: one
NI kernel, its kernel ports and the clock domain of each.  The design-time
generator (:mod:`repro.design.generator`) builds these from an instance
specification; shells are plugged onto the ports by
:class:`~repro.api.builder.SystemBuilder`.
"""

from __future__ import annotations

from typing import Dict

from repro.core.kernel import NIKernel
from repro.core.port import NIPort
from repro.sim.clock import Clock


class NetworkInterface:
    """An NI instance: kernel + ports + port clocks."""

    def __init__(self, name: str, kernel: NIKernel) -> None:
        self.name = name
        self.kernel = kernel
        #: Clock domain of each IP-side port (ports may run at different
        #: frequencies; the kernel runs at the network flit clock).
        self.port_clocks: Dict[str, Clock] = {}

    # ----------------------------------------------------------------- ports
    def port(self, name: str) -> NIPort:
        return self.kernel.port(name)

    @property
    def ports(self) -> Dict[str, NIPort]:
        return dict(self.kernel.ports)

    # ------------------------------------------------------------- reporting
    def describe(self) -> Dict[str, object]:
        """A printable summary of the instance (used by examples and docs)."""
        return {
            "name": self.name,
            "channels": self.kernel.num_channels,
            "slots": self.kernel.num_slots,
            "ports": {name: port.channel_indices
                      for name, port in self.kernel.ports.items()},
            "queue_words": self.kernel.queue_words_total(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"NetworkInterface({self.name}, ports={len(self.kernel.ports)}, "
                f"channels={self.kernel.num_channels})")
