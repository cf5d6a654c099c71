"""Best-effort channel arbiters.

When the current TDM slot is not used by a guaranteed-throughput channel,
"the scheduler selects a BE channel with data and remote space using some
arbitration scheme: e.g. round-robin, weighted round-robin, or based on the
queue filling" (Section 4.1).  All three schemes are provided; the kernel is
configured with one of them at instantiation time.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.channel import Channel


class Arbiter:
    """Interface: pick one of the eligible channel indices."""

    name = "arbiter"

    def select(self, eligible: Sequence[int],
               channels: Sequence[Channel]) -> Optional[int]:
        raise NotImplementedError


class RoundRobinArbiter(Arbiter):
    """Plain round-robin over channel indices."""

    name = "round_robin"

    def __init__(self) -> None:
        self._last_granted = -1

    def select(self, eligible: Sequence[int],
               channels: Sequence[Channel]) -> Optional[int]:
        if not eligible:
            return None
        # Single pass, no sort/copy: grant the lowest index above the last
        # grant, wrapping to the lowest index overall.  Called once per BE
        # flit cycle, so this runs on the kernel's hot path.
        last = self._last_granted
        lowest = None
        lowest_above = None
        for candidate in eligible:
            if lowest is None or candidate < lowest:
                lowest = candidate
            if candidate > last and (lowest_above is None
                                     or candidate < lowest_above):
                lowest_above = candidate
        choice = lowest_above if lowest_above is not None else lowest
        self._last_granted = choice
        return choice


class WeightedRoundRobinArbiter(Arbiter):
    """Round-robin where each channel receives ``weight`` consecutive grants."""

    name = "weighted_round_robin"

    def __init__(self, weights: Optional[Dict[int, int]] = None,
                 default_weight: int = 1) -> None:
        if default_weight <= 0:
            raise ValueError("default weight must be positive")
        self.weights = dict(weights or {})
        self.default_weight = default_weight
        self._current: Optional[int] = None
        self._grants_left = 0
        self._rr = RoundRobinArbiter()

    def weight_of(self, channel_index: int) -> int:
        weight = self.weights.get(channel_index, self.default_weight)
        return max(1, weight)

    def select(self, eligible: Sequence[int],
               channels: Sequence[Channel]) -> Optional[int]:
        if not eligible:
            self._current = None
            self._grants_left = 0
            return None
        if (self._current in eligible) and self._grants_left > 0:
            self._grants_left -= 1
            return self._current
        choice = self._rr.select(eligible, channels)
        self._current = choice
        self._grants_left = self.weight_of(choice) - 1 if choice is not None else 0
        return choice


class QueueFillArbiter(Arbiter):
    """Grant the channel with the most sendable data (ties: lowest index)."""

    name = "queue_fill"

    def select(self, eligible: Sequence[int],
               channels: Sequence[Channel]) -> Optional[int]:
        if not eligible:
            return None
        best: Optional[int] = None
        best_fill = -1
        for index in eligible:
            channel = channels[index]
            fill = max(channel.sendable, min(channel.credit, 1))
            if fill > best_fill or (fill == best_fill and index < best):
                best_fill = fill
                best = index
        return best


_ARBITERS = {
    "round_robin": RoundRobinArbiter,
    "weighted_round_robin": WeightedRoundRobinArbiter,
    "queue_fill": QueueFillArbiter,
}


def make_arbiter(name: str, **kwargs) -> Arbiter:
    """Create an arbiter by name (``round_robin``, ``weighted_round_robin``,
    ``queue_fill``)."""
    try:
        factory = _ARBITERS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown arbiter {name!r}; choose from {sorted(_ARBITERS)}") from exc
    return factory(**kwargs)
