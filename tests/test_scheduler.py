"""Unit tests for the best-effort channel arbiters."""

import pytest

from repro.core.channel import Channel
from repro.core.scheduler import (
    QueueFillArbiter,
    RoundRobinArbiter,
    WeightedRoundRobinArbiter,
    make_arbiter,
)


def make_channels(count):
    channels = []
    for index in range(count):
        channel = Channel(index=index, name=f"ch{index}")
        channel.regs.enabled = True
        channel.space = 100
        channels.append(channel)
    return channels


class TestRoundRobin:
    def test_cycles_through_eligible_channels(self):
        arbiter = RoundRobinArbiter()
        channels = make_channels(3)
        grants = [arbiter.select([0, 1, 2], channels) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_skips_ineligible_channels(self):
        arbiter = RoundRobinArbiter()
        channels = make_channels(4)
        grants = [arbiter.select([1, 3], channels) for _ in range(4)]
        assert grants == [1, 3, 1, 3]

    def test_empty_eligible_returns_none(self):
        assert RoundRobinArbiter().select([], make_channels(2)) is None

    def test_continues_after_the_last_grant(self):
        arbiter = RoundRobinArbiter()
        channels = make_channels(3)
        assert arbiter.select([0, 1, 2], channels) == 0
        # Channel 1 temporarily has nothing to send.
        assert arbiter.select([2], channels) == 2
        assert arbiter.select([0, 1, 2], channels) == 0


class TestWeightedRoundRobin:
    def test_weights_give_consecutive_grants(self):
        arbiter = WeightedRoundRobinArbiter(weights={0: 3, 1: 1})
        channels = make_channels(2)
        grants = [arbiter.select([0, 1], channels) for _ in range(8)]
        assert grants == [0, 0, 0, 1, 0, 0, 0, 1]

    def test_default_weight_behaves_like_round_robin(self):
        arbiter = WeightedRoundRobinArbiter()
        channels = make_channels(2)
        grants = [arbiter.select([0, 1], channels) for _ in range(4)]
        assert grants == [0, 1, 0, 1]

    def test_current_channel_losing_eligibility_moves_on(self):
        arbiter = WeightedRoundRobinArbiter(weights={0: 4})
        channels = make_channels(2)
        assert arbiter.select([0, 1], channels) == 0
        assert arbiter.select([1], channels) == 1

    def test_invalid_default_weight(self):
        with pytest.raises(ValueError):
            WeightedRoundRobinArbiter(default_weight=0)

    def test_empty_eligible_resets_state(self):
        arbiter = WeightedRoundRobinArbiter(weights={0: 2})
        channels = make_channels(2)
        arbiter.select([0, 1], channels)
        assert arbiter.select([], channels) is None
        assert arbiter.select([1], channels) == 1


class TestQueueFill:
    def test_grants_fullest_channel(self):
        arbiter = QueueFillArbiter()
        channels = make_channels(3)
        channels[0].source_queue.push_many([1])
        channels[1].source_queue.push_many([1, 2, 3, 4])
        channels[2].source_queue.push_many([1, 2])
        assert arbiter.select([0, 1, 2], channels) == 1

    def test_sendable_limited_by_space(self):
        arbiter = QueueFillArbiter()
        channels = make_channels(2)
        channels[0].source_queue.push_many([1, 2, 3, 4])
        channels[0].space = 1              # only one word sendable
        channels[1].source_queue.push_many([1, 2])
        assert arbiter.select([0, 1], channels) == 1

    def test_tie_breaks_on_lowest_index(self):
        arbiter = QueueFillArbiter()
        channels = make_channels(2)
        channels[0].source_queue.push_many([1, 2])
        channels[1].source_queue.push_many([3, 4])
        assert arbiter.select([0, 1], channels) == 0

    def test_credit_only_channel_can_be_granted(self):
        arbiter = QueueFillArbiter()
        channels = make_channels(2)
        channels[1].add_credit(3)
        assert arbiter.select([1], channels) == 1


class TestFactory:
    def test_make_arbiter_by_name(self):
        assert isinstance(make_arbiter("round_robin"), RoundRobinArbiter)
        assert isinstance(make_arbiter("weighted_round_robin"),
                          WeightedRoundRobinArbiter)
        assert isinstance(make_arbiter("queue_fill"), QueueFillArbiter)

    def test_unknown_arbiter_rejected(self):
        with pytest.raises(ValueError):
            make_arbiter("lottery")

    def test_available_arbiters_lists_all(self):
        """The refusal names what is registered (NISpec forwards it)."""
        with pytest.raises(ValueError) as caught:
            make_arbiter("lottery")
        assert ("['queue_fill', 'round_robin', 'weighted_round_robin']"
                in str(caught.value))
