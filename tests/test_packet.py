"""Unit tests for packets, headers and flits."""

import pytest

from repro.network.packet import (
    FLIT_WORDS,
    MAX_HEADER_CREDITS,
    Flit,
    Packet,
    PacketError,
    PacketHeader,
    packet_to_flits,
)


def make_packet(payload_words, path=(1, 2), **header_kwargs):
    header = PacketHeader(path=path, remote_qid=0, **header_kwargs)
    return Packet(header, list(range(payload_words)))


class TestPacketHeader:
    def test_path_is_stored_as_tuple(self):
        header = PacketHeader(path=[1, 2, 3], remote_qid=0)
        assert header.path == (1, 2, 3)

    def test_negative_queue_id_rejected(self):
        with pytest.raises(PacketError):
            PacketHeader(path=(0,), remote_qid=-1)

    def test_credits_bounded_by_header_field(self):
        PacketHeader(path=(0,), remote_qid=0, credits=MAX_HEADER_CREDITS)
        with pytest.raises(PacketError):
            PacketHeader(path=(0,), remote_qid=0, credits=MAX_HEADER_CREDITS + 1)

    def test_negative_credits_rejected(self):
        with pytest.raises(PacketError):
            PacketHeader(path=(0,), remote_qid=0, credits=-1)


class TestPacket:
    def test_total_words_includes_header(self):
        assert make_packet(5).total_words == 6

    def test_num_flits_rounds_up(self):
        assert len(packet_to_flits(make_packet(0))) == 1   # header only
        assert len(packet_to_flits(make_packet(2))) == 1   # 3 words exactly
        assert len(packet_to_flits(make_packet(3))) == 2
        assert len(packet_to_flits(make_packet(8))) == 3

    def test_header_overhead(self):
        assert make_packet(0).header_overhead == pytest.approx(1.0)
        assert make_packet(9).header_overhead == pytest.approx(0.1)

    def test_route_advances_hop_by_hop(self):
        packet = make_packet(1, path=(3, 1, 4))
        for port in (3, 1, 4):
            assert packet.peek_route() == port
            packet._route_pos += 1      # what a router does per hop
        assert packet._route_pos == len(packet.header.path)

    def test_route_exhaustion_raises(self):
        packet = make_packet(1, path=(2,))
        packet._route_pos += 1
        with pytest.raises(PacketError):
            packet.peek_route()

    def test_packet_ids_are_unique(self):
        assert make_packet(1).packet_id != make_packet(1).packet_id


class TestFlitSplitting:
    def test_header_only_packet_is_one_flit(self):
        flits = packet_to_flits(make_packet(0))
        assert len(flits) == 1
        assert flits[0].is_head and flits[0].is_tail
        assert flits[0].num_words == 1

    def test_word_accounting_across_flits(self):
        packet = make_packet(7)  # 8 words total -> 3 flits: 3 + 3 + 2
        flits = packet_to_flits(packet)
        assert [f.num_words for f in flits] == [3, 3, 2]
        assert sum(f.num_words for f in flits) == packet.total_words

    def test_exactly_one_head_and_one_tail(self):
        flits = packet_to_flits(make_packet(10))
        assert sum(f.is_head for f in flits) == 1
        assert sum(f.is_tail for f in flits) == 1
        assert flits[0].is_head
        assert flits[-1].is_tail

    def test_flit_indices_are_sequential(self):
        flits = packet_to_flits(make_packet(9))
        assert [f.index for f in flits] == list(range(len(flits)))

    def test_flit_is_gt_follows_header(self):
        header = PacketHeader(path=(0,), remote_qid=0, is_gt=True)
        flits = packet_to_flits(Packet(header, [1, 2, 3, 4]))
        assert all(f.is_gt for f in flits)

    def test_flit_word_capacity_is_three(self):
        assert FLIT_WORDS == 3
        flits = packet_to_flits(make_packet(20))
        assert all(f.num_words <= FLIT_WORDS for f in flits)
