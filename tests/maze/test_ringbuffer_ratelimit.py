"""Tests for Maze ring buffers, pointer rings and token buckets."""

import pytest

from repro.errors import EmulationError
from repro.maze import DataRingBuffer, PointerRing, TokenBucket


class TestDataRingBuffer:
    def test_write_read_free(self):
        dr = DataRingBuffer(4, 100)
        slot = dr.write(b"hello")
        assert dr.read(slot) == b"hello"
        assert dr.used_slots == 1
        dr.free(slot)
        assert dr.used_slots == 0

    def test_full_buffer_rejects(self):
        dr = DataRingBuffer(2, 10)
        assert dr.write(b"a") is not None
        assert dr.write(b"b") is not None
        assert dr.write(b"c") is None
        assert dr.write_failures == 1
        assert not dr.has_space()

    def test_oversized_packet_raises(self):
        dr = DataRingBuffer(2, 10)
        with pytest.raises(EmulationError):
            dr.write(b"x" * 11)

    def test_double_free_raises(self):
        dr = DataRingBuffer(2, 10)
        slot = dr.write(b"a")
        dr.free(slot)
        with pytest.raises(EmulationError):
            dr.free(slot)

    def test_read_after_free_raises(self):
        dr = DataRingBuffer(2, 10)
        slot = dr.write(b"a")
        dr.free(slot)
        with pytest.raises(EmulationError):
            dr.read(slot)

    def test_replace_in_place(self):
        dr = DataRingBuffer(2, 10)
        slot = dr.write(b"aaaa")
        dr.replace(slot, b"bbbb")
        assert dr.read(slot) == b"bbbb"

    def test_slot_reuse_after_free(self):
        dr = DataRingBuffer(1, 10)
        slot = dr.write(b"a")
        dr.free(slot)
        assert dr.write(b"b") == slot

    def test_max_used_tracked(self):
        dr = DataRingBuffer(4, 10)
        slots = [dr.write(b"x") for _ in range(3)]
        for s in slots:
            dr.free(s)
        assert dr.max_used == 3


class TestPointerRing:
    def test_fifo(self):
        dr = DataRingBuffer(4, 10)
        pr = PointerRing(4)
        s1, s2 = dr.write(b"a"), dr.write(b"b")
        pr.push(dr, s1)
        pr.push(dr, s2)
        assert pr.pop() == (dr, s1)
        assert pr.peek() == (dr, s2)

    def test_capacity(self):
        dr = DataRingBuffer(4, 10)
        pr = PointerRing(1)
        assert pr.push(dr, dr.write(b"a"))
        assert not pr.push(dr, dr.write(b"b"))
        assert pr.push_failures == 1

    def test_pop_empty_raises(self):
        with pytest.raises(EmulationError):
            PointerRing(2).pop()

    def test_queued_bytes(self):
        dr = DataRingBuffer(4, 10)
        pr = PointerRing(4)
        pr.push(dr, dr.write(b"abc"))
        pr.push(dr, dr.write(b"defg"))
        assert pr.queued_bytes() == 7
        assert pr.max_depth == 2


class TestTokenBucket:
    def test_burst_available_immediately(self):
        bucket = TokenBucket(rate_bps=8e9, burst_bytes=1000, now_ns=0)
        assert bucket.try_consume(1000, 0)
        assert not bucket.try_consume(1, 0)

    def test_refill_rate(self):
        bucket = TokenBucket(rate_bps=8e9, burst_bytes=1000, now_ns=0)
        bucket.try_consume(1000, 0)
        # 8 Gbps = 1 byte/ns; after 500 ns, 500 bytes available.
        assert not bucket.try_consume(501, 500)
        assert bucket.try_consume(500, 500)

    def test_tokens_capped_at_burst(self):
        bucket = TokenBucket(rate_bps=8e9, burst_bytes=100, now_ns=0)
        assert bucket.tokens(10_000) == pytest.approx(100)

    def test_set_rate(self):
        bucket = TokenBucket(rate_bps=0.0, burst_bytes=100, now_ns=0)
        bucket.try_consume(100, 0)
        bucket.set_rate(8e9, 0)
        assert bucket.try_consume(50, 50)

    def test_time_backwards_raises(self):
        bucket = TokenBucket(8e9, 100, now_ns=100)
        with pytest.raises(EmulationError):
            bucket.tokens(50)

    def test_validation(self):
        with pytest.raises(EmulationError):
            TokenBucket(-1, 100)
        with pytest.raises(EmulationError):
            TokenBucket(1, 0)
