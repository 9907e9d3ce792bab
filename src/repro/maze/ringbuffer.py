"""Maze's memory structures: data ring buffers and pointer rings (§4.1).

A real Maze server receives packets by RDMA writes into *data ring buffers*
(DR) registered with the NIC, and forwards them zero-copy by pushing
*pointer rings* (PR) entries that reference the DR slots.  We model both
faithfully: a :class:`DataRingBuffer` owns fixed-size byte slots holding
real encoded packets, and a :class:`PointerRing` holds (buffer, slot)
references; forwarding never copies packet bytes, and freed slots are
zeroed, exactly as the paper describes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import EmulationError


class DataRingBuffer:
    """A fixed array of byte slots written by (emulated) RDMA.

    Slots are allocated on write and freed (and zeroed) once the packet has
    been forwarded or consumed, mirroring Maze's "we zero the memory of the
    forwarded packet to make space for new packets".
    """

    def __init__(self, n_slots: int, slot_bytes: int, name: str = "dr") -> None:
        if n_slots < 1 or slot_bytes < 1:
            raise EmulationError("ring buffer needs positive slot count and size")
        self.name = name
        self.n_slots = n_slots
        self.slot_bytes = slot_bytes
        self._slots: List[Optional[bytes]] = [None] * n_slots
        self._lengths = [0] * n_slots
        self._free: List[int] = list(range(n_slots - 1, -1, -1))
        self.writes = 0
        self.write_failures = 0
        self.max_used = 0

    @property
    def used_slots(self) -> int:
        """Slots currently holding a packet."""
        return self.n_slots - len(self._free)

    def has_space(self) -> bool:
        """True if an RDMA write would currently succeed."""
        return bool(self._free)

    def write(self, data: bytes) -> Optional[int]:
        """Emulated RDMA write; returns the slot index or None when full."""
        if len(data) > self.slot_bytes:
            raise EmulationError(
                f"packet of {len(data)} bytes exceeds {self.slot_bytes}-byte slots"
            )
        if not self._free:
            self.write_failures += 1
            return None
        slot = self._free.pop()
        self._slots[slot] = data
        self._lengths[slot] = len(data)
        self.writes += 1
        used = self.used_slots
        if used > self.max_used:
            self.max_used = used
        return slot

    def read(self, slot: int) -> bytes:
        """Read the bytes in *slot* (zero-copy in spirit: no state change)."""
        data = self._slots[slot]
        if data is None:
            raise EmulationError(f"read of freed slot {slot} in {self.name}")
        return data

    def replace(self, slot: int, data: bytes) -> None:
        """In-place mutation of a held packet (forwarders bump ridx)."""
        if self._slots[slot] is None:
            raise EmulationError(f"replace of freed slot {slot} in {self.name}")
        if len(data) > self.slot_bytes:
            raise EmulationError("replacement data exceeds slot size")
        self._slots[slot] = data
        self._lengths[slot] = len(data)

    def free(self, slot: int) -> None:
        """Zero and release a slot after its packet left the server."""
        if self._slots[slot] is None:
            raise EmulationError(f"double free of slot {slot} in {self.name}")
        self._slots[slot] = None
        self._lengths[slot] = 0
        self._free.append(slot)


class PointerRing:
    """A bounded FIFO of (ring buffer, slot) references."""

    def __init__(self, capacity: int, name: str = "pr") -> None:
        if capacity < 1:
            raise EmulationError("pointer ring capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._entries: List[Tuple[DataRingBuffer, int]] = []
        self.push_failures = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, buffer: DataRingBuffer, slot: int) -> bool:
        """Append a reference; False when the ring is full."""
        if len(self._entries) >= self.capacity:
            self.push_failures += 1
            return False
        self._entries.append((buffer, slot))
        if len(self._entries) > self.max_depth:
            self.max_depth = len(self._entries)
        return True

    def peek(self) -> Optional[Tuple[DataRingBuffer, int]]:
        """The oldest reference, without removing it."""
        return self._entries[0] if self._entries else None

    def pop(self) -> Tuple[DataRingBuffer, int]:
        """Remove and return the oldest reference."""
        if not self._entries:
            raise EmulationError(f"pop from empty pointer ring {self.name}")
        return self._entries.pop(0)

    def queued_bytes(self) -> int:
        """Bytes referenced by queued pointers (queue-occupancy metric)."""
        return sum(len(buf.read(slot)) for buf, slot in self._entries)
