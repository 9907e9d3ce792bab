"""The Maze rack-emulation platform, reimplemented in software (paper §4.1).

The paper runs Maze on a 16-server RDMA cluster; here the same
architecture — data ring buffers written by (emulated) RDMA, per-link
pointer rings, zero-copy forwarding, software rate limiters — runs as a
discrete-time in-process emulation, which is the documented substitution
(see DESIGN.md §2).  Packets are real encoded bytes, checksum-verified at
their destination.
"""

from .platform import MazePlatform
from .ratelimit import TokenBucket
from .ringbuffer import DataRingBuffer, PointerRing
from .runner import run_emulation
from .server import SOURCE_APP, MazeOutLink, MazeServer
from .stack import MazeR2C2Stack

__all__ = [
    "DataRingBuffer",
    "MazeOutLink",
    "MazePlatform",
    "MazeR2C2Stack",
    "MazeServer",
    "PointerRing",
    "SOURCE_APP",
    "TokenBucket",
    "run_emulation",
]
