"""The assembled R2C2 stack: per-node control plane and the rack facade.

Also home to two small cross-cutting utilities every subsystem shares:
durable file output (:mod:`.ioutil`) and deterministic seed derivation
(:mod:`.seeds`).
"""

from .ioutil import atomic_write_bytes, atomic_write_json, atomic_write_text
from .node import R2C2Node
from .rack import Rack
from .seeds import SEED_MASK, derive_seed

__all__ = [
    "R2C2Node",
    "Rack",
    "SEED_MASK",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "derive_seed",
]
