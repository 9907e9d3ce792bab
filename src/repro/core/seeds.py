"""Deterministic seed derivation shared by workloads, simulators and sweeps.

A parameter sweep runs many tasks from one *campaign seed*; each task needs
its own RNG stream that is (a) reproducible bit-for-bit on any machine and
in any process — which rules out :func:`hash`, randomized per process —
and (b) distinct from every other task's stream.  :func:`derive_seed`
provides both by hashing the root seed together with a structured task key
through SHA-256 and folding the digest into a 64-bit integer seed.

Campaign task seeds, the fuzzer's slot seeds and the named substreams a
run splits off its own seed (per-link wire loss, failure storms, host-pair
traffic, synthesized fabrics) all come from here.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Sequence

__all__ = ["derive_seed", "SEED_MASK"]

#: Derived seeds are folded into this range (64 bits).
SEED_MASK = (1 << 64) - 1


def _canonical(part: Any) -> Any:
    """Reduce *part* to a JSON-stable structure (no set/dict order hazards)."""
    if part is None or isinstance(part, (bool, int, str)):
        return part
    if isinstance(part, float):
        # repr() round-trips floats exactly and is stable across platforms.
        return f"float:{part!r}"
    if isinstance(part, bytes):
        return f"bytes:{part.hex()}"
    if isinstance(part, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(part.items())}
    if isinstance(part, (list, tuple)):
        return [_canonical(v) for v in part]
    if isinstance(part, (set, frozenset)):
        return sorted(f"{v!r}" for v in part)
    return f"{type(part).__name__}:{part!r}"


def derive_seed(root_seed: int, *key_parts: Any) -> int:
    """A deterministic 64-bit seed for the substream named by *key_parts*.

    With no key parts the root seed is returned unchanged, so existing
    call sites that seed directly (``random.Random(seed)``) keep their
    exact historical streams.  With key parts, the canonical JSON of
    ``[root_seed, *key_parts]`` is hashed with SHA-256; the result is
    stable across processes, platforms and Python versions (unlike
    :func:`hash`, which is salted per process) and changes completely for
    any change in the root seed, any part, or the part order.

    >>> derive_seed(7) == 7
    True
    >>> derive_seed(7, "fig02", "rps") == derive_seed(7, "fig02", "rps")
    True
    >>> derive_seed(7, "fig02", "rps") != derive_seed(7, "rps", "fig02")
    True
    """
    if not key_parts:
        return int(root_seed)
    payload = json.dumps(
        _canonical([int(root_seed), *key_parts]),
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & SEED_MASK
