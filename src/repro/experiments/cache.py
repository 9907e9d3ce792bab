"""Content-addressed result cache: atomic per-task records, resume for free.

Each completed task is written to ``<root>/<fp[:2]>/<fp>.json`` where
``fp`` is the task fingerprint (scenario content + replicate + seed +
cache schema version + a digest of the ``repro`` source).  Writes go through
:func:`repro.core.atomic_write_json`, so a campaign killed mid-run leaves
only complete records behind; the next run loads those records as cache
hits and re-executes just the missing tasks.

A record is a small envelope around the task's result dict so the cache is
self-describing::

    {"fingerprint": ..., "key": ..., "scenario": {...},
     "replicate": N, "seed": S, "result": {...}}

Corrupt or unreadable records are treated as misses (and counted), never
as errors — a half-written file from a pre-atomic-write era or a foreign
file in the cache directory must not wedge a campaign.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..core.ioutil import atomic_write_json
from .spec import Task

__all__ = ["ResultCache"]


class ResultCache:
    """Filesystem-backed, content-addressed store of task results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def load(self, task: Task) -> Optional[Dict[str, Any]]:
        """The cached result for *task*, or ``None`` (counted as a miss)."""
        fingerprint = task.fingerprint()
        path = self.path_for(fingerprint)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.corrupt += 1
            self.misses += 1
            return None
        if (
            not isinstance(record, dict)
            or record.get("fingerprint") != fingerprint
            or "result" not in record
        ):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return record["result"]

    def store(self, task: Task, result: Dict[str, Any]) -> Path:
        """Atomically persist *result* for *task*; returns the record path."""
        fingerprint = task.fingerprint()
        path = self.path_for(fingerprint)
        atomic_write_json(
            path,
            {
                "fingerprint": fingerprint,
                "key": task.key,
                "scenario": task.scenario.to_dict(),
                "replicate": task.replicate,
                "seed": task.seed,
                "result": result,
            },
        )
        return path

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "corrupt": self.corrupt}
