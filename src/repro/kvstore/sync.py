"""Anti-entropy comparison helpers: digests and deterministic winners.

A recovered node and its replica holders reconcile by exchanging
*digests* — compact ``{"v": version, "u": updated_at, "h": hash}``
summaries of each record (tombstones carry ``{"t": True, "u": at}``).
Winner selection must be deterministic regardless of message arrival
order, so ties are broken by a content hash of the canonical JSON
serialization, never by arrival order:

* live vs live — higher version wins, then later ``updated_at``, then
  the lexicographically larger content hash;
* tombstone vs live — the tombstone wins iff it was recorded at or
  after the record's latest write (version numbers restart when a key
  is re-created after a delete, so versions cannot order deletes
  against re-puts; simulated time can, and is globally consistent).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.kvstore.records import Record

__all__ = [
    "content_hash",
    "record_digest",
    "tombstone_digest",
    "digest_beats",
    "record_beats_digest",
    "tombstone_covers",
]


def content_hash(value: Any) -> str:
    """Stable short hash of a record value (canonical JSON)."""
    try:
        blob = json.dumps(value, sort_keys=True, default=str)
    except (TypeError, ValueError):
        blob = repr(value)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def record_digest(record: Record) -> dict:
    """Digest of a live record's latest version."""
    latest = record.latest
    return {
        "v": latest.version,
        "u": latest.updated_at,
        "h": content_hash(latest.value),
    }


def tombstone_digest(at: float) -> dict:
    """Digest of a tombstone: the key's delete time ``at``."""
    return {"t": True, "u": at}


def _rank(digest: dict) -> tuple:
    return (digest.get("v", 0), digest.get("u", 0.0), digest.get("h", ""))


def digest_beats(a: dict, b: dict) -> bool:
    """Does live digest ``a`` strictly beat live digest ``b``?"""
    return _rank(a) > _rank(b)


def record_beats_digest(record: Record, digest: dict) -> bool:
    """Does a local live record strictly beat a remote digest?"""
    return digest_beats(record_digest(record), digest)


def tombstone_covers(tomb_digest: dict, live_digest: dict) -> bool:
    """Does a tombstone (``{"u": at}``) delete this live version?

    True when the delete was recorded at or after the record's latest
    write.  ``>=`` (not ``>``): a delete observed at the same instant
    as the write it removed must still win, or replaying both sides
    would resurrect the record.
    """
    return tomb_digest.get("u", 0.0) >= live_digest.get("u", 0.0)
