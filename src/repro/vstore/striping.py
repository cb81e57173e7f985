"""Erasure-coded striping: the codec math and chunk-placement planning.

PR 4's resilience layer ships ``k`` *full* payload copies of every
object, so redundancy costs ``(copies - 1) x 100%`` extra storage and a
fetch moves the whole payload over one flow.  Striping takes the better
point on the curve (the fine-grain, piece-level access scheme of
Nicolae et al., arXiv 0810.2227): split an object into ``k`` data
chunks plus ``m`` parity chunks — a systematic (k, m) erasure code —
and spread the ``k + m`` chunks across distinct nodes (spilling to the
cloud when the home runs out of distinct holders).  Then:

* **any k** of the ``k + m`` chunks reconstruct the object, so up to
  ``m`` holders may be dead or slow without losing availability;
* a fetch becomes a parallel scatter-gather of chunk pulls whose
  latency is the **max of the fastest k** pulls, not one serial
  full-payload transfer;
* redundancy costs ``m / k`` extra storage instead of
  ``(copies - 1) x 100%`` — (4, 2) striping stores 1.5x the payload
  where 3-way replication stores 3.0x, at the same 2-failure tolerance;
* byte ranges map to data chunks, so :meth:`data_chunks_for_range`
  supports partial reads (``FetchRange``) that move only the covering
  chunks.

This module is pure math + planning — no simulation state, no I/O.
The scatter-gather execution lives in :mod:`repro.vstore.node`
(``_fetch_striped`` over ``Simulator.gather``) and the reconstruction
path in :mod:`repro.resilience.repair`.

Determinism contract: chunk order is index order, placement follows the
caller-supplied (already ranked) candidate list, and nothing here may
iterate an unordered set or draw ambient entropy — simlint scopes
SIM104 and SIM106 to this module with zero baseline entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "StripeCodec",
    "StripingPolicy",
    "chunk_name",
    "object_of",
    "plan_chunk_placement",
]

#: Separator between an object name and its chunk suffix.  Object names
#: come from user traces (filenames); the double marker keeps chunk
#: names out of their namespace.
_CHUNK_SEP = "#~"


def chunk_name(name: str, index: int) -> str:
    """The bin/wire name of chunk ``index`` of object ``name``."""
    if index < 0:
        raise ValueError(f"chunk index must be non-negative, got {index!r}")
    return f"{name}{_CHUNK_SEP}{index}"


def object_of(stored: str) -> str:
    """The object a stored name belongs to: a chunk's object, or a full
    copy's own name."""
    return stored.split(_CHUNK_SEP, 1)[0]


@dataclass(frozen=True)
class StripeCodec:
    """A systematic (k, m) erasure code over object sizes.

    The simulation moves and accounts for *sizes*, not real bytes, so
    the codec is pure arithmetic: ``k`` equal data chunks, ``m`` parity
    chunks of the same size, any ``k`` of the ``k + m`` reconstruct.
    Chunk indices ``0 .. k-1`` are data (chunk ``i`` covers bytes
    ``[i * chunk, (i+1) * chunk)``); ``k .. k+m-1`` are parity.
    """

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k (data chunks) must be >= 1, got {self.k!r}")
        if self.m < 0:
            raise ValueError(f"m (parity chunks) must be >= 0, got {self.m!r}")

    @property
    def n(self) -> int:
        """Total chunk count, data + parity."""
        return self.k + self.m

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per logical byte: (k + m) / k."""
        return self.n / self.k

    def chunk_size_mb(self, size_mb: float) -> float:
        """Size of each chunk (data and parity alike), MB."""
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        return size_mb / self.k

    def stored_mb(self, size_mb: float) -> float:
        """Total MB the stripe occupies across all holders."""
        return self.chunk_size_mb(size_mb) * self.n

    def is_parity(self, index: int) -> bool:
        if not 0 <= index < self.n:
            raise ValueError(f"chunk index {index} out of range for {self}")
        return index >= self.k

    def can_decode(self, available: int) -> bool:
        """Can ``available`` surviving chunks reconstruct the object?"""
        return available >= self.k

    def data_chunks_for_range(
        self, size_mb: float, offset_mb: float, length_mb: float
    ) -> list[int]:
        """Data-chunk indices covering byte range [offset, offset+length).

        Raises :class:`ValueError` when the range falls outside the
        object.  A zero-length range covers no chunks.
        """
        if offset_mb < 0 or length_mb < 0:
            raise ValueError("offset_mb and length_mb must be non-negative")
        if offset_mb + length_mb > size_mb + 1e-9:
            raise ValueError(
                f"range [{offset_mb}, {offset_mb + length_mb}) MB exceeds "
                f"object size {size_mb} MB"
            )
        if length_mb == 0:
            return []
        chunk = self.chunk_size_mb(size_mb)
        if chunk == 0:
            return []
        first = int(offset_mb / chunk)
        last = int(math.ceil((offset_mb + length_mb) / chunk)) - 1
        first = min(first, self.k - 1)
        last = min(last, self.k - 1)
        return list(range(first, last + 1))


@dataclass(frozen=True)
class StripingPolicy:
    """When and how a deployment stripes objects.

    Built by the cluster assembler from
    ``ClusterConfig.striping_tuning``; ``None`` on a
    :class:`~repro.vstore.node.VStoreNode` means striping is off and
    every store takes the replication-era path unchanged.
    """

    codec: StripeCodec = field(default_factory=lambda: StripeCodec(4, 2))
    #: Objects smaller than this keep the replication path — chunking a
    #: tiny object trades one RPC for k + m of them for no bandwidth win.
    min_object_mb: float = 4.0
    #: Erasure encode/decode throughput (MB of logical object data per
    #: second).  Charged at store time (computing parity) and on
    #: degraded reads (reconstructing from a parity chunk).
    codec_mb_s: float = 400.0

    def __post_init__(self) -> None:
        if self.min_object_mb < 0:
            raise ValueError("min_object_mb must be non-negative")
        if self.codec_mb_s <= 0:
            raise ValueError("codec_mb_s must be positive")

    def applies_to(self, size_mb: float) -> bool:
        """Should an object of this size be striped?

        Single-chunk stripes (k == 1, m == 0) would be plain single
        copies with extra bookkeeping, so they are never produced.
        """
        return self.codec.n > 1 and size_mb >= self.min_object_mb

    def codec_time_s(self, size_mb: float) -> float:
        """Seconds to encode (or decode) one object's stripe."""
        return size_mb / self.codec_mb_s


def plan_chunk_placement(
    candidates: Sequence[str], n: int, exclude: Sequence[str] = ()
) -> list[Optional[str]]:
    """Assign ``n`` chunks to distinct holders from a ranked candidate list.

    Each candidate holds at most one chunk — the whole point of
    striping is that one failure costs one chunk, so two chunks on one
    node would silently halve the stripe's failure tolerance.  When the
    ranked list runs out of distinct holders, the remaining slots are
    ``None``: the executor spills those chunks to the remote cloud,
    which is both durable and failure-independent of every home node.

    ``candidates`` must already be ranked (the decision engine's
    output); order is preserved so placement is deterministic for a
    deterministic ranking.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    excluded = frozenset(exclude)
    holders: list[Optional[str]] = []
    seen: set[str] = set()
    for node in candidates:
        if len(holders) == n:
            break
        if node in excluded or node in seen:
            continue
        seen.add(node)
        holders.append(node)
    while len(holders) < n:
        holders.append(None)
    return holders
