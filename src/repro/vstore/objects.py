"""Object model: what VStore++ stores and what its metadata says.

"Internally, it uses a standard file system to represent objects, using
a one-to-one mapping of objects to files.  ...  The object name is
hashed, and the object information is routed to a node with an ID
closest to the hash value. ...  The value entry in the key-value store
is a serialized data containing object location and metadata, such as
tags, access information, etc.  The location field can map to a node in
the local home cloud or to a remote cloud." (Sections III / III-A.)

Objects here carry sizes, not real bytes — the simulation moves and
accounts for the bytes; content identity is tracked by version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.vstore.striping import chunk_name

__all__ = ["ObjectMeta", "LOCATION_REMOTE"]

#: Location marker for objects living in the remote cloud.
LOCATION_REMOTE = "@remote-cloud"


@dataclass
class ObjectMeta:
    """An object's entry in the metadata key-value store.

    Every object has one layout, "any :attr:`k` of these n
    :attr:`holders`": a single copy is (1, 1), a copy plus R payload
    replicas is (1, 1+R), and a (k, m) stripe is (k, k+m).  A holder is
    a home node or ``LOCATION_REMOTE``, the cloud.  A full-object
    ``url`` copy in the cloud, when set, backstops every layout.
    """

    name: str
    size_mb: float
    object_type: str = ""
    #: Home node name holding the object, or LOCATION_REMOTE.
    location: str = ""
    #: Which bin on the holding node ("mandatory"/"voluntary"); empty
    #: for remote objects.
    bin_name: str = ""
    #: S3 URL when the object lives in the remote cloud.
    url: Optional[str] = None
    tags: list[str] = field(default_factory=list)
    #: Access level: "private" (only the creating device), "home" (any
    #: device in the home cloud — the default), or "public" (also
    #: federated homes).  The paper stores access information in the
    #: metadata and names richer access control as future work
    #: (Section VII (i)); this reproduction enforces these three levels.
    access: str = "home"
    #: Device that created the object (the subject for "private").
    created_by: str = ""
    created_at: float = 0.0
    version: int = 1
    #: Additional home nodes holding full payload copies (resilience
    #: layer; empty unless ``data_replicas`` placement is enabled).
    replicas: list[str] = field(default_factory=list)
    #: Erasure-code parameters when the object is striped (0/0 for
    #: replication-era full-payload objects): ``stripe_k`` data chunks
    #: plus ``stripe_m`` parity chunks, any k of the k+m reconstruct.
    stripe_k: int = 0
    stripe_m: int = 0
    #: Holder of chunk ``i`` — a home node name, or LOCATION_REMOTE for
    #: chunks spilled to the cloud.  Length k+m when striped, else empty.
    chunk_nodes: list[str] = field(default_factory=list)
    #: Former holders pruned while unreachable (durable-storage
    #: deployments only).  If one comes back with its payload intact,
    #: the Repairer reattaches it instead of re-copying bytes.
    lost_replicas: list[str] = field(default_factory=list)

    VALID_ACCESS = ("private", "home", "public")

    def __post_init__(self) -> None:
        # Sizes arrive as ints from traces and floats from the clients;
        # normalize so equality and wire round-trips are type-stable.
        self.size_mb = float(self.size_mb)
        if not math.isfinite(self.size_mb):
            raise ValueError(f"size_mb must be finite, got {self.size_mb!r}")
        if self.size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        if self.access not in self.VALID_ACCESS:
            raise ValueError(
                f"access must be one of {self.VALID_ACCESS}, got {self.access!r}"
            )
        if not self.object_type and "." in self.name:
            self.object_type = self.name.rsplit(".", 1)[-1].lower()
        if self.stripe_k < 0 or self.stripe_m < 0:
            raise ValueError("stripe_k and stripe_m must be non-negative")
        if (self.stripe_k == 0) != (not self.chunk_nodes):
            raise ValueError(
                "striped metadata needs both stripe_k and chunk_nodes "
                "(or neither)"
            )
        if self.stripe_k and len(self.chunk_nodes) != self.stripe_k + self.stripe_m:
            raise ValueError(
                f"chunk_nodes must list all {self.stripe_k + self.stripe_m} "
                f"holders, got {len(self.chunk_nodes)}"
            )

    def readable_by(self, device: str, same_home: bool = True) -> bool:
        """May ``device`` fetch/process this object?"""
        if self.access == "private":
            return device == self.created_by
        if self.access == "home":
            return same_home
        return True

    @property
    def size_bytes(self) -> float:
        """Size in bytes, as a float.

        Deliberately not an int: ``size_mb`` is itself fractional (trace
        sizes like 0.5 MB), and the transfer models all work in float
        byte counts — rounding here would silently change simulated
        transfer times.
        """
        return self.size_mb * 1024 * 1024

    @property
    def is_remote(self) -> bool:
        return self.location == LOCATION_REMOTE

    @property
    def is_striped(self) -> bool:
        return self.stripe_k > 0

    @property
    def k(self) -> int:
        """How many holders rebuild the object: 1 for full copies."""
        return self.stripe_k or 1

    @property
    def holders(self) -> list[str]:
        """The n holders, slot by slot: one per chunk of a stripe, else
        the primary copy then each replica."""
        if self.stripe_k:
            return list(self.chunk_nodes)
        return [self.location, *self.replicas]

    def slot_name(self, slot: int) -> str:
        """The name holder ``slot`` stores its share under."""
        return chunk_name(self.name, slot) if self.stripe_k else self.name

    def copies(self) -> list[tuple[str, str]]:
        """Every stored share as ``(holder, stored name)``: each holder
        slot's, plus the ``url`` cloud copy."""
        copies = [(node, self.slot_name(slot)) for slot, node in enumerate(self.holders)]
        if self.url is not None and (LOCATION_REMOTE, self.name) not in copies:
            copies.append((LOCATION_REMOTE, self.name))
        return copies

    def wire(self) -> dict:
        data = {
            "name": self.name,
            "size_mb": self.size_mb,
            "object_type": self.object_type,
            "location": self.location,
            "bin_name": self.bin_name,
            "url": self.url,
            "tags": list(self.tags),
            "access": self.access,
            "created_by": self.created_by,
            "created_at": self.created_at,
            "version": self.version,
        }
        # Only on the wire when present: message sizes are derived from
        # the serialized value, so an always-present empty list would
        # change simulated timings for resilience-off deployments.
        if self.replicas:
            data["replicas"] = list(self.replicas)
        if self.lost_replicas:
            data["lost_replicas"] = list(self.lost_replicas)
        if self.stripe_k:
            data["stripe_k"] = self.stripe_k
            data["stripe_m"] = self.stripe_m
            data["chunk_nodes"] = list(self.chunk_nodes)
        return data

    @classmethod
    def from_wire(cls, data: dict) -> "ObjectMeta":
        # Own copies of the lists: ``data`` may be the very value a KV
        # record (and a storage journal) holds, which must not change
        # when this object is edited.
        return cls(
            **{
                name: list(value) if isinstance(value, list) else value
                for name, value in data.items()
            }
        )
