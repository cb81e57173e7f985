"""Value model for the metadata key-value store.

Every entry in the store is a :class:`Record` holding one or more
:class:`VersionedValue` items.  A record with multiple versions is a
*chain* (OverwritePolicy.CHAIN appends instead of replacing); the latest
version is what plain ``get`` returns.

Values are JSON-serializable Python data; the store serializes them to
estimate wire sizes, matching the paper's "serialized data containing
object location and metadata, such as tags, access information".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from repro.storage.interface import encoded_len

__all__ = [
    "OverwritePolicy",
    "VersionedValue",
    "Record",
    "PAYLOAD_OVERHEAD",
    "SOFT_STATE_PREFIX",
    "is_soft_state",
    "payload_size",
]

#: Bytes a KV wire payload adds to its JSON encoding.
PAYLOAD_OVERHEAD = 64

#: Name prefix of soft-state records: the resource snapshots every node
#: republishes each monitor period (``repro.monitoring.resource_key``).
SOFT_STATE_PREFIX = "resource:"


class OverwritePolicy(Enum):
    """What a put does when the key already exists (Section III-A)."""

    OVERWRITE = "overwrite"
    CHAIN = "chain"
    ERROR = "error"


def payload_size(value: Any) -> int:
    """Approximate wire size of a JSON-serializable value, bytes."""
    return encoded_len(value) + PAYLOAD_OVERHEAD


def is_soft_state(record: "Record") -> bool:
    """Is ``record`` soft state?  Its owner republishes it on a period
    and readers expire it, so durable backends keep it in RAM only and
    anti-entropy leaves it out."""
    return record.name.startswith(SOFT_STATE_PREFIX)


@dataclass
class VersionedValue:
    """One version of a record's value."""

    value: Any
    version: int
    updated_at: float

    def wire(self) -> dict:
        return {
            "value": self.value,
            "version": self.version,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "VersionedValue":
        return cls(data["value"], data["version"], data["updated_at"])


@dataclass
class Record:
    """A stored key with its version chain.

    ``name`` preserves the human-readable key (object/service name or
    node address) when known; the 40-bit hash is the routing key.

    A record encodes itself for its size at most once per version: the
    owner's journal entry, its reply and its pushes share
    :meth:`encoded_len`, and a receiver takes it from the message size.
    A journaled record also keeps its wire form for the version
    (:meth:`keep_wire`), since the journal holds it anyway: the owner's
    journal entry, reply and pushes share one, and a replica holder
    journals the one it received.
    """

    key_hex: str
    name: str = ""
    versions: list[VersionedValue] = field(default_factory=list)

    #: The cached :meth:`encoded_len` and the kept :meth:`wire`, or
    #: None; :meth:`apply` clears both.  Class defaults rather than
    #: fields, so building a record costs what it did before the caches.
    _encoded_len = None
    _wire = None

    @property
    def latest(self) -> VersionedValue:
        if not self.versions:
            raise LookupError(f"record {self.key_hex} has no versions")
        return self.versions[-1]

    @property
    def version(self) -> int:
        return self.latest.version

    def apply(self, value: Any, policy: OverwritePolicy, now: float) -> None:
        """Apply a put under ``policy``; caller handles KeyExists."""
        next_version = self.versions[-1].version + 1 if self.versions else 1
        entry = VersionedValue(value, next_version, now)
        if policy is OverwritePolicy.CHAIN:
            self.versions.append(entry)
        else:
            self.versions = [entry]
        self._encoded_len = None
        if self._wire is not None:
            del self._wire  # back to the class default, as never kept

    def encoded_len(self, wire: Optional[dict] = None) -> int:
        """Length of :meth:`wire`'s JSON encoding, encoded once per
        version; ``wire``, when given, is :meth:`wire` already built."""
        size = self._encoded_len
        if size is None:
            size = self._encoded_len = encoded_len(self.wire() if wire is None else wire)
        return size

    def wire_size(self, wire: Optional[dict] = None) -> int:
        """:func:`payload_size` of :meth:`wire`: this record's message size."""
        return self.encoded_len(wire) + PAYLOAD_OVERHEAD

    def wire(self) -> dict:
        """The record as message data: the kept wire form, if any, else
        built afresh.  Never edit the result."""
        wire = self._wire
        if wire is None:
            wire = {
                "key": self.key_hex,
                "name": self.name,
                "versions": [v.wire() for v in self.versions],
            }
        return wire

    def keep_wire(self) -> dict:
        """:meth:`wire`, built at most once for this version: for a
        holder that keeps the wire form alive anyway (a journal)."""
        wire = self._wire
        if wire is None:
            wire = self._wire = self.wire()
        return wire

    @classmethod
    def from_wire(
        cls, data: dict, wire_size: Optional[int] = None, keep: bool = False
    ) -> "Record":
        """Rebuild a record; ``wire_size`` is the size of the message that
        carried ``data`` alone (its sender's :meth:`wire_size`), if known.
        ``keep`` makes ``data``, the sender's :meth:`wire`, this record's
        kept wire form."""
        record = cls(
            key_hex=data["key"],
            name=data.get("name", ""),
            versions=[VersionedValue.from_wire(v) for v in data["versions"]],
        )
        if wire_size is not None:
            record._encoded_len = wire_size - PAYLOAD_OVERHEAD
        if keep:
            record._wire = data
        return record

    def copy(self) -> "Record":
        """An independent record: it keeps no wire form."""
        record = Record.from_wire(self.wire())
        record._encoded_len = self._encoded_len
        return record
