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

__all__ = ["OverwritePolicy", "VersionedValue", "Record", "PAYLOAD_OVERHEAD", "payload_size"]

#: Bytes a KV wire payload adds to its JSON encoding.
PAYLOAD_OVERHEAD = 64


class OverwritePolicy(Enum):
    """What a put does when the key already exists (Section III-A)."""

    OVERWRITE = "overwrite"
    CHAIN = "chain"
    ERROR = "error"


def payload_size(value: Any) -> int:
    """Approximate wire size of a JSON-serializable value, bytes."""
    return encoded_len(value) + PAYLOAD_OVERHEAD


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
    """

    key_hex: str
    name: str = ""
    versions: list[VersionedValue] = field(default_factory=list)

    #: The cached :meth:`encoded_len`, or None; :meth:`apply` clears it.
    #: A class default rather than a field, so building a record costs
    #: what it did before the cache.
    _encoded_len = None

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
        return {
            "key": self.key_hex,
            "name": self.name,
            "versions": [v.wire() for v in self.versions],
        }

    @classmethod
    def from_wire(cls, data: dict, wire_size: Optional[int] = None) -> "Record":
        """Rebuild a record; ``wire_size`` is the size of the message that
        carried ``data`` alone (its sender's :meth:`wire_size`), if known."""
        record = cls(
            key_hex=data["key"],
            name=data.get("name", ""),
            versions=[VersionedValue.from_wire(v) for v in data["versions"]],
        )
        if wire_size is not None:
            record._encoded_len = wire_size - PAYLOAD_OVERHEAD
        return record

    def copy(self) -> "Record":
        record = Record.from_wire(self.wire())
        record._encoded_len = self._encoded_len
        return record
