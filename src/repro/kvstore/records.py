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
from typing import Any

from repro.storage.interface import entry_bytes

__all__ = ["OverwritePolicy", "VersionedValue", "Record", "payload_size"]


class OverwritePolicy(Enum):
    """What a put does when the key already exists (Section III-A)."""

    OVERWRITE = "overwrite"
    CHAIN = "chain"
    ERROR = "error"


def payload_size(value: Any) -> int:
    """Approximate wire size of a JSON-serializable value, bytes."""
    return entry_bytes(value, overhead=64)


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
    """

    key_hex: str
    name: str = ""
    versions: list[VersionedValue] = field(default_factory=list)

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

    def wire(self) -> dict:
        return {
            "key": self.key_hex,
            "name": self.name,
            "versions": [v.wire() for v in self.versions],
        }

    @classmethod
    def from_wire(cls, data: dict) -> "Record":
        return cls(
            key_hex=data["key"],
            name=data.get("name", ""),
            versions=[VersionedValue.from_wire(v) for v in data["versions"]],
        )

    def copy(self) -> "Record":
        return Record.from_wire(self.wire())
