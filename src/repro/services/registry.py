"""Service discovery through the key-value store.

"Every node registers its list of services with the key-value store
using a service name concatenated with service ID as key, and a value
that is a list of nodes supporting a service along with a service
policy." (Section IV.)

Registration is a read-modify-write on the shared entry; the overwrite
policy of the KV store keeps the latest list authoritative.
"""

from __future__ import annotations

from typing import Optional

from repro.kvstore import DhtKeyValueStore, KeyNotFoundError
from repro.services.base import Service, ServiceProfile

__all__ = ["ServiceRegistry", "service_key"]


def service_key(qualified_name: str) -> str:
    """KV-store key for a service's availability entry."""
    return f"service:{qualified_name}"


class ServiceRegistry:
    """Per-node view of which nodes host which services."""

    def __init__(self, store: DhtKeyValueStore) -> None:
        self.store = store
        #: Services this node itself hosts, by qualified name.
        self.local: dict[str, Service] = {}

    @property
    def name(self) -> str:
        return self.store.name

    @property
    def sim(self):
        return self.store.sim

    def register(self, service: Service, policy: Optional[str] = None):
        """Process: announce that this node hosts ``service``."""
        self.local[service.qualified_name] = service
        key = service_key(service.qualified_name)
        entry = yield from self._read_entry(key)
        if entry is None:
            entry = {"nodes": [], "policy": None, "profile": {}}
        if self.name not in entry["nodes"]:
            entry["nodes"].append(self.name)
        if policy is not None:
            entry["policy"] = policy
        entry["profile"] = self._profile_wire(service.profile)
        if service.node_profiles:
            entry["profiles_by_type"] = {
                device_type: self._profile_wire(profile)
                for device_type, profile in service.node_profiles.items()
            }
        yield from self.store.put(key, entry)
        return entry

    @staticmethod
    def _profile_wire(profile: ServiceProfile) -> dict:
        return {
            "min_mem_mb": profile.min_mem_mb,
            "min_free_compute_ghz": profile.min_free_compute_ghz,
            "parallelism": profile.parallelism,
        }

    def deregister(self, service: Service):
        """Process: withdraw this node from the service's node list."""
        self.local.pop(service.qualified_name, None)
        key = service_key(service.qualified_name)
        entry = yield from self._read_entry(key)
        if entry is None:
            return None
        if self.name in entry["nodes"]:
            entry["nodes"].remove(self.name)
        yield from self.store.put(key, entry)
        return entry

    def lookup(self, qualified_name: str, ctx=None):
        """Process: nodes currently advertising the service.

        Returns the registry entry dict: ``nodes`` (list of names),
        ``policy`` (optional placement hint), ``profile`` (minimum
        resource requirements).  Raises KeyNotFoundError if the service
        was never registered.
        """
        value = yield from self.store.get(service_key(qualified_name), ctx=ctx)
        return value

    def profile_of(self, entry: dict, device_type: str = "") -> ServiceProfile:
        """Reconstruct the ServiceProfile from a registry entry.

        A per-node-type override (if the service registered one for
        ``device_type``) wins over the generic profile.
        """
        data = entry.get("profiles_by_type", {}).get(device_type) or entry.get(
            "profile", {}
        )
        return ServiceProfile(
            min_mem_mb=data.get("min_mem_mb", 0.0),
            min_free_compute_ghz=data.get("min_free_compute_ghz", 0.0),
            parallelism=int(data.get("parallelism", 1)),
        )

    def admitter(self, entry: dict):
        """Predicate checking a snapshot against the entry's profile
        for that node's device type."""

        def admits(snapshot) -> bool:
            return self.profile_of(entry, snapshot.device_type).admits(snapshot)

        return admits

    def hosts_locally(self, qualified_name: str) -> bool:
        """Does this node itself run the service? (Fetch-and-process
        first checks the requester, then the owner — Section III-B.)"""
        return qualified_name in self.local

    def _read_entry(self, key: str):
        """Process: a private, editable copy of the entry (None if the
        service was never registered).  The fetched value itself is the
        one the store holds, so it is never edited in place."""
        try:
            entry = yield from self.store.get(key)
        except KeyNotFoundError:
            return None
        return {**entry, "nodes": list(entry["nodes"])}
