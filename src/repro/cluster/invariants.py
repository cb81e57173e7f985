"""System invariants over a running deployment, checked as code.

:func:`check_invariants` reads a :class:`~repro.cluster.Cloud4Home`'s
state, changes nothing, and names every breach of the two durability
invariants, for any object layout (full copies with payload replicas,
a (k, m) stripe, or a cloud-resident object):

* **k reachable holders** — every live object has at least ``k`` of
  its holders online and holding their share (a cloud holder counts
  while the cloud has the share), or a whole copy in the cloud;
* **no orphan payload** — no payload copy or chunk, in any home bin
  or the cloud, outlives its object's metadata.

An object is live while any online node holds its ``object:*``
metadata record, as owner or replica; the newest version wins.  A
store places payloads before it publishes the metadata, so check
between operations, not during one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vstore.node import object_key
from repro.vstore.objects import LOCATION_REMOTE, ObjectMeta
from repro.vstore.striping import object_of

__all__ = ["Violation", "check_invariants", "live_objects"]

_OBJECT_PREFIX = object_key("")


@dataclass(frozen=True)
class Violation:
    """One breached invariant."""

    #: "under-k" (fewer than k reachable holders and no cloud copy) or
    #: "orphan" (a stored payload whose object has no metadata).
    kind: str
    #: The object (for an orphan: the stored copy or chunk name).
    name: str
    detail: str = ""


def live_objects(c4h) -> dict[str, ObjectMeta]:
    """Object name -> newest metadata held by any online node."""
    newest: dict[str, tuple] = {}
    online = c4h.network.hosts
    for device in c4h.devices:
        if not online[device.name].online:
            continue
        for table in (device.kv.primary, device.kv.replicas):
            for record in table.values():
                if not record.name.startswith(_OBJECT_PREFIX):
                    continue
                stamp = (record.version, record.latest.updated_at)
                held = newest.get(record.name)
                if held is None or held[0] < stamp:
                    newest[record.name] = (stamp, record.latest.value)
    return {
        name[len(_OBJECT_PREFIX):]: ObjectMeta.from_wire(value)
        for name, (_, value) in sorted(newest.items())
    }


def check_invariants(c4h) -> list[Violation]:
    """Every breach of the durability invariants, in name order."""
    metas = live_objects(c4h)
    by_name = {device.name: device for device in c4h.devices}
    hosts = c4h.network.hosts
    s3 = c4h.s3
    violations: list[Violation] = []
    for name, meta in metas.items():
        reachable = 0
        for slot, holder in enumerate(meta.holders):
            stored = meta.slot_name(slot)
            if holder == LOCATION_REMOTE:
                reachable += s3.contains(stored)
            else:
                device = by_name.get(holder)
                reachable += (
                    device is not None
                    and hosts[holder].online
                    and device.vstore.holds(stored)
                )
        if reachable < meta.k and not (meta.url and s3.contains(name)):
            violations.append(
                Violation(
                    "under-k",
                    name,
                    f"{reachable}/{len(meta.holders)} holders reachable, need {meta.k}",
                )
            )
    for stored, where in c4h.object_inventory().items():
        if object_of(stored) not in metas:
            violations.append(Violation("orphan", stored, f"on {where['node']}"))
    return sorted(violations, key=lambda v: (v.kind, v.name))
