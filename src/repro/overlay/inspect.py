"""Introspection helpers for overlay state.

Text renderings of the identifier ring, one node's routing state, and
key-ownership maps — for the CLI, examples, and debugging sessions.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.overlay.ids import ID_DIGITS, NodeId
from repro.overlay.node import ChimeraNode

__all__ = ["ring_diagram", "routing_summary", "ownership_map"]


def ring_diagram(
    nodes: Iterable[ChimeraNode], keys: Optional[dict[str, NodeId]] = None
) -> str:
    """The overlay ring in id order, with optional key markers.

    ``keys`` maps display labels to key ids; each key is drawn under
    the node that owns it.
    """
    members = sorted(nodes, key=lambda n: n.id.value)
    if not members:
        return "(empty overlay)"
    lines = ["ring (clockwise by id):"]
    for node in members:
        marker = f"  {node.id}  {node.name}"
        if not node.joined:
            marker += "  [down]"
        lines.append(marker)
        if keys:
            owned = [
                label
                for label, key in keys.items()
                if _owner(members, key) is node
            ]
            for label in sorted(owned):
                lines.append(f"      `- {label}")
    return "\n".join(lines)


def _owner(members: list[ChimeraNode], key: NodeId) -> ChimeraNode:
    return min(members, key=lambda n: (n.id.distance(key), n.id.value))


def routing_summary(node: ChimeraNode) -> str:
    """One node's routing state: leaf set and populated table rows."""
    lines = [f"node {node.name} ({node.id})"]
    lefts = ", ".join(str(n) for n in node.leaf.lefts()) or "-"
    rights = ", ".join(str(n) for n in node.leaf.rights()) or "-"
    lines.append(f"  leaf set:  left [{lefts}]  right [{rights}]")
    populated = 0
    for row_index in range(ID_DIGITS):
        row = node.table.row(row_index)
        entries = [
            f"{col:x}:{entry}" for col, entry in enumerate(row) if entry
        ]
        if entries:
            populated += len(entries)
            lines.append(f"  row {row_index}: " + "  ".join(entries))
    lines.append(
        f"  known peers: {len(node.view)}, table entries: {populated}"
    )
    return "\n".join(lines)


def ownership_map(
    nodes: Iterable[ChimeraNode], names: Iterable[str]
) -> dict[str, str]:
    """Which live node owns each (hashed) name."""
    members = [n for n in nodes if n.joined]
    if not members:
        raise ValueError("no live nodes")
    out = {}
    for name in names:
        key = NodeId.from_name(name)
        out[name] = _owner(members, key).name
    return out
