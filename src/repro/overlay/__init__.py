"""Chimera-like structured peer-to-peer overlay (prefix routing).

Public surface:

* :class:`NodeId` — 40-bit identifiers for nodes, objects, services.
* :class:`ChimeraNode`, :class:`PeerInfo` — the overlay participant.
* :class:`RoutingTable`, :class:`LeafSet` — per-node routing state.
  The "logical tree view" of known peers (a red-black tree in the
  paper) is an ordered view on each node: ``ChimeraNode.view``, a
  tuple of :class:`PeerInfo` sorted by id value, read through
  ``knows()``, ``name_of()`` and ``peers()``.
* Errors: :class:`OverlayError`, :class:`NotJoinedError`,
  :class:`RoutingFailure`.
"""

from repro.overlay.errors import NotJoinedError, OverlayError, RoutingFailure
from repro.overlay.ids import ID_BITS, ID_DIGITS, ID_SPACE, NodeId
from repro.overlay.inspect import ownership_map, ring_diagram, routing_summary
from repro.overlay.node import ChimeraNode, PeerInfo
from repro.overlay.stabilizer import Stabilizer
from repro.overlay.state import LeafSet, RoutingTable

__all__ = [
    "NodeId",
    "ID_BITS",
    "ID_DIGITS",
    "ID_SPACE",
    "ChimeraNode",
    "PeerInfo",
    "RoutingTable",
    "LeafSet",
    "Stabilizer",
    "ring_diagram",
    "routing_summary",
    "ownership_map",
    "OverlayError",
    "NotJoinedError",
    "RoutingFailure",
]
