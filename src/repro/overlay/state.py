"""Per-node routing state: prefix routing table and leaf set.

Chimera provides "functionality to that of prefix routing protocols like
Tapestry and Pastry" (Section III-A).  Each node therefore keeps:

* a :class:`RoutingTable` — rows indexed by shared-prefix length, 16
  columns per row (one per hex digit); the entry at (r, c) is a node
  whose ID shares an r-digit prefix with ours and whose next digit is c;
* a :class:`LeafSet` — the ``per_side`` numerically closest nodes on
  each side of our ID on the ring, used for the final hop(s) and as the
  "left and right nodes" that join/leave notifications target.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from repro.overlay.ids import ID_DIGITS, NodeId

__all__ = ["RoutingTable", "LeafSet"]


class RoutingTable:
    """Pastry-style prefix routing table (first-writer-wins slots).

    A row is allocated when its first slot fills and dropped when its
    last one empties: in an N-node overlay only about log16(N) of the
    ``ID_DIGITS`` rows hold anything, so an empty row is ``None``.
    """

    COLUMNS = 16

    __slots__ = ("owner", "_rows")

    def __init__(self, owner: NodeId) -> None:
        self.owner = owner
        self._rows: list[Optional[list[Optional[NodeId]]]] = [None] * ID_DIGITS

    def add(self, node: NodeId) -> bool:
        """Record ``node``; returns True if it filled an empty slot.

        The physical-proximity refinement of real Pastry is out of scope
        (the home LAN is flat), so an occupied slot is kept as-is.
        """
        row = self.owner.shared_prefix_len(node)
        if row >= ID_DIGITS:
            return False  # our own id
        slots = self._rows[row]
        if slots is None:
            slots = self._rows[row] = [None] * self.COLUMNS
        col = node.digit(row)
        if slots[col] is None:
            slots[col] = node
            return True
        return False

    def remove(self, node: NodeId) -> bool:
        """Forget ``node`` (e.g. it failed); returns True if present."""
        row = self.owner.shared_prefix_len(node)
        if row >= ID_DIGITS:
            return False  # our own id
        slots = self._rows[row]
        if slots is None:
            return False
        col = node.digit(row)
        if slots[col] == node:
            slots[col] = None
            if slots.count(None) == self.COLUMNS:
                self._rows[row] = None
            return True
        return False

    def lookup(self, key: NodeId) -> Optional[NodeId]:
        """The next-hop entry for ``key``, or None if the slot is empty."""
        row = self.owner.shared_prefix_len(key)
        if row >= ID_DIGITS:
            return None  # key equals our own id
        slots = self._rows[row]
        return None if slots is None else slots[key.digit(row)]

    def row(self, index: int) -> list[Optional[NodeId]]:
        """A copy of row ``index`` (used to seed joining nodes)."""
        slots = self._rows[index]
        return [None] * self.COLUMNS if slots is None else list(slots)

    def entries(self) -> Iterable[NodeId]:
        """All populated entries."""
        for slots in self._rows:
            if slots is not None:
                for entry in slots:
                    if entry is not None:
                        yield entry

    def __contains__(self, node: NodeId) -> bool:
        row = self.owner.shared_prefix_len(node)
        if row >= ID_DIGITS:
            return False
        slots = self._rows[row]
        return slots is not None and slots[node.digit(row)] == node


class LeafSet:
    """The numerically closest neighbours on each side of the owner.

    The members are one list in clockwise ring order from the owner
    (closest first), at most ``per_side`` on each side: a new member is
    inserted in order and the list pruned at once, so the ring views
    below, read on every uncached routing decision, never sort.
    Clockwise distances from the owner are distinct, so the
    counter-clockwise order is exactly the clockwise order reversed.
    """

    __slots__ = ("owner", "per_side", "_ring")

    def __init__(self, owner: NodeId, per_side: int = 4) -> None:
        if per_side <= 0:
            raise ValueError("per_side must be positive")
        self.owner = owner
        self.per_side = per_side
        self._ring: list[NodeId] = []

    def __len__(self) -> int:
        return len(self._ring)

    def __contains__(self, node: NodeId) -> bool:
        return self._find(node)[1]

    def members(self) -> set[NodeId]:
        return set(self._ring)

    def add(self, node: NodeId) -> None:
        index, present = self._find(node)
        if not present and node != self.owner:
            self._ring.insert(index, node)
            self._prune()

    def update(self, nodes: Iterable[NodeId]) -> None:
        merged = set(self._ring).union(nodes)
        merged.discard(self.owner)
        if len(merged) != len(self._ring):
            self._ring = sorted(merged, key=self.owner.clockwise_distance)
            self._prune()

    def remove(self, node: NodeId) -> bool:
        index, present = self._find(node)
        if present:
            del self._ring[index]
        return present

    # -- ring-ordered views --------------------------------------------------

    def rights(self) -> list[NodeId]:
        """Members ordered clockwise from the owner (closest first)."""
        return self._ring[: self.per_side]

    def lefts(self) -> list[NodeId]:
        """Members ordered counter-clockwise from the owner."""
        return self._ring[: -self.per_side - 1 : -1]

    def neighbours(self) -> list[NodeId]:
        """Immediate left and right neighbours (0, 1, or 2 nodes)."""
        ring = self._ring
        return [ring[0], ring[-1]] if len(ring) > 1 else list(ring)

    def covers(self, key: NodeId) -> bool:
        """True if ``key`` falls within the leaf-set arc.

        When the set is not full the node effectively knows its whole
        vicinity, so the leaf set covers every key.
        """
        per_side = self.per_side
        ring = self._ring
        if len(ring) < 2 * per_side:
            return True
        # The farthest left and farthest right members bound the arc.
        return key.between(ring[-per_side], ring[per_side - 1])

    def closest(self, key: NodeId) -> NodeId:
        """Member (or the owner) numerically closest to ``key``.

        Ties break toward the smaller identifier so every node resolves
        ownership identically.
        """
        candidates = [self.owner, *self._ring]
        return min(candidates, key=lambda n: (n.distance(key), n.value))

    # -- internal ------------------------------------------------------------

    def _prune(self) -> None:
        """Keep only the per-side closest members in each direction."""
        # With <= 2*per_side members the two windows cover everything
        # and pruning is a no-op.
        per_side = self.per_side
        if len(self._ring) > 2 * per_side:
            del self._ring[per_side:-per_side]

    def _find(self, node: NodeId) -> tuple[int, bool]:
        """``node``'s index in the ring order, and whether it is there."""
        ring = self._ring
        distance = self.owner.clockwise_distance
        index = bisect_left(ring, distance(node), key=distance)
        return index, index < len(ring) and ring[index] == node
