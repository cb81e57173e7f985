"""Red-black tree.

The paper (Section III-A / Figure 2): "On each node, Chimera provides a
logical tree view of other nodes in the overlay, implemented as a
red-black tree."  Each overlay node keeps the identifiers of the peers
it knows about in one of these trees; neighbour queries (successor /
predecessor on the ring) and ordered traversal are served from it.

This is a textbook CLRS red-black tree with a nil sentinel, supporting
insert, delete, search, min/max, successor/predecessor, floor/ceiling,
and in-order iteration.  Keys must be mutually orderable; an optional
value is stored alongside each key.  :meth:`RedBlackTree.from_sorted`
builds a tree from already-sorted items in one O(n) pass.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Tuple

__all__ = ["RedBlackTree"]

_RED = True
_BLACK = False


class _Node:
    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key: Any, value: Any, color: bool, nil: "_Node") -> None:
        self.key = key
        self.value = value
        self.color = color
        self.left = nil
        self.right = nil
        self.parent = nil


class RedBlackTree:
    """A mutable ordered map with O(log n) operations."""

    def __init__(self) -> None:
        self._nil = _Node(None, None, _BLACK, None)  # type: ignore[arg-type]
        self._nil.left = self._nil.right = self._nil.parent = self._nil
        self._root = self._nil
        self._size = 0

    @classmethod
    def from_sorted(cls, items: Sequence[Tuple[Any, Any]]) -> "RedBlackTree":
        """A tree holding ``items``: (key, value) pairs in strictly
        ascending key order.  Raises ValueError on unsorted or duplicate
        keys.

        Each subtree's root is the middle item of its range, so levels
        ``0 .. full-1`` are complete and only the deepest level is
        partial.  Colouring that partial level red and everything else
        black gives every root-to-leaf path the same black height with
        no red-red edge — a valid red-black tree without a single
        rotation.
        """
        for (a, _), (b, _) in zip(items, items[1:]):
            if not a < b:
                raise ValueError("from_sorted needs strictly ascending keys")
        tree = cls()
        nil = tree._nil
        full = (len(items) + 1).bit_length() - 1

        def build(lo: int, hi: int, depth: int, parent: _Node) -> _Node:
            # Only called on non-empty ranges [lo, hi).
            mid = (lo + hi) // 2
            key, value = items[mid]
            node = _Node(key, value, _RED if depth >= full else _BLACK, nil)
            node.parent = parent
            if lo < mid:
                node.left = build(lo, mid, depth + 1, node)
            if mid + 1 < hi:
                node.right = build(mid + 1, hi, depth + 1, node)
            return node

        if items:
            tree._root = build(0, len(items), 0, nil)
        tree._size = len(items)
        return tree

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Any) -> bool:
        return self._find(key) is not self._nil

    def get(self, key: Any, default: Any = None) -> Any:
        node = self._find(key)
        return default if node is self._nil else node.value

    def __iter__(self) -> Iterator[Any]:
        yield from (k for k, _ in self.items())

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """In-order (sorted) iteration of (key, value) pairs."""
        stack = []
        node = self._root
        while stack or node is not self._nil:
            while node is not self._nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> list:
        return [k for k, _ in self.items()]

    # -- queries ----------------------------------------------------------------

    def min(self) -> Any:
        """The smallest key; raises KeyError when empty."""
        if self._root is self._nil:
            raise KeyError("min() of an empty tree")
        return self._minimum(self._root).key

    def max(self) -> Any:
        """The largest key; raises KeyError when empty."""
        if self._root is self._nil:
            raise KeyError("max() of an empty tree")
        return self._maximum(self._root).key

    def successor(self, key: Any) -> Optional[Any]:
        """The smallest key strictly greater than ``key`` (or None)."""
        candidate = None
        node = self._root
        while node is not self._nil:
            if node.key > key:
                candidate = node.key
                node = node.left
            else:
                node = node.right
        return candidate

    def predecessor(self, key: Any) -> Optional[Any]:
        """The largest key strictly smaller than ``key`` (or None)."""
        candidate = None
        node = self._root
        while node is not self._nil:
            if node.key < key:
                candidate = node.key
                node = node.right
            else:
                node = node.left
        return candidate

    def floor(self, key: Any) -> Optional[Any]:
        """The largest key <= ``key`` (or None)."""
        candidate = None
        node = self._root
        while node is not self._nil:
            if node.key == key:
                return key
            if node.key < key:
                candidate = node.key
                node = node.right
            else:
                node = node.left
        return candidate

    def ceiling(self, key: Any) -> Optional[Any]:
        """The smallest key >= ``key`` (or None)."""
        candidate = None
        node = self._root
        while node is not self._nil:
            if node.key == key:
                return key
            if node.key > key:
                candidate = node.key
                node = node.left
            else:
                node = node.right
        return candidate

    # -- mutation ------------------------------------------------------------

    def insert(self, key: Any, value: Any = None) -> bool:
        """Insert ``key`` (replacing the value if it already exists);
        returns True if the key is new."""
        parent = self._nil
        node = self._root
        while node is not self._nil:
            parent = node
            if key == node.key:
                node.value = value
                return False
            node = node.left if key < node.key else node.right
        fresh = _Node(key, value, _RED, self._nil)
        fresh.parent = parent
        if parent is self._nil:
            self._root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self._size += 1
        self._insert_fixup(fresh)
        return True

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns False if it was not present."""
        node = self._find(key)
        if node is self._nil:
            return False
        self._delete_node(node)
        self._size -= 1
        return True

    # -- internal: search helpers -------------------------------------------

    def _find(self, key: Any) -> _Node:
        node = self._root
        while node is not self._nil:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return self._nil

    def _minimum(self, node: _Node) -> _Node:
        while node.left is not self._nil:
            node = node.left
        return node

    def _maximum(self, node: _Node) -> _Node:
        while node.right is not self._nil:
            node = node.right
        return node

    # -- internal: rotations and fixups ---------------------------------------

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not self._nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not self._nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is self._nil:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent.color is _RED:
            if z.parent is z.parent.parent.left:
                uncle = z.parent.parent.right
                if uncle.color is _RED:
                    z.parent.color = _BLACK
                    uncle.color = _BLACK
                    z.parent.parent.color = _RED
                    z = z.parent.parent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = _BLACK
                    z.parent.parent.color = _RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = z.parent.parent.left
                if uncle.color is _RED:
                    z.parent.color = _BLACK
                    uncle.color = _BLACK
                    z.parent.parent.color = _RED
                    z = z.parent.parent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = _BLACK
                    z.parent.parent.color = _RED
                    self._rotate_left(z.parent.parent)
        self._root.color = _BLACK

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _delete_node(self, z: _Node) -> None:
        y = z
        y_original_color = y.color
        if z.left is self._nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is self._nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_original_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_original_color is _BLACK:
            self._delete_fixup(x)

    def _delete_fixup(self, x: _Node) -> None:
        while x is not self._root and x.color is _BLACK:
            if x is x.parent.left:
                sibling = x.parent.right
                if sibling.color is _RED:
                    sibling.color = _BLACK
                    x.parent.color = _RED
                    self._rotate_left(x.parent)
                    sibling = x.parent.right
                if sibling.left.color is _BLACK and sibling.right.color is _BLACK:
                    sibling.color = _RED
                    x = x.parent
                else:
                    if sibling.right.color is _BLACK:
                        sibling.left.color = _BLACK
                        sibling.color = _RED
                        self._rotate_right(sibling)
                        sibling = x.parent.right
                    sibling.color = x.parent.color
                    x.parent.color = _BLACK
                    sibling.right.color = _BLACK
                    self._rotate_left(x.parent)
                    x = self._root
            else:
                sibling = x.parent.left
                if sibling.color is _RED:
                    sibling.color = _BLACK
                    x.parent.color = _RED
                    self._rotate_right(x.parent)
                    sibling = x.parent.left
                if sibling.right.color is _BLACK and sibling.left.color is _BLACK:
                    sibling.color = _RED
                    x = x.parent
                else:
                    if sibling.left.color is _BLACK:
                        sibling.right.color = _BLACK
                        sibling.color = _RED
                        self._rotate_left(sibling)
                        sibling = x.parent.left
                    sibling.color = x.parent.color
                    x.parent.color = _BLACK
                    sibling.left.color = _BLACK
                    self._rotate_right(x.parent)
                    x = self._root
        x.color = _BLACK

    # -- invariant checking (used by the test suite) --------------------------

    def check_invariants(self) -> None:
        """Assert the red-black invariants; raises AssertionError if violated.

        1. The root is black.
        2. No red node has a red child.
        3. Every root-to-leaf path has the same number of black nodes.
        4. In-order traversal yields strictly increasing keys.
        5. Every child's parent link points back at its parent.
        """
        assert self._root.color is _BLACK, "root must be black"
        assert self._root is self._nil or self._root.parent is self._nil, (
            "root has a parent"
        )
        self._check_subtree(self._root)
        keys = self.keys()
        assert all(a < b for a, b in zip(keys, keys[1:])), "keys out of order"
        assert len(keys) == self._size, "size counter out of sync"

    def _check_subtree(self, node: _Node) -> int:
        if node is self._nil:
            return 1
        if node.color is _RED:
            assert node.left.color is _BLACK and node.right.color is _BLACK, (
                "red node with red child"
            )
        for child in (node.left, node.right):
            assert child is self._nil or child.parent is node, "broken parent link"
        left_black = self._check_subtree(node.left)
        right_black = self._check_subtree(node.right)
        assert left_black == right_black, "black-height mismatch"
        return left_black + (1 if node.color is _BLACK else 0)
