"""40-bit identifiers for overlay nodes and stored keys.

The paper: "every object's key is a 40 bit hash value generated by the
object name".  Node identifiers live in the same space, so objects,
services, and nodes share one uniform key-value interface (Section
III-A).  IDs are written as 10 hex digits; prefix routing operates on
those digits (base 16), exactly as in Tapestry/Pastry-style systems.

Performance notes
-----------------
``NodeId`` is immutable and hashable, so :meth:`NodeId.from_name` and
:meth:`NodeId.from_hex` intern their results through an LRU cache —
object names are re-hashed constantly on the DHT request path (every
hop re-parses the key), and SHA-1 plus object construction dominated
lookup cost before interning.  ``from_name`` resolves its hash through
the ``from_hex`` cache, so a name and its hex text give one object
while both are cached.  An id holds its value and its hex text only:
:meth:`NodeId.digit` shifts the value, and :meth:`shared_prefix_len`
is computed from the XOR bit-length instead of a digit-by-digit loop.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache, total_ordering
from typing import Iterable

__all__ = ["ID_BITS", "ID_DIGITS", "ID_SPACE", "NodeId"]

#: Width of the identifier space, bits.
ID_BITS = 40
#: Number of base-16 digits in an identifier.
ID_DIGITS = ID_BITS // 4
#: Size of the identifier space.
ID_SPACE = 1 << ID_BITS


@total_ordering
class NodeId:
    """An identifier in the 40-bit circular key space.

    Immutable and hashable; compares by numeric value.
    """

    __slots__ = ("value", "_hex")

    def __init__(self, value: int) -> None:
        if not 0 <= value < ID_SPACE:
            raise ValueError(
                f"id {value!r} outside the {ID_BITS}-bit space [0, {ID_SPACE})"
            )
        value = int(value)
        object.__setattr__(self, "value", value)
        # hex is read for dict keys / wire payloads on the request path;
        # with interning the format() runs once per distinct id.
        object.__setattr__(self, "_hex", format(value, f"0{ID_DIGITS}x"))

    def __setattr__(self, name: str, val) -> None:  # pragma: no cover
        raise AttributeError("NodeId is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_name(cls, name: str) -> "NodeId":
        """Hash an arbitrary name (object, service, node) into the space."""
        if cls is NodeId:
            return _cached_from_name(name)
        digest = hashlib.sha1(name.encode()).digest()
        return cls(int.from_bytes(digest[:8], "big") >> (64 - ID_BITS))

    @classmethod
    def from_hex(cls, text: str) -> "NodeId":
        """Parse a 10-hex-digit identifier."""
        if cls is NodeId:
            return _cached_from_hex(text)
        if len(text) != ID_DIGITS:
            raise ValueError(f"expected {ID_DIGITS} hex digits, got {text!r}")
        return cls(int(text, 16))

    # -- representation -----------------------------------------------------

    @property
    def hex(self) -> str:
        """The identifier as exactly 10 lowercase hex digits."""
        return self._hex

    def digit(self, index: int) -> int:
        """The base-16 digit at ``index`` (0 is the most significant)."""
        if not 0 <= index < ID_DIGITS:
            raise IndexError(f"digit index {index} outside [0, {ID_DIGITS})")
        return (self.value >> ((ID_DIGITS - 1 - index) << 2)) & 0xF

    def digits(self) -> Iterable[int]:
        """All digits, most significant first."""
        return (self.digit(index) for index in range(ID_DIGITS))

    # -- metrics -------------------------------------------------------------

    def shared_prefix_len(self, other: "NodeId") -> int:
        """Number of leading hex digits shared with ``other``."""
        xor = self.value ^ other.value
        if xor == 0:
            return ID_DIGITS
        return (ID_BITS - xor.bit_length()) >> 2

    def clockwise_distance(self, other: "NodeId") -> int:
        """Ring distance travelling clockwise (increasing) to ``other``."""
        return (other.value - self.value) % ID_SPACE

    def distance(self, other: "NodeId") -> int:
        """Shortest circular distance to ``other``."""
        cw = (other.value - self.value) % ID_SPACE
        return min(cw, ID_SPACE - cw)

    def between(self, low: "NodeId", high: "NodeId") -> bool:
        """True if this id lies on the clockwise arc (low, high].

        With ``low == high`` the arc covers the full ring, so the test
        is always true (a single-node overlay owns every key).
        """
        if low == high:
            return True
        distance_to_self = low.clockwise_distance(self)
        return 0 < distance_to_self <= low.clockwise_distance(high)

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeId) and self.value == other.value

    def __lt__(self, other: "NodeId") -> bool:
        if not isinstance(other, NodeId):
            return NotImplemented
        return self.value < other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"NodeId({self.hex})"

    def __str__(self) -> str:
        return self.hex

    def __reduce__(self):
        # Interned instances pickle by value, not by cache identity.
        return (NodeId, (self.value,))


@lru_cache(maxsize=65536)
def _cached_from_name(name: str) -> NodeId:
    digest = hashlib.sha1(name.encode()).digest()
    value = int.from_bytes(digest[:8], "big") >> (64 - ID_BITS)
    return _cached_from_hex(format(value, f"0{ID_DIGITS}x"))


@lru_cache(maxsize=65536)
def _cached_from_hex(text: str) -> NodeId:
    if len(text) != ID_DIGITS:
        raise ValueError(f"expected {ID_DIGITS} hex digits, got {text!r}")
    return NodeId(int(text, 16))


def clear_id_caches() -> None:
    """Drop all interned ids (used by the perf harness between runs)."""
    _cached_from_name.cache_clear()
    _cached_from_hex.cache_clear()
