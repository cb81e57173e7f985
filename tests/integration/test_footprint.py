"""Memory footprint: idle per-node structures allocate nothing.

A 10k-node overlay builds four resources, a host inbox, a KV store and
a routing table per device, and most of them never queue, never look
anything up, or fill only a few routing rows.  These tests pin that
those idle structures stay unallocated, that a routing table with
rows allocated on first use answers like a dense one, that a started
1,000-node overlay stays under a traced-bytes-per-node budget and a
GC-tracked-objects-per-node budget, and that the endpoints of a
default home serve their protocols from shared class-level handler
tables.
"""

import gc
import tracemalloc
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cloud4Home, ClusterConfig, scale_overlay
from repro.kvstore import KvStats
from repro.overlay import ID_DIGITS, ID_SPACE, NodeId, RoutingTable
from repro.overlay.ids import clear_id_caches
from repro.sim import Resource, Simulator, Store

#: Traced bytes per node of a started ``scale_overlay(1000, seed=0)``
#: in a fresh interpreter: 8,348 B (CPython 3.11), plus a 10% margin.
#: Keeping each node's view as an id -> name dict beside a sorted-id
#: tuple, with no ``__slots__`` on the routing table and leaf set,
#: reads 9,642; a per-endpoint dict of bound RPC handlers, a member set
#: beside the leaf ring and a digit tuple per id as well read 12,015;
#: keeping a red-black tree of each node's known peers beside its
#: sorted-id tuple too reads ~13,950; allocating every idle queue and
#: routing row up front too reads ~20,600.
BYTES_PER_NODE_BUDGET = 9_200

#: GC-tracked objects per node of the same started overlay: 60.2, plus
#: a small margin (61.2 with the id -> name view dict above, 82.2 with
#: the per-endpoint handler dicts, leaf member sets and id digit tuples
#: as well).
OBJECTS_PER_NODE_BUDGET = 62.0


def queues(obj) -> list:
    return [value for value in vars(obj).values() if isinstance(value, deque)]


class TestIdleContainers:
    def test_idle_resource_store_and_stats_allocate_no_queue(self):
        sim = Simulator()
        assert queues(Store(sim)) == []
        assert queues(KvStats()) == []
        cpu = Resource(sim, capacity=1)
        cpu.request()  # granted at once: nothing waits
        assert queues(cpu) == []
        cpu.request()
        assert len(queues(cpu)) == 1


class TestRoutingRows:
    def test_one_row_per_non_empty_row(self):
        owner = NodeId.from_hex("a000000000")
        table = RoutingTable(owner)
        assert table._rows == [None] * ID_DIGITS
        peers = [NodeId.from_hex(h) for h in ("b000000000", "c000000000", "ab00000000")]
        for peer in peers:
            table.add(peer)
        assert sum(row is not None for row in table._rows) == 2
        assert table.row(5) == [None] * RoutingTable.COLUMNS
        table.remove(peers[2])
        assert sum(row is not None for row in table._rows) == 1

    @given(
        st.integers(min_value=0, max_value=ID_SPACE - 1),
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=ID_SPACE - 1),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_a_dense_table(self, value, ops):
        """Same answers as a fully allocated 16-slot-per-row table, over
        adds and removes of peers that share 0-4+ digits with the owner."""
        owner = NodeId(value)
        ops = [
            (add, NodeId(value ^ (bits >> (4 * shared)))) for add, shared, bits in ops
        ]
        table = RoutingTable(owner)
        dense = [[None] * RoutingTable.COLUMNS for _ in range(ID_DIGITS)]
        for add, node in ops:
            row = owner.shared_prefix_len(node)
            if row >= ID_DIGITS:
                continue
            col = node.digit(row)
            if add:
                assert table.add(node) == (dense[row][col] is None)
                if dense[row][col] is None:
                    dense[row][col] = node
            else:
                assert table.remove(node) == (dense[row][col] == node)
                if dense[row][col] == node:
                    dense[row][col] = None
        assert [table.row(i) for i in range(ID_DIGITS)] == dense
        assert list(table.entries()) == [n for row in dense for n in row if n is not None]
        assert sum(row is not None for row in table._rows) == sum(
            any(node is not None for node in row) for row in dense
        )
        for _, node in ops:
            row = owner.shared_prefix_len(node)
            expected = dense[row][node.digit(row)] if row < ID_DIGITS else None
            assert table.lookup(node) == expected
            assert (node in table) == (expected == node)


def test_started_overlay_stays_under_its_bytes_per_node_budget():
    n = 1000
    gc.collect()
    tracemalloc.start()
    try:
        c4h = Cloud4Home(scale_overlay(n, seed=0))
        c4h.start(monitors=False, publish=False)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(c4h.devices) == n
    assert traced / n < BYTES_PER_NODE_BUDGET, f"{traced / n:.0f} B/node"


def test_started_overlay_stays_under_its_objects_per_node_budget():
    n = 1000
    clear_id_caches()
    gc.collect()
    before = len(gc.get_objects())
    c4h = Cloud4Home(scale_overlay(n, seed=0))
    c4h.start(monitors=False, publish=False)
    gc.collect()
    per_node = (len(gc.get_objects()) - before) / n
    assert len(c4h.devices) == n
    assert per_node <= OBJECTS_PER_NODE_BUDGET, f"{per_node:.1f} objects/node"


def test_default_home_endpoints_share_one_handler_table():
    c4h = Cloud4Home(ClusterConfig(seed=3))
    c4h.start()
    endpoints = [d.chimera.endpoint for d in c4h.devices]
    assert len({id(ep) for ep in endpoints}) == len(c4h.devices)
    assert len({id(ep._table) for ep in endpoints}) == 1
    for ep in endpoints:
        assert ep._adhoc is None, ep.name
