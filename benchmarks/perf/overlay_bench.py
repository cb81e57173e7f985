"""48-node overlay lookup storm: wall time and kernel events."""

from __future__ import annotations

import time

from repro.overlay import NodeId
from repro.overlay import ids as overlay_ids

from tests.conftest import build_overlay


def bench_overlay(n_nodes: int = 48, n_lookups: int = 1000) -> dict:
    """Build the overlay and resolve ``n_lookups`` keys from rotating
    origins; interning caches start cold."""
    overlay_ids.clear_id_caches()
    t0 = time.perf_counter()
    sim, _net, nodes = build_overlay(n_nodes, seed=7)
    for i in range(n_lookups):
        key = NodeId.from_name(f"storm-{i % 250}")
        origin = nodes[i % len(nodes)]
        sim.run(until=sim.process(origin.resolve(key)))
    wall = time.perf_counter() - t0
    return {
        "n_nodes": n_nodes,
        "n_lookups": n_lookups,
        "wall_s": wall,
        "events": sim._event_seq,
        "simulated_s": sim.now,
    }
