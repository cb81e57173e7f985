"""Shared test fixtures and builders."""

from repro.net import Link, Network, Route
from repro.overlay import ChimeraNode, PeerInfo
from repro.sim import RandomSource, Simulator


def build_lan(
    n_hosts,
    seed=0,
    latency=0.001,
    bandwidth=95.5e6 / 8,
    jitter=0.0,
):
    """A simulator + network with ``n_hosts`` home hosts on one LAN."""
    sim = Simulator()
    net = Network(sim, RandomSource(seed))
    link = Link(sim, bandwidth=bandwidth, name="lan")
    net.connect_groups(
        "home", "home", Route(link, base_latency=latency, jitter=jitter)
    )
    hosts = [net.add_host(f"node{i:02d}", group="home") for i in range(n_hosts)]
    return sim, net, hosts


def build_overlay(n_nodes, seed=0, leaf_size=4, **lan_kwargs):
    """A fully joined overlay of ``n_nodes`` on a home LAN.

    Nodes join sequentially through node00 as the bootstrap, which is
    how a home deployment grows.  Returns (sim, net, nodes).
    """
    sim, net, hosts = build_lan(n_nodes, seed=seed, **lan_kwargs)
    nodes = [ChimeraNode(net, host, leaf_size=leaf_size) for host in hosts]
    nodes[0].start()
    for node in nodes[1:]:
        proc = sim.process(node.join(bootstrap=nodes[0].name))
        sim.run(until=proc)
        sim.run()  # drain join announcements before the next join
    return sim, net, nodes


def kv_placement(c4h):
    """Each device's primary and replica key sets: where peer selection
    put every KV record.  End-to-end oracle checks compare this, so a
    wrong peer window shows up even when latencies happen to agree."""
    return {
        d.name: (sorted(d.kv.primary), sorted(d.kv.replicas)) for d in c4h.devices
    }


def install_full_sort_ring_scan(monkeypatch):
    """Swap ChimeraNode's ring-window peer queries for their O(N)
    definitions: ``nearest_peers`` as a full sort of the known view by
    ``(circular distance, id value)`` and ``closest_known`` as a linear
    minimum over the view and the node itself.

    A simulation run under these oracles must match the ring-window
    run byte for byte.  Returns a dict counting calls to each oracle so
    a test can check they were really exercised.
    """
    calls = {"nearest_peers": 0, "closest_known": 0}

    def nearest_peers(self, key, count):
        calls["nearest_peers"] += 1
        if count <= 0:
            return []
        return sorted(self.view, key=lambda p: (p.id.distance(key), p.id.value))[:count]

    def closest_known(self, key):
        calls["closest_known"] += 1
        return min(
            [PeerInfo(self.name, self.id), *self.view],
            key=lambda p: (p.id.distance(key), p.id.value),
        )

    monkeypatch.setattr(ChimeraNode, "nearest_peers", nearest_peers)
    monkeypatch.setattr(ChimeraNode, "closest_known", closest_known)
    return calls
