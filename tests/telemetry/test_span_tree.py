"""Integration: one request = one connected span tree, across layers.

The satellite acceptance scenario from the observability issue: a
``FetchObject`` whose DHT lookup forwards through at least two overlay
hops and whose payload falls back to the cloud tier must reconstruct as
a single connected span tree — guest command push, control-domain work,
per-hop forwards on other nodes, and the S3 download all parented under
the one ``client.fetch`` root.
"""

import pytest

from repro import Cloud4Home, ClusterConfig
from repro.cluster.config import DeviceConfig
from repro.telemetry import span_dump
from repro.vstore import VStoreError
from repro.vstore.node import object_key
from tests.conftest import install_full_sort_ring_scan, kv_placement


def build_cluster(n: int = 20) -> Cloud4Home:
    """A wide overlay with tiny bins: stores spill to the cloud, and
    DHT routes are long enough to need multi-hop forwarding.

    Replication and caching are off so a lookup forwards the full
    next-hop chain to the owner instead of stopping early at a replica
    or cache holder.
    """
    devices = [
        DeviceConfig(name=f"node{i:02d}", mandatory_mb=2.0, voluntary_mb=2.0)
        for i in range(n)
    ]
    c4h = Cloud4Home(
        ClusterConfig(
            seed=5,
            devices=devices,
            telemetry=True,
            replication_factor=0,
            cache_enabled=False,
            with_ec2=False,
        )
    )
    c4h.start(monitors=False)
    return c4h


def probe_hops(c4h: Cloud4Home, device, key) -> int:
    """Overlay hops from ``device`` to ``key``'s root, by walking the
    same next-hop chain the KV forward loop follows."""
    node = device.chimera
    for count in range(12):
        nh = node.next_hop(key)
        if nh is None:
            return count
        node = c4h.device(nh.name).chimera
    raise AssertionError("routing loop while probing hops")


def pick_multi_hop_scenario(c4h: Cloud4Home):
    """An (object name, fetcher) pair whose meta lookup needs >= 2 hops."""
    best = (None, None, -1)
    for i in range(12):
        name = f"span-tree-{i}.avi"
        key = c4h.devices[0].kv.key_for(object_key(name))
        for device in c4h.devices:
            hops = probe_hops(c4h, device, key)
            if hops > best[2]:
                best = (name, device, hops)
        if best[2] >= 2:
            break
    name, fetcher, hops = best
    assert hops >= 2, f"no >=2-hop route found in a {len(c4h.devices)}-node ring"
    return name, fetcher


class TestFetchSpanTree:
    @pytest.fixture(scope="class")
    def scenario(self):
        c4h = build_cluster()
        name, fetcher = pick_multi_hop_scenario(c4h)
        storer = c4h.devices[0] if c4h.devices[0] is not fetcher else c4h.devices[1]
        # 50 MB into 2 MB bins: placement must spill to the cloud tier.
        stored = c4h.run(storer.client.store_file(name, 50.0))
        assert stored.meta.is_remote
        c4h.telemetry.clear()
        fetched = c4h.run(fetcher.client.fetch_object(name))
        return c4h, name, fetcher, fetched

    def trace_of(self, c4h):
        roots = [s for s in c4h.telemetry.roots() if s.name == "client.fetch"]
        assert len(roots) == 1
        root = roots[0]
        spans = [s for s in c4h.telemetry.spans if s.trace_id == root.trace_id]
        return root, spans

    def test_fetch_fell_back_to_cloud(self, scenario):
        _, _, _, fetched = scenario
        assert fetched.served_from == "remote-cloud"

    def test_single_connected_tree_no_orphans(self, scenario):
        c4h, _, _, _ = scenario
        root, spans = self.trace_of(c4h)
        ids = {s.span_id for s in spans}
        for span in spans:
            if span is root:
                assert span.parent_id is None
            else:
                assert span.parent_id in ids, f"orphan span {span.name}"
        # Every span is reachable from the root (one tree, not a forest).
        reachable = {root.span_id}
        frontier = [root.span_id]
        children: dict[int, list[int]] = {}
        for s in spans:
            if s.parent_id is not None:
                children.setdefault(s.parent_id, []).append(s.span_id)
        while frontier:
            nxt = []
            for pid in frontier:
                for kid in children.get(pid, []):
                    if kid not in reachable:
                        reachable.add(kid)
                        nxt.append(kid)
            frontier = nxt
        assert reachable == ids

    def test_lookup_forwarded_at_least_two_hops(self, scenario):
        c4h, _, fetcher, _ = scenario
        _, spans = self.trace_of(c4h)
        forwards = [s for s in spans if s.name == "kv.forward"]
        assert len(forwards) >= 2
        # The chain crosses nodes: fetcher first, then intermediate hops.
        assert forwards[0].node == fetcher.name
        assert len({s.node for s in forwards}) >= 2
        # Each forward was answered by a handler span on the next node.
        handled = [s for s in spans if s.name == "kv.handle_get"]
        assert len(handled) >= 2

    def test_every_layer_on_the_path_is_present(self, scenario):
        c4h, _, _, _ = scenario
        _, spans = self.trace_of(c4h)
        layers = {s.layer for s in spans}
        # guest -> dom0 -> overlay/kv -> cloud, end to end
        assert {"client", "xensocket", "kvstore", "vstore", "cloud"} <= layers
        names = {s.name for s in spans}
        assert "cloud.fetch" in names and "s3.get" in names

    def test_all_spans_finished_with_sane_times(self, scenario):
        c4h, _, _, _ = scenario
        root, spans = self.trace_of(c4h)
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            assert span.finished, f"unfinished span {span.name}"
            assert span.end >= span.start
            assert span.status == "ok"
            if span.parent_id is not None:
                assert span.start >= by_id[span.parent_id].start
        # The root covers the whole request.
        assert root.end == max(s.end for s in spans)


class TestDeterminism:
    def _spans_for(self):
        devices = [
            DeviceConfig(name=f"d{i}", mandatory_mb=64.0, voluntary_mb=64.0)
            for i in range(4)
        ]
        c4h = Cloud4Home(ClusterConfig(seed=9, devices=devices, telemetry=True))
        c4h.start(monitors=False)
        c4h.run(c4h.devices[0].client.store_file("det.bin", 3.0))
        c4h.run(c4h.devices[2].client.fetch_object("det.bin"))
        return span_dump(c4h.telemetry), kv_placement(c4h)

    def test_identical_spans_under_fast_path(self, monkeypatch):
        """The ring-window peer queries leave every span unchanged."""
        fast = self._spans_for()
        calls = install_full_sort_ring_scan(monkeypatch)
        assert self._spans_for() == fast
        assert calls["nearest_peers"] > 0

    def test_repeat_runs_identical(self):
        assert self._spans_for() == self._spans_for()


class TestOperationStatus:
    def test_store_ends_ok_and_missing_fetch_ends_in_error(self):
        """End to end through the client API: a store's root span ends
        ``ok`` over real simulated time, and fetching an object nobody
        stored ends its root span with an ``error:`` status."""
        c4h = Cloud4Home(ClusterConfig(seed=771, telemetry=True))
        c4h.start(monitors=False)
        device = c4h.devices[0]
        c4h.run(device.client.store_file("t.bin", 2.0))

        def fetch_missing():
            try:
                yield from device.client.fetch_object("nope")
            except VStoreError:
                return "missing"

        assert c4h.run(fetch_missing()) == "missing"
        roots = [
            s
            for s in c4h.telemetry.spans
            if s.parent_id is None and s.layer == "client"
        ]
        assert [s.name for s in roots] == [
            "client.create",
            "client.store",
            "client.fetch",
        ]
        create, store, fetch = roots
        assert create.status == store.status == "ok"
        assert store.end > store.start
        assert fetch.finished
        assert fetch.status.startswith("error:")
        assert fetch.attrs["object"] == "nope"


class TestDisabledByteIdentity:
    def _fetch_result(self, telemetry: bool):
        c4h = Cloud4Home(ClusterConfig(seed=13, telemetry=telemetry))
        c4h.start(monitors=False)
        c4h.run(c4h.devices[0].client.store_file("ident.bin", 5.0))
        fetched = c4h.run(c4h.devices[2].client.fetch_object("ident.bin"))
        return (
            c4h.sim.now,
            fetched.total_s,
            fetched.dht_lookup_s,
            fetched.inter_node_s,
            fetched.inter_domain_s,
            fetched.served_from,
        )

    def test_tracing_never_perturbs_the_simulation(self):
        assert self._fetch_result(False) == self._fetch_result(True)
