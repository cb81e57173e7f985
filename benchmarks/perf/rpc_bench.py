"""RPC round trips: kernel events per echo and per routed ``kv.get`` hop.

Every count here is exact, so :data:`EVENT_COUNTS` is a gate that is
safe on any runner: a per-call deadline timer, a ``done`` event per
message or a second process per served request coming back changes a
count at once.  The wall figure (sequential sync echoes per second)
is recorded, not gated.
"""

from __future__ import annotations

import time

from repro.kvstore import DhtKeyValueStore
from repro.net import Link, Network, Route, RpcEndpoint
from repro.overlay import ChimeraNode, NodeId
from repro.sim import RandomSource, Simulator

#: Exact kernel events per case:
#: ``sync_echo_first`` — a plain-handler echo on an idle endpoint
#: (request arrival, response arrival, result, and arming the
#: endpoint's deadline sweep); ``sync_echo`` — the same once the sweep
#: is armed; ``generator_echo`` — a generator handler adds its one
#: serving process's start and end; ``kv_get_hop`` — what one forward
#: adds to a ``kv.get`` (a generator round trip with the owner's
#: processing delay inside); ``send_delivery`` — what delivering a
#: ``Network.send`` message schedules.
EVENT_COUNTS = {
    "sync_echo_first": 4,
    "sync_echo": 3,
    "generator_echo": 5,
    "kv_get_hop": 6,
    "send_delivery": 0,
}


def _lan(n_hosts: int):
    sim = Simulator()
    net = Network(sim, RandomSource(0))
    net.connect_groups(
        "home", "home", Route(Link(sim, bandwidth=95.5e6 / 8), base_latency=0.001)
    )
    return sim, net, [net.add_host(f"node{i:02d}") for i in range(n_hosts)]


def _echo(request):
    return request.body


def _echo_gen(request):
    return request.body
    yield  # a generator handler that never waits


def _round_trip(sim, client, dst, msg_type="echo") -> int:
    before = sim._event_seq
    result = client.call(dst, msg_type, "x")
    assert sim.run(until=result) == "x"
    return sim._event_seq - before


def _echo_counts() -> dict:
    sim, net, hosts = _lan(2)
    client, server = (RpcEndpoint(net, host) for host in hosts)
    server.register("echo", _echo)
    server.register("echo_gen", _echo_gen)
    client.start()
    server.start()
    first = _round_trip(sim, client, server.name)
    sync = _round_trip(sim, client, server.name)
    generator = _round_trip(sim, client, server.name, "echo_gen")
    before = sim._event_seq
    net.send(hosts[0].name, hosts[1].name, "ping")
    scheduled = sim._event_seq - before
    before = sim._event_seq
    sim.run()
    assert scheduled == 1
    return {
        "sync_echo_first": first,
        "sync_echo": sync,
        "generator_echo": generator,
        # The run also fires the armed sweep, which finds nothing.
        "send_delivery": sim._event_seq - before,
    }


def _kv_get_hop() -> int:
    """Events one forward adds to a ``kv.get`` on a four-node overlay."""
    sim, net, hosts = _lan(4)
    nodes = [ChimeraNode(net, host, leaf_size=4) for host in hosts]
    nodes[0].start()
    for node in nodes[1:]:
        sim.run(until=sim.process(node.join(bootstrap=nodes[0].name)))
        sim.run()
    stores = [DhtKeyValueStore(node, cache_enabled=False) for node in nodes]
    sim.run(until=sim.process(stores[0].put("k", "v")))
    key = NodeId.from_name("k")
    owner = next(s for s in stores if key.hex in s.primary)
    origin = next(
        s for s in stores if s is not owner and s.chimera.next_hop(key).name == owner.name
    )

    def get_events(store) -> int:
        before = sim._event_seq
        assert sim.run(until=sim.process(store.get("k"))) == "v"
        return sim._event_seq - before

    get_events(origin)  # arms the origin's deadline sweep
    return get_events(origin) - get_events(owner)


def bench_rpc(n_calls: int = 20_000) -> dict:
    """The exact event counts, plus sequential sync echoes per second."""
    events = {**_echo_counts(), "kv_get_hop": _kv_get_hop()}
    sim, net, hosts = _lan(2)
    client, server = (RpcEndpoint(net, host) for host in hosts)
    server.register("echo", _echo)
    client.start()
    server.start()
    dst = server.name

    def caller():
        for _ in range(n_calls):
            yield client.call(dst, "echo", None)

    t0 = time.perf_counter()
    sim.run(until=sim.process(caller()))
    wall = time.perf_counter() - t0
    return {
        "events": events,
        "event_counts": EVENT_COUNTS,
        "n_calls": n_calls,
        "wall_s": wall,
        "round_trips_per_s": n_calls / wall if wall else 0.0,
    }
