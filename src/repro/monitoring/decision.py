"""The ``chimeraGetDecision`` engine: pick target nodes by policy.

"When an object needs to be stored or processed, VStore++ makes a
chimeraGetDecision() call to obtain a list of nodes and for each node,
queries the key-value store for the node's resource information ...
The 'policy' parameter makes it possible to support multiple decision
policies, where requests are routed to target nodes depending on
overall service performance, vs. achieving balanced resource
utilization or improved battery lives for portable devices."
(Section III-A, Figure 2.)

The candidate list is the overlay node's ordered view of known members,
in id order (the paper keeps that view in a red-black tree; here it is
an id -> name dict over a cached sorted-id tuple); each candidate's
snapshot is fetched from the key-value store, so the decision's cost is
real simulated time — the paper's evaluation explicitly includes it.

Snapshot fetches can be issued sequentially (the reference behaviour:
the decision pays the *sum* of the k lookup latencies) or scatter-gather
(``parallel=True``: all k lookups issued concurrently and joined, so the
decision pays roughly the *max*).  Parallel lookups overlap on the links
and therefore change simulated timing — the mode is opt-in via
``ClusterConfig(parallel_decision=True)`` and pinned by its own golden
tests; the ranking produced is identical in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.kvstore import DhtKeyValueStore, KeyNotFoundError
from repro.monitoring.monitor import resource_key
from repro.monitoring.snapshot import ResourceSnapshot
from repro.net import NetworkError
from repro.overlay import ChimeraNode

__all__ = ["DecisionPolicy", "Candidate", "DecisionEngine"]


class DecisionPolicy(Enum):
    """How candidate nodes are ranked."""

    #: Maximize service performance: most idle compute first.
    PERFORMANCE = "performance"
    #: Balance utilization: least-loaded node first.
    BALANCED = "balanced"
    #: Preserve portable devices: mains-powered first, then performance.
    BATTERY = "battery"


@dataclass
class Candidate:
    """A ranked placement candidate."""

    node: str
    snapshot: ResourceSnapshot

    def sort_key(self, policy: DecisionPolicy) -> tuple:
        s = self.snapshot
        if policy is DecisionPolicy.PERFORMANCE:
            return (-s.free_compute_ghz, -s.bandwidth_mbps, -s.mem_free_mb)
        if policy is DecisionPolicy.BALANCED:
            return (s.cpu_load, -s.mem_free_mb, -s.free_compute_ghz)
        if policy is DecisionPolicy.BATTERY:
            battery_rank = 0 if s.on_mains else 1
            drain_guard = 0.0 if s.battery is None else -s.battery
            return (battery_rank, drain_guard, -s.free_compute_ghz)
        raise ValueError(f"unknown policy {policy!r}")


class DecisionEngine:
    """Per-node placement decisions over the overlay's known view."""

    def __init__(
        self,
        chimera: ChimeraNode,
        store: DhtKeyValueStore,
        include_self: bool = True,
        parallel: bool = False,
        freshness_ttl_s: Optional[float] = None,
        breakers=None,
    ) -> None:
        self.chimera = chimera
        self.store = store
        self.include_self = include_self
        #: Scatter-gather snapshot fetch: all candidate lookups issued
        #: concurrently (max-of-k latency) instead of one after another
        #: (sum-of-k).
        self.parallel = parallel
        #: Health filter (resilience layer): drop candidates whose
        #: published snapshot is older than this — a node that stopped
        #: publishing is likely dead, and its stale snapshot would keep
        #: attracting placements.  None disables the filter.
        self.freshness_ttl_s = freshness_ttl_s
        #: Optional :class:`repro.resilience.BreakerRegistry`: drop
        #: candidates whose circuit is currently open.
        self.breakers = breakers
        self.decisions_made = 0
        #: Candidates dropped by the health filters, for diagnostics.
        self.filtered_stale = 0
        self.filtered_open = 0

    @property
    def sim(self):
        return self.chimera.sim

    def decide(
        self,
        policy: DecisionPolicy = DecisionPolicy.PERFORMANCE,
        count: Optional[int] = None,
        require: Optional[Callable[[ResourceSnapshot], bool]] = None,
        among: Optional[list[str]] = None,
        ctx=None,
    ):
        """Process: ranked :class:`Candidate` list (best first).

        ``require`` filters candidates by snapshot (e.g. minimum free
        memory from a service profile); ``among`` restricts to specific
        node names (e.g. only nodes advertising a service).  Nodes that
        never published resources are skipped.
        """
        names = among if among is not None else self._default_candidates()
        tel = self.sim.telemetry
        span = (
            tel.begin(
                "decision.decide",
                layer="decision",
                node=self.chimera.name,
                parent=ctx,
                policy=policy.value,
                candidates=len(names),
                parallel=self.parallel,
            )
            if tel is not None
            else None
        )
        if self.parallel:
            # Scatter-gather: every candidate lookup is in flight at
            # once; the decision waits for the slowest, not the sum.
            snapshots = yield self.sim.gather(
                [self._fetch_snapshot(name, ctx=span) for name in names]
            )
        else:
            snapshots = []
            for name in names:
                snapshots.append((yield from self._fetch_snapshot(name, ctx=span)))
        candidates: list[Candidate] = []
        for name, snapshot in zip(names, snapshots):
            if snapshot is None:
                continue
            if not self._healthy(name, snapshot):
                continue
            if require is not None and not require(snapshot):
                continue
            candidates.append(Candidate(name, snapshot))
        candidates.sort(key=lambda c: c.sort_key(policy))
        self.decisions_made += 1
        if span is not None:
            tel.end(span, ranked=len(candidates))
        if count is not None:
            return candidates[:count]
        return candidates

    def _healthy(self, name: str, snapshot: ResourceSnapshot) -> bool:
        """Health-aware filtering: stale publishers and open breakers.

        Our own snapshot is never stale — we just took it or could; and
        there is no breaker on ourselves.
        """
        if name == self.chimera.name:
            return True
        if (
            self.freshness_ttl_s is not None
            and self.sim.now - snapshot.taken_at > self.freshness_ttl_s
        ):
            self.filtered_stale += 1
            return False
        if self.breakers is not None and self.breakers.is_open(name, self.sim.now):
            self.filtered_open += 1
            return False
        return True

    def _fetch_snapshot(self, name: str, ctx=None):
        """Process: one candidate's published snapshot, or None.

        Candidates that never published (``KeyNotFoundError``) or whose
        lookup hits routing trouble (``NetworkError``) are reported as
        None and skipped by :meth:`decide` — in both fetch modes.
        """
        try:
            value = yield from self.store.get(resource_key(name), ctx=ctx)
        except (KeyNotFoundError, NetworkError):
            return None
        return ResourceSnapshot.from_wire(value)

    def _default_candidates(self) -> list[str]:
        names = [peer.name for peer in self.chimera.peers()]
        if self.include_self:
            names.append(self.chimera.name)
        return names


def chimera_get_decision(
    engine: DecisionEngine,
    policy: DecisionPolicy = DecisionPolicy.PERFORMANCE,
    count: Optional[int] = None,
):
    """Process: the paper's ``chimeraGetDecision()`` call, verbatim.

    A thin named alias over :meth:`DecisionEngine.decide` so code that
    follows the paper's Figure 2 pseudocode reads one-to-one.
    """
    result = yield from engine.decide(policy=policy, count=count)
    return result
