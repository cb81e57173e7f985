"""Fault injection for Cloud4Home deployments.

The home environment's defining property is dynamism: "nodes may
periodically go off-line and become unavailable" (Section III), and the
paper's future work asks for "mechanisms that adapt to the changing
network conditions" (Section VII (iv)).  The :class:`ChaosSchedule`
scripts that dynamism against a running deployment:

* **crash** — a device fails abruptly (no notifications);
* **leave** — a device departs gracefully (keys handed off first);
* **revive** — a crashed device comes back and rejoins the overlay;
* **degrade / restore** — a link's capacity drops (e.g. the wireless
  uplink during rain) and later recovers;
* **flap_link** — a link oscillates between degraded and healthy;
* **partition / heal** — the fabric splits into sides that cannot
  reach each other, then rejoins;
* **drop_messages** — control messages are silently lost with a given
  probability (the failure the sender cannot distinguish from
  slowness).

Fault times are relative delays (seconds after :meth:`start`, or after
scheduling for faults added to a running schedule); the applied sequence
is recorded in ``events`` for assertions and post-mortems.

:class:`RandomChaos` builds a seeded random-but-safe schedule from
these primitives — the same seed always produces the same script, and
invariants a naive random script would break (too many devices down at
once, a device crashed forever) are guaranteed by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.builder import Cloud4Home, Device
from repro.net import Link
from repro.sim import RandomSource

__all__ = ["ChaosSchedule", "ChaosEvent", "RandomChaos"]


@dataclass
class ChaosEvent:
    """One applied fault, for the post-mortem log."""

    at: float
    kind: str
    target: str
    detail: str = ""


class ChaosSchedule:
    """Scripted fault sequence against one deployment."""

    def __init__(self, cluster: Cloud4Home) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.events: list[ChaosEvent] = []
        self._pending: list = []
        self._started = False
        #: Per-link healthy bandwidth, captured the first time a link is
        #: degraded — restores always return to this exact value even
        #: when degrades overlap.
        self._baselines: dict[str, float] = {}
        #: Per-link stack of currently active degrade factors.
        self._degrades: dict[str, list[float]] = {}

    # -- schedule construction (fluent) -----------------------------------

    def crash(self, after: float, device_name: str) -> "ChaosSchedule":
        """Abrupt failure: the device vanishes without a word."""
        self._add(after, self._do_crash, device_name)
        return self

    def leave(self, after: float, device_name: str) -> "ChaosSchedule":
        """Graceful departure: keys are redistributed first."""
        self._add(after, self._do_leave, device_name)
        return self

    def revive(
        self, after: float, device_name: str, bootstrap: Optional[str] = None
    ) -> "ChaosSchedule":
        """A crashed/departed device rejoins the overlay."""
        self._add(after, self._do_revive, device_name, bootstrap)
        return self

    def degrade_link(
        self,
        after: float,
        link: Link,
        factor: float,
        duration: Optional[float] = None,
    ) -> "ChaosSchedule":
        """Scale a link's bandwidth by ``factor`` (restoring after
        ``duration`` seconds, if given).

        Overlapping degrades compound multiplicatively; each restore
        recomputes the bandwidth from the link's healthy baseline and
        the degrades still active, so when the last one ends the link
        is back at its exact original capacity.
        """
        if not 0 < factor:
            raise ValueError("factor must be positive")
        self._add(after, self._do_degrade, link, factor, duration)
        return self

    def flap_link(
        self,
        after: float,
        link: Link,
        factor: float,
        period: float,
        count: int,
    ) -> "ChaosSchedule":
        """Oscillate a link: degraded by ``factor`` for half of each
        ``period``, healthy for the other half, ``count`` times."""
        if not 0 < factor:
            raise ValueError("factor must be positive")
        if period <= 0:
            raise ValueError("period must be positive")
        if count < 1:
            raise ValueError("count must be >= 1")
        self._add(after, self._do_flap, link, factor, period, count)
        return self

    def partition(
        self,
        after: float,
        side_a: Sequence[str],
        side_b: Sequence[str],
        duration: Optional[float] = None,
    ) -> "ChaosSchedule":
        """Split the fabric into two sides that cannot reach each other
        (healing after ``duration`` seconds, if given)."""
        self._add(after, self._do_partition, list(side_a), list(side_b), duration)
        return self

    def heal(
        self, after: float, side_a: Sequence[str], side_b: Sequence[str]
    ) -> "ChaosSchedule":
        """Heal a previously injected partition."""
        self._add(after, self._do_heal, list(side_a), list(side_b))
        return self

    def drop_messages(
        self, after: float, rate: float, duration: Optional[float] = None
    ) -> "ChaosSchedule":
        """Silently lose control messages with probability ``rate``
        (reverting to the previous rate after ``duration``, if given)."""
        if not 0 <= rate <= 1:
            raise ValueError("rate must be in [0, 1]")
        self._add(after, self._do_drop, rate, duration)
        return self

    def start(self) -> None:
        """Arm the schedule (idempotent)."""
        if self._started:
            return
        self._started = True
        for delay, action, args in self._pending:
            self.sim.process(self._fire(delay, action, args))

    # -- internals ----------------------------------------------------------

    def _add(self, after: float, action, *args) -> None:
        """Schedule ``action`` ``after`` seconds from now (from
        :meth:`start` for faults queued before it)."""
        if after < 0:
            raise ValueError(f"fault delay {after} is negative")
        if self._started:
            self.sim.process(self._fire(after, action, args))
        else:
            self._pending.append((after, action, args))

    def _fire(self, delay: float, action, args):
        yield self.sim.timeout(delay)
        yield from action(*args)

    def _device(self, name: str) -> Device:
        return self.cluster.device(name)

    def _do_crash(self, name: str):
        device = self._device(name)
        device.monitor.stop()
        if device.repairer is not None:
            device.repairer.stop()
        if device.flusher is not None:
            # Stopped *before* the backend's crash(): a flush that was
            # mid-charge never commits, so its entries are lost tail.
            device.flusher.stop()
        device.chimera.fail_abruptly()
        self.cluster.network.take_offline(name)
        detail = ""
        if device.storage is not None:
            report = device.storage.crash()
            device.kv.lose_memory()
            device.vstore.lose_memory()
            detail = (
                f"lost {report['lost_records']} records, "
                f"{report['lost_ops']} unsynced ops"
            )
        self.events.append(ChaosEvent(self.sim.now, "crash", name, detail))
        return
        yield  # pragma: no cover - generator marker

    def _do_leave(self, name: str):
        device = self._device(name)
        device.monitor.stop()
        if device.repairer is not None:
            device.repairer.stop()
        if device.flusher is not None:
            device.flusher.stop()
        yield from device.kv.leave()
        self.cluster.network.take_offline(name)
        self.events.append(ChaosEvent(self.sim.now, "leave", name))

    def _do_revive(self, name: str, bootstrap: Optional[str]):
        device = self._device(name)
        if device.chimera.joined and self.cluster.network.hosts[name].online:
            # Reviving a node that never went down must be a typed
            # no-op, not a double-join that corrupts overlay state.
            self.events.append(
                ChaosEvent(self.sim.now, "revive-skip", name, "already online")
            )
            return
        self.cluster.network.bring_online(name)
        if bootstrap is None:
            bootstrap = next(
                (
                    d.name
                    for d in self.cluster.devices
                    if d.name != name and d.chimera.joined
                ),
                None,
            )
            if bootstrap is None:
                # A bare next() here would raise StopIteration, which
                # PEP 479 turns into an opaque RuntimeError inside this
                # generator — name the actual problem instead.
                raise ValueError(
                    f"cannot revive {name!r}: no joined device is "
                    "available to bootstrap from"
                )
        detail = f"via {bootstrap}"
        if device.storage is not None:
            # Replay the durable state (charging the backend's replay
            # cost) *before* rejoining, like a real boot sequence.
            report = yield from device.kv.recover()
            device.vstore.recover()
            detail += f", replayed {report.records} records"
        yield from device.chimera.join(bootstrap=bootstrap)
        yield from device.monitor.publish_once()
        device.monitor.start(publish_immediately=False)
        if device.storage is not None:
            # One anti-entropy round with the ring neighbours: pull
            # writes missed while down, push records only we hold,
            # apply deletes we slept through.
            tuning = self.cluster.config.storage_tuning
            summary = yield from device.kv.sync_with_peers(
                fanout=tuning.anti_entropy_peers or None
            )
            detail += (
                f", synced +{summary['pulled']}/-{summary['deleted']} "
                f"(pushed {summary['pushed']})"
            )
        if device.repairer is not None:
            # A revived node sweeps at once: the metadata it replayed and
            # synced may name holders that failed while it was down.
            device.repairer.start()
            device.repairer.trigger()
        if device.flusher is not None:
            device.flusher.start()
        self.events.append(
            ChaosEvent(self.sim.now, "revive", name, detail)
        )

    def _do_degrade(self, link: Link, factor: float, duration: Optional[float]):
        # Baseline is captured once per link, *before* any degrade —
        # overlapping degrades therefore restore to the true healthy
        # bandwidth, not to each other's degraded values.
        self._baselines.setdefault(link.name, link.bandwidth)
        self._degrades.setdefault(link.name, []).append(factor)
        self._apply_degrades(link)
        self.events.append(
            ChaosEvent(
                self.sim.now,
                "degrade",
                link.name,
                f"x{factor:g} for {duration if duration is not None else 'ever'}",
            )
        )
        if duration is not None:
            yield self.sim.timeout(duration)
            self._degrades[link.name].remove(factor)
            self._apply_degrades(link)
            self.events.append(
                ChaosEvent(self.sim.now, "restore", link.name)
            )

    def _apply_degrades(self, link: Link) -> None:
        """Recompute a link's bandwidth: baseline times active factors."""
        bandwidth = self._baselines[link.name]
        for factor in self._degrades.get(link.name, ()):
            bandwidth *= factor
        link.set_bandwidth(bandwidth)

    def _do_flap(self, link: Link, factor: float, period: float, count: int):
        for _ in range(count):
            yield from self._do_degrade(link, factor, period / 2.0)
            yield self.sim.timeout(period / 2.0)

    def _do_partition(
        self, side_a: list[str], side_b: list[str], duration: Optional[float]
    ):
        target = f"{'+'.join(sorted(side_a))} | {'+'.join(sorted(side_b))}"
        self.cluster.network.partition(side_a, side_b)
        self.events.append(ChaosEvent(self.sim.now, "partition", target))
        if duration is not None:
            yield self.sim.timeout(duration)
            self.cluster.network.heal_partition(side_a, side_b)
            self.events.append(ChaosEvent(self.sim.now, "heal", target))

    def _do_heal(self, side_a: list[str], side_b: list[str]):
        target = f"{'+'.join(sorted(side_a))} | {'+'.join(sorted(side_b))}"
        self.cluster.network.heal_partition(side_a, side_b)
        self.events.append(ChaosEvent(self.sim.now, "heal", target))
        return
        yield  # pragma: no cover - generator marker

    def _do_drop(self, rate: float, duration: Optional[float]):
        network = self.cluster.network
        previous = network.loss_rate
        network.loss_rate = rate
        self.events.append(
            ChaosEvent(self.sim.now, "loss", "network", f"p={rate:g}")
        )
        if duration is not None:
            yield self.sim.timeout(duration)
            network.loss_rate = previous
            self.events.append(
                ChaosEvent(self.sim.now, "loss-end", "network", f"p={previous:g}")
            )


class RandomChaos:
    """A seeded random fault script over one deployment.

    :meth:`script` draws faults from a forked
    :class:`~repro.sim.RandomSource` and queues them on a
    :class:`ChaosSchedule` — the same seed always yields the same
    script.  Unlike naive random injection, the generated script is
    *safe by construction*:

    * never more than ``max_down`` devices are down at once;
    * devices named in ``protected`` are never taken down;
    * every crash is paired with a revive after a bounded outage, so
      the deployment always converges back to full strength.
    """

    def __init__(
        self,
        cluster: Cloud4Home,
        seed: int = 0,
        mean_interval_s: float = 30.0,
        max_down: int = 1,
        protected: Sequence[str] = (),
        outage_s: tuple[float, float] = (20.0, 60.0),
        degrade_s: tuple[float, float] = (10.0, 30.0),
        loss_rate_max: float = 0.05,
    ) -> None:
        if mean_interval_s <= 0:
            raise ValueError("mean_interval_s must be positive")
        if max_down < 0:
            raise ValueError("max_down must be >= 0")
        self.cluster = cluster
        self.rng = RandomSource(seed).fork("chaos")
        self.mean_interval_s = mean_interval_s
        self.max_down = max_down
        self.protected = set(protected)
        self.outage_s = outage_s
        self.degrade_s = degrade_s
        self.loss_rate_max = loss_rate_max
        self.schedule = ChaosSchedule(cluster)

    def script(self, horizon_s: float) -> ChaosSchedule:
        """Fill the schedule with random faults covering ``horizon_s``
        seconds, and return it (not yet started)."""
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        candidates = [
            d.name for d in self.cluster.devices if d.name not in self.protected
        ]
        #: Planned device state along the script timeline: name -> time
        #: it comes back (crash+revive pairs are planned together).
        down_until: dict[str, float] = {}
        t = 0.0
        while True:
            t += self.rng.exponential(1.0 / self.mean_interval_s)
            if t >= horizon_s:
                break
            kind = self.rng.weighted_choice(
                ["crash", "degrade", "flap", "loss"], [3.0, 2.0, 1.0, 1.0]
            )
            if kind == "crash":
                down_until = {
                    n: back for n, back in down_until.items() if back > t
                }
                up = [n for n in candidates if n not in down_until]
                if len(down_until) >= self.max_down or not up:
                    continue
                name = self.rng.choice(sorted(up))
                outage = self.rng.uniform(*self.outage_s)
                down_until[name] = t + outage
                self.schedule.crash(t, name)
                self.schedule.revive(t + outage, name)
            elif kind == "degrade":
                factor = self.rng.uniform(0.1, 0.5)
                self.schedule.degrade_link(
                    t,
                    self.cluster.lan_link,
                    factor,
                    duration=self.rng.uniform(*self.degrade_s),
                )
            elif kind == "flap":
                self.schedule.flap_link(
                    t,
                    self.cluster.lan_link,
                    self.rng.uniform(0.2, 0.6),
                    period=self.rng.uniform(2.0, 8.0),
                    count=self.rng.randint(2, 4),
                )
            else:
                self.schedule.drop_messages(
                    t,
                    self.rng.uniform(0.0, self.loss_rate_max),
                    duration=self.rng.uniform(*self.degrade_s),
                )
        return self.schedule
