"""Reproduce the two program defects the benchmark workloads surfaced.

Usage (from the repository root)::

    PYTHONHASHSEED=0 PYTHONPATH=src:perfbench python3 perfbench/defects.py livelock
    PYTHONHASHSEED=0 PYTHONPATH=src:perfbench python3 perfbench/defects.py orphaned-rpc

Each prints how the guarded run ended.  ``livelock`` replays
``durable_mix`` seed 1: past sim t = 2048 s a link flow keeps a
remainder whose next boundary is below half the float spacing of
``now``, so zero-delay timers spin and the watchdog stops the run
(``livelock at sim t=2086...``).  ``orphaned-rpc`` adds the seeded
``RandomChaos`` crash/revive script (clients protected) to
``durable_mix`` seed 5: a crash stops a background process that is
waiting on a peer RPC, the abandoned RPC later fails with no waiter, and
``Simulator.run`` re-raises it (``RpcTimeoutError(... 'kv.get' ...)``
after 92 ops).
"""

from __future__ import annotations

import sys

from repro.cluster.chaos import RandomChaos
from worker import _guarded
from workloads import DurableMix, OpLog


def _durable_mix(seed: int, seconds: float, chaos: bool) -> str:
    workload = DurableMix(seed, seconds)
    c4h = workload.build()
    workload.start()
    cause = _guarded(c4h.sim, lambda: c4h.run(workload.prepopulate()))
    if cause is not None:
        return f"set-up: {cause}"
    if chaos:
        clients = [d.name for d in workload.clients]
        RandomChaos(c4h, seed=seed, protected=clients).script(900.0).start()
    log = OpLog(c4h.sim)
    cause = _guarded(c4h.sim, lambda: workload.drive(log, lambda _rid: None))
    return (
        f"completed {log.completed} of {workload.ops} ops by sim t={c4h.sim.now:.1f}: "
        f"{cause or 'finished normally'}"
    )


def main(argv: list[str]) -> int:
    if argv not in (["livelock"], ["orphaned-rpc"]):
        print(__doc__, file=sys.stderr)
        return 2
    chaos = argv[0] == "orphaned-rpc"
    print(_durable_mix(5 if chaos else 1, 20, chaos=chaos))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
