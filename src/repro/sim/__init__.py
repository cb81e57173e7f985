"""Discrete-event simulation kernel underlying the Cloud4Home reproduction.

Public surface:

* :class:`Simulator` — the event loop and virtual clock.
* :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AnyOf`,
  :class:`AllOf` — the waitable primitives.
* :class:`Resource`, :class:`Container`, :class:`Store` — shared-resource
  primitives.
* :class:`RandomSource` — seeded, forkable randomness.
* :class:`Interrupt`, :class:`SimulationError` — exceptions.
"""

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.kernel import (
    GATHER_PENDING,
    AllOf,
    AnyOf,
    Event,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.random import RandomSource
from repro.sim.resources import Container, Request, Resource, Store

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "GATHER_PENDING",
    "Resource",
    "Request",
    "Container",
    "Store",
    "RandomSource",
    "Interrupt",
    "SimulationError",
]
