"""Completion-time estimation for service placement.

Choosing where a ``process`` operation runs "considers the time to
locate the target node, the associated data movement costs for the
argument and resulting object, and the service processing requirements
and execution time ...  In our current implementation, we assume
constant target-location time and we approximate the data movement
costs by considering the movement of the argument object only."
(Section III-B.)

:func:`estimate_completion` mirrors that model: a constant locate cost,
argument movement at the candidate's advertised bandwidth, and an
execution estimate from the candidate's resource snapshot (idle compute
plus the memory-thrash factor its free memory implies).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.monitoring import ResourceSnapshot
from repro.services import Service

__all__ = ["PlacementEstimate", "estimate_completion", "fold_estimates"]

#: The paper's "constant target-location time" assumption, seconds.
DEFAULT_LOCATE_S = 0.05


@dataclass
class PlacementEstimate:
    """Breakdown of a candidate's estimated completion time."""

    node: str
    locate_s: float
    move_s: float
    execute_s: float
    #: Model/cascade load for a cold target (0 when assumed warm).
    setup_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.locate_s + self.move_s + self.execute_s + self.setup_s


def fold_estimates(steps: list[list[PlacementEstimate]]) -> list[PlacementEstimate]:
    """One estimate per node for a multi-step run, in first-seen order.

    The argument moves to the target once, so a node's ``locate_s`` and
    ``move_s`` come from its step with the largest of the two summed;
    execution and set-up accumulate across the steps.  Only nodes with
    an estimate for every step qualify.  A single step folds to copies
    of its own estimates.
    """
    folded: dict[str, PlacementEstimate] = {}
    counts: dict[str, int] = {}
    for estimates in steps:
        for est in estimates:
            acc = folded.get(est.node)
            if acc is None:
                folded[est.node] = replace(est)
                counts[est.node] = 1
                continue
            if est.locate_s + est.move_s > acc.locate_s + acc.move_s:
                acc.locate_s, acc.move_s = est.locate_s, est.move_s
            acc.execute_s += est.execute_s
            acc.setup_s += est.setup_s
            counts[est.node] += 1
    return [est for node, est in folded.items() if counts[node] == len(steps)]


def estimate_completion(
    service: Service,
    input_mb: float,
    snapshot: ResourceSnapshot,
    local_node: str,
    locate_s: float = DEFAULT_LOCATE_S,
    thrash_coefficient: float = 3.0,
    setup_s: float = 0.0,
) -> PlacementEstimate:
    """Estimate how long ``service`` over ``input_mb`` takes on a node.

    Data movement is free when the candidate is the node already
    holding the argument object (``local_node``); otherwise the
    argument moves at the candidate's advertised bandwidth.  Execution
    divides the cycle count across the lesser of the service's
    parallelism and the node's execution width (the guest VM's VCPUs
    when published, else physical cores), derated by current load, and
    multiplies in the thrash factor when the candidate's free memory
    cannot hold the working set.  ``setup_s`` charges the model load of
    a cold target.
    """
    is_local = snapshot.node == local_node
    move_s = 0.0
    if not is_local:
        bandwidth_bytes = snapshot.bandwidth_mbps * 1e6 / 8.0
        if bandwidth_bytes <= 0:
            move_s = float("inf")
        else:
            move_s = input_mb * 1024 * 1024 / bandwidth_bytes

    width = snapshot.vcpus if snapshot.vcpus > 0 else snapshot.cpu_cores
    usable_cores = max(1.0, min(service.profile.parallelism, width)) * (
        1.0 - snapshot.cpu_load
    )
    usable_cores = max(usable_cores, 0.25)  # a fully loaded node still trickles
    rate = usable_cores * snapshot.cpu_ghz * 1e9

    working_set = service.working_set_mb(input_mb)
    thrash = 1.0
    if snapshot.mem_free_mb > 0 and working_set > snapshot.mem_free_mb:
        thrash = 1.0 + thrash_coefficient * (
            working_set / snapshot.mem_free_mb - 1.0
        )
    execute_s = service.cycles(input_mb) * thrash / rate

    return PlacementEstimate(
        node=snapshot.node,
        locate_s=0.0 if is_local else locate_s,
        move_s=move_s,
        execute_s=execute_s,
        setup_s=setup_s,
    )
