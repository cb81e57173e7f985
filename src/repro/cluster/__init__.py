"""Cluster assembly: the whole Cloud4Home deployment in one object.

Public surface:

* :class:`Cloud4Home` — builds and starts the home cloud + remote cloud.
* :class:`ClusterConfig`, :class:`LanConfig`, :class:`WanConfig`,
  :class:`DeviceConfig` — configuration.
* :class:`Device` — one assembled home device (all layers).
"""

from repro.cluster.builder import Cloud4Home, Device, PROFILES
from repro.cluster.chaos import ChaosEvent, ChaosSchedule
from repro.cluster.presets import (
    figure7_pair,
    large_home,
    minimal_pair,
    paper_testbed,
    scale_overlay,
)
from repro.cluster.federation import Federation, FederationDirectory
from repro.cluster.config import (
    ClusterConfig,
    DeviceConfig,
    LanConfig,
    ResilienceConfig,
    SloConfig,
    StorageConfig,
    StripingConfig,
    WanConfig,
    default_devices,
)
from repro.cluster.slo_demo import availability_chaos_scenario

__all__ = [
    "Cloud4Home",
    "Device",
    "PROFILES",
    "ClusterConfig",
    "DeviceConfig",
    "LanConfig",
    "ResilienceConfig",
    "SloConfig",
    "StorageConfig",
    "StripingConfig",
    "WanConfig",
    "availability_chaos_scenario",
    "default_devices",
    "Federation",
    "FederationDirectory",
    "ChaosSchedule",
    "ChaosEvent",
    "paper_testbed",
    "figure7_pair",
    "minimal_pair",
    "large_home",
    "scale_overlay",
]
