"""Hardware models: envelope, traffic, energy, area, ring."""

from repro.hw.area import AreaBreakdown, AreaModel
from repro.hw.config import IGCN_DEFAULT, HardwareConfig
from repro.hw.energy import EnergyReport, estimate_energy
from repro.hw.memory import CacheModel, TrafficMeter
from repro.hw.ring import RingNetwork, RingStats

__all__ = [
    "HardwareConfig",
    "IGCN_DEFAULT",
    "TrafficMeter",
    "CacheModel",
    "EnergyReport",
    "estimate_energy",
    "AreaBreakdown",
    "AreaModel",
    "RingNetwork",
    "RingStats",
]
