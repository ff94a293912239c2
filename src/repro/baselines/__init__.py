"""Baseline simulators: prior-art accelerators, dataflows, platforms."""

from repro.baselines.awb_gcn import AWB_DEFAULT_HW, AWBGCNAccelerator
from repro.baselines.common import AcceleratorModel, SimReport
from repro.baselines.hygcn import HYGCN_DEFAULT_HW, HyGCNAccelerator
from repro.baselines.platforms import PLATFORMS, PlatformModel, get_platform
from repro.baselines.pull import PullAccelerator
from repro.baselines.push import PushAccelerator
from repro.baselines.sigma import SIGMA_DEFAULT_HW, SigmaAccelerator

__all__ = [
    "AcceleratorModel",
    "SimReport",
    "AWBGCNAccelerator",
    "AWB_DEFAULT_HW",
    "HyGCNAccelerator",
    "HYGCN_DEFAULT_HW",
    "SigmaAccelerator",
    "SIGMA_DEFAULT_HW",
    "PullAccelerator",
    "PushAccelerator",
    "PlatformModel",
    "PLATFORMS",
    "get_platform",
]
