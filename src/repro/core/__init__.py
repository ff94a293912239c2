"""I-GCN core (§3): the Island Locator (Algorithm 1), the Island
Consumer (§3.3), and the streamed locator→consumer pipeline (§3.1.1,
Fig. 3) that overlaps the two."""

from repro.core.accelerator import IGCNAccelerator, IGCNReport, TaskMemo
from repro.core.bitmap import IslandTask, build_island_task
from repro.core.config import ConsumerConfig, LocatorConfig
from repro.core.consumer import IslandConsumer, LayerCounts, prepare_tasks
from repro.core.consumer_batched import TaskBatch
from repro.core.interhub import InterHubPlan, build_interhub_plan
from repro.core.islandizer import IslandLocator, islandize
from repro.core.islandizer_partitioned import (
    islandize_partitioned,
    quality_metrics,
)
from repro.core.pipeline import pipelined_makespan, streamed_schedule
from repro.core.preagg import ScanCounts, scan_aggregate, scan_costs
from repro.core.types import (
    Island,
    IslandizationResult,
    IslandTable,
    LocatorWork,
    RoundOutput,
    RoundStats,
)

__all__ = [
    "IGCNAccelerator",
    "IGCNReport",
    "TaskMemo",
    "IslandTask",
    "build_island_task",
    "ConsumerConfig",
    "LocatorConfig",
    "IslandConsumer",
    "LayerCounts",
    "prepare_tasks",
    "TaskBatch",
    "InterHubPlan",
    "build_interhub_plan",
    "IslandLocator",
    "islandize",
    "islandize_partitioned",
    "quality_metrics",
    "ScanCounts",
    "scan_aggregate",
    "scan_costs",
    "pipelined_makespan",
    "streamed_schedule",
    "Island",
    "IslandizationResult",
    "IslandTable",
    "LocatorWork",
    "RoundOutput",
    "RoundStats",
]
