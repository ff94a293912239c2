"""Simulator protocol and string-keyed platform registry.

Every simulated platform of the paper's evaluation (§4.2: the I-GCN
accelerator, the AWB-GCN / HyGCN / SIGMA accelerator baselines, naive
push/pull dataflows, and the CPU/GPU framework models of Table 2) sits
behind one uniform entry point::

    from repro.runtime import get_simulator

    report = get_simulator("awb").simulate(graph, model,
                                           feature_density=0.01)

``simulate`` always returns a :class:`~repro.report.BaseReport`
subclass, so ``report.summary()`` has the same core schema regardless
of platform.  Pass ``engine=`` (an :class:`~repro.runtime.engine.Engine`)
to reuse cached intermediate artifacts (islandizations, workloads)
across calls.

New platforms register themselves with :func:`register_simulator`; the
registry is the single extension point future backends (e.g. a
HyGCN-style hybrid or GPU kernel models) plug into.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.baselines.awb_gcn import AWBGCNAccelerator
from repro.baselines.hygcn import HyGCNAccelerator
from repro.baselines.platforms import PLATFORMS, get_platform
from repro.baselines.pull import PullAccelerator
from repro.baselines.push import PushAccelerator
from repro.baselines.sigma import SigmaAccelerator
from repro.core.accelerator import IGCNAccelerator
from repro.core.config import ConsumerConfig, LocatorConfig
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.hw.config import IGCN_DEFAULT, HardwareConfig
from repro.models.configs import ModelConfig
from repro.report import BaseReport

__all__ = [
    "Simulator",
    "IGCNSimulator",
    "WrappedSimulator",
    "register_simulator",
    "resolve_name",
    "get_simulator",
    "simulator_names",
    "simulator_aliases",
]


@runtime_checkable
class Simulator(Protocol):
    """Anything that can simulate one inference on one platform."""

    name: str

    def simulate(
        self,
        graph: CSRGraph,
        model: ModelConfig,
        *,
        feature_density: float = 1.0,
        engine: Any | None = None,
        **opts: Any,
    ) -> BaseReport:
        """Run ``model`` over ``graph`` and return a uniform report."""
        ...  # pragma: no cover - protocol


class IGCNSimulator:
    """Registry adapter for :class:`IGCNAccelerator`.

    When an ``engine`` is supplied, the islandization is fetched from
    (and stored in) the engine's artifact cache, so repeated
    simulations of the same graph — different models, variants, or
    sweep cells — islandize exactly once, and the run shares the
    engine's :class:`~repro.core.accelerator.TaskMemo`, so consecutive
    models over that islandization assemble its island tasks once per
    self-loop mode.
    """

    name = "igcn"

    #: This simulator consumes Engine islandizations, so its cached
    #: reports/summaries must be keyed by the effective LocatorConfig.
    uses_locator = True

    def __init__(
        self,
        hw: HardwareConfig | None = None,
        locator: LocatorConfig | None = None,
        consumer: ConsumerConfig | None = None,
    ) -> None:
        self._hw = hw
        #: None means "no explicit config": an Engine's locator/consumer
        #: configs take precedence so Engine(locator=..., consumer=...)
        #: behaves as documented.
        self._explicit_locator = locator
        self._explicit_consumer = consumer
        self.accelerator = IGCNAccelerator(hw=hw, locator=locator, consumer=consumer)

    def simulate(
        self,
        graph: CSRGraph,
        model: ModelConfig,
        *,
        feature_density: float = 1.0,
        engine: Any | None = None,
        islandization=None,
        **opts: Any,
    ) -> BaseReport:
        """Simulate one I-GCN inference (see :meth:`IGCNAccelerator.run`)."""
        accelerator = self.accelerator
        if engine is not None:
            locator = (
                self._explicit_locator
                if self._explicit_locator is not None
                else engine.locator_config
            )
            consumer = (
                self._explicit_consumer
                if self._explicit_consumer is not None
                else engine.consumer_config
            )
            if (
                locator != accelerator.locator_config
                or consumer != accelerator.consumer_config
            ):
                accelerator = IGCNAccelerator(
                    hw=self._hw, locator=locator, consumer=consumer
                )
        if islandization is None and engine is not None:
            islandization = engine.islandization(
                graph, accelerator.locator_config
            )
        return accelerator.run(
            graph,
            model,
            feature_density=feature_density,
            islandization=islandization,
            task_memo=engine.task_memo if engine is not None else None,
            **opts,
        )


class WrappedSimulator:
    """Registry adapter for baseline models with a ``run(...)`` method.

    Works for both :class:`~repro.baselines.common.AcceleratorModel`
    subclasses and :class:`~repro.baselines.platforms.PlatformModel`;
    when an ``engine`` is supplied, the operation-count workload is
    served from the engine's cache.
    """

    #: Baseline models never islandize: their results are independent
    #: of the engine's LocatorConfig, so cache keys omit it (no
    #: spurious re-simulation across engines with different locators).
    uses_locator = False

    def __init__(self, name: str, model: Any) -> None:
        self.name = name
        self.model = model

    def simulate(
        self,
        graph: CSRGraph,
        model: ModelConfig,
        *,
        feature_density: float = 1.0,
        engine: Any | None = None,
        workload=None,
        **opts: Any,
    ) -> BaseReport:
        """Simulate one inference on the wrapped baseline.

        An explicitly supplied ``workload`` wins over the engine cache.
        """
        if workload is None and engine is not None:
            workload = engine.workload(graph, model, feature_density=feature_density)
        return self.model.run(
            graph, model, feature_density=feature_density, workload=workload, **opts
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: dict[str, Callable[..., Simulator]] = {}
_ALIASES: dict[str, str] = {}
_INSTANCES: dict[str, Simulator] = {}


def register_simulator(
    name: str,
    factory: Callable[..., Simulator],
    *,
    aliases: tuple[str, ...] = (),
) -> None:
    """Register ``factory`` under ``name`` (plus optional aliases).

    Re-registering a canonical name replaces it; an alias that would
    shadow a *different* registered platform is rejected, since
    resolve_name consults aliases first and the hijack would be silent.
    """
    key = name.strip().lower()
    for alias in aliases:
        akey = alias.strip().lower()
        taken = akey in _FACTORIES or akey in _ALIASES
        if taken and akey != key and _ALIASES.get(akey) != key:
            raise SimulationError(
                f"alias {alias!r} collides with registered platform "
                f"{_ALIASES.get(akey, akey)!r}"
            )
    _FACTORIES[key] = factory
    _INSTANCES.pop(key, None)
    _ALIASES.pop(key, None)  # a canonical name wins over any stale alias
    for alias in aliases:
        _ALIASES[alias.strip().lower()] = key


def resolve_name(name: str) -> str:
    """Canonical registry key for ``name`` (raises on unknown)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _FACTORIES:
        raise SimulationError(
            f"unknown platform {name!r}; available: {', '.join(_FACTORIES)}"
        )
    return key


def get_simulator(name: str, **kwargs: Any) -> Simulator:
    """Look up (or construct) the simulator registered under ``name``.

    Without ``kwargs`` a shared default-configured instance is returned
    (simulators are stateless).  With ``kwargs`` a fresh instance is
    constructed — e.g. ``get_simulator("igcn", locator=LocatorConfig(
    c_max=32))``.
    """
    key = resolve_name(name)
    if kwargs:
        return _FACTORIES[key](**kwargs)
    if key not in _INSTANCES:
        _INSTANCES[key] = _FACTORIES[key]()
    return _INSTANCES[key]


def simulator_names() -> list[str]:
    """Canonical names of every registered platform, in registry order."""
    return list(_FACTORIES)


def simulator_aliases() -> list[str]:
    """Registered alias names (each resolves to a canonical platform)."""
    return list(_ALIASES)


def _make_pull(**kwargs: Any) -> Simulator:
    hw = kwargs.pop("hw", None) or IGCN_DEFAULT
    return WrappedSimulator("pull", PullAccelerator(hw, **kwargs))


def _make_push(**kwargs: Any) -> Simulator:
    hw = kwargs.pop("hw", None) or IGCN_DEFAULT
    return WrappedSimulator("push", PushAccelerator(hw, **kwargs))


def _make_platform(name: str, **kwargs: Any) -> Simulator:
    if kwargs:
        # PlatformModel instances are fixed calibrated rooflines; silently
        # dropping configuration would run defaults behind the caller's back.
        raise SimulationError(
            f"platform {name!r} accepts no configuration kwargs "
            f"(got {sorted(kwargs)})"
        )
    return WrappedSimulator(name, get_platform(name))


register_simulator("igcn", IGCNSimulator, aliases=("i-gcn",))
register_simulator(
    "awb",
    lambda **kw: WrappedSimulator("awb", AWBGCNAccelerator(**kw)),
    aliases=("awb-gcn",),
)
register_simulator(
    "hygcn", lambda **kw: WrappedSimulator("hygcn", HyGCNAccelerator(**kw))
)
register_simulator(
    "sigma", lambda **kw: WrappedSimulator("sigma", SigmaAccelerator(**kw))
)
register_simulator("pull", _make_pull, aliases=("pull-row-wise",))
register_simulator("push", _make_push, aliases=("push-column-wise",))
for _platform_name in PLATFORMS:
    register_simulator(
        _platform_name,
        lambda name=_platform_name, **kw: _make_platform(name, **kw),
    )
