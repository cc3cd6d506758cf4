"""The scenario registry: named, sweepable workload definitions.

A :class:`ScenarioSpec` is a declarative entry — a name, a description, the
knobs it exposes, and a builder that maps ``(n_peers, duration_days, seed)``
onto a :class:`~repro.simulation.config.ScenarioConfig`.  Everything that
runs a workload (the sweep CLI, benchmarks, tests, examples) resolves
scenarios by name through this registry, so a new workload is one
``register()`` call instead of a new script.  Any further keyword parameter
of the builder is an override key (``--set key=value``), validated here by
name and by annotated type.

The catalog module registers the six paper measurement periods and the
other scenario families at import time, all through the same builder
skeleton; :func:`run_scenario_by_name` builds and runs one by name.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from repro.simulation.config import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.simulation.scenario import ScenarioResult

#: builds the scenario config for one sweep cell: (n_peers, duration_days, seed)
ScenarioBuilder = Callable[[int, float, int], ScenarioConfig]

_REGISTRY: Dict[str, "ScenarioSpec"] = {}


class UnknownOverrideError(ValueError):
    """An override key the scenario's builder does not accept."""


class OverrideTypeError(ValueError):
    """An override value of the wrong type for the builder parameter it sets."""


#: builder-parameter annotation -> (name shown in errors, accepted value types);
#: parameters annotated otherwise (or not at all) are not type-checked
_OVERRIDE_TYPES = {
    bool: ("bool", (bool,)),
    float: ("float", (int, float)),
    int: ("int", (int,)),
    Optional[int]: ("int", (int,)),
}


def override_parameters(builder: ScenarioBuilder) -> Dict[str, inspect.Parameter]:
    """The override keys a builder exposes: every keyword parameter after the
    ``(n_peers, duration_days, seed)`` triple.

    Annotations come back evaluated (``float``, not
    ``"float"``), which is what :meth:`ScenarioSpec.validate_overrides` checks
    values against.
    """
    params = list(inspect.signature(builder, eval_str=True).parameters.values())
    keyword_kinds = (
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
        inspect.Parameter.KEYWORD_ONLY,
    )
    return {
        param.name: param
        for param in params[3:]
        if param.kind in keyword_kinds
    }


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, sweepable scenario."""

    name: str
    description: str
    builder: ScenarioBuilder
    #: coarse grouping used by listings ("paper" vs "stress")
    tags: Tuple[str, ...] = ()
    default_peers: int = 500
    default_duration_days: float = 0.25
    #: rendered by ``--list``: the override keys with their defaults (the
    #: catalog derives them from the builder's keyword parameters)
    knobs: Mapping[str, object] = field(default_factory=dict)

    def validate_overrides(self, overrides: Optional[Mapping[str, object]]) -> Dict[str, object]:
        """Check ``overrides`` against the builder's keyword parameters.

        Returns a plain dict safe to splat into the builder; raises
        :class:`UnknownOverrideError` naming the known keys for a key the
        builder does not take, and :class:`OverrideTypeError` for a value of
        the wrong type (a ``bool`` parameter takes only a bool, a ``float``
        one an int or float, an ``int`` one only an int) — the one validation
        path shared by :meth:`build`, the sweep CLI, and the benchmarks.
        Range checks stay with the config dataclasses the builder fills.
        """
        if not overrides:
            return {}
        params = override_parameters(self.builder)
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            known_text = ", ".join(sorted(params)) if params else "(none)"
            raise UnknownOverrideError(
                f"scenario {self.name!r} does not accept override(s) "
                f"{', '.join(unknown)}; known keys: {known_text}"
            )
        for key, value in overrides.items():
            checked = _OVERRIDE_TYPES.get(params[key].annotation)
            # Exact types, not isinstance: bool subclasses int, but only a
            # bool parameter takes one.
            if checked is not None and type(value) not in checked[1]:
                raise OverrideTypeError(
                    f"scenario {self.name!r} override {key} expects {checked[0]}, "
                    f"got {value!r} ({type(value).__name__})"
                )
        return dict(overrides)

    def build(
        self,
        n_peers: Optional[int] = None,
        duration_days: Optional[float] = None,
        seed: int = 7,
        overrides: Optional[Mapping[str, object]] = None,
    ) -> ScenarioConfig:
        """Resolve defaults and build the runnable scenario config.

        A range check that fails inside the builder names the config field
        it guards, which is not always the override key that fed it; such a
        :class:`ValueError` is re-raised prefixed with the ``key=value``
        overrides given, so every rejection names its key.
        """
        peers = n_peers if n_peers is not None else self.default_peers
        days = duration_days if duration_days is not None else self.default_duration_days
        kwargs = self.validate_overrides(overrides)
        try:
            return self.builder(peers, days, seed, **kwargs)
        except ValueError as exc:
            if not kwargs or any(key in str(exc) for key in kwargs):
                raise
            given = ", ".join(f"{key}={value!r}" for key, value in kwargs.items())
            raise ValueError(f"{given}: {exc}") from exc


def normalize_name(name: str) -> str:
    return name.strip().lower()


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the registry; names are case-insensitive and unique."""
    key = normalize_name(spec.name)
    if key != spec.name:
        raise ValueError(f"scenario names must be lowercase, got {spec.name!r}")
    if key in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[key] = spec
    return spec


def scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name (case-insensitive)."""
    key = normalize_name(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def scenario_names(tag: Optional[str] = None) -> List[str]:
    """All registered names in registration order, optionally filtered by tag."""
    return [
        spec.name
        for spec in _REGISTRY.values()
        if tag is None or tag in spec.tags
    ]


def scenarios(tag: Optional[str] = None) -> List[ScenarioSpec]:
    return [spec for spec in _REGISTRY.values() if tag is None or tag in spec.tags]


def build_scenario_config(
    name: str,
    n_peers: Optional[int] = None,
    duration_days: Optional[float] = None,
    seed: int = 7,
    overrides: Optional[Mapping[str, object]] = None,
) -> ScenarioConfig:
    """Resolve ``name`` and build its config (defaults from the spec)."""
    return scenario(name).build(
        n_peers=n_peers, duration_days=duration_days, seed=seed, overrides=overrides
    )


def run_scenario_by_name(
    name: str,
    n_peers: Optional[int] = None,
    duration_days: Optional[float] = None,
    seed: int = 7,
    overrides: Optional[Mapping[str, object]] = None,
) -> ScenarioResult:
    """Build and run one registered scenario."""
    from repro.simulation.scenario import run_scenario

    return run_scenario(build_scenario_config(name, n_peers, duration_days, seed, overrides))
