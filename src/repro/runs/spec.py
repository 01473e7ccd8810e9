"""Declarative run specifications with deterministic content hashes.

A :class:`RunSpec` names everything that determines one experiment's
outcome — the kind of run, the design, the workload recipe, the system
configuration and every seed — as plain JSON-able data.  Two specs that
would produce the same result serialize to the same canonical JSON and
therefore hash to the same :meth:`RunSpec.spec_hash`, which is the key
the on-disk result cache is addressed by.

The spec deliberately stores the workload *recipe* (name, length, seed),
never the generated trace: traces are megabytes, regenerating them is
deterministic and cheap, and keeping specs tiny lets a worker process
rebuild its entire job from one small dict.

:class:`Sweep` is the cartesian product companion: the Figure 5 matrix
is ``Sweep(schemes=..., workloads=...)``, the fault campaign's scheme x
site grid and the Figure 6 sensitivity sweeps expand the same way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.common.config import (
    CacheConfig,
    ControllerConfig,
    CpuConfig,
    EpochConfig,
    NVMConfig,
    SecurityConfig,
    SystemConfig,
)

#: Run kinds the worker pool knows how to execute (see ``runs.pool``).
RUN_KINDS = ("simulation", "crash")


def canonical_json(obj: Any) -> str:
    """The one serialization used for hashing: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# SystemConfig <-> plain dict
# ---------------------------------------------------------------------------


def config_to_dict(config: SystemConfig) -> dict:
    """Flatten a :class:`SystemConfig` into a JSON-able nested dict."""
    return asdict(config)


def config_from_dict(data: Mapping) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output."""
    security = dict(data["security"])
    security["meta_cache"] = CacheConfig(**security["meta_cache"])
    return SystemConfig(
        cpu=CpuConfig(**data["cpu"]),
        l1=CacheConfig(**data["l1"]),
        l2=CacheConfig(**data["l2"]),
        nvm=NVMConfig(**data["nvm"]),
        controller=ControllerConfig(**data["controller"]),
        security=SecurityConfig(**security),
        epoch=EpochConfig(**data["epoch"]),
    )


def _normalize_config(config: SystemConfig | Mapping | None) -> dict | None:
    if config is None:
        return None
    if isinstance(config, SystemConfig):
        return config_to_dict(config)
    return dict(config)


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one experiment's result, as data.

    * ``kind`` — what the worker executes: a full-system ``simulation``
      or a ``crash`` cell (see :func:`repro.crashsim.explore.execute_cell`).
    * ``scheme`` / ``workload`` / ``length`` / ``seed`` — the design and
      the workload recipe (SPEC surrogate name + generator parameters).
    * ``scheme_seed`` — the key-derivation seed handed to
      :func:`repro.core.schemes.create_scheme` (independent of the
      workload seed, exactly as in :func:`repro.sim.runner.run_simulation`).
    * ``warmup`` — warmup fraction replayed before measurement.
    * ``config`` — full :func:`config_to_dict` image, or ``None`` for the
      paper-default :class:`SystemConfig`.
    * ``params`` — kind-specific knobs (crash cell mode, shard, recovery
      site, campaign steps, data capacity ...); folded into the hash like
      everything else.
    """

    kind: str = "simulation"
    scheme: str = "ccnvm"
    workload: str = ""
    length: int = 0
    seed: int = 0
    scheme_seed: int = 0
    warmup: float = 0.0
    config: Mapping | None = None
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in RUN_KINDS:
            raise ValueError(f"unknown run kind {self.kind!r}; choose from {RUN_KINDS}")
        object.__setattr__(self, "config", _normalize_config(self.config))
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> dict:
        """Plain-dict image — the canonical JSON of this is what is hashed."""
        return {
            "kind": self.kind,
            "scheme": self.scheme,
            "workload": self.workload,
            "length": self.length,
            "seed": self.seed,
            "scheme_seed": self.scheme_seed,
            "warmup": self.warmup,
            "config": self.config,
            "params": dict(self.params),
        }

    @staticmethod
    def from_dict(data: Mapping) -> "RunSpec":
        return RunSpec(**dict(data))

    def spec_hash(self) -> str:
        """Deterministic content hash of the spec (sha256 of canonical JSON)."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()

    def describe(self) -> str:
        """A short human label for progress lines and error reports."""
        parts = [self.kind, self.scheme]
        if self.workload:
            parts.append(f"{self.workload}@{self.length}#{self.seed}")
        if "site" in self.params:
            parts.append(str(self.params["site"]))
        if self.params.get("mode") == "enumerate":
            parts.append(f"shard{self.params['shard']}/{self.params['shards']}")
        if "depth" in self.params:
            parts.append(f"depth{self.params['depth']}")
        return "/".join(parts)

    def system_config(self) -> SystemConfig:
        """The live :class:`SystemConfig` this spec runs under."""
        return SystemConfig() if self.config is None else config_from_dict(self.config)


def simulation_spec(
    scheme: str,
    workload: str,
    length: int,
    seed: int,
    config: SystemConfig | Mapping | None = None,
    scheme_seed: int = 0,
    warmup: float = 0.0,
    data_capacity: int | None = None,
    obs: Mapping | None = None,
) -> RunSpec:
    """Spec for one :func:`repro.sim.runner.run_simulation` cell.

    *obs*, when given, asks the worker to run under an
    :class:`repro.obs.ObsSession` and attach the folded observability
    payload (timeline, optional sample series) to the result under an
    ``"obs"`` key.  Its knobs (``capacity``, ``sample_every``) are part
    of the spec hash, so obs-enabled runs cache separately from plain
    ones — the plain headline payload stays byte-identical.
    """
    params = {} if data_capacity is None else {"data_capacity": data_capacity}
    if obs is not None:
        params["obs"] = dict(obs)
    return RunSpec(
        kind="simulation",
        scheme=scheme,
        workload=workload,
        length=length,
        seed=seed,
        scheme_seed=scheme_seed,
        warmup=warmup,
        config=config,
        params=params,
    )


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """A cartesian (scheme x workload x config x seed) grid of simulations.

    ``configs`` maps a *label* to a config (``None`` = paper defaults);
    the label is not hashed — only the config content is — but it lets
    callers reassemble expanded results by swept point.
    """

    schemes: tuple[str, ...]
    workloads: tuple[str, ...]
    length: int
    seeds: tuple[int, ...] = (1,)
    configs: Mapping[str, SystemConfig | Mapping | None] = field(
        default_factory=lambda: {"default": None}
    )
    warmup: float = 0.0
    scheme_seed: int = 0

    def expand(self) -> list[tuple[tuple[str, str, str, int], RunSpec]]:
        """All cells, as ``((config_label, scheme, workload, seed), spec)``.

        Expansion order is deterministic: configs in mapping order, then
        schemes, workloads and seeds in their given order.
        """
        cells = []
        for label, config in self.configs.items():
            normalized = _normalize_config(config)
            for scheme in self.schemes:
                for workload in self.workloads:
                    for seed in self.seeds:
                        spec = simulation_spec(
                            scheme,
                            workload,
                            self.length,
                            seed,
                            config=normalized,
                            scheme_seed=self.scheme_seed,
                            warmup=self.warmup,
                        )
                        cells.append(((label, scheme, workload, seed), spec))
        return cells

    def specs(self) -> list[RunSpec]:
        """Just the specs, in expansion order."""
        return [spec for _, spec in self.expand()]
