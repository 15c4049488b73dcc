"""Structured run configuration: strict parsing, hashing, domain-type builders.

Unknown keys are rejected so typos cannot silently fall back to defaults.
The configuration hash (over every fully resolved setting except the
``paths`` locations) is stamped into every output artifact header.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from importlib import resources

from .adjacency import SequenceConfig
from .datagen import EVENTS, SurrogateConfig, WindowProtocol
from .dmd import DmdConfig
from .errors import ConfigError
from .training import TrainConfig


@dataclass(frozen=True)
class PathsSection:
    scenario_store: str = "data/scenarios"
    adjacency_cache: str = "data/cache"
    checkpoints: str = "artifacts/checkpoints"
    reports: str = "artifacts/reports"


@dataclass(frozen=True)
class DataSection:
    total: int = 100
    ternary_step: int = 1
    min_share: int = 1
    keep_1_in: int = 20
    events: tuple = ("load_increase", "short_circuit")
    subsample_unperturbed: bool = False
    n_units: int = 4
    include_pq: bool = True
    include_line_flows: bool = True
    duration_ms: int = 60000
    event_ms: int = 20000
    snr_db: float = 35.0

    def __post_init__(self):
        for event in self.events:
            if event not in EVENTS:
                raise ConfigError(f"unknown event {event!r} in data.events")


@dataclass(frozen=True)
class WindowSection:
    width_ms: int = 1000
    stride_ms: int = 100
    l_seq: int = 5
    sample_count: int = 11
    sample_stride_ms: int = 1000


@dataclass(frozen=True)
class ModelSection:
    embed_dim: int = 64
    hidden_dim: int = 64


@dataclass(frozen=True)
class TrainSection:
    lr: float = 1e-3
    weight_decay: float = 1e-2
    epochs: int = 100
    batch_size: int = 32
    early_stop_patience: int = 10
    val_fraction: float = 0.1
    test_fraction: float = 0.2


@dataclass(frozen=True)
class EvaluateSection:
    threshold: float = 0.5
    snr_list: tuple = (5, 15, 25, 35, 45, 55, 65, 75, 85)
    augment_snr: tuple = (15, 25, 35)
    window_sweep: tuple = ()
    node_subsets: tuple = ()


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    paths: PathsSection = field(default_factory=PathsSection)
    data: DataSection = field(default_factory=DataSection)
    window: WindowSection = field(default_factory=WindowSection)
    dmd: DmdConfig = field(default_factory=DmdConfig)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    evaluate: EvaluateSection = field(default_factory=EvaluateSection)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        """Short SHA-256 of every setting except the ``paths`` locations.

        Where a run reads and writes its files changes no number it produces,
        so two runs that differ only in their directories stamp equal hashes.
        """
        settings = self.to_dict()
        del settings["paths"]
        canon = json.dumps(_jsonable(settings), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def sequence_config(self, width_ms: int = None) -> SequenceConfig:
        return SequenceConfig(
            l_seq=self.window.l_seq,
            window_ms=self.window.width_ms if width_ms is None else width_ms,
            stride_ms=self.window.stride_ms,
            dmd=self.dmd,
        )

    def window_protocol(self, width_ms: int = None) -> WindowProtocol:
        return WindowProtocol(
            sequence=self.sequence_config(width_ms),
            sample_count=self.window.sample_count,
            sample_stride_ms=self.window.sample_stride_ms,
            unperturbed_range=(10000, self.data.duration_ms),
        )

    def surrogate_config(self) -> SurrogateConfig:
        return SurrogateConfig(
            n_units=self.data.n_units,
            include_pq=self.data.include_pq,
            include_line_flows=self.data.include_line_flows,
            duration_ms=self.data.duration_ms,
            event_ms=self.data.event_ms,
            snr_db=self.data.snr_db,
        )

    def train_config(self) -> TrainConfig:
        t = self.train
        return TrainConfig(
            lr=t.lr, weight_decay=t.weight_decay, epochs=t.epochs,
            batch_size=t.batch_size, early_stop_patience=t.early_stop_patience,
            val_fraction=t.val_fraction, test_fraction=t.test_fraction,
            seed=self.seed,
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _build_section(cls, obj, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {path!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown config key(s) under {path!r}: {sorted(unknown)}")
    kwargs = {}
    for name, value in obj.items():
        if isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config section {path!r}: {exc}") from exc


_SECTIONS = {
    "paths": PathsSection,
    "data": DataSection,
    "window": WindowSection,
    "dmd": DmdConfig,
    "model": ModelSection,
    "train": TrainSection,
    "evaluate": EvaluateSection,
}


def config_from_dict(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(obj) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}")
    kwargs = {}
    if "seed" in obj:
        if not isinstance(obj["seed"], int):
            raise ConfigError("seed must be an integer")
        kwargs["seed"] = obj["seed"]
    for name, cls in _SECTIONS.items():
        if name in obj:
            kwargs[name] = _build_section(cls, obj[name], name)
    return RunConfig(**kwargs)


def load_config(path) -> RunConfig:
    """Load a config file; the name 'demo' resolves to the bundled demo config."""
    if path == "demo":
        text = resources.files("dramn").joinpath("configs/demo.json").read_text()
    else:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(obj)
