"""Run configuration: one JSON document mirrored onto the sub-configs."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .audio import VadConfig
from .corpus import from_doc, loads
from .detector.model import DetectorConfig
from .features import FeatureConfig
from .metrics import EvalProtocol


@dataclass(frozen=True)
class RunConfig:
    global_seed: int = 0
    sample_rate_hz: int = 8000
    vad: VadConfig = field(default_factory=VadConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    protocol: EvalProtocol = field(default_factory=EvalProtocol)
    parallelism: int = 1

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


def load_run_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        return from_doc(RunConfig, loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # an unknown key, a value of the wrong type, a bad value, bad JSON or not UTF-8
        raise ValueError(f"{path}: {exc}") from exc
