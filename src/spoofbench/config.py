"""Run configuration: one JSON document mirrored onto the sub-configs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .audio import MAX_SAMPLE_RATE_HZ, VadConfig
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
        if self.sample_rate_hz > MAX_SAMPLE_RATE_HZ:
            raise ValueError(f"sample_rate_hz {self.sample_rate_hz} Hz above {MAX_SAMPLE_RATE_HZ} Hz")
        if not math.isfinite(self.vad.frame_len_s * self.sample_rate_hz):  # so is the hop's: hop_s <= frame_len_s
            raise ValueError(f"vad.frame_len_s {self.vad.frame_len_s:g} s is not a finite number of samples "
                             f"at {self.sample_rate_hz} Hz")
        if round(self.vad.hop_s * self.sample_rate_hz) < 1:  # the frame is no shorter: frame_len_s >= hop_s
            raise ValueError(f"vad.hop_s {self.vad.hop_s:g} s is under one sample at {self.sample_rate_hz} Hz")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


def load_run_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        return from_doc(RunConfig, loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # an unknown key, a value of the wrong type, a bad value, bad JSON or not UTF-8
        raise ValueError(f"{path}: {exc}") from exc
