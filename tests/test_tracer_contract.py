"""The benchmark's traced run finds the program's functions by name.

benchmarks/tracer.py wraps each function in its ``PATCHES`` where callers
look it up, and leaves out the metrics of one it cannot find instead of
failing; without the three unit functions it loses the whole per-unit
split.  These tests fail instead, when a function is renamed, moved or no
longer called.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spoofbench import DetectorConfig, LogMelSpectrogram, init_parameters

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("spoofbench_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves(tracer):
    missing = [(m, attr) for m, attr, _ in tracer.PATCHES if getattr(importlib.import_module(m), attr, None) is None]
    assert missing == []


def test_traced_forward_splits_into_every_unit(tracer, monkeypatch):
    for module_name, attr, _ in tracer.PATCHES:  # monkeypatch puts every original back afterwards
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    spans = tracer.Tracer()
    assert spans.install() == []
    import spoofbench.cli as cli

    blocks = (2, 1, 1, 2)
    cfg = DetectorConfig(stage_channels=(8, 16, 32, 64), blocks_per_stage=blocks, embedding_dim=128)
    feat = LogMelSpectrogram(np.random.default_rng(0).standard_normal((64, 64)))
    cli.detector_forward(feat, init_parameters(cfg, 0), cfg)

    [(_, parts)] = tracer.forward_parts(spans.spans, blocks)
    units = tracer._stage_layout(blocks)
    want = {u for u in units if u.endswith("adapter")}
    want |= {f"{u}.{part}" for u in units if not u.endswith("adapter") for part in ("conv", "cot")}
    assert set(parts) == want | {"pool", "fc"}
    called = {s["name"] for s in spans.spans}
    detector_spans = {name for _, _, name in tracer.PATCHES if name.startswith("detector.")}
    assert detector_spans - called == {"detector.params.load_parameters"}
