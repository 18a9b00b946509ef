"""The benchmark's traced run finds the program's functions by name.

benchmarks/tracer.py wraps each function in its ``PATCHES`` where callers
look it up, and leaves out the metrics of one it cannot find instead of
failing; without the three unit functions it loses the whole per-unit
split.  These tests fail instead, when a function is renamed, moved, no
longer called, or bound at import time where the wrapper cannot reach it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from click.testing import CliRunner

from spoofbench import AudioClip, DetectorConfig, LogMelSpectrogram, init_parameters, save_wav

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


def installed(tracer, monkeypatch):
    """A tracer wrapped around every patch target; monkeypatch puts each original back afterwards."""
    for module_name, attr, _ in tracer.PATCHES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    spans = tracer.Tracer()
    assert spans.install() == []
    return spans


def test_traced_forward_splits_into_every_unit(tracer, monkeypatch):
    spans = installed(tracer, monkeypatch)
    import spoofbench.cli as cli

    blocks = (2, 1, 1, 2)
    cfg = DetectorConfig(stage_channels=(8, 16, 32, 64), blocks_per_stage=blocks, embedding_dim=128)
    feat = LogMelSpectrogram(np.random.default_rng(0).standard_normal((64, 64)))
    cli.detector_forward(feat, init_parameters(cfg, 0))

    [(_, parts)] = tracer.forward_parts(spans.spans, blocks)
    units = tracer._stage_layout(blocks)
    want = {u for u in units if u.endswith("adapter")}
    want |= {f"{u}.{part}" for u in units if not u.endswith("adapter") for part in ("conv", "cot")}
    assert set(parts) == want | {"pool", "fc"}
    called = {s["name"] for s in spans.spans}
    detector_spans = {name for _, _, name in tracer.PATCHES if name.startswith("detector.")}
    assert detector_spans - called == {"detector.params.load_parameters"}


@pytest.mark.parametrize("path, stages", [
    ("playback", {"convolve_ir", "bandpass_telephony", "codec_roundtrip", "add_colored_noise"}),
    ("injection_analog", {"soft_clip", "add_colored_noise", "bandpass_telephony", "codec_roundtrip"}),
    ("injection_digital", {"codec_roundtrip"}),
])
def test_traced_present_spans_every_stage_of_its_path(tracer, monkeypatch, tmp_path, path, stages):
    spans = installed(tracer, monkeypatch)
    import spoofbench.cli as cli

    rng = np.random.default_rng(0)
    save_wav(AudioClip(0.3 * np.sin(np.arange(8000) / 3.0), 8000), tmp_path / "in.wav")
    save_wav(AudioClip(np.concatenate([[0.8], 0.1 * rng.standard_normal(31)]), 8000), tmp_path / "ir.wav")
    job = {"input": str(tmp_path / "in.wav"), "output": str(tmp_path / "out.wav"), "path": path, "codec": "alaw",
           "snr_db": None if path == "injection_digital" else [20, 30],
           "ir": str(tmp_path / "ir.wav") if path == "playback" else None}
    (tmp_path / "jobs.jsonl").write_text(json.dumps(job) + "\n")
    result = CliRunner().invoke(cli.main, ["present", "--jobs", str(tmp_path / "jobs.jsonl"), "--seed", "0"])
    assert result.exit_code == 0, result.output
    called = {s["name"] for s in spans.spans if s["name"].startswith("presentation.")}
    assert called == {"presentation.present"} | {f"presentation.{stage}" for stage in stages}
