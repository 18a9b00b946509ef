"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from spoofbench import (
    AudioClip,
    ChannelConfig,
    DetectorConfig,
    EvalProtocol,
    Logits,
    ManifestEntry,
    PoolSpec,
    TrialScore,
    add_colored_noise,
    aggregate_layers,
    attentive_stats_pool,
    bandpass_telephony,
    codec_roundtrip,
    convolutive_distortion,
    convolve_ir,
    detect_voice,
    detector_forward,
    impulsive_noise,
    init_aggregator_parameters,
    init_parameters,
    load_parameters,
    net_speech_prefix,
    net_speech_seconds,
    present,
    save_parameters,
    save_wav,
    score,
    write_manifest,
)
from spoofbench.cli import main
from spoofbench.corpus import MIN_NET_SPEECH_S
from spoofbench.detector.model import AggregatorConfig
from spoofbench.features import LogMelSpectrogram
from spoofbench.metrics import evaluate, read_scores_csv

from conftest import SR, silence, tone
from oracles import detector_param_count_oracle

COMPACT_DETECTOR = {
    "stage_channels": [8, 16, 32, 64],
    "blocks_per_stage": [1, 1, 1, 1],
    "embedding_dim": 128,
}


def _sweep_far_mdr(bona, spoof, thresholds):
    """Exhaustive-by-definition rates: direct counting at each threshold."""
    far = (bona[None, :] >= thresholds[:, None]).mean(axis=1)
    mdr = (spoof[None, :] < thresholds[:, None]).mean(axis=1)
    return far, mdr


def _oracle_eer(bona, spoof):
    vals = np.unique(np.concatenate([bona, spoof]))
    thresholds = np.concatenate([[vals[0] - 1.0], vals, [vals[-1] + 1.0]])
    far, mdr = _sweep_far_mdr(bona, spoof, thresholds)
    diff = far - mdr
    for i in range(len(diff) - 1):
        if diff[i] >= 0.0 > diff[i + 1]:
            t = 0.0 if diff[i] == diff[i + 1] else diff[i] / (diff[i] - diff[i + 1])
            return far[i] + t * (far[i + 1] - far[i])
    raise AssertionError("no crossing")


def _oracle_mdr_at_far(bona, spoof, target):
    vals = np.unique(np.concatenate([bona, spoof]))
    cands = np.sort(
        np.concatenate([[vals[0] - 1.0], vals, (vals[:-1] + vals[1:]) / 2.0, [vals[-1] + 1.0]])
    )
    far, mdr = _sweep_far_mdr(bona, spoof, cands)
    for i in range(len(cands)):
        if far[i] <= target:
            return mdr[i], cands[i]
    raise AssertionError("unreachable target")


def test_criterion_1_metric_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    t0 = time.time()
    n_sets = 500
    for k in range(n_sets):
        n_total = int(rng.integers(10, 1001))
        n_bona = int(rng.integers(5, max(6, n_total - 4)))
        n_spoof = max(5, n_total - n_bona)
        bona = rng.normal(0.0, 1.0, n_bona)
        spoof = rng.normal(rng.uniform(0.1, 2.0), 1.0, n_spoof)
        trials = [TrialScore(f"b{i}", "bonafide", float(s)) for i, s in enumerate(bona)]
        trials += [TrialScore(f"s{i}", "spoof", float(s)) for i, s in enumerate(spoof)]
        target = float(rng.choice([0.01, 0.05, 0.1]))
        report = evaluate(trials, target)
        eer, mdr, thr = report.eer, report.mdr_at_far, report.threshold_at_far
        assert abs(eer - _oracle_eer(bona, spoof)) < 1e-9
        omdr, othr = _oracle_mdr_at_far(bona, spoof, target)
        assert abs(mdr - omdr) < 1e-9
        assert abs(thr - othr) < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\n[ACCEPTANCE] criterion 1: PASS - {n_sets} random sets match the "
          f"sweep oracle within 1e-9 in {elapsed:.1f}s")


def test_criterion_2_protocol_constants(tmp_path):
    runner = CliRunner()

    # far target defaults to 1% end to end
    trials = [TrialScore(f"b{i}", "bonafide", 0.1 * i) for i in range(5)]
    trials += [TrialScore(f"s{i}", "spoof", 1.0 + 0.1 * i) for i in range(5)]
    from spoofbench.metrics import write_scores_csv

    scores_csv = tmp_path / "toy.csv"
    write_scores_csv(trials, scores_csv)
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main, ["eval", "--scores", str(scores_csv), "--out", str(report_path), "--no-timestamp"]
    )
    assert result.exit_code == 0
    report = json.loads(report_path.read_text())
    assert report["far_target"] == 0.01
    assert report["pooled"]["far_target"] == 0.01

    # checkpoints default to exactly {2, 3, 6, 9, 12, 15} seconds
    assert EvalProtocol().checkpoints_s == (2.0, 3.0, 6.0, 9.0, 12.0, 15.0)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"detector": COMPACT_DETECTOR}))
    weights = tmp_path / "w.bin"
    assert runner.invoke(
        main, ["--config", str(cfg_path), "init-weights", "--seed", "0", "--out", str(weights)]
    ).exit_code == 0
    wav = tmp_path / "long.wav"
    save_wav(AudioClip(np.concatenate([silence(0.2), tone(850.0, 17.0), silence(0.2)]), SR), wav)
    manifest = tmp_path / "m.jsonl"
    write_manifest([ManifestEntry("long", str(wav), "spoof", "d")], manifest)
    det_scores = tmp_path / "scores.csv"
    result = runner.invoke(
        main,
        ["--config", str(cfg_path), "detect", "--manifest", str(manifest),
         "--weights", str(weights), "--out", str(det_scores), "--checkpoints"],
    )
    assert result.exit_code == 0, result.output
    rows = read_scores_csv(det_scores).rows()
    assert [r.checkpoint_s for r in rows] == [2.0, 3.0, 6.0, 9.0, 12.0, 15.0]

    # minimum net speech 0.5 s: a 0.3 s clip is discarded by cmd_detect
    assert MIN_NET_SPEECH_S == 0.5
    short_wav = tmp_path / "short.wav"
    save_wav(AudioClip(np.concatenate([silence(0.3), tone(700.0, 0.3), silence(0.3)]), SR), short_wav)
    manifest2 = tmp_path / "m2.jsonl"
    write_manifest(
        [ManifestEntry("short", str(short_wav), "spoof", "d"),
         ManifestEntry("long", str(wav), "bonafide", "d")],
        manifest2,
    )
    det2 = tmp_path / "scores2.csv"
    result = runner.invoke(
        main,
        ["--config", str(cfg_path), "detect", "--manifest", str(manifest2),
         "--weights", str(weights), "--out", str(det2)],
    )
    assert result.exit_code == 0
    assert [r.utt_id for r in read_scores_csv(det2).rows()] == ["long"]

    # pool defaults: 3000 per class per dataset; 7 datasets -> 21,000 per class
    assert PoolSpec().per_class_per_dataset == 3000
    paths = []
    for d in range(7):
        entries = [
            ManifestEntry(f"ds{d}-{label}-{i:05d}", f"/x/{i}.wav", label, f"ds{d}", net_speech_s=4.0)
            for label in ("bonafide", "spoof")
            for i in range(3000)
        ]
        p = tmp_path / f"ds{d}.jsonl"
        write_manifest(entries, p)
        paths.append(str(p))
    pool_out = tmp_path / "pool.jsonl"
    args = ["pool", "--seed", "1", "--out", str(pool_out)]
    for p in paths:
        args += ["--manifests", p]
    assert runner.invoke(main, args).exit_code == 0
    from spoofbench import read_manifest

    pool = read_manifest(pool_out)
    assert sum(1 for e in pool if e.label == "spoof") == 21_000
    assert sum(1 for e in pool if e.label == "bonafide") == 21_000
    print("\n[ACCEPTANCE] criterion 2: PASS - far 1%, checkpoints {2,3,6,9,12,15}s, "
          "0.5s floor, 3000/class and 21,000/class pool all hold through the CLI")


def test_criterion_3_scoring_rule():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = (float(x) for x in rng.standard_normal(2) * 5)
        assert score(Logits(a, b)).s == 0.5 * (a - b)
        assert score(Logits(a, b)).s + score(Logits(b, a)).s == 0.0
    trials = [TrialScore(f"b{i}", "bonafide", float(s)) for i, s in enumerate(rng.normal(0, 1, 60))]
    trials += [TrialScore(f"s{i}", "spoof", float(s)) for i, s in enumerate(rng.normal(1, 1, 60))]
    report = evaluate(trials, 0.01)
    assert report.detection_rate == 100.0 * (1.0 - report.mdr_at_far)
    print("\n[ACCEPTANCE] criterion 3: PASS - score = 0.5*(l_spoof - l_bonafide), "
          "antisymmetry and detection-rate convention exact")


def test_criterion_4_detector_shape_determinism(tmp_path):
    cfg = DetectorConfig()
    store = init_parameters(cfg, seed=11)
    n = sum(arr.size for _, arr in store.items())
    assert 3.0e6 <= n <= 4.1e6
    assert n == detector_param_count_oracle()

    rng = np.random.default_rng(4)
    for frames in (16, 33, 128, 400):
        feat = LogMelSpectrogram(rng.standard_normal((frames, 64)))
        logits = detector_forward(feat, store, cfg)
        assert np.isfinite(logits.l_spoof) and np.isfinite(logits.l_bonafide)

    # zero input: mu half of the embedding is exactly zero; the sigma half is
    # sqrt(1e-9), bounding |logit| by that times the FC row mass (< 1e-3)
    logits = detector_forward(LogMelSpectrogram(np.zeros((64, 64))), store, cfg)
    assert abs(logits.l_spoof) < 1e-3 and abs(logits.l_bonafide) < 1e-3

    path = tmp_path / "w.bin"
    save_parameters(store, path)
    back = load_parameters(path)
    assert [n for n, _ in back.items()] == [n for n, _ in store.items()]
    for name, arr in store.items():
        assert np.array_equal(arr, back[name])
    print(f"\n[ACCEPTANCE] criterion 4: PASS - {n} parameters (= shape oracle, "
          "within [3.0e6, 4.1e6]), finite logits for 16-400 frames, near-zero "
          "logits on zero input, bit-exact weight round trip")


def test_criterion_5_pooling_and_aggregation():
    rng = np.random.default_rng(5)
    d = 24
    w, b, v = rng.standard_normal((10, d)), rng.standard_normal(10), rng.standard_normal(10)
    c = rng.standard_normal(d)
    out = attentive_stats_pool(np.tile(c, (40, 1)), w, b, v)
    assert np.abs(out[:d] - c).max() < 1e-9
    assert np.abs(out[d:]).max() <= 1e-4

    h = rng.standard_normal((50, d))
    out = attentive_stats_pool(h, w, b, np.zeros(10))
    assert np.abs(out[:d] - h.mean(axis=0)).max() < 1e-9

    acfg = AggregatorConfig(n_layers=6, in_dim=32, proj_dim=128)
    params = init_aggregator_parameters(acfg, seed=0)
    assert not params["layer_logits"].any()
    stack = rng.standard_normal((6, 15, 32))
    fused = aggregate_layers(stack, params, acfg)

    from spoofbench.detector.ops import gelu, layer_norm

    per_layer = [
        layer_norm(
            gelu(stack[l] @ params["proj.weight"][l].astype(np.float64).T
                 + params["proj.bias"][l].astype(np.float64)),
            params["ln1.gamma"], params["ln1.beta"],
        )
        for l in range(6)
    ]
    expected = layer_norm(np.mean(per_layer, axis=0), params["ln2.gamma"], params["ln2.beta"])
    assert np.abs(fused - expected).max() < 1e-9
    assert np.abs(fused.mean(axis=1)).max() < 1e-6
    assert np.abs(fused.var(axis=1) - 1.0).max() < 1e-4
    print("\n[ACCEPTANCE] criterion 5: PASS - pooling constants/uniform-attention "
          "and layer aggregation match their oracles at stated tolerances")


def test_criterion_6_dsp_suite():
    x = np.sin(2 * np.pi * 1000 * np.arange(SR) / SR)
    clip = AudioClip(x, SR)
    once = codec_roundtrip(clip, "mulaw")
    sqnr = 10 * np.log10(np.mean(x**2) / np.mean((once.samples - x) ** 2))
    assert sqnr >= 30.0
    twice = codec_roundtrip(once, "mulaw")
    assert np.abs(twice.samples - once.samples).max() < 1e-9

    hum = AudioClip(tone(60.0, 4.0), SR)
    hum_out = bandpass_telephony(hum)
    att = 20 * np.log10(
        np.sqrt(np.mean(hum_out.samples[2 * SR :] ** 2))
        / np.sqrt(np.mean(hum.samples[2 * SR :] ** 2))
    )
    assert att <= -20.0
    mid = bandpass_telephony(clip)
    gain = 20 * np.log10(
        np.sqrt(np.mean(mid.samples[2000:] ** 2)) / np.sqrt(np.mean(x[2000:] ** 2))
    )
    assert abs(gain) <= 1.0

    assert np.abs(
        convolve_ir(clip, AudioClip(np.array([1.0]), SR)).samples - x
    ).max() < 1e-12

    seeded = [
        lambda: add_colored_noise(clip, 20.0, seed=77),
        lambda: convolutive_distortion(clip, 5, seed=77),
        lambda: impulsive_noise(clip, 25.0, 2.0, seed=77),
        lambda: present(
            clip,
            ChannelConfig(path="injection_analog", codec="mulaw",
                          gain_db=(-3, 3), noise_snr_db=(10, 30)),
            seed=77,
        ),
    ]
    for op in seeded:
        assert np.array_equal(op().samples, op().samples)
    print(f"\n[ACCEPTANCE] criterion 6: PASS - mu-law SQNR {sqnr:.1f} dB and "
          f"idempotent, 60 Hz at {att:.0f} dB, 1 kHz within 1 dB, impulse "
          "identity, seeded augmentations bit-exact")


@pytest.mark.slow
def test_criterion_7_protocol_pipeline(tmp_path):
    t_start = time.time()
    runner = CliRunner()
    protocol = EvalProtocol()
    hop = 0.010

    clips = []
    rng = np.random.default_rng(7)
    for i in range(50):
        freq = float(rng.uniform(400, 2400))
        amp = float(rng.uniform(0.3, 0.9))
        samples = np.concatenate(
            [silence(0.3), tone(freq, 20.0, amplitude=amp), silence(0.5)]
        )
        clip = AudioClip(samples, SR)
        wav = tmp_path / f"clip{i:02d}.wav"
        save_wav(clip, wav)
        label = "spoof" if i % 2 else "bonafide"
        clips.append((f"clip{i:02d}", str(wav), label, clip))

    # every clip: ~20 s net speech and checkpoint prefixes within one hop
    for utt, _, _, clip in clips:
        mask = detect_voice(clip)
        net = net_speech_seconds(mask)
        assert 19.9 <= net <= 20.2, (utt, net)
        for k in protocol.checkpoints_s:
            prefix = net_speech_prefix(clip, mask, k)
            assert 0.0 <= prefix.duration_s - k <= hop + 1e-9, (utt, k, prefix.duration_s)

    manifest = tmp_path / "m.jsonl"
    write_manifest(
        [ManifestEntry(utt, path, label, "synthetic") for utt, path, label, _ in clips],
        manifest,
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"detector": COMPACT_DETECTOR, "parallelism": 2}))
    weights = tmp_path / "w.bin"
    assert runner.invoke(
        main, ["--config", str(cfg_path), "init-weights", "--seed", "3", "--out", str(weights)]
    ).exit_code == 0

    scores_csv = tmp_path / "scores.csv"
    result = runner.invoke(
        main,
        ["--config", str(cfg_path), "detect", "--manifest", str(manifest),
         "--weights", str(weights), "--out", str(scores_csv), "--checkpoints"],
    )
    assert result.exit_code == 0, result.output
    rows = read_scores_csv(scores_csv).rows()
    per_utt = {}
    for r in rows:
        per_utt.setdefault(r.utt_id, []).append(r.checkpoint_s)
    assert len(per_utt) == 50
    for utt, cps in per_utt.items():
        assert sorted(cps) == list(protocol.checkpoints_s), utt

    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["eval", "--scores", str(scores_csv), "--checkpoint-avg",
         "--out", str(report_path), "--no-timestamp"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())

    # hand-computed mean of per-checkpoint metrics
    eers, mdrs = [], []
    for cp in protocol.checkpoints_s:
        sub = [r for r in rows if r.checkpoint_s == cp]
        assert len(sub) == 50
        report_cp = evaluate(sub, 0.01)
        eers.append(report_cp.eer)
        mdrs.append(report_cp.mdr_at_far)
        bona = np.array([r.score for r in sub if r.label == "bonafide"])
        spoof = np.array([r.score for r in sub if r.label == "spoof"])
        assert abs(eers[-1] - _oracle_eer(bona, spoof)) < 1e-9
    assert abs(report["checkpoint_avg"]["eer"] - np.mean(eers)) < 1e-12
    assert abs(report["checkpoint_avg"]["mdr_at_far"] - np.mean(mdrs)) < 1e-12

    elapsed = time.time() - t_start
    assert elapsed < 120.0, f"pipeline took {elapsed:.0f}s"
    print(f"\n[ACCEPTANCE] criterion 7: PASS - 50 clips x 6 checkpoint rows, "
          f"prefixes within one hop, checkpoint average exact, {elapsed:.0f}s total")


@pytest.mark.slow
def test_criterion_8_end_to_end_determinism(tmp_path):
    runner = CliRunner()
    rng = np.random.default_rng(8)

    raw_dir = tmp_path / "raw"
    raw_dir.mkdir()
    specs = []
    for d in range(2):
        for i in range(4):
            utt = f"ds{d}-u{i}"
            freq = float(rng.uniform(500, 2000))
            wav = raw_dir / f"{utt}.wav"
            save_wav(
                AudioClip(np.concatenate([silence(0.2), tone(freq, 2.0), silence(0.2)]), SR), wav
            )
            label = "spoof" if i % 2 else "bonafide"
            specs.append((utt, str(wav), label, f"ds{d}"))

    def run_chain(tag: str, parallelism: int):
        work = tmp_path / tag
        work.mkdir()
        cfg_path = work / "config.json"
        cfg_path.write_text(
            json.dumps({"global_seed": 99, "detector": COMPACT_DETECTOR, "parallelism": parallelism})
        )
        # present
        jobs = work / "jobs.jsonl"
        lines = []
        presented = []
        for utt, wav, label, ds in specs:
            out_wav = work / "presented" / f"{utt}.wav"
            lines.append(json.dumps({
                "utt_id": utt, "input": wav, "output": str(out_wav),
                "path": "injection_analog", "codec": "mulaw",
                "gain_db": [-3.0, 3.0], "snr_db": [18.0, 30.0],
            }))
            presented.append((utt, str(out_wav), label, ds))
        jobs.write_text("".join(l + "\n" for l in lines))
        assert runner.invoke(
            main, ["--config", str(cfg_path), "present", "--jobs", str(jobs)]
        ).exit_code == 0
        # vad
        manifest = work / "presented.jsonl"
        write_manifest(
            [ManifestEntry(u, p, l, d) for u, p, l, d in presented], manifest
        )
        vad_manifest = work / "vad.jsonl"
        assert runner.invoke(
            main, ["--config", str(cfg_path), "vad", "--in", str(manifest), "--out", str(vad_manifest)]
        ).exit_code == 0
        # pool (2 per class per dataset)
        pool_manifest = work / "pool.jsonl"
        assert runner.invoke(
            main,
            ["--config", str(cfg_path), "pool", "--manifests", str(vad_manifest),
             "--per-class", "2", "--out", str(pool_manifest)],
        ).exit_code == 0
        # detect
        weights = work / "w.bin"
        assert runner.invoke(
            main, ["--config", str(cfg_path), "init-weights", "--out", str(weights)]
        ).exit_code == 0
        scores_csv = work / "scores.csv"
        assert runner.invoke(
            main,
            ["--config", str(cfg_path), "detect", "--manifest", str(pool_manifest),
             "--weights", str(weights), "--out", str(scores_csv)],
        ).exit_code == 0
        # eval
        report = work / "report.json"
        assert runner.invoke(
            main,
            ["--config", str(cfg_path), "eval", "--scores", str(scores_csv),
             "--pooled", "--per-dataset", "--no-timestamp", "--out", str(report)],
        ).exit_code == 0
        pool_ids = [e.utt_id for e in __import__("spoofbench").read_manifest(pool_manifest)]
        return scores_csv.read_bytes(), report.read_bytes(), pool_ids

    first = run_chain("run1", parallelism=1)
    second = run_chain("run2", parallelism=4)
    assert len(first[2]) == 2 * 2 * 2 and first[2] == second[2], "pool selection differs"
    assert first[0] == second[0] and len(first[0]) > 0, "score CSVs differ"
    assert first[1] == second[1], "reports differ"
    print("\n[ACCEPTANCE] criterion 8: PASS - full vad/present/pool/detect/eval "
          "chain byte-identical across runs and parallelism settings")
