import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spoofbench.audio
from spoofbench import (
    AudioClip,
    DetectorConfig,
    ManifestEntry,
    ParameterStore,
    TrialScore,
    detect_voice,
    detector_forward,
    init_parameters,
    load_parameters,
    load_run_config,
    load_wav,
    log_mel,
    net_speech_prefix,
    resample,
    save_parameters,
    save_wav,
    score,
    trim_nonspeech,
    write_manifest,
)
from spoofbench.cli import main
from spoofbench.metrics import read_scores_csv, write_scores_csv

from conftest import SR, silence, tone

COMPACT_DETECTOR = {
    "stage_channels": [8, 16, 32, 64],
    "blocks_per_stage": [1, 1, 1, 1],
    "embedding_dim": 128,
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"global_seed": 13, "detector": COMPACT_DETECTOR}))
    return str(path)


def make_clip_file(path, net_speech_s, freq=1000.0):
    samples = np.concatenate([silence(0.2), tone(freq, net_speech_s), silence(0.2)])
    save_wav(AudioClip(samples, SR), path)
    return path


def make_manifest(tmp_path, specs, name="manifest.jsonl"):
    """specs: list of (utt_id, label, dataset, net_speech_s_of_audio)."""
    entries = []
    for utt_id, label, dataset, dur in specs:
        wav = tmp_path / f"{utt_id}.wav"
        make_clip_file(wav, dur, freq=600.0 + 40.0 * (hash(utt_id) % 50))
        entries.append(ManifestEntry(utt_id, str(wav), label, dataset))
    path = tmp_path / name
    write_manifest(entries, path)
    return path


class TestCmdVad:
    def test_fills_net_speech(self, runner, tmp_path):
        manifest = make_manifest(
            tmp_path,
            [("u1", "bonafide", "d", 1.0), ("u2", "spoof", "d", 2.0), ("u3", "spoof", "d", 0.8)],
        )
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["vad", "--in", str(manifest), "--out", str(out)])
        assert result.exit_code == 0, result.output
        from spoofbench import read_manifest

        entries = read_manifest(out)
        assert len(entries) == 3
        assert all(e.net_speech_s > 0.5 for e in entries)

    def test_empty_manifest(self, runner, tmp_path):
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("")
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["vad", "--in", str(manifest), "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == ""

    def test_missing_file_reported(self, runner, tmp_path):
        manifest = make_manifest(tmp_path, [("ok", "bonafide", "d", 1.0)])
        entries = [e for e in __import__("spoofbench").read_manifest(manifest)]
        entries.append(ManifestEntry("gone", str(tmp_path / "gone.wav"), "spoof", "d"))
        write_manifest(entries, manifest)
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["vad", "--in", str(manifest), "--out", str(out)])
        assert result.exit_code == 1
        assert "gone" in result.stderr
        # partial results still written
        kept = __import__("spoofbench").read_manifest(out)
        assert [e.utt_id for e in kept] == ["ok"]

    def test_sample_rate_above_the_bound_fails_only_its_entry(self, runner, tmp_path):
        """Refused as the header is read: resampling from 2**31 - 1 Hz would ask for a 32 GiB filter."""
        manifest = make_manifest(tmp_path, [("bad", "spoof", "d", 0.5), ("good", "bonafide", "d", 0.5)])
        bad = tmp_path / "bad.wav"
        raw = bytearray(bad.read_bytes())
        raw[24:28] = (2**31 - 1).to_bytes(4, "little")  # the fmt chunk's sample rate
        bad.write_bytes(bytes(raw))
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["vad", "--in", str(manifest), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: bad: {bad}: sample rate 2147483647 Hz above 768000 Hz\n"
        assert [e.utt_id for e in __import__("spoofbench").read_manifest(out)] == ["good"]

    def test_trim_dir(self, runner, tmp_path):
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        out = tmp_path / "out.jsonl"
        trim = tmp_path / "trimmed"
        result = runner.invoke(
            main, ["vad", "--in", str(manifest), "--out", str(out), "--trim-dir", str(trim)]
        )
        assert result.exit_code == 0
        assert (trim / "u1.wav").exists()
        entries = __import__("spoofbench").read_manifest(out)
        assert entries[0].path.endswith("trimmed/u1.wav")

    def test_trim_dir_refuses_an_id_that_is_no_file_name(self, runner, tmp_path):
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        entries = __import__("spoofbench").read_manifest(manifest)
        wav = entries[0].path
        entries += [ManifestEntry("../escaped", wav, "spoof", "d"), ManifestEntry("a/b", wav, "spoof", "d")]
        write_manifest(entries, manifest)
        out, trim = tmp_path / "out.jsonl", tmp_path / "work" / "trim"
        result = runner.invoke(main, ["vad", "--in", str(manifest), "--out", str(out), "--trim-dir", str(trim)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [f"error: ../escaped: ../escaped.wav is not a plain file name in {trim}",
                                              f"error: a/b: a/b.wav is not a plain file name in {trim}"]
        assert sorted(p.name for p in (tmp_path / "work").rglob("*")) == ["trim", "u1.wav"]
        assert [e.utt_id for e in __import__("spoofbench").read_manifest(out)] == ["u1"]
        # without --trim-dir the same ids are only names
        result = runner.invoke(main, ["vad", "--in", str(manifest), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert [e.utt_id for e in __import__("spoofbench").read_manifest(out)] == ["../escaped", "a/b", "u1"]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_trim_dir_refuses_an_entry_that_writes_another_entrys_input(self, runner, tmp_path, monkeypatch,
                                                                         parallelism):
        """a's trimmed file would be b's and c's input, b's a's: which ran first would decide the result."""
        from spoofbench import cli, net_speech_seconds

        monkeypatch.setattr(cli, "cores", lambda: 2)
        d = tmp_path / "d"
        d.mkdir()
        short, long = make_clip_file(d / "a.wav", 0.6), make_clip_file(d / "b.wav", 1.6)
        before = {p: p.read_bytes() for p in (short, long)}
        write_manifest([ManifestEntry("a", str(long), "spoof", "x"), ManifestEntry("b", str(short), "spoof", "x"),
                        ManifestEntry("c", str(short), "spoof", "x")], tmp_path / "m.jsonl")
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["vad", "--in", str(tmp_path / "m.jsonl"), "--out", str(out),
                                      "--trim-dir", str(d), "--parallelism", str(parallelism)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [f"error: a: output {short} is also the path of entry b",
                                              f"error: b: output {long} is also the path of entry a"]
        assert {p: p.read_bytes() for p in before} == before
        [entry] = __import__("spoofbench").read_manifest(out)
        assert entry.utt_id == "c" and entry.path == str(d / "c.wav")
        assert entry.net_speech_s == net_speech_seconds(detect_voice(load_wav(short)))

    def test_entry_whose_resampling_filter_is_over_the_bound_fails_alone(self, runner, tmp_path):
        """767,999 Hz -> 768,000 Hz needs a 50.7M-tap filter: refused before it is allocated."""
        rate = 768_000
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sample_rate_hz": rate}))
        bad, good = tmp_path / "bad.wav", tmp_path / "good.wav"
        save_wav(AudioClip(np.zeros(30_720), rate - 1), bad)
        save_wav(AudioClip(0.5 * np.sin(np.arange(rate // 2) * 0.05), rate), good)
        write_manifest([ManifestEntry("bad", str(bad), "spoof", "x"),
                        ManifestEntry("good", str(good), "bonafide", "x")], tmp_path / "m.jsonl")
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["--config", str(config), "vad", "--in", str(tmp_path / "m.jsonl"),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == ("error: bad: resampling 767999 Hz to 768000 Hz needs a 50687935-tap filter, "
                                 "above 2097152 taps\n")
        assert [e.utt_id for e in __import__("spoofbench").read_manifest(out)] == ["good"]


class TestCmdPresent:
    def test_identity_job_byte_equal(self, runner, tmp_path):
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        dst = tmp_path / "out.wav"
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            json.dumps(
                {"input": str(src), "output": str(dst), "path": "injection_digital",
                 "codec": "none", "gain_db": 0.0}
            )
            + "\n"
        )
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1"])
        assert result.exit_code == 0, result.output
        assert dst.read_bytes() == src.read_bytes()

    def test_rerun_identical(self, runner, tmp_path):
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        dst = tmp_path / "out.wav"
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            json.dumps(
                {"input": str(src), "output": str(dst), "path": "injection_analog",
                 "codec": "mulaw", "gain_db": [-3.0, 3.0], "snr_db": [15.0, 30.0]}
            )
            + "\n"
        )
        assert runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "5"]).exit_code == 0
        first = dst.read_bytes()
        assert runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "5"]).exit_code == 0
        assert dst.read_bytes() == first

    def test_playback_without_ir_fails(self, runner, tmp_path):
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        empty = tmp_path / "empty.wav"
        save_wav(AudioClip(np.zeros(0), SR), empty)
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("".join(json.dumps(job) + "\n" for job in [
            {"input": str(src), "output": str(tmp_path / "o.wav"), "path": "playback"},
            {"input": str(src), "output": str(tmp_path / "e.wav"), "path": "playback", "ir": str(empty), "utt_id": "e"},
            {"input": str(src), "output": str(tmp_path / "d.wav"), "path": "injection_digital"},
        ]))
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1"])
        assert result.exit_code == 1
        assert "impulse response" in result.stderr
        # an empty IR is given, so it passes the jobs line and fails when its job runs, alone
        assert result.stderr.splitlines() == ["error: line 1: playback path requires an impulse response",
                                              "error: e: impulse response is empty"]
        assert [p.name for p in tmp_path.glob("?.wav")] == ["d.wav"]

    def test_noise_on_digital_fails_only_its_job(self, runner, tmp_path):
        """injection_digital adds no noise, so a job that asks it for an SNR is refused, on an empty input too."""
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        empty = tmp_path / "empty.wav"
        save_wav(AudioClip(np.zeros(0), SR), empty)
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("".join(json.dumps(job) + "\n" for job in [
            {"input": str(src), "output": str(tmp_path / "z.wav"), "path": "injection_digital", "snr_db": 0},
            {"input": str(empty), "output": str(tmp_path / "e.wav"), "path": "injection_digital", "snr_db": [10, 20]},
            {"input": str(src), "output": str(tmp_path / "a.wav"), "path": "injection_analog", "snr_db": 0},
            {"input": str(src), "output": str(tmp_path / "d.wav"), "path": "injection_digital"},
        ]))
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1"])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == ["error: line 1: injection_digital path takes no snr_db",
                                              "error: line 2: injection_digital path takes no snr_db"]
        assert sorted(p.name for p in tmp_path.glob("?.wav")) == ["a.wav", "d.wav"]

    def test_ir_of_zero_hz_is_named(self, runner, tmp_path):
        """An IR whose header says 0 Hz fails its job with the IR's path, not the input's."""
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        ir = tmp_path / "ir.wav"
        save_wav(AudioClip(np.array([0.9, 0.3, 0.1]), SR), ir)
        header = bytearray(ir.read_bytes())
        header[24:28] = bytes(4)  # the fmt chunk's sample rate
        ir.write_bytes(bytes(header))
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("".join(json.dumps(job) + "\n" for job in [
            {"input": str(src), "output": str(tmp_path / "p.wav"), "path": "playback", "ir": str(ir)},
            {"input": str(src), "output": str(tmp_path / "d.wav"), "path": "injection_digital"},
        ]))
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1"])
        assert result.exit_code == 1
        assert result.stderr == f"error: in: {ir}: sample rate 0 Hz is not positive\n"
        assert [p.name for p in tmp_path.glob("?.wav")] == ["d.wav"]

    def test_reversed_range_fails_only_its_job(self, runner, tmp_path):
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        good = {"input": str(src), "path": "injection_analog"}
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("".join(json.dumps(job) + "\n" for job in [
            {**good, "output": str(tmp_path / "g.wav"), "utt_id": "g", "gain_db": [5, 1]},
            {**good, "output": str(tmp_path / "s.wav"), "utt_id": "s", "snr_db": [30.5, 10]},
            {**good, "output": str(tmp_path / "ok.wav"), "utt_id": "ok", "gain_db": [1, 5]},
        ]))
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == ["error: line 1: gain_db range [5, 1] is reversed: lo must be <= hi",
                                              "error: line 2: snr_db range [30.5, 10] is reversed: lo must be <= hi"]
        assert [p.name for p in tmp_path.glob("*.wav") if p != src] == ["ok.wav"]

    def test_job_is_checked_before_any_of_its_files_is_read(self, runner, tmp_path, monkeypatch):
        """A job that breaks a channel rule fails on that rule, and no file it names is read."""
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        ir = tmp_path / "ir.wav"
        save_wav(AudioClip(np.array([0.9, 0.3, 0.1]), SR), ir)
        missing_ir, missing_input = tmp_path / "missing_ir.wav", tmp_path / "missing_input.wav"
        from spoofbench import cli

        loads = []
        monkeypatch.setattr(cli, "load_wav", lambda path: loads.append(str(path)) or load_wav(path))
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("".join(json.dumps(job) + "\n" for job in [
            {"input": str(src), "output": str(tmp_path / "r.wav"), "path": "injection_analog", "utt_id": "r",
             "gain_db": [5, 1], "ir": str(missing_ir)},
            {"input": str(src), "output": str(tmp_path / "d.wav"), "path": "injection_digital", "utt_id": "d",
             "ir": str(ir)},
            {"input": str(missing_input), "output": str(tmp_path / "s.wav"), "path": "injection_analog",
             "utt_id": "s", "snr_db": [30, 10]},
            # levels whose power ratio overflows or underflows in float64
            *({"input": str(missing_input), "output": str(tmp_path / f"{i}.wav"), "path": "injection_analog", **level}
              for i, level in enumerate([{"snr_db": -1e308}, {"gain_db": 1e308}, {"snr_db": [-1e308, 1e308]}])),
            {"input": str(src), "output": str(tmp_path / "ok.wav"), "path": "injection_analog", "utt_id": "ok",
             "gain_db": [1, 5]},
        ]))
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [
            "error: line 1: gain_db range [5, 1] is reversed: lo must be <= hi",
            "error: line 2: injection_digital path takes no impulse response",
            "error: line 3: snr_db range [30, 10] is reversed: lo must be <= hi",
            "error: line 4: snr_db -1e+308 is outside [-1000, 1000] dB",
            "error: line 5: gain_db 1e+308 is outside [-1000, 1000] dB",
            "error: line 6: snr_db range [-1e+308, 1e+308] is outside [-1000, 1000] dB",
        ]
        assert loads == [str(src)]  # the good job's input alone: no refused job's input or IR
        assert [p.name for p in tmp_path.glob("*.wav") if p not in (src, ir)] == ["ok.wav"]

    def test_empty_trimmed_input_presents_to_an_empty_wav_on_every_path(self, runner, tmp_path):
        silent = tmp_path / "silent.wav"
        save_wav(AudioClip(silence(1.0), SR), silent)
        manifest = tmp_path / "m.jsonl"
        write_manifest([ManifestEntry("quiet", str(silent), "bonafide", "d")], manifest)
        trim = tmp_path / "trimmed"
        result = runner.invoke(main, ["vad", "--in", str(manifest), "--out", str(tmp_path / "v.jsonl"),
                                      "--trim-dir", str(trim)])
        assert result.exit_code == 0, result.output
        assert (trim / "quiet.wav").stat().st_size == 44  # a header and no samples
        ir = tmp_path / "ir.wav"
        save_wav(AudioClip(np.array([0.9, 0.3, 0.1]), SR), ir)
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("".join(json.dumps({"input": str(trim / "quiet.wav"), "output": str(tmp_path / f"{path}.wav"),
                                            "path": path, "codec": "mulaw", "gain_db": [-3, 3], "utt_id": path,
                                            **({"ir": str(ir)} if path == "playback" else {})}) + "\n"
                                for path in ("injection_digital", "injection_analog", "playback")))
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1"])
        assert result.exit_code == 0, result.output
        for path in ("injection_digital", "injection_analog", "playback"):
            assert (tmp_path / f"{path}.wav").stat().st_size == 44
            assert len(load_wav(tmp_path / f"{path}.wav")) == 0

    def test_malformed_line_fails_only_that_job(self, runner, tmp_path):
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        dst = tmp_path / "out.wav"
        good = {"input": str(src), "output": str(dst), "path": "injection_digital"}
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("{not json\n" + json.dumps(good) + "\n")
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: line 1:" in result.stderr
        assert dst.read_bytes() == src.read_bytes()

    def test_line_nested_too_deep_fails_only_that_job(self, runner, tmp_path):
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        dst = tmp_path / "out.wav"
        jobs = tmp_path / "jobs.jsonl"
        good = {"input": str(src), "output": str(dst), "path": "injection_digital"}
        jobs.write_text("[" * 100_000 + "\n" + json.dumps(good) + "\n")
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: line 1: maximum recursion depth exceeded")
        assert dst.read_bytes() == src.read_bytes()

    def test_job_of_the_wrong_shape_names_its_key(self, runner, tmp_path):
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        good = {"input": str(src), "path": "injection_digital"}
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("\n".join([
            json.dumps({**good, "output": str(tmp_path / "a.wav")}),
            '"utt_id"',
            '{"input": 5, "output": "o.wav", "path": "injection_analog"}',
            json.dumps({**good, "output": str(tmp_path / "b.wav"), "gain_db": [1, 2, 3]}),
            json.dumps({**good, "output": str(tmp_path / "c.wav"), "path": "wire", "utt_id": "c"}),
            json.dumps({**good, "output": str(tmp_path / "d.wav"), "utt_id": "d"}),
            json.dumps({**good, "output": str(tmp_path / "e.wav"), "codec": "opus", "utt_id": "e"}),
            json.dumps({**good, "output": str(tmp_path / "f\0.wav"), "utt_id": "f"}),
        ]) + "\n")
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1", "--parallelism", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [
            'error: line 2: PresentationJob must be a mapping, not "utt_id"',
            "error: line 3: input must be a string, not 5",
            "error: line 4: gain_db must be a number or an array of 2, not [1, 2, 3]",
            "error: line 5: unknown path 'wire' (expected one of ('injection_digital', 'injection_analog', 'playback'))",
            "error: line 7: unknown codec 'opus'",
            "error: f: embedded null byte",
        ]
        assert sorted(p.name for p in tmp_path.glob("?.wav")) == ["a.wav", "d.wav"]

    @staticmethod
    def interleaved_jobs(tmp_path):
        """Six jobs over two 16 kHz inputs, A, B, A, B, ..., through playback, analog and digital routes."""
        rng = np.random.default_rng(3)
        ir = tmp_path / "ir.wav"
        save_wav(AudioClip(np.concatenate([[0.8], 0.2 * rng.standard_normal(199) * np.exp(-np.arange(199) / 40)]),
                           16000), ir)
        inputs = []
        for k in range(2):
            inputs.append(tmp_path / f"src{k}.wav")
            save_wav(AudioClip(np.clip(0.3 * rng.standard_normal(16000 + 4000 * k), -1, 1), 16000), inputs[-1])
        routes = [("playback", "mulaw"), ("playback", "alaw"), ("injection_analog", "alaw"),
                  ("injection_analog", "mulaw"), ("injection_digital", "mulaw"), ("injection_digital", "none")]
        jobs = []
        for i, (route, codec) in enumerate(routes):
            job = {"utt_id": f"j{i}", "input": str(inputs[i % 2]), "output": str(tmp_path / "out" / f"j{i}.wav"),
                   "path": route, "codec": codec, "gain_db": [-3.0, 3.0]}
            if route != "injection_digital":
                job["snr_db"] = [20.0, 30.0]
            if route == "playback":
                job["ir"] = str(ir)
            jobs.append(job)
        return jobs

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_shared_inputs_write_what_each_job_writes_alone(self, runner, tmp_path, monkeypatch, parallelism):
        jobs = self.interleaved_jobs(tmp_path)
        alone = {}
        for job in jobs:
            one = tmp_path / "one.jsonl"
            one.write_text(json.dumps({**job, "output": str(tmp_path / "alone.wav")}) + "\n")
            assert runner.invoke(main, ["present", "--jobs", str(one), "--seed", "4"]).exit_code == 0
            alone[job["utt_id"]] = (tmp_path / "alone.wav").read_bytes()
        from spoofbench import cli

        monkeypatch.setattr(cli, "cores", lambda: 2)
        loads = []
        monkeypatch.setattr(cli, "load_wav", lambda path: loads.append(path) or load_wav(path))
        path = tmp_path / "jobs.jsonl"
        path.write_text("".join(json.dumps(job) + "\n" for job in jobs))
        result = runner.invoke(main, ["present", "--jobs", str(path), "--seed", "4", "--parallelism", str(parallelism)])
        assert result.exit_code == 0, result.output
        assert {job["utt_id"]: Path(job["output"]).read_bytes() for job in jobs} == alone
        if parallelism == 1:  # each input once, the impulse response once per playback job
            assert sorted(loads) == sorted([jobs[0]["input"], jobs[1]["input"], jobs[0]["ir"], jobs[1]["ir"]])

    def test_input_shared_by_many_jobs_spreads_over_the_workers(self, runner, tmp_path, monkeypatch):
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        from spoofbench import cli

        monkeypatch.setattr(cli, "cores", lambda: 2)
        calls = []

        def spy(work, items, threads):
            calls.append(([[job.utt_id for job in item] if isinstance(item, list) else item.utt_id for item in items],
                          threads))
            return each(work, items, threads)

        each = cli.each
        monkeypatch.setattr(cli, "each", spy)
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("".join(json.dumps({"utt_id": f"u{i}", "input": str(src), "output": str(tmp_path / f"u{i}.wav"),
                                            "path": "injection_digital"}) + "\n" for i in range(4)))
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1", "--parallelism", "2"])
        assert result.exit_code == 0, result.output
        assert calls[0] == ([["u0", "u1"], ["u2", "u3"]], 2)  # the two items; each then runs its jobs on one thread
        assert all((tmp_path / f"u{i}.wav").read_bytes() == src.read_bytes() for i in range(4))

    def test_shared_missing_input_fails_each_of_its_jobs(self, runner, tmp_path, monkeypatch):
        src = make_clip_file(tmp_path / "in.wav", 0.5)
        missing = tmp_path / "missing.wav"
        with pytest.raises(FileNotFoundError) as not_found:
            load_wav(missing)
        from spoofbench import cli

        monkeypatch.setattr(cli, "cores", lambda: 2)
        names = ["m1", "ok", "m2", "m3"]
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("".join(json.dumps({"utt_id": name, "input": str(src if name == "ok" else missing),
                                            "output": str(tmp_path / f"{name}.wav"), "path": "injection_digital"})
                                + "\n" for name in names))
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1", "--parallelism", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [f"error: {name}: {not_found.value}" for name in ("m1", "m2", "m3")]
        assert (tmp_path / "ok.wav").read_bytes() == src.read_bytes() and not list(tmp_path.glob("m?.wav"))

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_colliding_jobs_fail_before_any_job_runs(self, runner, tmp_path, parallelism):
        a, b = make_clip_file(tmp_path / "a.wav", 0.5), make_clip_file(tmp_path / "b.wav", 0.5, freq=700.0)
        ir = tmp_path / "ir.wav"
        save_wav(AudioClip(np.array([1.0, 0.5, 0.25]), SR), ir)
        (tmp_path / "link.wav").symlink_to(ir)
        before = {p: p.read_bytes() for p in (a, b, ir)}
        out = tmp_path / "out"
        lines = [
            {"utt_id": "j1", "input": str(a), "output": str(out / "j1.wav"), "path": "injection_digital"},
            {"utt_id": "j2", "input": str(b), "output": str(a), "path": "injection_digital"},
            {"utt_id": "j3", "input": str(b), "output": str(tmp_path / "link.wav"), "path": "injection_digital"},
            {"utt_id": "j4", "input": str(a), "output": str(out / "j4.wav"), "path": "playback", "ir": str(ir)},
            {"utt_id": "j5", "input": str(a), "output": str(out / "j5.wav"), "path": "injection_digital"},
            {"utt_id": "j6", "input": str(b), "output": str(out / "sub" / ".." / "j5.wav"), "path": "injection_digital"},
        ]
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text("".join(json.dumps(line) + "\n" for line in lines))
        result = runner.invoke(main, ["present", "--jobs", str(jobs), "--seed", "1", "--parallelism", str(parallelism)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [
            f"error: j2: output {a} is also the input of line 1",
            f"error: j3: output {tmp_path / 'link.wav'} is also the ir of line 4",
            f"error: j5: output {out / 'j5.wav'} is also the output of line 6",
            f"error: j6: output {out / 'sub' / '..' / 'j5.wav'} is also the output of line 5",
        ]
        assert sorted(p.name for p in out.iterdir()) == ["j1.wav", "j4.wav"]
        assert (out / "j1.wav").read_bytes() == a.read_bytes()
        assert {p: p.read_bytes() for p in before} == before


class TestCmdPool:
    def make_dataset_manifests(self, tmp_path, n_datasets=7, per_class=40):
        paths = []
        for d in range(n_datasets):
            entries = []
            for label in ("bonafide", "spoof"):
                for i in range(per_class):
                    entries.append(
                        ManifestEntry(
                            f"ds{d}-{label}-{i:04d}", f"/x/{d}/{i}.wav", label, f"ds{d}",
                            net_speech_s=4.0,
                        )
                    )
            p = tmp_path / f"ds{d}.jsonl"
            write_manifest(entries, p)
            paths.append(str(p))
        return paths

    def test_pool_counts(self, runner, tmp_path):
        paths = self.make_dataset_manifests(tmp_path)
        out = tmp_path / "pool.jsonl"
        args = ["pool", "--per-class", "30", "--seed", "3", "--out", str(out)]
        for p in paths:
            args += ["--manifests", p]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        from spoofbench import read_manifest

        pool = read_manifest(out)
        assert len(pool) == 7 * 2 * 30
        assert sum(1 for e in pool if e.label == "spoof") == 210

    def test_pool_deterministic(self, runner, tmp_path):
        paths = self.make_dataset_manifests(tmp_path, n_datasets=2)
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        base = ["pool", "--per-class", "10", "--seed", "9"]
        for p in paths:
            base += ["--manifests", p]
        assert runner.invoke(main, base + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, base + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_shortfall_names_dataset(self, runner, tmp_path):
        paths = self.make_dataset_manifests(tmp_path, n_datasets=2, per_class=5)
        out = tmp_path / "pool.jsonl"
        args = ["pool", "--per-class", "10", "--seed", "0", "--out", str(out)]
        for p in paths:
            args += ["--manifests", p]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "insufficient bonafide in ds0" in result.stderr

    @pytest.mark.parametrize("option, value", [("--per-class", "0"), ("--min-net-speech", "-1"),
                                               ("--min-net-speech", "nan")])
    def test_bad_spec_fails_closed(self, runner, tmp_path, option, value):
        paths = self.make_dataset_manifests(tmp_path, n_datasets=1, per_class=2)
        out = tmp_path / "pool.jsonl"
        result = runner.invoke(main, ["pool", option, value, "--manifests", paths[0], "--out", str(out)])
        assert result.exit_code == 2  # click's usage error
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"Invalid value for '{option}'" in result.stderr
        assert not out.exists()


    def test_filter_that_empties_a_dataset_fails_closed(self, runner, tmp_path):
        [ds] = self.make_dataset_manifests(tmp_path, n_datasets=1, per_class=1)
        out = tmp_path / "pool.jsonl"
        result = runner.invoke(
            main, ["pool", "--per-class", "1", "--min-net-speech", "1000", "--manifests", ds, "--out", str(out)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr == "error: insufficient bonafide in ds0: 0 < 1\n"
        assert not out.exists()

    def test_utt_id_in_two_datasets_fails_closed(self, runner, tmp_path):
        paths = []
        for dataset in ("d1", "d2"):  # each holds a bonafide "x" and one other, so a seed may leave x out
            path = tmp_path / f"{dataset}.jsonl"
            write_manifest([ManifestEntry(utt_id, "x.wav", label, dataset, net_speech_s=1.0) for utt_id, label in
                            [("x", "bonafide"), (f"{dataset}-b", "bonafide"), (f"{dataset}-s", "spoof")]], path)
            paths += ["--manifests", str(path)]
        out = tmp_path / "pool.jsonl"
        for seed in range(6):
            result = runner.invoke(main, ["pool", *paths, "--per-class", "1", "--seed", str(seed), "--out", str(out)])
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)  # no traceback
            assert result.stderr == "error: utt_id 'x' appears in more than one dataset\n"
            assert not out.exists()

    def test_manifest_given_twice_names_its_dataset(self, runner, tmp_path):
        path = tmp_path / "d.jsonl"
        write_manifest([ManifestEntry(f"{label}{i}", "x.wav", label, "d", net_speech_s=1.0)
                        for label, n in [("bonafide", 2), ("spoof", 3)] for i in range(n)], path)
        out = tmp_path / "pool.jsonl"
        for seed in range(6):
            result = runner.invoke(main, ["pool", "--manifests", str(path), "--manifests", str(path),
                                          "--per-class", "2", "--seed", str(seed), "--out", str(out)])
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)  # no traceback
            assert result.stderr == "error: utt_id 'bonafide0' appears more than once in dataset 'd'\n"
            assert not out.exists()

    def test_manifests_are_required(self, runner, tmp_path):
        out = tmp_path / "pool.jsonl"
        result = runner.invoke(main, ["pool", "--out", str(out)])
        assert result.exit_code == 2  # click's usage error
        assert isinstance(result.exception, SystemExit)
        assert "Missing option '--manifests'" in result.stderr
        assert not out.exists()


class TestParallelismOption:
    @pytest.mark.parametrize("command", ["vad", "present", "detect"])
    def test_below_one_is_a_usage_error(self, runner, tmp_path, command):
        manifest = str(make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)]))
        out = str(tmp_path / "out")
        argv = {
            "vad": ["vad", "--in", manifest, "--out", out],
            "present": ["present", "--jobs", manifest],
            "detect": ["detect", "--manifest", manifest, "--weights", manifest, "--out", out],
        }[command]
        result = runner.invoke(main, argv + ["--parallelism", "0"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--parallelism'" in result.stderr
        assert not Path(out).exists()

    def test_vad_runs_at_most_one_thread_per_core(self, runner, tmp_path, monkeypatch):
        import spoofbench.cli as cli

        manifest = make_manifest(tmp_path, [(f"u{i}", "bonafide", "d", 1.0) for i in range(6)])
        monkeypatch.setattr(cli, "cores", lambda: 2)
        threads, counts = set(), []
        vad_entry = cli._vad_entry

        def spy(*args):
            threads.add(threading.get_ident())
            counts.append(threading.active_count())
            return vad_entry(*args)

        monkeypatch.setattr(cli, "_vad_entry", spy)
        before = threading.active_count()
        result = runner.invoke(main, ["vad", "--in", str(manifest), "--out", str(tmp_path / "out.jsonl"),
                                      "--parallelism", "8"])
        assert result.exit_code == 0, result.output
        assert len(counts) == 6 and 1 <= len(threads) <= 2
        assert max(counts) <= before + 1 and threading.active_count() == before


class TestCmdDetect:
    def init_weights(self, runner, config_path, tmp_path):
        weights = tmp_path / "w.bin"
        result = runner.invoke(
            main, ["--config", config_path, "init-weights", "--seed", "2", "--out", str(weights)]
        )
        assert result.exit_code == 0, result.output
        return weights

    def test_single_row_without_checkpoints(self, runner, config_path, tmp_path):
        weights = self.init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main,
            ["--config", config_path, "detect", "--manifest", str(manifest),
             "--weights", str(weights), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = read_scores_csv(out).rows()
        assert len(rows) == 1
        assert rows[0].utt_id == "u1" and rows[0].checkpoint_s is None

    def test_six_rows_with_checkpoints(self, runner, config_path, tmp_path):
        weights = self.init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("long", "spoof", "d", 20.0)])
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main,
            ["--config", config_path, "detect", "--manifest", str(manifest),
             "--weights", str(weights), "--out", str(out), "--checkpoints"],
        )
        assert result.exit_code == 0, result.output
        rows = read_scores_csv(out).rows()
        assert [r.checkpoint_s for r in rows] == [2.0, 3.0, 6.0, 9.0, 12.0, 15.0]

    def test_integer_checkpoints_score_as_floats(self, runner, tmp_path):
        """A config may write the checkpoints as integers, as README's does: same scores, same report."""
        manifest = make_manifest(tmp_path, [("b", "bonafide", "d", 7.0), ("s", "spoof", "d", 7.0)])
        outputs = []
        for checkpoints in ([2, 3, 6], [2.0, 3.0, 6.0]):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"detector": COMPACT_DETECTOR, "protocol": {"checkpoints_s": checkpoints}}))
            weights = self.init_weights(runner, str(config), tmp_path)
            scores, report = tmp_path / "scores.csv", tmp_path / "report.json"
            for argv in (["detect", "--manifest", str(manifest), "--weights", str(weights), "--out", str(scores),
                          "--checkpoints"],
                         ["eval", "--scores", str(scores), "--checkpoint-avg", "--no-timestamp", "--out", str(report)]):
                result = runner.invoke(main, ["--config", str(config), *argv])
                assert result.exit_code == 0, result.output
            outputs.append((scores.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(read_scores_csv(scores)) == 6

    def test_short_entry_skipped(self, runner, config_path, tmp_path):
        weights = self.init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(
            tmp_path, [("tiny", "spoof", "d", 0.3), ("ok", "bonafide", "d", 1.0)]
        )
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main,
            ["--config", config_path, "detect", "--manifest", str(manifest),
             "--weights", str(weights), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = read_scores_csv(out).rows()
        assert [r.utt_id for r in rows] == ["ok"]
        assert "tiny" in result.stderr and "skip" in result.stderr.lower()

    def test_entry_below_first_checkpoint_skipped(self, runner, config_path, tmp_path):
        """Above the 0.5 s floor but below every checkpoint: no row, and a note that says why."""
        weights = self.init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("short", "spoof", "d", 1.2), ("ok", "bonafide", "d", 2.5)])
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main,
            ["--config", config_path, "detect", "--manifest", str(manifest),
             "--weights", str(weights), "--out", str(out), "--checkpoints"],
        )
        assert result.exit_code == 0, result.output
        assert [(r.utt_id, r.checkpoint_s) for r in read_scores_csv(out).rows()] == [("ok", 2.0)]
        assert re.fullmatch(r"short: skipped \(1\.\d\ds net speech < first checkpoint 2s\)\n", result.stderr)

    def test_empty_checkpoint_list_fails_closed(self, runner, config_path, tmp_path):
        """An empty checkpoint list is refused when the run config is loaded, whatever the command."""
        weights = self.init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("u", "spoof", "d", 2.5)])
        scores = tmp_path / "scores.csv"
        write_scores_csv([TrialScore("u", "spoof", 0.5, "d", 2.0)], scores)
        config = tmp_path / "empty.json"
        config.write_text(json.dumps({"detector": COMPACT_DETECTOR, "protocol": {"checkpoints_s": []}}))
        for argv in (["detect", "--manifest", str(manifest), "--weights", str(weights),
                      "--out", str(tmp_path / "out.csv"), "--checkpoints"],
                     ["eval", "--scores", str(scores), "--checkpoint-avg"]):
            result = runner.invoke(main, ["--config", str(config), *argv])
            assert result.exit_code == 1
            assert result.stderr == f"error: {config}: checkpoints_s is empty: no checkpoint to score\n"
        assert not (tmp_path / "out.csv").exists()

    def test_explicit_checkpoint_list(self, runner, config_path, tmp_path):
        weights = self.init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("u", "spoof", "d", 7.0)])
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main,
            ["--config", config_path, "detect", "--manifest", str(manifest),
             "--weights", str(weights), "--out", str(out), "--checkpoints", "2,3,6,9"],
        )
        assert result.exit_code == 0, result.output
        rows = read_scores_csv(out).rows()
        # 9 s checkpoint exceeds the ~7 s of net speech -> skipped
        assert [r.checkpoint_s for r in rows] == [2.0, 3.0, 6.0]

    @pytest.mark.parametrize("mean_var_norm", [False, True])
    def test_checkpoint_scores_equal_separate_forwards(self, runner, tmp_path, monkeypatch, mean_var_norm):
        """Each checkpoint scores as its own prefix's forward, though the entry's speech is cut
        once, for the longest checkpoint, and a shorter prefix is a slice of that cut."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": COMPACT_DETECTOR, "features": {"mean_var_norm": mean_var_norm}}))
        weights = self.init_weights(runner, str(config), tmp_path)
        # noise bursts between pauses, so the checkpoints cut inside bursts
        rng = np.random.default_rng(3)
        wav = tmp_path / "u.wav"
        save_wav(AudioClip(np.concatenate([np.concatenate([silence(0.4), rng.uniform(-0.5, 0.5, int(1.3 * SR))])
                                           for _ in range(6)]), SR), wav)
        manifest = tmp_path / "manifest.jsonl"
        write_manifest([ManifestEntry("u", str(wav), "spoof", "d")], manifest)
        out = tmp_path / "scores.csv"
        checkpoints = (6.0, 2.0, 3.0, 5.5)
        trims, trim = [], spoofbench.audio.trim_nonspeech

        def counted(clip, mask):
            trims.append(len(clip))
            return trim(clip, mask)

        monkeypatch.setattr(spoofbench.audio, "trim_nonspeech", counted)
        result = runner.invoke(
            main,
            ["--config", str(config), "detect", "--manifest", str(manifest), "--weights", str(weights),
             "--out", str(out), "--checkpoints", ",".join(map(str, checkpoints))],
        )
        assert result.exit_code == 0, result.output
        assert len(trims) == 1
        monkeypatch.undo()
        cfg = load_run_config(config)
        store = load_parameters(weights)
        clip = resample(load_wav(wav), cfg.sample_rate_hz)
        mask = detect_voice(clip, cfg.vad)
        want = {
            k: score(detector_forward(log_mel(net_speech_prefix(clip, mask, k), cfg.features), store)).s
            for k in checkpoints
        }
        assert {r.checkpoint_s: r.score for r in read_scores_csv(out).rows()} == want

    @pytest.mark.parametrize("mean_var_norm", [False, True])
    def test_full_length_is_the_one_prefix_case(self, runner, tmp_path, monkeypatch, mean_var_norm):
        """Every forward gets its frame counts, and the full-length score is a plain forward's."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": COMPACT_DETECTOR, "features": {"mean_var_norm": mean_var_norm}}))
        weights = self.init_weights(runner, str(config), tmp_path)
        manifest = make_manifest(tmp_path, [("u", "spoof", "d", 2.5)])
        calls = []

        def spy(feat, store, prefix_frames=None, threads=None):
            calls.append((feat.n_frames, prefix_frames))
            return detector_forward(feat, store, prefix_frames=prefix_frames, threads=threads)

        monkeypatch.setattr("spoofbench.cli.detector_forward", spy)
        out = tmp_path / "scores.csv"
        result = runner.invoke(main, ["--config", str(config), "detect", "--manifest", str(manifest),
                                      "--weights", str(weights), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert calls and all(frames == [n] for n, frames in calls)
        cfg, store = load_run_config(config), load_parameters(weights)
        clip = resample(load_wav(manifest.parent / "u.wav"), cfg.sample_rate_hz)
        feat = log_mel(trim_nonspeech(clip, detect_voice(clip, cfg.vad)), cfg.features)
        want = score(detector_forward(feat, store)).s
        assert [r.score for r in read_scores_csv(out).rows()] == [want]

    def test_checkpoint_below_min_frames_is_refused(self, runner, config_path, tmp_path):
        """A checkpoint whose prefix is too short for the detector is refused before any entry is
        scored, not failed in every entry along with the checkpoints that would have scored."""
        weights = self.init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("u", "spoof", "d", 2.5)])
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main,
            ["--config", config_path, "detect", "--manifest", str(manifest),
             "--weights", str(weights), "--out", str(out), "--checkpoints", "2,0.1"],
        )
        assert result.exit_code == 1
        assert result.stderr == "error: checkpoint 0.1s: its prefix has 8 frames; detector needs >= 16\n"
        assert not out.exists()

    def test_checkpoint_of_no_finite_hop_count_is_refused(self, runner, config_path, tmp_path):
        """Refused before any entry is scored, as one line, not a traceback from ceil() of an infinite count."""
        weights = self.init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("u", "spoof", "d", 2.5)])
        out = tmp_path / "scores.csv"
        result = runner.invoke(main, ["--config", config_path, "detect", "--manifest", str(manifest),
                                      "--weights", str(weights), "--out", str(out), "--checkpoints", "1e308"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr == "error: checkpoint 1e+308s: 1e+308 s is not a finite number of 0.01 s hops\n"
        assert not out.exists()

    @pytest.mark.parametrize("checkpoints, message", [
        ([0.17, 2.0], "checkpoint 0.17s: its prefix has 15 frames; detector needs >= 16"),
        ([0.01], "checkpoint 0.01s: clip too short for features"),
    ], ids=["0.17s", "0.01s"])
    def test_protocol_checkpoint_below_min_frames_is_refused(self, runner, tmp_path, checkpoints, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": COMPACT_DETECTOR, "protocol": {"checkpoints_s": checkpoints}}))
        weights = self.init_weights(runner, str(config), tmp_path)
        manifest = make_manifest(tmp_path, [("u", "spoof", "d", 2.5)])
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main,
            ["--config", str(config), "detect", "--manifest", str(manifest),
             "--weights", str(weights), "--out", str(out), "--checkpoints"],
        )
        assert result.exit_code == 1
        assert result.stderr == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config, checkpoints, message", [
        ({"features": {"hop_s": 0.00001}}, [],
         "features at 8000 Hz: window (200 samples) and hop (0 samples) must each be at least one sample"),
        ({"features": {"hop_s": 0.00001}}, ["--checkpoints"],
         "features at 8000 Hz: window (200 samples) and hop (0 samples) must each be at least one sample"),
        ({"features": {"fmax_hz": 5000}}, [], "features at 8000 Hz: fmax_hz above Nyquist"),
        ({"features": {"n_mels": 200}}, [],
         "features at 8000 Hz: mel filter 2 has no FFT bins: n_mels too large for FFT resolution"),
        ({"features": {"win_s": 0.05}}, [], "features at 8000 Hz: n_fft (256) smaller than window (400 samples)"),
        ({"sample_rate_hz": 16000}, [], "features at 16000 Hz: n_fft (256) smaller than window (400 samples)"),
        ({"features": {"win_s": 1e308}}, [], "features at 8000 Hz: win_s 1e+308 s is not a finite number of samples"),
        ({"features": {"hop_s": 1e308}}, [], "features at 8000 Hz: hop_s 1e+308 s is not a finite number of samples"),
    ], ids=["hop-0-samples", "hop-0-samples-checkpoints", "fmax-over-nyquist", "too-many-mels", "window-over-n_fft",
            "16khz-window-over-n_fft", "window-of-no-finite-sample-count", "hop-of-no-finite-sample-count"])
    def test_frontend_that_cannot_run_is_refused_before_any_entry(self, runner, tmp_path, config, checkpoints,
                                                                   message):
        """Checked once, at the run's rate: the entry's file does not exist, so reading it would fail it."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"detector": COMPACT_DETECTOR, **config}))
        weights = self.init_weights(runner, str(path), tmp_path)
        manifest = tmp_path / "m.jsonl"
        write_manifest([ManifestEntry("u", str(tmp_path / "absent.wav"), "spoof", "d")], manifest)
        out = tmp_path / "scores.csv"
        result = runner.invoke(main, ["--config", str(path), "detect", "--manifest", str(manifest),
                                      "--weights", str(weights), "--out", str(out), *checkpoints])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr == f"error: {message}\n"
        assert not out.exists()

    def test_shortest_scorable_checkpoint_is_scored(self, runner, config_path, tmp_path):
        """The refusal is exact: the shortest checkpoint whose prefix has 16 frames scores."""
        weights = self.init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("u", "spoof", "d", 2.5)])
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main,
            ["--config", config_path, "detect", "--manifest", str(manifest),
             "--weights", str(weights), "--out", str(out), "--checkpoints", "0.18"],
        )
        assert result.exit_code == 0, result.output
        assert [r.checkpoint_s for r in read_scores_csv(out).rows()] == [0.18]

    @pytest.mark.parametrize("value, named", [
        ("2,x", "comma-separated list of seconds"),
        (",", "comma-separated list of seconds"),
        ("nan", "'nan': checkpoint nan is not a finite number of seconds above 0"),
        ("2,inf", "'2,inf': checkpoint inf is not a finite number of seconds above 0"),
        ("0", "'0': checkpoint 0 is not a finite number of seconds above 0"),
        ("2,-1", "'2,-1': checkpoint -1 is not a finite number of seconds above 0"),
        ("2,2", "'2,2': checkpoint 2 repeats"),
        ("3,2,3.0", "'3,2,3.0': checkpoint 3 repeats"),
    ])
    def test_bad_checkpoint_list_is_a_usage_error(self, runner, tmp_path, value, named):
        manifest = make_manifest(tmp_path, [("u", "spoof", "d", 1.0)])
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main, ["detect", "--manifest", str(manifest), "--weights", str(manifest), "--out", str(out),
                   f"--checkpoints={value}"],
        )
        assert result.exit_code == 2
        assert "Invalid value for '--checkpoints'" in result.stderr
        assert named in result.stderr
        assert not out.exists()


class TestUnreadableInputs:
    """A malformed manifest or weights file gives one `error:` line and exit 1."""

    def assert_fails_closed(self, result, path):
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith(f"error: {path}")
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["vad", "pool", "detect"])
    def test_malformed_manifest(self, runner, tmp_path, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        out = str(tmp_path / "out")
        argv = {
            "vad": ["vad", "--in", str(bad), "--out", out],
            "pool": ["pool", "--manifests", str(bad), "--out", out],
            "detect": ["detect", "--manifest", str(bad), "--weights", str(bad), "--out", out],
        }[command]
        self.assert_fails_closed(runner.invoke(main, argv), f"{bad}:1: ")

    @pytest.mark.parametrize("line, named", [
        ('"utt_id"', 'ManifestEntry must be a mapping, not "utt_id"'),
        ('["u1", "x.wav"]', 'ManifestEntry must be a mapping, not ["u1", "x.wav"]'),
        ('{"utt_id": ["a"], "path": "x.wav", "label": "spoof", "dataset": "d"}', 'utt_id must be a string, not ["a"]'),
        ('{"utt_id": "a", "path": "x.wav", "label": "spoof", "dataset": "d", "net_speech_s": true}',
         "net_speech_s must be a number, not true"),
        ('{"utt_id": "a", "path": "x.wav", "label": "spoof", "dataset": "d", "attack_id": 7}',
         "attack_id must be a string or null, not 7"),
        ('{"utt_id": "", "path": "x.wav", "label": "spoof", "dataset": "d"}', "utt_id must be nonempty"),
        ('{"utt_id": "a", "path": "x.wav", "label": "spoof", "dataset": "d", "presentation": "radio"}',
         "a: presentation must be one of ('raw', 'injected', 'played')"),
    ])
    def test_manifest_line_of_the_wrong_shape(self, runner, tmp_path, line, named):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        result = runner.invoke(main, ["vad", "--in", str(bad), "--out", str(tmp_path / "out")])
        self.assert_fails_closed(result, f"{bad}:1: {named}\n")

    @pytest.mark.parametrize("vad, named", [
        ({"frame_len_s": 0.00005, "hop_s": 0.00005}, "vad.hop_s 5e-05 s is under one sample at 8000 Hz"),
        ({"frame_len_s": 1e308, "hop_s": 1e308}, "vad.frame_len_s 1e+308 s is not a finite number of samples at 8000 Hz"),
        ({"frame_len_s": 1e308, "hop_s": 0.01}, "vad.frame_len_s 1e+308 s is not a finite number of samples at 8000 Hz"),
    ], ids=["hop-under-one-sample", "frame-and-hop-not-finite", "frame-not-finite"])
    @pytest.mark.parametrize("command", ["vad", "detect"])
    def test_vad_frame_out_of_range_refused(self, runner, tmp_path, command, vad, named):
        """Refused as the config loads: a 0.4-sample hop rounds to none, and every entry would read 0 s of
        speech; round() of an infinite count is an OverflowError, at load or in every entry."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vad": vad}))
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        out = tmp_path / "out"
        argv = {"vad": ["vad", "--in", str(manifest), "--out", str(out)],
                "detect": ["detect", "--manifest", str(manifest), "--weights", str(manifest), "--out", str(out)]}[command]
        result = runner.invoke(main, ["--config", str(config), *argv])
        self.assert_fails_closed(result, f"{config}: {named}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["vad", "pool", "config"])
    def test_json_nested_too_deep(self, runner, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 100_000 + "\n")
        out = str(tmp_path / "out")
        argv = {
            "vad": ["vad", "--in", str(bad), "--out", out],
            "pool": ["pool", "--manifests", str(bad), "--out", out],
            "config": ["--config", str(bad), "init-weights", "--out", out],
        }[command]
        where = f"{bad}:1" if command != "config" else str(bad)
        self.assert_fails_closed(runner.invoke(main, argv), f"{where}: maximum recursion depth exceeded")

    def test_pool_refuses_a_nan_net_speech(self, runner, tmp_path):
        """Not left out of the pool as an entry below the net-speech floor."""
        good = {"path": "x.wav", "label": "spoof", "dataset": "d", "net_speech_s": 5.0}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"utt_id": "a", **good}) + "\n" + '{"utt_id": "b", "net_speech_s": NaN}\n')
        result = runner.invoke(main, ["pool", "--manifests", str(bad), "--per-class", "1", "--out", str(tmp_path / "o")])
        self.assert_fails_closed(result, f"{bad}:2: NaN is not a finite number\n")

    @pytest.mark.parametrize("command", ["vad", "pool"])
    def test_manifest_integer_over_float_range(self, runner, tmp_path, command):
        """Refused as the line is read, not when a float is made of it."""
        big = "1" + "0" * 400
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"utt_id": "a", "path": "x.wav", "label": "spoof", "dataset": "d", "net_speech_s": %s}\n' % big)
        out = str(tmp_path / "o")
        argv = {"vad": ["vad", "--in", str(bad), "--out", out],
                "pool": ["pool", "--manifests", str(bad), "--per-class", "1", "--out", out]}[command]
        self.assert_fails_closed(runner.invoke(main, argv), f"{bad}:1: {big} is not a finite number\n")

    @pytest.mark.parametrize("config, named", [
        ('{"protocol": {"checkpoints_s": [2, NaN]}}', "NaN"),
        ('{"protocol": {"checkpoints_s": [2, Infinity]}}', "Infinity"),
        ('{"vad": {"energy_margin_db": NaN}}', "NaN"),
        ('{"features": {"log_floor": NaN}}', "NaN"),
        ('{"features": {"log_floor": -Infinity}}', "-Infinity"),
        ('{"features": {"log_floor": 1e999}}', "1e999"),
        pytest.param('{"vad": {"energy_margin_db": 1%s}}' % ("0" * 400), "1" + "0" * 400, id="integer-over-float-range"),
    ])
    def test_run_config_non_finite_number(self, runner, tmp_path, config, named):
        path = tmp_path / "config.json"
        path.write_text(config)
        result = runner.invoke(main, ["--config", str(path), "init-weights", "--out", str(tmp_path / "w.bin")])
        self.assert_fails_closed(result, f"{path}: {named} is not a finite number\n")

    def test_manifest_line_missing_keys(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"utt_id": "a"}\n')
        result = runner.invoke(main, ["vad", "--in", str(bad), "--out", str(tmp_path / "out")])
        self.assert_fails_closed(result, f"{bad}:1: missing required keys: path, label, dataset\n")

    @pytest.mark.parametrize("config, named", [
        ({"global_seed": "abc"}, 'global_seed must be an integer, not "abc"'),
        ({"global_seed": True}, "global_seed must be an integer, not true"),
        ({"features": {"mean_var_norm": "no"}}, 'features.mean_var_norm must be true or false, not "no"'),
        ({"protocol": {"checkpoints_s": "26"}}, 'protocol.checkpoints_s must be an array, not "26"'),
        ({"detector": {"cot_kernel": 3.0}}, "detector.cot_kernel must be an integer, not 3.0"),
        ({"vad": None}, "vad must be a mapping, not null"),
        ({"features": {"n_mels": 0}}, "n_mels must be >= 1"),
        ({"features": {"n_mels": 257}}, "n_mels 257 above 256"),
        ({"features": {"n_fft": 32769}}, "n_fft 32769 above 32768"),
        ({"features": {"fmin_hz": 5000, "fmax_hz": 4000}}, "require 0 <= fmin_hz < fmax_hz"),
        ({"features": {"win_s": 0}}, "window, hop and n_fft must be positive"),
        ({"features": {"log_floor": 0}}, "log_floor must be positive"),
        ({"vad": {"hop_s": 0.00005}}, "vad.hop_s 5e-05 s is under one sample at 8000 Hz"),
        ({"sample_rate_hz": 0}, "sample_rate_hz must be positive"),
        ({"sample_rate_hz": 1000000}, "sample_rate_hz 1000000 Hz above 768000 Hz"),
        ({"parallelism": 0}, "parallelism must be >= 1"),
        ({"detector": {"stage_channels": [8, 16, 32]}}, "config requires exactly four stages"),
    ])
    def test_run_config_of_the_wrong_type(self, runner, tmp_path, config, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "w.bin"
        result = runner.invoke(main, ["--config", str(path), "init-weights", "--out", str(out)])
        self.assert_fails_closed(result, f"{path}: {named}\n")
        assert not out.exists()

    @pytest.mark.parametrize("config, flag, named", [
        ({}, ["--seed", "-1"], "--seed -1"),
        ({"global_seed": -3}, [], "global_seed -3"),
    ])
    def test_negative_init_weights_seed(self, runner, tmp_path, config, flag, named):
        """Only init-weights needs a seed >= 0 (present and pool hash theirs), so it names the seed it refuses."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "w.bin"
        result = runner.invoke(main, ["--config", str(path), "init-weights", *flag, "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: init-weights: {named} is negative; the weights need a seed >= 0\n"
        assert not out.exists()

    def test_corrupt_weights(self, runner, config_path, tmp_path):
        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        raw = bytearray(weights.read_bytes())
        raw[-4] ^= 0xFF
        weights.write_bytes(bytes(raw))
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main,
            ["--config", config_path, "detect", "--manifest", str(manifest),
             "--weights", str(weights), "--out", str(out)],
        )
        self.assert_fails_closed(result, f"{weights}: ")
        assert "checksum" in result.stderr

    EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    @pytest.mark.parametrize("header, named", [
        ({}, "blob_bytes"),
        ({"blob_bytes": 0, "blob_sha256": EMPTY_SHA256, "tensors": [{"name": "a", "offset": 0}]}, "shape"),
        ({"blob_bytes": 0, "blob_sha256": EMPTY_SHA256,
          "tensors": [{"name": "a", "shape": [0], "offset": 0}, {"name": "a", "shape": [0], "offset": 0}]},
         "duplicate tensor name"),
        ({"blob_bytes": 0, "blob_sha256": EMPTY_SHA256, "tensors": [{"name": "a", "shape": [2.5], "offset": 0}]},
         "tensors[0].shape[0] must be an integer, not 2.5\n"),
        ({"blob_bytes": 0, "blob_sha256": EMPTY_SHA256, "tensors": [{"name": "a", "shape": [0], "offset": None}]},
         "tensors[0].offset must be an integer, not null\n"),
        ({"blob_bytes": 0, "blob_sha256": EMPTY_SHA256, "tensors": [{"name": "a", "shape": "ab", "offset": 0}]},
         'tensors[0].shape must be an array, not "ab"\n'),
        ({"blob_bytes": 0, "blob_sha256": EMPTY_SHA256, "tensors": [{"name": ["a"], "shape": [0], "offset": 0}]},
         'tensors[0].name must be a string, not ["a"]\n'),
        ({"blob_bytes": 0, "blob_sha256": EMPTY_SHA256, "tensors": [{"name": "a", "shape": [10**30], "offset": 0}]},
         "tensor a shape/offset inconsistent with blob\n"),
        ({"blob_bytes": 0, "blob_sha256": EMPTY_SHA256, "tensors": [{"name": "a", "shape": [-1], "offset": 0}]},
         "malformed manifest: tensors[0].shape[0] must be >= 0, not -1\n"),
    ])
    def test_malformed_weights_header(self, runner, tmp_path, header, named):
        weights = tmp_path / "w.bin"
        weights.write_text(json.dumps({"format": "spoofbench-weights", "format_version": 1, **header}) + "\n")
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        result = runner.invoke(
            main, ["detect", "--manifest", str(manifest), "--weights", str(weights), "--out", str(tmp_path / "s.csv")]
        )
        self.assert_fails_closed(result, f"{weights}: ")
        assert named in result.stderr

    @pytest.mark.parametrize("config, named", [
        ({**COMPACT_DETECTOR, "foo": 1}, "unexpected keyword argument 'foo'"),
        ({**COMPACT_DETECTOR, "embedding_dim": 100}, "embedding_dim must equal 2 x last stage channels"),
        ([1, 2], "must be a mapping"),
        ({**COMPACT_DETECTOR, "stage_channels": "4444"}, 'stage_channels must be an array, not "4444"\n'),
        (None, "DetectorConfig must be a mapping, not null\n"),
        ([], "DetectorConfig must be a mapping, not []\n"),
    ])
    def test_bad_detector_config_in_weights(self, runner, tmp_path, config, named):
        store = init_parameters(DetectorConfig(**COMPACT_DETECTOR), seed=0)
        store.config = config
        weights = tmp_path / "w.bin"
        save_parameters(store, weights)
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        result = runner.invoke(
            main, ["detect", "--manifest", str(manifest), "--weights", str(weights), "--out", str(tmp_path / "s.csv")]
        )
        self.assert_fails_closed(result, f"{weights}: detector config: ")
        assert named in result.stderr

    @pytest.mark.parametrize("change, named", [
        ("missing", "missing tensor fc.bias\n"),
        ("shape", "tensor stage1.adapter.conv.weight has shape (8, 1, 3, 3), the config needs (32, 1, 3, 3) (and "),
        ("extra", "unexpected tensor stage1.block1.proj.weight\n"),
    ], ids=["missing", "shape", "extra"])
    def test_weights_that_do_not_fit_the_config(self, runner, tmp_path, change, named):
        """Checked before any entry: a missing tensor, compact-width tensors under a
        default-width header config and a tensor no unit reads."""
        cfg = DetectorConfig(**COMPACT_DETECTOR)
        store = ParameterStore(config=asdict(DetectorConfig() if change == "shape" else cfg))
        for name, arr in init_parameters(cfg, seed=0).items():
            if not (change == "missing" and name == "fc.bias"):
                store.add(name, arr)
        if change == "extra":
            store.add("stage1.block1.proj.weight", np.zeros((8, 8)))
        weights = tmp_path / "w.bin"
        save_parameters(store, weights)
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["detect", "--manifest", str(manifest), "--weights", str(weights), "--out", str(out)])
        self.assert_fails_closed(result, f"{weights}: weights do not fit the detector config: ")
        assert named in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("header, blob, named", [
        (b'{"format": "spoofbench-weights", "\xff": 1}', b"", "unreadable manifest: 'utf-8' codec can't decode byte 0xff"),
        (json.dumps({"format": "spoofbench-weights", "format_version": 1, "blob_bytes": 4,
                     "blob_sha256": hashlib.sha256(bytes(4)).hexdigest(), "tensors": []}).encode(), bytes(4),
         "blob has 4 trailing bytes\n"),
        (b"[]", b"", "not a spoofbench-weights file\n"),
        (json.dumps({"format": "spoofbench-weights", "format_version": 1, "blob_bytes": 4,
                     "blob_sha256": hashlib.sha256(np.float32("nan").tobytes()).hexdigest(),
                     "tensors": [{"name": "a", "shape": [1], "offset": 0}]}).encode(), np.float32("nan").tobytes(),
         "tensor a: tensor a contains non-finite values\n"),
    ], ids=["header-not-utf8", "trailing-bytes", "not-an-object", "non-finite-value"])
    def test_unreadable_weights_bytes(self, runner, tmp_path, header, blob, named):
        weights = tmp_path / "w.bin"
        weights.write_bytes(header + b"\n" + blob)
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["detect", "--manifest", str(manifest), "--weights", str(weights), "--out", str(out)])
        self.assert_fails_closed(result, f"{weights}: {named}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["vad", "pool", "detect-manifest", "detect-weights", "present", "eval", "det"])
    def test_directory_argument(self, runner, tmp_path, command):
        directory = tmp_path / "dir"
        directory.mkdir()
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        out = str(tmp_path / "out")
        argv = {
            "vad": ["vad", "--in", str(directory), "--out", out],
            "pool": ["pool", "--manifests", str(directory), "--out", out],
            "detect-manifest": ["detect", "--manifest", str(directory), "--weights", str(manifest), "--out", out],
            "detect-weights": ["detect", "--manifest", str(manifest), "--weights", str(directory), "--out", out],
            "present": ["present", "--jobs", str(directory)],
            "eval": ["eval", "--scores", str(directory), "--out", out],
            "det": ["det", "--scores", str(directory), "--out", out],
        }[command]
        self.assert_fails_closed(runner.invoke(main, argv), f"{directory}: ")


class TestCmdEval:
    def write_toy_scores(self, tmp_path, separated=True):
        if separated:
            bona, spoof = [0.1, 0.2, 0.3], [0.7, 0.8, 0.9]
        else:
            bona, spoof = [0.1, 0.6], [0.4, 0.9]
        trials = [TrialScore(f"b{i}", "bonafide", s, "dsA") for i, s in enumerate(bona)]
        trials += [TrialScore(f"s{i}", "spoof", s, "dsA") for i, s in enumerate(spoof)]
        trials += [TrialScore(f"b{i}x", "bonafide", s, "dsB") for i, s in enumerate(bona)]
        trials += [TrialScore(f"s{i}x", "spoof", s, "dsB") for i, s in enumerate(spoof)]
        path = tmp_path / "scores.csv"
        write_scores_csv(trials, path)
        return path

    def test_perfect_separation_report(self, runner, tmp_path):
        scores = self.write_toy_scores(tmp_path)
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["eval", "--scores", str(scores), "--out", str(out), "--no-timestamp"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["pooled"]["eer"] == 0.0
        assert report["pooled"]["mdr_at_far"] == 0.0
        assert report["pooled"]["detection_rate"] == 100.0
        assert "generated_at" not in report

    def test_far_flag_recorded(self, runner, tmp_path):
        scores = self.write_toy_scores(tmp_path)
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["eval", "--scores", str(scores), "--far", "0.01", "--out", str(out), "--no-timestamp"],
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["far_target"] == 0.01
        assert report["pooled"]["far_target"] == 0.01

    @pytest.mark.parametrize("far", ["0", "2", "-0.5", "nan"])
    def test_bad_far_is_a_usage_error(self, runner, tmp_path, far):
        """--far is checked before the scores are read: on a file with a bad header it
        is the --far error that is reported, as click's usage error."""
        scores = tmp_path / "scores.csv"
        scores.write_text("a,b,c\n1,2,3\n")
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["eval", "--scores", str(scores), "--far", far, "--out", str(out)])
        assert result.exit_code == 2  # click's usage error
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "Invalid value for '--far'" in result.stderr
        assert "expected header" not in result.stderr
        assert not out.exists()

    def test_far_of_one_accepted(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["eval", "--scores", str(bad), "--far", "1", "--out", str(out)])
        self.assert_fails_closed(result, f"{bad}:1: expected header")
        result = runner.invoke(main, ["eval", "--scores", str(self.write_toy_scores(tmp_path)), "--far", "1",
                                      "--out", str(out), "--no-timestamp"])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["pooled"]["far_target"] == 1.0

    def test_per_dataset_and_pooled_sections(self, runner, tmp_path):
        scores = self.write_toy_scores(tmp_path, separated=False)
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["eval", "--scores", str(scores), "--pooled", "--per-dataset",
             "--out", str(out), "--no-timestamp"],
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert set(report["per_dataset"]) == {"dsA", "dsB"}
        assert "per_dataset_average" in report
        assert "pooled" in report

    def test_scaled_scores_report_as_unscaled(self, runner, tmp_path):
        """An inverted detector at 1e20 scale: float64 rounds the top score + 1 onto it, and the
        all-reject extreme still holds, so every rate is the unit-scale file's."""
        pooled = []
        for scale in (1e0, 1e20):
            path = tmp_path / f"scores-{scale:g}.csv"
            write_scores_csv([TrialScore("b0", "bonafide", 3 * scale), TrialScore("b1", "bonafide", 4 * scale),
                              TrialScore("s0", "spoof", 1 * scale), TrialScore("s1", "spoof", 2 * scale)], path)
            out = tmp_path / f"report-{scale:g}.json"
            result = runner.invoke(main, ["eval", "--scores", str(path), "--out", str(out), "--no-timestamp"])
            assert result.exit_code == 0, result.output
            pooled.append(json.loads(out.read_text())["pooled"])
        assert pooled[0]["mdr_at_far"] == 1.0 and pooled[0]["detection_rate"] == 0.0
        for key in ("eer", "mdr_at_far", "detection_rate"):
            assert pooled[1][key] == pooled[0][key], key

    def test_single_class_fails(self, runner, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv([TrialScore("a", "spoof", 0.4)], path)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["eval", "--scores", str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert "class" in result.stderr

    def test_timestamp_present_by_default(self, runner, tmp_path):
        scores = self.write_toy_scores(tmp_path)
        out = tmp_path / "report.json"
        assert runner.invoke(main, ["eval", "--scores", str(scores), "--out", str(out)]).exit_code == 0
        assert "generated_at" in json.loads(out.read_text())

    def assert_fails_closed(self, result, message):
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith("error: ")
        assert message in result.stderr

    @pytest.mark.parametrize("command", ["eval", "det"])
    def test_nan_score_fails_closed(self, runner, tmp_path, command):
        scores = self.write_toy_scores(tmp_path)
        lines = scores.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        scores.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--scores", str(scores), "--out", str(out)])
        self.assert_fails_closed(result, f"{scores}:4: ")
        assert "finite" in result.stderr
        assert not out.exists()

    def test_score_past_the_bound_fails_closed(self, runner, tmp_path):
        """Scores near the float limit would overflow a midpoint and an average into an Infinity
        that strict JSON refuses; the file is refused at its first such row instead."""
        scores = tmp_path / "scores.csv"
        scores.write_text("utt_id,dataset,label,checkpoint_s,score\na,d1,bonafide,,-1.5e308\nb,d1,spoof,,1.5e308\n"
                          "c,d2,bonafide,,1.6e308\nd,d2,spoof,,1.7e308\n")
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["eval", "--scores", str(scores), "--pooled", "--per-dataset", "--out", str(out)])
        self.assert_fails_closed(result, f"{scores}:2: a: score must be finite and within ±1e+300\n")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "det"])
    def test_oversized_field_fails_closed(self, runner, tmp_path, command):
        scores = self.write_toy_scores(tmp_path)
        scores.write_text(scores.read_text() + "u" * 200_000 + ",dsA,spoof,,0.5\n")
        result = runner.invoke(main, [command, "--scores", str(scores), "--out", str(tmp_path / "out")])
        self.assert_fails_closed(result, f"{scores}:14: field larger than field limit")

    def test_bad_header_fails_closed(self, runner, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("utt_id,label,score\nb0,bonafide,0.1\n")
        result = runner.invoke(main, ["eval", "--scores", str(scores), "--out", str(tmp_path / "r.json")])
        self.assert_fails_closed(result, f"{scores}:1: expected header")

    def test_duplicate_row_rejected(self, runner, tmp_path):
        scores = self.write_toy_scores(tmp_path)
        lines = scores.read_text().splitlines()
        scores.write_text("\n".join(lines + [lines[1]]) + "\n")
        result = runner.invoke(main, ["eval", "--scores", str(scores), "--out", str(tmp_path / "r.json")])
        self.assert_fails_closed(result, f"{scores}:{len(lines) + 1}: duplicate row")

    def test_header_only_per_dataset_fails(self, runner, tmp_path):
        scores = tmp_path / "scores.csv"
        write_scores_csv([], scores)
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["eval", "--scores", str(scores), "--per-dataset", "--out", str(out)])
        self.assert_fails_closed(result, "no trials")
        assert not out.exists()

    def test_off_protocol_checkpoint_rows_named(self, runner, tmp_path):
        on = [TrialScore(f"{c}{i}", label, s, "dsA", 2.0)
              for c, label, base in (("b", "bonafide", 0.1), ("s", "spoof", 0.7))
              for i, s in enumerate((base, base + 0.1))]
        off = [TrialScore(t.utt_id, t.label, t.score, t.dataset, 4.0) for t in on]
        reports = []
        for name, trials in (("on", on), ("all", on + off)):
            scores, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            write_scores_csv(trials, scores)
            result = runner.invoke(
                main, ["eval", "--scores", str(scores), "--checkpoint-avg", "--no-timestamp", "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            reports.append(out.read_bytes())
        assert "dropped 4 rows at checkpoints not in the protocol: 4s" in result.stderr
        assert reports[0] == reports[1]

    def write_checkpoint_scores(self, tmp_path):
        """Two utterances scored at 2 s and 3 s, and no full-length rows."""
        trials = [TrialScore(utt, label, s + 0.1 * i, "dsA", cp)
                  for utt, label, s in (("b", "bonafide", 0.1), ("s", "spoof", 0.7))
                  for i, cp in enumerate((2.0, 3.0))]
        scores = tmp_path / "scores.csv"
        write_scores_csv(trials, scores)
        return scores

    @pytest.mark.parametrize("flags", [["--pooled"], ["--per-dataset"], []])
    def test_checkpoint_rows_are_not_pooled(self, runner, tmp_path, flags):
        scores = self.write_checkpoint_scores(tmp_path)
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["eval", "--scores", str(scores), *flags, "--out", str(out)])
        self.assert_fails_closed(result, f"{scores}: no full-length rows")
        assert "--checkpoint-avg" in result.stderr
        assert not out.exists()

    def test_checkpoint_rows_evaluate_with_checkpoint_avg(self, runner, tmp_path):
        scores = self.write_checkpoint_scores(tmp_path)
        out = tmp_path / "r.json"
        result = runner.invoke(main, ["eval", "--scores", str(scores), "--checkpoint-avg", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert set(json.loads(out.read_text())["per_checkpoint"]) == {"2", "3"}


class TestCmdDet:
    def test_header_and_monotonicity(self, runner, tmp_path):
        rng = np.random.default_rng(6)
        trials = [TrialScore(f"b{i}", "bonafide", float(s)) for i, s in enumerate(rng.normal(0, 1, 50))]
        trials += [TrialScore(f"s{i}", "spoof", float(s)) for i, s in enumerate(rng.normal(1, 1, 50))]
        scores = tmp_path / "scores.csv"
        write_scores_csv(trials, scores)
        out = tmp_path / "det.csv"
        result = runner.invoke(main, ["det", "--scores", str(scores), "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "threshold,far,mdr"
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        fars = [r[1] for r in rows]
        mdrs = [r[2] for r in rows]
        assert all(a >= b for a, b in zip(fars, fars[1:]))
        assert all(a <= b for a, b in zip(mdrs, mdrs[1:]))

    def test_eer_recoverable(self, runner, tmp_path):
        from spoofbench.metrics import DetCurve, evaluate

        from oracles import eer_from_curve

        rng = np.random.default_rng(7)
        trials = [TrialScore(f"b{i}", "bonafide", float(s)) for i, s in enumerate(rng.normal(0, 1, 80))]
        trials += [TrialScore(f"s{i}", "spoof", float(s)) for i, s in enumerate(rng.normal(0.8, 1, 80))]
        scores = tmp_path / "scores.csv"
        write_scores_csv(trials, scores)
        out = tmp_path / "det.csv"
        assert runner.invoke(main, ["det", "--scores", str(scores), "--out", str(out)]).exit_code == 0
        lines = out.read_text().strip().splitlines()[1:]
        cols = np.array([[float(v) for v in l.split(",")] for l in lines])
        curve = DetCurve(cols[:, 0], cols[:, 1], cols[:, 2])
        assert abs(eer_from_curve(curve) - evaluate(trials).eer) < 1e-9


    def test_checkpoint_rows_are_not_pooled(self, runner, tmp_path):
        scores = TestCmdEval().write_checkpoint_scores(tmp_path)
        out = tmp_path / "det.csv"
        result = runner.invoke(main, ["det", "--scores", str(scores), "--out", str(out)])
        TestCmdEval().assert_fails_closed(result, f"{scores}: no full-length rows")
        assert "--checkpoint-avg" in result.stderr
        assert not out.exists()


class TestStartup:
    """scipy takes about a second to import, and only the channel simulation
    and the aggregator use it."""

    SCRIPT = """
import json, sys
from spoofbench.cli import main
loaded = [sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
for argv in json.loads(sys.argv[1]):
    main(argv, standalone_mode=False)
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(json.dumps(loaded))
"""

    def loaded_after(self, commands):
        """The scipy modules loaded after importing the CLI, and after each command, in one process."""
        import spoofbench

        src = str(Path(spoofbench.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_eval_det_and_8khz_detect_load_no_scipy(self, runner, config_path, tmp_path):
        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])  # SR is 8 kHz, the default rate
        scores = TestCmdEval().write_toy_scores(tmp_path)
        commands = [
            ["eval", "--scores", str(scores), "--pooled", "--per-dataset", "--out", str(tmp_path / "r.json")],
            ["det", "--scores", str(scores), "--out", str(tmp_path / "det.csv")],
            ["--config", config_path, "detect", "--manifest", str(manifest), "--weights", str(weights),
             "--out", str(tmp_path / "s.csv"), "--checkpoints", "0.5"],
        ]
        assert self.loaded_after(commands) == [[]] * 4  # after the import and after each command
        assert [r.checkpoint_s for r in read_scores_csv(tmp_path / "s.csv").rows()] == [0.5]

    def test_16khz_vad_and_detect_load_no_scipy(self, runner, config_path, tmp_path):
        """The resampler is numpy's, so a 16 kHz manifest loads no scipy either."""
        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        save_wav(resample(load_wav(tmp_path / "u1.wav"), 16000), tmp_path / "u1.wav")
        commands = [
            ["vad", "--in", str(manifest), "--out", str(tmp_path / "vad.jsonl"), "--trim-dir", str(tmp_path / "t")],
            ["--config", config_path, "detect", "--manifest", str(manifest), "--weights", str(weights),
             "--out", str(tmp_path / "s.csv"), "--checkpoints", "0.5"],
        ]
        assert self.loaded_after(commands) == [[]] * 3
        assert [r.checkpoint_s for r in read_scores_csv(tmp_path / "s.csv").rows()] == [0.5]
        assert load_wav(tmp_path / "t" / "u1.wav").sample_rate_hz == SR


class TestConfigEnvVar:
    def test_spoofbench_config_env_is_honored(self, runner, tmp_path, config_path):
        weights = tmp_path / "w.bin"
        result = runner.invoke(
            main,
            ["init-weights", "--seed", "2", "--out", str(weights)],
            env={"SPOOFBENCH_CONFIG": config_path},
        )
        assert result.exit_code == 0, result.output
        from spoofbench import load_parameters

        store = load_parameters(weights)
        assert store.config["stage_channels"] == COMPACT_DETECTOR["stage_channels"]

    def test_unknown_config_key_fails_closed(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"protocol": {"pooled": True}}))
        result = runner.invoke(main, ["--config", str(config), "init-weights", "--out", str(tmp_path / "w.bin")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "pooled" in result.stderr


class TestDeterminism:
    def test_detect_independent_of_parallelism(self, runner, config_path, tmp_path):
        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(
            tmp_path,
            [(f"u{i}", "bonafide" if i % 2 else "spoof", "d", 1.0 + 0.2 * i) for i in range(4)],
        )
        outputs = []
        for workers in ("1", "4"):
            out = tmp_path / f"scores_{workers}.csv"
            result = runner.invoke(
                main,
                ["--config", config_path, "detect", "--manifest", str(manifest),
                 "--weights", str(weights), "--out", str(out), "--parallelism", workers],
            )
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestDetectWorkers:
    """detect --parallelism N scores up to min(N, cores, entries) entries at once, on the calling
    thread and helper threads of the detect process, and each forward on cores // workers tile
    threads; cores is parallel.cores(), the CPUs the process may run on."""

    def run_detect(self, runner, config, weights, manifest, out, parallelism, *extra):
        return runner.invoke(
            main,
            ["--config", str(config), "detect", "--manifest", str(manifest), "--weights", str(weights),
             "--out", str(out), "--parallelism", str(parallelism), *extra],
        )

    # the workers load and resample too: at 16 kHz every entry is resampled in them
    @pytest.mark.parametrize("mean_var_norm, rate", [(False, SR), (True, SR), (False, 16000)],
                             ids=["False", "True", "False-16kHz"])
    def test_checkpoint_scores_independent_of_parallelism(self, runner, tmp_path, mean_var_norm, rate):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": COMPACT_DETECTOR, "features": {"mean_var_norm": mean_var_norm}}))
        weights = TestCmdDetect().init_weights(runner, str(config), tmp_path)
        manifest = make_manifest(tmp_path, [(f"u{i}", "spoof", "d", 2.5 + 0.5 * i) for i in range(3)])
        for i in range(3):
            clip = load_wav(tmp_path / f"u{i}.wav")
            save_wav(resample(clip, rate), tmp_path / f"u{i}.wav")
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"scores_{workers}.csv"
            result = self.run_detect(runner, config, weights, manifest, out, workers, "--checkpoints", "2,3")
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(read_scores_csv(tmp_path / "scores_2.csv")) == 5  # u0 is below the 3 s checkpoint

    def test_corrupt_wav_fails_only_its_entry(self, runner, config_path, tmp_path):
        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("a", "spoof", "d", 1.0), ("bad", "spoof", "d", 1.0),
                                            ("c", "bonafide", "d", 1.2)])
        # a corrupt file, then one that is not there: it cannot be stat'ed, so it starts last
        for broken in (lambda path: path.write_bytes(b"RIFF\x00\x00\x00\x00WAVE"), Path.unlink):
            broken(tmp_path / "bad.wav")
            out = tmp_path / "scores.csv"
            result = self.run_detect(runner, config_path, weights, manifest, out, 2)
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and errors[0].startswith("error: bad: ")
            assert [r.utt_id for r in read_scores_csv(out).rows()] == ["a", "c"]
            assert multiprocessing.active_children() == []

    def test_worker_error_fails_its_entry(self, runner, config_path, tmp_path):
        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("a", "spoof", "d", 1.0), ("b", "bonafide", "d", 1.0)])
        for u in "ab":
            (tmp_path / f"{u}.wav").write_bytes(b"not a wav")
        out = tmp_path / "scores.csv"
        result = self.run_detect(runner, config_path, weights, manifest, out, 2)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [f"error: {u}: {tmp_path / u}.wav: not a RIFF/WAVE file" for u in "ab"]
        assert read_scores_csv(out).rows() == []

    def score_entry_spy(self, monkeypatch, before=None):
        """Record the thread each entry is scored on; before() runs first in that thread."""
        import spoofbench.cli as cli

        threads = {}
        score_entry = cli._score_entry

        def spy(*args):
            threads[args[-1].utt_id] = threading.get_ident()
            if before:
                before()
            return score_entry(*args)

        monkeypatch.setattr(cli, "_score_entry", spy)
        return threads

    def test_largest_file_starts_first(self, runner, config_path, tmp_path, monkeypatch):
        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("gone", "spoof", "d", 3.0), ("a", "spoof", "d", 1.0),
                                            ("b", "bonafide", "d", 2.0), ("c", "spoof", "d", 1.5)])
        (tmp_path / "gone.wav").unlink()
        with open(manifest, "a") as fh:  # a path that os.stat refuses with ValueError, not OSError
            fh.write(json.dumps({"utt_id": "nul", "path": "a\0b.wav", "label": "spoof", "dataset": "d"}) + "\n")
        threads = self.score_entry_spy(monkeypatch)
        result = self.run_detect(runner, config_path, weights, manifest, tmp_path / "scores.csv", 1)
        assert result.exit_code == 1
        assert list(threads) == ["b", "c", "a", "gone", "nul"]  # the order the entries were taken in
        assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == [
            f"error: gone: [Errno 2] No such file or directory: '{tmp_path / 'gone.wav'}'",
            "error: nul: embedded null byte"]
        assert [r.utt_id for r in read_scores_csv(tmp_path / "scores.csv").rows()] == ["a", "b", "c"]

    def test_one_cpu_starts_no_pool(self, runner, config_path, tmp_path, monkeypatch):
        import spoofbench.cli as cli

        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("a", "spoof", "d", 1.0), ("b", "bonafide", "d", 1.0)])
        monkeypatch.setattr(cli, "cores", lambda: 1)
        threads = self.score_entry_spy(monkeypatch)
        before = threading.active_count()
        result = self.run_detect(runner, config_path, weights, manifest, tmp_path / "scores.csv", 2)
        assert result.exit_code == 0, result.output
        assert threads == {"a": threading.get_ident(), "b": threading.get_ident()}  # both in the calling thread
        assert threading.active_count() == before

    def test_cores_are_the_cpus_the_process_may_run_on(self, runner, config_path, tmp_path, monkeypatch):
        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [(u, "spoof", "d", 1.0) for u in "abc"])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # as under taskset -c 0
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        threads = self.score_entry_spy(monkeypatch)
        result = self.run_detect(runner, config_path, weights, manifest, tmp_path / "scores.csv", 4)
        assert result.exit_code == 0, result.output
        assert threads == dict.fromkeys("abc", threading.get_ident())

    @pytest.mark.parametrize("cpu_count, want", [(None, 1), (8, 8)])
    def test_cores_without_an_affinity_mask(self, monkeypatch, cpu_count, want):
        """Every CPU where the platform has no sched_getaffinity, and one when their count is unknown."""
        from spoofbench.parallel import cores

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert cores() == want

    def test_environment_restored_and_no_worker_left(self, runner, config_path, tmp_path, monkeypatch):
        import spoofbench

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        for name in spoofbench._BLAS_THREAD_VARS[1:]:
            monkeypatch.delenv(name, raising=False)
        env = {name: os.environ.get(name) for name in spoofbench._BLAS_THREAD_VARS}
        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("a", "spoof", "d", 1.0), ("b", "bonafide", "d", 1.0)])
        before = threading.active_count()
        result = self.run_detect(runner, config_path, weights, manifest, tmp_path / "scores.csv", 2)
        assert result.exit_code == 0, result.output
        assert {name: os.environ.get(name) for name in spoofbench._BLAS_THREAD_VARS} == env
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []

    def test_import_pins_blas_unless_set(self):
        import spoofbench

        names = spoofbench._BLAS_THREAD_VARS
        src = str(Path(spoofbench.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k not in names}
        env.update(OPENBLAS_NUM_THREADS="3", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import json, os, spoofbench; print(json.dumps({n: os.environ.get(n) for n in spoofbench._BLAS_THREAD_VARS}))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == dict.fromkeys(names, "1") | {"OPENBLAS_NUM_THREADS": "3"}

    def test_entries_scored_at_once_on_threads(self, runner, config_path, tmp_path, monkeypatch):
        import multiprocessing.process

        import spoofbench.cli as cli

        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("a", "spoof", "d", 1.0), ("b", "bonafide", "d", 1.0)])
        monkeypatch.setattr(cli, "cores", lambda: 2)

        def no_process(*args, **kwargs):
            raise AssertionError("a child process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        # each entry waits here for the other, so an entry not scored at the same time fails on the timeout
        threads = self.score_entry_spy(monkeypatch, threading.Barrier(2, timeout=30).wait)
        result = self.run_detect(runner, config_path, weights, manifest, tmp_path / "scores.csv", 2)
        assert result.exit_code == 0, result.output
        assert len(set(threads.values())) == 2
        assert [r.utt_id for r in read_scores_csv(tmp_path / "scores.csv").rows()] == ["a", "b"]

    def test_more_worker_threads_than_cores_score_as_one(self, runner, config_path, tmp_path, monkeypatch):
        import spoofbench.cli as cli

        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [(f"u{i}", ("spoof", "bonafide")[i % 2], "d", 1.0 + 0.25 * i) for i in range(8)])
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads switch often, so an update lost between them would show
        try:
            for workers in (1, 8):
                monkeypatch.setattr(cli, "cores", lambda: workers)  # 8 workers on the cores this machine has
                out = tmp_path / f"scores_{workers}.csv"
                result = self.run_detect(runner, config_path, weights, manifest, out, workers)
                assert result.exit_code == 0, result.output
                outputs.append(out.read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1]
        assert len(read_scores_csv(out)) == 8

    def test_tiled_forward_leaves_no_thread(self, runner, config_path, tmp_path, monkeypatch):
        import spoofbench.cli as cli
        from spoofbench.detector import model

        weights = TestCmdDetect().init_weights(runner, config_path, tmp_path)
        manifest = make_manifest(tmp_path, [("a", "spoof", "d", 3.5)])  # scored at 2 and 3 s
        monkeypatch.setattr(model, "_TILE_ELEMS", 8 * 64 * 16)  # about ten output frames per tile of a stage-1 block
        monkeypatch.setattr(cli, "cores", lambda: 2)  # one worker, its forwards on 2 tile threads
        tile_threads = set()
        # the first tile of each of the first unit's two threads waits for the other's, so both threads run one
        barrier, started = threading.Barrier(2, timeout=30), threading.Event()

        def tile(*args):
            tile_threads.add(threading.get_ident())
            if not started.is_set():
                barrier.wait()
                started.set()
            return model_tile(*args)

        model_tile = model._tile
        monkeypatch.setattr(model, "_tile", tile)
        before = threading.active_count()
        result = self.run_detect(runner, config_path, weights, manifest, tmp_path / "scores.csv", 1, "--checkpoints")
        assert result.exit_code == 0, result.output
        assert len(tile_threads) >= 2 and threading.get_ident() in tile_threads  # the calling thread works too
        assert threading.active_count() == before

    def test_failed_job_fails_its_entry_in_order(self):
        from spoofbench.parallel import each

        barrier, failed_on = threading.Barrier(2, timeout=30), set()

        def work(item):
            if item in ("p", "q"):  # each waits for the other, so one of them fails on the helper thread
                barrier.wait()
                failed_on.add(threading.get_ident())
                raise ValueError(f"cannot read {item}")
            return len(item)

        results = each(work, ["a", "p", "q", "bb"], 2)
        assert [(r, type(e).__name__, str(e)) if e else (r, None) for r, e in results] == [
            (1, None), (None, "ValueError", "cannot read p"), (None, "ValueError", "cannot read q"), (2, None)]
        assert len(failed_on) == 2

    def test_unfinished_items_per_worker_are_bounded(self):
        from spoofbench.parallel import each

        workers, n = 3, 300
        barrier, lock = threading.Barrier(workers, timeout=30), threading.Lock()
        running, peak = [0], [0]

        def work(item):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            if item < workers:  # the first items wait for each other, so every worker runs one at once
                barrier.wait()
            with lock:
                running[0] -= 1
            return 2 * item

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads switch often, so an item taken twice or run at once would show
        try:
            results = each(work, list(range(n)), workers)
        finally:
            sys.setswitchinterval(interval)
        assert results == [(2 * i, None) for i in range(n)]
        assert peak[0] == workers
        assert threading.active_count() == before

    def test_a_long_item_holds_up_no_other(self):
        from spoofbench.parallel import each

        released = threading.Event()

        def work(item):
            if item == 0:
                assert released.wait(10)
            elif item == 99:
                released.set()  # reached only while item 0 is still running
            return item

        assert each(work, list(range(100)), 2) == [(i, None) for i in range(100)]

    def test_an_interrupted_caller_leaves_the_helpers_no_further_item(self):
        import time

        from spoofbench.parallel import each

        caller, done = threading.get_ident(), []

        def work(item):
            if threading.get_ident() == caller:
                raise KeyboardInterrupt  # as Ctrl-C would, in the calling thread's first item
            time.sleep(0.01)
            done.append(item)

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            each(work, list(range(100)), 2)
        assert len(done) < 10 and threading.active_count() == before  # the helper finished its item and stopped

    def test_a_helper_that_fails_to_start_leaves_none_running(self, monkeypatch):
        import time

        from spoofbench.parallel import each

        start, starts, done = threading.Thread.start, [], []

        def failing_start(thread):
            starts.append(thread)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        def work(item):
            time.sleep(0.01)
            done.append(item)

        before = threading.active_count()
        monkeypatch.setattr(threading.Thread, "start", failing_start)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            each(work, list(range(40)), 3)
        monkeypatch.undo()
        finished = len(done)
        assert threading.active_count() == before  # the helper that started was joined
        time.sleep(0.5)
        assert len(done) == finished < 40  # and took no further item


class TestOutputPaths:
    """Every --out refuses a directory, and a write that fails is one `error:` line and exit 1."""

    def argv(self, runner, command, tmp_path, out):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detector": COMPACT_DETECTOR}))
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        if command == "vad":
            return ["vad", "--in", str(manifest), "--out", out]
        if command == "pool":
            [ds] = TestCmdPool().make_dataset_manifests(tmp_path, n_datasets=1, per_class=2)
            return ["pool", "--manifests", ds, "--per-class", "1", "--out", out]
        if command == "detect":
            weights = TestCmdDetect().init_weights(runner, str(config), tmp_path)
            return ["--config", str(config), "detect", "--manifest", str(manifest), "--weights", str(weights),
                    "--out", out]
        if command in ("eval", "det"):
            return [command, "--scores", str(TestCmdEval().write_toy_scores(tmp_path)), "--out", out]
        return ["--config", str(config), "init-weights", "--out", out]

    COMMANDS = ["vad", "pool", "detect", "eval", "det", "init-weights"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_directory_out(self, runner, tmp_path, command):
        directory = tmp_path / "out_dir"
        directory.mkdir()
        result = runner.invoke(main, self.argv(runner, command, tmp_path, str(directory)))
        assert result.exit_code == 2  # click's usage error
        assert isinstance(result.exception, SystemExit)
        assert "is a directory" in result.stderr

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_out(self, runner, tmp_path, command):
        out = tmp_path / "missing" / "out"
        result = runner.invoke(main, self.argv(runner, command, tmp_path, str(out)))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.strip().splitlines() == [f"error: {out}: No such file or directory"]

    @pytest.mark.parametrize("command", ["vad", "detect"])
    def test_unwritable_out_fails_before_any_entry(self, runner, tmp_path, monkeypatch, command):
        """An --out that cannot be written fails before the first entry runs, not after every one."""
        argv = self.argv(runner, command, tmp_path, str(tmp_path / "missing" / "out"))
        calls = []
        monkeypatch.setattr("spoofbench.cli.detect_voice", lambda *args, **kwargs: calls.append("detect_voice"))
        monkeypatch.setattr("spoofbench.cli.detector_forward", lambda *args, **kwargs: calls.append("forward"))
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert calls == []


class TestBoundary:
    """A command that fails as a whole is one `error:` line and exit 1, for an OSError or a
    ValueError alone; any other exception escapes."""

    def test_trim_dir_under_a_file(self, runner, tmp_path):
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        afile = tmp_path / "afile"
        afile.write_text("x")
        out = tmp_path / "out.jsonl"
        result = runner.invoke(main, ["vad", "--in", str(manifest), "--out", str(out), "--trim-dir", f"{afile}/sub"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr == f"error: {afile}/sub: Not a directory\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["vad", "pool", "present", "eval", "det", "config"])
    def test_non_utf8_input(self, runner, tmp_path, command):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\n")
        out = str(tmp_path / "out")
        argv = {
            "vad": ["vad", "--in", str(bad), "--out", out],
            "pool": ["pool", "--manifests", str(bad), "--out", out],
            "present": ["present", "--jobs", str(bad)],
            "eval": ["eval", "--scores", str(bad), "--out", out],
            "det": ["det", "--scores", str(bad), "--out", out],
            "config": ["--config", str(bad), "init-weights", "--out", out],
        }[command]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        assert not Path(out).exists()

    def test_other_exceptions_escape(self, runner, tmp_path, monkeypatch):
        import spoofbench.cli as cli

        def broken(path):
            raise RuntimeError("a bug, not bad input")

        monkeypatch.setattr(cli, "read_manifest", broken)
        manifest = make_manifest(tmp_path, [("u1", "bonafide", "d", 1.0)])
        result = runner.invoke(main, ["vad", "--in", str(manifest), "--out", str(tmp_path / "out")])
        assert isinstance(result.exception, RuntimeError)
        assert str(result.exception) == "a bug, not bad input"
        assert "error:" not in result.stderr


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid input file of each kind, by name, for the commands of the corruption property."""
    base = tmp_path_factory.mktemp("valid")
    entries = []
    for utt_id, label in (("u1", "bonafide"), ("u2", "spoof")):
        wav = make_clip_file(base / f"{utt_id}.wav", 1.0)
        entries.append(ManifestEntry(utt_id, str(wav), label, "d", net_speech_s=1.0))
    write_manifest(entries, base / "manifest.jsonl")
    # the output is relative, so a corrupted path stays in the directory the command runs in
    job = {"input": entries[0].path, "output": "presented.wav", "path": "injection_analog", "codec": "mulaw"}
    (base / "jobs.jsonl").write_text(json.dumps(job) + "\n")
    save_parameters(init_parameters(DetectorConfig(**COMPACT_DETECTOR), seed=0), base / "weights.bin")
    (base / "config.json").write_text(json.dumps({"global_seed": 13, "detector": COMPACT_DETECTOR}))
    trials = [TrialScore(f"{ds}{label[0]}{i}", label, s, ds) for ds in ("dA", "dB")
              for label, scores in (("bonafide", (0.1, 0.6)), ("spoof", (0.4, 0.9))) for i, s in enumerate(scores)]
    write_scores_csv(trials, base / "scores.csv")
    return {name: base / name for name in ("manifest.jsonl", "jobs.jsonl", "weights.bin", "config.json", "scores.csv")}


def _argv(command, paths):
    """The command line of command over paths (input name -> path as given); --out is `out`."""
    m, w, c, s, out = (paths[name] for name in ("manifest.jsonl", "weights.bin", "config.json", "scores.csv", "out"))
    return ["--config", c, *{
        "vad": ["vad", "--in", m, "--out", out],
        "present": ["present", "--jobs", paths["jobs.jsonl"]],
        "pool": ["pool", "--manifests", m, "--per-class", "1", "--out", out],
        "detect": ["detect", "--manifest", m, "--weights", w, "--out", out],
        "eval": ["eval", "--scores", s, "--out", out],
        "det": ["det", "--scores", s, "--out", out],
        "init-weights": ["init-weights", "--out", out],
    }[command]]


@pytest.mark.parametrize("command", ["vad", "present", "pool", "detect", "eval", "det", "init-weights"])
def test_uncorrupted_inputs_succeed(valid_inputs, command):
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(main, _argv(command, {"out": "out", **{n: str(p) for n, p in valid_inputs.items()}}))
    assert result.exit_code == 0, result.output


# (command, the file it gets that is corrupted); DetectorConfig bounds the width, so no corrupted
# config or weights header can ask init-weights or detect for a detector of unbounded size
CORRUPTION_TARGETS = [
    ("vad", "manifest.jsonl"), ("vad", "out"), ("present", "jobs.jsonl"), ("pool", "manifest.jsonl"),
    ("pool", "out"), ("detect", "manifest.jsonl"), ("detect", "weights.bin"), ("detect", "out"),
    ("eval", "scores.csv"), ("eval", "out"), ("det", "scores.csv"), ("det", "out"), ("init-weights", "out"),
    *[(command, "config.json") for command in ("vad", "present", "pool", "detect", "eval", "det", "init-weights")],
]
# JSON a manifest or jobs line (or a config) must not hold: not an object, no field, a field of the wrong
# type, nesting too deep to decode, a NaN, an integer no float can hold
WRONG_SHAPE_LINES = [b'"utt_id"', b'["u1", "x.wav"]', b"{}",
                     b'{"utt_id": ["a"], "path": "x.wav", "label": "spoof", "dataset": "d"}',
                     b'{"input": 5, "output": "o.wav", "path": "injection_analog"}',
                     b"[" * 100_000,
                     b'{"utt_id": "n", "path": "x.wav", "label": "spoof", "dataset": "d", "net_speech_s": NaN}',
                     b'{"utt_id": "n", "path": "x.wav", "label": "spoof", "dataset": "d", "net_speech_s": 1%s}' % (b"0" * 400)]
CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1)),
    st.tuples(st.just("splice"), st.floats(0, 1),
              st.one_of(st.binary(min_size=1, max_size=8), st.just(b"\xff\xfe"), st.just(b"u" * 200_000))),
    st.tuples(st.just("line"), st.floats(0, 1), st.sampled_from(WRONG_SHAPE_LINES)),
    st.sampled_from([("empty",), ("directory",), ("missing",)]),
)


def _corrupt(data: bytes, name: str, corruption) -> str:
    """Put data, corrupted, at name in the current directory; the path the command gets."""
    kind, *args = corruption
    if kind == "directory":
        os.mkdir(name)
        return name
    if kind == "missing":  # under a directory that does not exist
        return os.path.join("missing", name)
    if kind == "truncate":
        data = data[: int(args[0] * len(data))]
    elif kind == "splice":
        at = int(args[0] * len(data))
        data = data[:at] + args[1] + data[at:]
    elif kind == "line":  # a whole line, between two lines
        lines = data.splitlines(keepends=True)
        at = int(args[0] * len(lines))
        data = b"".join([*lines[:at], args[1] + b"\n", *lines[at:]])
    else:
        data = b""
    Path(name).write_bytes(data)
    return name


@settings(max_examples=100, deadline=None)
@given(target=st.sampled_from(CORRUPTION_TARGETS), corruption=CORRUPTIONS)
# TestOutputPaths: an --out that is a directory, or under one that does not exist
@example(target=("vad", "out"), corruption=("directory",))
@example(target=("pool", "out"), corruption=("directory",))
@example(target=("detect", "out"), corruption=("directory",))
@example(target=("eval", "out"), corruption=("directory",))
@example(target=("det", "out"), corruption=("directory",))
@example(target=("init-weights", "out"), corruption=("directory",))
@example(target=("vad", "out"), corruption=("missing",))
@example(target=("pool", "out"), corruption=("missing",))
@example(target=("detect", "out"), corruption=("missing",))
@example(target=("eval", "out"), corruption=("missing",))
@example(target=("det", "out"), corruption=("missing",))
@example(target=("init-weights", "out"), corruption=("missing",))
# test_oversized_field_*: a last row with a 200,000-character field
@example(target=("eval", "scores.csv"), corruption=("splice", 1.0, b"u" * 200_000))
@example(target=("det", "scores.csv"), corruption=("splice", 1.0, b"u" * 200_000))
# manifest and jobs lines of the wrong shape
@example(target=("vad", "manifest.jsonl"), corruption=("line", 0.0, WRONG_SHAPE_LINES[0]))
@example(target=("vad", "manifest.jsonl"), corruption=("line", 0.0, WRONG_SHAPE_LINES[1]))
@example(target=("vad", "manifest.jsonl"), corruption=("line", 0.0, WRONG_SHAPE_LINES[2]))
@example(target=("vad", "manifest.jsonl"), corruption=("line", 0.0, WRONG_SHAPE_LINES[3]))
@example(target=("present", "jobs.jsonl"), corruption=("line", 0.0, WRONG_SHAPE_LINES[4]))
@example(target=("vad", "manifest.jsonl"), corruption=("line", 0.0, WRONG_SHAPE_LINES[5]))
@example(target=("vad", "manifest.jsonl"), corruption=("line", 0.0, WRONG_SHAPE_LINES[6]))
@example(target=("vad", "manifest.jsonl"), corruption=("line", 0.0, WRONG_SHAPE_LINES[7]))
@example(target=("init-weights", "config.json"), corruption=("line", 0.0, WRONG_SHAPE_LINES[5]))
@example(target=("init-weights", "config.json"), corruption=("line", 0.0, WRONG_SHAPE_LINES[6]))
@example(target=("init-weights", "config.json"), corruption=("line", 0.0, WRONG_SHAPE_LINES[7]))
def test_corrupted_input_fails_closed(valid_inputs, target, corruption):
    """Any command on a corrupted valid input exits 0, exits 1 with an `error:` line, or
    exits 2 with click's usage message; no exception but SystemExit escapes."""
    command, name = target
    runner = CliRunner()
    with runner.isolated_filesystem():
        paths = {n: str(p) for n, p in valid_inputs.items()}
        data = valid_inputs[name].read_bytes() if name in valid_inputs else b""
        paths[name] = _corrupt(data, name, corruption)
        paths.setdefault("out", "out")
        result = runner.invoke(main, _argv(command, paths))
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 1:
        assert any(line.startswith("error: ") for line in result.stderr.splitlines()), result.stderr
    if result.exit_code == 2:
        assert "Usage: " in result.stderr and "Error: " in result.stderr, result.stderr
