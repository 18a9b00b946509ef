"""Seeded inputs and command plans for the four benchmark workloads.

Every generated file is a pure function of (workload, seed): the same seed
writes byte-identical WAVs, manifests, job files and score CSVs.  The
program only ever sees these files and the command lines in a ``Plan``.
"""

from __future__ import annotations

import json
import wave
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("checkpoint_scoring", "full_length_scoring", "eval_report", "channel_prep")

# Protocol defaults of the program; the output check expects exactly these rows.
CHECKPOINTS_S = (2.0, 3.0, 6.0, 9.0, 12.0, 15.0)
MIN_NET_SPEECH_S = 0.5
LABELS = ("bonafide", "spoof")

# The energy VAD flags each burst for about this much longer than it lasts
# (five hangover hops), so bursts are planned shorter.
_VAD_EXTRA_S = 0.05
_NOISE_FLOOR_RMS = 3e-4  # about -70 dBFS, far below the VAD's -55 dB floor

# checkpoint_scoring: a clip of ~20 s net speech, so every checkpoint applies.
# One clip is ~47 s of forward passes, 8.5-14 s on a 2-vCPU Xeon, so a 20 s
# run times one pass (two when the machine is fast).
CHECKPOINT_CLIP_NET_S = 20.0
CHECKPOINT_CLIPS = 1
# full_length_scoring: planned net speech of each clip in manifest order,
# None for a clip below the 0.5 s floor.  The 2, 6 and 20 s clips feed the
# forward-time-by-length metrics.  The two longest come first, so the two
# workers start them together for every seed and peak memory is the same
# overlap each run.
FULL_LENGTH_NET_S = (20.0, 10.0, 1.0, None, 2.0, None, 6.0, 4.0)
# eval_report: the paper's pooled set, 3000 per class per dataset.  Twelve
# datasets (504,000 rows) make CSV parsing and the metrics, not the two CLI
# start-ups, most of a pass.
EVAL_DATASETS = tuple(f"ds{k}" for k in range(1, 13))
EVAL_PER_CLASS = 3000
# channel_prep: presentation jobs over 16 kHz sources, each source presented
# through all six routes; 540 jobs make the layers, not the three CLI
# start-ups (3-5 s together), most of a pass.
CHANNEL_SOURCES = 90
CHANNEL_JOBS = 540
CHANNEL_DATASETS = ("dsA", "dsB")
CHANNEL_POOL_PER_CLASS = 16
CHANNEL_ROUTES = (
    ("playback", "mulaw"),
    ("playback", "alaw"),
    ("injection_analog", "mulaw"),
    ("injection_analog", "alaw"),
    ("injection_digital", "mulaw"),
    ("injection_digital", "alaw"),
)


@dataclass
class Plan:
    """What one run of a workload executes, and what its outputs must be."""

    workload: str
    seed: int
    workdir: Path
    prepare: list = field(default_factory=list)  # untimed commands run first
    setup: list = field(default_factory=list)  # minimal-input command for setup_s
    commands: list = field(default_factory=list)  # one measured pass
    parallelism: int = 1
    # work of one measured pass, keyed by the throughput metric it feeds; only
    # the throughput metrics that apply to the workload
    counts: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    inputs: list = field(default_factory=list)  # files whose sha256 goes in the record
    outputs: list = field(default_factory=list)

    def traced_commands(self) -> list:
        """The measured pass with every --parallelism forced to 1."""
        out = []
        for argv in self.commands:
            argv = list(argv)
            if "--parallelism" in argv:
                argv[argv.index("--parallelism") + 1] = "1"
            out.append(argv)
        return out


def rng_for(workload: str, seed: int, stream: str = "") -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(f"{workload}/{stream}".encode())])


def write_wav(path: Path, samples: np.ndarray, sample_rate_hz: int) -> None:
    """Mono PCM16 WAV."""
    pcm = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2")
    path.parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate_hz)
        fh.writeframes(pcm.tobytes())


def _voiced(rng, sr: int, duration_s: float) -> np.ndarray:
    """Harmonic tone with vibrato, flat envelope and 5 ms ramps.

    Burst levels stay within 1 dB of each other: the VAD rejects frames more
    than 6 dB below the loudest one.
    """
    n = int(round(duration_s * sr))
    t = np.arange(n) / sr
    f0 = rng.uniform(110.0, 220.0) * (1.0 + 0.03 * np.sin(2 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi)))
    phase = 2 * np.pi * np.cumsum(f0) / sr
    x = sum(np.sin(h * phase) / h for h in range(1, 7))
    x *= 0.1 * 10 ** (rng.uniform(-1.0, 1.0) / 20) / np.sqrt(np.mean(x * x))
    ramp = min(int(0.005 * sr), n // 2)
    env = np.ones(n)
    env[:ramp] = env[n - ramp :][::-1] = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    return x * env


def speech_like(rng, sr: int, net_s: float) -> np.ndarray:
    """Voiced bursts separated by pauses, planned to hold net_s of VAD speech."""
    parts = [np.zeros(int(rng.uniform(0.2, 0.4) * sr))]
    remaining = net_s
    while remaining > 1e-9:
        burst = rng.uniform(0.4, 1.2)
        if remaining - burst < 0.4:
            burst = remaining
        parts.append(_voiced(rng, sr, max(burst - _VAD_EXTRA_S, 0.05)))
        parts.append(np.zeros(int(rng.uniform(0.15, 0.5) * sr)))
        remaining -= burst
    x = np.concatenate(parts)
    return x + rng.normal(0.0, _NOISE_FLOOR_RMS, x.size)


def below_floor(rng, sr: int, kind: int) -> np.ndarray:
    """Clips the protocol must skip: one short burst, or the noise floor alone."""
    if kind % 2 == 0:
        x = np.concatenate([np.zeros(int(0.6 * sr)), _voiced(rng, sr, 0.2), np.zeros(int(0.7 * sr))])
    else:
        x = np.zeros(sr)
    return x + rng.normal(0.0, _NOISE_FLOOR_RMS, x.size)


def write_manifest(path: Path, entries) -> None:
    path.write_text("".join(json.dumps(e, separators=(",", ":")) + "\n" for e in entries))


def _entry(utt_id, path, label, dataset):
    return {"utt_id": utt_id, "path": str(path), "label": label, "dataset": dataset}


def _common(plan: Plan) -> tuple[Path, Path]:
    """Config and weights every scoring workload shares."""
    config = plan.workdir / "config.json"
    config.write_text(json.dumps({"global_seed": plan.seed}) + "\n")
    weights = plan.workdir / "weights.bin"
    plan.prepare.append(["--config", str(config), "init-weights", "--seed", str(plan.seed), "--out", str(weights)])
    plan.inputs += [config, weights]
    return config, weights


def _checkpoint_scoring(plan: Plan) -> None:
    w = plan.workdir
    config, weights = _common(plan)
    rng = rng_for(plan.workload, plan.seed, "clips")
    entries = []
    for i in range(CHECKPOINT_CLIPS):
        path = w / "wav" / f"ck{i}.wav"
        write_wav(path, speech_like(rng, 8000, CHECKPOINT_CLIP_NET_S + rng.uniform(-0.5, 0.5)), 8000)
        entries.append(_entry(f"ck-{i:02d}", path, LABELS[i % 2], "synthetic"))
    floor_wav = w / "wav" / "floor.wav"
    write_wav(floor_wav, below_floor(rng, 8000, 0), 8000)
    manifest, floor = w / "manifest.jsonl", w / "floor.jsonl"
    write_manifest(manifest, entries)
    write_manifest(floor, [_entry("floor-00", floor_wav, "spoof", "synthetic")])
    scores, setup_scores = w / "out" / "scores.csv", w / "out" / "setup.csv"
    base = ["--config", str(config), "detect", "--weights", str(weights), "--parallelism", "1"]
    plan.setup = base + ["--manifest", str(floor), "--out", str(setup_scores), "--checkpoints"]
    plan.commands = [base + ["--manifest", str(manifest), "--out", str(scores), "--checkpoints"]]
    plan.counts = {"utt_per_s": len(entries), "audio_s_per_s": len(entries) * sum(CHECKPOINTS_S)}
    plan.expect = {"scored": [e["utt_id"] for e in entries], "skipped": [], "checkpoints": list(CHECKPOINTS_S),
                   "setup_scores": str(setup_scores)}
    plan.inputs += [manifest, floor]
    plan.outputs = [scores]


def _full_length_scoring(plan: Plan) -> None:
    w = plan.workdir
    config, weights = _common(plan)
    rng = rng_for(plan.workload, plan.seed, "clips")
    entries, skipped = [], []
    for i, net in enumerate(FULL_LENGTH_NET_S):
        utt = f"fl-{i:02d}"
        path = w / "wav" / f"{utt}.wav"
        if net is None:
            write_wav(path, below_floor(rng, 16000, len(skipped)), 16000)
            skipped.append(utt)
        else:
            write_wav(path, speech_like(rng, 16000, net), 16000)
        entries.append(_entry(utt, path, LABELS[i % 2], "synthetic"))
    manifest, floor = w / "manifest.jsonl", w / "floor.jsonl"
    write_manifest(manifest, entries)
    write_manifest(floor, [e for e in entries if e["utt_id"] == skipped[0]])
    vad = w / "vad.jsonl"
    plan.prepare.append(["--config", str(config), "vad", "--in", str(manifest), "--out", str(vad)])
    scores, setup_scores = w / "out" / "scores.csv", w / "out" / "setup.csv"
    base = ["--config", str(config), "detect", "--weights", str(weights), "--parallelism", "2"]
    plan.parallelism = 2
    plan.setup = base + ["--manifest", str(floor), "--out", str(setup_scores)]
    plan.commands = [base + ["--manifest", str(manifest), "--out", str(scores)]]
    # audio_s_per_s is filled in from the program's own net speech (run.prepare)
    plan.counts = {"utt_per_s": len(entries), "audio_s_per_s": None}
    plan.expect = {
        "scored": [e["utt_id"] for e in entries if e["utt_id"] not in skipped],
        "skipped": skipped,
        "checkpoints": [],
        "vad_manifest": str(vad),
        "setup_scores": str(setup_scores),
    }
    plan.inputs += [manifest, floor]
    plan.outputs = [scores]


def scores_csv_lines(rng, datasets, per_class: int):
    """Score rows as `detect --checkpoints` plus a full-length pass would write them.

    Separation grows with the checkpoint, as a detector's would with more speech.
    """
    lines = ["utt_id,dataset,label,checkpoint_s,score"]
    for ds in datasets:
        shift = rng.normal(0.0, 0.3)
        for label in LABELS:
            sign = 1.0 if label == "spoof" else -1.0
            for i in range(per_class):
                utt = f"{ds}-{label[0]}{i:05d}"
                noise = rng.standard_normal(len(CHECKPOINTS_S) + 1)
                lines.append(f"{utt},{ds},{label},,{float(shift + sign * 1.2 + noise[0])!r}")
                for cp, z in zip(CHECKPOINTS_S, noise[1:]):
                    d = 1.2 * np.sqrt(cp / CHECKPOINTS_S[-1])
                    lines.append(f"{utt},{ds},{label},{cp!r},{float(shift + sign * d + z)!r}")
    return lines


def _eval_report(plan: Plan) -> None:
    w = plan.workdir
    config = w / "config.json"
    config.write_text(json.dumps({"global_seed": plan.seed}) + "\n")
    lines = scores_csv_lines(rng_for(plan.workload, plan.seed, "scores"), EVAL_DATASETS, EVAL_PER_CLASS)
    scores, small = w / "scores.csv", w / "setup_scores.csv"
    scores.write_text("\n".join(lines) + "\n")
    small_lines = scores_csv_lines(rng_for(plan.workload, plan.seed, "setup"), EVAL_DATASETS[:1], 1)
    small.write_text("\n".join(small_lines) + "\n")
    report, det = w / "out" / "report.json", w / "out" / "det.csv"
    flags = ["--pooled", "--per-dataset", "--checkpoint-avg", "--no-timestamp"]
    plan.setup = ["--config", str(config), "eval", "--scores", str(small), *flags, "--out", str(w / "out" / "setup.json")]
    plan.commands = [
        ["--config", str(config), "eval", "--scores", str(scores), *flags, "--out", str(report)],
        ["--config", str(config), "det", "--scores", str(scores), "--out", str(det)],
    ]
    # eval and det each read and evaluate every row
    plan.counts = {"rows_per_s": 2 * (len(lines) - 1)}
    plan.expect = {"datasets": list(EVAL_DATASETS), "per_class": EVAL_PER_CLASS, "scores": str(scores)}
    plan.inputs += [config, scores, small]
    plan.outputs = [report, det]


def impulse_response(rng, sr: int) -> np.ndarray:
    """Direct path plus an exponentially decaying diffuse tail."""
    n = int(rng.uniform(0.05, 0.15) * sr)
    tail = rng.standard_normal(n) * np.exp(-np.arange(n) / (0.02 * sr))
    h = 0.3 * tail / np.max(np.abs(tail))
    h[0] = 1.0
    return h


def _channel_prep(plan: Plan) -> None:
    w = plan.workdir
    config = w / "config.json"
    config.write_text(json.dumps({"global_seed": plan.seed}) + "\n")
    rng = rng_for(plan.workload, plan.seed, "sources")
    irs = []
    for k in range(2):
        irs.append(w / "ir" / f"room{k}.wav")
        write_wav(irs[-1], impulse_response(rng, 16000), 16000)
    sources = []
    for k in range(CHANNEL_SOURCES):
        path = w / "src" / f"src{k:02d}.wav"
        # lengths spread evenly over 3-6 s, so every seed presents about the same audio
        x = speech_like(rng, 16000, 3.0 + 3.0 * (k + rng.uniform()) / CHANNEL_SOURCES)
        write_wav(path, x, 16000)
        sources.append(path)
    jobs, presented = [], []
    for i in range(CHANNEL_JOBS):
        utt = f"cp-{i:03d}"
        src = sources[i // len(CHANNEL_ROUTES)]
        route, codec = CHANNEL_ROUTES[i % len(CHANNEL_ROUTES)]
        out = w / "out" / "presented" / f"{utt}.wav"
        job = {"utt_id": utt, "input": str(src), "output": str(out), "path": route, "codec": codec,
               "gain_db": [-3.0, 3.0]}
        if route != "injection_digital":
            job["snr_db"] = [20.0, 35.0]
        if route == "playback":
            job["ir"] = str(irs[i % 2])
        jobs.append(job)
        presented.append(_entry(utt, out, LABELS[i % 2], CHANNEL_DATASETS[(i // 2) % 2]))
    jobs_path, manifest = w / "jobs.jsonl", w / "presented.jsonl"
    write_manifest(jobs_path, jobs)
    write_manifest(manifest, presented)
    setup_src = w / "src" / "setup.wav"
    write_wav(setup_src, speech_like(rng, 16000, 1.0), 16000)
    setup_jobs = w / "setup_jobs.jsonl"
    write_manifest(setup_jobs, [{"utt_id": "setup", "input": str(setup_src),
                                 "output": str(w / "out" / "setup.wav"), "path": "injection_digital"}])
    vad, trimmed, pool = w / "out" / "vad.jsonl", w / "out" / "trimmed", w / "out" / "pool.jsonl"
    cfg = ["--config", str(config)]
    plan.setup = cfg + ["present", "--jobs", str(setup_jobs), "--parallelism", "1"]
    plan.commands = [
        cfg + ["present", "--jobs", str(jobs_path), "--parallelism", "1"],
        cfg + ["vad", "--in", str(manifest), "--out", str(vad), "--trim-dir", str(trimmed), "--parallelism", "1"],
        cfg + ["pool", "--manifests", str(vad), "--per-class", str(CHANNEL_POOL_PER_CLASS), "--out", str(pool)],
    ]
    plan.counts = {"utt_per_s": CHANNEL_JOBS}
    plan.expect = {"jobs": jobs, "manifest": presented, "per_class": CHANNEL_POOL_PER_CLASS,
                   "groups": len(LABELS) * len(CHANNEL_DATASETS),
                   "vad": str(vad), "pool": str(pool), "trimmed": str(trimmed)}
    plan.inputs += [config, jobs_path, manifest, *irs]
    plan.outputs = [vad, pool, w / "out" / "presented", trimmed]


_GENERATORS = {
    "checkpoint_scoring": _checkpoint_scoring,
    "full_length_scoring": _full_length_scoring,
    "eval_report": _eval_report,
    "channel_prep": _channel_prep,
}


def build(workload: str, seed: int, workdir: Path) -> Plan:
    """Write the workload's inputs under workdir and return its plan."""
    plan = Plan(workload, seed, Path(workdir))
    (plan.workdir / "out").mkdir(parents=True, exist_ok=True)
    _GENERATORS[workload](plan)
    return plan
