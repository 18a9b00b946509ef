"""Audio primitives: WAV I/O, resampling, energy VAD and net-speech bookkeeping.

Everything downstream (features, channel simulation, the evaluation
protocol) operates on :class:`AudioClip` values at a canonical 8 kHz rate
and accounts for speech duration through :class:`VadMask`.
"""

from __future__ import annotations

import math
import struct
import wave
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Guard used when converting frame power to dB so that digital silence maps
# to a finite floor (-120 dB) instead of -inf.
_POWER_FLOOR = 1e-12

# The highest common PCM rate; the resampler's filter grows with the rate, so a
# WAV header or a run config above it is refused.
MAX_SAMPLE_RATE_HZ = 768_000


@dataclass(frozen=True)
class AudioClip:
    """Mono sample sequence with its sample rate.

    Samples are float64 in nominal [-1, 1] and the array is frozen after
    construction, so clips are safe to share across threads.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("AudioClip samples must be one-dimensional")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("AudioClip samples must be finite")
        if int(self.sample_rate_hz) <= 0:
            raise ValueError("sample_rate_hz must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class VadConfig:
    """Frame geometry and thresholds for the energy VAD."""

    frame_len_s: float = 0.025
    hop_s: float = 0.010
    energy_margin_db: float = 12.0
    abs_floor_db: float = -55.0
    hangover_frames: int = 5

    def __post_init__(self):
        if not (self.frame_len_s >= self.hop_s > 0):
            raise ValueError("require frame_len_s >= hop_s > 0")
        if self.hangover_frames < 0:
            raise ValueError("hangover_frames must be >= 0")


@dataclass(frozen=True)
class VadMask:
    """Per-frame speech flags at a fixed hop."""

    flags: np.ndarray
    hop_s: float

    def __post_init__(self):
        arr = np.ascontiguousarray(self.flags, dtype=bool)
        arr.setflags(write=False)
        object.__setattr__(self, "flags", arr)
        if self.hop_s <= 0:
            raise ValueError("hop_s must be positive")


def load_wav(path) -> AudioClip:
    """Read a mono RIFF/WAVE file (PCM16 or IEEE float32).

    PCM16 samples are scaled by 1/32768 so that -32768 maps exactly to -1.0.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:  # declared so, or cut short by the end of the file
                raise ValueError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            if len(body) < size:
                raise ValueError(f"{path}: data chunk declares {size} bytes, file has {len(body)}")
            payload = body
        pos += 8 + size + (size & 1)

    if fmt is None or payload is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels != 1:
        raise ValueError(f"{path}: multichannel unsupported ({channels} channels)")
    if rate == 0:
        raise ValueError(f"{path}: sample rate 0 Hz is not positive")
    if rate > MAX_SAMPLE_RATE_HZ:
        raise ValueError(f"{path}: sample rate {rate} Hz above {MAX_SAMPLE_RATE_HZ} Hz")
    if (audio_format, bits) == (1, 16):
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif (audio_format, bits) == (3, 32):
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 4], dtype="<f4")
        samples = raw.astype(np.float64)
    else:
        raise ValueError(f"{path}: unsupported encoding (format={audio_format}, bits={bits})")
    return AudioClip(samples, rate)


def save_wav(clip: AudioClip, path) -> None:
    """Write a mono PCM16 WAV. Inverse of load_wav for PCM16 content."""
    pcm = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767).astype(np.int16)  # wave writes native order as LE
    with open(path, "wb") as fh, wave.open(fh, "wb") as w:  # wave.open takes no Path before Python 3.12
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(clip.sample_rate_hz)
        w.writeframes(pcm.tobytes())


# Resampler: windowed-sinc polyphase with a Kaiser window, ~64 taps per
# phase.  Each polyphase branch is normalized to unit DC gain so constant
# signals survive any rational ratio.
_KAISER_BETA = 9.0
_ROLLOFF = 0.945
_TAPS_PER_PHASE = 64
# 16 MiB of float64: every rate up to MAX_SAMPLE_RATE_HZ resamples to 8 or 16 kHz
# under it, while a ratio such as 767,999 -> 768,000 Hz would take 50.7M taps
_MAX_FILTER_TAPS = 2**21


@lru_cache(maxsize=8)
def _design_polyphase(up: int, down: int) -> tuple[np.ndarray, int]:
    """(filter, half its length) for the ratio up/down, designed once per ratio; the filter is read-only.
    A filter longer than _MAX_FILTER_TAPS is refused before it is allocated."""
    half = int(math.ceil((_TAPS_PER_PHASE // 2) * up / down)) * down
    if 2 * half + 1 > _MAX_FILTER_TAPS:
        raise ValueError(f"a {2 * half + 1}-tap filter, above {_MAX_FILTER_TAPS} taps")
    n = np.arange(-half, half + 1, dtype=np.float64)
    fc = 0.5 * _ROLLOFF / max(up, down)
    h = 2.0 * fc * np.sinc(2.0 * fc * n) * np.kaiser(2 * half + 1, _KAISER_BETA)
    for p in range(up):
        branch = h[p::up]
        h[p::up] = branch / branch.sum()
    h.setflags(write=False)  # shared by every caller of this ratio
    return h, half


def _upfirdn(h: np.ndarray, x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Upsample x by up, filter with h, downsample by down: scipy.signal.upfirdn's output.

    Output m is one polyphase branch of h against the newest inputs, so the
    outputs m = r, r + up, ... are one product of that branch with every
    down-th window of the zero-padded input.  Each sum runs from the oldest
    input to the newest, in the order scipy's loop adds them, so the outputs
    are scipy's bit for bit: a branch is a reversed view, which numpy's matmul
    sums in order, where a contiguous copy would go to BLAS and round otherwise.
    """
    taps = -(-len(h) // up)  # per branch
    branches = np.zeros(taps * up)
    branches[: len(h)] = h
    branches = branches.reshape(taps, up).T[:, ::-1]  # branch p: h[p], h[p + up], ... newest input last
    y = np.empty(((len(x) - 1) * up + len(h) - 1) // down + 1)
    windows = sliding_window_view(np.pad(x, taps - 1), taps)  # window q ends at x[q]
    for r in range(min(up, len(y))):
        n, start = len(y[r::up]), r * down // up
        y[r::up] = windows[start : start + n * down : down] @ branches[r * down % up]
    return y


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Resample to target_hz; identical rates return a verbatim copy."""
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    src = clip.sample_rate_hz
    if target_hz == src:
        return AudioClip(clip.samples.copy(), target_hz)
    n_out = int(round(len(clip) * target_hz / src))
    if len(clip) == 0 or n_out == 0:
        return AudioClip(np.zeros(n_out), target_hz)
    g = math.gcd(src, target_hz)
    up, down = target_hz // g, src // g
    try:
        h, half = _design_polyphase(up, down)
    except ValueError as exc:
        raise ValueError(f"resampling {src} Hz to {target_hz} Hz needs {exc}") from None
    y = _upfirdn(h, clip.samples, up, down)
    delay = half // down  # half is a multiple of down, so y holds n_out samples past the filter's delay
    return AudioClip(y[delay : delay + n_out], target_hz)


def _frame_energies_db(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Mean-square energy in dB per frame.

    Frames start every `hop` samples; the trailing partial frames average
    over the samples they actually cover, so appending silence to a clip
    never changes the energy of existing frames.
    """
    n_frames = -(-x.size // hop)  # ceil
    csum = np.concatenate([[0.0], np.cumsum(x * x)])
    starts = np.arange(n_frames) * hop
    ends = np.minimum(starts + frame_len, x.size)
    e = (csum[ends] - csum[starts]) / (ends - starts)
    return 10.0 * np.log10(np.maximum(e, _POWER_FLOOR))


def detect_voice(clip: AudioClip, cfg: VadConfig = VadConfig()) -> VadMask:
    """Energy VAD with percentile noise floor and hangover.

    A frame is speech when its energy exceeds

        max(abs_floor_db,
            min(floor + margin, peak - margin),
            peak - margin / 2)

    where floor is the 10th percentile of frame energies and peak their
    maximum.  The min() cap keeps all-speech clips (floor == peak) fully
    flagged; the peak-relative term rejects low-coverage frames straddling
    speech boundaries.  Speech runs are then extended forward by
    hangover_frames.
    """
    sr = clip.sample_rate_hz
    frame_len = int(round(cfg.frame_len_s * sr))
    hop = int(round(cfg.hop_s * sr))
    if len(clip) < frame_len or frame_len == 0 or hop == 0:
        return VadMask(np.zeros(0, dtype=bool), cfg.hop_s)
    e = _frame_energies_db(clip.samples, frame_len, hop)
    floor = np.percentile(e, 10)
    peak = e.max()
    thr = max(
        cfg.abs_floor_db,
        min(floor + cfg.energy_margin_db, peak - cfg.energy_margin_db),
        peak - cfg.energy_margin_db / 2.0,
    )
    flags = e > thr
    out = flags.copy()
    for k in range(1, min(cfg.hangover_frames, flags.size) + 1):  # a longer shift flags nothing
        out[k:] |= flags[:-k]
    return VadMask(out, cfg.hop_s)


def net_speech_seconds(mask: VadMask) -> float:
    return float(mask.flags.sum()) * mask.hop_s


def trim_nonspeech(clip: AudioClip, mask: VadMask) -> AudioClip:
    """Concatenate the speech-flagged hops of the clip, in order."""
    keep = np.repeat(mask.flags, int(round(mask.hop_s * clip.sample_rate_hz)))[: len(clip)]
    return AudioClip(clip.samples[: keep.size][keep], clip.sample_rate_hz)


def prefix_samples(k_seconds: float, hop_s: float, sample_rate_hz: int) -> int:
    """Samples in the first ceil(k / hop_s) whole VAD hops, which hold >= k seconds."""
    if k_seconds <= 0:
        raise ValueError("k_seconds must be positive")
    hops = k_seconds / hop_s
    if not math.isfinite(hops):
        raise ValueError(f"{k_seconds:g} s is not a finite number of {hop_s:g} s hops")
    return int(math.ceil(hops - 1e-9)) * int(round(hop_s * sample_rate_hz))


def net_speech_prefix(clip: AudioClip, mask: VadMask, k_seconds: float) -> AudioClip:
    """The first prefix_samples(k) of the clip's trimmed speech, or all of it when the clip holds less."""
    n = prefix_samples(k_seconds, mask.hop_s, clip.sample_rate_hz)
    return AudioClip(trim_nonspeech(clip, mask).samples[:n], clip.sample_rate_hz)
