"""Presentation-channel simulation and waveform augmentations.

Turns raw audio into "presented" audio the way it would reach a call:
direct digital injection, analog injection through a wired input, or
loudspeaker playback into a handset, each followed by narrowband telephony
processing.  Also provides seeded signal-level distortions (colored noise,
multi-notch filtering, impulsive noise).

Every stochastic operation is a pure function of (input, parameters, seed);
stage seeds inside `present` are derived per stage name, so composed
pipelines can be reproduced stage by stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import g711
from .audio import AudioClip
from .seeding import derive_seed

PATHS = ("injection_digital", "injection_analog", "playback")
CODECS = (*g711.LAWS, "none")

TELEPHONY_BAND_HZ = (300.0, 3400.0)

# Level at which the analog path's soft clip saturates.
CLIP_THRESHOLD = 0.95

# Largest |gain_db| or |SNR| a channel takes, a range's ends included.  Any
# bound under about 3,000 dB keeps the power ratio 10 ** (x / 10) finite and
# nonzero in float64; past it a gain or an SNR overflows mid-job.
MAX_LEVEL_DB = 1000.0


def _check_channel(path: str, codec: str, ir, gain_db, snr_db) -> None:
    """Every channel rule, for ChannelConfig and PresentationJob alike, in the order they are checked:
    path is one of PATHS, codec one of CODECS, a gain_db or snr_db lies within +-MAX_LEVEL_DB (a NaN
    does not), each end of a (lo, hi) one too, with lo <= hi, an ir is given (not None) exactly when
    path is playback, and an snr_db only off injection_digital, whose stages add no noise."""
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r} (expected one of {PATHS})")
    if codec not in CODECS:
        raise ValueError(f"unknown codec {codec!r}")
    for key, value in (("gain_db", gain_db), ("snr_db", snr_db)):
        pair = isinstance(value, (tuple, list))
        ends = value if pair else () if value is None else (value,)
        if not all(-MAX_LEVEL_DB <= end <= MAX_LEVEL_DB for end in ends):
            named = f"{key} range {list(value)}" if pair else f"{key} {value}"
            raise ValueError(f"{named} is outside [-{MAX_LEVEL_DB:g}, {MAX_LEVEL_DB:g}] dB")
        if pair and not value[0] <= value[1]:
            raise ValueError(f"{key} range {list(value)} is reversed: lo must be <= hi")
    if (ir is not None) != (path == "playback"):
        raise ValueError("playback path requires an impulse response" if ir is None
                         else f"{path} path takes no impulse response")
    if snr_db is not None and path == "injection_digital":
        raise ValueError(f"{path} path takes no snr_db")


@dataclass(frozen=True)
class ChannelConfig:
    """One presentation path and its processing parameters, checked by _check_channel as it is built.

    gain_db and snr_db may be (lo, hi) ranges sampled per seed.
    """

    path: str
    ir: AudioClip | None = None
    codec: str = "mulaw"
    gain_db: float | tuple = 0.0
    snr_db: float | tuple | None = None

    def __post_init__(self):
        _check_channel(self.path, self.codec, self.ir, self.gain_db, self.snr_db)


@dataclass(frozen=True)
class PresentationJob:
    """One line of a presentation jobs file: where the audio comes from and goes, and its channel,
    checked by _check_channel as it is built, before any file is read.

    A missing seed is derived from the global seed and the job's name (utt_id,
    else the input file's stem).
    """

    input: str
    output: str
    path: str
    codec: str = "none"
    gain_db: float | tuple[float, float] = 0.0
    snr_db: float | tuple[float, float] | None = None
    ir: str | None = None
    seed: int | None = None
    utt_id: str | None = None

    def __post_init__(self):
        _check_channel(self.path, self.codec, self.ir, self.gain_db, self.snr_db)

    @property
    def name(self) -> str:
        return self.utt_id or Path(self.input).stem


def convolve_ir(clip: AudioClip, ir: AudioClip) -> AudioClip:
    """Full linear convolution truncated to the input length.

    If the result peaks above 1.0 it is scaled back to the input peak.
    """
    if len(ir) == 0:
        raise ValueError("impulse response is empty")
    if ir.sample_rate_hz != clip.sample_rate_hz:
        raise ValueError("impulse response sample rate does not match clip")
    from scipy.signal import fftconvolve  # imported where used: scipy.signal takes 0.5 s to load on a 2-vCPU Xeon

    y = fftconvolve(clip.samples, ir.samples)[: len(clip)]
    peak = np.max(np.abs(y)) if y.size else 0.0
    if peak > 1.0:
        in_peak = np.max(np.abs(clip.samples))
        y = y * (in_peak / peak)
    return AudioClip(y, clip.sample_rate_hz)


def codec_roundtrip(clip: AudioClip, codec: str) -> AudioClip:
    """G.711 companding round trip at the telephony rate."""
    if clip.sample_rate_hz != 8000:
        raise ValueError("G.711 expects 8 kHz input")
    if codec not in g711.LAWS:
        raise ValueError(f"unknown codec {codec!r}")
    return AudioClip(g711.decode(g711.encode(clip.samples, codec), codec), clip.sample_rate_hz)


@lru_cache(maxsize=8)
def _telephony_sos(sample_rate_hz: int):
    lo, hi = TELEPHONY_BAND_HZ
    if hi >= sample_rate_hz / 2:
        raise ValueError("sample rate too low for the telephony band")
    from scipy.signal import butter

    return butter(4, [lo, hi], btype="bandpass", fs=sample_rate_hz, output="sos")


def bandpass_telephony(clip: AudioClip) -> AudioClip:
    """300-3400 Hz Butterworth bandpass, cascaded biquads, zero state; an empty clip stays empty."""
    sos = _telephony_sos(clip.sample_rate_hz)
    from scipy.signal import sosfilt

    # sosfilt cannot filter an empty signal
    return AudioClip(sosfilt(sos, clip.samples) if len(clip) else clip.samples, clip.sample_rate_hz)


def apply_gain(clip: AudioClip, gain_db: float) -> AudioClip:
    return AudioClip(clip.samples * 10.0 ** (gain_db / 20.0), clip.sample_rate_hz)


def soft_clip(clip: AudioClip, threshold: float) -> AudioClip:
    """tanh limiter; output magnitude stays below threshold."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must be in (0, 1]")
    return AudioClip(threshold * np.tanh(clip.samples / threshold), clip.sample_rate_hz)


_NOISE_FIR_TAPS = 31


def add_colored_noise(clip: AudioClip, snr_db: float, seed: int) -> AudioClip:
    """Add FIR-colored Gaussian noise at an exact signal-to-noise ratio."""
    x = clip.samples
    p_signal = float(np.mean(x * x)) if x.size else 0.0
    if p_signal == 0.0:
        raise ValueError("cannot set an SNR against a silent clip")
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(x.size)
    taps = rng.uniform(-1.0, 1.0, _NOISE_FIR_TAPS)
    from scipy.signal import fftconvolve

    noise = fftconvolve(white, taps, mode="same")
    p_noise = float(np.mean(noise * noise))
    noise *= np.sqrt(p_signal / (10.0 ** (snr_db / 10.0) * p_noise))
    return AudioClip(x + noise, clip.sample_rate_hz)


def convolutive_distortion(clip: AudioClip, n_filters: int, seed: int, depth: float = 1.0) -> AudioClip:
    """Zero-phase filtering by a seeded product of random spectral notches.

    depth in [0, 1] scales the notch depths; 0 is the identity.  The gain
    curve is normalized to unit mean, so overall level is preserved.
    """
    if n_filters < 1:
        raise ValueError("n_filters must be >= 1")
    if not (0.0 <= depth <= 1.0):
        raise ValueError("depth must be in [0, 1]")
    if depth == 0.0 or len(clip) == 0:
        return AudioClip(clip.samples.copy(), clip.sample_rate_hz)
    rng = np.random.default_rng(seed)
    nyq = clip.sample_rate_hz / 2.0
    n_fft = int(2 ** np.ceil(np.log2(len(clip) + 256)))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / clip.sample_rate_hz)
    gain = np.ones_like(freqs)
    for _ in range(n_filters):
        center = rng.uniform(0.05, 0.9) * nyq
        width = rng.uniform(0.01, 0.06) * nyq
        notch_depth = rng.uniform(0.2, 1.0) * depth
        gain *= 1.0 - notch_depth * np.exp(-0.5 * ((freqs - center) / width) ** 2)
    gain /= gain.mean()
    y = np.fft.irfft(np.fft.rfft(clip.samples, n_fft) * gain, n_fft)[: len(clip)]
    return AudioClip(y, clip.sample_rate_hz)


_IMPULSE_RMS_WIN_S = 0.025


def impulsive_noise(clip: AudioClip, rate_per_s: float, amplitude_rel: float, seed: int) -> AudioClip:
    """Sprinkle impulses whose height follows the local signal RMS.

    Each sample hosts an impulse with probability rate/sr, so the expected
    count is rate x duration.
    """
    if rate_per_s < 0:
        raise ValueError("rate_per_s must be >= 0")
    x = clip.samples
    if rate_per_s == 0.0 or x.size == 0:
        return AudioClip(x.copy(), clip.sample_rate_hz)
    rng = np.random.default_rng(seed)
    hits = rng.random(x.size) < rate_per_s / clip.sample_rate_hz
    signs = np.where(rng.random(x.size) < 0.5, -1.0, 1.0)
    win = max(int(_IMPULSE_RMS_WIN_S * clip.sample_rate_hz), 1)
    from scipy.signal import fftconvolve

    local_power = fftconvolve(x * x, np.ones(win) / win, mode="same")
    local_rms = np.sqrt(np.maximum(local_power, 0.0))
    return AudioClip(x + hits * signs * amplitude_rel * local_rms, clip.sample_rate_hz)


def _draw(value, seed: int, stage: str) -> float:
    """value, or a uniform draw from a (lo, hi) range seeded by the stage's name."""
    if isinstance(value, (tuple, list)):
        return float(np.random.default_rng(derive_seed(seed, stage)).uniform(*value))
    return float(value)


def _noise(clip: AudioClip, cfg: ChannelConfig, seed: int) -> AudioClip:
    """clip with the channel's colored noise added, or clip when it adds none."""
    if cfg.snr_db is None:
        return clip
    return add_colored_noise(clip, _draw(cfg.snr_db, seed, "snr"), derive_seed(seed, "noise"))


def present(clip: AudioClip, cfg: ChannelConfig, seed: int) -> AudioClip:
    """Run one presentation path end to end.

    playback:          gain -> IR convolution -> bandpass -> codec -> noise
    injection_analog:  gain -> soft clip -> noise -> bandpass -> codec
    injection_digital: gain -> codec
    """
    # each stage is a module global looked up here, so a wrapper put in its place sees every call
    out = apply_gain(clip, _draw(cfg.gain_db, seed, "gain"))
    if cfg.path == "playback":
        out = bandpass_telephony(convolve_ir(out, cfg.ir))
    elif cfg.path == "injection_analog":
        out = bandpass_telephony(_noise(soft_clip(out, CLIP_THRESHOLD), cfg, seed))
    if cfg.codec != "none":
        out = codec_roundtrip(out, cfg.codec)
    if cfg.path == "playback":
        out = _noise(out, cfg, seed)
    return out
