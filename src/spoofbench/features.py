"""64-band log-mel spectrogram frontend.

Hann window, magnitude-squared FFT, triangular mel filters (HTK mel scale),
natural log of power with a fixed floor.  An optional per-utterance
mean/variance normalization is off by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeatureConfig:
    n_mels: int = 64
    win_s: float = 0.025
    hop_s: float = 0.010
    n_fft: int = 256
    fmin_hz: float = 20.0
    fmax_hz: float = 3800.0
    log_floor: float = 1e-10
    mean_var_norm: bool = False

    def __post_init__(self):
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if not (0 <= self.fmin_hz < self.fmax_hz):
            raise ValueError("require 0 <= fmin_hz < fmax_hz")
        if self.win_s <= 0 or self.hop_s <= 0 or self.n_fft < 1:
            raise ValueError("window, hop and n_fft must be positive")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")


@dataclass(frozen=True)
class LogMelSpectrogram:
    """frames x n_mels matrix of natural-log mel power."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("values must be 2-D (frames x mels)")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_filterbank(cfg: FeatureConfig, sample_rate_hz: int) -> np.ndarray:
    """Triangular filters, shape (n_mels, n_fft // 2 + 1).

    Centers are spaced uniformly on the mel scale between fmin and fmax;
    triangles are unit peak (no area normalization).
    """
    if cfg.fmax_hz > sample_rate_hz / 2:
        raise ValueError("fmax_hz above Nyquist")
    n_bins = cfg.n_fft // 2 + 1
    bin_mels = hz_to_mel(np.arange(n_bins) * sample_rate_hz / cfg.n_fft)
    edges = np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(cfg.fmax_hz), cfg.n_mels + 2)
    lo, ctr, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_mels[None, :] - lo) / (ctr - lo)
    falling = (hi - bin_mels[None, :]) / (hi - ctr)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    empty = np.flatnonzero(fb.sum(axis=1) == 0.0)
    if empty.size:
        raise ValueError(f"mel filter {empty[0]} has no FFT bins: n_mels too large for FFT resolution")
    return fb


def _window_hop(cfg: FeatureConfig, sample_rate_hz: int) -> tuple[int, int]:
    win = int(round(cfg.win_s * sample_rate_hz))
    hop = int(round(cfg.hop_s * sample_rate_hz))
    if win < 1 or hop < 1:
        raise ValueError(f"window ({win} samples) and hop ({hop} samples) must each be at least one sample")
    if cfg.n_fft < win:
        raise ValueError(f"n_fft ({cfg.n_fft}) smaller than window ({win} samples)")
    return win, hop


def check_frontend(cfg: FeatureConfig, sample_rate_hz: int) -> None:
    """Raise ValueError unless log_mel can run cfg at sample_rate_hz: its window and hop, and its mel filters."""
    _window_hop(cfg, sample_rate_hz)
    mel_filterbank(cfg, sample_rate_hz)


def frame_count(n_samples: int, sample_rate_hz: int, cfg: FeatureConfig = FeatureConfig()) -> int:
    """Frames log_mel cuts from n_samples: one per hop while a whole window fits.

    Frame i reads only samples [i * hop, i * hop + win), so a clip's prefix of
    n_samples gives the first frame_count(n_samples) rows of the clip's log-mel
    (unless mean_var_norm is on).
    """
    win, hop = _window_hop(cfg, sample_rate_hz)
    if n_samples < win:
        raise ValueError("clip too short for features")
    return 1 + (n_samples - win) // hop


def log_mel(clip, cfg: FeatureConfig = FeatureConfig()) -> LogMelSpectrogram:
    """Extract the log-mel spectrogram of a clip at its native rate."""
    sr = clip.sample_rate_hz
    win, hop = _window_hop(cfg, sr)
    x = clip.samples
    n_frames = frame_count(x.size, sr, cfg)
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop][:n_frames]
    window = np.hanning(win)
    spec = np.fft.rfft(frames * window, n=cfg.n_fft, axis=1)
    power = spec.real**2 + spec.imag**2
    fb = mel_filterbank(cfg, sr)
    mel_power = power @ fb.T
    out = np.log(np.maximum(mel_power, cfg.log_floor))
    if cfg.mean_var_norm:
        mu = out.mean(axis=0, keepdims=True)
        sd = out.std(axis=0, keepdims=True)
        out = (out - mu) / np.maximum(sd, 1e-8)
    return LogMelSpectrogram(out)
