import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofbench import (
    AudioClip,
    EvalProtocol,
    FeatureConfig,
    LogMelSpectrogram,
    detect_voice,
    log_mel,
    mel_filterbank,
    net_speech_prefix,
    net_speech_seconds,
)
from spoofbench.features import frame_count, hz_to_mel

from conftest import SR, silence, tone
from oracles import log_mel_oracle

CFG = FeatureConfig()


class TestMelScale:
    def test_mel_of_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_mel_of_1khz(self):
        # 2595 * log10(1 + 1000/700)
        assert abs(hz_to_mel(1000.0) - 1000.0) <= 0.5


class TestFilterbank:
    def test_shape(self):
        fb = mel_filterbank(CFG, SR)
        assert fb.shape == (64, 129)

    def test_rows_strictly_positive(self):
        fb = mel_filterbank(CFG, SR)
        assert (fb.sum(axis=1) > 0).all()

    def test_weights_nonnegative(self):
        assert (mel_filterbank(CFG, SR) >= 0).all()

    def test_interior_bins_covered(self):
        fb = mel_filterbank(CFG, SR)
        freqs = np.arange(129) * SR / CFG.n_fft
        interior = (freqs > CFG.fmin_hz) & (freqs < CFG.fmax_hz)
        assert (fb.sum(axis=0)[interior] > 0).all()

    def test_too_many_mels_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            mel_filterbank(FeatureConfig(n_mels=200, n_fft=64, win_s=0.008), SR)

    def test_fmax_above_nyquist_rejected(self):
        with pytest.raises(ValueError, match="^fmax_hz above Nyquist$"):
            mel_filterbank(FeatureConfig(fmax_hz=5000.0), SR)


class TestFrameGeometry:
    @pytest.mark.parametrize("win_s, hop_s", [(0.025, 0.00001), (0.00001, 0.00001)])
    def test_window_or_hop_under_one_sample_rejected(self, win_s, hop_s):
        """A ValueError, not a division by zero by a hop of 0 samples."""
        with pytest.raises(ValueError, match="must each be at least one sample$"):
            frame_count(SR, SR, FeatureConfig(win_s=win_s, hop_s=hop_s))

    def test_values_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match=r"^values must be 2-D \(frames x mels\)$"):
            LogMelSpectrogram(np.zeros(64))


class TestLogMel:
    def test_all_zero_clip_hits_floor(self):
        feat = log_mel(AudioClip(np.zeros(SR), SR), CFG)
        assert np.allclose(feat.values, np.log(1e-10))

    def test_frame_count(self):
        # 1 s at 8 kHz, win 200, hop 80 -> 1 + (8000 - 200) // 80 = 98
        feat = log_mel(AudioClip(tone(1000.0, 1.0), SR), CFG)
        assert feat.values.shape == (98, 64)

    def test_gain_homogeneity(self):
        clip = AudioClip(tone(1000.0, 0.5, amplitude=0.5), SR)
        base = log_mel(clip, CFG).values
        scaled = log_mel(AudioClip(clip.samples * 2.0, SR), CFG).values
        floor_free = base > np.log(1e-10) + 1e-6
        delta = (scaled - base)[floor_free]
        assert np.abs(delta - 2.0 * np.log(2.0)).max() < 1e-6

    def test_time_shift_covariance(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.5, 0.5, SR)
        hop = int(CFG.hop_s * SR)
        a = log_mel(AudioClip(x, SR), CFG).values
        b = log_mel(AudioClip(x[hop:], SR), CFG).values
        n = min(a.shape[0] - 1, b.shape[0])
        assert np.abs(a[1 : n + 1] - b[:n]).max() < 1e-6

    def test_too_short_clip(self):
        with pytest.raises(ValueError, match="too short"):
            log_mel(AudioClip(np.zeros(100), SR), CFG)
        with pytest.raises(ValueError, match="too short"):
            frame_count(199, SR, CFG)

    def test_frame_count_matches_log_mel(self):
        rng = np.random.default_rng(4)
        for n in (200, 279, 280, 281, 8000, 12345):
            assert log_mel(AudioClip(rng.uniform(-0.5, 0.5, n), SR), CFG).n_frames == frame_count(n, SR, CFG)

    def test_net_speech_prefixes_are_leading_rows(self):
        # noise bursts between pauses, so most checkpoints cut inside a burst
        rng = np.random.default_rng(5)
        clip = AudioClip(np.concatenate([np.concatenate([rng.uniform(-0.5, 0.5, int(1.7 * SR)), silence(0.6)])
                                         for _ in range(10)]), SR)
        mask = detect_voice(clip)
        checkpoints = EvalProtocol().checkpoints_s
        assert net_speech_seconds(mask) > max(checkpoints)
        longest = log_mel(net_speech_prefix(clip, mask, max(checkpoints)), CFG).values
        for k in checkpoints:
            prefix = net_speech_prefix(clip, mask, k)
            values = log_mel(prefix, CFG).values
            assert values.shape[0] == frame_count(len(prefix), SR, CFG)
            assert np.array_equal(values, longest[: values.shape[0]]), k

    def test_mean_var_norm_flag(self):
        clip = AudioClip(tone(700.0, 1.0), SR)
        # near-constant bands are normalized with a 1e-8 std floor, which
        # leaves a small residual mean
        feat = log_mel(clip, FeatureConfig(mean_var_norm=True))
        assert np.abs(feat.values.mean(axis=0)).max() < 1e-5

    def test_values_frozen(self):
        feat = log_mel(AudioClip(tone(500.0, 0.5), SR), CFG)
        with pytest.raises(ValueError):
            feat.values[0, 0] = 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(250, 3000))
def test_no_nan_inf_for_finite_input(seed, n):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.standard_normal(n) * rng.uniform(0, 2), -1, 1)
    feat = log_mel(AudioClip(x, SR), CFG)
    assert np.all(np.isfinite(feat.values))
    assert (feat.values >= np.log(1e-10) - 1e-12).all()


@pytest.mark.parametrize("rate, n, cfg", [
    (SR, SR, CFG),
    (SR, SR + 37, FeatureConfig(mean_var_norm=True)),  # a tail shorter than a hop is dropped
    (16000, 16000, FeatureConfig(n_mels=40, n_fft=512, fmin_hz=100.0, fmax_hz=7000.0)),
])
def test_log_mel_equals_the_per_bin_oracle(rate, n, cfg):
    """An independent reference: a symmetric Hann window, direct DFT sums and HTK triangles
    evaluated bin by bin give the log-mel within 1e-10 (they agree near 1e-13)."""
    x = np.random.default_rng(n).standard_normal(n) * 0.1
    got = log_mel(AudioClip(x, rate), cfg).values
    want = log_mel_oracle(x, rate, cfg)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10
