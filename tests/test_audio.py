import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spoofbench import AudioClip, VadConfig, VadMask
from spoofbench.audio import (
    _MAX_FILTER_TAPS,
    _design_polyphase,
    _upfirdn,
    detect_voice,
    load_wav,
    net_speech_prefix,
    net_speech_seconds,
    resample,
    save_wav,
    trim_nonspeech,
)

from conftest import SR, silence, tone
from oracles import net_speech_prefix_oracle, trim_nonspeech_oracle

HOP = 0.010
FRAME = 0.025


def make_wav(path, payload: bytes, *, fmt=1, channels=1, rate=8000, bits=16, data_size=None):
    if data_size is None:
        data_size = len(payload)
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + data_size, b"WAVE",
        b"fmt ", 16, fmt, channels, rate, rate * channels * bits // 8,
        channels * bits // 8, bits,
        b"data", data_size,
    )
    path.write_bytes(hdr + payload)
    return path


class TestLoadWav:
    def test_pcm16_normalization(self, tmp_path):
        payload = struct.pack("<3h", 0, 16384, -32768)
        clip = load_wav(make_wav(tmp_path / "a.wav", payload))
        assert np.array_equal(clip.samples, [0.0, 0.5, -1.0])

    def test_length_and_rate_preserved(self, tmp_path):
        n = 1234
        payload = struct.pack(f"<{n}h", *([100] * n))
        clip = load_wav(make_wav(tmp_path / "a.wav", payload, rate=8000))
        assert len(clip) == n
        assert clip.sample_rate_hz == 8000

    def test_float32(self, tmp_path):
        payload = struct.pack("<3f", 0.25, -0.5, 1.0)
        clip = load_wav(make_wav(tmp_path / "a.wav", payload, fmt=3, bits=32))
        assert np.allclose(clip.samples, [0.25, -0.5, 1.0])

    def test_stereo_rejected(self, tmp_path):
        payload = struct.pack("<4h", 0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"multichannel unsupported \(2 channels\)"):
            load_wav(make_wav(tmp_path / "a.wav", payload, channels=2))

    def test_unsupported_encoding(self, tmp_path):
        payload = struct.pack("<4h", 0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"unsupported encoding \(format=6, bits=16\)"):
            load_wav(make_wav(tmp_path / "a.wav", payload, fmt=6))  # A-law WAV

    def test_truncated_data(self, tmp_path):
        payload = struct.pack("<2h", 1, 2)
        with pytest.raises(ValueError, match="data chunk declares 1000 bytes, file has 4"):
            load_wav(make_wav(tmp_path / "a.wav", payload, data_size=1000))

    def test_fmt_chunk_cut_short(self, tmp_path):
        p = tmp_path / "a.wav"  # the fmt chunk declares 16 bytes, the file ends after 6
        p.write_bytes(struct.pack("<4sI4s4sI", b"RIFF", 18, b"WAVE", b"fmt ", 16) + bytes(6))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: fmt chunk too short$"):
            load_wav(p)

    def test_not_riff(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(b"not a wav at all")
        with pytest.raises(ValueError, match="not a RIFF/WAVE file"):
            load_wav(p)

    def test_sample_rate_above_the_bound_rejected(self, tmp_path):
        payload = struct.pack("<2h", 1, 2)
        assert load_wav(make_wav(tmp_path / "a.wav", payload, rate=768_000)).sample_rate_hz == 768_000
        p = make_wav(tmp_path / "b.wav", payload, rate=2**31 - 1)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: sample rate 2147483647 Hz above 768000 Hz$"):
            load_wav(p)

    def test_sample_rate_of_zero_rejected(self, tmp_path):
        p = make_wav(tmp_path / "a.wav", struct.pack("<2h", 1, 2), rate=0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: sample rate 0 Hz is not positive$"):
            load_wav(p)

    def test_save_load_roundtrip(self, tmp_path):
        clip = AudioClip(tone(440.0, 0.1), SR)
        save_wav(clip, tmp_path / "a.wav")
        back = load_wav(tmp_path / "a.wav")
        assert back.sample_rate_hz == SR
        assert np.abs(back.samples - clip.samples).max() <= 1.0 / 32768


class TestAudioClip:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), SR)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(4), 0)

    def test_rejects_more_than_one_dimension(self):
        with pytest.raises(ValueError, match="^AudioClip samples must be one-dimensional$"):
            AudioClip(np.zeros((2, 4)), SR)

    def test_samples_frozen(self, tone_clip):
        with pytest.raises(ValueError):
            tone_clip.samples[0] = 1.0


class TestResample:
    def test_identity_same_rate(self, tone_clip):
        out = resample(tone_clip, SR)
        assert out.sample_rate_hz == SR
        assert np.array_equal(out.samples, tone_clip.samples)

    def test_dc_preserved_downsampling(self):
        clip = AudioClip(np.full(16000, 0.5), 16000)
        out = resample(clip, 8000)
        assert len(out) == 8000
        steady = out.samples[100:-100]
        assert np.abs(steady - 0.5).max() < 1e-3

    def test_sine_downsampling_matches_analytic(self):
        t16 = np.arange(16000) / 16000.0
        out = resample(AudioClip(np.sin(2 * np.pi * 1000 * t16), 16000), 8000)
        t8 = np.arange(len(out)) / 8000.0
        ref = np.sin(2 * np.pi * 1000 * t8)
        assert np.abs(out.samples[50:-50] - ref[50:-50]).max() < 1e-2

    def test_sine_upsampling(self):
        t8 = np.arange(8000) / 8000.0
        out = resample(AudioClip(np.sin(2 * np.pi * 440 * t8), 8000), 16000)
        t16 = np.arange(len(out)) / 16000.0
        ref = np.sin(2 * np.pi * 440 * t16)
        assert np.abs(out.samples[100:-100] - ref[100:-100]).max() < 1e-2

    def test_output_length_rule(self):
        clip = AudioClip(np.zeros(44100), 44100)
        assert len(resample(clip, 8000)) == round(44100 * 8000 / 44100)

    def test_zero_signal_stays_zero(self):
        out = resample(AudioClip(np.zeros(1600), 16000), 8000)
        assert np.allclose(out.samples, 0.0)

    def test_empty(self):
        assert len(resample(AudioClip(np.zeros(0), 16000), 8000)) == 0

    def test_bad_target(self, tone_clip):
        with pytest.raises(ValueError):
            resample(tone_clip, 0)


class TestDetectVoice:
    def test_all_zero_clip(self):
        mask = detect_voice(AudioClip(np.zeros(3 * SR), SR))
        assert mask.flags.size > 0
        assert not mask.flags.any()
        assert net_speech_seconds(mask) == 0.0

    def test_full_scale_tone(self):
        clip = AudioClip(np.sin(2 * np.pi * 1000 * np.arange(2 * SR) / SR), SR)
        net = net_speech_seconds(detect_voice(clip))
        assert 1.9 <= net <= 2.1

    def test_burst_localization(self, burst_clip):
        cfg = VadConfig()
        net = net_speech_seconds(detect_voice(burst_clip, cfg))
        assert abs(net - 1.0) <= (cfg.hangover_frames + 1) * cfg.hop_s + 1e-9

    def test_too_short_clip(self):
        mask = detect_voice(AudioClip(np.zeros(10), SR))
        assert mask.flags.size == 0

    def test_deterministic(self, burst_clip):
        a = detect_voice(burst_clip)
        b = detect_voice(burst_clip)
        assert np.array_equal(a.flags, b.flags)

    def test_appended_silence_invariant(self, tone_clip):
        cfg = VadConfig()
        before = net_speech_seconds(detect_voice(tone_clip, cfg))
        for extra_s in (0.1, 0.35, 1.0):
            longer = AudioClip(
                np.concatenate([tone_clip.samples, silence(extra_s)]), SR
            )
            after = net_speech_seconds(detect_voice(longer, cfg))
            assert abs(after - before) <= (cfg.hangover_frames + 1) * cfg.hop_s + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VadConfig(frame_len_s=0.005, hop_s=0.010)
        with pytest.raises(ValueError):
            VadConfig(hangover_frames=-1)


class TestNetSpeechSeconds:
    def test_empty_mask(self):
        assert net_speech_seconds(VadMask(np.zeros(0, dtype=bool), HOP)) == 0.0

    def test_definition(self):
        flags = np.zeros(250, dtype=bool)
        flags[:100] = True
        assert net_speech_seconds(VadMask(flags, HOP)) == pytest.approx(1.0)

    def test_matches_detector_output(self, tone_clip):
        mask = detect_voice(tone_clip)
        assert net_speech_seconds(mask) == pytest.approx(mask.flags.sum() * HOP)

    def test_mask_hop_must_be_positive(self):
        with pytest.raises(ValueError, match="^hop_s must be positive$"):
            VadMask(np.zeros(3, dtype=bool), 0.0)


class TestTrimNonspeech:
    def test_all_true_is_identity(self, tone_clip):
        n = int(np.ceil(len(tone_clip) / (HOP * SR)))
        mask = VadMask(np.ones(n, dtype=bool), HOP)
        out = trim_nonspeech(tone_clip, mask)
        assert np.array_equal(out.samples, tone_clip.samples)

    def test_all_false_is_empty(self, tone_clip):
        mask = VadMask(np.zeros(200, dtype=bool), HOP)
        assert len(trim_nonspeech(tone_clip, mask)) == 0

    def test_durations_add(self):
        # hangover off so segment durations compose without trailing pads
        cfg = VadConfig(hangover_frames=0)
        seg1, seg2 = tone(800.0, 1.0), tone(1200.0, 0.6)
        clip = AudioClip(np.concatenate([seg1, silence(1.0), seg2]), SR)
        out = trim_nonspeech(clip, detect_voice(clip, cfg))
        expected = (len(seg1) + len(seg2)) / SR
        assert abs(out.duration_s - expected) <= 2 * HOP

    def test_durations_add_with_hangover(self):
        cfg = VadConfig()
        seg1, seg2 = tone(800.0, 1.0), tone(1200.0, 0.6)
        clip = AudioClip(np.concatenate([seg1, silence(1.0), seg2]), SR)
        out = trim_nonspeech(clip, detect_voice(clip, cfg))
        expected = (len(seg1) + len(seg2)) / SR
        # each burst can gain boundary partials plus one hangover tail
        assert abs(out.duration_s - expected) <= 2 * (cfg.hangover_frames + 1) * HOP

    def test_idempotent_within_two_hops(self, burst_clip):
        mask = detect_voice(burst_clip)
        once = trim_nonspeech(burst_clip, mask)
        twice = trim_nonspeech(once, detect_voice(once))
        assert abs(twice.duration_s - once.duration_s) < 2 * HOP


class TestNetSpeechPrefix:
    @pytest.fixture
    def long_clip(self):
        # ~20 s net speech: alternating 2 s tone / 1 s silence, 10 cycles
        parts = []
        for _ in range(10):
            parts.append(tone(1000.0, 2.0))
            parts.append(silence(1.0))
        return AudioClip(np.concatenate(parts), SR)

    def test_checkpoint_prefix(self, long_clip):
        mask = detect_voice(long_clip)
        assert net_speech_seconds(mask) >= 15.0
        for k in (2.0, 3.0, 6.0, 9.0, 12.0, 15.0):
            out = net_speech_prefix(long_clip, mask, k)
            net = net_speech_seconds(detect_voice(out))
            # the prefix holds k..k+hop of flagged speech; re-running VAD on
            # the trimmed audio may shift the measurement by edge effects
            assert k - 3 * HOP <= net <= k + 4 * HOP

    def test_prefix_exact_on_mask_arithmetic(self, long_clip):
        mask = detect_voice(long_clip)
        for k in (2.0, 6.0, 15.0):
            out = net_speech_prefix(long_clip, mask, k)
            assert k <= out.duration_s + 1e-9 <= k + HOP + 1e-9

    def test_saturates_at_total(self, burst_clip):
        mask = detect_voice(burst_clip)
        full = trim_nonspeech(burst_clip, mask)
        out = net_speech_prefix(burst_clip, mask, 100.0)
        assert np.array_equal(out.samples, full.samples)

    def test_k_equal_to_total(self, burst_clip):
        mask = detect_voice(burst_clip)
        total = net_speech_seconds(mask)
        out = net_speech_prefix(burst_clip, mask, total)
        assert abs(out.duration_s - total) <= HOP + 1e-9

    def test_k_must_be_positive(self, burst_clip):
        with pytest.raises(ValueError):
            net_speech_prefix(burst_clip, detect_voice(burst_clip), 0.0)


@settings(max_examples=300, deadline=None)
@given(
    rate=st.sampled_from([8000, 11025, 16000]),
    # hops that round to whole samples, ones that do not, and ones that round to 0 samples
    hop_s=st.sampled_from([0.01, 0.0125, 0.007, 1.3e-3, 1e-4, 2e-5]),
    n=st.integers(0, 4000),
    flags=st.lists(st.booleans(), max_size=400),  # shorter or longer than the clip in hops
    hops=st.one_of(st.integers(1, 500).map(float), st.floats(1e-3, 500.0)),  # k in hops, up to beyond the speech
)
def test_speech_cut_equals_the_per_hop_oracle(rate, hop_s, n, flags, hops):
    """Exact, not within a bound: the cut samples are the oracle's, value for value."""
    k = hops * hop_s
    samples = np.random.default_rng(n).uniform(-1, 1, n)
    clip, mask = AudioClip(samples, rate), VadMask(np.array(flags, dtype=bool), hop_s)
    hop = int(round(hop_s * rate))
    trimmed, prefix = trim_nonspeech(clip, mask), net_speech_prefix(clip, mask, k)
    assert np.array_equal(trimmed.samples, trim_nonspeech_oracle(samples, mask.flags, hop))
    assert np.array_equal(prefix.samples, net_speech_prefix_oracle(samples, mask.flags, hop, hop_s, k))
    assert trimmed.sample_rate_hz == prefix.sample_rate_hz == rate


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 4000))
def test_resample_identity_property(seed, n):
    x = np.random.default_rng(seed).uniform(-1, 1, n)
    clip = AudioClip(x, SR)
    assert np.array_equal(resample(clip, SR).samples, clip.samples)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(44101, 8000), (8000, 44100), (44100, 8000), (8000, 11025), (16000, 8000), (8000, 16000),
                        (48000, 8000), (7, 3), (3, 7)]), st.integers(1, 3000))
@example((44101, 8000), 1)
@example((8000, 44100), 1)
def test_resample_gives_the_rounded_length(rates, n):
    """round(n * dst / src) samples, every one of them filtered: the filter's delay, half // down,
    leaves floor((n - 1) * up / down) + half // down + 1 >= that many outputs past it."""
    src, dst = rates
    assert len(resample(AudioClip(np.zeros(n), src), dst)) == round(n * dst / src)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 40), st.integers(1, 60), st.integers(0, 2**32 - 1))
@example(1, 2, 65, 1, 0)  # 16 kHz -> 8 kHz: one input, a filter longer than it
@example(1, 2, 65, 2, 0)
@example(80, 441, 200, 30, 0)  # the ratio of 44.1 kHz -> 8 kHz
@example(441, 80, 200, 3, 0)
def test_upfirdn_equals_scipy_exactly(up, down, taps, n, seed):
    """Exact equality, not a bound: each output sums the same products as scipy's loop, in its order."""
    from scipy.signal import upfirdn

    rng = np.random.default_rng(seed)
    h, x = rng.standard_normal(taps), rng.standard_normal(n)
    want = upfirdn(h, x, up=up, down=down)
    got = _upfirdn(h, x, up, down)
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("src, dst", [(16000, 8000), (44100, 8000), (8000, 16000), (22050, 8000), (48000, 8000),
                                      (11025, 8000), (8000, 11025), (7, 3)])
def test_upfirdn_equals_scipy_exactly_on_the_resampler_filters(src, dst):
    from scipy.signal import upfirdn

    up, down = dst // math.gcd(src, dst), src // math.gcd(src, dst)
    h, _ = _design_polyphase(up, down)
    for n in (1, 2, len(h) // up - 1, 3 * src):
        x = np.random.default_rng(n).uniform(-1, 1, n)
        assert np.array_equal(_upfirdn(h, x, up, down), upfirdn(h, x, up=up, down=down))


@pytest.mark.parametrize("src, dst, taps", [(767_999, 8000, 1_535_999), (511_999, 16000, 2_047_997)])
def test_longest_filters_under_the_bound_still_resample(src, dst, taps):
    """The longest filters that any rate up to 768 kHz needs at 8 and at 16 kHz."""
    g = math.gcd(src, dst)
    assert len(_design_polyphase(dst // g, src // g)[0]) == taps <= _MAX_FILTER_TAPS
    out = resample(AudioClip(np.ones(src // 25), src), dst)  # 40 ms of DC
    assert len(out) == dst // 25 and np.allclose(out.samples[len(out) // 4 : -len(out) // 4], 1.0)


def test_polyphase_filter_is_designed_once_per_ratio_and_read_only():
    h, _ = _design_polyphase(1, 2)
    assert _design_polyphase(1, 2)[0] is h and not h.flags.writeable


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_vad_deterministic_property(seed):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.standard_normal(SR) * 0.3, -1, 1)
    clip = AudioClip(x, SR)
    assert np.array_equal(detect_voice(clip).flags, detect_voice(clip).flags)
