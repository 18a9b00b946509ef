import re

import numpy as np
import pytest

from spoofbench import (
    AudioClip,
    ChannelConfig,
    add_colored_noise,
    apply_gain,
    bandpass_telephony,
    codec_roundtrip,
    convolutive_distortion,
    convolve_ir,
    impulsive_noise,
    present,
    soft_clip,
)
from spoofbench.corpus import from_doc
from spoofbench.presentation import CLIP_THRESHOLD, CODECS, PATHS, PresentationJob
from spoofbench.seeding import derive_seed
from spoofbench import g711

from conftest import SR, tone


def refused_alike(message, ir=None, **fields):
    """ChannelConfig(**fields) and a jobs line of the same fields both raise exactly message; ir is the
    job's path, and the channel gets a unit impulse in its place."""
    channel = {**fields, "ir": None if ir is None else AudioClip(np.array([1.0]), SR)}
    job = {"input": "in.wav", "output": "out.wav", **fields, "ir": ir}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ChannelConfig(**channel)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_doc(PresentationJob, job)


def rms(x):
    return np.sqrt(np.mean(np.asarray(x) ** 2))


@pytest.fixture
def sine():
    return AudioClip(tone(1000.0, 1.0, amplitude=0.5), SR)


class TestConvolveIr:
    def test_unit_impulse_identity(self, sine):
        out = convolve_ir(sine, AudioClip(np.array([1.0]), SR))
        assert np.abs(out.samples - sine.samples).max() < 1e-12
        assert len(out) == len(sine)

    def test_pure_delay(self, sine):
        d = 5
        ir = AudioClip(np.concatenate([np.zeros(d), [1.0]]), SR)
        out = convolve_ir(sine, ir)
        assert np.abs(out.samples[d:] - sine.samples[:-d]).max() < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(500) * 0.01, rng.standard_normal(500) * 0.01
        ir = AudioClip(rng.standard_normal(32) * 0.05, SR)
        a, b = 0.7, -1.3
        lhs = convolve_ir(AudioClip(a * x + b * y, SR), ir).samples
        rhs = a * convolve_ir(AudioClip(x, SR), ir).samples + b * convolve_ir(AudioClip(y, SR), ir).samples
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_peak_normalization_on_overflow(self):
        x = AudioClip(np.full(100, 0.9), SR)
        ir = AudioClip(np.ones(10), SR)  # gain 10 at DC
        out = convolve_ir(x, ir)
        assert np.max(np.abs(out.samples)) <= 0.9 + 1e-12

    def test_empty_ir_rejected(self, sine):
        with pytest.raises(ValueError):
            convolve_ir(sine, AudioClip(np.zeros(0), SR))

    def test_rate_mismatch_rejected(self, sine):
        with pytest.raises(ValueError):
            convolve_ir(sine, AudioClip(np.array([1.0]), 16000))


class TestCodecRoundtrip:
    def test_zero_maps_to_zero(self):
        out = codec_roundtrip(AudioClip(np.zeros(100), SR), "mulaw")
        assert not out.samples.any()

    @pytest.mark.parametrize("law", ["mulaw", "alaw"])
    def test_sqnr_full_scale_sine(self, law):
        x = np.sin(2 * np.pi * 1000 * np.arange(SR) / SR)
        out = codec_roundtrip(AudioClip(x, SR), law)
        sqnr = 20 * np.log10(rms(x) / rms(out.samples - x))
        assert sqnr >= 30.0

    @pytest.mark.parametrize("law", ["mulaw", "alaw"])
    def test_second_roundtrip_idempotent(self, law):
        x = np.sin(2 * np.pi * 700 * np.arange(SR) / SR) * 0.8
        once = codec_roundtrip(AudioClip(x, SR), law)
        twice = codec_roundtrip(once, law)
        assert np.abs(twice.samples - once.samples).max() < 1e-9

    def test_codes_are_8bit(self):
        x = np.linspace(-1.2, 1.2, 1001)
        for law in ("mulaw", "alaw"):
            codes = g711.encode(x, law)
            assert codes.dtype == np.int8

    def test_non_8khz_rejected(self):
        with pytest.raises(ValueError):
            codec_roundtrip(AudioClip(np.zeros(100), 16000), "mulaw")

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="^unknown codec 'opus'$"):
            codec_roundtrip(AudioClip(np.zeros(100), SR), "opus")


class TestBandpass:
    def test_1khz_passes_within_1db(self, sine):
        out = bandpass_telephony(sine)
        gain_db = 20 * np.log10(rms(out.samples[2000:]) / rms(sine.samples[2000:]))
        assert abs(gain_db) < 1.0

    def test_60hz_attenuated(self):
        x = tone(60.0, 4.0, amplitude=0.9)
        out = bandpass_telephony(AudioClip(x, SR))
        att_db = 20 * np.log10(rms(out.samples[2 * SR :]) / rms(x[2 * SR :]))
        assert att_db <= -20.0

    def test_empty_clip_stays_empty(self):
        out = bandpass_telephony(AudioClip(np.zeros(0), SR))
        assert len(out) == 0 and out.sample_rate_hz == SR

    def test_rate_below_twice_the_band_edge_rejected(self):
        with pytest.raises(ValueError, match="^sample rate too low for the telephony band$"):
            bandpass_telephony(AudioClip(np.zeros(100), 6000))  # Nyquist 3 kHz, under the 3.4 kHz edge

    def test_dc_blocked(self):
        x = np.full(4 * SR, 0.5)
        out = bandpass_telephony(AudioClip(x, SR))
        assert np.abs(out.samples[2 * SR :]).max() < 0.01


class TestGainAndClip:
    def test_zero_db_identity(self, sine):
        assert np.array_equal(apply_gain(sine, 0.0).samples, sine.samples)

    def test_minus_6db_halves(self, sine):
        out = apply_gain(sine, -6.020599913279624)
        assert np.abs(out.samples - sine.samples / 2).max() < 1e-9

    def test_no_clipping_applied(self):
        out = apply_gain(AudioClip(np.array([0.9]), SR), 6.0)
        assert out.samples[0] == pytest.approx(0.9 * 10 ** (6 / 20))
        assert out.samples[0] > 1.0

    def test_soft_clip_zero(self):
        assert soft_clip(AudioClip(np.zeros(10), SR), 0.95).samples.max() == 0.0

    def test_soft_clip_bounded(self):
        x = AudioClip(np.linspace(-0.999, 0.999, 101) * 1.0, SR)
        out = soft_clip(x, 0.5)
        assert np.abs(out.samples).max() < 0.5

    def test_soft_clip_linear_region(self):
        thr = 0.8
        x = np.linspace(-0.1 * thr, 0.1 * thr, 51)
        out = soft_clip(AudioClip(x, SR), thr)
        nonzero = x != 0
        rel = np.abs(out.samples[nonzero] - x[nonzero]) / np.abs(x[nonzero])
        assert rel.max() < 0.01

    def test_soft_clip_threshold_validated(self, sine):
        with pytest.raises(ValueError):
            soft_clip(sine, 1.5)


class TestColoredNoise:
    def test_target_snr_met(self, sine):
        for snr in (0.0, 10.0, 35.0):
            out = add_colored_noise(sine, snr, seed=42)
            noise = out.samples - sine.samples
            measured = 10 * np.log10(np.mean(sine.samples**2) / np.mean(noise**2))
            assert abs(measured - snr) <= 0.1

    def test_very_high_snr_near_identity(self, sine):
        out = add_colored_noise(sine, 100.0, seed=1)
        assert rms(out.samples - sine.samples) < 1e-4

    def test_seed_determinism(self, sine):
        a = add_colored_noise(sine, 20.0, seed=9)
        b = add_colored_noise(sine, 20.0, seed=9)
        assert np.array_equal(a.samples, b.samples)
        c = add_colored_noise(sine, 20.0, seed=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_silent_clip_rejected(self):
        with pytest.raises(ValueError):
            add_colored_noise(AudioClip(np.zeros(100), SR), 20.0, seed=0)


class TestConvolutiveDistortion:
    def test_zero_depth_identity(self, sine):
        out = convolutive_distortion(sine, 5, seed=3, depth=0.0)
        assert np.array_equal(out.samples, sine.samples)

    def test_seed_determinism(self, sine):
        a = convolutive_distortion(sine, 5, seed=3)
        b = convolutive_distortion(sine, 5, seed=3)
        assert np.array_equal(a.samples, b.samples)

    def test_length_preserved(self, sine):
        assert len(convolutive_distortion(sine, 7, seed=4)) == len(sine)

    def test_actually_distorts(self, sine):
        out = convolutive_distortion(sine, 5, seed=3)
        assert not np.allclose(out.samples, sine.samples)

    @pytest.mark.parametrize("n_filters, depth, message", [
        (0, 1.0, r"^n_filters must be >= 1$"),
        (5, 1.5, r"^depth must be in \[0, 1\]$"),
    ])
    def test_bad_argument_rejected(self, sine, n_filters, depth, message):
        with pytest.raises(ValueError, match=message):
            convolutive_distortion(sine, n_filters, seed=3, depth=depth)


class TestImpulsiveNoise:
    def test_zero_rate_identity(self, sine):
        out = impulsive_noise(sine, 0.0, 2.0, seed=5)
        assert np.array_equal(out.samples, sine.samples)

    def test_seed_determinism(self, sine):
        a = impulsive_noise(sine, 20.0, 2.0, seed=6)
        b = impulsive_noise(sine, 20.0, 2.0, seed=6)
        assert np.array_equal(a.samples, b.samples)

    def test_negative_rate_rejected(self, sine):
        with pytest.raises(ValueError, match="^rate_per_s must be >= 0$"):
            impulsive_noise(sine, -1.0, 2.0, seed=5)

    def test_expected_count_over_100s(self):
        clip = AudioClip(tone(500.0, 100.0, amplitude=0.4), SR)
        out = impulsive_noise(clip, 10.0, 3.0, seed=7)
        count = int(np.count_nonzero(out.samples != clip.samples))
        assert 900 <= count <= 1100


class TestPresent:
    def test_digital_no_codec_is_identity(self, sine):
        cfg = ChannelConfig(path="injection_digital", codec="none", gain_db=0.0)
        out = present(sine, cfg, seed=0)
        assert np.array_equal(out.samples, sine.samples)

    def test_seed_determinism(self, sine):
        cfg = ChannelConfig(
            path="injection_analog", codec="mulaw", gain_db=(-3.0, 3.0), snr_db=(15.0, 30.0)
        )
        a = present(sine, cfg, seed=11)
        b = present(sine, cfg, seed=11)
        assert np.array_equal(a.samples, b.samples)
        c = present(sine, cfg, seed=12)
        assert not np.array_equal(a.samples, c.samples)

    def test_playback_requires_ir(self):
        refused_alike("playback path requires an impulse response", path="playback")

    @pytest.mark.parametrize("path", ["injection_digital", "injection_analog"])
    def test_ir_off_playback_rejected(self, path):
        refused_alike(f"{path} path takes no impulse response", path=path, ir="ir.wav")

    @pytest.mark.parametrize("noise", [0.0, (15.0, 30.0)])
    def test_noise_on_digital_rejected(self, noise):
        refused_alike("injection_digital path takes no snr_db", path="injection_digital", snr_db=noise)

    @pytest.mark.parametrize("field", ["gain_db", "snr_db"])
    def test_reversed_range_rejected(self, field):
        refused_alike(f"{field} range [5, 1] is reversed: lo must be <= hi", path="injection_analog", **{field: (5, 1)})
        # a range of one value is allowed
        ChannelConfig(path="injection_analog", **{field: (3, 3)})
        from_doc(PresentationJob, {"input": "in.wav", "output": "out.wav", "path": "injection_analog", field: [3, 3]})

    @pytest.mark.parametrize("field", ["gain_db", "snr_db"])
    @pytest.mark.parametrize("value, shown", [
        (1e308, "1e+308"), (-1e308, "-1e+308"), (1000.5, "1000.5"), (float("nan"), "nan"), (float("-inf"), "-inf"),
        ((-1e308, 1e308), "range [-1e+308, 1e+308]"), ((0, 1001), "range [0, 1001]"),
    ])
    def test_level_out_of_bound_rejected(self, field, value, shown):
        """A gain or SNR past +-1000 dB, a NaN, or a range with such an end, would overflow the channel's
        power ratios mid-job; the bound itself is allowed."""
        refused_alike(f"{field} {shown} is outside [-1000, 1000] dB", path="injection_analog", **{field: value})
        for bound in (-1000.0, 1000.0, (-1000.0, 1000.0)):
            ChannelConfig(path="injection_analog", **{field: bound})

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("noise", [None, 25.0, (15.0, 30.0)])
    @pytest.mark.parametrize("gain", [2.0, (-3.0, 3.0)])
    def test_equals_the_stages_in_the_documented_order(self, sine, path, codec, noise, gain):
        ir = AudioClip(np.concatenate([[0.8], 0.1 * np.random.default_rng(0).standard_normal(63)]), SR)
        seed = 29

        def draw(value, stage):
            if not isinstance(value, tuple):
                return value
            return np.random.default_rng(derive_seed(seed, stage)).uniform(*value)

        def noisy(c):
            return c if noise is None else add_colored_noise(c, draw(noise, "snr"), derive_seed(seed, "noise"))

        def coded(c):
            return c if codec == "none" else codec_roundtrip(c, codec)

        if path == "injection_digital" and noise is not None:  # its stages add no noise, so it takes no SNR
            with pytest.raises(ValueError, match="^injection_digital path takes no snr_db$"):
                ChannelConfig(path=path, codec=codec, gain_db=gain, snr_db=noise)
            return
        out = apply_gain(sine, draw(gain, "gain"))
        if path == "playback":  # gain -> IR convolution -> bandpass -> codec -> noise
            manual = noisy(coded(bandpass_telephony(convolve_ir(out, ir))))
        elif path == "injection_analog":  # gain -> soft clip -> noise -> bandpass -> codec
            manual = coded(bandpass_telephony(noisy(soft_clip(out, CLIP_THRESHOLD))))
        else:  # gain -> codec
            manual = coded(out)
        cfg = ChannelConfig(path=path, ir=ir if path == "playback" else None, codec=codec, gain_db=gain,
                            snr_db=noise)
        assert np.array_equal(present(sine, cfg, seed).samples, manual.samples)

    def test_playback_with_unit_ir_equals_analog_without_clip_or_noise(self, sine):
        unit = AudioClip(np.array([1.0]), SR)
        play = present(sine, ChannelConfig(path="playback", ir=unit, codec="mulaw"), seed=1)
        # the analog path's tanh clip bends even a <=0.5 peak signal, so compose the stages by hand instead
        manual = codec_roundtrip(bandpass_telephony(apply_gain(sine, 0.0)), "mulaw")
        assert np.array_equal(play.samples, manual.samples)

    def test_pipeline_composition_analog(self, sine):
        cfg = ChannelConfig(path="injection_analog", codec="alaw", gain_db=2.0, snr_db=25.0)
        seed = 77
        out = present(sine, cfg, seed)
        manual = apply_gain(sine, 2.0)
        manual = soft_clip(manual, CLIP_THRESHOLD)
        manual = add_colored_noise(manual, 25.0, derive_seed(seed, "noise"))
        manual = bandpass_telephony(manual)
        manual = codec_roundtrip(manual, "alaw")
        assert np.array_equal(out.samples, manual.samples)

    def test_never_lengthens(self, sine):
        ir = AudioClip(np.random.default_rng(0).standard_normal(256) * 0.1, SR)
        out = present(sine, ChannelConfig(path="playback", ir=ir), seed=2)
        assert len(out) <= len(sine) + len(ir)

    def test_finite_and_rate_preserved(self, sine):
        for path, noise in (("injection_digital", None), ("injection_analog", (10, 20))):
            cfg = ChannelConfig(path=path, codec="mulaw", gain_db=(-6, 6), snr_db=noise)
            out = present(sine, cfg, seed=3)
            assert out.sample_rate_hz == sine.sample_rate_hz
            assert np.all(np.isfinite(out.samples))

    def test_unknown_path_rejected(self):
        refused_alike(f"unknown path 'carrier_pigeon' (expected one of {PATHS})", path="carrier_pigeon")

    def test_unknown_codec_rejected(self):
        refused_alike("unknown codec 'opus'", path="injection_analog", codec="opus")
