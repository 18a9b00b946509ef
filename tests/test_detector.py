import functools
import hashlib
import json
import re
import threading
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spoofbench import (
    AggregatorConfig,
    DetectorConfig,
    Logits,
    ParameterStore,
    aggregate_layers,
    attentive_stats_pool,
    detector_forward,
    init_aggregator_parameters,
    init_parameters,
    load_parameters,
    save_parameters,
    score,
)
from spoofbench.detector import model, ops
from spoofbench.detector.model import (
    MAX_BLOCKS_PER_STAGE,
    MAX_COT_KERNEL,
    MAX_POOL_HIDDEN,
    MAX_STAGE_CHANNELS,
    MIN_INPUT_FRAMES,
    _block_params,
    _layout,
    _unit_params,
    adapter_forward,
    cot_block_forward,
    res_cot_forward,
)
from spoofbench.corpus import from_doc
from spoofbench.features import LogMelSpectrogram

from oracles import detector_forward_oracle, detector_param_count_oracle

CFG = DetectorConfig()

# Pinned via the shape-enumeration oracle for the default config.
DEFAULT_PARAM_COUNT = 3_841_002


@pytest.fixture(scope="module")
def store():
    return init_parameters(CFG, seed=7)


def random_feat(seed, n_frames=40, n_mels=64):
    rng = np.random.default_rng(seed)
    return LogMelSpectrogram(rng.standard_normal((n_frames, n_mels)))


def init_res_cot_params(channels: int, kernel: int, seed: int) -> dict:
    """Standalone parameter dict for one residual block: the first block of a
    detector that wide, its weights alone drawn from seed."""
    cfg = DetectorConfig(stage_channels=(channels,) * 4, embedding_dim=2 * channels, cot_kernel=kernel)
    rng = np.random.default_rng(seed)
    tensors = {name: init(rng, shape) for name, shape, init in _layout(cfg) if name.startswith("stage1.block1.")}
    return _block_params(tensors, "stage1.block1")


class TestInit:
    def test_deterministic(self):
        a = init_parameters(CFG, seed=3)
        b = init_parameters(CFG, seed=3)
        assert [n for n, _ in a.items()] == [n for n, _ in b.items()]
        for name, arr in a.items():
            assert np.array_equal(arr, b[name]), name

    def test_seed_changes_values(self):
        a = init_parameters(CFG, seed=3)
        b = init_parameters(CFG, seed=4)
        assert any(not np.array_equal(arr, b[name]) for name, arr in a.items())

    @pytest.mark.parametrize("cfg, seed, sha256", [
        (CFG, 0, "8787d3769b84e8171ceebd8e6e8c63a34c981eea9f2a8445cbcb5759ec73404b"),
        (DetectorConfig(stage_channels=(8, 16, 32, 64), blocks_per_stage=(1, 2, 1, 3), embedding_dim=128,
                        cot_kernel=5, pool_hidden=7), 3,
         "d088436f40e4c3497945664f1bda159e629f9c468be49ad96b6872892fa35bda"),
    ])
    def test_weights_file_pinned(self, tmp_path, cfg, seed, sha256):
        """Names, shapes, store order, draw order and values, byte for byte."""
        save_parameters(init_parameters(cfg, seed), tmp_path / "w.bin")
        assert hashlib.sha256((tmp_path / "w.bin").read_bytes()).hexdigest() == sha256

    def test_check_parameters_allocates_no_model(self, store):
        """The check reads shapes; it builds no model to read them (30.8 MB of arrays at default width)."""
        assert model.check_parameters(store) == CFG  # imports and first-call caches outside the measurement
        tracemalloc.start()
        try:
            model.check_parameters(store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_param_count_in_paper_band(self, store):
        assert 3.0e6 <= sum(arr.size for _, arr in store.items()) <= 4.1e6

    def test_param_count_matches_shape_oracle(self, store):
        assert sum(arr.size for _, arr in store.items()) == detector_param_count_oracle() == DEFAULT_PARAM_COUNT

    def test_biases_zero_bn_identity(self, store):
        assert not store["stage1.block1.conv1.bias"].any()
        assert (store["stage2.adapter.bn.gamma"] == 1).all()
        assert not store["stage2.adapter.bn.beta"].any()
        assert not store["stage2.adapter.bn.mean"].any()
        assert (store["stage2.adapter.bn.var"] == 1).all()


class TestAdapter:
    def test_zero_in_zero_out(self, store):
        out = adapter_forward(np.zeros((1, 64, 20)), _unit_params(store, "stage1.adapter"), stride=1)
        assert out.shape == (32, 64, 20)
        assert not out.any()

    def test_output_channels_and_stride(self, store):
        x = np.random.default_rng(0).standard_normal((32, 64, 20))
        out = adapter_forward(x, _unit_params(store, "stage2.adapter"), stride=2)
        assert out.shape == (64, 32, 10)

    def test_nonnegative(self, store):
        x = np.random.default_rng(1).standard_normal((1, 64, 24))
        assert (adapter_forward(x, _unit_params(store, "stage1.adapter")) >= 0).all()

    def test_shape_mismatch(self, store):
        with pytest.raises(ValueError):
            adapter_forward(np.zeros((3, 64, 20)), _unit_params(store, "stage1.adapter"))


class TestCotBlock:
    def test_shape_preserved(self):
        cot = _unit_params(init_res_cot_params(16, 3, seed=0), "cot")
        x = np.random.default_rng(2).standard_normal((16, 8, 12))
        assert cot_block_forward(x, cot).shape == x.shape

    def test_zero_propagation(self):
        cot = _unit_params(init_res_cot_params(16, 3, seed=0), "cot")
        out = cot_block_forward(np.zeros((16, 8, 12)), cot)
        assert np.abs(out).max() == 0.0

    def test_deterministic(self):
        cot = _unit_params(init_res_cot_params(16, 3, seed=0), "cot")
        x = np.random.default_rng(3).standard_normal((16, 8, 12))
        assert np.array_equal(cot_block_forward(x, cot), cot_block_forward(x, cot))


class TestResCotBlock:
    def test_identity_variant_shape(self):
        params = init_res_cot_params(16, 3, seed=1)
        x = np.random.default_rng(4).standard_normal((16, 8, 12))
        assert res_cot_forward(x, params).shape == x.shape

    def test_zero_propagation(self):
        params = init_res_cot_params(16, 3, seed=2)
        out = res_cot_forward(np.zeros((16, 8, 12)), params)
        assert np.abs(out).max() == 0.0


class TestAttentiveStatsPool:
    def test_constant_sequence(self):
        rng = np.random.default_rng(6)
        d = 16
        w, b, v = rng.standard_normal((8, d)), rng.standard_normal(8), rng.standard_normal(8)
        c = rng.standard_normal(d)
        h = np.tile(c, (25, 1))
        out = attentive_stats_pool(h, w, b, v)
        assert np.abs(out[:d] - c).max() < 1e-9
        assert np.abs(out[d:] - np.sqrt(1e-9)).max() < 1e-4

    def test_single_frame(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((1, 10))
        w, b, v = rng.standard_normal((4, 10)), rng.standard_normal(4), rng.standard_normal(4)
        out = attentive_stats_pool(h, w, b, v)
        assert np.abs(out[:10] - h[0]).max() < 1e-12
        assert np.abs(out[10:] - np.sqrt(1e-9)).max() < 1e-6

    def test_zero_attention_vector_gives_plain_mean(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((37, 12))
        w, b = rng.standard_normal((6, 12)), rng.standard_normal(6)
        out = attentive_stats_pool(h, w, b, np.zeros(6))
        assert np.abs(out[:12] - h.mean(axis=0)).max() < 1e-9

    def test_uniform_attention_permutation_invariant(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((20, 8))
        w, b, v = rng.standard_normal((4, 8)), rng.standard_normal(4), np.zeros(4)
        a = attentive_stats_pool(h, w, b, v)
        bperm = attentive_stats_pool(h[rng.permutation(20)], w, b, v)
        assert np.abs(a - bperm).max() < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            attentive_stats_pool(np.zeros((0, 4)), np.zeros((2, 4)), np.zeros(2), np.zeros(2))

    def test_output_length(self):
        rng = np.random.default_rng(10)
        for t in (1, 3, 50):
            h = rng.standard_normal((t, 6))
            out = attentive_stats_pool(h, rng.standard_normal((3, 6)), np.zeros(3), rng.standard_normal(3))
            assert out.shape == (12,)


class TestDetectorForward:
    def test_two_finite_logits(self, store):
        logits = detector_forward(random_feat(0), store)
        assert isinstance(logits, Logits)
        assert np.isfinite(logits.l_spoof) and np.isfinite(logits.l_bonafide)

    def test_deterministic(self, store):
        feat = random_feat(1)
        a = detector_forward(feat, store)
        b = detector_forward(feat, store)
        assert (a.l_spoof, a.l_bonafide) == (b.l_spoof, b.l_bonafide)

    def test_too_few_frames(self, store):
        with pytest.raises(ValueError, match="frames"):
            detector_forward(random_feat(2, n_frames=MIN_INPUT_FRAMES - 1), store)

    def test_min_frames_accepted(self, store):
        detector_forward(random_feat(3, n_frames=MIN_INPUT_FRAMES), store)

    def test_prefix_below_min_frames(self, store):
        with pytest.raises(ValueError, match=f"input has 15 frames; detector needs >= {MIN_INPUT_FRAMES}"):
            detector_forward(random_feat(2, n_frames=40), store, prefix_frames=[40, MIN_INPUT_FRAMES - 1])

    def test_prefix_beyond_input(self, store):
        with pytest.raises(ValueError, match="exceeds"):
            detector_forward(random_feat(2, n_frames=40), store, prefix_frames=[41])

    def test_time_duplication_changes_but_stays_finite(self, store):
        feat = random_feat(4, n_frames=24)
        doubled = LogMelSpectrogram(np.vstack([feat.values, feat.values]))
        a = detector_forward(feat, store)
        b = detector_forward(doubled, store)
        assert np.isfinite(b.l_spoof) and np.isfinite(b.l_bonafide)
        assert (a.l_spoof, a.l_bonafide) != (b.l_spoof, b.l_bonafide)

    def test_zero_input_near_zero_logits(self, store):
        # the mu half of the embedding is exactly zero; the sigma half is
        # sqrt(pool eps) = 3.2e-5, so logits are bounded by that times the
        # FC row mass
        logits = detector_forward(LogMelSpectrogram(np.zeros((32, 64))), store)
        assert abs(logits.l_spoof) < 1e-3
        assert abs(logits.l_bonafide) < 1e-3

    @pytest.mark.parametrize("config, named", [
        ({**asdict(CFG), "blocks_per_stage": (1, 1, 1, 1)}, "fit the detector config: unexpected tensor stage1.block2."),
        ({**asdict(CFG), "cot_kernel": 1},
         "fit the detector config: tensor stage1.block1.cot.key.weight has shape (32, 3, 3), the config needs (32, 1, 1)"),
        (None, "detector config: DetectorConfig must be a mapping, not null"),
    ], ids=["blocks_per_stage", "cot_kernel", "no-config"])
    def test_header_that_contradicts_the_tensors(self, store, config, named):
        """The forward runs the network the store's header describes, so default-width tensors under a
        header with fewer blocks or a smaller attention window, or under none, are refused, not run."""
        reheadered = ParameterStore(config=config)
        for name, arr in store.items():
            reheadered.add(name, arr)
        with pytest.raises(ValueError, match=re.escape(named)):
            detector_forward(random_feat(0), reheadered)

    # Logits recorded before the depthwise conv and the CoT aggregation
    # shared one windowed-accumulate loop; inputs are random_feat(n, n).
    GOLDEN = {
        64: (-0.005482838917342445, 0.011829102931369568),
        203: (-0.006764174802104657, 0.011385961427660794),
    }

    @pytest.mark.parametrize("n_frames", sorted(GOLDEN))
    def test_golden_logits(self, n_frames):
        cfg = DetectorConfig(stage_channels=(8, 16, 32, 64), embedding_dim=128)
        logits = detector_forward(random_feat(n_frames, n_frames), init_parameters(cfg, seed=0))
        got = np.array([logits.l_spoof, logits.l_bonafide])
        want = np.array(self.GOLDEN[n_frames])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


def store_with_stats(cfg, seed):
    """init_parameters(cfg, seed) with random biases and batch-norm statistics,
    so that no affine step of the forward is an identity."""
    rng = np.random.default_rng(seed)
    out = ParameterStore(config=asdict(cfg))
    for name, arr in init_parameters(cfg, seed).items():
        last = name.rsplit(".", 1)[-1]
        if last in ("gamma", "var"):
            arr = rng.uniform(0.5, 1.5, arr.shape)
        elif last in ("bias", "beta", "mean", "b"):
            arr = rng.normal(0.0, 0.1, arr.shape)
        out.add(name, arr)
    return out


class TestOracle:
    """The forward against tests/oracles.py's position-by-position forward."""

    @staticmethod
    def assert_close(got, want):
        got = np.array([got.l_spoof, got.l_bonafide])
        assert np.max(np.abs(got - np.array(want)) / np.abs(want)) <= 1e-10

    @pytest.mark.parametrize("kernel, n_frames", [(3, 31), (5, 45)])
    def test_forward_matches_oracle(self, kernel, n_frames):
        cfg = DetectorConfig(stage_channels=(8, 16, 32, 64), cot_kernel=kernel, embedding_dim=128)
        store = store_with_stats(cfg, seed=kernel)
        feat = random_feat(n_frames, n_frames)
        self.assert_close(detector_forward(feat, store), detector_forward_oracle(feat.values, store, cfg))

    def test_prefix_frames_match_oracle(self):
        cfg = DetectorConfig(stage_channels=(8, 16, 32, 64), embedding_dim=128)
        store = store_with_stats(cfg, seed=1)
        counts = [61, 17, 33, 45]
        feat = random_feat(61, 63)
        for n, got in zip(counts, detector_forward(feat, store, prefix_frames=counts)):
            self.assert_close(got, detector_forward_oracle(feat.values[:n], store, cfg))


class TestScore:
    def test_formula(self):
        assert score(Logits(2.0, 0.0)).s == 1.0

    def test_equal_logits(self):
        assert score(Logits(1.7, 1.7)).s == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.standard_normal(2) * 10
            assert score(Logits(a, b)).s + score(Logits(b, a)).s == 0.0

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError, match="^logits must be finite$"):
            Logits(0.0, float("nan"))

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="^score must be finite$"):
            score(Logits(1e308, -1e308))  # 0.5 * (1e308 + 1e308) overflows to inf


class TestAggregateLayers:
    def test_dims_below_one_rejected(self):
        with pytest.raises(ValueError, match="^aggregator dims must be >= 1$"):
            AggregatorConfig(n_layers=2, in_dim=32, proj_dim=0)

    def test_single_layer(self):
        cfg = AggregatorConfig(n_layers=1, in_dim=32, proj_dim=16)
        params = init_aggregator_parameters(cfg, seed=0)
        x = np.random.default_rng(12).standard_normal((1, 9, 32))
        out = aggregate_layers(x, params)
        assert out.shape == (9, 16)

    def test_equal_logits_average_layers(self):
        cfg = AggregatorConfig(n_layers=5, in_dim=16, proj_dim=8)
        params = init_aggregator_parameters(cfg, seed=1)
        assert not params["layer_logits"].any()  # softmax -> uniform
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((5, 7, 16))

        # oracle: project/normalize each layer separately, then plain mean
        from spoofbench.detector.ops import gelu, layer_norm

        per_layer = []
        for l in range(5):
            y = stack[l] @ params["proj.weight"][l].astype(np.float64).T
            y = y + params["proj.bias"][l].astype(np.float64)
            y = layer_norm(gelu(y), params["ln1.gamma"], params["ln1.beta"])
            per_layer.append(y)
        expected = layer_norm(
            np.mean(per_layer, axis=0), params["ln2.gamma"], params["ln2.beta"]
        )
        out = aggregate_layers(stack, params)
        assert np.abs(out - expected).max() < 1e-9

    def test_final_layer_norm_stats(self):
        cfg = AggregatorConfig(n_layers=3, in_dim=24, proj_dim=128)
        params = init_aggregator_parameters(cfg, seed=2)
        stack = np.random.default_rng(14).standard_normal((3, 11, 24))
        out = aggregate_layers(stack, params)
        assert np.abs(out.mean(axis=1)).max() < 1e-6
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-4

    @pytest.mark.parametrize("shape", [(2, 5, 24), (3, 5, 16)], ids=["layers", "width"])
    def test_dimension_mismatch(self, shape):
        """The layer count and the width are those of proj.weight, (L, proj, D)."""
        params = init_aggregator_parameters(AggregatorConfig(n_layers=3, in_dim=24), seed=3)
        with pytest.raises(ValueError, match=re.escape(f"aggregate_layers: expected (3, T, 24), got {shape}")):
            aggregate_layers(np.zeros(shape), params)


class TestWeightsIO:
    def test_roundtrip_bit_exact(self, store, tmp_path):
        path = tmp_path / "w.bin"
        save_parameters(store, path)
        back = load_parameters(path)
        assert [n for n, _ in back.items()] == [n for n, _ in store.items()]
        for name, arr in store.items():
            assert np.array_equal(arr, back[name]), name
        assert back.config == json.loads(json.dumps(asdict(CFG)))

    def test_truncated_blob(self, store, tmp_path):
        path = tmp_path / "w.bin"
        save_parameters(store, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-64])
        with pytest.raises(ValueError, match=r"blob has \d+ bytes, manifest declares \d+"):
            load_parameters(path)

    def test_corrupted_blob_checksum(self, store, tmp_path):
        path = tmp_path / "w.bin"
        save_parameters(store, path)
        raw = bytearray(path.read_bytes())
        raw[-4] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="blob checksum mismatch"):
            load_parameters(path)

    def test_edited_shape_rejected(self, store, tmp_path):
        path = tmp_path / "w.bin"
        save_parameters(store, path)
        raw = path.read_bytes()
        nl = raw.index(b"\n")
        manifest = json.loads(raw[:nl])
        manifest["tensors"][0]["shape"] = [1, 2, 3]
        path.write_bytes(json.dumps(manifest, separators=(",", ":")).encode() + b"\n" + raw[nl + 1 :])
        with pytest.raises(ValueError, match="shape/offset inconsistent with blob"):
            load_parameters(path)

    def test_unknown_version_rejected(self, store, tmp_path):
        path = tmp_path / "w.bin"
        save_parameters(store, path)
        raw = path.read_bytes()
        nl = raw.index(b"\n")
        manifest = json.loads(raw[:nl])
        manifest["format_version"] = 99
        path.write_bytes(json.dumps(manifest, separators=(",", ":")).encode() + b"\n" + raw[nl + 1 :])
        with pytest.raises(ValueError, match="unknown format version 99"):
            load_parameters(path)


class TestConfigValidation:
    def test_rejects_wrong_embedding_dim(self):
        with pytest.raises(ValueError):
            DetectorConfig(embedding_dim=100)

    def test_rejects_three_classes(self):
        with pytest.raises(ValueError):
            DetectorConfig(n_classes=3)

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            DetectorConfig(cot_kernel=2)

    @pytest.mark.parametrize("field, value, named", [
        ("stage_channels", (MAX_STAGE_CHANNELS + 4, 64, 128, 256), "stage channels must be positive multiples of 4"),
        ("blocks_per_stage", (2, 2, MAX_BLOCKS_PER_STAGE + 1, 2), "blocks_per_stage entries must be in"),
        ("cot_kernel", MAX_COT_KERNEL + 2, "cot_kernel must be odd and in"),
        ("pool_hidden", MAX_POOL_HIDDEN + 1, "pool_hidden must be in"),
    ])
    def test_width_is_bounded(self, field, value, named):
        # the config object only: nothing of a detector this wide is ever allocated
        with pytest.raises(ValueError, match=named):
            DetectorConfig(**{field: value})

    def test_bounds_allow_four_times_the_default(self):
        assert MAX_STAGE_CHANNELS >= 4 * max(CFG.stage_channels)
        assert MAX_BLOCKS_PER_STAGE >= 4 * max(CFG.blocks_per_stage)
        assert MAX_COT_KERNEL >= 4 * CFG.cot_kernel and MAX_POOL_HIDDEN >= 4 * CFG.pool_hidden
        DetectorConfig(stage_channels=(128, 256, 512, MAX_STAGE_CHANNELS), blocks_per_stage=(MAX_BLOCKS_PER_STAGE,) * 4,
                       cot_kernel=MAX_COT_KERNEL, pool_hidden=MAX_POOL_HIDDEN, embedding_dim=2 * MAX_STAGE_CHANNELS)

    def test_roundtrip_dict(self):
        cfg = DetectorConfig(stage_channels=(8, 16, 32, 64), blocks_per_stage=(1, 1, 1, 1), embedding_dim=128)
        assert from_doc(DetectorConfig, json.loads(json.dumps(asdict(cfg)))) == cfg


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(16, 64))
def test_forward_finite_property(seed, n_frames):
    cfg = DetectorConfig(
        stage_channels=(8, 16, 32, 64), blocks_per_stage=(1, 1, 1, 1), embedding_dim=128
    )
    store = init_parameters(cfg, seed=0)
    rng = np.random.default_rng(seed)
    feat = LogMelSpectrogram(rng.standard_normal((n_frames, 64)) * 10)
    logits = detector_forward(feat, store)
    assert np.isfinite(logits.l_spoof) and np.isfinite(logits.l_bonafide)


@functools.lru_cache(maxsize=None)
def _compact_store(cfg):
    return init_parameters(cfg, seed=0)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    counts=st.lists(st.integers(MIN_INPUT_FRAMES, 600), min_size=1, max_size=4),
    extra=st.integers(0, 3),
    kernel=st.sampled_from((1, 3, 5)),
    blocks=st.sampled_from(((1, 1, 1, 1), (2, 1, 3, 1))),
)
@example(seed=0, counts=[16, 17, 31, 203, 17], extra=0, kernel=3, blocks=(1, 1, 1, 1))
@example(seed=1, counts=[999, 1000, 1001], extra=2, kernel=5, blocks=(2, 1, 3, 1))
@example(seed=2, counts=[257, 16, 40, 77, 131, 16], extra=1, kernel=1, blocks=(2, 1, 3, 1))
def test_prefix_frames_equal_separate_forwards(seed, counts, extra, kernel, blocks):
    """Prefix sharing is exact: each count's logits equal, bit for bit, a
    separate forward on that many leading frames (odd counts, duplicates and
    counts below the receptive field included)."""
    cfg = DetectorConfig(
        stage_channels=(8, 16, 32, 64), blocks_per_stage=blocks, cot_kernel=kernel, embedding_dim=128
    )
    store = _compact_store(cfg)
    feat = random_feat(seed, n_frames=max(counts) + extra)
    got = detector_forward(feat, store, prefix_frames=counts)
    want = [detector_forward(LogMelSpectrogram(feat.values[:n]), store) for n in counts]
    assert got == want


@functools.lru_cache(maxsize=None)
def _stats_store(cfg):
    return store_with_stats(cfg, seed=5)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    counts=st.lists(st.integers(MIN_INPUT_FRAMES, 70), min_size=1, max_size=4),
    tile_frames=st.integers(1, 6),
    threads=st.sampled_from((1, 2, 3)),
    kernel=st.sampled_from((3, 5)),
    # window-sum blocks of one channel; of a few channels, the last one partial; of every channel
    block_elems=st.sampled_from((1, 3_000, 10**12)),
)
@example(seed=0, counts=[40, 17, 40, 23], tile_frames=1, threads=3, kernel=3, block_elems=1)
@example(seed=1, counts=[70, 16], tile_frames=4, threads=2, kernel=5, block_elems=3_000)
@example(seed=2, counts=[16, 33], tile_frames=6, threads=1, kernel=3, block_elems=10**12)
def test_tiles_are_exact(seed, counts, tile_frames, threads, kernel, block_elems):
    """A forward cut into tiles of a few frames, on any number of threads, with its window sums
    cut into any channel blocks, gives the logits of one tile per unit and one block per window
    sum bit for bit, and the oracle's within 1e-10."""
    cfg = DetectorConfig(stage_channels=(8, 16, 32, 64), blocks_per_stage=(1, 1, 1, 1), cot_kernel=kernel,
                         embedding_dim=128)
    store = _stats_store(cfg)
    feat = random_feat(seed, n_frames=max(counts))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_WINDOW_BLOCK_ELEMS", 10**12)
        whole = detector_forward(feat, store, prefix_frames=counts, threads=1)  # one tile, one block
    halo = 2 + kernel // 2
    with pytest.MonkeyPatch.context() as mp:  # tile_frames output frames per tile of a stage-1 block
        mp.setattr(model, "_TILE_ELEMS", 8 * 64 * (tile_frames + 2 * halo))
        mp.setattr(ops, "_WINDOW_BLOCK_ELEMS", block_elems)
        got = detector_forward(feat, store, prefix_frames=counts, threads=threads)
    assert got == whole
    for n, logits in zip(counts, got):
        TestOracle.assert_close(logits, detector_forward_oracle(feat.values[:n], store, cfg))


def test_default_width_tiles_are_exact():
    """At the default width the production tiles on two threads give, bit for bit, the logits of one
    tile per unit on one thread and of a separate forward per prefix.  Each conv is one GEMM per
    tile, so this pins that BLAS results at the default widths (K up to 2304) do not depend on N."""
    store = _stats_store(CFG)
    feat = random_feat(11, n_frames=1000)
    counts = [1000, 611, 203]
    got = detector_forward(feat, store, prefix_frames=counts, threads=2)
    assert CFG.stage_channels[-1] * (64 // 8) * (1000 // 8) > model._TILE_ELEMS  # stage 4 gets more than one tile
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_TILE_ELEMS", 10**12)
        assert detector_forward(feat, store, prefix_frames=counts, threads=1) == got
    assert [detector_forward(LogMelSpectrogram(feat.values[:n]), store, threads=2) for n in counts] == got


@pytest.mark.parametrize("shared", [False, True], ids=["per-channel", "shared"])
@pytest.mark.parametrize("c, f, t, k", [(5, 4, 6, 3), (7, 3, 9, 5), (3, 40, 50, 3)])
def test_window_blocks_are_exact(monkeypatch, shared, c, f, t, k):
    """The window sum cut into channel blocks equals the one-block sum bit for bit, with
    per-channel (k*k, C, 1, 1) or shared (k*k, 1, F, T) weights: blocks of one channel, also
    when F x T alone is over the budget, and blocks whose last one is partial."""
    rng = np.random.default_rng(c * f * t)
    x = rng.standard_normal((c, f, t))
    weights = rng.standard_normal((k * k, 1, f, t) if shared else (k * k, c, 1, 1))
    monkeypatch.setattr(ops, "_WINDOW_BLOCK_ELEMS", 10**12)
    whole = ops._window_accumulate(x, weights, k)
    for budget in (f * t - 1, f * t, 2 * f * t, 3 * f * t + 1):  # 1, 1, 2 and 3 channels per block
        monkeypatch.setattr(ops, "_WINDOW_BLOCK_ELEMS", budget)
        assert np.array_equal(ops._window_accumulate(x, weights, k), whole)


def test_a_failed_tile_ends_the_forward_with_its_exception(monkeypatch):
    """A tile that raises on a helper thread ends the forward with that very exception, after the
    unit's other tiles, and leaves no thread behind."""
    cfg = DetectorConfig(stage_channels=(8, 16, 32, 64), blocks_per_stage=(1, 1, 1, 1), embedding_dim=128)
    feat = random_feat(0, n_frames=60)
    monkeypatch.setattr(model, "_TILE_ELEMS", 64 * 12)  # ten output frames per tile of the first unit
    caller, seen, boom = threading.get_ident(), set(), RuntimeError("tile failed")
    barrier = threading.Barrier(2, timeout=30)  # each thread's first tile waits for the other's

    def tile(*args):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
        if threading.get_ident() != caller:
            raise boom
        return model_tile(*args)

    model_tile = model._tile
    monkeypatch.setattr(model, "_tile", tile)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        detector_forward(feat, _stats_store(cfg), threads=2)
    assert info.value is boom
    assert len(seen) == 2 and threading.active_count() == before
