import sys

import pytest

from spoofbench import (
    DetectorConfig,
    EvalProtocol,
    FeatureConfig,
    ManifestEntry,
    PoolSpec,
    RunConfig,
    VadConfig,
    build_pool,
    read_manifest,
    write_manifest,
)
from spoofbench.corpus import from_doc, loads
from spoofbench.presentation import PresentationJob


def entry(i, dataset="ds", label="bonafide", net=5.0):
    return ManifestEntry(
        utt_id=f"{dataset}-{label}-{i:05d}",
        path=f"/audio/{dataset}/{i}.wav",
        label=label,
        dataset=dataset,
        net_speech_s=net,
    )


class TestManifestIO:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("")
        assert read_manifest(p) == []

    def test_roundtrip_identity(self, tmp_path):
        entries = [entry(i) for i in range(5)] + [
            ManifestEntry(
                utt_id="x-1",
                path="/a.wav",
                label="spoof",
                dataset="x",
                attack_id="tts3",
                presentation="played",
                net_speech_s=1.25,
                extra={"note": "kept", "rank": 3},
            ),
            ManifestEntry(utt_id="x-2", path="/b.wav", label="bonafide", dataset="x", net_speech_s=3),
        ]
        p = tmp_path / "m.jsonl"
        write_manifest(entries, p)
        assert read_manifest(p) == entries
        assert '"net_speech_s":3}' in p.read_text()  # an integer is kept as given
        data = p.read_bytes()
        write_manifest(read_manifest(p), p)
        assert p.read_bytes() == data

    def test_rewrite_byte_stable(self, tmp_path):
        entries = [entry(i, net=float(i) + 0.5) for i in range(4)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifest(entries, p1)
        write_manifest(read_manifest(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        e = entry(1)
        p.write_text(e.to_json() + "\n" + e.to_json() + "\n")
        with pytest.raises(ValueError, match=e.utt_id):
            read_manifest(p)

    def test_write_refuses_a_duplicate_id(self, tmp_path):
        p = tmp_path / "m.jsonl"
        with pytest.raises(ValueError, match=r"^duplicate utt_id 'ds-bonafide-00001'$"):
            write_manifest([entry(1), entry(2), entry(1)], p)
        assert not p.exists()

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(entry(1).to_json() + "\n{not json\n")
        with pytest.raises(ValueError, match=":2"):
            read_manifest(p)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match=r"^a: label must be one of \('bonafide', 'spoof'\)$"):
            ManifestEntry(utt_id="a", path="p", label="genuine", dataset="d")

    def test_unknown_fields_preserved(self, tmp_path):
        p = tmp_path / "m.jsonl"
        line = '{"utt_id":"u1","path":"p","label":"spoof","dataset":"d","speaker":"spk9"}'
        p.write_text(line + "\n")
        entries = read_manifest(p)
        assert entries[0].extra == {"speaker": "spk9"}
        write_manifest(entries, p)
        assert "spk9" in p.read_text()


class TestFromDoc:
    """from_doc, the one JSON -> dataclass constructor: each rule it applies."""

    @pytest.mark.parametrize("value", [True, 3.0, "3", None])
    def test_int_field_takes_an_integer_only(self, value):
        assert from_doc(DetectorConfig, {"cot_kernel": 5}).cot_kernel == 5
        with pytest.raises(ValueError, match="^cot_kernel must be an integer, not "):
            from_doc(DetectorConfig, {"cot_kernel": value})

    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
    def test_float_field_takes_any_number_but_a_bool(self, value):
        with pytest.raises(ValueError, match="^hop_s must be a number, not "):
            from_doc(VadConfig, {"hop_s": value})

    def test_float_field_keeps_an_integer_as_given(self):
        vad = from_doc(VadConfig, {"frame_len_s": 1, "hop_s": 0.5})
        assert type(vad.frame_len_s) is int and vad.frame_len_s == 1 and vad.hop_s == 0.5

    @pytest.mark.parametrize("value", [0, 1, "no", "false", None])
    def test_bool_field_takes_true_or_false_only(self, value):
        assert from_doc(FeatureConfig, {"mean_var_norm": True}).mean_var_norm is True
        with pytest.raises(ValueError, match="^mean_var_norm must be true or false, not "):
            from_doc(FeatureConfig, {"mean_var_norm": value})

    def test_tuple_field_takes_an_array_of_its_item_type(self):
        assert from_doc(EvalProtocol, {"checkpoints_s": [2, 3.5]}).checkpoints_s == (2, 3.5)
        with pytest.raises(ValueError, match='^checkpoints_s must be an array, not "26"$'):
            from_doc(EvalProtocol, {"checkpoints_s": "26"})
        with pytest.raises(ValueError, match=r'^checkpoints_s\[1\] must be a number, not "3"$'):
            from_doc(EvalProtocol, {"checkpoints_s": [2, "3"]})
        with pytest.raises(ValueError, match=r"^stage_channels\[0\] must be an integer, not 8.0$"):
            from_doc(DetectorConfig, {"stage_channels": [8.0, 16, 32, 64], "embedding_dim": 128})

    def test_nested_dataclass_takes_an_object(self):
        cfg = from_doc(RunConfig, {"protocol": {"checkpoints_s": [2, 6]}, "global_seed": 7})
        assert cfg == RunConfig(global_seed=7, protocol=EvalProtocol((2, 6)))
        with pytest.raises(ValueError, match=r"^vad must be a mapping, not \[1\]$"):
            from_doc(RunConfig, {"vad": [1]})
        with pytest.raises(ValueError, match=r"^detector\.cot_kernel must be an integer, not 3\.0$"):
            from_doc(RunConfig, {"detector": {"cot_kernel": 3.0}})

    def test_optional_field_takes_null(self):
        doc = {"utt_id": "u", "path": "p", "label": "spoof", "dataset": "d", "attack_id": None}
        assert from_doc(ManifestEntry, doc, rest="extra").attack_id is None
        with pytest.raises(ValueError, match="^attack_id must be a string or null, not 7$"):
            from_doc(ManifestEntry, {**doc, "attack_id": 7}, rest="extra")

    def test_union_takes_the_first_arm_that_fits(self):
        job = {"input": "i.wav", "output": "o.wav", "path": "injection_analog"}
        assert from_doc(PresentationJob, {**job, "gain_db": 3}).gain_db == 3
        assert from_doc(PresentationJob, {**job, "gain_db": [-3, 3.5]}).gain_db == (-3, 3.5)
        assert from_doc(PresentationJob, {**job, "snr_db": None, "seed": 5}).snr_db is None
        with pytest.raises(ValueError, match=r"^gain_db must be a number or an array of 2, not \[1, 2, 3\]$"):
            from_doc(PresentationJob, {**job, "gain_db": [1, 2, 3]})
        with pytest.raises(ValueError, match=r'^snr_db must be a number or an array of 2 or null, not \[1, "2"\]$'):
            from_doc(PresentationJob, {**job, "snr_db": [1, "2"]})
        with pytest.raises(ValueError, match="^seed must be an integer or null, not 1.5$"):
            from_doc(PresentationJob, {**job, "seed": 1.5})

    def test_unknown_key_is_an_error_in_a_config(self):
        with pytest.raises(ValueError, match="^unexpected keyword argument 'global_sed'$"):
            from_doc(RunConfig, {"global_sed": 1})
        with pytest.raises(ValueError, match=r"^unexpected keyword argument 'protocol\.pooled'$"):
            from_doc(RunConfig, {"protocol": {"pooled": True}})

    def test_unknown_key_goes_to_extra_on_a_manifest_line(self):
        doc = {"utt_id": "u", "path": "p", "label": "spoof", "dataset": "d", "speaker": [1, {"a": None}], "extra": 5}
        entry = from_doc(ManifestEntry, doc, rest="extra")
        assert entry == ManifestEntry("u", "p", "spoof", "d", extra={"speaker": [1, {"a": None}], "extra": 5})

    def test_missing_required_key_is_named(self):
        with pytest.raises(ValueError, match="^missing required keys: path, label, dataset$"):
            from_doc(ManifestEntry, {"utt_id": "a"}, rest="extra")
        with pytest.raises(ValueError, match="^missing required keys: dataset$"):
            from_doc(ManifestEntry, {"utt_id": "a", "path": "p", "label": "spoof"}, rest="extra")

    @pytest.mark.parametrize("doc", ["utt_id", ["u"], 3, None])
    def test_not_an_object(self, doc):
        with pytest.raises(ValueError, match="^ManifestEntry must be a mapping, not "):
            from_doc(ManifestEntry, doc, rest="extra")

    def test_a_value_too_deep_to_show_is_named_as_such(self):
        deep = []
        for _ in range(sys.getrecursionlimit()):
            deep = [deep]
        with pytest.raises(ValueError, match="^global_seed must be an integer, not a value nested too deep to show$"):
            from_doc(RunConfig, {"global_seed": deep})

    def test_range_checks_still_apply(self):
        with pytest.raises(ValueError, match="cot_kernel must be odd"):
            from_doc(DetectorConfig, {"cot_kernel": 2})
        with pytest.raises(ValueError, match="net_speech_s must be >= 0"):
            from_doc(ManifestEntry, {"utt_id": "u", "path": "p", "label": "spoof", "dataset": "d", "net_speech_s": -1},
                     rest="extra")


class TestLoads:
    def test_decodes_json(self):
        assert loads('{"a": [1, 2.5, -3e2, true, null, "x"]}') == {"a": [1, 2.5, -300.0, True, None, "x"]}
        assert [type(v) for v in loads("[1, -2, 2.0]")] == [int, int, float]  # an integer stays one

    @pytest.mark.parametrize("text, named", [
        ("NaN", "NaN"), ('{"a": [Infinity]}', "Infinity"), ("-Infinity", "-Infinity"),
        ("1e999", "1e999"), ("-1.5e400", "-1.5e400"),
        pytest.param("-1" + "0" * 400, "-1" + "0" * 400, id="integer-over-float-range"),
    ])
    def test_refuses_a_number_that_is_not_finite(self, text, named):
        with pytest.raises(ValueError, match=f"^{named} is not a finite number$"):
            loads(text)

    def test_nesting_too_deep_is_a_value_error(self):
        with pytest.raises(ValueError, match="^maximum recursion depth exceeded"):
            loads("[" * 100_000)

    def test_not_json_is_a_value_error(self):
        with pytest.raises(ValueError):
            loads("{not json")


class TestBuildPool:
    def make_manifests(self, n_datasets=3, per_class=30):
        manifests = []
        for d in range(n_datasets):
            m = []
            for label in ("bonafide", "spoof"):
                for i in range(per_class):
                    m.append(entry(i, dataset=f"ds{d}", label=label))
            manifests.append(m)
        return manifests

    def test_exact_counts_per_class_per_dataset(self):
        pool = build_pool(self.make_manifests(), PoolSpec(per_class_per_dataset=10, seed=0))
        assert len(pool) == 3 * 2 * 10
        for d in range(3):
            for label in ("bonafide", "spoof"):
                n = sum(1 for e in pool if e.dataset == f"ds{d}" and e.label == label)
                assert n == 10

    def test_no_duplicate_ids(self):
        pool = build_pool(self.make_manifests(), PoolSpec(per_class_per_dataset=10, seed=0))
        ids = [e.utt_id for e in pool]
        assert len(set(ids)) == len(ids)

    def test_repeated_utt_id_fails_though_the_filter_drops_it(self):
        manifests = self.make_manifests(per_class=10)
        first = manifests[0][0]
        manifests[1].append(ManifestEntry(first.utt_id, first.path, "spoof", "ds1", net_speech_s=0.0))
        with pytest.raises(ValueError, match=f"^utt_id '{first.utt_id}' appears in more than one dataset$"):
            build_pool(manifests, PoolSpec(per_class_per_dataset=5, seed=0))

    def test_seed_determinism(self):
        spec = PoolSpec(per_class_per_dataset=10, seed=5)
        a = build_pool(self.make_manifests(), spec)
        b = build_pool(self.make_manifests(), spec)
        assert a == b

    def test_different_seed_changes_sample(self):
        manifests = self.make_manifests(per_class=100)  # 10x oversized
        a = build_pool(manifests, PoolSpec(per_class_per_dataset=10, seed=1))
        b = build_pool(manifests, PoolSpec(per_class_per_dataset=10, seed=2))
        assert a != b

    def test_insufficient_entries_names_dataset_and_class(self):
        manifests = self.make_manifests(per_class=30)
        manifests[1] = [e for e in manifests[1] if e.label != "bonafide"][:40]
        with pytest.raises(ValueError, match="insufficient bonafide in ds1"):
            build_pool(manifests, PoolSpec(per_class_per_dataset=10, seed=0))

    def test_min_net_speech_filter_applied_inside(self):
        manifests = self.make_manifests(per_class=30)
        # push 25 bonafide entries of ds0 below the floor: only 5 remain
        manifests[0] = [
            e if not (e.dataset == "ds0" and e.label == "bonafide" and i < 25) else
            ManifestEntry(e.utt_id, e.path, e.label, e.dataset, net_speech_s=0.2)
            for i, e in enumerate(manifests[0])
        ]
        with pytest.raises(ValueError, match="insufficient bonafide in ds0"):
            build_pool(manifests, PoolSpec(per_class_per_dataset=10, seed=0))

    def test_min_net_speech_boundary_kept(self):
        manifest = [entry(i, label=label, net=net) for label in ("bonafide", "spoof")
                    for i, net in enumerate((0.49, 0.5, 0.51))]
        pool = build_pool([manifest], PoolSpec(per_class_per_dataset=2, min_net_speech_s=0.5))
        assert [e.net_speech_s for e in pool] == [0.5, 0.51] * 2
        with pytest.raises(ValueError, match="^insufficient bonafide in ds: 2 < 3$"):
            build_pool([manifest], PoolSpec(per_class_per_dataset=3, min_net_speech_s=0.5))

    def test_dataset_the_filter_empties_is_a_shortfall(self):
        with pytest.raises(ValueError, match="insufficient bonafide in ds0: 0 < 5"):
            build_pool(self.make_manifests(per_class=10), PoolSpec(per_class_per_dataset=5, min_net_speech_s=1000.0))

    def test_nan_min_net_speech_rejected(self):
        with pytest.raises(ValueError, match="min_net_speech_s must be >= 0"):
            PoolSpec(min_net_speech_s=float("nan"))

    def test_per_class_below_one_rejected(self):
        with pytest.raises(ValueError, match="^per_class_per_dataset must be >= 1$"):
            PoolSpec(per_class_per_dataset=0)

    def test_filter_then_pool_composition(self):
        manifests = self.make_manifests(per_class=30)
        spec = PoolSpec(per_class_per_dataset=10, seed=3, min_net_speech_s=0.5)
        pre_filtered = [[e for e in m if e.net_speech_s >= 0.5] for m in manifests]
        assert build_pool(pre_filtered, spec) == build_pool(manifests, spec)

    def test_paper_pool_structure(self):
        # 7 datasets x 3000 per class -> 21,000 per class
        manifests = self.make_manifests(n_datasets=7, per_class=3000)
        pool = build_pool(manifests, PoolSpec(seed=0))
        assert sum(1 for e in pool if e.label == "spoof") == 21_000
        assert sum(1 for e in pool if e.label == "bonafide") == 21_000
