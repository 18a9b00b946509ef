import pytest

from spoofbench import (
    ManifestEntry,
    PoolSpec,
    build_pool,
    filter_min_net_speech,
    read_manifest,
    write_manifest,
)
from spoofbench.corpus import ManifestError, PoolError


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
            )
        ]
        p = tmp_path / "m.jsonl"
        write_manifest(entries, p)
        assert read_manifest(p) == entries

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
        with pytest.raises(ManifestError, match=e.utt_id):
            read_manifest(p)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(entry(1).to_json() + "\n{not json\n")
        with pytest.raises(ManifestError, match=":2"):
            read_manifest(p)

    def test_bad_label_rejected(self):
        with pytest.raises(ManifestError):
            ManifestEntry(utt_id="a", path="p", label="genuine", dataset="d")

    def test_unknown_fields_preserved(self, tmp_path):
        p = tmp_path / "m.jsonl"
        line = '{"utt_id":"u1","path":"p","label":"spoof","dataset":"d","speaker":"spk9"}'
        p.write_text(line + "\n")
        entries = read_manifest(p)
        assert entries[0].extra == {"speaker": "spk9"}
        write_manifest(entries, p)
        assert "spk9" in p.read_text()


class TestFilterMinNetSpeech:
    def test_min_zero_is_identity(self):
        entries = [entry(i, net=0.1 * i) for i in range(5)]
        assert filter_min_net_speech(entries, 0.0) == entries

    def test_all_below_gives_empty(self):
        entries = [entry(i, net=0.1) for i in range(5)]
        assert filter_min_net_speech(entries, 0.5) == []

    def test_boundary_kept(self):
        entries = [entry(0, net=0.49), entry(1, net=0.5), entry(2, net=0.51)]
        kept = filter_min_net_speech(entries, 0.5)
        assert [e.utt_id for e in kept] == [entries[1].utt_id, entries[2].utt_id]


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
        with pytest.raises(PoolError, match="insufficient bonafide in ds1"):
            build_pool(manifests, PoolSpec(per_class_per_dataset=10, seed=0))

    def test_min_net_speech_filter_applied_inside(self):
        manifests = self.make_manifests(per_class=30)
        # push 25 bonafide entries of ds0 below the floor: only 5 remain
        manifests[0] = [
            e if not (e.dataset == "ds0" and e.label == "bonafide" and i < 25) else
            ManifestEntry(e.utt_id, e.path, e.label, e.dataset, net_speech_s=0.2)
            for i, e in enumerate(manifests[0])
        ]
        with pytest.raises(PoolError, match="insufficient bonafide in ds0"):
            build_pool(manifests, PoolSpec(per_class_per_dataset=10, seed=0))

    def test_dataset_the_filter_empties_is_a_shortfall(self):
        with pytest.raises(PoolError, match="insufficient bonafide in ds0: 0 < 5"):
            build_pool(self.make_manifests(per_class=10), PoolSpec(per_class_per_dataset=5, min_net_speech_s=1000.0))

    def test_nan_min_net_speech_rejected(self):
        with pytest.raises(ValueError, match="min_net_speech_s must be >= 0"):
            PoolSpec(min_net_speech_s=float("nan"))

    def test_filter_then_pool_composition(self):
        manifests = self.make_manifests(per_class=30)
        spec = PoolSpec(per_class_per_dataset=10, seed=3, min_net_speech_s=0.5)
        pre_filtered = [filter_min_net_speech(m, 0.5) for m in manifests]
        assert build_pool(pre_filtered, spec) == build_pool(manifests, spec)

    def test_paper_pool_structure(self):
        # 7 datasets x 3000 per class -> 21,000 per class
        manifests = self.make_manifests(n_datasets=7, per_class=3000)
        pool = build_pool(manifests, PoolSpec(seed=0))
        assert sum(1 for e in pool if e.label == "spoof") == 21_000
        assert sum(1 for e in pool if e.label == "bonafide") == 21_000
