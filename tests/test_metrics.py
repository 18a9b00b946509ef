import csv
import io
import math
import re
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spoofbench import (
    DetCurve,
    EvalProtocol,
    MetricReport,
    ScoreTable,
    TrialScore,
    checkpoint_eval,
    det_curve,
    per_dataset_eval,
    pooled_eval,
)
from spoofbench import metrics
from spoofbench.corpus import LABELS
from spoofbench.metrics import (
    evaluate,
    read_scores_csv,
    write_det_csv,
    write_scores_csv,
)

from oracles import eer_from_curve, eer_oracle, mdr_at_far_oracle


def trials_from(bona, spoof, dataset="default", checkpoint_s=None):
    out = [
        TrialScore(f"b{i}", "bonafide", float(s), dataset, checkpoint_s)
        for i, s in enumerate(bona)
    ]
    out += [
        TrialScore(f"s{i}", "spoof", float(s), dataset, checkpoint_s)
        for i, s in enumerate(spoof)
    ]
    return out


def gaussian_trials(seed, n_min=10, n_max=1000):
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(n_min, n_max + 1))
    ns = int(rng.integers(n_min, n_max + 1))
    bona = rng.normal(0.0, 1.0, nb)
    spoof = rng.normal(rng.uniform(0.2, 2.0), 1.0, ns)
    return list(bona), list(spoof)


class TestComputeEer:
    def test_perfect_separation(self):
        eer = evaluate(trials_from([0.1, 0.2], [0.8, 0.9])).eer
        assert eer == 0.0

    def test_inverted_labels(self):
        eer = evaluate(trials_from([0.8, 0.9], [0.1, 0.2])).eer
        assert eer == 1.0

    def test_pinned_example(self):
        # bonafide {0.1, 0.4, 0.6}, spoof {0.3, 0.7, 0.9}: oracle value 1/3
        # with the crossing exactly at threshold 0.6
        trials = trials_from([0.1, 0.4, 0.6], [0.3, 0.7, 0.9])
        report = evaluate(trials)
        eer, thr = report.eer, report.eer_threshold
        oracle_eer, oracle_thr = eer_oracle([0.1, 0.4, 0.6], [0.3, 0.7, 0.9])
        assert eer == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert eer == pytest.approx(oracle_eer, abs=1e-12)
        assert thr == pytest.approx(oracle_thr, abs=1e-12)

    def test_scores_are_bounded(self):
        """The bound is inclusive, and every threshold evaluate derives at it is finite."""
        report = evaluate(trials_from([-1e300, 1e300], [1e300, -1e300]))
        assert all(math.isfinite(v) for v in asdict(report).values())
        for score in (np.nextafter(1e300, math.inf), np.nextafter(-1e300, -math.inf)):
            with pytest.raises(ValueError, match=re.escape("u: score must be finite and within ±1e+300")):
                TrialScore("u", "spoof", float(score))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="^need at least one trial of each class$"):
            evaluate([TrialScore("a", "spoof", 0.5)])

    @pytest.mark.parametrize("value", [1.0, 1e20])
    def test_one_tie_is_half_at_any_scale(self, value):
        assert evaluate(trials_from([value], [value])).eer == 0.5

    def test_tied_scores(self):
        trials = trials_from([0.5, 0.5, 0.2], [0.5, 0.5, 0.9])
        eer = evaluate(trials).eer
        bona, spoof = [0.5, 0.5, 0.2], [0.5, 0.5, 0.9]
        assert eer == pytest.approx(eer_oracle(bona, spoof)[0], abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_oracle_property(self, seed):
        bona, spoof = gaussian_trials(seed, 5, 60)
        report = evaluate(trials_from(bona, spoof))
        eer, thr = report.eer, report.eer_threshold
        oracle_eer, oracle_thr = eer_oracle(bona, spoof)
        assert abs(eer - oracle_eer) < 1e-9
        assert abs(thr - oracle_thr) < 1e-9


class TestMdrAtFar:
    def test_perfect_separation_zero(self):
        for target in (0.001, 0.01, 0.5, 1.0):
            mdr = evaluate(trials_from([0.1, 0.2], [0.8, 0.9]), target).mdr_at_far
            assert mdr == 0.0

    def test_degenerate_target_one(self):
        report = evaluate(trials_from([0.4, 0.6], [0.3, 0.8]), 1.0)
        mdr, thr = report.mdr_at_far, report.threshold_at_far
        assert mdr == 0.0
        assert thr < 0.3

    def test_matches_oracle_random_overlap(self):
        rng = np.random.default_rng(0)
        bona = list(rng.normal(0, 1, 200))
        spoof = list(rng.normal(0.5, 1, 200))
        report = evaluate(trials_from(bona, spoof), 0.01)
        mdr, thr = report.mdr_at_far, report.threshold_at_far
        omdr, othr = mdr_at_far_oracle(bona, spoof, 0.01)
        assert mdr == omdr
        assert thr == othr

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.001, 0.01, 0.05, 0.25, 1.0]))
    def test_matches_oracle_property(self, seed, target):
        bona, spoof = gaussian_trials(seed, 5, 60)
        report = evaluate(trials_from(bona, spoof), target)
        mdr, thr = report.mdr_at_far, report.threshold_at_far
        omdr, othr = mdr_at_far_oracle(bona, spoof, target)
        assert abs(mdr - omdr) < 1e-9
        assert abs(thr - othr) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_in_target(self, seed):
        bona, spoof = gaussian_trials(seed, 5, 60)
        trials = trials_from(bona, spoof)
        mdrs = [evaluate(trials, t).mdr_at_far for t in (0.005, 0.01, 0.05, 0.2, 1.0)]
        assert all(a >= b for a, b in zip(mdrs, mdrs[1:]))

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match=r"^far_target must be in \(0, 1\]$"):
            evaluate(trials_from([0.1], [0.9]), 0.0)


class TestScoreOrderInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_increasing_transform_preserves_metrics(self, seed):
        bona, spoof = gaussian_trials(seed, 5, 50)
        bona.append(max(bona + spoof) + 1.0)  # a bonafide top score: only all-reject reaches FAR 0
        base = trials_from(bona, spoof)
        # past 2**53, top + 1.0 rounds onto top, and the extremes must hold all the same
        for transform in (lambda v: 3.0 * v + 1.0, lambda v: v * 2.0**70):
            transformed = trials_from([transform(b) for b in bona], [transform(s) for s in spoof])
            a, b = evaluate(base), evaluate(transformed)
            assert a.eer == pytest.approx(b.eer, abs=1e-9)
            assert a.mdr_at_far == pytest.approx(b.mdr_at_far, abs=1e-9)
            curve_a, curve_b = det_curve(base), det_curve(transformed)
            assert np.allclose(curve_a.far, curve_b.far)
            assert np.allclose(curve_a.mdr, curve_b.mdr)


class TestPooledEval:
    def test_duplication_invariance(self):
        trials = trials_from([0.1, 0.4, 0.6], [0.3, 0.7, 0.9], dataset="a")
        double = trials + trials_from([0.1, 0.4, 0.6], [0.3, 0.7, 0.9], dataset="b")
        one, two = pooled_eval(trials), pooled_eval(double)
        assert one.eer == pytest.approx(two.eer, abs=1e-12)
        assert one.mdr_at_far == pytest.approx(two.mdr_at_far, abs=1e-12)

    def test_counts_sum_over_datasets(self):
        a = trials_from([0.1, 0.2], [0.8, 0.9, 1.0], dataset="a")
        b = trials_from([0.3], [0.5, 0.6], dataset="b")
        report = pooled_eval(a + b)
        assert report.n_bonafide == 3
        assert report.n_spoof == 5

    def test_detection_rate_convention(self):
        rng = np.random.default_rng(1)
        trials = trials_from(rng.normal(0, 1, 50), rng.normal(1, 1, 50))
        report = pooled_eval(trials)
        assert report.detection_rate == 100.0 * (1.0 - report.mdr_at_far)


class TestPerDatasetEval:
    def test_single_dataset_average_is_itself(self):
        trials = trials_from([0.1, 0.4], [0.7, 0.9], dataset="only")
        reports, avg = per_dataset_eval(trials)
        assert avg.eer == reports["only"].eer
        assert avg.mdr_at_far == reports["only"].mdr_at_far

    def test_average_of_zero_and_one(self):
        perfect = trials_from([0.1, 0.2], [0.8, 0.9], dataset="good")
        inverted = trials_from([0.8, 0.9], [0.1, 0.2], dataset="bad")
        _, avg = per_dataset_eval(perfect + inverted)
        assert avg.eer == pytest.approx(0.5)

    def test_seven_dataset_average_matches_recomputation(self):
        rng = np.random.default_rng(2)
        all_trials = []
        expected_eers, expected_mdrs = [], []
        for d in range(7):
            bona = list(rng.normal(0, 1, 40))
            spoof = list(rng.normal(rng.uniform(0.3, 1.5), 1, 40))
            sub = trials_from(bona, spoof, dataset=f"d{d}")
            all_trials += sub
            report = evaluate(sub, 0.01)
            expected_eers.append(report.eer)
            expected_mdrs.append(report.mdr_at_far)
        _, avg = per_dataset_eval(all_trials)
        assert abs(avg.eer - np.mean(expected_eers)) < 1e-12
        assert abs(avg.mdr_at_far - np.mean(expected_mdrs)) < 1e-12

    def test_single_class_dataset_named(self):
        trials = trials_from([0.1], [0.9], dataset="ok") + [
            TrialScore("x", "spoof", 0.5, "broken")
        ]
        with pytest.raises(ValueError, match="broken"):
            per_dataset_eval(trials)


class TestCheckpointEval:
    CPS = (2.0, 3.0, 6.0, 9.0, 12.0, 15.0)

    def make_checkpoint_trials(self, seed=3):
        rng = np.random.default_rng(seed)
        trials = []
        for cp in self.CPS:
            bona = list(rng.normal(0, 1, 30))
            spoof = list(rng.normal(1.0, 1, 30))
            trials += trials_from(bona, spoof, checkpoint_s=cp)
        return trials

    def test_identical_scores_at_all_checkpoints(self):
        trials = []
        for cp in self.CPS:
            trials += trials_from([0.1, 0.4, 0.6], [0.3, 0.7, 0.9], checkpoint_s=cp)
        _, report = checkpoint_eval(trials, EvalProtocol())
        single = evaluate(trials_from([0.1, 0.4, 0.6], [0.3, 0.7, 0.9]), 0.01)
        assert report.eer == pytest.approx(single.eer, abs=1e-12)
        assert report.mdr_at_far == pytest.approx(single.mdr_at_far, abs=1e-12)

    def test_two_checkpoint_mean(self):
        # 100 distinct bonafide scores put the FAR=1% threshold at 98.5;
        # place 1 of 10 (resp. 3 of 10) spoof scores below it
        bona = list(range(100))
        cp2 = trials_from(bona, [50] + list(range(100, 109)), checkpoint_s=2.0)
        cp3 = trials_from(bona, [50, 51, 52] + list(range(100, 107)), checkpoint_s=3.0)
        _, report = checkpoint_eval(cp2 + cp3, EvalProtocol(checkpoints_s=(2.0, 3.0)))
        assert report.mdr_at_far == pytest.approx(0.2, abs=1e-12)
        assert report.detection_rate == pytest.approx(80.0, abs=1e-9)

    def test_protocol_mean_matches_per_checkpoint_oracle(self):
        trials = self.make_checkpoint_trials()
        per_cp, report = checkpoint_eval(trials, EvalProtocol())
        assert set(per_cp) == set(self.CPS)
        assert abs(report.eer - np.mean([r.eer for r in per_cp.values()])) < 1e-12
        assert abs(report.mdr_at_far - np.mean([r.mdr_at_far for r in per_cp.values()])) < 1e-12

    def test_missing_longer_checkpoints_skipped(self):
        trials = self.make_checkpoint_trials()
        short = [t for t in trials if t.checkpoint_s <= 6.0]
        per_cp, report = checkpoint_eval(short, EvalProtocol())
        assert set(per_cp) == {2.0, 3.0, 6.0}
        assert abs(report.eer - np.mean([r.eer for r in per_cp.values()])) < 1e-12

    def test_single_class_checkpoint_rejected(self):
        trials = trials_from([0.1], [0.9], checkpoint_s=2.0) + [
            TrialScore("z", "spoof", 0.5, checkpoint_s=3.0)
        ]
        with pytest.raises(ValueError, match="checkpoint 3"):
            checkpoint_eval(trials, EvalProtocol())

    @pytest.mark.parametrize("checkpoints, message", [
        ((3.0, 2.0), "checkpoint 2 follows 3: checkpoints must be strictly increasing"),
        ((2.0, 3.0, 3.0), "checkpoint 3 repeats"),
        ((0.0, 2.0), "checkpoint 0 is not a finite number of seconds above 0"),
        ((math.nan,), "checkpoint nan is not a finite number of seconds above 0"),
        ((2.0, math.inf), "checkpoint inf is not a finite number of seconds above 0"),
        ((), "checkpoints_s is empty: no checkpoint to score"),
    ])
    def test_protocol_validation(self, checkpoints, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EvalProtocol(checkpoints_s=checkpoints)


class TestDetCurve:
    def test_perfect_separation_has_origin_point(self):
        curve = det_curve(trials_from([0.1, 0.2], [0.8, 0.9]))
        assert ((curve.far == 0.0) & (curve.mdr == 0.0)).any()

    def test_monotone_staircase(self):
        rng = np.random.default_rng(4)
        curve = det_curve(trials_from(rng.normal(0, 1, 80), rng.normal(0.7, 1, 80)))
        assert (np.diff(curve.far) <= 0).all()
        assert (np.diff(curve.mdr) >= 0).all()
        assert (np.diff(curve.thresholds) > 0).all()

    def test_endpoints(self):
        """All-accept first and all-reject last, also where float64 rounds the top score + 1 onto it."""
        for bona, spoof in (([0.4, 0.5], [0.45, 0.55]), ([0.5e20, 0.55e20], [0.4e20, 0.45e20])):
            curve = det_curve(trials_from(bona, spoof))
            assert curve.far[0] == 1.0 and curve.mdr[0] == 0.0
            assert curve.far[-1] == 0.0 and curve.mdr[-1] == 1.0

    def test_eer_recoverable_from_curve(self):
        rng = np.random.default_rng(5)
        trials = trials_from(rng.normal(0, 1, 100), rng.normal(0.8, 1, 100))
        curve = det_curve(trials)
        assert abs(eer_from_curve(curve) - evaluate(trials).eer) < 1e-9

    def test_csv_roundtrip(self, tmp_path):
        trials = trials_from([0.1, 0.4], [0.3, 0.9])
        curve = det_curve(trials)
        path = tmp_path / "det.csv"
        write_det_csv(curve, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["threshold", "far", "mdr"]
        fars = [float(r[1]) for r in rows[1:]]
        assert fars == list(curve.far)


    def test_csv_bytes_pinned(self, tmp_path):
        """The header and one line per point, floats as repr, CRLF line ends."""
        curve = DetCurve(np.array([-0.5, 1e-20, 0.1 + 0.2, 1.5]), np.array([1.0, 2 / 3, 0.5, 0.0]),
                         np.array([0.0, 0.25, 1 / 3, 1.0]))
        path = tmp_path / "det.csv"
        write_det_csv(curve, path)
        assert path.read_bytes() == (b"threshold,far,mdr\r\n"
                                     b"-0.5,1.0,0.0\r\n"
                                     b"1e-20,0.6666666666666666,0.25\r\n"
                                     b"0.30000000000000004,0.5,0.3333333333333333\r\n"
                                     b"1.5,0.0,1.0\r\n")


class TestScoresCsv:
    def test_roundtrip(self, tmp_path):
        trials = trials_from([0.12345678901234], [0.9], dataset="dsA") + trials_from(
            [0.3], [0.7], dataset="dsB", checkpoint_s=6.0
        )
        path = tmp_path / "scores.csv"
        write_scores_csv(trials, path)
        back = read_scores_csv(path).rows()
        assert back == trials

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_scores_csv(path)

    def test_header_the_csv_module_cannot_split(self, tmp_path):
        """A header field over csv.field_size_limit() is no header, not a csv.Error."""
        path = tmp_path / "scores.csv"
        path.write_text("u" * (csv.field_size_limit() + 1) + ",dataset,label,checkpoint_s,score\na,d,spoof,,0.5\n")
        with pytest.raises(ValueError) as info:
            read_scores_csv(path)
        assert str(info.value) == f"{path}:1: expected header utt_id,dataset,label,checkpoint_s,score"

    def test_oversized_field_named(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("utt_id,dataset,label,checkpoint_s,score\na,d,spoof,,0.5\n" + "u" * 200_000 + ",d,spoof,,0.5\n")
        with pytest.raises(ValueError) as info:
            read_scores_csv(path)
        assert str(info.value) == f"{path}:3: field larger than field limit (131072)"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.builds(
            TrialScore,
            utt_id=st.text(max_size=6),
            label=st.sampled_from(LABELS),
            score=st.floats(-metrics.MAX_ABS_SCORE, metrics.MAX_ABS_SCORE),
            dataset=st.text(max_size=4),
            checkpoint_s=st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        ),
        max_size=12,
        unique_by=lambda t: (t.utt_id, t.checkpoint_s),
    ))
    def test_roundtrip_property(self, tmp_path_factory, trials):
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        write_scores_csv(trials, path)
        assert read_scores_csv(path).rows() == trials

    def test_peak_memory_near_the_table(self, tmp_path):
        """Reading holds about one chunk of rows beyond the table it returns: the traced
        peak is at most 3x the memory the table holds (12x with the whole file's rows at once)."""
        scores = np.random.default_rng(9).normal(size=56_000).tolist()
        lines = [",".join(metrics.SCORES_HEADER)]
        for i in range(8_000):  # full length and six checkpoints per trial
            for j, cp in enumerate(("", "2.0", "3.0", "6.0", "9.0", "12.0", "15.0")):
                lines.append(f"t{i:05d},ds{i % 12},{LABELS[i % 2]},{cp},{scores[7 * i + j]!r}")
        path, small = tmp_path / "scores.csv", tmp_path / "small.csv"
        path.write_text("\n".join(lines) + "\n")
        small.write_text("\n".join(lines[:15]) + "\n")
        read_scores_csv(small)  # first-call caches outside the measurement
        tracemalloc.start()
        try:
            table = read_scores_csv(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 56_000
        assert peak <= 3 * held, peak / held

    def test_metrics_of_table_equal_metrics_of_rows(self, tmp_path):
        rng = np.random.default_rng(8)
        trials = []
        for ds in ("dsB", "dsA"):
            for cp in (None, 3.0, 2.0):
                trials += trials_from(rng.normal(0, 1, 9), rng.normal(1, 1, 7), ds, cp)
        trials = [TrialScore(f"{t.utt_id}{t.dataset}", t.label, t.score, t.dataset, t.checkpoint_s) for t in trials]
        path = tmp_path / "scores.csv"
        write_scores_csv(trials, path)
        table = read_scores_csv(path)
        assert ScoreTable.of(table) is table
        full = [t for t in trials if t.checkpoint_s is None]
        assert pooled_eval(table.select(np.isnan(table.checkpoint_s))) == pooled_eval(full)
        assert per_dataset_eval(table.select(np.isnan(table.checkpoint_s))) == per_dataset_eval(full)
        assert checkpoint_eval(table, EvalProtocol((2.0, 3.0))) == checkpoint_eval(trials, EvalProtocol((2.0, 3.0)))
        curve_table, curve_rows = det_curve(table), det_curve(trials)
        assert np.array_equal(curve_table.thresholds, curve_rows.thresholds)
        assert np.array_equal(curve_table.far, curve_rows.far)


class TestScoresCsvChunks:
    """A clean file is read a chunk at a time; a refused one is read again row
    by row, so the first bad row in file order is named at its path:line on
    either side of a chunk boundary."""

    CHUNK = 4  # data rows 0-3 are lines 2-5, rows 4-7 lines 6-9, rows 8-9 lines 10-11

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(metrics, "_CHUNK_ROWS", self.CHUNK)

    def write(self, tmp_path, edits=(), blank_before=None):
        rows = [f"u{i},ds,{LABELS[i % 2]},,0.{i}" for i in range(10)]
        for i, row in edits:
            rows[i] = row
        if blank_before is not None:
            rows.insert(blank_before, "")
        path = tmp_path / "scores.csv"
        path.write_text("\n".join([",".join(metrics.SCORES_HEADER), *rows]) + "\n")
        return path

    @pytest.mark.parametrize("edits, blank_before, line, message", [
        ([(3, "u3,ds,spoof,,0.3,x")], None, 5, "expected 5 fields, got 6"),
        ([(4, "u4,ds,bonafide,,nan")], None, 6, "u4: score must be finite and within ±1e+300"),
        ([(3, "u3,ds,fake,,0.3")], None, 5, "u3: label must be one of ('bonafide', 'spoof')"),
        ([(4, "u4,ds,bonafide,0,0.4")], None, 6, "u4: checkpoint_s must be positive and finite"),
        ([(4, "u4,ds,bonafide,two,0.4")], None, 6, "could not convert string to float: 'two'"),
        ([(4, "u3,ds,spoof,,0.4")], None, 6, "duplicate row for 'u3' at checkpoint full"),
        ([(3, "u3,ds,spoof,2,0.3"), (4, "u3,ds,spoof,2.0,0.4")], None, 6, "duplicate row for 'u3' at checkpoint 2.0"),
        # a duplicate in the second chunk comes before a bad row in the third
        ([(1, "u1,ds,spoof,,0.1"), (6, "u1,ds,spoof,,0.6"), (9, "u9,ds,spoof")], None, 8,
         "duplicate row for 'u1' at checkpoint full"),
        # a bad row in the second chunk comes before a duplicate pair around it
        ([(2, "u2,ds,spoof,,0.2"), (5, "u5,ds,spoof,-1,0.5"), (8, "u2,ds,spoof,,0.8")], None, 7,
         "u5: checkpoint_s must be positive and finite"),
        # a blank line is skipped but counted
        ([(4, "u4,ds,bonafide,,inf")], 4, 7, "u4: score must be finite and within ±1e+300"),
    ])
    def test_first_bad_row_named(self, tmp_path, edits, blank_before, line, message):
        path = self.write(tmp_path, edits, blank_before)
        with pytest.raises(ValueError) as info:
            read_scores_csv(path)
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_chunks_join_in_order(self, tmp_path):
        path = self.write(tmp_path, blank_before=5)
        table = read_scores_csv(path)
        assert list(table.utt_id) == [f"u{i}" for i in range(10)]
        assert table.score.tolist() == [float(f"0.{i}") for i in range(10)]
        assert table.is_spoof.tolist() == [i % 2 == 1 for i in range(10)]
        assert np.isnan(table.checkpoint_s).all()

    # kind: the row written in place of row {u}, and the message it gets; the
    # rows that break two rules pin the order of the rules within a row
    ROW_EDITS = {
        "6 fields": ("{u},ds,spoof,,0.5,x", "expected 5 fields, got 6"),
        "4 fields": ("{u},ds,spoof,0.5", "expected 5 fields, got 4"),
        "6 fields, text score": ("{u},ds,spoof,,abc,x", "expected 5 fields, got 6"),
        "bad label": ("{u},ds,fake,,0.5", f"{{u}}: label must be one of {LABELS}"),
        "nan score": ("{u},ds,spoof,,nan", "{u}: score must be finite and within ±1e+300"),
        "inf score": ("{u},ds,bonafide,,-inf", "{u}: score must be finite and within ±1e+300"),
        "score past the bound": ("{u},ds,bonafide,,-1.0000000000000002e+300",  # the next float past -1e300
                                 "{u}: score must be finite and within ±1e+300"),
        "text score": ("{u},ds,spoof,,abc", "could not convert string to float: 'abc'"),
        "nan checkpoint": ("{u},ds,spoof,nan,0.5", "{u}: checkpoint_s must be positive and finite"),
        "inf checkpoint": ("{u},ds,spoof,inf,0.5", "{u}: checkpoint_s must be positive and finite"),
        "zero checkpoint": ("{u},ds,spoof,0,0.5", "{u}: checkpoint_s must be positive and finite"),
        "negative checkpoint": ("{u},ds,spoof,-1,0.5", "{u}: checkpoint_s must be positive and finite"),
        "text checkpoint": ("{u},ds,spoof,two,0.5", "could not convert string to float: 'two'"),
        "text score, bad label": ("{u},ds,fake,,abc", "could not convert string to float: 'abc'"),
        "text score, text checkpoint": ("{u},ds,spoof,two,abc", "could not convert string to float: 'abc'"),
        "text checkpoint, bad label": ("{u},ds,fake,two,0.5", "could not convert string to float: 'two'"),
        "bad label, nan score": ("{u},ds,fake,,nan", f"{{u}}: label must be one of {LABELS}"),
        "nan score, zero checkpoint": ("{u},ds,spoof,0,nan", "{u}: score must be finite and within ±1e+300"),
        "field over the csv limit": ("{u}" + "x" * 140_000 + ",ds,spoof,,0.5", "field larger than field limit (131072)"),
        "quoted newline": ("{u}\nx,ds,bonafide,,0.25", None),  # a valid row on two lines, its first field quoted
    }
    # kind: the checkpoints of the first and second row of a pair with the same utt_id
    DUPLICATES = {"duplicate full": ("", ""), "duplicate 2": ("2", "2"), "duplicate 2.0": ("2", "2.0")}

    @staticmethod
    @st.composite
    def edited_files(draw):
        """(file text, chunk rows, the expected line and message or None, the rows as TrialScore or None)."""
        cls = TestScoresCsvChunks
        kinds = draw(st.lists(st.sampled_from([*cls.ROW_EDITS, *cls.DUPLICATES, "bad header"]), max_size=2))
        n = draw(st.integers(sum(2 if k in cls.DUPLICATES else k in cls.ROW_EDITS for k in kinds), 12))
        rows = [[f"u{i}", f"ds{i % 3}", draw(st.sampled_from(LABELS)),
                 draw(st.just("") | st.floats(0, exclude_min=True, allow_infinity=False).map(repr)),
                 repr(draw(st.floats(-metrics.MAX_ABS_SCORE, metrics.MAX_ABS_SCORE)))] for i in range(n)]
        free, faults = draw(st.permutations(range(n))), {}  # each edit takes rows of its own; row -> message
        for kind in kinds:
            if kind in cls.DUPLICATES:
                first, second = sorted([free.pop(), free.pop()])
                cp1, cp2 = cls.DUPLICATES[kind]
                rows[first][3], rows[second][:4] = cp1, [f"u{first}", "ds", "bonafide", cp2]
                faults[second] = f"duplicate row for 'u{first}' at checkpoint {cp2 or 'full'}"
            elif kind in cls.ROW_EDITS:
                i = free.pop()
                text, message = cls.ROW_EDITS[kind]
                rows[i] = text.format(u=f"u{i}").split(",")
                if message:
                    faults[i] = message.format(u=f"u{i}")
        blanks = draw(st.lists(st.integers(0, n), max_size=3))  # a blank line before row i, or at the end
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["utt_id", "dataset", "label", "score"] if "bad header" in kinds else metrics.SCORES_HEADER)
        line_of = []  # the line each row ends on
        for i in range(n + 1):
            writer.writerows([[]] * blanks.count(i))
            if i < n:
                writer.writerow(rows[i])
                line_of.append(out.getvalue().count("\n"))
        if "bad header" in kinds:
            expected = (1, f"expected header {','.join(metrics.SCORES_HEADER)}")
        else:
            expected = min(((line_of[i], message) for i, message in faults.items()), default=None)
        trials = None if expected else [TrialScore(u, label, float(score), ds, float(cp) if cp else None)
                                        for u, ds, label, cp, score in rows]
        return out.getvalue(), draw(st.integers(1, 5)), expected, trials

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=edited_files())
    def test_first_fault_named_property(self, tmp_path_factory, case):
        """The first row in file order that breaks a rule, or the second of a duplicate
        pair, is named at the line it ends on, whatever the chunk size; a file with
        no such row reads back as written."""
        text, chunk_rows, expected, trials = case
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        path.write_text(text)
        with mock.patch.object(metrics, "_CHUNK_ROWS", chunk_rows):
            if expected is None:
                assert read_scores_csv(path).rows() == trials
            else:
                with pytest.raises(ValueError) as info:
                    read_scores_csv(path)
                assert str(info.value) == f"{path}:{expected[0]}: {expected[1]}"


class TestMetricReport:
    def test_asdict_fields(self):
        report = evaluate(trials_from([0.1, 0.4], [0.7, 0.9]), 0.01)
        doc = asdict(report)
        assert set(doc) == {
            "eer", "eer_threshold", "mdr_at_far", "threshold_at_far",
            "far_target", "detection_rate", "n_spoof", "n_bonafide",
        }
        assert doc["far_target"] == 0.01
