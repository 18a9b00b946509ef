"""Detection metrics: EER, MDR at a target FAR, pooled/per-dataset/checkpoint
protocols, and DET curves.

Conventions (fixed so results are reproducible across implementations):

* FAR(t)  = fraction of bonafide trials with score >= t (false alarms),
* MDR(t)  = fraction of spoof trials with score < t (missed detections),
* EER is the FAR/MDR crossing with linear interpolation between adjacent
  empirical operating points,
* MDR@FAR is reported at an achievable threshold: the smallest candidate
  threshold (score values, midpoints between neighbours, and one step
  beyond each extreme) whose FAR does not exceed the target.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import LABELS


SCORES_HEADER = ["utt_id", "dataset", "label", "checkpoint_s", "score"]


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class TrialScore:
    utt_id: str
    label: str
    score: float
    dataset: str = "default"
    checkpoint_s: float | None = None

    def __post_init__(self):
        if self.label not in LABELS:
            raise EvalError(f"{self.utt_id}: label must be one of {LABELS}")
        if not math.isfinite(self.score):
            raise EvalError(f"{self.utt_id}: score must be finite")
        if self.checkpoint_s is not None and not (0 < self.checkpoint_s < math.inf):
            raise EvalError(f"{self.utt_id}: checkpoint_s must be positive and finite")


@dataclass(frozen=True)
class MetricReport:
    eer: float
    eer_threshold: float
    mdr_at_far: float
    threshold_at_far: float
    far_target: float
    detection_rate: float
    n_spoof: int
    n_bonafide: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EvalProtocol:
    checkpoints_s: tuple = (2.0, 3.0, 6.0, 9.0, 12.0, 15.0)

    def __post_init__(self):
        cps = tuple(float(c) for c in self.checkpoints_s)
        object.__setattr__(self, "checkpoints_s", cps)
        if any(c <= 0 for c in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
            raise EvalError("checkpoints must be positive and strictly increasing")


@dataclass(frozen=True)
class DetCurve:
    """Operating points (threshold, far, mdr), thresholds ascending."""

    thresholds: np.ndarray
    far: np.ndarray
    mdr: np.ndarray


def _split_scores(trials, context: str = "") -> tuple[np.ndarray, np.ndarray]:
    bona = np.array([t.score for t in trials if t.label == "bonafide"], dtype=np.float64)
    spoof = np.array([t.score for t in trials if t.label == "spoof"], dtype=np.float64)
    if bona.size == 0 or spoof.size == 0:
        where = f" in {context}" if context else ""
        raise EvalError(f"need at least one trial of each class{where}")
    return np.sort(bona), np.sort(spoof)


def _rates_at(thresholds, bona_sorted, spoof_sorted):
    # integer counts first so boundary rates are exact fractions
    far = (bona_sorted.size - np.searchsorted(bona_sorted, thresholds, side="left")) / bona_sorted.size
    mdr = np.searchsorted(spoof_sorted, thresholds, side="left") / spoof_sorted.size
    return far, mdr


def _operating_points(bona_sorted, spoof_sorted):
    vals = np.unique(np.concatenate([bona_sorted, spoof_sorted]))
    thresholds = np.concatenate([[vals[0] - 1.0], vals, [vals[-1] + 1.0]])
    far, mdr = _rates_at(thresholds, bona_sorted, spoof_sorted)
    return thresholds, far, mdr


def _eer_from_points(thresholds, far, mdr):
    diff = far - mdr  # non-increasing, starts at 1, ends at -1
    j = int(np.argmax(diff < 0))
    i = j - 1
    denom = diff[i] - diff[j]
    t = 0.0 if denom == 0.0 else diff[i] / denom
    eer = far[i] + t * (far[j] - far[i])
    threshold = thresholds[i] + t * (thresholds[j] - thresholds[i])
    return float(eer), float(threshold)


def _mdr_candidates(vals: np.ndarray) -> np.ndarray:
    mids = (vals[:-1] + vals[1:]) / 2.0
    return np.sort(np.concatenate([[vals[0] - 1.0], vals, mids, [vals[-1] + 1.0]]))


def evaluate(trials, far_target: float = 0.01, context: str = "") -> MetricReport:
    """EER and MDR@FAR over one trial list, as a full report.

    The only place scores become thresholds; every other metric reads it.
    """
    if not (0.0 < far_target <= 1.0):
        raise EvalError("far_target must be in (0, 1]")
    bona, spoof = _split_scores(trials, context)
    eer, eer_thr = _eer_from_points(*_operating_points(bona, spoof))
    cands = _mdr_candidates(np.unique(np.concatenate([bona, spoof])))
    far, mdr = _rates_at(cands, bona, spoof)
    idx = int(np.argmax(far <= far_target))  # first hit; far is non-increasing
    return MetricReport(
        eer=eer,
        eer_threshold=eer_thr,
        mdr_at_far=float(mdr[idx]),
        threshold_at_far=float(cands[idx]),
        far_target=far_target,
        detection_rate=100.0 * (1.0 - float(mdr[idx])),
        n_spoof=spoof.size,
        n_bonafide=bona.size,
    )


def compute_eer(trials) -> tuple[float, float]:
    """Equal error rate and its (interpolated) threshold."""
    report = evaluate(trials)
    return report.eer, report.eer_threshold


def compute_mdr_at_far(trials, far_target: float = 0.01) -> tuple[float, float]:
    """Missed-detection rate at the smallest achievable threshold with
    FAR <= far_target (no interpolation)."""
    report = evaluate(trials, far_target)
    return report.mdr_at_far, report.threshold_at_far


def pooled_eval(trials, far_target: float = 0.01) -> MetricReport:
    """Single-threshold metrics over the union of all datasets."""
    return evaluate(trials, far_target, context="pool")


def _average_reports(reports, far_target: float) -> MetricReport:
    mean_mdr = float(np.mean([r.mdr_at_far for r in reports]))
    return MetricReport(
        eer=float(np.mean([r.eer for r in reports])),
        eer_threshold=float(np.mean([r.eer_threshold for r in reports])),
        mdr_at_far=mean_mdr,
        threshold_at_far=float(np.mean([r.threshold_at_far for r in reports])),
        far_target=far_target,
        detection_rate=100.0 * (1.0 - mean_mdr),
        n_spoof=sum(r.n_spoof for r in reports),
        n_bonafide=sum(r.n_bonafide for r in reports),
    )


def _evaluate_groups(trials, attr: str, keys, far_target: float, context: str):
    """One report per group of trials sharing `attr`, in sorted order or in
    `keys` order (other groups ignored), plus the average row of the reports."""
    groups: dict = {}
    for t in trials:
        groups.setdefault(getattr(t, attr), []).append(t)
    keys = sorted(groups) if keys is None else [k for k in keys if k in groups]
    if not keys:
        raise EvalError(f"no trials in any {attr} group")
    reports = {k: evaluate(groups[k], far_target, context=context.format(k)) for k in keys}
    return reports, _average_reports(list(reports.values()), far_target)


def per_dataset_eval(trials, far_target: float = 0.01):
    """Per-dataset reports (sorted by name) plus their arithmetic average row."""
    return _evaluate_groups(trials, "dataset", None, far_target, "dataset {}")


def checkpoint_eval(trials, protocol: EvalProtocol = EvalProtocol(), far_target: float = 0.01):
    """Per-checkpoint reports (protocol order) plus their average row.

    Trials missing a longer checkpoint simply do not appear at it; protocol
    checkpoints with no trials at all are skipped, and trials at other
    checkpoints are ignored.
    """
    return _evaluate_groups(trials, "checkpoint_s", protocol.checkpoints_s, far_target, "checkpoint {:g}s")


def det_curve(trials) -> DetCurve:
    """DET staircase: one point per distinct threshold step, plus the
    all-accept and all-reject extremes."""
    bona, spoof = _split_scores(trials)
    thresholds, far, mdr = _operating_points(bona, spoof)
    return DetCurve(thresholds=thresholds, far=far, mdr=mdr)


def eer_from_curve(curve: DetCurve) -> float:
    eer, _ = _eer_from_points(curve.thresholds, curve.far, curve.mdr)
    return eer


def write_det_csv(curve: DetCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "far", "mdr"])
        for t, f, m in zip(curve.thresholds, curve.far, curve.mdr):
            writer.writerow([repr(float(t)), repr(float(f)), repr(float(m))])


def write_scores_csv(trials, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for t in trials:
            cp = "" if t.checkpoint_s is None else repr(float(t.checkpoint_s))
            writer.writerow([t.utt_id, t.dataset, t.label, cp, repr(float(t.score))])


def read_scores_csv(path) -> list[TrialScore]:
    """Parse a scores CSV; a malformed or duplicate row raises EvalError at path:line."""
    trials = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != SCORES_HEADER:
            raise EvalError(f"{path}:1: expected header {','.join(SCORES_HEADER)}")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(SCORES_HEADER):
                raise EvalError(f"{where}: expected {len(SCORES_HEADER)} fields, got {len(row)}")
            # one string object per distinct name keeps large files compact
            utt_id, dataset, label = map(sys.intern, row[:3])
            cp, value = row[3:]
            try:
                trial = TrialScore(utt_id, label, float(value), dataset, float(cp) if cp else None)
            except ValueError as exc:  # EvalError included
                raise EvalError(f"{where}: {exc}") from exc
            key = (utt_id, trial.checkpoint_s)
            if key in seen:
                raise EvalError(f"{where}: duplicate row for {utt_id!r} at checkpoint {cp or 'full'}")
            seen.add(key)
            trials.append(trial)
    return trials
