"""Detection metrics: EER, MDR at a target FAR, pooled/per-dataset/checkpoint
protocols, and DET curves.

Conventions (fixed so results are reproducible across implementations):

* FAR(t)  = fraction of bonafide trials with score >= t (false alarms),
* MDR(t)  = fraction of spoof trials with score < t (missed detections),
* EER is the FAR/MDR crossing with linear interpolation between adjacent
  empirical operating points,
* MDR@FAR is reported at an achievable threshold: the smallest candidate
  threshold (score values, midpoints between neighbours, and one step
  beyond each extreme) whose FAR does not exceed the target,
* the operating points are the distinct scores plus two extremes, which are
  all-accept (FAR 1, MDR 0) and all-reject (FAR 0, MDR 1) by definition: their
  thresholds, one below the lowest score and one above the highest, may round
  onto that score at magnitudes past 2**53.
"""

from __future__ import annotations

import csv
import gc
import itertools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .corpus import LABELS


SCORES_HEADER = ["utt_id", "dataset", "label", "checkpoint_s", "score"]
# rows parsed per step: a read holds the table plus about one chunk of row lists.
# Child ru_maxrss of `det` on a 504,000-row file (2-vCPU Xeon), by chunk rows:
# 65,536 -> 113.9 MB, 16,384 -> 91.5, 8,192 -> 83.6, 4,096 -> 85.5, 2,048 -> 84.6,
# 1,024 -> 91.8; from 2,048 to 8,192 that is within what allocation layout moves it
_CHUNK_ROWS = 4096
# largest |score| a trial may hold: below it, every threshold, midpoint, interpolated EER
# threshold and average of reports that evaluate derives from the scores stays finite
MAX_ABS_SCORE = 1e300


@dataclass(frozen=True)
class TrialScore:
    utt_id: str
    label: str
    score: float
    dataset: str = "default"
    checkpoint_s: float | None = None

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"{self.utt_id}: label must be one of {LABELS}")
        if not abs(self.score) <= MAX_ABS_SCORE:  # NaN fails it too
            raise ValueError(f"{self.utt_id}: score must be finite and within ±{MAX_ABS_SCORE:g}")
        if self.checkpoint_s is not None and not (0 < self.checkpoint_s < math.inf):
            raise ValueError(f"{self.utt_id}: checkpoint_s must be positive and finite")


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Score rows as columns, in row order: ``utt_id`` and ``dataset`` are
    object arrays of interned strings, ``is_spoof`` is bool, ``checkpoint_s``
    is float64 with NaN for a full-length row, and ``score`` is float64."""

    utt_id: np.ndarray
    dataset: np.ndarray
    is_spoof: np.ndarray
    checkpoint_s: np.ndarray
    score: np.ndarray

    @classmethod
    def of(cls, trials) -> ScoreTable:
        """A table unchanged, or the columns of an iterable of TrialScore."""
        if isinstance(trials, cls):
            return trials
        trials = list(trials)
        return cls(
            np.array([t.utt_id for t in trials], dtype=object),
            np.array([t.dataset for t in trials], dtype=object),
            np.array([t.label == "spoof" for t in trials], dtype=bool),
            np.array([math.nan if t.checkpoint_s is None else t.checkpoint_s for t in trials], dtype=np.float64),
            np.array([t.score for t in trials], dtype=np.float64),
        )

    def __len__(self) -> int:
        return self.score.size

    def select(self, mask) -> ScoreTable:
        """The rows where mask is true, in order."""
        return ScoreTable(*(getattr(self, f.name)[mask] for f in fields(self)))

    def rows(self) -> list[TrialScore]:
        """The rows as TrialScore, in order."""
        columns = zip(self.utt_id, self.dataset, self.is_spoof.tolist(), self.checkpoint_s.tolist(), self.score.tolist())
        return [TrialScore(u, "spoof" if s else "bonafide", v, d, None if math.isnan(c) else c)
                for u, d, s, c, v in columns]


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


@dataclass(frozen=True)
class EvalProtocol:
    """The decision checkpoints, in net-speech seconds, checked as they are built, for a run config and
    detect --checkpoints alike: at least one, each finite and above 0, strictly increasing."""

    checkpoints_s: tuple[float, ...] = (2.0, 3.0, 6.0, 9.0, 12.0, 15.0)

    def __post_init__(self):
        cps = self.checkpoints_s
        if not cps:
            raise ValueError("checkpoints_s is empty: no checkpoint to score")
        for c in cps:
            if not 0 < c < math.inf:
                raise ValueError(f"checkpoint {c:g} is not a finite number of seconds above 0")
        for a, b in zip(cps, cps[1:]):
            if b <= a:
                raise ValueError(f"checkpoint {b:g} repeats" if b == a else
                                 f"checkpoint {b:g} follows {a:g}: checkpoints must be strictly increasing")


@dataclass(frozen=True)
class DetCurve:
    """Operating points (threshold, far, mdr), thresholds ascending."""

    thresholds: np.ndarray
    far: np.ndarray
    mdr: np.ndarray


def _operating_points(trials, context: str = ""):
    """(thresholds, far, mdr, n_bonafide, n_spoof) at the all-accept extreme, each distinct score
    ascending, and the all-reject extreme, from one sort of the scores."""
    table = ScoreTable.of(trials)
    order = np.argsort(table.score)
    scores, is_spoof = table.score[order], table.is_spoof[order]
    n_spoof = int(np.count_nonzero(is_spoof))
    n_bona = scores.size - n_spoof
    if n_bona == 0 or n_spoof == 0:
        where = f" in {context}" if context else ""
        raise ValueError(f"need at least one trial of each class{where}")
    first = np.flatnonzero(np.concatenate([[True], scores[1:] != scores[:-1]]))  # each distinct score's first row
    spoof_below = np.concatenate([[0], np.cumsum(is_spoof)])[first]
    # integer counts first so boundary rates are exact fractions; the extremes
    # hold by definition, whatever float64 makes of their thresholds
    far = np.concatenate([[1.0], (n_bona - (first - spoof_below)) / n_bona, [0.0]])
    mdr = np.concatenate([[0.0], spoof_below / n_spoof, [1.0]])
    vals = scores[first]
    thresholds = np.concatenate([[vals[0] - 1.0], vals, [vals[-1] + 1.0]])
    return thresholds, far, mdr, n_bona, n_spoof


def _eer_from_points(thresholds, far, mdr):
    diff = far - mdr  # non-increasing, starts at 1, ends at -1
    j = int(np.argmax(diff < 0))
    i = j - 1  # diff[i] >= 0 > diff[j], so the denominator is positive
    t = diff[i] / (diff[i] - diff[j])
    eer = far[i] + t * (far[j] - far[i])
    threshold = thresholds[i] + t * (thresholds[j] - thresholds[i])
    return float(eer), float(threshold)


def evaluate(trials, far_target: float = 0.01, context: str = "") -> MetricReport:
    """EER and MDR@FAR over one set of trials (a ScoreTable or TrialScore rows), as a full report.

    The only place scores become thresholds; every other metric reads it.
    """
    if not (0.0 < far_target <= 1.0):
        raise ValueError("far_target must be in (0, 1]")
    thresholds, far, mdr, n_bona, n_spoof = _operating_points(trials, context)
    eer, eer_thr = _eer_from_points(thresholds, far, mdr)
    j = int(np.argmax(far <= far_target))  # first hit; far is non-increasing
    threshold = thresholds[j]
    if 1 < j < thresholds.size - 1:  # the rates hold on (score below, score j]: the smallest candidate
        mid = (thresholds[j - 1] + threshold) / 2.0  # is their midpoint, unless it rounds onto either
        threshold = mid if thresholds[j - 1] < mid < threshold else threshold
    return MetricReport(
        eer=eer,
        eer_threshold=eer_thr,
        mdr_at_far=float(mdr[j]),
        threshold_at_far=float(threshold),
        far_target=far_target,
        detection_rate=100.0 * (1.0 - float(mdr[j])),
        n_spoof=n_spoof,
        n_bonafide=n_bona,
    )


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


def _evaluate_groups(trials, column: str, keys, far_target: float, context: str):
    """One report per group of trials sharing a value of `column`, in sorted
    order or in `keys` order (other groups ignored), plus the average row."""
    table = ScoreTable.of(trials)
    values = getattr(table, column)
    masks = {k: values == k for k in (sorted(set(values.tolist())) if keys is None else keys)}
    masks = {k: m for k, m in masks.items() if m.any()}
    if not masks:
        raise ValueError(f"no trials in any {column} group")
    reports = {k: evaluate(table.select(m), far_target, context=context.format(k)) for k, m in masks.items()}
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
    thresholds, far, mdr, _, _ = _operating_points(trials)
    return DetCurve(thresholds=thresholds, far=far, mdr=mdr)


def write_det_csv(curve: DetCurve, path) -> None:
    """One `threshold,far,mdr` line per point, floats as repr, CRLF ends: the bytes csv.writer would write."""
    points = zip(curve.thresholds.tolist(), curve.far.tolist(), curve.mdr.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("threshold,far,mdr\r\n")
        fh.writelines(f"{t!r},{f!r},{m!r}\r\n" for t, f, m in points)


def write_scores_csv(trials, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for t in trials:
            cp = "" if t.checkpoint_s is None else repr(float(t.checkpoint_s))
            writer.writerow([t.utt_id, t.dataset, t.label, cp, repr(float(t.score))])


def _floats(strings) -> np.ndarray:
    """float() of each string; all NaN when float() rejects one, which no rule lets pass."""
    try:
        return np.fromiter(map(float, strings), np.float64, len(strings))
    except ValueError:
        return np.full(len(strings), math.nan)


def _parse_chunk(rows) -> tuple | None:
    """The columns of a chunk of non-blank CSV rows, or None when a row breaks a
    rule; _first_fault says which and why."""
    if any(len(row) != len(SCORES_HEADER) for row in rows):
        return None
    utt_id, dataset, label, cp_text, score_text = zip(*rows)
    # one string object per distinct name keeps large files compact
    utt_id = np.array(list(map(sys.intern, utt_id)), dtype=object)
    dataset = np.array(list(map(sys.intern, dataset)), dtype=object)
    label = np.array(label, dtype=object)
    is_spoof = label == "spoof"
    # a file holds a few checkpoint texts: each is parsed once, and "" is a full-length row
    texts = list(set(cp_text) - {""})
    values = _floats(texts)
    if not ((values > 0) & (values < math.inf)).all():
        return None
    cp_of = dict(zip(texts, values.tolist()))
    cp_of[""] = math.nan
    cp = np.fromiter(map(cp_of.__getitem__, cp_text), np.float64, len(cp_text))
    score = _floats(score_text)
    valid = (is_spoof | (label == "bonafide")) & (np.abs(score) <= MAX_ABS_SCORE)
    return (utt_id, dataset, is_spoof, cp, score) if valid.all() else None


def _has_duplicate(table: ScoreTable) -> bool:
    """Whether two rows have the same (utt_id, checkpoint_s)."""
    # names are interned, so equal names are one object; full-length rows are
    # keyed 0 (a NaN key would equal nothing), which no valid checkpoint is
    names = np.fromiter(map(id, table.utt_id), np.uintp, len(table))
    cps = np.nan_to_num(table.checkpoint_s, nan=0.0)
    order = np.lexsort((cps, names))
    names, cps = names[order], cps[order]
    return bool(((names[1:] == names[:-1]) & (cps[1:] == cps[:-1])).any())


def _first_fault(path) -> str:
    """`path:line: message` for the first row, in file order, that breaks a rule:
    the header, the field count, float() of the score and of the checkpoint,
    TrialScore, an earlier row with the same (utt_id, checkpoint_s), or a line
    the csv module cannot split."""
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error:  # a header line that cannot be split is no header
            header = None
        if header != SCORES_HEADER:
            return f"{path}:1: expected header {','.join(SCORES_HEADER)}"
        try:
            for row in filter(None, reader):  # blank lines are skipped
                if len(row) != len(SCORES_HEADER):
                    return f"{path}:{reader.line_num}: expected {len(SCORES_HEADER)} fields, got {len(row)}"
                utt_id, dataset, label, cp_text, score_text = row
                try:
                    score, cp = float(score_text), float(cp_text) if cp_text else None
                    TrialScore(utt_id, label, score, dataset, cp)
                except ValueError as exc:
                    return f"{path}:{reader.line_num}: {exc}"
                if (utt_id, cp) in seen:
                    return f"{path}:{reader.line_num}: duplicate row for {utt_id!r} at checkpoint {cp_text or 'full'}"
                seen.add((utt_id, cp))
        except csv.Error as exc:
            return f"{path}:{reader.line_num}: {exc}"


def read_scores_csv(path) -> ScoreTable:
    """Parse a scores CSV into columns, a chunk of rows at a time, holding about one
    chunk beyond the table; a file that breaks a rule raises ValueError naming the
    first row that does, as path:line."""
    chunks, clean = [], False
    gc_was_enabled = gc.isenabled()
    gc.disable()  # parsing makes millions of objects and no cycles
    try:
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            clean = next(rows, None) == SCORES_HEADER
            rows = filter(None, rows)  # blank lines are skipped
            while clean and (chunk := list(itertools.islice(rows, _CHUNK_ROWS))):
                chunks.append(_parse_chunk(chunk))
                del chunk  # its row lists go before the next chunk is read
                clean = chunks[-1] is not None
    except csv.Error:  # a line that cannot be split, a field over csv.field_size_limit() say
        clean = False
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()
    if clean:
        table = ScoreTable(*map(np.concatenate, zip(*chunks))) if chunks else ScoreTable.of(())
        del chunks  # the joined columns are the only copy from here on
        if not _has_duplicate(table):
            return table
    raise ValueError(_first_fault(path))
