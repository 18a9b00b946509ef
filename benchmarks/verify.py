"""Output checks for one measured pass of a workload.

Structure is checked for any seed: every planned utterance has exactly its
protocol rows, planned below-floor entries and only those are skipped,
scores are finite, eval and DET files parse and agree with an independent
computation from the score CSV, and presented audio has the right format.
For a seed with a stored reference (``reference/<workload>-seed<n>.json``)
the outputs must also match it: scores within ``SCORE_REL_TOL``, the eval
report and DET CSV byte for byte, channel outputs within a few PCM steps.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import CHECKPOINTS_S, MIN_NET_SPEECH_S, Plan

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SCORE_REL_TOL = 1e-10
# A few PCM16 rounding flips per file are tolerated in channel outputs.
PCM_FLIPS = 8


@dataclass
class Outcome:
    """Per-item results of one pass; attempted = ok + skipped + failed."""

    ok: int = 0
    skipped: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg)

    def add(self, other: "Outcome") -> None:
        self.ok += other.ok
        self.skipped += other.skipped
        self.failed += other.failed
        self.errors += other.errors

    @property
    def attempted(self) -> int:
        return self.ok + self.skipped + self.failed


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def reference_path(plan: Plan) -> Path:
    return REFERENCE_DIR / f"{plan.workload}-seed{plan.seed}.json"


def load_reference(plan: Plan):
    path = reference_path(plan)
    return json.loads(path.read_text()) if path.is_file() else None


def read_scores(path) -> dict:
    """utt_id -> list of (checkpoint_s or None, score) in file order."""
    by_utt: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["utt_id", "dataset", "label", "checkpoint_s", "score"]:
            raise ValueError(f"{path}: unexpected header")
        for utt, _ds, _label, cp, s in reader:
            by_utt.setdefault(utt, []).append((float(cp) if cp else None, float(s)))
    return by_utt


def check_scores(plan: Plan, exit_codes, reference=None) -> Outcome:
    """One item per planned manifest entry."""
    out = Outcome()
    try:
        rows = read_scores(plan.outputs[0])
    except (OSError, ValueError) as exc:
        out.fail(f"scores unreadable: {exc}")
        rows = {}
    if any(code != 0 for code in exit_codes):
        out.fail(f"detect exited with {exit_codes}")
    expected_cps = plan.expect["checkpoints"] or [None]
    for utt in plan.expect["scored"]:
        got = rows.pop(utt, [])
        if [cp for cp, _ in got] != expected_cps:
            out.fail(f"{utt}: rows at {[cp for cp, _ in got]}, expected {expected_cps}")
        elif not all(math.isfinite(s) for _, s in got):
            out.fail(f"{utt}: non-finite score")
        elif reference is not None and not _scores_match(got, reference.get(utt)):
            out.fail(f"{utt}: scores {got} differ from reference {reference.get(utt)}")
        else:
            out.ok += 1
    for utt in plan.expect["skipped"]:
        if rows.pop(utt, None) is not None:
            out.fail(f"{utt}: below the net-speech floor but scored")
        else:
            out.skipped += 1
    for utt in rows:
        out.fail(f"{utt}: unexpected rows")
    return out


def _scores_match(got, ref) -> bool:
    if ref is None or len(ref) != len(got):
        return False
    return all(
        cp == rcp and abs(s - rs) <= SCORE_REL_TOL * abs(rs)
        for (cp, s), (rcp, rs) in zip(got, ref)
    )


def scores_reference(plan: Plan) -> dict:
    return read_scores(plan.outputs[0])


def det_oracle(scores_csv) -> tuple:
    """DET operating points and EER from full-length rows, by the documented
    conventions: FAR(t) = share of bonafide >= t, MDR(t) = share of spoof < t,
    EER interpolated linearly at the FAR/MDR crossing."""
    bona, spoof = [], []
    for label, s in read_labelled(scores_csv):
        (bona if label == "bonafide" else spoof).append(s)
    bona, spoof = np.sort(bona), np.sort(spoof)
    vals = np.unique(np.concatenate([bona, spoof]))
    thresholds = np.concatenate([[vals[0] - 1.0], vals, [vals[-1] + 1.0]])
    far = (bona.size - np.searchsorted(bona, thresholds, side="left")) / bona.size
    mdr = np.searchsorted(spoof, thresholds, side="left") / spoof.size
    diff = far - mdr
    j = int(np.argmax(diff < 0))
    t = diff[j - 1] / (diff[j - 1] - diff[j])
    eer = far[j - 1] + t * (far[j] - far[j - 1])
    return thresholds, far, mdr, float(eer)


def read_labelled(scores_csv):
    """(label, score) of each full-length row."""
    with open(scores_csv, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for _utt, _ds, label, cp, s in reader:
            if not cp:
                yield label, float(s)


class EvalChecker:
    """Checks eval/det outputs; the oracle is computed once per run."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.oracle = det_oracle(plan.expect["scores"])

    def __call__(self, plan: Plan, exit_codes, reference=None) -> Outcome:
        out = Outcome()
        for name, code, path, check in (
            ("eval", exit_codes[0], plan.outputs[0], self._report),
            ("det", exit_codes[1], plan.outputs[1], self._det),
        ):
            try:
                if code != 0:
                    raise ValueError(f"exited with {code}")
                check(path)
                if reference is not None and sha256_file(path) != reference[f"{name}_sha256"]:
                    raise ValueError("bytes differ from the reference")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                out.fail(f"{name}: {exc}")
            else:
                out.ok += 1
        return out

    def _report(self, path) -> None:
        report = json.loads(Path(path).read_text())
        datasets, per_class = self.plan.expect["datasets"], self.plan.expect["per_class"]
        n_all = len(datasets) * per_class

        def counts(r, n):
            if (r["n_spoof"], r["n_bonafide"]) != (n, n):
                raise ValueError(f"trial counts {r['n_spoof']}/{r['n_bonafide']}, expected {n}")
            if not all(math.isfinite(r[k]) for k in ("eer", "mdr_at_far", "detection_rate")):
                raise ValueError("non-finite metric")

        counts(report["pooled"], n_all)
        counts(report["checkpoint_avg"], len(CHECKPOINTS_S) * n_all)
        if sorted(report["per_dataset"]) != sorted(datasets):
            raise ValueError(f"datasets {sorted(report['per_dataset'])}")
        for r in report["per_dataset"].values():
            counts(r, per_class)
        if sorted(report["per_checkpoint"], key=float) != [f"{cp:g}" for cp in CHECKPOINTS_S]:
            raise ValueError(f"checkpoints {sorted(report['per_checkpoint'])}")
        for r in report["per_checkpoint"].values():
            counts(r, n_all)
        eer = self.oracle[3]
        if abs(report["pooled"]["eer"] - eer) > 1e-9:
            raise ValueError(f"pooled EER {report['pooled']['eer']} != oracle {eer}")

    def _det(self, path) -> None:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["threshold", "far", "mdr"]:
                raise ValueError("unexpected DET header")
            got = np.array([[float(v) for v in row] for row in reader])
        want = np.stack(self.oracle[:3], axis=1)
        if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-12:
            raise ValueError("DET points differ from the oracle")


def eval_reference(plan: Plan) -> dict:
    report, det = plan.outputs
    return {"eval_sha256": sha256_file(report), "det_sha256": sha256_file(det)}


def read_wav(path):
    with wave.open(str(path), "rb") as fh:
        fmt = (fh.getnchannels(), fh.getsampwidth(), fh.getframerate())
        pcm = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    return fmt, pcm


def fingerprint(pcm) -> list:
    """Length, sum and sum of squares of PCM16 samples, as exact integers."""
    x = pcm.astype(np.int64)
    return [int(x.size), int(x.sum()), int((x * x).sum())]


def _fingerprints_match(got, ref) -> bool:
    return (
        got[0] == ref[0]
        and abs(got[1] - ref[1]) <= PCM_FLIPS
        and abs(got[2] - ref[2]) <= PCM_FLIPS * 2 * 32768
    )


def read_jsonl(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def check_channel(plan: Plan, exit_codes, reference=None) -> Outcome:
    """One item per presentation job, one per VAD entry, one for the pool."""
    out = Outcome()
    present_code, vad_code, pool_code = exit_codes
    for job in plan.expect["jobs"]:
        utt = job["utt_id"]
        try:
            if present_code != 0:
                raise ValueError(f"present exited with {present_code}")
            (src_fmt, src), (fmt, pcm) = read_wav(job["input"]), read_wav(job["output"])
            if fmt != (1, 2, 8000):
                raise ValueError(f"format {fmt}")
            if pcm.size != round(src.size * 8000 / src_fmt[2]) or not np.any(pcm):
                raise ValueError(f"{pcm.size} samples from {src.size} at {src_fmt[2]} Hz")
            if reference is not None and not _fingerprints_match(fingerprint(pcm), reference["presented"][utt]):
                raise ValueError("differs from the reference")
        except (OSError, EOFError, wave.Error, ValueError, KeyError) as exc:
            out.fail(f"present {utt}: {exc}")
        else:
            out.ok += 1

    vad = {}
    try:
        vad = {e["utt_id"]: e for e in read_jsonl(plan.expect["vad"])}
    except (OSError, ValueError) as exc:
        out.fail(f"vad output unreadable: {exc}")
    for entry in plan.expect["manifest"]:
        utt = entry["utt_id"]
        try:
            if vad_code != 0:
                raise ValueError(f"vad exited with {vad_code}")
            got = vad[utt]
            net = got["net_speech_s"]
            # a presented clip may fall below the floor (noise, reverberation); pool drops it
            if (got["label"], got["dataset"]) != (entry["label"], entry["dataset"]) or net < 0:
                raise ValueError(f"entry {got}")
            fmt, pcm = read_wav(got["path"])
            hop = 80  # one 10 ms VAD hop at 8 kHz
            if fmt != (1, 2, 8000) or not (round(net * 8000) - hop < pcm.size <= round(net * 8000)):
                raise ValueError(f"trimmed audio has {pcm.size} samples for {net} s net speech")
            if reference is not None and (net != reference["net_speech"][utt] or not _fingerprints_match(
                    fingerprint(pcm), reference["trimmed"][utt])):
                raise ValueError(f"net speech {net} or trimmed audio differs from the reference")
        except (OSError, EOFError, wave.Error, ValueError, KeyError) as exc:
            out.fail(f"vad {utt}: {exc}")
        else:
            out.ok += 1

    try:
        if pool_code != 0:
            raise ValueError(f"pool exited with {pool_code}")
        pool = read_jsonl(plan.expect["pool"])
        groups: dict = {}
        for e in pool:
            if e["utt_id"] not in vad or e["net_speech_s"] < MIN_NET_SPEECH_S:
                raise ValueError(f"{e['utt_id']} not eligible")
            groups.setdefault((e["dataset"], e["label"]), []).append(e["utt_id"])
        sizes = sorted(len(g) for g in groups.values())
        if sizes != [plan.expect["per_class"]] * plan.expect["groups"]:
            raise ValueError(f"pool groups of sizes {sizes}")
        if reference is not None and [e["utt_id"] for e in pool] != reference["pool"]:
            raise ValueError("pool membership differs from the reference")
    except (OSError, ValueError, KeyError) as exc:
        out.fail(f"pool: {exc}")
    else:
        out.ok += 1
    return out


def channel_reference(plan: Plan) -> dict:
    vad = read_jsonl(plan.expect["vad"])
    return {
        "presented": {j["utt_id"]: fingerprint(read_wav(j["output"])[1]) for j in plan.expect["jobs"]},
        "net_speech": {e["utt_id"]: e["net_speech_s"] for e in vad},
        "trimmed": {e["utt_id"]: fingerprint(read_wav(e["path"])[1]) for e in vad},
        "pool": [e["utt_id"] for e in read_jsonl(plan.expect["pool"])],
    }


def checker(plan: Plan):
    """(check, make_reference) for the plan's workload."""
    if plan.workload == "eval_report":
        return EvalChecker(plan), eval_reference
    if plan.workload == "channel_prep":
        return check_channel, channel_reference
    return check_scores, scores_reference


def check_setup(plan: Plan, exit_code: int) -> Outcome:
    """The minimal-input command must succeed; detect must skip its entry."""
    out = Outcome()
    if exit_code != 0:
        out.fail(f"setup command exited with {exit_code}")
    elif "setup_scores" in plan.expect:
        try:
            if read_scores(plan.expect["setup_scores"]):
                out.fail("setup entry is below the net-speech floor but was scored")
            else:
                out.skipped += 1
        except (OSError, ValueError) as exc:
            out.fail(f"setup scores unreadable: {exc}")
    else:
        out.ok += 1
    return out
