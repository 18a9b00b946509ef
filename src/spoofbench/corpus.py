"""Corpus manifests, protocol filtering and pooling.

Manifests are JSON Lines, one utterance per line, with a canonical field
order on write so a read/write cycle is byte-stable.  Unknown fields are
preserved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seeding import derive_seed

LABELS = ("bonafide", "spoof")
PRESENTATIONS = ("raw", "injected", "played")

# Segments with less net speech than this are discarded from the protocol.
MIN_NET_SPEECH_S = 0.5

_FIELD_ORDER = ("utt_id", "path", "label", "dataset", "attack_id", "presentation", "net_speech_s")


class ManifestError(ValueError):
    pass


class PoolError(ValueError):
    pass


@dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    path: str
    label: str
    dataset: str
    attack_id: str | None = None
    presentation: str = "raw"
    net_speech_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.utt_id:
            raise ManifestError("utt_id must be nonempty")
        if self.label not in LABELS:
            raise ManifestError(f"{self.utt_id}: label must be one of {LABELS}")
        if self.presentation not in PRESENTATIONS:
            raise ManifestError(f"{self.utt_id}: presentation must be one of {PRESENTATIONS}")
        if self.net_speech_s < 0:
            raise ManifestError(f"{self.utt_id}: net_speech_s must be >= 0")

    def to_json(self) -> str:
        doc = {}
        for name in _FIELD_ORDER:
            value = getattr(self, name)
            if name == "attack_id" and value is None:
                continue
            doc[name] = value
        for key in sorted(self.extra):
            doc[key] = self.extra[key]
        return json.dumps(doc, separators=(",", ":"), ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "ManifestEntry":
        doc = json.loads(line)
        known = {k: doc.pop(k) for k in list(_FIELD_ORDER) if k in doc}
        return cls(extra=doc, **known)


def read_manifest(path) -> list[ManifestEntry]:
    entries = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = ManifestEntry.from_json(line)
                except (json.JSONDecodeError, TypeError, ManifestError) as exc:
                    raise ManifestError(f"{path}:{lineno}: {exc}") from exc
                if entry.utt_id in seen:
                    raise ManifestError(f"{path}:{lineno}: duplicate utt_id {entry.utt_id!r}")
                seen.add(entry.utt_id)
                entries.append(entry)
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: {exc}") from exc
    return entries


def write_manifest(entries, path) -> None:
    seen = set()
    lines = []
    for entry in entries:
        if entry.utt_id in seen:
            raise ManifestError(f"duplicate utt_id {entry.utt_id!r}")
        seen.add(entry.utt_id)
        lines.append(entry.to_json())
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def filter_min_net_speech(entries, min_s: float = MIN_NET_SPEECH_S) -> list[ManifestEntry]:
    """Keep entries with net_speech_s >= min_s (boundary included)."""
    return [e for e in entries if e.net_speech_s >= min_s]


@dataclass(frozen=True)
class PoolSpec:
    per_class_per_dataset: int = 3000
    seed: int = 0
    min_net_speech_s: float = MIN_NET_SPEECH_S

    def __post_init__(self):
        if self.per_class_per_dataset < 1:
            raise ValueError("per_class_per_dataset must be >= 1")
        if not self.min_net_speech_s >= 0:  # NaN included
            raise ValueError("min_net_speech_s must be >= 0")


def build_pool(manifests, spec: PoolSpec = PoolSpec()) -> list[ManifestEntry]:
    """Sample a balanced pooled test set across datasets.

    Per (dataset, label): sort by utt_id, shuffle with a seed derived from
    (spec.seed, dataset, label), take the first per_class_per_dataset.  The
    pool is emitted sorted by (dataset, label, utt_id).
    """
    groups: dict[tuple[str, str], list[ManifestEntry]] = {}
    for manifest in manifests:
        for entry in filter_min_net_speech(manifest, spec.min_net_speech_s):
            groups.setdefault((entry.dataset, entry.label), []).append(entry)

    # datasets come from the manifests, so one the filter empties is a shortfall, not left out
    datasets = sorted({entry.dataset for manifest in manifests for entry in manifest})
    pool = []
    for dataset in datasets:
        for label in LABELS:
            candidates = sorted(groups.get((dataset, label), []), key=lambda e: e.utt_id)
            if len(candidates) < spec.per_class_per_dataset:
                raise PoolError(
                    f"insufficient {label} in {dataset}: "
                    f"{len(candidates)} < {spec.per_class_per_dataset}"
                )
            rng = np.random.default_rng(derive_seed(spec.seed, f"{dataset}/{label}"))
            order = rng.permutation(len(candidates))
            chosen = [candidates[i] for i in order[: spec.per_class_per_dataset]]
            pool.extend(sorted(chosen, key=lambda e: e.utt_id))

    seen = set()
    for entry in pool:
        if entry.utt_id in seen:
            raise PoolError(f"utt_id {entry.utt_id!r} appears in more than one dataset")
        seen.add(entry.utt_id)
    return pool
