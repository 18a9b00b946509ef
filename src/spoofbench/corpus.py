"""Corpus manifests, protocol filtering and pooling.

Manifests are JSON Lines, one utterance per line, with a canonical field
order on write so a read/write cycle is byte-stable.  Unknown fields are
preserved.  loads decodes all JSON input and from_doc reads it into dataclasses.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .seeding import derive_seed

LABELS = ("bonafide", "spoof")
PRESENTATIONS = ("raw", "injected", "played")

# Segments with less net speech than this are discarded from the protocol.
MIN_NET_SPEECH_S = 0.5

# The JSON types a value of each scalar annotation takes as they are (matched exactly, so
# true is no integer or number), and their name in an error
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), bool: ((bool,), "true or false"),
               str: ((str,), "a string"), type(None): ((type(None),), "null"),
               str | None: ((str, type(None)), "a string or null")}


@cache
def _fields_of(cls) -> tuple[dict, dict]:
    """Each field of cls with its annotation and the JSON types it takes as they are, resolved
    once, and the fields with no default."""
    hints = typing.get_type_hints(cls)
    return ({f.name: (hints[f.name], _JSON_TYPES.get(hints[f.name], ((),))[0]) for f in fields(cls)},
            dict.fromkeys(f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING))


def _finite(text):  # a JSON number, NaN, Infinity or -Infinity
    if not np.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


def _int(text):  # a JSON integer, kept as an int when a float can hold it
    _finite(text)
    return int(text)


def loads(text):
    """The JSON value in text; NaN, Infinity, a number that overflows a float and nesting too deep are ValueErrors."""
    try:
        return json.loads(text, parse_float=_finite, parse_int=_int, parse_constant=_finite)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def from_doc(cls, doc, rest=None, key=""):
    """A frozen dataclass cls from the JSON object doc, each value checked against its field's annotation.

    An int field takes an integer, a float field any number (an integer is kept
    as given), a bool field true or false, a tuple[T, ...] field an array of T,
    a tuple[T1, T2] field an array of two, a dataclass field an object, built
    the same way, and a union the value its first arm takes.  A key that names no
    field is an error, or goes into the dict field named rest.  Every fault is a
    ValueError that names the key, dotted below the top (key is the prefix).
    """
    if type(doc) is not dict:
        raise _wrong_type(key or cls.__name__, "a mapping", doc)
    known, required = _fields_of(cls)
    prefix = f"{key}." if key else ""
    kwargs = {rest: {}} if rest else {}
    for name, value in doc.items():
        spec = known.get(name)  # (annotation, the JSON types it takes as they are)
        if spec and name != rest:
            kwargs[name] = value if type(value) in spec[1] else _typed(spec[0], value, prefix + name)
        elif rest:
            kwargs[rest][name] = value
        else:
            raise ValueError(f"unexpected keyword argument {prefix + name!r}")
    if not kwargs.keys() >= required.keys():
        missing = [prefix + name for name in required if name not in kwargs]
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    return cls(**kwargs)


def _typed(hint, value, key):
    """value checked against the annotation hint: an array becomes a tuple, an object a dataclass."""
    if type(value) in _JSON_TYPES.get(hint, ((),))[0]:
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_dataclass(hint):
        return from_doc(hint, value, key=key)
    if origin is tuple and type(value) in (list, tuple):
        items = [args[0]] * len(value) if args[-1] is Ellipsis else args  # tuple[T, ...] or tuple[T1, T2]
        if len(items) == len(value):
            return tuple(_typed(t, v, f"{key}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    if origin in (typing.Union, types.UnionType):
        for arm in args:  # in order
            try:
                return _typed(arm, value, key)
            except ValueError:
                pass
    raise _wrong_type(key, _wanted(hint), value)


def _wanted(hint) -> str:
    """The JSON values hint takes, as an error names them."""
    if hint in _JSON_TYPES:
        return _JSON_TYPES[hint][1]
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return "an array" if args[-1] is Ellipsis else f"an array of {len(args)}"
    return " or ".join(map(_wanted, args))  # a union


def _wrong_type(key, wanted, value) -> ValueError:
    try:
        shown = json.dumps(value, default=repr)
    except RecursionError:  # nested about as deep as json decodes
        shown = "a value nested too deep to show"
    return ValueError(f"{key} must be {wanted}, not {shown if len(shown) <= 40 else shown[:36] + ' ...'}")


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
            raise ValueError("utt_id must be nonempty")
        if self.label not in LABELS:
            raise ValueError(f"{self.utt_id}: label must be one of {LABELS}")
        if self.presentation not in PRESENTATIONS:
            raise ValueError(f"{self.utt_id}: presentation must be one of {PRESENTATIONS}")
        if self.net_speech_s < 0:
            raise ValueError(f"{self.utt_id}: net_speech_s must be >= 0")

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"}
        if self.attack_id is None:
            del doc["attack_id"]
        for key in sorted(self.extra):
            doc[key] = self.extra[key]
        return json.dumps(doc, separators=(",", ":"), ensure_ascii=False)


def read_lines(path):
    """Each non-blank line of a UTF-8 text file, stripped, with its line number."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from ((lineno, text) for lineno, line in enumerate(fh, start=1) if (text := line.strip()))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def read_manifest(path) -> list[ManifestEntry]:
    entries = []
    seen = set()
    for lineno, line in read_lines(path):
        try:
            entry = from_doc(ManifestEntry, loads(line), rest="extra")
        except ValueError as exc:  # not JSON, a key or value of the wrong kind, a bad value
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if entry.utt_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate utt_id {entry.utt_id!r}")
        seen.add(entry.utt_id)
        entries.append(entry)
    return entries


def write_manifest(entries, path) -> None:
    seen = set()
    lines = []
    for entry in entries:
        if entry.utt_id in seen:
            raise ValueError(f"duplicate utt_id {entry.utt_id!r}")
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
    pool is emitted sorted by (dataset, label, utt_id).  A utt_id held by more
    than one entry of the manifests, filtered out or not, is a ValueError.
    """
    owner = {}  # utt_id -> the dataset of its entry
    for entry in (entry for manifest in manifests for entry in manifest):
        if entry.utt_id in owner:
            first = owner[entry.utt_id]
            where = f"more than once in dataset {first!r}" if first == entry.dataset else "in more than one dataset"
            raise ValueError(f"utt_id {entry.utt_id!r} appears {where}")
        owner[entry.utt_id] = entry.dataset
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
                raise ValueError(f"insufficient {label} in {dataset}: {len(candidates)} < {spec.per_class_per_dataset}")
            rng = np.random.default_rng(derive_seed(spec.seed, f"{dataset}/{label}"))
            order = rng.permutation(len(candidates))
            chosen = [candidates[i] for i in order[: spec.per_class_per_dataset]]
            pool.extend(sorted(chosen, key=lambda e: e.utt_id))
    return pool
