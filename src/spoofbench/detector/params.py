"""Named-tensor store and the weight file format.

Weight files are a single-line JSON manifest (names, shapes, byte offsets,
config, format version, blob checksum) followed by a raw little-endian
float32 blob.  Loading is bit-exact with respect to saving.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from ..corpus import from_doc, loads

FORMAT_NAME = "spoofbench-weights"
FORMAT_VERSION = 1


class WeightsError(ValueError):
    """Base error for unreadable weight files."""


@dataclass(frozen=True)
class _Tensor:
    name: str
    shape: tuple[int, ...]
    offset: int


class ParameterStore:
    """Ordered map from dotted tensor name to a float32 array.

    Tensors are frozen on insertion; a store is immutable in practice and
    safe to share across concurrent forward passes.  ``config`` carries the
    architecture metadata round-tripped through weight files.
    """

    def __init__(self, config: dict | None = None):
        self._tensors: dict[str, np.ndarray] = {}
        self.config = config

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self._tensors:
            raise ValueError(f"duplicate tensor name: {name}")
        arr = np.ascontiguousarray(value, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"tensor {name} contains non-finite values")
        arr.setflags(write=False)
        self._tensors[name] = arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()


def count_parameters(store: ParameterStore) -> int:
    """Total number of scalar elements across all tensors."""
    return sum(int(arr.size) for _, arr in store.items())


def save_parameters(store: ParameterStore, path) -> None:
    offset = 0
    tensors = []
    chunks = []
    for name, arr in store.items():
        data = arr.astype("<f4").tobytes()
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(data)
        offset += len(data)
    blob = b"".join(chunks)
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "config": store.config,
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "tensors": tensors,
    }
    header = json.dumps(manifest, separators=(",", ":")) + "\n"
    Path(path).write_bytes(header.encode("utf-8") + blob)


def load_parameters(path) -> ParameterStore:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise WeightsError(f"{path}: missing manifest line")
    try:
        manifest = loads(raw[:nl].decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, a non-finite number or nesting too deep
        raise WeightsError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise WeightsError(f"{path}: not a {FORMAT_NAME} file")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise WeightsError(
            f"{path}: unknown format version {manifest.get('format_version')}"
        )
    try:
        blob_bytes, blob_sha256 = manifest["blob_bytes"], manifest["blob_sha256"]
        tensors = [astuple(from_doc(_Tensor, spec, key=f"tensors[{i}]")) for i, spec in enumerate(manifest["tensors"])]
    except KeyError as exc:
        raise WeightsError(f"{path}: manifest lacks field {exc}") from exc
    except (TypeError, ValueError) as exc:  # a field of the wrong kind
        raise WeightsError(f"{path}: malformed manifest: {exc}") from exc
    blob = raw[nl + 1 :]
    if len(blob) != blob_bytes:
        raise WeightsError(
            f"{path}: blob has {len(blob)} bytes, manifest declares {blob_bytes}"
        )
    if hashlib.sha256(blob).hexdigest() != blob_sha256:
        raise WeightsError(f"{path}: blob checksum mismatch")
    store = ParameterStore(config=manifest.get("config"))
    end_seen = 0
    for name, shape, start in tensors:
        size = math.prod(shape)
        end = start + size * 4
        if start != end_seen or end > len(blob):
            raise WeightsError(
                f"{path}: tensor {name} shape/offset inconsistent with blob"
            )
        end_seen = end
        try:
            store.add(name, np.frombuffer(blob[start:end], dtype="<f4").reshape(shape))
        except ValueError as exc:  # a repeated name, a non-finite value or a shape that does not fit
            raise WeightsError(f"{path}: tensor {name}: {exc}") from exc
    if end_seen != len(blob):
        raise WeightsError(f"{path}: blob has {len(blob) - end_seen} trailing bytes")
    return store
