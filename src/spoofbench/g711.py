"""G.711 companding (mu-law, A-law) on float samples.

Continuous-law compression with an 8-bit midtread quantizer on the
companded value; decoded samples are fixed points of the quantizer, so a
second roundtrip is bit-exact.
"""

from __future__ import annotations

import numpy as np

MU = 255.0
ALAW_A = 87.6

_LEVELS = 128  # codes span [-128, 127]


def mulaw_compress(x):
    x = np.clip(x, -1.0, 1.0)
    return np.sign(x) * np.log1p(MU * np.abs(x)) / np.log1p(MU)


def mulaw_expand(y):
    return np.sign(y) * ((1.0 + MU) ** np.abs(y) - 1.0) / MU


def alaw_compress(x):
    x = np.clip(x, -1.0, 1.0)
    ax = np.abs(x)
    denom = 1.0 + np.log(ALAW_A)
    small = ax < 1.0 / ALAW_A
    mag = np.where(small, ALAW_A * ax / denom, (1.0 + np.log(np.maximum(ALAW_A * ax, 1.0))) / denom)
    return np.sign(x) * mag


def alaw_expand(y):
    ay = np.abs(y)
    denom = 1.0 + np.log(ALAW_A)
    small = ay < 1.0 / denom
    mag = np.where(small, ay * denom / ALAW_A, np.exp(ay * denom - 1.0) / ALAW_A)
    return np.sign(y) * mag


LAWS = {
    "mulaw": (mulaw_compress, mulaw_expand),
    "alaw": (alaw_compress, alaw_expand),
}


def encode(samples, law: str) -> np.ndarray:
    """Compand and quantize to int8 codes."""
    compress, _ = LAWS[law]
    y = compress(np.asarray(samples, dtype=np.float64))
    return np.clip(np.rint(y * _LEVELS), -_LEVELS, _LEVELS - 1).astype(np.int8)


def decode(codes, law: str) -> np.ndarray:
    _, expand = LAWS[law]
    return expand(codes.astype(np.float64) / _LEVELS)
