"""Independent brute-force oracles the implementation is checked against.

These deliberately avoid the library's vectorized code paths: rates are
obtained by counting over explicit candidate thresholds, the parameter
count by summing shape products from the documented architecture, and the
detector's logits by a forward that loops over output positions and
imports nothing from the library's tensor ops.
"""

from __future__ import annotations

import numpy as np


def _far(bona, threshold):
    return sum(1 for b in bona if b >= threshold) / len(bona)


def _mdr(spoof, threshold):
    return sum(1 for s in spoof if s < threshold) / len(spoof)


def eer_oracle(bona, spoof):
    """Exhaustive sweep over all operating points, interpolated crossing."""
    vals = sorted(set(bona) | set(spoof))
    thresholds = [vals[0] - 1.0] + vals + [vals[-1] + 1.0]
    points = [(t, _far(bona, t), _mdr(spoof, t)) for t in thresholds]
    for (t1, f1, m1), (t2, f2, m2) in zip(points, points[1:]):
        d1, d2 = f1 - m1, f2 - m2
        if d1 >= 0.0 > d2:
            frac = 0.0 if d1 == d2 else d1 / (d1 - d2)
            return f1 + frac * (f2 - f1), t1 + frac * (t2 - t1)
    raise AssertionError("no FAR/MDR crossing found")


def eer_from_curve(curve):
    """EER read off a DET staircase: FAR interpolated at the FAR/MDR crossing."""
    points = list(zip(curve.far, curve.mdr))
    for (f1, m1), (f2, m2) in zip(points, points[1:]):
        d1, d2 = f1 - m1, f2 - m2
        if d1 >= 0.0 > d2:
            return f1 + (0.0 if d1 == d2 else d1 / (d1 - d2)) * (f2 - f1)
    raise AssertionError("no FAR/MDR crossing found")


def mdr_at_far_oracle(bona, spoof, far_target):
    """Smallest candidate threshold with FAR <= target; MDR there."""
    vals = sorted(set(bona) | set(spoof))
    candidates = sorted(
        [vals[0] - 1.0, vals[-1] + 1.0]
        + vals
        + [(a + b) / 2.0 for a, b in zip(vals, vals[1:])]
    )
    for t in candidates:
        if _far(bona, t) <= far_target:
            return _mdr(spoof, t), t
    raise AssertionError("FAR never reaches the target")


def detector_param_count_oracle(
    stage_channels=(32, 64, 128, 256),
    blocks_per_stage=(2, 2, 2, 2),
    kernel=3,
    pool_hidden=128,
    n_classes=2,
):
    """Shape enumeration of the documented architecture.

    Adapters: 3x3 conv (weight+bias) + BN (gamma, beta, mean, var).
    Blocks: two 3x3 convs with BN, plus the attention tail: depthwise k x k
    key conv, two-layer 1x1 attention head (hidden = C/4, output k^2 maps),
    and a 1x1 value conv.  Head: attentive pooling (W, b, v) and the FC.
    """
    total = 0
    k2 = kernel * kernel
    cin = 1
    for c, blocks in zip(stage_channels, blocks_per_stage):
        total += c * cin * 9 + c  # adapter conv
        total += 4 * c  # adapter BN
        per_block = (
            (c * c * 9 + c) + 4 * c  # conv1 + bn1
            + (c * c * 9 + c) + 4 * c  # conv2 + bn2
            + (c * k2 + c)  # depthwise key conv
            + ((c // 4) * 2 * c + c // 4)  # attention hidden 1x1
            + (k2 * (c // 4) + k2)  # attention logits 1x1
            + (c * c + c)  # value 1x1
        )
        total += blocks * per_block
        cin = c
    d = stage_channels[-1]
    total += pool_hidden * d + pool_hidden + pool_hidden  # pooling W, b, v
    total += n_classes * 2 * d + n_classes  # FC on concat(mu, sigma)
    return total


BN_EPS = 1e-5  # the detector's batch-norm epsilon
POOL_EPS = 1e-9  # the variance floor of attentive statistics pooling


def _tensor(store, name):
    return np.asarray(store[name], dtype=np.float64)


def _conv3x3_oracle(x, w, b, stride):
    """3x3 convolution with zero padding 1: one sum over (channel, row, column)
    of the window at each output position."""
    ci, f, t = x.shape
    xp = np.zeros((ci, f + 2, t + 2))
    xp[:, 1:-1, 1:-1] = x
    fo, to = (f - 1) // stride + 1, (t - 1) // stride + 1
    w2 = w.reshape(w.shape[0], -1)
    out = np.empty((w.shape[0], fo, to))
    for i in range(fo):
        for j in range(to):
            window = xp[:, i * stride : i * stride + 3, j * stride : j * stride + 3]
            out[:, i, j] = w2 @ window.ravel() + b
    return out


def _depthwise_oracle(x, w, b):
    """Per-channel k x k 'same' convolution: one windowed sum per position."""
    c, f, t = x.shape
    k = w.shape[-1]
    p = k // 2
    xp = np.zeros((c, f + 2 * p, t + 2 * p))
    xp[:, p : p + f, p : p + t] = x
    out = np.empty_like(x)
    for i in range(f):
        for j in range(t):
            out[:, i, j] = (w * xp[:, i : i + k, j : j + k]).sum(axis=(1, 2)) + b
    return out


def _pointwise_oracle(x, w, b):
    return np.einsum("oc,cft->oft", w, x) + b[:, None, None]


def _bn_oracle(x, store, prefix):
    """Textbook inference batch norm: (x - mean) / sqrt(var + eps) * gamma + beta."""
    g, beta, mean, var = (_tensor(store, f"{prefix}.{n}")[:, None, None] for n in ("gamma", "beta", "mean", "var"))
    return (x - mean) / np.sqrt(var + BN_EPS) * g + beta


def _cot_oracle(x, store, prefix, k):
    """Contextual attention (CoTNet, Li et al., arXiv:2107.12292) with an
    explicit loop over each position's k x k window."""
    c, f, t = x.shape
    static = _depthwise_oracle(x, _tensor(store, f"{prefix}.key.weight"), _tensor(store, f"{prefix}.key.bias"))
    both = np.concatenate([static, x], axis=0)
    hidden = np.maximum(_pointwise_oracle(both, _tensor(store, f"{prefix}.attn1.weight"),
                                          _tensor(store, f"{prefix}.attn1.bias")), 0.0)
    logits = _pointwise_oracle(hidden, _tensor(store, f"{prefix}.attn2.weight"), _tensor(store, f"{prefix}.attn2.bias"))
    values = _pointwise_oracle(x, _tensor(store, f"{prefix}.value.weight"), _tensor(store, f"{prefix}.value.bias"))
    p = k // 2
    vp = np.zeros((c, f + 2 * p, t + 2 * p))
    vp[:, p : p + f, p : p + t] = values
    out = static.copy()
    for i in range(f):
        for j in range(t):
            e = np.exp(logits[:, i, j] - logits[:, i, j].max())
            attn = e / e.sum()  # one weight per window offset (di, dj), row-major
            out[:, i, j] += vp[:, i : i + k, j : j + k].reshape(c, k * k) @ attn
    return out


def _attentive_stats_pool_oracle(h, w, b, v):
    """Attentive statistics pooling (Okabe et al., arXiv:1803.10963) of (T, D) h."""
    energies = np.array([v @ np.tanh(w @ h_t + b) for h_t in h])
    e = np.exp(energies - energies.max())
    alpha = e / e.sum()
    mu = sum(a * h_t for a, h_t in zip(alpha, h))
    var = sum(a * (h_t - mu) ** 2 for a, h_t in zip(alpha, h))
    return np.concatenate([mu, np.sqrt(var + POOL_EPS)])


def detector_forward_oracle(values, store, cfg):
    """(l_spoof, l_bonafide) of the documented architecture on a (frames, mels)
    log-mel array, written from the architecture description alone."""
    x = np.asarray(values, dtype=np.float64).T[None, :, :]
    for s, n_blocks in enumerate(cfg.blocks_per_stage, start=1):
        a = f"stage{s}.adapter"
        x = _conv3x3_oracle(x, _tensor(store, f"{a}.conv.weight"), _tensor(store, f"{a}.conv.bias"), 1 if s == 1 else 2)
        x = np.maximum(_bn_oracle(x, store, f"{a}.bn"), 0.0)
        for blk in range(1, n_blocks + 1):
            p = f"stage{s}.block{blk}"
            y = _conv3x3_oracle(x, _tensor(store, f"{p}.conv1.weight"), _tensor(store, f"{p}.conv1.bias"), 1)
            y = np.maximum(_bn_oracle(y, store, f"{p}.bn1"), 0.0)
            y = _conv3x3_oracle(y, _tensor(store, f"{p}.conv2.weight"), _tensor(store, f"{p}.conv2.bias"), 1)
            y = _cot_oracle(_bn_oracle(y, store, f"{p}.bn2"), store, f"{p}.cot", cfg.cot_kernel)
            x = np.maximum(y + x, 0.0)
    h = x.mean(axis=1).T  # frequency mean -> (frames, channels)
    emb = _attentive_stats_pool_oracle(h, _tensor(store, "pool.w"), _tensor(store, "pool.b"), _tensor(store, "pool.v"))
    out = _tensor(store, "fc.weight") @ emb + _tensor(store, "fc.bias")
    return float(out[0]), float(out[1])
