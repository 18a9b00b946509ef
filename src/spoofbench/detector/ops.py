"""Inference-mode tensor ops for the detector, on plain numpy arrays.

The detector ops take float64 activations, with layout (channels, freq,
time), and float64 weights: the model casts each unit's weights from the
float32 store once per forward, before its first op.  conv2d is im2col
with one GEMM per call, which hands the hot loop to BLAS; its scratch is
bounded by the forward's time tiles, not here.  One GEMM per kernel offset
was measured slower.  Only depthwise_conv2d and the contextual-attention
aggregation accumulate per kernel offset, through _window_accumulate, per
block of channels sized so that its k*k offset passes stay in L2 (cache
blocking); each sum keeps its order, so the blocks change no bit.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
LN_EPS = 1e-5
POOL_EPS = 1e-9


# Elements (C x F x T) of one channel block of a window sum, 256 KiB in float64:
# its padded input, product and sum stay in a 2 MiB L2 over the k*k passes.
_WINDOW_BLOCK_ELEMS = 32_768


def conv2d(x, weight, bias, stride=1):
    """2-D 'same' convolution; x (Ci,F,T), weight (Co,Ci,kh,kw), kh and kw odd: im2col + one GEMM."""
    co, ci, kh, kw = weight.shape
    if x.shape[0] != ci:
        raise ValueError(f"conv2d: input has {x.shape[0]} channels, weight expects {ci}")
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    patch = windows.transpose(0, 3, 4, 1, 2).reshape(ci * kh * kw, -1)  # (Ci*kh*kw, Fo*To)
    out = (weight.reshape(co, -1) @ patch).reshape(co, *windows.shape[1:3])
    out += bias[:, None, None]
    return out


def conv1x1(x, weight, bias):
    """Pointwise convolution; weight (Co, Ci)."""
    c, f, t = x.shape
    out = (weight @ x.reshape(c, -1)).reshape(-1, f, t)
    out += bias[:, None, None]
    return out


def _window_accumulate(x, weights, k):
    """Sum of weights[o] * x shifted by offset o = di*k + dj over a zero-padded
    k x k window; weights[o], per channel (k*k, C, 1, 1) or shared (k*k, 1, F, T),
    broadcasts against one (C, F, T) shift.  Runs per block of channels, each
    element summing the same products in the same order as one block would."""
    c, f, t = x.shape
    pad = k // 2
    out = np.zeros_like(x)
    block = max(1, _WINDOW_BLOCK_ELEMS // (f * t))
    for c0 in range(0, c, block):
        xp = np.pad(x[c0 : c0 + block], ((0, 0), (pad, pad), (pad, pad)))
        w = weights[:, c0 : c0 + block] if weights.shape[1] == c else weights
        acc = out[c0 : c0 + block]
        product = np.empty_like(acc)  # one buffer for every offset's product
        for o in range(k * k):
            di, dj = divmod(o, k)
            np.multiply(w[o], xp[:, di : di + f, dj : dj + t], out=product)
            acc += product
    return out


def depthwise_conv2d(x, weight, bias):
    """Per-channel (fully grouped) 'same' convolution; weight (C, k, k), k odd."""
    c, k = weight.shape[0], weight.shape[-1]
    out = _window_accumulate(x, weight.reshape(c, k * k).T[:, :, None, None], k)
    out += bias[:, None, None]
    return out


def batch_norm(x, gamma, beta, mean, var, out=None):
    """Inference-mode BN over the channel axis with fixed running stats.

    out=x normalizes x in place, for a caller that owns x."""
    scale = gamma / np.sqrt(var + BN_EPS)
    shift = beta - mean * scale
    out = np.multiply(x, scale[:, None, None], out=out)
    out += shift[:, None, None]
    return out


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def gelu(x):
    from scipy.special import erf  # imported here: only the aggregator needs scipy.special

    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def softmax(x):
    """Softmax over the first axis."""
    e = np.exp(x - np.max(x, axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma.astype(np.float64) + beta.astype(np.float64)


def attentive_stats_pool(h, w, b, v):
    """Attention-weighted mean and stddev over time.

    h is (T, D); attention energies are v . tanh(W h_t + b), softmaxed over
    t.  Returns concat(mu, sigma), a vector of length 2D.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] < 1:
        raise ValueError("attentive_stats_pool needs a nonempty (T, D) input")
    energies = np.tanh(h @ w.T + b) @ v
    alpha = softmax(energies)
    mu = alpha @ h
    second = alpha @ (h * h)
    sigma = np.sqrt(np.maximum(second - mu * mu, 0.0) + POOL_EPS)
    return np.concatenate([mu, sigma])


def aggregate_layers(stack, params, cfg):
    """Fuse per-layer representations into one (T, proj_dim) sequence.

    Each layer is projected to proj_dim, passed through GeLU and layer norm,
    then the layers are combined with softmax weights and normalized again.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[0] != cfg.n_layers or stack.shape[2] != cfg.in_dim:
        raise ValueError(
            f"aggregate_layers: expected ({cfg.n_layers}, T, {cfg.in_dim}), got {stack.shape}"
        )
    proj_w = params["proj.weight"].astype(np.float64)  # (L, proj, D)
    proj_b = params["proj.bias"].astype(np.float64)  # (L, proj)
    layers = np.einsum("ltd,lpd->ltp", stack, proj_w) + proj_b[:, None, :]
    layers = layer_norm(gelu(layers), params["ln1.gamma"], params["ln1.beta"])
    weights = softmax(params["layer_logits"].astype(np.float64))
    fused = np.tensordot(weights, layers, axes=(0, 0))
    return layer_norm(fused, params["ln2.gamma"], params["ln2.beta"])
