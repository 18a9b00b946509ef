"""Independent brute-force oracles the implementation is checked against.

These deliberately avoid the library's vectorized code paths: rates are
obtained by counting over explicit candidate thresholds, and the parameter
count by summing shape products from the documented architecture.
"""

from __future__ import annotations


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
