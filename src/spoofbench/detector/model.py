"""ResNet + contextual-attention spoofing detector, inference only.

Input is a log-mel spectrogram treated as a 1-channel image (freq x time).
Four stages each apply an adapter (3x3 conv, BN, ReLU; stride 2 from stage
two onward) followed by identity-shortcut residual blocks whose tail is a
contextual attention unit: a depthwise k x k conv builds a static context, a
two-layer 1x1-conv head turns [static, input] into k^2 window-attention
logits, and the softmaxed logits aggregate a pointwise value map into a
dynamic context.  Frequency is mean-reduced, attentive statistics pooling
summarizes time, and a linear head emits (spoof, bonafide) logits.

No unit writes to its input: BN, ReLU and the additions run in place only
on arrays the unit itself just created, which keeps the peak memory of a
forward down without changing a bit of its result.  For the same reason a
unit's weights are cast from the float32 store to float64 when the forward
reaches that unit, once for all the tiles of its main pass and its fringe
passes, and never all at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from ..parallel import cores, each
from .ops import (
    _window_accumulate,
    attentive_stats_pool,
    batch_norm,
    conv1x1,
    conv2d,
    depthwise_conv2d,
    relu,
    softmax,
)
from .params import ParameterStore

# Channel reduction of the attention head's hidden layer.
ATTN_REDUCTION = 4
# Three stride-2 stages leave T/8 frames; 16 keeps every stage nonempty.
MIN_INPUT_FRAMES = 16
# Upper bounds on the width, each at least 4x its default: only init-weights
# allocates the whole model a config asks for; check_parameters reads shapes alone.
MAX_STAGE_CHANNELS = 1024
MAX_BLOCKS_PER_STAGE = 8
MAX_COT_KERNEL = 15
MAX_POOL_HIDDEN = 512
# Input elements (channels x mel bands x frames, halo aside) of one tile of a
# unit's main pass: about 122 frames at every stage of the default width.  It
# bounds all of a tile's scratch, a 3x3 conv's im2col patch (about 9x, 18 MB)
# the largest, so the threads' freed buffers held in their own malloc arenas
# add little to the peak memory of a forward.
_TILE_ELEMS = 250_000


@dataclass(frozen=True)
class DetectorConfig:
    stage_channels: tuple[int, ...] = (32, 64, 128, 256)
    blocks_per_stage: tuple[int, ...] = (2, 2, 2, 2)
    cot_kernel: int = 3
    embedding_dim: int = 512
    n_classes: int = 2
    pool_hidden: int = 128

    def __post_init__(self):
        if len(self.stage_channels) != 4 or len(self.blocks_per_stage) != 4:
            raise ValueError("config requires exactly four stages")
        if any(not ATTN_REDUCTION <= c <= MAX_STAGE_CHANNELS or c % ATTN_REDUCTION for c in self.stage_channels):
            raise ValueError(f"stage channels must be positive multiples of {ATTN_REDUCTION} up to {MAX_STAGE_CHANNELS}")
        if any(not 1 <= b <= MAX_BLOCKS_PER_STAGE for b in self.blocks_per_stage):
            raise ValueError(f"blocks_per_stage entries must be in [1, {MAX_BLOCKS_PER_STAGE}]")
        if not 1 <= self.cot_kernel <= MAX_COT_KERNEL or self.cot_kernel % 2 == 0:
            raise ValueError(f"cot_kernel must be odd and in [1, {MAX_COT_KERNEL}]")
        if self.n_classes != 2:
            raise ValueError("detector is a two-class model")
        if self.embedding_dim != 2 * self.stage_channels[-1]:
            raise ValueError("embedding_dim must equal 2 x last stage channels")
        if not 1 <= self.pool_hidden <= MAX_POOL_HIDDEN:
            raise ValueError(f"pool_hidden must be in [1, {MAX_POOL_HIDDEN}]")


@dataclass(frozen=True)
class Logits:
    l_spoof: float
    l_bonafide: float

    def __post_init__(self):
        if not (np.isfinite(self.l_spoof) and np.isfinite(self.l_bonafide)):
            raise ValueError("logits must be finite")


@dataclass(frozen=True)
class Score:
    s: float

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError("score must be finite")


def score(logits: Logits) -> Score:
    """Detection score: higher favors the spoof hypothesis."""
    return Score(0.5 * (logits.l_spoof - logits.l_bonafide))


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _fill(value):
    return lambda rng, shape: np.full(shape, value)


def _walk(cfg: DetectorConfig):
    """Each unit of the network in call order, as (name, input channels, channels, stride):
    name is the prefix of the unit's tensors, stage{s}.adapter or stage{s}.block{b}."""
    channels = cfg.stage_channels
    for s, (cin, c, n_blocks) in enumerate(zip((1, *channels), channels, cfg.blocks_per_stage), start=1):
        yield f"stage{s}.adapter", cin, c, 1 if s == 1 else 2
        for b in range(1, n_blocks + 1):
            yield f"stage{s}.block{b}", c, c, 1


def _layout(cfg: DetectorConfig):
    """Each tensor of the detector in store order, as (name, shape, init): init(rng, shape)
    is its fresh value, and the weights draw from rng in this order."""

    def linear(prefix, shape, fan_in):  # a fan-in-scaled uniform weight, then a zero bias
        yield f"{prefix}.weight", shape, partial(_uniform, fan_in=fan_in)
        yield f"{prefix}.bias", shape[:1], _fill(0.0)

    k = cfg.cot_kernel
    for name, cin, c, _ in _walk(cfg):
        block = ".block" in name
        for i in ("1", "2") if block else ("",):  # a block's conv pair, an adapter's one conv
            yield from linear(f"{name}.conv{i}", (c, cin, 3, 3), cin * 9)
            # identity batch norm with frozen unit stats
            for stat, value in (("gamma", 1.0), ("beta", 0.0), ("mean", 0.0), ("var", 1.0)):
                yield f"{name}.bn{i}.{stat}", (c,), _fill(value)
        if block:
            hidden = c // ATTN_REDUCTION
            yield from linear(f"{name}.cot.key", (c, k, k), k * k)
            yield from linear(f"{name}.cot.attn1", (hidden, 2 * c), 2 * c)
            yield from linear(f"{name}.cot.attn2", (k * k, hidden), hidden)
            yield from linear(f"{name}.cot.value", (c, c), c)
    d, hidden = cfg.stage_channels[-1], cfg.pool_hidden
    yield "pool.w", (hidden, d), partial(_uniform, fan_in=d)
    yield "pool.b", (hidden,), _fill(0.0)
    yield "pool.v", (hidden,), partial(_uniform, fan_in=hidden)
    yield from linear("fc", (cfg.n_classes, cfg.embedding_dim), cfg.embedding_dim)


def init_parameters(cfg: DetectorConfig, seed: int) -> ParameterStore:
    """Deterministic fresh parameters: fan-in-scaled uniform conv/linear
    weights, zero biases, identity batch norm with frozen unit stats."""
    rng = np.random.default_rng(seed)
    store = ParameterStore(config=asdict(cfg))
    for name, shape, init in _layout(cfg):
        store.add(name, init(rng, shape))
    return store


def check_parameters(store: ParameterStore, cfg: DetectorConfig) -> None:
    """Raise ValueError unless the store holds exactly the tensors, by name and
    shape, that init_parameters writes for cfg."""
    want = {name: shape for name, shape, _ in _layout(cfg)}
    got = {name: arr.shape for name, arr in store.items()}
    problems = [f"tensor {name} has shape {got[name]}, the config needs {shape}" if name in got
                else f"missing tensor {name}" for name, shape in want.items() if got.get(name) != shape]
    problems += [f"unexpected tensor {name}" for name in got if name not in want]
    if problems:
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        raise ValueError(f"weights do not fit the detector config: {problems[0]}{more}")


def _unit_params(tensors, prefix: str) -> dict:
    """The tensors named prefix.*, with the prefix stripped, as float64 arrays."""
    dotted = f"{prefix}."
    return {name.removeprefix(dotted): np.asarray(arr, dtype=np.float64)
            for name, arr in tensors.items() if name.startswith(dotted)}


def adapter_forward(x, params, stride: int = 1):
    """Channel-raising adapter: 3x3 conv -> BN -> ReLU."""
    y = conv2d(x, params["conv.weight"], params["conv.bias"], stride=stride)
    batch_norm(y, params["bn.gamma"], params["bn.beta"], params["bn.mean"], params["bn.var"])
    return relu(y)


def cot_block_forward(x, params):
    """Contextual attention over a k x k neighbourhood.

    static  = depthwise k x k conv of x
    logits  = 1x1 conv -> ReLU -> 1x1 conv over concat[static, x], one map
              per window offset, shared across channels
    dynamic = softmax(logits)-weighted sum of the 1x1-conv value map over
              the window
    returns   static + dynamic  (shape-preserving)
    """
    static = depthwise_conv2d(x, params["key.weight"], params["key.bias"])
    head = conv1x1(np.concatenate([static, x], axis=0), params["attn1.weight"], params["attn1.bias"])
    logits = conv1x1(relu(head), params["attn2.weight"], params["attn2.bias"])
    weights = softmax(logits)
    del head, logits  # not needed by the aggregation, the widest step
    values = conv1x1(x, params["value.weight"], params["value.bias"])
    static += _window_accumulate(values, weights[:, None], params["key.weight"].shape[-1])
    return static


def _block_params(tensors, prefix: str) -> dict:
    """A residual block's tensors as _unit_params gives them, with its attention
    unit's also under "cot", so a pass over one tile prepares nothing."""
    params = _unit_params(tensors, prefix)
    return {**params, "cot": _unit_params(params, "cot")}


def res_cot_forward(x, params):
    """Residual block with the attention unit before the add and final ReLU;
    the shortcut is the identity, so the block keeps its channel count.
    params is a _block_params dict."""
    y = conv2d(x, params["conv1.weight"], params["conv1.bias"])
    batch_norm(y, params["bn1.gamma"], params["bn1.beta"], params["bn1.mean"], params["bn1.var"])
    y = conv2d(relu(y), params["conv2.weight"], params["conv2.bias"])
    batch_norm(y, params["bn2.gamma"], params["bn2.beta"], params["bn2.mean"], params["bn2.var"])
    y = cot_block_forward(y, params["cot"])
    y += x
    return relu(y)


def _units(store, cfg: DetectorConfig):
    """Each unit of the network in call order, as (forward, stride, halo, output channels):
    output frame t of a unit reads input frames stride*t - halo .. stride*t + halo."""
    block_halo = 2 + cfg.cot_kernel // 2  # two 3x3 convs, then the k x k attention window
    for name, _, c, stride in _walk(cfg):
        if ".block" in name:
            yield partial(res_cot_forward, params=_block_params(store, name)), stride, block_halo, c
        else:
            yield partial(adapter_forward, params=_unit_params(store, name), stride=stride), stride, 1, c


def _window(unit, stride, halo, x, start, fringe, first, last):
    """Output frames first .. last-1 of unit over x's first start frames followed by fringe.

    The unit runs on just the input frames those outputs read, in a window
    that starts on the stride grid, and the outputs that read the zero
    padding at a cut edge of the window are dropped: the rest equal the
    unit's pass over the whole input bit for bit.
    """
    lo = max(0, stride * first - halo) // stride * stride
    hi = min(start + fringe.shape[2], stride * (last - 1) + halo + 1)
    if hi <= start:
        window = x[:, :, lo:hi]
    else:
        window = np.concatenate([x[:, :, lo:start], fringe[:, :, max(0, lo - start) : hi - start]], axis=2)
    return unit(window)[:, :, first - lo // stride : last - lo // stride]


def _tile(y, window, first, last):
    y[:, :, first:last] = window(first, last)


def _head(x, pool, fc) -> Logits:
    """Frequency mean, attentive statistics pooling and the linear head."""
    h = x.mean(axis=1).T  # collapse frequency -> (T', C)
    emb = attentive_stats_pool(h, pool["w"], pool["b"], pool["v"])
    out = fc["weight"] @ emb + fc["bias"]
    return Logits(l_spoof=float(out[0]), l_bonafide=float(out[1]))


def detector_forward(feat, store: ParameterStore, cfg: DetectorConfig, prefix_frames=None, threads=None):
    """Forward pass from a log-mel spectrogram to the two class logits.

    With prefix_frames, a sequence of frame counts, returns one Logits per
    count, in order, each bit-identical to the forward of feat.values[:n].
    Every unit runs once over the longest prefix.  A shorter prefix differs
    from that pass only in a right-edge fringe of each activation, so the
    unit runs again on just that fringe plus its halo, and only the fringe
    is kept: the prefix's activation is the long pass's leading frames
    followed by its fringe (streaming convolution, Rybakov et al.,
    arXiv:2005.06720).

    The same window arithmetic cuts each unit's pass over the longest prefix
    into tiles of contiguous output frames, each run on its input window of
    at most about _TILE_ELEMS elements plus its halo.  threads threads, the
    calling thread among them, run a unit's tiles and fringe passes together,
    and the unit's outputs are bit-identical for every thread count.  threads
    None means one per CPU this process may run on (parallel.cores(): its
    affinity mask, not os.cpu_count()); CPU quotas are not counted.  The first
    failed job, in job order, ends the forward with its exception.
    """
    values = feat.values
    counts = [values.shape[0]] if prefix_frames is None else [int(n) for n in prefix_frames]
    for n in counts:
        if n < MIN_INPUT_FRAMES:
            raise ValueError(f"input has {n} frames; detector needs >= {MIN_INPUT_FRAMES}")
        if n > values.shape[0]:
            raise ValueError(f"prefix of {n} frames exceeds the input's {values.shape[0]}")
    longest = max(counts)
    x = values[:longest].T[None, :, :]  # (1, mels, frames)
    # shorter prefix n -> (first frame that differs from x, its frames from there on)
    fringes = {n: (n, x[:, :, n:n]) for n in set(counts) if n < longest}
    threads = cores() if threads is None else threads
    for unit, stride, halo, channels in _units(store, cfg):
        c, f, length = x.shape
        y = np.empty((channels, -(-f // stride), -(-length // stride)))
        whole = partial(_window, unit, stride, halo, x, length, x[:, :, length:])
        step = max(1, (_TILE_ELEMS // (c * f) - 2 * halo) // stride)
        tiles = [partial(_tile, y, whole, t, min(t + step, y.shape[2])) for t in range(0, y.shape[2], step)]
        # a shorter prefix's outputs from the first one that reads its fringe to its end
        spans = {n: (max(0, -((halo - start) // stride)), -(-(start + fringe.shape[2]) // stride))
                 for n, (start, fringe) in fringes.items()}
        passes = [partial(_window, unit, stride, halo, x, start, fringe, *spans[n])
                  for n, (start, fringe) in fringes.items()]
        done = each(_call, tiles + passes, threads)
        for _, exc in done:
            if exc is not None:
                raise exc
        fringes = {n: (spans[n][0], out) for n, (out, _) in zip(fringes, done[len(tiles) :])}
        x = y
    pool, fc = _unit_params(store, "pool"), _unit_params(store, "fc")
    logits = {longest: _head(x, pool, fc)}
    for n, (start, fringe) in fringes.items():
        logits[n] = _head(np.concatenate([x[:, :, :start], fringe], axis=2), pool, fc)
    if prefix_frames is None:
        return logits[longest]
    return [logits[n] for n in counts]


def _call(job):
    return job()


@dataclass(frozen=True)
class AggregatorConfig:
    """Shape contract for multi-layer representation fusion."""

    n_layers: int
    in_dim: int
    proj_dim: int = 128

    def __post_init__(self):
        if self.n_layers < 1 or self.in_dim < 1 or self.proj_dim < 1:
            raise ValueError("aggregator dims must be >= 1")


def init_aggregator_parameters(cfg: AggregatorConfig, seed: int) -> ParameterStore:
    rng = np.random.default_rng(seed)
    store = ParameterStore(config=asdict(cfg))
    store.add("proj.weight", _uniform(rng, (cfg.n_layers, cfg.proj_dim, cfg.in_dim), cfg.in_dim))
    store.add("proj.bias", np.zeros((cfg.n_layers, cfg.proj_dim)))
    store.add("ln1.gamma", np.ones(cfg.proj_dim))
    store.add("ln1.beta", np.zeros(cfg.proj_dim))
    store.add("layer_logits", np.zeros(cfg.n_layers))
    store.add("ln2.gamma", np.ones(cfg.proj_dim))
    store.add("ln2.beta", np.zeros(cfg.proj_dim))
    return store
