"""Span tracer for the benchmark's traced run, and the per-layer metrics.

Run as a script, it imports the CLI (timing the import), runs each command
of a plan in-process untraced, then wraps the public functions listed in
``PATCHES`` in the namespace their callers look them up in, runs the
commands again and writes every span once, at the end:

    python3 benchmarks/tracer.py PLAN.json SPANS.json

A span records name, start, end, parent span and run id (one run per
command).  Self time is a span's duration minus the part of it that its
child spans cover.  A function missing from the program is listed under
``missing`` and its metrics are left out rather than failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

OPS = ("conv2d", "conv1x1", "depthwise_conv2d", "batch_norm", "softmax", "attentive_stats_pool")
AUDIO = ("load_wav", "save_wav", "resample", "detect_voice", "net_speech_prefix", "trim_nonspeech")
PRESENTATION = ("present", "convolve_ir", "bandpass_telephony", "codec_roundtrip", "add_colored_noise", "soft_clip")
CORPUS = ("read_manifest", "write_manifest", "build_pool")
METRICS = ("read_scores_csv", "evaluate", "det_curve", "write_det_csv", "write_scores_csv")
AT_LENGTHS_S = (2, 6, 15, 20)
BREAKDOWN_AT_S = 6
FRAMES_PER_S = 100  # log-mel hop of 10 ms
LENGTH_TOL = 0.1  # a forward counts as "at k s" within 10% of k s of frames

# (module, attribute, span name).  Callers import these names directly, so
# each is patched where its caller looks it up.
PATCHES = [
    ("spoofbench.cli", "load_parameters", "detector.params.load_parameters"),
    ("spoofbench.cli", "detector_forward", "detector.forward"),
    ("spoofbench.detector.model", "adapter_forward", "detector.adapter"),
    ("spoofbench.detector.model", "res_cot_forward", "detector.block"),
    ("spoofbench.detector.model", "cot_block_forward", "detector.cot"),
    *[("spoofbench.detector.model", op, f"detector.ops.{op}") for op in OPS],
    ("spoofbench.detector.ops", "softmax", "detector.ops.softmax"),
    ("spoofbench.cli", "log_mel", "features.log_mel"),
    *[("spoofbench.cli", fn, f"audio.{fn}") for fn in AUDIO],
    ("spoofbench.audio", "trim_nonspeech", "audio.trim_nonspeech"),
    ("spoofbench.cli", "present", "presentation.present"),
    *[("spoofbench.presentation", fn, f"presentation.{fn}") for fn in PRESENTATION[1:]],
    *[("spoofbench.cli", fn, f"corpus.{fn}") for fn in CORPUS],
    *[("spoofbench.cli", fn, f"metrics.{fn}") for fn in METRICS if fn != "evaluate"],
    ("spoofbench.metrics", "evaluate", "metrics.evaluate"),
]

# Spans that make up the detector's own structure (ops are inside them).
MODEL_SPANS = {"detector.forward", "detector.adapter", "detector.block", "detector.cot",
               "detector.ops.attentive_stats_pool"}


def _stage_layout(blocks_per_stage) -> list:
    """Unit labels in call order inside one forward pass."""
    layout = []
    for s, n in enumerate(blocks_per_stage, start=1):
        layout.append(f"stage{s}.adapter")
        layout += [f"stage{s}.block{b}" for b in range(1, n + 1)]
    return layout


def per_layer_names(blocks_per_stage=(2, 2, 2, 2)) -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    s, c = "s", "count"
    units = _stage_layout(blocks_per_stage)
    rows = [("detector.forward.self_s", s), ("detector.forward.calls", c), ("detector.forward.frames_in", c)]
    for u in units:
        rows += [(f"detector.{u}.self_s", s)] if u.endswith("adapter") else [
            (f"detector.{u}.conv.self_s", s), (f"detector.{u}.cot.self_s", s)]
    rows += [("detector.pool.self_s", s), ("detector.fc.self_s", s)]
    for op in OPS:
        rows += [(f"detector.ops.{op}.self_s", s), (f"detector.ops.{op}.calls", c)]
    rows += [("detector.gflop", "GFLOP-computed"), ("detector.gbytes", "GB-computed")]
    rows += [("detector.params.load_parameters.self_s", s)]
    rows += [(f"detector.forward.at_{k}s_s", s) for k in AT_LENGTHS_S]
    for u in units:
        rows += [(f"detector.at_{BREAKDOWN_AT_S}s.{u}_s", s)] if u.endswith("adapter") else [
            (f"detector.at_{BREAKDOWN_AT_S}s.{u}.conv_s", s), (f"detector.at_{BREAKDOWN_AT_S}s.{u}.cot_s", s)]
    rows += [(f"detector.at_{BREAKDOWN_AT_S}s.pool_s", s), ("detector.share_of_wall", "ratio")]
    rows += [("features.log_mel.self_s", s), ("features.log_mel.calls", c), ("features.log_mel.frames", c)]
    for fn in AUDIO:
        rows += [(f"audio.{fn}.self_s", s), (f"audio.{fn}.calls", c)]
    rows += [(f"presentation.{fn}.self_s", s) for fn in PRESENTATION]
    rows += [(f"corpus.{fn}.self_s", s) for fn in CORPUS]
    rows += [(f"metrics.{fn}.self_s", s) for fn in METRICS] + [("metrics.evaluate.calls", c)]
    rows += [("cli.import_s", s), ("cli.other.self_s", s), ("cli.items.ok", c), ("cli.items.skipped", c),
             ("cli.items.failed", c), ("cli.parallel_efficiency", "ratio"), ("trace.overhead", "ratio")]
    higher = {"cli.items.ok", "cli.parallel_efficiency"}
    return [(name, unit, "higher" if name in higher else "lower") for name, unit in rows]


PER_LAYER = per_layer_names()


# --- computed work of the detector ops (flops, bytes moved) -------------------
# Activations are float64 and weights float32; bytes count each operand once.

def _conv_cost(args, out):
    x, w = args[0], args[1]
    per_out = w.size // w.shape[0] if w.ndim == 4 else w.shape[1]  # ci*kh*kw or ci
    return 2 * per_out * out.size, 8 * (x.size + out.size) + 4 * w.size


def _depthwise_cost(args, out):
    x, w = args[0], args[1]
    return 2 * (w.size // w.shape[0]) * out.size, 8 * (x.size + out.size) + 4 * w.size


def _elementwise_cost(flops_per_element):
    return lambda args, out: (flops_per_element * out.size, 16 * out.size)


def _pool_cost(args, out):
    h, w = args[0], args[1]
    t, d = h.shape
    return 2 * t * d * w.shape[0] + 6 * t * d, 8 * (h.size + out.size) + 4 * w.size


_COSTS = {
    "detector.ops.conv2d": _conv_cost,
    "detector.ops.conv1x1": _conv_cost,
    "detector.ops.depthwise_conv2d": _depthwise_cost,
    "detector.ops.batch_norm": _elementwise_cost(2),
    "detector.ops.softmax": _elementwise_cost(4),
    "detector.ops.attentive_stats_pool": _pool_cost,
}


def _measure(name, args, result) -> dict:
    """Work counts a span carries besides its times."""
    try:
        if name == "detector.forward":
            return {"frames_in": int(args[0].values.shape[0])}
        if name == "features.log_mel":
            return {"frames": int(result.n_frames)}
        if name in _COSTS:
            flops, nbytes = _COSTS[name](args, result)
            return {"flops": int(flops), "bytes": int(nbytes)}
    except (AttributeError, IndexError, TypeError, ValueError):
        pass  # a changed signature loses the counts, not the run
    return {}


class Tracer:
    """Collects spans in memory; single-threaded (the traced run is serial)."""

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "run": self.run}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            record.update(_measure(name, args, result))
            return result

        return traced

    def install(self, patches=PATCHES) -> list:
        """Patch every target that exists; return the span names of missing ones."""
        missing = []
        for module_name, attr, name in patches:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(name)
            else:
                setattr(module, attr, self.wrap(fn, name))
        return missing


# --- analysis -------------------------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def tree(spans, keep=None) -> dict:
    """Children of each kept span (and of None, the roots), skipping dropped spans:
    a kept span's parent becomes its nearest kept ancestor."""
    by_id = {s["id"]: s for s in spans}
    children: dict = {}
    for s in spans:
        if keep is not None and not keep(s):
            continue
        parent = s["parent"]
        while parent is not None and keep is not None and not keep(by_id[parent]):
            parent = by_id[parent]["parent"]
        children.setdefault(parent, []).append(s)
    return children


def self_times(spans, keep=None) -> dict:
    """span id -> duration minus the time its (kept) children cover."""
    children = tree(spans, keep)
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered([(c["start"], c["end"]) for c in children.get(s["id"], [])], s["start"], s["end"])
        for s in spans
        if keep is None or keep(s)
    }


def forward_parts(spans, blocks_per_stage) -> list:
    """(forward span, {unit label: seconds}) for each forward pass.

    Units are labelled by call order against the weights' stage layout:
    an adapter's time, a block's time outside its attention unit ("conv"),
    the attention unit ("cot"), pooling (end of the last block to the end of
    attentive pooling) and the head ("fc", the rest of the pass).
    """
    children = tree(spans, keep=lambda s: s["name"] in MODEL_SPANS)
    layout = _stage_layout(blocks_per_stage)
    out = []
    for fwd in (s for s in spans if s["name"] == "detector.forward"):
        kids = children.get(fwd["id"], [])
        units = [k for k in kids if k["name"] in ("detector.adapter", "detector.block")]
        kinds = ["adapter" if k["name"] == "detector.adapter" else "block" for k in units]
        if kinds != [u.rsplit(".", 1)[1].rstrip("0123456789") for u in layout]:
            out.append((fwd, {}))
            continue
        parts = {}
        for label, unit in zip(layout, units):
            duration = unit["end"] - unit["start"]
            if label.endswith("adapter"):
                parts[label] = duration
            else:
                cot = sum(c["end"] - c["start"] for c in children.get(unit["id"], []) if c["name"] == "detector.cot")
                parts[f"{label}.conv"] = duration - cot
                parts[f"{label}.cot"] = cot
        pools = [k for k in kids if k["name"] == "detector.ops.attentive_stats_pool"]
        if pools:
            parts["pool"] = pools[-1]["end"] - units[-1]["end"]
            parts["fc"] = fwd["end"] - pools[-1]["end"]
        out.append((fwd, parts))
    return out


def layer_metrics(doc, blocks_per_stage, items, untraced_wall, workers) -> dict:
    """name -> value for every per-layer metric whose functions exist.

    items: {"ok", "skipped", "failed"} from checking the traced run's outputs.
    untraced_wall: the same pass run as separate untraced processes at the
    workload's parallelism (`workers`); one import per command is taken off
    it, using the traced process's own import time.  Tracing overhead
    compares the traced commands with the same commands run in-process,
    untraced, just before.
    """
    spans = doc["spans"]
    selfs = self_times(spans)
    by_name: dict = {}
    for s in spans:
        entry = by_name.setdefault(s["name"], {"self": 0.0, "calls": 0, "flops": 0, "bytes": 0, "frames": 0})
        entry["self"] += selfs[s["id"]]
        entry["calls"] += 1
        entry["flops"] += s.get("flops", 0)
        entry["bytes"] += s.get("bytes", 0)
        entry["frames"] += s.get("frames_in", 0) + s.get("frames", 0)

    def stat(name, key):
        return by_name.get(name, {}).get(key, 0.0 if key == "self" else 0)

    m = {
        "detector.forward.self_s": stat("detector.forward", "self"),
        "detector.forward.calls": stat("detector.forward", "calls"),
        "detector.forward.frames_in": stat("detector.forward", "frames"),
    }
    parts = forward_parts(spans, blocks_per_stage)
    names = [n for n, _, _ in per_layer_names(blocks_per_stage)]
    for name in names:
        if name.startswith("detector.stage") or name in ("detector.pool.self_s", "detector.fc.self_s"):
            m[name] = sum(p.get(name[len("detector."):-len(".self_s")], 0.0) for _, p in parts)
    for op in OPS:
        m[f"detector.ops.{op}.self_s"] = stat(f"detector.ops.{op}", "self")
        m[f"detector.ops.{op}.calls"] = stat(f"detector.ops.{op}", "calls")
    ops = [v for k, v in by_name.items() if k.startswith("detector.ops.")]
    m["detector.gflop"] = sum(v["flops"] for v in ops) / 1e9
    m["detector.gbytes"] = sum(v["bytes"] for v in ops) / 1e9
    m["detector.params.load_parameters.self_s"] = stat("detector.params.load_parameters", "self")

    def at(k):
        frames = k * FRAMES_PER_S
        return [(f, p) for f, p in parts if abs(f.get("frames_in", 0) - frames) <= LENGTH_TOL * frames]

    for k in AT_LENGTHS_S:
        durations = [f["end"] - f["start"] for f, _ in at(k)]
        m[f"detector.forward.at_{k}s_s"] = statistics.median(durations) if durations else 0.0
    breakdown = [p for _, p in at(BREAKDOWN_AT_S) if p]
    prefix = f"detector.at_{BREAKDOWN_AT_S}s."
    for name in names:
        if name.startswith(prefix):
            key = name[len(prefix):-len("_s")]
            m[name] = statistics.median(p[key] for p in breakdown) if breakdown else 0.0

    command_wall = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    detector_self = sum(v["self"] for k, v in by_name.items() if k.startswith("detector."))
    m["detector.share_of_wall"] = detector_self / command_wall if command_wall else 0.0

    m["features.log_mel.self_s"] = stat("features.log_mel", "self")
    m["features.log_mel.calls"] = stat("features.log_mel", "calls")
    m["features.log_mel.frames"] = stat("features.log_mel", "frames")
    for fn in AUDIO:
        m[f"audio.{fn}.self_s"] = stat(f"audio.{fn}", "self")
        m[f"audio.{fn}.calls"] = stat(f"audio.{fn}", "calls")
    for fn in PRESENTATION:
        m[f"presentation.{fn}.self_s"] = stat(f"presentation.{fn}", "self")
    for fn in CORPUS:
        m[f"corpus.{fn}.self_s"] = stat(f"corpus.{fn}", "self")
    for fn in METRICS:
        m[f"metrics.{fn}.self_s"] = stat(f"metrics.{fn}", "self")
    m["metrics.evaluate.calls"] = stat("metrics.evaluate", "calls")

    n_commands = sum(1 for s in spans if s["parent"] is None)
    start_up = n_commands * doc["import_s"]
    m["cli.import_s"] = doc["import_s"]
    m["cli.other.self_s"] = sum(selfs[s["id"]] for s in spans if s["parent"] is None)
    m["cli.items.ok"], m["cli.items.skipped"], m["cli.items.failed"] = items["ok"], items["skipped"], items["failed"]
    serial = sum(doc["untraced_command_s"])
    m["cli.parallel_efficiency"] = serial / ((untraced_wall - start_up) * workers)
    m["trace.overhead"] = command_wall / serial

    missing = set(doc.get("missing", ()))
    if missing & {"detector.adapter", "detector.block", "detector.cot"}:  # the per-unit split needs all three
        missing |= {"detector.stage", f"detector.at_{BREAKDOWN_AT_S}s."}
    return {k: v for k, v in m.items() if not any(k.startswith(name) for name in missing)}


# --- traced child process ---------------------------------------------------------

def _invoke(main, argv) -> int:
    import click

    try:
        main.main(args=argv, prog_name="spoofbench", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return 0


def run_plan(plan_path, out_path) -> int:
    commands = json.loads(Path(plan_path).read_text())["commands"]
    t0 = time.perf_counter()
    cli = importlib.import_module("spoofbench.cli")
    import_s = time.perf_counter() - t0
    untraced = []
    for argv in commands:
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            _invoke(cli.main, argv)
        untraced.append(time.perf_counter() - t0)
    tracer = Tracer()
    missing = tracer.install()
    results = []
    for run, argv in enumerate(commands):
        tracer.run = run
        name = next(a for i, a in enumerate(argv) if not a.startswith("-") and (i == 0 or argv[i - 1] != "--config"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), tracer.span(f"cli.{name}"):
            code = _invoke(cli.main, argv)
        results.append({"argv": argv, "exit_code": code, "stderr": err.getvalue()})
    doc = {"import_s": import_s, "untraced_command_s": untraced, "missing": missing, "commands": results,
           "spans": tracer.spans}
    Path(out_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(run_plan(*sys.argv[1:3]))
