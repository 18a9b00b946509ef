"""Command-line surface wiring the full pipeline.

Subcommands: vad, present, pool, detect, eval, det, init-weights.
Every command exits 0 on success.  An OSError or ValueError that ends a
command is one `error:` line on stderr and exit 1 (`_Main.invoke`); any
other exception escapes as a bug.  vad, present and detect write partial
results and exit 1 when an item failed.  Entry-level randomness is seeded
per utterance from the global seed, so results do not depend on
--parallelism or processing order.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import click
import numpy as np

from .audio import (
    AudioClip,
    detect_voice,
    load_wav,
    net_speech_prefix,
    net_speech_seconds,
    prefix_samples,
    resample,
    save_wav,
    trim_nonspeech,
)
from .config import RunConfig, load_run_config
from .corpus import MIN_NET_SPEECH_S, PoolSpec, build_pool, from_doc, loads, read_lines, read_manifest, write_manifest
from .detector.model import MIN_INPUT_FRAMES, check_parameters, detector_forward, init_parameters, score
from .detector.params import load_parameters, save_parameters
from .features import check_frontend, frame_count, log_mel
from .metrics import (
    EvalProtocol,
    TrialScore,
    checkpoint_eval,
    det_curve,
    per_dataset_eval,
    pooled_eval,
    read_scores_csv,
    write_det_csv,
    write_scores_csv,
)
from .parallel import cores, each
from .presentation import ChannelConfig, PresentationJob, present
from .seeding import derive_seed


def _workers(cfg: RunConfig, parallelism, n_items):
    """Threads that run n_items at once: --parallelism (else the config's), at most one per core and per item."""
    return max(1, min(parallelism or cfg.parallelism, cores(), n_items))


def _parse_checkpoints(ctx, param, value):
    """--checkpoints, sorted, as the checkpoints of an EvalProtocol; None and the bare flag pass through."""
    if value is None or value == "config":
        return value
    try:
        cps = tuple(sorted(float(c) for c in value.split(",")))
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of seconds") from None
    try:
        return EvalProtocol(cps).checkpoints_s
    except ValueError as exc:
        raise click.BadParameter(f"{value!r}: {exc}") from None


def _not_nan(ctx, param, value):
    if math.isnan(value):
        raise click.BadParameter("nan is not a number")
    return value


def _report_failures(failures) -> bool:
    for name, msg in failures:
        click.echo(f"error: {name}: {msg}", err=True)
    return bool(failures)


class _Main(click.Group):
    """The one boundary: every input error the package raises is a ValueError."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OSError as exc:  # a missing or unwritable path, a directory, no permission
            message = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else exc
        except ValueError as exc:
            message = exc
        click.echo(f"error: {message}", err=True)
        sys.exit(1)


@click.group(cls=_Main)
@click.option(
    "--config",
    "config_path",
    envvar="SPOOFBENCH_CONFIG",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON run configuration (defaults apply when omitted).",
)
@click.pass_context
def main(ctx, config_path):
    """Deepfake-detection evaluation toolkit."""
    ctx.obj = load_run_config(config_path)


@main.command("vad")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--trim-dir", type=click.Path(file_okay=False), default=None)
@click.option("--parallelism", type=click.IntRange(min=1), default=None)
@click.pass_obj
def cmd_vad(cfg: RunConfig, in_path, out_path, trim_dir, parallelism):
    """Fill net_speech_s for each manifest entry; optionally write trimmed WAVs."""
    entries = read_manifest(in_path)
    failures = {}  # utt_id -> message
    if trim_dir:
        Path(trim_dir).mkdir(parents=True, exist_ok=True)
        failures = _collisions([(e.utt_id, f"entry {e.utt_id}",
                                 {"path": e.path, "output": str(Path(trim_dir) / f"{e.utt_id}.wav")}) for e in entries])
    runnable = [e for e in entries if e.utt_id not in failures]
    workers = _workers(cfg, parallelism, len(runnable))
    results = each(partial(_vad_entry, cfg, trim_dir), runnable, workers)
    write_manifest(sorted((e for e, _ in results if e is not None), key=lambda e: e.utt_id), out_path)
    failures.update((e.utt_id, str(exc)) for e, (_, exc) in zip(runnable, results) if exc is not None)
    if _report_failures([(e.utt_id, failures[e.utt_id]) for e in entries if e.utt_id in failures]):
        sys.exit(1)


def _vad_entry(cfg: RunConfig, trim_dir, entry):
    """entry with its net speech filled in; with trim_dir, also its speech written there, which its path names."""
    name = f"{entry.utt_id}.wav"
    if trim_dir and Path(name).name != name:  # a "/" in the id would put the file outside trim_dir
        raise ValueError(f"{name} is not a plain file name in {trim_dir}")
    clip = resample(load_wav(entry.path), cfg.sample_rate_hz)
    mask = detect_voice(clip, cfg.vad)
    updated = replace(entry, net_speech_s=net_speech_seconds(mask))
    if trim_dir:
        trimmed_path = Path(trim_dir) / name
        save_wav(trim_nonspeech(clip, mask), trimmed_path)
        updated = replace(updated, path=str(trimmed_path))
    return updated


@main.command("present")
@click.option("--jobs", "jobs_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Global seed (default from config).")
@click.option("--parallelism", type=click.IntRange(min=1), default=None)
@click.pass_obj
def cmd_present(cfg: RunConfig, jobs_path, seed, parallelism):
    """Run presentation jobs from a JSON Lines file.

    Job fields: input, output, path, codec, gain_db, snr_db, ir, seed,
    utt_id.  Per-job seed defaults to hash(global seed, utt_id); utt_id
    defaults to the input file stem.
    """
    global_seed = cfg.global_seed if seed is None else seed
    jobs, failures = [], []  # failures: (line number, name, message)
    for lineno, line in read_lines(jobs_path):
        try:
            jobs.append((lineno, from_doc(PresentationJob, loads(line))))
        except ValueError as exc:  # not JSON, of the wrong shape, or a channel rule broken
            failures.append((lineno, f"line {lineno}", str(exc)))
    collisions = _collisions([(lineno, f"line {lineno}", {"input": job.input, "ir": job.ir, "output": job.output})
                              for lineno, job in jobs])
    failures += [(lineno, job.name, collisions[lineno]) for lineno, job in jobs if lineno in collisions]
    jobs = [(lineno, job) for lineno, job in jobs if lineno not in collisions]
    workers = _workers(cfg, parallelism, len(jobs))
    groups = _input_groups(jobs, -(-len(jobs) // workers))
    results = each(partial(_present_group, cfg, global_seed), [[job for _, job in group] for group in groups], workers)
    failures += [(lineno, job.name, str(exc)) for group, (errors, _) in zip(groups, results)
                 for (lineno, job), exc in zip(group, errors) if exc is not None]
    if _report_failures([failure[1:] for failure in sorted(failures)]):
        sys.exit(1)


def _collisions(items):
    """{key: message} of each item whose output another item also reads or writes: which of the two
    ran first would decide the result.  items: (key, name, {role: path}) with the path an item writes
    under "output"; a path of None names no file."""
    real = {path: _resolved(path) for _, _, paths in items for path in paths.values() if path is not None}
    users = {}  # resolved path -> (key, name, role) of each item that names it, in item order
    for key, name, paths in items:
        for role, path in paths.items():
            if path is not None:
                users.setdefault(real[path], []).append((key, name, role))
    collisions = {}
    for key, _, paths in items:
        other = next(((name, role) for k, name, role in users[real[paths["output"]]] if k != key), None)
        if other is not None:
            collisions[key] = f"output {paths['output']} is also the {other[1]} of {other[0]}"
    return collisions


def _resolved(path):
    """path made absolute with its symbolic links resolved; a path holding a NUL names no file and stays as it is."""
    try:
        return os.path.realpath(path)
    except ValueError:  # a NUL in the path: its job fails when it runs
        return path


def _input_groups(jobs, size):
    """(line number, job) pairs grouped by input, in order of first appearance, each group in file
    order and cut into pieces of at most size jobs, so that an input shared by many jobs still
    spreads over the workers."""
    by_input = {}
    for lineno, job in jobs:
        by_input.setdefault(job.input, []).append((lineno, job))
    return [group[i : i + size] for group in by_input.values() for i in range(0, len(group), size)]


def _present_group(cfg: RunConfig, global_seed, jobs):
    """The exception of each of jobs, None where it was written; jobs share one input, which is
    read and resampled once."""
    try:
        clip = resample(load_wav(jobs[0].input), cfg.sample_rate_hz)
    except Exception as exc:  # each job fails as it would alone
        return [exc] * len(jobs)
    # one thread: the jobs run in file order on this worker, each failing alone
    return [exc for _, exc in each(partial(_present_job, cfg, global_seed, clip), jobs, 1)]


def _present_job(cfg: RunConfig, global_seed, clip, job: PresentationJob):
    """Present clip, job's input read and resampled, through job's channel and write the output."""
    ir = None if job.ir is None else resample(load_wav(job.ir), cfg.sample_rate_hz)
    channel = ChannelConfig(path=job.path, ir=ir, codec=job.codec, gain_db=job.gain_db, snr_db=job.snr_db)
    out = present(clip, channel, derive_seed(global_seed, job.name) if job.seed is None else job.seed)
    Path(job.output).parent.mkdir(parents=True, exist_ok=True)
    save_wav(out, job.output)


@main.command("pool")
@click.option("--manifests", "manifest_paths", required=True, multiple=True, type=click.Path(exists=True))
@click.option("--per-class", type=click.IntRange(min=1), default=3000, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--min-net-speech", type=click.FloatRange(min=0), default=MIN_NET_SPEECH_S, show_default=True,
              callback=_not_nan)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_obj
def cmd_pool(cfg: RunConfig, manifest_paths, per_class, seed, min_net_speech, out_path):
    """Build the balanced pooled test set from per-dataset manifests."""
    manifests = [read_manifest(p) for p in manifest_paths]
    spec = PoolSpec(
        per_class_per_dataset=per_class,
        seed=cfg.global_seed if seed is None else seed,
        min_net_speech_s=min_net_speech,
    )
    write_manifest(build_pool(manifests, spec), out_path)


@main.command("detect")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--weights", "weights_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option(
    "--checkpoints",
    default=None,
    is_flag=False,
    flag_value="config",
    callback=_parse_checkpoints,
    help="Comma-separated net-speech checkpoints in seconds; bare flag uses the protocol defaults.",
)
@click.option("--parallelism", type=click.IntRange(min=1), default=None)
@click.pass_obj
def cmd_detect(cfg: RunConfig, manifest_path, weights_path, out_path, checkpoints, parallelism):
    """Score manifest entries: VAD -> (checkpoint prefix) -> log-mel -> detector."""
    entries = read_manifest(manifest_path)
    store = load_parameters(weights_path)
    try:
        det_cfg = check_parameters(store)
    except ValueError as exc:
        raise ValueError(f"{weights_path}: {exc}") from exc
    sr = cfg.sample_rate_hz
    try:  # once here, not in every entry after it is loaded, resampled and VAD-ed
        check_frontend(cfg.features, sr)
    except ValueError as exc:
        raise ValueError(f"features at {sr} Hz: {exc}") from exc
    cps = cfg.protocol.checkpoints_s if checkpoints == "config" else checkpoints
    if cps is not None:
        k = min(cps)  # the shortest checkpoint's prefix has the fewest frames
        try:
            frames = frame_count(prefix_samples(k, cfg.vad.hop_s, sr), sr, cfg.features)
        except ValueError as exc:  # a prefix shorter than one feature window
            raise ValueError(f"checkpoint {k:g}s: {exc}") from exc
        if frames < MIN_INPUT_FRAMES:
            raise ValueError(f"checkpoint {k:g}s: its prefix has {frames} frames; detector needs >= {MIN_INPUT_FRAMES}")
    workers = _workers(cfg, parallelism, len(entries))
    # each worker's forwards run their tiles on an equal share of the cores
    work = partial(_score_entry, cfg, cps, store, det_cfg, cores() // workers)
    # the largest files start first, so no worker is left with a long entry at the end
    order = sorted(range(len(entries)), key=lambda i: _file_size(entries[i].path), reverse=True)
    results = [None] * len(entries)
    for i, result in zip(order, each(work, [entries[i] for i in order], workers)):
        results[i] = result
    trials = [t for out, _ in results if out for t in out[0]]
    trials.sort(key=lambda t: (t.utt_id, t.checkpoint_s if t.checkpoint_s is not None else -1.0))
    write_scores_csv(trials, out_path)
    for out, _ in results:
        if out and out[1]:
            click.echo(out[1], err=True)
    if _report_failures([(e.utt_id, str(exc)) for e, (_, exc) in zip(entries, results) if exc is not None]):
        sys.exit(1)


def _file_size(path):
    """path's size in bytes; -1 when it cannot be read, so its entry starts last and fails when scored."""
    try:
        return os.stat(path).st_size
    except (OSError, ValueError):  # ValueError: a NUL in the path
        return -1


def _score_entry(cfg: RunConfig, cps, store, det_cfg, threads, entry):
    """(rows, skip note) of one manifest entry: load -> resample -> VAD -> (checkpoint prefixes) ->
    log-mel -> detector, one row per checkpoint, or one for the full length when cps is None.
    threads: the tile threads of each forward."""
    clip = resample(load_wav(entry.path), cfg.sample_rate_hz)
    mask = detect_voice(clip, cfg.vad)
    net = net_speech_seconds(mask)
    if net < MIN_NET_SPEECH_S:
        return [], f"{entry.utt_id}: skipped ({net:.2f}s net speech < {MIN_NET_SPEECH_S}s)"
    ks = [None] if cps is None else [k for k in cps if k <= net + 1e-9]
    if not ks:
        return [], f"{entry.utt_id}: skipped ({net:.2f}s net speech < first checkpoint {min(cps):g}s)"
    # the speech is cut once, to the longest prefix: a shorter one is its first prefix_samples(k)
    speech = trim_nonspeech(clip, mask) if cps is None else net_speech_prefix(clip, mask, max(ks))
    del clip  # a long clip's samples are not held through the forwards
    sr = speech.sample_rate_hz
    lengths = [len(speech) if k is None else min(prefix_samples(k, mask.hop_s, sr), len(speech)) for k in ks]
    counts = [frame_count(n, sr, cfg.features) for n in lengths]
    if cfg.features.mean_var_norm:  # normalized features of a prefix are not rows of the longest prefix's
        inputs = [(log_mel(AudioClip(speech.samples[:n], sr), cfg.features), [c]) for n, c in zip(lengths, counts)]
    else:  # one log-mel and one forward over the longest prefix score them all
        inputs = [(log_mel(speech, cfg.features), counts)]
    del speech
    scores = []
    for feat, frames in inputs:
        logits = detector_forward(feat, store, det_cfg, prefix_frames=frames, threads=threads)
        scores += [score(l).s for l in logits]
    return [TrialScore(entry.utt_id, entry.label, s, entry.dataset, k) for k, s in zip(ks, scores)], None


def _full_length(trials, path):
    """The full-length rows; a file of checkpoint rows alone is an error, not a pool of them."""
    full = trials.select(np.isnan(trials.checkpoint_s))
    if len(trials) and not len(full):
        raise ValueError(f"{path}: no full-length rows, only checkpoint rows; evaluate those with eval --checkpoint-avg")
    return full


@main.command("eval")
@click.option("--scores", "scores_path", required=True, type=click.Path(exists=True))
@click.option("--far", "far_target", type=click.FloatRange(0, 1, min_open=True), default=0.01, show_default=True,
              callback=_not_nan)
@click.option("--pooled", is_flag=True)
@click.option("--per-dataset", is_flag=True)
@click.option("--checkpoint-avg", is_flag=True)
@click.option("--no-timestamp", is_flag=True, help="Omit generated_at from the report.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_obj
def cmd_eval(cfg: RunConfig, scores_path, far_target, pooled, per_dataset, checkpoint_avg, no_timestamp, out_path):
    """Compute EER / MDR@FAR reports from a score CSV."""
    report: dict = {"far_target": far_target}
    if not (pooled or per_dataset or checkpoint_avg):
        pooled = True
    trials = read_scores_csv(scores_path)
    if pooled:
        report["pooled"] = asdict(pooled_eval(_full_length(trials, scores_path), far_target))
    if per_dataset:
        by_ds, average = per_dataset_eval(_full_length(trials, scores_path), far_target)
        report["per_dataset"] = {ds: asdict(r) for ds, r in by_ds.items()}
        report["per_dataset_average"] = asdict(average)
    if checkpoint_avg:
        cps = trials.checkpoint_s
        dropped = cps[~(np.isnan(cps) | np.isin(cps, cfg.protocol.checkpoints_s))]
        if dropped.size:
            values = ",".join(f"{cp:g}s" for cp in sorted(set(dropped.tolist())))
            click.echo(f"note: dropped {dropped.size} rows at checkpoints not in the protocol: {values}", err=True)
        by_cp, average = checkpoint_eval(trials, cfg.protocol, far_target)
        report["checkpoint_avg"] = asdict(average)
        report["per_checkpoint"] = {f"{cp:g}": asdict(r) for cp, r in by_cp.items()}
    if not no_timestamp:
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    Path(out_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


@main.command("det")
@click.option("--scores", "scores_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_det(scores_path, out_path):
    """Emit the DET-curve staircase as CSV (threshold, far, mdr)."""
    trials = read_scores_csv(scores_path)
    write_det_csv(det_curve(_full_length(trials, scores_path)), out_path)


@main.command("init-weights")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_obj
def cmd_init_weights(cfg: RunConfig, seed, out_path):
    """Write a freshly initialized weight file for the configured detector."""
    name, seed = ("global_seed", cfg.global_seed) if seed is None else ("--seed", seed)
    if seed < 0:  # numpy's generator takes no negative seed
        raise ValueError(f"init-weights: {name} {seed} is negative; the weights need a seed >= 0")
    store = init_parameters(cfg.detector, seed)
    save_parameters(store, out_path)


if __name__ == "__main__":
    main()
