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

import collections
import datetime
import json
import math
import os
import sys
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .audio import (
    detect_voice,
    load_wav,
    net_speech_prefix,
    net_speech_seconds,
    resample,
    save_wav,
    trim_nonspeech,
)
from .config import RunConfig, load_run_config
from .corpus import MIN_NET_SPEECH_S, PoolSpec, build_pool, from_doc, read_manifest, write_manifest
from .detector.model import DetectorConfig, check_parameters, detector_forward, init_parameters, score
from .detector.params import load_parameters, save_parameters
from .features import frame_count, log_mel
from .metrics import (
    TrialScore,
    checkpoint_eval,
    det_curve,
    per_dataset_eval,
    pooled_eval,
    read_scores_csv,
    write_det_csv,
    write_scores_csv,
)
from .presentation import ChannelConfig, present
from .seeding import derive_seed


def _map_entries(fn, items, workers: int):
    """Apply fn to items, optionally in a thread pool; order is preserved."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _read_jobs(path):
    """The non-blank lines of a jobs file, with their line numbers."""
    with open(path, encoding="utf-8") as fh:
        try:
            return [(lineno, line) for lineno, line in enumerate(fh, start=1) if line.strip()]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _parse_checkpoints(ctx, param, value):
    """--checkpoints as a tuple of distinct finite positive seconds; None and the bare flag pass through."""
    if value is None or value == "config":
        return value
    try:
        cps = tuple(float(c) for c in value.split(","))
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of seconds") from None
    if not all(math.isfinite(c) and c > 0 for c in cps):
        raise click.BadParameter(f"{value!r}: each checkpoint must be a finite number of seconds above 0")
    if len(set(cps)) < len(cps):
        raise click.BadParameter(f"{value!r}: a checkpoint repeats")
    return cps


def _not_nan(ctx, param, value):
    if math.isnan(value):
        raise click.BadParameter("nan is not a number of seconds")
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
    if trim_dir:
        Path(trim_dir).mkdir(parents=True, exist_ok=True)

    def process(entry):
        try:
            clip = resample(load_wav(entry.path), cfg.sample_rate_hz)
            mask = detect_voice(clip, cfg.vad)
            updated = replace(entry, net_speech_s=net_speech_seconds(mask))
            if trim_dir:
                trimmed_path = Path(trim_dir) / f"{entry.utt_id}.wav"
                save_wav(trim_nonspeech(clip, mask), trimmed_path)
                updated = replace(updated, path=str(trimmed_path))
            return updated, None
        except Exception as exc:  # per-entry failure, keep going
            return None, (entry.utt_id, str(exc))

    results = _map_entries(process, entries, parallelism or cfg.parallelism)
    ok = sorted((e for e, _ in results if e is not None), key=lambda e: e.utt_id)
    failures = [f for _, f in results if f is not None]
    write_manifest(ok, out_path)
    if _report_failures(failures):
        sys.exit(1)


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
    jobs = _read_jobs(jobs_path)

    def run(item):
        lineno, line = item
        name = f"line {lineno}"
        try:
            job = json.loads(line)
            name = job.get("utt_id") or Path(job.get("input", name)).stem
            clip = resample(load_wav(job["input"]), cfg.sample_rate_hz)
            ir = None
            if job.get("ir"):
                ir = resample(load_wav(job["ir"]), cfg.sample_rate_hz)
            channel = ChannelConfig(
                path=job["path"],
                ir=ir,
                codec=job.get("codec", "none"),
                gain_db=job.get("gain_db", 0.0),
                noise_snr_db=job.get("snr_db"),
            )
            job_seed = job["seed"] if "seed" in job else derive_seed(global_seed, name)
            out = present(clip, channel, job_seed)
            Path(job["output"]).parent.mkdir(parents=True, exist_ok=True)
            save_wav(out, job["output"])
            return None
        except Exception as exc:
            return (name, str(exc))

    failures = [f for f in _map_entries(run, jobs, parallelism or cfg.parallelism) if f]
    if _report_failures(failures):
        sys.exit(1)


@main.command("pool")
@click.option("--manifests", "manifest_opts", multiple=True, type=click.Path(exists=True))
@click.option("--per-class", type=click.IntRange(min=1), default=3000, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--min-net-speech", type=click.FloatRange(min=0), default=MIN_NET_SPEECH_S, show_default=True,
              callback=_not_nan)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.argument("manifest_args", nargs=-1, type=click.Path(exists=True))
@click.pass_obj
def cmd_pool(cfg: RunConfig, manifest_opts, per_class, seed, min_net_speech, out_path, manifest_args):
    """Build the balanced pooled test set from per-dataset manifests."""
    paths = list(manifest_opts) + list(manifest_args)
    if not paths:
        raise click.UsageError("no manifests given")
    manifests = [read_manifest(p) for p in paths]
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
        det_cfg = from_doc(DetectorConfig, store.config) if store.config else cfg.detector
    except ValueError as exc:  # an unknown key, a value of the wrong type, a bad value or not an object
        raise ValueError(f"{weights_path}: detector config: {exc}") from exc
    try:
        check_parameters(store, det_cfg)
    except ValueError as exc:
        raise ValueError(f"{weights_path}: {exc}") from exc
    cps = cfg.protocol.checkpoints_s if checkpoints == "config" else checkpoints

    def prepare(entry):
        """(skip note, checkpoints, jobs): one score per checkpoint (None for full
        length) from the forward jobs, each (features, prefix frame counts)."""
        clip = resample(load_wav(entry.path), cfg.sample_rate_hz)
        mask = detect_voice(clip, cfg.vad)
        net = net_speech_seconds(mask)
        if net < MIN_NET_SPEECH_S:
            return f"{entry.utt_id}: skipped ({net:.2f}s net speech < {MIN_NET_SPEECH_S}s)", [], []
        if cps is None:
            return None, [None], [(log_mel(trim_nonspeech(clip, mask), cfg.features), None)]
        ks = [k for k in cps if k <= net + 1e-9]
        if not ks:
            return None, [], []
        prefixes = [net_speech_prefix(clip, mask, k) for k in ks]
        if cfg.features.mean_var_norm:
            # normalized features of a prefix are not rows of the longest prefix's
            return None, ks, [(log_mel(p, cfg.features), None) for p in prefixes]
        # one log-mel and one forward over the longest prefix score them all
        counts = [frame_count(len(p), p.sample_rate_hz, cfg.features) for p in prefixes]
        return None, ks, [(log_mel(max(prefixes, key=len), cfg.features), counts)]

    workers = min(parallelism or cfg.parallelism, os.cpu_count() or 1, len(entries))
    if workers <= 1:
        # in-process, so a wrapper around this module's detector_forward sees every forward
        results = _score_entries(entries, prepare, lambda job: _run_now(_job_scores, store, det_cfg, *job), 1)
    else:
        results = _score_in_workers(entries, prepare, store, det_cfg, workers)
    trials = [t for rows, _, _ in results for t in rows]
    trials.sort(key=lambda t: (t.utt_id, t.checkpoint_s if t.checkpoint_s is not None else -1.0))
    write_scores_csv(trials, out_path)
    for _, _, note in results:
        if note:
            click.echo(note, err=True)
    failures = [f for _, f, _ in results if f is not None]
    if _report_failures(failures):
        sys.exit(1)


def _job_scores(store, det_cfg, feat, counts):
    """The scores of one forward job: one per prefix frame count, or one for the whole input."""
    logits = detector_forward(feat, store, det_cfg, prefix_frames=counts)
    return [score(l).s for l in (logits if counts is not None else [logits])]


def _run_now(fn, *args) -> Future:
    """fn(*args) run in this thread, as a finished future."""
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _score_entries(entries, prepare, submit, max_jobs):
    """(rows, failure, note) of each entry, in manifest order.

    prepare(entry) gives (note, checkpoints, jobs), and submit(job) gives a
    future of one job's scores.  An entry's jobs are submitted once the
    unfinished ones leave room for them under max_jobs (or none are left),
    so a long manifest never holds every entry's features at once.
    """
    results, pending, running = [], collections.deque(), set()  # pending: (entry, note, checkpoints, futures, error)

    def finish():
        entry, note, ks, futures, error = pending.popleft()
        scores = []
        for future in futures:  # every result is read, also after a failure
            try:
                scores += future.result()
            except Exception as exc:
                error = error or exc
        if error is not None:
            return [], (entry.utt_id, str(error)), None
        return [TrialScore(entry.utt_id, entry.label, s, entry.dataset, k) for k, s in zip(ks, scores)], None, note

    for entry in entries:
        note, ks, futures, error = None, (), [], None
        try:
            note, ks, jobs = prepare(entry)
            while running and len(running) + len(jobs) > max_jobs:
                running = wait(running, return_when=FIRST_COMPLETED).not_done
            for job in jobs:
                futures.append(submit(job))
                running.add(futures[-1])
        except Exception as exc:  # per-entry failure, keep going
            error = exc
        pending.append((entry, note, ks, futures, error))
        while pending and all(f.done() for f in pending[0][3]):
            results.append(finish())
    while pending:
        results.append(finish())
    return results


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_worker_model: dict = {}  # a worker process's weights and config, set once by _init_worker


def _init_worker(store, det_cfg):
    _worker_model.update(store=store, det_cfg=det_cfg)


def _worker_scores(job):
    return _job_scores(_worker_model["store"], _worker_model["det_cfg"], *job)


def _score_in_workers(entries, prepare, store, det_cfg, workers):
    """_score_entries with the forwards in spawned worker processes, one BLAS thread each.

    Each worker's numpy reads its BLAS thread count from the environment once,
    at import; workers start on the first submits, so the variables stay set
    until the pool has shut down.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_init_worker, initargs=(store, det_cfg)) as pool:
            return _score_entries(entries, prepare, lambda job: pool.submit(_worker_scores, job), 2 * workers)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _full_length(trials, path):
    """The full-length rows; a file of checkpoint rows alone is an error, not a pool of them."""
    full = trials.select(np.isnan(trials.checkpoint_s))
    if len(trials) and not len(full):
        raise ValueError(f"{path}: no full-length rows, only checkpoint rows; evaluate those with eval --checkpoint-avg")
    return full


@main.command("eval")
@click.option("--scores", "scores_path", required=True, type=click.Path(exists=True))
@click.option("--far", "far_target", type=float, default=0.01, show_default=True)
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
        report["pooled"] = pooled_eval(_full_length(trials, scores_path), far_target).to_dict()
    if per_dataset:
        by_ds, average = per_dataset_eval(_full_length(trials, scores_path), far_target)
        report["per_dataset"] = {ds: r.to_dict() for ds, r in by_ds.items()}
        report["per_dataset_average"] = average.to_dict()
    if checkpoint_avg:
        cps = trials.checkpoint_s
        dropped = cps[~(np.isnan(cps) | np.isin(cps, cfg.protocol.checkpoints_s))]
        if dropped.size:
            values = ",".join(f"{cp:g}s" for cp in sorted(set(dropped.tolist())))
            click.echo(f"note: dropped {dropped.size} rows at checkpoints not in the protocol: {values}", err=True)
        by_cp, average = checkpoint_eval(trials, cfg.protocol, far_target)
        report["checkpoint_avg"] = average.to_dict()
        report["per_checkpoint"] = {f"{cp:g}": r.to_dict() for cp, r in by_cp.items()}
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
    store = init_parameters(cfg.detector, cfg.global_seed if seed is None else seed)
    save_parameters(store, out_path)


if __name__ == "__main__":
    main()
