#!/usr/bin/env python3
"""Benchmark of the spoofbench command line.

    python3 benchmarks/run.py --workload checkpoint_scoring --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  It writes seeded inputs under
``.bench/``, runs ``python -m spoofbench.cli`` from ``src/`` one command at a
time, checks every output (verify.py) and prints each metric with its unit,
then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics: set-up time is the median of
``SETUP_REPEATS`` runs of the workload's command on a minimal input;
throughput and peak memory are medians over the measured passes, which run
back to back until the next one would overrun ``--seconds`` (at least one).
The JSON line carries every end-to-end metric of BENCHMARK.json; a
throughput metric that does not apply to the workload reads passes per
second and is not printed.
``--trace 1`` runs one pass untraced, then the same commands at parallelism 1
in one process under the span tracer (tracer.py), and reports the per-layer
metrics.

A record of the run (metrics, per-pass numbers, output hashes and
provenance) is written to ``.bench/records/``.  ``--write-reference`` stores
the outputs of this seed as the reference later runs must match.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = Path(".bench")  # relative to ROOT, the working directory of every command
SETUP_REPEATS = 3
RSS_SAMPLE_S = 0.02
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("utt_per_s", "utterances/s"),
    ("audio_s_per_s", "s/s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MiB"),
)
THROUGHPUT = ("utt_per_s", "audio_s_per_s", "rows_per_s")


@dataclass
class Result:
    wall: float
    code: int
    peak_mb: float


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def tree_rss_kib(pid: int) -> int:
    """Resident memory of a process and all its descendants, in KiB (0 where /proc is absent)."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                total += next((int(line.split()[1]) for line in fh if line.startswith("VmRSS:")), 0)
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo += map(int, fh.read().split())
        except (OSError, ValueError):
            continue
    return total


def run_cli(argv, log: Path) -> Result:
    """Run one CLI command: its wall time and the peak RSS of its process tree."""
    return run_python(["-m", "spoofbench.cli", *argv], log)


def run_python(argv, log: Path) -> Result:
    """Peak RSS is the largest sum over the process tree seen every RSS_SAMPLE_S,
    and at least the largest single process's ru_maxrss."""
    with open(log, "a") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL, stderr=err,
                                env=_child_env(), cwd=ROOT)
        done, peak_kib = threading.Event(), [0]

        def sample():
            while not done.wait(RSS_SAMPLE_S):
                peak_kib[0] = max(peak_kib[0], tree_rss_kib(proc.pid))

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            sampler.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(wall, proc.returncode, max(peak_kib[0], usage.ru_maxrss) / 1024.0)


def run_pass(commands, log: Path) -> list:
    return [run_cli(argv, log) for argv in commands]


def digest(paths) -> dict:
    """sha256 of each file; a directory gets one digest over its sorted files."""
    out = {}
    for p in map(Path, paths):
        if p.is_dir():
            h = hashlib.sha256()
            for f in sorted(p.iterdir()):
                h.update(f.name.encode() + b"\0" + f.read_bytes())
            out[str(p)] = h.hexdigest()
        elif p.is_file():
            out[str(p)] = verify.sha256_file(p)
    return out


def _git(*args):
    try:
        # the ceiling keeps git from taking up a repository that merely encloses the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _git_state() -> dict:
    """HEAD and whether the worktree differs from it (None outside a git checkout)."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {"git_commit": commit, "git_dirty": None if status is None else bool(status)}


def provenance(plan) -> dict:
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        **_git_state(),
        "workload_seed": plan.seed,
        "inputs_sha256": digest(plan.inputs),
    }


def prepare(plan, log: Path) -> list:
    """Untimed commands that make inputs (weights, net speech); errors are fatal."""
    errors = []
    for argv in plan.prepare:
        res = run_cli(argv, log)
        if res.code != 0:
            errors.append(f"prepare command {argv} exited with {res.code}")
    vad_path = plan.expect.get("vad_manifest")
    if vad_path and not errors:
        vad = {e["utt_id"]: e["net_speech_s"] for e in verify.read_jsonl(vad_path)}
        plan.counts["audio_s_per_s"] = sum(vad[u] for u in plan.expect["scored"] if u in vad)
    return errors


def measure(plan, seconds: float, log: Path, record: dict) -> tuple:
    check, make_reference = verify.checker(plan)
    reference = None if record["write_reference"] else verify.load_reference(plan)
    outcome = verify.Outcome()
    setup = []
    for _ in range(SETUP_REPEATS):
        res = run_cli(plan.setup, log)
        setup.append(res.wall)
        outcome.add(verify.check_setup(plan, res.code))
    passes, first = [], None
    while not passes or sum(p["wall_s"] for p in passes) + passes[-1]["wall_s"] <= seconds:
        results = run_pass(plan.commands, log)
        wall = sum(r.wall for r in results)
        checked = check(plan, [r.code for r in results], reference)
        hashes = digest(plan.outputs)
        if first is None:
            first = hashes
            record["outputs_sha256"] = hashes
            if record["write_reference"]:
                verify.reference_path(plan).write_text(json.dumps(make_reference(plan), sort_keys=True) + "\n")
        elif hashes != first:
            checked.fail("outputs differ from the first pass")
        outcome.add(checked)
        passes.append({"wall_s": wall, "peak_rss_mb": max(r.peak_mb for r in results),
                       "command_wall_s": [r.wall for r in results]})
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        **{name: count / wall for name, count in plan.counts.items()},
    }
    record.update({"setup_wall_s": setup, "passes": passes, "reference_checked": reference is not None})
    return {name: (metrics.get(name, 1.0 / wall), unit) for name, unit in END_TO_END}, outcome


def trace(plan, log: Path, record: dict) -> tuple:
    check, _ = verify.checker(plan)
    reference = verify.load_reference(plan)
    outcome = verify.Outcome()
    untraced = run_pass(plan.commands, log)
    outcome.add(check(plan, [r.code for r in untraced], reference))
    plan_file, spans_file = plan.workdir / "trace_plan.json", plan.workdir / "spans.json"
    plan_file.write_text(json.dumps({"commands": plan.traced_commands()}))
    res = run_python([str(Path(__file__).with_name("tracer.py")), str(plan_file), str(spans_file)], log)
    if res.code != 0:
        outcome.fail(f"traced run exited with {res.code}")
        return {}, outcome
    doc = json.loads(spans_file.read_text())
    traced = check(plan, [c["exit_code"] for c in doc["commands"]], reference)
    outcome.add(traced)
    blocks = (2, 2, 2, 2)  # the program's default layout, for workloads without weights
    weights = plan.workdir / "weights.bin"
    if weights.is_file():
        with open(weights, "rb") as fh:
            config = json.loads(fh.readline()).get("config") or {}
        blocks = tuple(config.get("blocks_per_stage", blocks))
    items = {"ok": traced.ok, "skipped": traced.skipped, "failed": traced.failed}
    values = tracer.layer_metrics(doc, blocks, items, sum(r.wall for r in untraced), plan.parallelism)
    units = {name: unit for name, unit, _ in tracer.per_layer_names(blocks)}
    record.update({"untraced_wall_s": [r.wall for r in untraced], "import_s": doc["import_s"],
                   "untraced_command_s": doc["untraced_command_s"], "missing": doc["missing"],
                   "outputs_sha256": digest(plan.outputs)})
    return {name: (value, units[name]) for name, value in values.items()}, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's outputs as the reference later runs must match")
    args = parser.parse_args(argv)

    if not (SRC / "spoofbench" / "cli.py").is_file():
        print(f"error: no spoofbench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = STATE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (STATE / "records").mkdir(parents=True, exist_ok=True)
    log = STATE / f"{args.workload}.stderr.log"
    log.write_text("")

    t0 = time.perf_counter()
    plan = workloads.build(args.workload, args.seed, work)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "write_reference": args.write_reference, "generate_s": time.perf_counter() - t0}
    errors = prepare(plan, log)
    record["provenance"] = provenance(plan)
    if errors:
        metrics, outcome = {}, verify.Outcome()
        for e in errors:
            outcome.fail(e)
    elif args.trace:
        metrics, outcome = trace(plan, log, record)
    else:
        metrics, outcome = measure(plan, args.seconds, log, record)

    record.update({"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "attempted": outcome.attempted, "failed": outcome.failed, "errors": outcome.errors[:50]})
    record_path = STATE / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  record {record_path}")
    shown = {name for name, _ in END_TO_END if name not in THROUGHPUT or name in plan.counts}
    for name, (value, unit) in metrics.items():
        if args.trace or name in shown:
            print(f"  {name:<48} {value:>14.6g} {unit}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_frac':<48} {frac:>14.6g} ratio  ({outcome.failed} failed / {outcome.attempted} attempted)")
    for e in outcome.errors[:20]:
        print(f"  failure: {e}")
    correct = outcome.failed == 0 and outcome.attempted > 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
