"""Tests of the benchmark's own logic: input generation, span arithmetic and
the output checks that feed failed_frac.

    python3 -m pytest benchmarks/tests -q
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_input_bytes(workload, tmp_path, monkeypatch):
    trees = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # plans hold paths relative to the checkout
        workloads.build(workload, seed, Path("w"))
        trees.append(_tree_bytes(tmp_path / name / "w"))
    assert trees[0] and trees[0] == trees[1]
    assert trees[0] != trees[2]


def _span(i, name, start, end, parent=None, **attrs):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": 0, **attrs}


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "a.inner", 2.0, 3.0, 1),
        _span(3, "b", 5.0, 9.0, 0),
        _span(4, "c", 8.0, 9.5, 0),  # overlaps b: covered once
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 4.5 - 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.5})
    # dropping "a" re-parents its child onto the root
    kept = tracer.self_times(spans, keep=lambda s: s["name"] != "a")
    assert kept[0] == pytest.approx(10.0 - 1.0 - 4.5)
    assert 1 not in kept


def test_forward_parts_follow_call_order():
    blocks = (1, 1, 1, 1)
    spans = [_span(0, "detector.forward", 0.0, 100.0, frames_in=599)]
    t = 1.0
    for s in range(1, 5):
        spans.append(_span(len(spans), "detector.adapter", t, t + 1.0, 0))
        block = len(spans)
        spans.append(_span(block, "detector.block", t + 1.0, t + 11.0, 0))
        spans.append(_span(len(spans), "detector.ops.conv2d", t + 1.0, t + 5.0, block))
        spans.append(_span(len(spans), "detector.cot", t + 6.0, t + 10.0, block))
        t += 20.0
    spans.append(_span(len(spans), "detector.ops.attentive_stats_pool", 90.0, 95.0, 0))
    (_, parts), = tracer.forward_parts(spans, blocks)
    assert parts["stage1.adapter"] == pytest.approx(1.0)
    assert parts["stage3.block1.conv"] == pytest.approx(6.0)
    assert parts["stage3.block1.cot"] == pytest.approx(4.0)
    assert parts["pool"] == pytest.approx(95.0 - 72.0)
    assert parts["fc"] == pytest.approx(5.0)
    doc = {"spans": spans, "import_s": 1.0, "untraced_command_s": [100.0], "missing": ["metrics.evaluate"]}
    m = tracer.layer_metrics(doc, blocks, {"ok": 1, "skipped": 0, "failed": 0}, 102.0, 1)
    assert m["detector.forward.at_6s_s"] == pytest.approx(100.0)
    assert m["detector.at_6s.stage2.block1.cot_s"] == pytest.approx(4.0)
    assert m["detector.forward.at_20s_s"] == 0.0
    assert "metrics.evaluate.self_s" not in m and "metrics.evaluate.calls" not in m
    # a removed model function drops the per-unit split instead of reporting zeros
    doc["missing"] = ["detector.cot"]
    m = tracer.layer_metrics(doc, blocks, {"ok": 1, "skipped": 0, "failed": 0}, 102.0, 1)
    assert not any(k.startswith(("detector.stage", "detector.at_6s.")) for k in m)
    assert m["detector.forward.calls"] == 1


CPS = [2.0, 3.0, 6.0, 9.0, 12.0, 15.0]


def _scores_plan(tmp_path, rows):
    path = tmp_path / "scores.csv"
    lines = ["utt_id,dataset,label,checkpoint_s,score"]
    lines += [f"{utt},d,spoof,{cp!r},{s!r}" for utt, cp, s in rows]
    path.write_text("\n".join(lines) + "\n")
    expect = {"scored": ["u1", "u2"], "skipped": ["u3"], "checkpoints": CPS}
    return workloads.Plan("checkpoint_scoring", 0, tmp_path, expect=expect, outputs=[path])


def _rows(utts=("u1", "u2")):
    return [(utt, cp, 0.25 * k + i) for i, utt in enumerate(utts) for k, cp in enumerate(CPS)]


def test_output_check_passes_on_expected_rows(tmp_path):
    plan = _scores_plan(tmp_path, _rows())
    reference = verify.scores_reference(plan)
    out = verify.check_scores(plan, [0], json.loads(json.dumps(reference)))
    assert (out.ok, out.skipped, out.failed) == (2, 1, 0)


def test_output_check_counts_a_perturbed_score(tmp_path):
    reference = verify.scores_reference(_scores_plan(tmp_path, _rows()))
    rows = _rows()
    utt, cp, s = rows[3]
    rows[3] = (utt, cp, s * (1 + 1e-8))
    out = verify.check_scores(_scores_plan(tmp_path, rows), [0], reference)
    assert (out.ok, out.failed) == (1, 1)


def test_output_check_counts_a_missing_checkpoint_row(tmp_path):
    rows = [r for r in _rows() if not (r[0] == "u2" and r[1] == 9.0)]
    out = verify.check_scores(_scores_plan(tmp_path, rows), [0])
    assert (out.ok, out.failed) == (1, 1)


def test_output_check_counts_an_unexpected_skip(tmp_path):
    out = verify.check_scores(_scores_plan(tmp_path, _rows(("u1",))), [0])
    assert (out.ok, out.skipped, out.failed) == (1, 1, 1)


def test_output_check_counts_a_scored_below_floor_entry(tmp_path):
    out = verify.check_scores(_scores_plan(tmp_path, _rows(("u1", "u2", "u3"))), [0])
    assert (out.ok, out.skipped, out.failed) == (2, 0, 1)


def test_output_check_counts_a_failed_exit(tmp_path):
    out = verify.check_scores(_scores_plan(tmp_path, _rows()), [1])
    assert out.failed == 1


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [tuple(r) for r in tracer.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc")
def test_tree_rss_counts_child_processes():
    own = run.tree_rss_kib(os.getpid())
    child = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"], stdin=subprocess.PIPE)
    try:
        deadline = time.time() + 10
        while run.tree_rss_kib(child.pid) == 0 and time.time() < deadline:
            time.sleep(0.01)
        # the parent's tree grows by about the child's memory
        assert run.tree_rss_kib(os.getpid()) - own > run.tree_rss_kib(child.pid) // 2 > 0
    finally:
        child.communicate(b"")
