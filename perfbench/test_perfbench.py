"""Small-size tests of the benchmark itself (not of skipgru).

Run with `python3 -m pytest perfbench` from the repository root, with `src`
on PYTHONPATH.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import generate  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    shape = workloads.tiny(workloads.WORKLOADS["downstream"]).shape
    generate.generate(tmp_path / "a", shape, 5)
    generate.generate(tmp_path / "b", shape, 5)
    generate.generate(tmp_path / "c", shape, 6)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a["corpus.txt"] != c["corpus.txt"]


def test_generated_bank_has_duplicates_and_oov_words(tmp_path):
    shape = workloads.tiny(workloads.WORKLOADS["downstream"]).shape
    inputs = generate.generate(tmp_path, shape, 1)
    bank = inputs.bank.read_text().splitlines()
    assert len(bank) == shape.bank_lines
    assert len(set(bank)) < len(bank)
    words = {w for line in bank for w in line.split()}
    corpus_words = set(inputs.corpus.read_text().split())
    vec_words = {line.split(" ", 1)[0]
                 for line in inputs.embeddings.read_text().splitlines()[1:]}
    assert (words - corpus_words) & vec_words


def _bindings():
    snap = {m.__name__: dict(vars(m)) for m in workloads.SKIPGRU_MODULES}
    snap["resolve"] = workloads.vocab_expansion.ExpandedLookup.__dict__["resolve"]
    return snap


def test_wrappers_record_spans_and_restore_every_attribute():
    from skipgru import numerics, ranking, trainer
    before = _bindings()
    tracer = tracing.Tracer()
    assert layers.install(tracer, workloads.SKIPGRU_MODULES) > 20
    try:
        assert trainer.adam_step is not before["skipgru.trainer"]["adam_step"]
        assert ranking.adam_step is not before["skipgru.ranking"]["adam_step"]
        trainer.global_norm({"w": np.ones(4)})
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        if key == "resolve":
            assert after[key] is attrs
        else:
            assert after[key].keys() == attrs.keys()
            assert all(after[key][a] is v for a, v in attrs.items()), key
    assert [s.name for s in tracer.spans] == ["numerics.global_norm"]
    assert numerics.global_norm({"w": np.ones(4)}) == 2.0
    assert len(tracer.spans) == 1


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span(1, "cli.main", 0.0, 10.0, None, 1, 1),
        Span(2, "trainer.train_step", 1.0, 4.0, 1, 1, 2),
        Span(3, "encoder.encode", 2.0, 3.0, 2, 1, 2),
        Span(4, "trainer.train_step", 5.0, 7.0, 1, 1, 3),
        Span(5, "fileio.sha256_path", 6.5, 12.0, 4, 1, 3),  # clipped to 7.0
        Span(6, "cli.main", 8.0, 9.5, 1, 1, 1),             # nested same name
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 10 - 3 - 2 - 1.5, 2: 2.0, 3: 1.0,
                                   4: 1.5, 5: 5.5, 6: 1.5})
    summary = tracing.summarize(spans)
    assert summary["trainer.train_step"]["calls"] == 2
    assert summary["trainer.train_step"]["total_s"] == pytest.approx(5.0)
    assert summary["trainer.train_step"]["self_s"] == pytest.approx(3.5)
    # The nested cli.main lies inside the outer one: counted once in total.
    assert summary["cli.main"]["total_s"] == pytest.approx(10.0)
    assert tracing.layer_self_seconds(summary)["cli"] == pytest.approx(5.0)


def test_overlapping_children_are_covered_once():
    spans = [Span(1, "a.f", 0.0, 10.0, None, 1, 0),
             Span(2, "a.g", 1.0, 5.0, 1, 2, 0),
             Span(3, "a.h", 3.0, 6.0, 1, 3, 0)]
    assert tracing.self_times(spans)[1] == pytest.approx(5.0)


def test_forced_check_failure_raises_failed_ops(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # No accuracy reaches this, so the eval-classify check must fail.
    monkeypatch.setattr(workloads, "CLASSIFY_MIN_ACCURACY", 1.01)
    workload = workloads.tiny(workloads.WORKLOADS["train-long"])
    inputs = generate.generate(tmp_path / "inputs", workload.shape, 2)
    tracer = tracing.Tracer()
    run = workloads.Run(workload, 2, 1, tracer)
    layers.install(tracer, workloads.SKIPGRU_MODULES)
    try:
        run.execute(inputs)
    finally:
        tracer.uninstall()
    run.check()
    rounds = workloads.ROUNDS
    assert run.ledger.failed == rounds and run.ledger.attempted > rounds
    assert len(run.ledger.problems) == rounds
    assert sorted(run.metrics()) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    per_layer = layers.per_layer_metrics(tracer, 1e-6)
    assert sorted(per_layer) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert per_layer["encoder.encoder_backward_calls"] == (3 * workloads.BATCH, "count")
    assert all(v > 0 for v, _ in per_layer.values())


def _copy_tree(dst: Path) -> Path:
    for sub in ("src", "perfbench"):
        shutil.copytree(ROOT / sub, dst / sub,
                        ignore=shutil.ignore_patterns("__pycache__", ".*"))
    return dst


def _run(tree: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tree,
                          capture_output=True, text=True, timeout=170)


def test_tiny_run_is_correct_and_leaves_the_tree_unchanged(tmp_path):
    tree = _copy_tree(tmp_path)
    before = _files(tree)
    proc = _run(tree, "--workload", "downstream", "--seed", "4",
                "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert _files(tree) == before


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "train-long", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_scales_each_piece_by_the_kernel_time_beside_it():
    speed = hostspeed.HostSpeed()
    # Calibration runs at [0, 1] (kernel 1 s) and [5, 5.5] and [9, 9.5]
    # (kernel 0.5 s); nominal kernel time is NOMINAL_S.
    speed.starts, speed.ends = [0.0, 5.0, 9.0], [1.0, 5.5, 9.5]
    n = hostspeed.NOMINAL_S
    # [2, 4] lies between the first two runs: median of 1, 0.5 and 0.5.
    assert speed.normalized(2.0, 4.0) == pytest.approx(2.0 * n / 0.5)
    # [1, 9] holds the second run: pieces [1, 5] and [5.5, 9], run time left out.
    assert speed.normalized(1.0, 9.0) == pytest.approx(7.5 * n / 0.5)
    # Before the first run: the runs after it only.
    assert speed.normalized(-2.0, -1.0) == pytest.approx(1.0 * n / 0.5)
    # After a lone slow run, far from the fast ones: median of 1 and 0.5.
    speed.starts, speed.ends = [0.0, 9.0], [1.0, 9.5]
    assert speed.normalized(2.0, 4.0) == pytest.approx(2.0 * n / 0.75)
