"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from safbench import tracer, workloads  # noqa: E402
from safbench.data import build_epochs, loso_split  # noqa: E402
from safbench.harness import run  # noqa: E402
from safbench.workloads import FULL, TINY, WORKLOADS, Ops, Round  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _acceptance_module():
    """tests/test_acceptance.py, imported read-only from its own directory."""
    tests_dir = os.path.join(ROOT, "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    spec = importlib.util.spec_from_file_location(
        "safnet_acceptance_for_bench", os.path.join(tests_dir, "test_acceptance.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_data_builder_matches_acceptance_suite():
    acceptance = _acceptance_module()
    ours = build_epochs(gen_seed=0, bias_strength=1.5)
    theirs = acceptance.benchmark_epochs(gen_seed=0, bias_strength=1.5)
    assert len(ours) == len(theirs) > 0
    for a, b in zip(ours, theirs):
        assert a.x.dtype == b.x.dtype and a.x.shape == b.x.shape
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.y, a.s, a.sample_rate_hz) == (b.y, b.s, b.sample_rate_hz)
    for held_out in range(4):
        mine = loso_split(theirs, held_out, seed=held_out)
        reference = acceptance.loso_split(theirs, held_out, seed=held_out)
        for part, ref in zip(mine, reference):
            assert [id(ep) for ep in part] == [id(ep) for ep in ref]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(workload, trace, tmp_path):
    """Every workload passes its own checks at a tiny size on a seed other
    than those used while tuning, and reports every declared metric."""
    record = run(workload, seed=7, seconds=0, trace=trace, out_dir=str(tmp_path),
                 root=ROOT, sizes=TINY)
    result = record["result"]
    assert result["correct"], record["errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "open defect: at subject bias 1.0, seed 24, iqr_row_mask keeps one epoch "
    "of subject s01 and f_statistic rejects the data, as `safnet analyze` does"))
def test_signal_analysis_keeps_every_subject_at_high_bias(tmp_path, monkeypatch):
    """The signal workload's checks on data that triggers the defect: a fix
    turns this expected failure into a pass, which strict xfail reports."""
    monkeypatch.setattr(workloads, "SIGNAL_BIAS", 1.0)
    wl = workloads.Signal(24, FULL, 1, str(tmp_path))
    inputs = wl.setup()
    try:
        out = wl.run_round(inputs, 0, False)
        ops = Ops()
        wl.finish(inputs, [Round(0, False, 1.0, 1.0, out)], ops)
    finally:
        wl.teardown(inputs)
    assert ops.failed == 0, ops.errors


def test_declared_per_layer_metrics_match_tracer():
    declared = [(m["name"], m["unit"], m["better"]) for m in _declared()["per_layer"]]
    assert declared == list(tracer.PER_LAYER)


def test_self_time_subtracts_overlapping_children():
    spans = [(1, 0, "parent", 0, 100, 0),
             (2, 1, "child", 10, 40, 0),
             (3, 1, "child", 30, 60, 0),
             (4, 1, "child", 90, 120, 0)]
    summary = tracer.summarize(spans)
    assert summary["parent"]["self_ms"] == pytest.approx((100 - 50 - 10) / 1e6)
    assert summary["child"]["calls"] == 3


def test_fails_without_the_library(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the command
    exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "loso", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
