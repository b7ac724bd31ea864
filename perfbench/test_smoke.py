"""Fast smoke tests of every benchmark workload path, on tiny scenes."""

import argparse
import importlib
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import hsiscale
import run
import spec
import workloads
from tracing import Tracer

TINY = {
    "correct-bench": replace(
        workloads.WORKLOADS["correct-bench"],
        scene=replace(workloads.WORKLOADS["correct-bench"].scene, height=16, width=16, bands=20, endmembers=3),
        rmse_gate=None,
    ),
    "correct-noisy": replace(
        workloads.WORKLOADS["correct-noisy"],
        scene=replace(workloads.WORKLOADS["correct-noisy"].scene, height=16, width=16, bands=20, endmembers=3),
    ),
    "cli-loop": workloads.CliLoopWorkload(
        height=12, width=12, bands=20, endmembers=3, candidates=8, pso_iters=2, gd_iters=2
    ),
}


def _originals():
    return {
        (layer, name): getattr(importlib.import_module(f"hsiscale.{layer}"), name)
        for layer, names in spec.TRACED.items()
        for name in names
    }


def test_benchmark_json_matches_spec():
    assert (spec.ROOT / "BENCHMARK.json").read_text() == spec.render()


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_untraced_and_traced(name, tmp_path, monkeypatch):
    workload = TINY[name]
    state = workload.setup(3, tmp_path / "setup")
    jobs = run.job_loop(workload, state, 3, 0.0, tmp_path)
    assert len(jobs) == run.MIN_JOBS
    assert all(not j["problems"] for j in jobs), jobs
    assert set(run.quality_means(jobs)) == {"rmse_mu", "psi_final", "abundance_rmse"}

    originals = _originals()
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    args = argparse.Namespace(workload=name, seed=3, seconds=0.0)
    metrics, traced = run.trace(args, workload, state, tmp_path)
    assert all(not j["problems"] for j in traced), traced
    assert set(metrics) == {n for n, _, _ in spec.per_layer()}
    assert metrics["trace.absent_layers"] == 0
    assert _originals() == originals
    layer = "cli.synth" if name == "cli-loop" else "correct.pso_minimize"
    assert metrics[f"{layer}.calls"] >= 1


def test_wrappers_reach_every_binding():
    unmix_module = importlib.import_module("hsiscale.unmix")
    original = hsiscale.reduction.svd_reduce
    tracer = Tracer()
    tracer.install()
    try:
        # correct binds svd_reduce at import; the package re-exports it
        for bound in (hsiscale.correct.svd_reduce, hsiscale.reduction.svd_reduce, hsiscale.svd_reduce):
            assert bound.__wrapped__ is original
        # the package attribute ``hsiscale.unmix`` is the function, not the module
        assert unmix_module.fcls.__wrapped__ is not None
        assert hsiscale.unmix.__wrapped__ is unmix_module.unmix.__wrapped__
    finally:
        tracer.uninstall()
    assert hsiscale.correct.svd_reduce is original


def test_removed_function_is_an_absent_layer(monkeypatch):
    monkeypatch.delattr(hsiscale.cli, "fnv1a64")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.layer_metrics(1, 1.0)
    assert tracer.absent == ["cli.fnv1a64"]
    assert "cli.fnv1a64.calls" not in metrics and "cli.fnv1a64.mb_per_s" not in metrics
    assert metrics["trace.absent_layers"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(spec.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
