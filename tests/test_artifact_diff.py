"""Smoke test of ``tools/artifact_diff.py`` on a shrunken walkthrough, without git."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
artifact_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_diff)

SRC = TOOL.parents[1] / "src"


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Two runs of the shrunken walkthrough, in ``a`` and ``b`` of one directory."""
    root = tmp_path_factory.mktemp("walkthrough")
    for side in ("a", "b"):
        artifact_diff.run_side(SRC, root / side, 1, "small")
    return root


def test_two_runs_of_the_walkthrough_read_identical(two_runs, tmp_path):
    rows = artifact_diff.compare_dirs(two_runs / "a", two_runs / "b")
    names = {row["artifact"] for row in rows}
    assert {"corrected.hsic", "corrected.report.json", "mu_hat.f32", "unmixed/abundances.csv",
            "ablation.json", "ablation.csv", "sweep.csv", "sweep_runs.csv",
            "eval_mu.json", "eval_mu.csv", "eval_abundance.json", "eval_abundance.csv",
            "eval_endmembers.json", "eval_endmembers.csv", "eval_endmembers.manifest.json",
            "scene/manifest.json"} <= names
    for row in rows:
        assert row["ok"], row
        if artifact_diff.is_manifest(Path(row["artifact"])):
            assert row["keys"] == ["duration_seconds"]
        else:
            assert row["identical"] and row["max_rel"] in (None, 0.0), row
    assert next(row for row in rows if row["artifact"] == "corrected.report.json")["psi_rel"] == 0.0

    # one float a ulp off, and a manifest key changed, must both show
    changed = tmp_path / "c"
    shutil.copytree(two_runs / "b", changed)
    mu = changed / "mu_hat.f32"
    raw = bytearray(mu.read_bytes())
    last = np.frombuffer(raw[-4:], "<f4")
    raw[-4:] = np.nextafter(last, np.float32(np.inf)).tobytes()
    mu.write_bytes(bytes(raw))
    manifest = changed / "scene" / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["seed"] += 1
    manifest.write_text(json.dumps(payload))
    rows = {row["artifact"]: row for row in artifact_diff.compare_dirs(two_runs / "a", changed)}
    assert not rows["mu_hat.f32"]["ok"] and 0.0 < rows["mu_hat.f32"]["max_rel"] < 1e-6
    assert not rows["scene/manifest.json"]["ok"]
    assert "seed" in rows["scene/manifest.json"]["keys"]


def test_expected_config_keys_pass_and_no_other_key_does(two_runs, tmp_path):
    # a flag changed on purpose shows as config.<flag> in its command's manifest
    changed = tmp_path / "c"
    shutil.copytree(two_runs / "b", changed)
    manifest = changed / "ablation.json.manifest.json"
    payload = json.loads(manifest.read_text())
    del payload["config"]["plot_data"]
    payload["config"]["pso_iters"] = 150
    manifest.write_text(json.dumps(payload))

    def row(expected, name="ablation.json.manifest.json"):
        rows = artifact_diff.compare_dirs(two_runs / "a", changed, expected)
        return next(r for r in rows if r["artifact"] == name)

    assert row(())["keys"] == ["config.plot_data", "config.pso_iters", "duration_seconds"]
    assert not row(())["ok"]
    assert not row(("plot_data",))["ok"]  # every differing key must be named
    assert row(("plot_data", "pso_iters"))["ok"]
    assert row(("plot_data", "pso_iters", "candidates"))["ok"]  # a named key may stay as it was
    # naming a key excuses that config entry only, in a manifest, not the artifacts
    payload["seed"] += 1
    manifest.write_text(json.dumps(payload))
    assert not row(("plot_data", "pso_iters", "seed"))["ok"]
    (changed / "ablation.json").write_text("{}\n")
    assert not row(("plot_data", "pso_iters"), "ablation.json")["ok"]
