"""Smoke test of ``tools/artifact_diff.py`` on a shrunken walkthrough, without git."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
artifact_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_diff)

SRC = TOOL.parents[1] / "src"


def test_two_runs_of_the_walkthrough_read_identical(tmp_path):
    for side in ("a", "b"):
        artifact_diff.run_side(SRC, tmp_path / side, 1, "small")
    rows = artifact_diff.compare_dirs(tmp_path / "a", tmp_path / "b")
    names = {row["artifact"] for row in rows}
    assert {"corrected.hsic", "mu_hat.f32", "unmixed/abundances.csv", "ablation.json", "sweep.csv",
            "eval_mu.json", "eval_abundance.json", "scene/manifest.json"} <= names
    for row in rows:
        assert row["ok"], row
        if artifact_diff.is_manifest(Path(row["artifact"])):
            assert row["keys"] == ["duration_seconds"]
        else:
            assert row["identical"] and row["max_rel"] in (None, 0.0), row
    assert next(row for row in rows if row["artifact"] == "corrected.hsic.report.json")["psi_rel"] == 0.0

    # one float a ulp off, and a manifest key changed, must both show
    changed = tmp_path / "c"
    shutil.copytree(tmp_path / "b", changed)
    mu = changed / "mu_hat.f32"
    raw = bytearray(mu.read_bytes())
    last = np.frombuffer(raw[-4:], "<f4")
    raw[-4:] = np.nextafter(last, np.float32(np.inf)).tobytes()
    mu.write_bytes(bytes(raw))
    manifest = changed / "scene" / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["seed"] += 1
    manifest.write_text(json.dumps(payload))
    rows = {row["artifact"]: row for row in artifact_diff.compare_dirs(tmp_path / "a", changed)}
    assert not rows["mu_hat.f32"]["ok"] and 0.0 < rows["mu_hat.f32"]["max_rel"] < 1e-6
    assert not rows["scene/manifest.json"]["ok"]
    assert "seed" in rows["scene/manifest.json"]["keys"]
