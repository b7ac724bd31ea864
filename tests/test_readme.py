import importlib
import json
import re
import types
from pathlib import Path

import numpy as np

from hsiscale.cli import main
from hsiscale.fileio import load_vector

README = Path(__file__).resolve().parent.parent / "README.md"
WALKTHROUGH_SCENE = [
    "synth", "--height", "128", "--width", "128", "--bands", "100", "--endmembers", "5",
    "--scale-std", "0.3", "--seed", "7", "--out", "scene",
]
LIGHT_CORRECT = [
    "correct", "--input", "scene/scaled.hsic", "--endmembers", "5", "--out", "light.hsic",
    "--mu-out", "light.f32", "--candidates", "64", "--pso-iters", "20", "--gd-iters", "50",
    "--seed", "7",
]


def test_library_use_example_runs_and_matches_the_cli(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    assert main(WALKTHROUGH_SCENE) == 0
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    rmse, psi = (float(line) for line in capsys.readouterr().out.split())
    assert 0.0 <= rmse < 0.1
    light_report = namespace["light_report"]
    assert psi == light_report.psi_final

    assert main(LIGHT_CORRECT) == 0
    assert json.loads(Path("light.hsic.report.json").read_text()) == light_report.to_json_dict()
    assert np.array_equal(load_vector("light.f32"), light_report.mu_hat.values.astype(np.float32))


PUBLIC_NAMES = {
    # the pipeline, its configs and what it returns
    "CorrectionReport", "GdConfig", "HyperplaneModel", "PsoConfig", "ScalingField",
    "objective_psi", "run_correction", "ReducedData", "svd_reduce",
    # data, synthesis and I/O
    "GroundTruth", "HsiCube", "SynthConfig", "SynthScene", "gen_scene", "write_scene",
    "load_vector", "read_cube", "write_cube",
    # unmixing and scoring
    "UnmixResult", "fcls", "nfindr_extract", "unmix",
    "abundance_rmse", "hyperplane_placement_error", "match_endmembers", "rmse_mu", "sad_error",
    # errors
    "HsiScaleError", "DegenerateDataError", "DimensionError", "FormatError", "GenerationError",
    "NearOrthogonalNormalError", "NumericError", "OptimizationError", "ValidationError",
}
# helpers that only their own module exports
MODULE_ONLY = {
    "correct": ["apply_scaling", "candidate_normals", "correct_pixels", "estimate_scaling",
                "gd_refine", "newton_refine", "pso_minimize", "search_normal"],
    "fileio": ["save_vector"],
    "metrics": ["bound_check"],
    "synth": ["gen_abundance_field", "gen_endmembers", "gen_scaling_field"],
}


def test_package_exports_exactly_the_public_names():
    import hsiscale

    exported = {
        name for name, value in vars(hsiscale).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"hsiscale.{module}"), name))


def test_callers_read_only_public_names():
    root = README.parent
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    used = set(re.findall(r"\bhs\.(\w+)", section))
    used |= set(re.findall(r"\bhs\.(\w+)", (root / "perfbench" / "workloads.py").read_text()))
    acceptance = (root / "tests" / "test_acceptance.py").read_text()
    for block in re.findall(r"from hsiscale import (\([^)]*\)|[\w, ]+)", acceptance):
        used |= {name.strip() for name in block.strip("()").split(",") if name.strip()}
    assert used <= PUBLIC_NAMES
