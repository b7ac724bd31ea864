import json
import re
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
