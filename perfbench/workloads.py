"""The benchmark's workloads: inputs made from a seed, one job, and its checks.

Every workload is a closed loop: one process runs one job at a time. A job is
split into ``run``, the timed part, and ``check``, which verifies the outputs
and computes the quality metrics outside the timed region.

The scene of each workload is fixed (seed ``SCENE_SEED``, the reference
scene). In the correction workloads the workload seed varies the
correction's candidate draws and swarm streams, one draw per job, so timings
average over the optimizer's data-dependent paths while ``rmse_mu``,
``psi_final`` and ``abundance_rmse`` keep measuring the same answer on every
run. ``cli-loop`` replays the README walkthrough with seed 7 in every step:
with its light optimizer the answer depends on the correction seed (rmse_mu
0.024-0.034 over ten seeds), far beyond the quality bounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import hsiscale as hs
from hsiscale.cli import main as cli_main

SCENE_SEED = 7
# acceptance criterion 1 on the noise-free benchmark scene
RMSE_MU_GATE = 0.05
# the CLI stores mu_hat as float32, which moves its mean off one by rounding
MU_F32_MEAN_TOL = 1e-6
SCENE_FILES = ("clean.hsic", "scaled.hsic", "endmembers.csv", "abundances.csv", "mu_true.f32", "config.json")


def job_seed(seed: int, job: int) -> int:
    """The correction seed of job ``job`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, job]).generate_state(1)[0])


def _check_report(psi: tuple[float, float, float], mu_hat: np.ndarray, mean_tol: float) -> list[str]:
    problems = []
    psi_initial, psi_after_pso, psi_final = psi
    if not psi_final <= psi_after_pso <= psi_initial:
        problems.append(f"psi not monotone: {psi_initial} -> {psi_after_pso} -> {psi_final}")
    if not np.all(np.isfinite(mu_hat)):
        problems.append("mu_hat has non-finite values")
    elif abs(float(mu_hat.mean()) - 1.0) > mean_tol:
        problems.append(f"mu_hat mean is {float(mu_hat.mean())!r}, not 1")
    return problems


@dataclass(frozen=True)
class CorrectionWorkload:
    """One ``run_correction`` with default settings per job."""

    scene: hs.SynthConfig
    rmse_gate: float | None = None

    @property
    def pixels(self) -> int:
        return self.scene.n_pixels

    def setup(self, seed: int, workdir: Path) -> hs.SynthScene:
        scene = hs.gen_scene(self.scene)
        # one short correction at full size warms first calls and allocations;
        # it keeps the default candidate count, since fewer draws can find
        # no candidate at all on the noisy scene
        hs.run_correction(
            scene.scaled_cube,
            self.scene.endmembers,
            pso_config=hs.PsoConfig(swarm_size=8, iterations=1),
            gd_config=hs.GdConfig(max_iters=1),
            rng_seed=seed,
        )
        return scene

    def run(self, scene: hs.SynthScene, seed: int, job: int, jobdir: Path, span):
        return hs.run_correction(scene.scaled_cube, self.scene.endmembers, rng_seed=job_seed(seed, job))

    def check(self, scene: hs.SynthScene, result, with_abundance: bool) -> tuple[dict, list[str]]:
        corrected, report = result
        psi = (report.psi_initial, report.psi_after_pso, report.psi_final)
        problems = _check_report(psi, report.mu_hat.values, hs.ScalingField.MEAN_TOL)
        if corrected.data.shape != scene.scaled_cube.data.shape:
            problems.append(f"corrected cube has shape {corrected.data.shape}")
        quality = {"rmse_mu": hs.rmse_mu(report.mu_hat, scene.mu_true), "psi_final": report.psi_final}
        if self.rmse_gate is not None and not quality["rmse_mu"] <= self.rmse_gate:
            problems.append(f"rmse_mu {quality['rmse_mu']:.4f} above the gate {self.rmse_gate}")
        if with_abundance:
            # downstream check: constrained unmixing with the true endmembers
            abundances = hs.unmix(corrected.pixel_matrix(), scene.truth.endmembers).abundances
            quality["abundance_rmse"] = hs.abundance_rmse(scene.truth.abundances, abundances)[0]
        return quality, problems

    def notes(self, scene: hs.SynthScene) -> dict[str, float]:
        """Reference figures printed next to the metrics, never gated."""
        return {"rmse_mu_no_correction": float(np.sqrt(np.mean((scene.mu_true.values - 1.0) ** 2)))}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _finite_json(text: str) -> dict | None:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    values = [v for v in payload.values() if isinstance(v, (int, float))]
    values += [x for v in payload.values() if isinstance(v, list) for x in v]
    return payload if all(math.isfinite(v) for v in values) else None


@dataclass(frozen=True)
class CliLoopWorkload:
    """The README walkthrough run in-process through ``hsiscale.cli.main``."""

    height: int = 128
    width: int = 128
    bands: int = 100
    endmembers: int = 5
    candidates: int = 64
    pso_iters: int = 20
    gd_iters: int = 50

    @property
    def pixels(self) -> int:
        return self.height * self.width

    def setup(self, seed: int, workdir: Path) -> None:
        # a tiny walkthrough loads the subcommands' lazy imports
        tiny = replace(self, height=12, width=12, bands=20, endmembers=3, candidates=8, pso_iters=2, gd_iters=2)
        result = tiny.run(None, seed, 0, workdir / "warmup", contextlib.nullcontext)
        _, problems = tiny.check(None, result, False)
        if problems:
            raise RuntimeError(f"warm-up walkthrough failed: {problems}")

    def run(self, _state, _seed: int, _job: int, jobdir: Path, span) -> dict:
        s = str(SCENE_SEED)
        k = str(self.endmembers)
        scene, corrected, unmixed = jobdir / "scene", jobdir / "corrected.hsic", jobdir / "unmixed"
        steps = [
            ("synth", ["synth", "--height", str(self.height), "--width", str(self.width),
                       "--bands", str(self.bands), "--endmembers", k, "--scale-std", "0.3",
                       "--seed", s, "--out", str(scene)]),
            ("correct", ["correct", "--input", str(scene / "scaled.hsic"), "--endmembers", k,
                         "--out", str(corrected), "--mu-out", str(jobdir / "mu_hat.f32"),
                         "--seed", s, "--candidates", str(self.candidates),
                         "--pso-iters", str(self.pso_iters), "--gd-iters", str(self.gd_iters)]),
            ("unmix", ["unmix", "--input", str(corrected), "--endmembers", k,
                       "--extract", "nfindr", "--seed", s, "--out", str(unmixed)]),
            ("eval", ["eval", "mu", "--pred", str(jobdir / "mu_hat.f32"),
                      "--truth", str(scene / "mu_true.f32"), "--clean-cube", str(scene / "clean.hsic")]),
            ("eval", ["eval", "abundance", "--pred", str(unmixed / "abundances.csv"),
                      "--truth", str(scene / "abundances.csv"),
                      "--pred-endmembers", str(unmixed / "endmembers.csv"),
                      "--truth-endmembers", str(scene / "endmembers.csv")]),
        ]
        codes, stdout = [], []
        for command, argv in steps:
            with span(f"cli.{command}"):
                code, out = _run_cli(argv)
            codes.append(code)
            stdout.append(out)
            if code != 0:
                break
        return {"dir": jobdir, "codes": codes, "stdout": stdout}

    def check(self, _state, result: dict, with_abundance: bool) -> tuple[dict, list[str]]:
        codes = result["codes"]
        if codes != [0] * 5:
            return {}, [f"exit codes {codes}"]
        d = result["dir"]
        scene, corrected, unmixed = d / "scene", d / "corrected.hsic", d / "unmixed"
        report = Path(f"{corrected}.report.json")
        outputs = {
            "synth": [scene / n for n in SCENE_FILES],
            "correct": [corrected, d / "mu_hat.f32", report],
            "unmix": [unmixed / n for n in ("endmembers.csv", "abundances.csv", "residuals.f32")],
        }
        manifest_paths = {
            "synth": scene / "manifest.json",
            "correct": Path(f"{corrected}.manifest.json"),
            "unmix": unmixed / "manifest.json",
        }
        manifests = {cmd: json.loads(path.read_text()) for cmd, path in manifest_paths.items()}
        problems = []
        for cmd, paths in outputs.items():
            listed = manifests[cmd]["outputs"]
            if set(listed) != {str(p) for p in paths}:
                problems.append(f"{cmd} manifest lists {sorted(listed)}")
            problems += [f"missing output {p}" for p in paths if not p.is_file()]
            if not all(isinstance(h, str) and h for h in listed.values()):
                problems.append(f"{cmd} manifest has an empty hash")
        # the same bytes must carry the same hash, whatever the algorithm
        for producer, consumer, artifact in (
            ("synth", "correct", scene / "scaled.hsic"),
            ("correct", "unmix", corrected),
        ):
            made = manifests[producer]["outputs"].get(str(artifact))
            if made is None or made != manifests[consumer]["inputs"].get(str(artifact)):
                problems.append(f"hash of {artifact.name} differs between {producer} and {consumer}")

        report_json = _finite_json(report.read_text())
        mu_json = _finite_json(result["stdout"][3])
        abundance_json = _finite_json(result["stdout"][4])
        if report_json is None or mu_json is None or abundance_json is None:
            return {}, problems + ["a report or eval output is not finite JSON"]
        psi = (report_json["psi_initial"], report_json["psi_after_pso"], report_json["psi_final"])
        problems += _check_report(psi, hs.load_vector(d / "mu_hat.f32"), MU_F32_MEAN_TOL)
        quality = {
            "rmse_mu": mu_json["rmse_mu"],
            "psi_final": report_json["psi_final"],
            "abundance_rmse": abundance_json["abundance_rmse_total"],
        }
        return quality, problems

    def notes(self, _state) -> dict[str, float]:
        return {}


WORKLOADS = {
    "correct-bench": CorrectionWorkload(
        hs.SynthConfig(height=128, width=128, bands=100, endmembers=5, scale_std=0.3, seed=SCENE_SEED),
        rmse_gate=RMSE_MU_GATE,
    ),
    "correct-noisy": CorrectionWorkload(
        hs.SynthConfig(
            height=96, width=96, bands=100, endmembers=6, scale_std=0.2, snr_db=25.0, seed=SCENE_SEED
        ),
    ),
    "cli-loop": CliLoopWorkload(),
}
