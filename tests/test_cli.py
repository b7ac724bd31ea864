import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hsiscale
from hsiscale import HsiCube
from hsiscale.cli import _hash_file, fnv1a64, main
from hsiscale.correct import GdConfig, PsoConfig, run_correction
from hsiscale.fileio import load_vector, read_cube, read_matrix_csv, save_vector, write_cube, write_matrix_csv


SCENE_FLAGS = [
    "--height", "16", "--width", "16", "--bands", "14", "--endmembers", "3",
    "--corr-len", "2.5", "--scale-corr-len", "4.0",
]
FAST_OPT = ["--candidates", "48", "--pso-iters", "40", "--gd-iters", "150"]


def synth(tmp_path, name="scene", std="0.3", seed="1", extra=()):
    out = tmp_path / name
    code = main(["synth", *SCENE_FLAGS, "--scale-std", std, "--seed", seed, "--out", str(out), *extra])
    assert code == 0
    return out


def test_fnv1a64_known_vectors():
    assert fnv1a64(b"") == "cbf29ce484222325"
    assert fnv1a64(b"a") == "af63dc4c8601ec8c"


def blake2b_64(path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()


def test_manifests_hash_every_file_with_blake2b_64(tmp_path, capsys):
    scene = synth(tmp_path)
    corrected, unmixed = tmp_path / "c.hsic", tmp_path / "u"
    assert main([
        "correct", "--input", str(scene / "scaled.hsic"), "--endmembers", "3",
        "--out", str(corrected), "--mu-out", str(tmp_path / "mu.f32"), *FAST_OPT,
    ]) == 0
    assert main([
        "unmix", "--input", str(corrected), "--endmembers", "3",
        "--endmember-file", str(scene / "endmembers.csv"), "--out", str(unmixed),
    ]) == 0
    manifests = {
        "synth": (scene / "manifest.json", 0, 6),
        "correct": (tmp_path / "c.hsic.manifest.json", 1, 3),
        "unmix": (unmixed / "manifest.json", 2, 3),
    }
    for command, (path, n_inputs, n_outputs) in manifests.items():
        manifest = json.loads(path.read_text())
        assert manifest["command"] == command
        assert (len(manifest["inputs"]), len(manifest["outputs"])) == (n_inputs, n_outputs)
        assert manifest["hash"] == "blake2b-64"
        for listed in (manifest["inputs"], manifest["outputs"]):
            assert listed == {name: blake2b_64(Path(name)) for name in listed}


def test_hash_file_streams(tmp_path):
    path = tmp_path / "big.bin"
    block = np.random.default_rng(0).bytes(1 << 20)
    with open(path, "wb") as fh:
        for _ in range(33):
            fh.write(block)
    del block
    tracemalloc.start()
    try:
        digest = _hash_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert digest == blake2b_64(path)


def test_synth_zero_std_identical_payloads(tmp_path):
    out = synth(tmp_path, std="0")
    assert (out / "clean.hsic").read_bytes() == (out / "scaled.hsic").read_bytes()


def test_synth_missing_out_usage_error(capsys):
    assert main(["synth", "--scale-std", "0.2"]) == 2


def test_synth_manifest_echoes_config(tmp_path):
    out = synth(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["scale_std"] == 0.3
    assert manifest["seed"] == 1
    assert set(manifest["outputs"]) >= {str(out / "clean.hsic"), str(out / "scaled.hsic")}
    assert manifest["duration_seconds"] >= 0.0


def test_synth_with_noise_flag(tmp_path):
    out = synth(tmp_path, name="noisy", extra=("--snr-db", "30"))
    assert (out / "clean.hsic").read_bytes() != (out / "scaled.hsic").read_bytes()


def test_synth_deterministic_artifacts(tmp_path):
    a = synth(tmp_path, name="a", seed="7")
    b = synth(tmp_path, name="b", seed="7")
    for name in ("clean.hsic", "scaled.hsic", "endmembers.csv", "abundances.csv", "mu_true.f32"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_correct_roundtrip_and_determinism(tmp_path, capsys):
    scene = synth(tmp_path)
    outs = []
    for name in ("c1", "c2"):
        out = tmp_path / f"{name}.hsic"
        mu = tmp_path / f"{name}.f32"
        code = main([
            "correct", "--input", str(scene / "scaled.hsic"), "--endmembers", "3",
            "--out", str(out), "--mu-out", str(mu), "--seed", "3", *FAST_OPT,
        ])
        assert code == 0
        outs.append((out.read_bytes(), mu.read_bytes(), (tmp_path / f"{name}.hsic.report.json").read_text()))
    assert outs[0] == outs[1]
    report = json.loads(outs[0][2])
    assert report["psi_final"] <= report["psi_after_pso"] <= report["psi_initial"]
    assert len(report["normal"]) == 3 and len(report["c_star"]) == 3
    assert report["seed"] == 3


def correct_with_cli(tmp_path, scene, flags):
    out, mu = tmp_path / "c.hsic", tmp_path / "mu.f32"
    assert main([
        "correct", "--input", str(scene / "scaled.hsic"), "--endmembers", "3",
        "--out", str(out), "--mu-out", str(mu), *flags,
    ]) == 0
    report = json.loads((tmp_path / "c.hsic.report.json").read_text())
    return report, load_vector(mu)


def assert_same_correction(cli_result, library_report):
    report, mu = cli_result
    assert report == library_report.to_json_dict()
    assert np.array_equal(mu, library_report.mu_hat.values.astype(np.float32))


def test_correct_defaults_are_the_library_defaults(tmp_path):
    scene = synth(tmp_path)
    cli_result = correct_with_cli(tmp_path, scene, ["--seed", "3"])
    _, report = run_correction(read_cube(scene / "scaled.hsic"), 3, rng_seed=3)
    assert_same_correction(cli_result, report)


def test_correct_explicit_search_is_swarm_then_gd(tmp_path):
    # the benchmark walkthrough's light search: its answer must not move
    scene = synth(tmp_path)
    cli_result = correct_with_cli(
        tmp_path, scene, ["--candidates", "64", "--pso-iters", "20", "--gd-iters", "50", "--seed", "7"]
    )
    _, report = run_correction(
        read_cube(scene / "scaled.hsic"), 3,
        pso_config=PsoConfig(iterations=20), gd_config=GdConfig(50), candidate_count=64, rng_seed=7,
    )
    assert_same_correction(cli_result, report)


K_TOO_LARGE = "usage error: --endmembers 99 exceeds min(bands=14, pixels=256)"


@pytest.mark.parametrize("command", ["correct", "ablate", "unmix"])
def test_k_too_large_usage_error(tmp_path, capsys, command):
    scene = synth(tmp_path)
    out = tmp_path / "out"
    flags = {
        "correct": ["--out", str(out), "--mu-out", str(tmp_path / "x.f32")],
        "ablate": ["--truth-mu", str(scene / "mu_true.f32"), "--out", str(out)],
        "unmix": ["--extract", "nfindr", "--out", str(out)],
    }[command]
    code = main([command, "--input", str(scene / "scaled.hsic"), "--endmembers", "99", *flags])
    assert code == 2
    assert K_TOO_LARGE in capsys.readouterr().err
    assert not out.exists()


def test_correct_missing_input_runtime_error(tmp_path, capsys):
    code = main([
        "correct", "--input", str(tmp_path / "nope.hsic"), "--endmembers", "3",
        "--out", str(tmp_path / "x.hsic"), "--mu-out", str(tmp_path / "x.f32"),
    ])
    assert code == 1


def test_unmix_requires_exactly_one_source(tmp_path, capsys):
    scene = synth(tmp_path)
    base = ["unmix", "--input", str(scene / "clean.hsic"), "--endmembers", "3",
            "--out", str(tmp_path / "u")]
    assert main(base) == 2
    assert main(base + ["--endmember-file", str(scene / "endmembers.csv"), "--extract", "nfindr"]) == 2


def test_unmix_with_truth_endmembers_exact(tmp_path, capsys):
    scene = synth(tmp_path, std="0")
    out = tmp_path / "u"
    code = main([
        "unmix", "--input", str(scene / "clean.hsic"), "--endmembers", "3",
        "--endmember-file", str(scene / "endmembers.csv"), "--out", str(out),
    ])
    assert code == 0
    code = main([
        "eval", "abundance", "--pred", str(out / "abundances.csv"),
        "--truth", str(scene / "abundances.csv"),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["abundance_rmse_total"] < 1e-6


def test_unmix_nfindr_deterministic(tmp_path):
    scene = synth(tmp_path)
    blobs = []
    for name in ("u1", "u2"):
        out = tmp_path / name
        code = main([
            "unmix", "--input", str(scene / "scaled.hsic"), "--endmembers", "3",
            "--extract", "nfindr", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        blobs.append((out / "endmembers.csv").read_bytes() + (out / "abundances.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_unmix_nfindr_six_endmembers(tmp_path):
    scene = tmp_path / "scene"
    assert main([
        "synth", "--endmembers", "6", "--height", "32", "--width", "32", "--bands", "40",
        "--seed", "1", "--out", str(scene),
    ]) == 0
    assert main([
        "unmix", "--input", str(scene / "clean.hsic"), "--extract", "nfindr",
        "--endmembers", "6", "--out", str(tmp_path / "u"),
    ]) == 0


def test_unmix_more_endmembers_than_bands_plus_one(tmp_path, capsys):
    write_cube(HsiCube(np.full((3, 4, 4), 0.5)), tmp_path / "cube.hsic")
    write_matrix_csv(np.random.default_rng(0).uniform(0.1, 1.0, (3, 5)), tmp_path / "m.csv")
    capsys.readouterr()
    code = main([
        "unmix", "--input", str(tmp_path / "cube.hsic"), "--endmembers", "5",
        "--endmember-file", str(tmp_path / "m.csv"), "--out", str(tmp_path / "u"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "error[DimensionError]" in captured.err
    assert captured.out == ""


# a signalling NaN as little-endian float32 bytes; casting it to float64
# raises the floating-point invalid flag
SIGNALLING_NAN = bytes.fromhex("2c0f87ff")


@pytest.mark.parametrize("command, error", [("correct", "ValidationError"), ("eval", "NumericError")])
def test_signalling_nan_payload_prints_one_error_line(tmp_path, command, error):
    cube, mu = tmp_path / "cube.hsic", tmp_path / "mu.f32"
    write_cube(HsiCube(np.full((3, 4, 4), 0.5)), cube)
    save_vector(np.ones(16), mu)
    bad = tmp_path / "bad"
    bad.write_bytes((cube if command == "correct" else mu).read_bytes()[:-4] + SIGNALLING_NAN)
    argv = {
        "correct": ["correct", "--input", str(bad), "--endmembers", "2",
                    "--out", str(tmp_path / "c.hsic"), "--mu-out", str(tmp_path / "mu_hat.f32")],
        "eval": ["eval", "mu", "--pred", str(bad), "--truth", str(mu)],
    }[command]
    # a child process, because pytest records warnings instead of printing them
    src = str(Path(hsiscale.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "hsiscale.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error[{error}]: "), result.stderr


def test_eval_mu_self_is_zero(tmp_path, capsys):
    scene = synth(tmp_path)
    code = main([
        "eval", "mu", "--pred", str(scene / "mu_true.f32"), "--truth", str(scene / "mu_true.f32"),
        "--clean-cube", str(scene / "clean.hsic"),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rmse_mu"] == 0.0
    assert payload["bound_rhs"] > 0.0
    assert payload["n_pixels"] == 256


def test_eval_endmembers_scale_invariance(tmp_path, capsys):
    scene = synth(tmp_path)
    m = read_matrix_csv(scene / "endmembers.csv")
    write_matrix_csv(2.0 * m, tmp_path / "scaled_m.csv")
    code = main([
        "eval", "endmembers", "--pred", str(tmp_path / "scaled_m.csv"),
        "--truth", str(scene / "endmembers.csv"), "--csv", str(tmp_path / "per.csv"),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sad_mean"] < 1e-7
    assert (tmp_path / "per.csv").exists()


def test_eval_shape_mismatch_exit_1(tmp_path, capsys):
    a = synth(tmp_path, name="a")
    b = synth(tmp_path, name="b", extra=())
    save_vector(np.ones(10), tmp_path / "short.f32")
    code = main([
        "eval", "mu", "--pred", str(tmp_path / "short.f32"), "--truth", str(a / "mu_true.f32"),
    ])
    assert code == 1


@pytest.mark.parametrize("payload", [b"2,2\na,b\n", b"2,2\n\xff\xfe\n"], ids=["text", "not-utf8"])
def test_eval_garbled_csv_format_error(tmp_path, capsys, payload):
    garbled = tmp_path / "garbled.csv"
    garbled.write_bytes(payload)
    code = main(["eval", "abundance", "--pred", str(garbled), "--truth", str(garbled)])
    assert code == 1
    assert "error[FormatError]" in capsys.readouterr().err


NON_FINITE_CSV_RUNS = {
    # case -> (the CSV that gets a NaN, argv given the scene and that CSV)
    "unmix-endmember-file": ("endmembers.csv", lambda scene, bad, out: [
        "unmix", "--input", str(scene / "clean.hsic"), "--endmembers", "3",
        "--endmember-file", str(bad), "--out", str(out),
    ]),
    "eval-endmembers": ("endmembers.csv", lambda scene, bad, out: [
        "eval", "endmembers", "--pred", str(bad), "--truth", str(scene / "endmembers.csv"),
    ]),
    "eval-abundance": ("abundances.csv", lambda scene, bad, out: [
        "eval", "abundance", "--pred", str(bad), "--truth", str(scene / "abundances.csv"),
    ]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CSV_RUNS))
def test_non_finite_csv_matrix_validation_error(tmp_path, capsys, case):
    scene = synth(tmp_path)
    name, argv = NON_FINITE_CSV_RUNS[case]
    matrix = read_matrix_csv(scene / name)
    matrix[0, 0] = np.nan
    bad = tmp_path / f"nan-{name}"
    write_matrix_csv(matrix, bad)
    capsys.readouterr()
    assert main(argv(scene, bad, tmp_path / "out")) == 1
    captured = capsys.readouterr()
    assert "error[ValidationError]" in captured.err
    assert captured.out == ""


def test_threads_flag_is_gone(tmp_path, capsys):
    assert main(["synth", *SCENE_FLAGS, "--threads", "2", "--out", str(tmp_path / "x")]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    out = synth(tmp_path)
    assert "threads" not in json.loads((out / "manifest.json").read_text())


EVAL_MANIFEST_RUNS = {
    # case -> (argv given the scene, the files the run reads besides --pred/--truth)
    "mu-clean-cube": lambda scene: (
        ["mu", "--pred", str(scene / "mu_true.f32"), "--truth", str(scene / "mu_true.f32"),
         "--clean-cube", str(scene / "clean.hsic")],
        [scene / "mu_true.f32", scene / "clean.hsic"],
    ),
    "abundance-endmembers": lambda scene: (
        ["abundance", "--pred", str(scene / "abundances.csv"), "--truth", str(scene / "abundances.csv"),
         "--pred-endmembers", str(scene / "endmembers.csv"),
         "--truth-endmembers", str(scene / "endmembers.csv")],
        [scene / "abundances.csv", scene / "endmembers.csv"],
    ),
}


@pytest.mark.parametrize("case", sorted(EVAL_MANIFEST_RUNS))
def test_eval_manifest_hashes_every_file(tmp_path, capsys, case):
    scene = synth(tmp_path)
    argv, reads = EVAL_MANIFEST_RUNS[case](scene)
    csv, manifest_path = tmp_path / "per.csv", tmp_path / "eval.json"
    assert main(["eval", *argv, "--csv", str(csv), "--manifest", str(manifest_path)]) == 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["hash"] == "blake2b-64"
    assert manifest["inputs"] == {str(p): blake2b_64(p) for p in reads}
    assert manifest["outputs"] == {str(csv): blake2b_64(csv)}


EVAL_KEYS = {
    # case -> (mode, argv given the scene, the keys printed in order, the number of --csv rows)
    "mu": (
        "mu",
        lambda scene: ["--pred", str(scene / "mu_true.f32"), "--truth", str(scene / "mu_true.f32")],
        ["rmse_mu", "n_pixels", "sigma_max", "sigma_min"],
        0,
    ),
    "mu-clean-cube": (
        "mu",
        lambda scene: ["--pred", str(scene / "mu_true.f32"), "--truth", str(scene / "mu_true.f32"),
                       "--clean-cube", str(scene / "clean.hsic")],
        ["rmse_mu", "bound_rhs", "n_pixels", "sigma_max", "sigma_min"],
        0,
    ),
    "abundance": (
        "abundance",
        lambda scene: ["--pred", str(scene / "abundances.csv"), "--truth", str(scene / "abundances.csv")],
        ["abundance_rmse_total", "abundance_rmse_per_endmember", "n_pixels"],
        3,
    ),
    "endmembers": (
        "endmembers",
        lambda scene: ["--pred", str(scene / "endmembers.csv"), "--truth", str(scene / "endmembers.csv")],
        ["sad_mean", "sad_per_endmember"],
        3,
    ),
}


@pytest.mark.parametrize("case", sorted(EVAL_KEYS))
def test_eval_prints_the_keys_of_its_mode(tmp_path, capsys, case):
    scene = synth(tmp_path)
    mode, argv, keys, n_rows = EVAL_KEYS[case]
    capsys.readouterr()
    csv = tmp_path / "per.csv"
    assert main(["eval", mode, *argv(scene), "--csv", str(csv)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == keys
    lines = csv.read_text().splitlines()
    assert lines[0] == "endmember,abundance_rmse,sad"
    assert len(lines) == 1 + n_rows
    # each row fills the column of its mode and leaves the other empty
    for i, line in enumerate(lines[1:]):
        index, abund, sad = line.split(",")
        assert index == str(i)
        assert (abund != "", sad != "") == (mode == "abundance", mode == "endmembers")


@pytest.mark.parametrize("columns", [2, 4])
def test_eval_abundance_endmember_count_mismatch(tmp_path, capsys, columns):
    scene = synth(tmp_path)
    m = read_matrix_csv(scene / "endmembers.csv")
    m = m[:, :2] if columns == 2 else np.hstack([m, 0.5 * (m[:, :1] + m[:, 1:2])])
    write_matrix_csv(m, tmp_path / "m.csv")
    capsys.readouterr()
    code = main([
        "eval", "abundance", "--pred", str(scene / "abundances.csv"),
        "--truth", str(scene / "abundances.csv"),
        "--pred-endmembers", str(tmp_path / "m.csv"), "--truth-endmembers", str(tmp_path / "m.csv"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "error[DimensionError]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("given, missing", [
    ("--pred-endmembers", "--truth-endmembers"),
    ("--truth-endmembers", "--pred-endmembers"),
])
def test_eval_abundance_one_endmember_file_usage_error(tmp_path, capsys, given, missing):
    scene = synth(tmp_path)
    capsys.readouterr()
    code = main([
        "eval", "abundance", "--pred", str(scene / "abundances.csv"),
        "--truth", str(scene / "abundances.csv"), given, str(scene / "endmembers.csv"),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert missing in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["endmembers", "abundance"])
def test_eval_band_mismatch_dimension_error(tmp_path, capsys, mode):
    scene = synth(tmp_path)
    m = read_matrix_csv(scene / "endmembers.csv")
    write_matrix_csv(m[:10], tmp_path / "m10.csv")
    write_matrix_csv(np.vstack([m[:10], m[:2]]), tmp_path / "m12.csv")
    if mode == "endmembers":
        argv = ["--pred", str(tmp_path / "m12.csv"), "--truth", str(tmp_path / "m10.csv")]
    else:
        argv = ["--pred", str(scene / "abundances.csv"), "--truth", str(scene / "abundances.csv"),
                "--pred-endmembers", str(tmp_path / "m12.csv"),
                "--truth-endmembers", str(tmp_path / "m10.csv")]
    capsys.readouterr()
    assert main(["eval", mode, *argv]) == 1
    captured = capsys.readouterr()
    assert "error[DimensionError]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "cube, error",
    [(np.ones((14, 4, 4)), "DimensionError"), (np.zeros((14, 16, 16)), "ValidationError")],
    ids=["16-px", "all-zero"],
)
def test_eval_mu_bad_clean_cube(tmp_path, capsys, cube, error):
    scene = synth(tmp_path)
    write_cube(HsiCube(cube), tmp_path / "clean.hsic")
    capsys.readouterr()
    code = main([
        "eval", "mu", "--pred", str(scene / "mu_true.f32"), "--truth", str(scene / "mu_true.f32"),
        "--clean-cube", str(tmp_path / "clean.hsic"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert f"error[{error}]" in captured.err
    assert captured.out == ""


def test_ablate_report(tmp_path, capsys):
    scene = synth(tmp_path)
    report_path = tmp_path / "ablate.json"
    code = main([
        "ablate", "--input", str(scene / "scaled.hsic"), "--truth-mu", str(scene / "mu_true.f32"),
        "--endmembers", "3", "--seed", "2", "--out", str(report_path),
        "--candidates", "32", "--pso-iters", "25", "--gd-iters", "80",
        "--plot-data", str(tmp_path / "ablate.csv"),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert set(payload) >= {"gd_only", "pso_random_gd", "candidates_pso", "full"}
    assert all(payload[k] >= 0 for k in ("gd_only", "pso_random_gd", "candidates_pso", "full"))
    assert (tmp_path / "ablate.csv").read_text().startswith("variant,rmse_mu")
    assert (tmp_path / "ablate.json.manifest.json").exists()


def test_ablate_zero_std_candidate_variants_exact(tmp_path):
    # with no scaling applied, the candidate-seeded variants recover the
    # unit field almost exactly; single-start gradient descent can still
    # land in a facet-fitting local minimum (the landscape's structure
    # does not come from the scaling), so only (c) and (d) are pinned
    scene = synth(tmp_path, std="0", seed="3")
    out = tmp_path / "ab0.json"
    code = main([
        "ablate", "--input", str(scene / "scaled.hsic"), "--truth-mu", str(scene / "mu_true.f32"),
        "--endmembers", "3", "--seed", "1", "--out", str(out),
        "--candidates", "48", "--pso-iters", "40", "--gd-iters", "200",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["candidates_pso"] < 1e-4
    assert payload["full"] < 1e-4


def test_sweep_csv_and_usage(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--stds", "0.1,0.2", "--seeds", "1", "--seed", "0", "--out", str(out),
        *SCENE_FLAGS, "--candidates", "32", "--pso-iters", "25",
        "--plot-data", str(tmp_path / "runs.csv"),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "std,mean_rmse_mu,std_rmse_mu"
    assert len(lines) == 3
    assert (tmp_path / "runs.csv").read_text().count("\n") == 3  # header + 2 runs

    assert main(["sweep", "--stds", "", "--out", str(out)]) == 2
    assert main(["sweep", "--stds", "abc", "--out", str(out)]) == 2


def test_exit_code_contract_unknown_command(capsys):
    assert main(["frobnicate"]) == 2
