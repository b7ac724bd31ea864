"""Command-line front end: scene generation, correction, unmixing,
evaluation, the ablation experiment, and the error-vs-std sweep.

Exit codes: 0 success, 1 runtime/algorithm failure, 2 usage error.
Every seeded command is deterministic: identical flags produce
bit-identical artifacts. Each run records a JSON manifest naming its
inputs and outputs by a 64-bit BLAKE2b content hash (``"hash": "blake2b-64"``).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .correct import (
    CANDIDATE_COUNT,
    GdConfig,
    HyperplaneModel,
    PsoConfig,
    ScalingField,
    candidate_normals,
    denom_floor_for,
    derive_seeds,
    estimate_scaling,
    run_correction,
    search_normal,
)
from .cube import CHUNK_BYTES
from .errors import DimensionError, HsiScaleError, ValidationError
from .fileio import load_vector, read_cube, read_matrix_csv, save_vector, write_cube, write_matrix_csv
from .metrics import abundance_rmse, bound_check, match_endmembers, rmse_mu, sad_error
from .reduction import svd_reduce
from .synth import SCENE_FILES, SynthConfig, gen_scene, write_scene
from .unmix import nfindr_extract, unmix


def fnv1a64(data: bytes) -> str:
    """Canonical 64-bit FNV-1a over raw bytes, as a hex digest.

    Manifests no longer use it (see ``_hash_file``); perfbench still traces it.
    """
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


HASH_NAME = "blake2b-64"


def _hash_file(path) -> str:
    """Streamed 64-bit BLAKE2b of a file's bytes, read a chunk at a time, as a hex digest."""
    digest = hashlib.blake2b(digest_size=8)
    with open(path, "rb") as fh:
        while chunk := fh.read(CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


class _ManifestWriter:
    """Collects run metadata and writes exactly one manifest per run."""

    def __init__(self, args: argparse.Namespace):
        self.started = time.perf_counter()
        self.path = args.manifest
        self.payload = {
            "command": args.command,
            "version": __version__,
            "seed": getattr(args, "seed", None),  # eval takes no --seed
            "config": {k: v for k, v in vars(args).items() if k != "func"},
            "hash": HASH_NAME,
            "inputs": {},
            "outputs": {},
        }

    def add_input(self, path) -> None:
        self.payload["inputs"][str(path)] = _hash_file(path)

    def write(self, default_path, outputs) -> None:
        """Hash ``outputs``, every one written by now; write to ``--manifest`` or else ``default_path``."""
        self.payload["outputs"] = {str(path): _hash_file(path) for path in outputs}
        self.payload["duration_seconds"] = time.perf_counter() - self.started
        Path(self.path or default_path).write_text(json.dumps(self.payload, indent=2) + "\n")


def _write_table(path, header: str, rows) -> None:
    """A CSV table under ``header``: strings as they are, numbers by ``repr``."""
    lines = [header] + [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


# argparse types: every --seed (numpy's seeds are non-negative); the endmember, candidate,
# iteration and replicate counts; a synthetic scene's --endmembers (a mixture needs two)
_seed = functools.partial(_int_at_least, 0)
_count = functools.partial(_int_at_least, 1)
_mixture_count = functools.partial(_int_at_least, 2)


def _endmember_bound_error(k: int, cube) -> int | None:
    if k > min(cube.bands, cube.n_pixels):
        return _usage_error(f"--endmembers {k} exceeds min(bands={cube.bands}, pixels={cube.n_pixels})")
    return None


def _read_finite_csv(path):
    """A CSV matrix for a computation: the reader checks the format, not the values."""
    matrix = read_matrix_csv(path)
    if not np.all(np.isfinite(matrix)):
        raise ValidationError(f"{path}: matrix contains non-finite values")
    return matrix


def _scene_config(args: argparse.Namespace, seed: int, scale_std: float, snr_db: float | None = None):
    """The SynthConfig the scene flags describe."""
    return SynthConfig(
        height=args.height,
        width=args.width,
        bands=args.bands,
        endmembers=args.endmembers,
        field_kind=args.kind,
        correlation_length=args.corr_len,
        scale_std=scale_std,
        scale_correlation_length=args.scale_corr_len,
        seed=seed,
        snr_db=snr_db,
    )


# ---------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    config = _scene_config(args, args.seed, args.scale_std, args.snr_db)
    manifest = _ManifestWriter(args)
    scene = gen_scene(config)
    out = Path(args.out)
    write_scene(scene, config, out)
    manifest.write(out / "manifest.json", [out / name for name in SCENE_FILES])
    return 0


# -------------------------------------------------------------- correct

def cmd_correct(args) -> int:
    manifest = _ManifestWriter(args)
    cube = read_cube(args.input)
    manifest.add_input(args.input)
    if (code := _endmember_bound_error(args.endmembers, cube)) is not None:
        return code

    # without --gd-iters the search ends in run_correction's Newton polish
    corrected, report = run_correction(
        cube,
        args.endmembers,
        pso_config=PsoConfig(iterations=args.pso_iters),
        gd_config=None if args.gd_iters is None else GdConfig(max_iters=args.gd_iters),
        candidate_count=args.candidates,
        rng_seed=args.seed,
    )

    write_cube(corrected, args.out)
    save_vector(report.mu_hat.values, args.mu_out)
    report_path = args.report or f"{args.out}.report.json"
    Path(report_path).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    manifest.write(f"{args.out}.manifest.json", [args.out, args.mu_out, report_path])
    return 0


# ---------------------------------------------------------------- unmix

def cmd_unmix(args) -> int:
    if (args.endmember_file is None) == (args.extract is None):
        return _usage_error("provide exactly one of --endmember-file or --extract nfindr")

    manifest = _ManifestWriter(args)
    cube = read_cube(args.input)
    manifest.add_input(args.input)
    pixels = cube.pixel_matrix()

    if args.endmember_file is not None:
        endmembers = _read_finite_csv(args.endmember_file)
        if endmembers.shape[1] != args.endmembers:
            return _usage_error(
                f"--endmembers {args.endmembers} does not match the "
                f"{endmembers.shape[1]} columns of {args.endmember_file}"
            )
        manifest.add_input(args.endmember_file)
    else:
        if args.endmembers < 2:
            return _usage_error(f"--endmembers {args.endmembers}: N-FINDR needs at least 2 vertices")
        if (code := _endmember_bound_error(args.endmembers, cube)) is not None:
            return code
        reduced = svd_reduce(cube, args.endmembers)
        endmembers = nfindr_extract(reduced, args.endmembers, seed=args.seed)

    result = unmix(pixels, endmembers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(result.endmembers, out / "endmembers.csv")
    write_matrix_csv(result.abundances, out / "abundances.csv")
    save_vector(result.per_pixel_residual, out / "residuals.f32")
    outputs = [out / name for name in ("endmembers.csv", "abundances.csv", "residuals.f32")]
    manifest.write(out / "manifest.json", outputs)
    return 0


# ----------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    inputs = [args.pred, args.truth]
    if args.mode == "mu":
        pred = ScalingField.from_raw(load_vector(args.pred))
        truth = ScalingField.from_raw(load_vector(args.truth))
        payload = {"rmse_mu": rmse_mu(pred, truth)}
        # bound_rhs needs the clean cube's pixel norms; without one the key is left out
        if args.clean_cube:
            clean = read_cube(args.clean_cube)
            inputs.append(args.clean_cube)
            if clean.n_pixels != len(truth):
                raise DimensionError(
                    f"--clean-cube has {clean.n_pixels} pixels, the truth field {len(truth)}"
                )
            payload["bound_rhs"] = bound_check(truth, clean)
        var = float(truth.values.var())
        payload.update(n_pixels=len(truth), sigma_max=var, sigma_min=var)
        rows = []  # the --csv rows; mu has none
    elif args.mode == "abundance":
        # one endmember file alone cannot pair the abundance rows
        flags = {"--pred-endmembers": args.pred_endmembers, "--truth-endmembers": args.truth_endmembers}
        missing = [flag for flag, path in flags.items() if path is None]
        if len(missing) == 1:
            return _usage_error(f"{missing[0]} is required with the other endmember file")
        pred = _read_finite_csv(args.pred)
        truth = _read_finite_csv(args.truth)
        perm = None
        if args.pred_endmembers is not None:
            perm = match_endmembers(
                _read_finite_csv(args.truth_endmembers), _read_finite_csv(args.pred_endmembers)
            )
            inputs += [args.pred_endmembers, args.truth_endmembers]
        total, per = abundance_rmse(truth, pred, perm)
        per = per.tolist()
        payload = {
            "abundance_rmse_total": total,
            "abundance_rmse_per_endmember": per,
            "n_pixels": truth.shape[1],
        }
        rows = [(i, v, "") for i, v in enumerate(per)]
    else:  # endmembers
        mean, per = sad_error(_read_finite_csv(args.truth), _read_finite_csv(args.pred))
        per = per.tolist()
        payload = {"sad_mean": mean, "sad_per_endmember": per}
        rows = [(i, "", v) for i, v in enumerate(per)]

    print(json.dumps(payload, indent=2))
    if args.csv:
        # one line per endmember: its abundance RMSE, its spectral angle
        _write_table(args.csv, "endmember,abundance_rmse,sad", rows)
    if args.manifest:
        manifest = _ManifestWriter(args)
        for path in inputs:
            manifest.add_input(path)
        manifest.write(None, [args.csv] if args.csv else [])
    return 0


# --------------------------------------------------------------- ablate

# criterion 4 measures the variants at these lengths: candidates, swarm iterations, descent steps
ABLATE_CANDIDATES = 200
ABLATE_PSO_ITERS = 150
ABLATE_GD_ITERS = 500


def cmd_ablate(args) -> int:
    manifest = _ManifestWriter(args)
    cube = read_cube(args.input)
    truth = ScalingField.from_raw(load_vector(args.truth_mu))
    if len(truth) != cube.n_pixels:
        raise DimensionError(f"--input has {cube.n_pixels} pixels, the truth field {len(truth)}")
    manifest.add_input(args.input)
    manifest.add_input(args.truth_mu)
    if (code := _endmember_bound_error(args.endmembers, cube)) is not None:
        return code

    reduced = svd_reduce(cube, args.endmembers)
    floor = denom_floor_for(reduced.pixels)
    gd = GdConfig(max_iters=ABLATE_GD_ITERS)
    # four streams; child i is the same for any count, so criterion 4's results keep their seeds
    seed_ints = derive_seeds(args.seed, 4)

    def score(stage) -> float:
        model = HyperplaneModel.build(reduced.mean_pixel, stage[0], floor)
        return rmse_mu(estimate_scaling(reduced, model), truth)

    def random_units(seed, count):
        vecs = np.random.default_rng(seed).standard_normal((count, reduced.k))
        return [v / np.linalg.norm(v) for v in vecs]

    # each variant is a cut of the one search. (a) refinement alone from
    # one random direction
    *_, gd_only = search_normal(reduced, random_units(seed_ints[0], 1), None, gd, seed_ints[2])
    # (b) swarm from random directions, then refinement; without
    # candidates the swarm stays at its base size
    pso_b = PsoConfig(iterations=ABLATE_PSO_ITERS)
    *_, pso_random_gd = search_normal(
        reduced, random_units(seed_ints[1], pso_b.swarm_size), pso_b, gd, seed_ints[2]
    )
    # (c) candidate-seeded swarm without refinement and (d) the full
    # search are two points of one run
    candidates = candidate_normals(reduced, ABLATE_CANDIDATES, seed_ints[3])
    pso_cd = PsoConfig(swarm_size=max(PsoConfig.swarm_size, ABLATE_CANDIDATES), iterations=ABLATE_PSO_ITERS)
    _, candidates_pso, full = search_normal(reduced, candidates, pso_cd, gd, seed_ints[2])

    scores = {
        "gd_only": score(gd_only),
        "pso_random_gd": score(pso_random_gd),
        "candidates_pso": score(candidates_pso),
        "full": score(full),
    }
    Path(args.out).write_text(json.dumps({**scores, "seed": args.seed}, indent=2) + "\n")
    outputs = [args.out]
    if args.plot_data:
        _write_table(args.plot_data, "variant,rmse_mu", scores.items())
        outputs.append(args.plot_data)
    manifest.write(f"{args.out}.manifest.json", outputs)
    return 0


# ---------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    try:
        stds = [float(tok) for tok in args.stds.split(",") if tok.strip()]
    except ValueError:
        return _usage_error(f"cannot parse --stds {args.stds!r}")
    if not stds:
        return _usage_error("--stds must list at least one value")

    manifest = _ManifestWriter(args)
    rows = []
    per_run = []
    # scene seeds depend on the replicate only, not on the std: each
    # replicate is the same base scene rescaled, so its error grows
    # smoothly with the std instead of bouncing with scene-to-scene luck
    for std in stds:
        errors = []
        for j in range(args.seeds):
            scene_seed = int(np.random.SeedSequence([args.seed, j]).generate_state(1)[0])
            scene = gen_scene(_scene_config(args, scene_seed, std))
            run_seed = int(np.random.SeedSequence([args.seed, j, 1]).generate_state(1)[0])
            _, report = run_correction(scene.scaled_cube, args.endmembers, rng_seed=run_seed)
            err = rmse_mu(report.mu_hat, scene.mu_true)
            errors.append(err)
            per_run.append((std, j, err))
        rows.append((std, float(np.mean(errors)), float(np.std(errors))))

    _write_table(args.out, "std,mean_rmse_mu,std_rmse_mu", rows)
    outputs = [args.out]
    if args.plot_data:
        _write_table(args.plot_data, "std,seed,rmse_mu", per_run)
        outputs.append(args.plot_data)
    manifest.write(f"{args.out}.manifest.json", outputs)
    return 0


# --------------------------------------------------------------- parser

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", default=None, help="override the manifest path")


def _add_scene_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=("matern", "spheric"), default="matern")
    parser.add_argument("--height", type=int, default=128)
    parser.add_argument("--width", type=int, default=128)
    parser.add_argument("--bands", type=int, default=100)
    parser.add_argument("--endmembers", type=_mixture_count, default=5)
    parser.add_argument("--corr-len", type=float, default=3.0, dest="corr_len")
    parser.add_argument("--scale-corr-len", type=float, default=6.0, dest="scale_corr_len")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsiscale",
        description="Estimate and remove per-pixel scale variability from hyperspectral cubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene directory")
    _add_scene_flags(p)
    p.add_argument("--scale-std", type=float, default=0.3, dest="scale_std")
    p.add_argument("--snr-db", type=float, default=None, dest="snr_db")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("correct", help="estimate scale factors and correct a cube")
    p.add_argument("--input", required=True)
    p.add_argument("--endmembers", type=_count, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mu-out", required=True, dest="mu_out")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", default=None)
    p.add_argument("--candidates", type=_count, default=CANDIDATE_COUNT)
    p.add_argument("--pso-iters", type=_count, default=PsoConfig.iterations, dest="pso_iters")
    p.add_argument("--gd-iters", type=_count, default=None, dest="gd_iters")
    _add_common(p)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("unmix", help="endmember extraction and constrained abundances")
    p.add_argument("--input", required=True)
    p.add_argument("--endmembers", type=_count, required=True)
    p.add_argument("--endmember-file", default=None, dest="endmember_file")
    p.add_argument("--extract", choices=("nfindr",), default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_unmix)

    p = sub.add_parser("eval", help="compare predictions against ground truth")
    p.add_argument("mode", choices=("mu", "abundance", "endmembers"))
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--clean-cube", default=None, dest="clean_cube")
    p.add_argument("--pred-endmembers", default=None, dest="pred_endmembers")
    p.add_argument("--truth-endmembers", default=None, dest="truth_endmembers")
    p.add_argument("--csv", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="compare optimizer configurations on one cube")
    p.add_argument("--input", required=True)
    p.add_argument("--truth-mu", required=True, dest="truth_mu")
    p.add_argument("--endmembers", type=_count, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--plot-data", default=None, dest="plot_data")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="error vs scale-std curve over seeded scenes")
    p.add_argument("--stds", required=True)
    p.add_argument("--seeds", type=_count, default=3)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--plot-data", default=None, dest="plot_data")
    _add_scene_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.func(args)
    except (HsiScaleError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
