"""Every input check of the library, each called once with a bad input.

One table, case -> (call, exception type): each call takes a scratch
directory and trips exactly one check. The tests after it construct the
numeric failures that a few recovery branches exist for.
"""

import struct

import numpy as np
import pytest

import hsiscale.synth as synth_module
from hsiscale import (
    DimensionError,
    FormatError,
    GdConfig,
    GenerationError,
    GroundTruth,
    HsiCube,
    HyperplaneModel,
    NearOrthogonalNormalError,
    NumericError,
    OptimizationError,
    PsoConfig,
    ReducedData,
    ScalingField,
    SynthConfig,
    ValidationError,
    abundance_rmse,
    fcls,
    hyperplane_placement_error,
    load_vector,
    match_endmembers,
    nfindr_extract,
    objective_psi,
    read_cube,
    sad_error,
    svd_reduce,
    unmix,
)
from hsiscale.correct import (
    _PsiEvaluator,
    apply_scaling,
    candidate_normals,
    correct_pixels,
    denom_floor_for,
    gd_refine,
    newton_refine,
    pso_minimize,
)
from hsiscale.fields import gaussian_random_field
from hsiscale.fileio import save_vector, write_matrix_f32
from hsiscale.synth import gen_endmembers, gen_scaling_field
from hsiscale.unmix import UnmixResult
from conftest import make_line_data, make_rank_k_cube

# a K=2 cloud of 8 pixels, and 2 pixels in a 3-D subspace (fewer than K)
CUBE = HsiCube(np.random.default_rng(0).uniform(0.1, 1.0, (6, 2, 4)))
REDUCED = svd_reduce(CUBE, 2)
SHORT = ReducedData(basis=np.eye(3), pixels=np.ones((3, 2)), singular_values=np.array([3.0, 2.0, 1.0]))
# at right angles to the anchor c*: every scale ratio is infinite
ORTHOGONAL = np.array([-REDUCED.mean_pixel[1], REDUCED.mean_pixel[0]])
# 3-band, 2-endmember signatures with one non-finite entry
NAN_COLUMN = np.array([[1.0, 1.0], [np.nan, 1.0], [1.0, 1.0]])
INF_COLUMN = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -np.inf]])


def indefinite_covariance(r):
    """A 'covariance' no torus embeds: 1 at zero lag, -0.5 at every other."""
    return np.where(r == 0, 1.0, -0.5)


def scene_config(**changes):
    return SynthConfig(**{"height": 4, "width": 4, "bands": 6, "endmembers": 2, **changes})


def zero_band_cube(tmp):
    path = tmp / "zero.hsic"
    path.write_bytes(struct.pack("<4sHHIII", b"HSIC", 1, 0, 0, 2, 2))
    return read_cube(path)


def square_vector(tmp):
    write_matrix_f32(np.ones((2, 2)), tmp / "square.f32")
    return load_vector(tmp / "square.f32")


CHECKS = {
    # correct
    "model-shapes-differ": (
        lambda tmp: HyperplaneModel(np.ones(2), np.array([1.0, 0.0, 0.0]), 1.0), DimensionError
    ),
    "model-normal-not-unit": (
        lambda tmp: HyperplaneModel(np.ones(2), np.array([1.0, 1.0]), 1.0), ValidationError
    ),
    "model-denom-not-positive": (
        lambda tmp: HyperplaneModel(np.ones(2), np.array([1.0, 0.0]), 0.0), ValidationError
    ),
    "model-build-shapes-differ": (
        lambda tmp: HyperplaneModel.build(np.ones(2), np.ones(3), 0.0), DimensionError
    ),
    "model-build-nan-normal": (
        lambda tmp: HyperplaneModel.build(np.ones(2), np.array([np.nan, 1.0]), 0.0), ValidationError
    ),
    "field-not-1d": (lambda tmp: ScalingField(values=np.ones((2, 2))), DimensionError),
    "field-nan": (lambda tmp: ScalingField(values=np.array([np.nan])), ValidationError),
    "field-from-raw-nan": (lambda tmp: ScalingField.from_raw(np.array([1.0, np.nan])), NumericError),
    "pso-zero-iterations": (lambda tmp: PsoConfig(iterations=0), ValidationError),
    "gd-zero-iterations": (lambda tmp: GdConfig(max_iters=0), ValidationError),
    "psi-normal-shape": (lambda tmp: objective_psi(np.ones(3), REDUCED), DimensionError),
    "psi-inf-normal": (lambda tmp: objective_psi(np.array([np.inf, 1.0]), REDUCED), ValidationError),
    "psi-nan-normal": (lambda tmp: objective_psi(np.array([np.nan, 1.0]), REDUCED), ValidationError),
    "candidates-zero-count": (lambda tmp: candidate_normals(REDUCED, 0, 0), ValidationError),
    "candidates-fewer-pixels-than-k": (lambda tmp: candidate_normals(SHORT, 1, 0), DimensionError),
    "pso-no-start": (lambda tmp: pso_minimize(REDUCED, [], PsoConfig(), 0), ValidationError),
    "pso-zero-start": (lambda tmp: pso_minimize(REDUCED, [np.zeros(2)], PsoConfig(), 0), ValidationError),
    "pso-inf-start": (
        lambda tmp: pso_minimize(REDUCED, [np.array([np.inf, 1.0])], PsoConfig(), 0), ValidationError
    ),
    "gd-zero-start": (lambda tmp: gd_refine(np.zeros(2), REDUCED, GdConfig()), ValidationError),
    "gd-nan-start": (lambda tmp: gd_refine(np.array([np.nan, 1.0]), REDUCED, GdConfig()), ValidationError),
    "newton-inf-start": (lambda tmp: newton_refine(np.array([np.inf, 1.0]), REDUCED), ValidationError),
    "gd-orthogonal-start": (lambda tmp: gd_refine(ORTHOGONAL, REDUCED, GdConfig()), OptimizationError),
    "correct-pixels-length": (
        lambda tmp: correct_pixels(CUBE, ScalingField(values=np.ones(3))), DimensionError
    ),
    "apply-scaling-length": (
        lambda tmp: apply_scaling(CUBE, ScalingField(values=np.ones(3))), DimensionError
    ),
    # cube
    "cube-zero-dimension": (lambda tmp: HsiCube(np.zeros((0, 2, 2))), DimensionError),
    "truth-not-2d": (lambda tmp: GroundTruth(np.ones(3), np.ones((1, 3))), DimensionError),
    "truth-count-mismatch": (
        lambda tmp: GroundTruth(np.full((3, 2), 0.5), np.full((3, 4), 1.0 / 3.0)), DimensionError
    ),
    "truth-nan": (lambda tmp: GroundTruth(np.full((3, 1), np.nan), np.ones((1, 4))), ValidationError),
    "truth-above-one": (lambda tmp: GroundTruth(np.full((3, 1), 2.0), np.ones((1, 4))), ValidationError),
    # reduction
    "reduced-not-2d": (lambda tmp: ReducedData(np.ones(2), np.ones((2, 3)), np.ones(2)), DimensionError),
    "reduced-k-mismatch": (lambda tmp: ReducedData(np.eye(2), np.ones((3, 4)), np.ones(2)), DimensionError),
    "reduced-no-pixels": (lambda tmp: ReducedData(np.eye(2), np.ones((2, 0)), np.ones(2)), DimensionError),
    # fileio
    "cube-header-zero-bands": (zero_band_cube, FormatError),
    "save-vector-not-1d": (lambda tmp: save_vector(np.ones((2, 2)), tmp / "v.f32"), DimensionError),
    "load-vector-square": (square_vector, DimensionError),
    # metrics
    "sad-zero-column": (lambda tmp: sad_error(np.zeros((3, 2)), np.ones((3, 2))), ValidationError),
    "match-column-counts": (lambda tmp: match_endmembers(np.ones((3, 2)), np.ones((3, 3))), DimensionError),
    "sad-column-counts": (lambda tmp: sad_error(np.ones((3, 2)), np.ones((3, 3))), DimensionError),
    "match-nonfinite-nan": (lambda tmp: match_endmembers(np.ones((3, 2)), NAN_COLUMN), ValidationError),
    "match-nonfinite-inf": (lambda tmp: match_endmembers(INF_COLUMN, np.ones((3, 2))), ValidationError),
    "sad-nonfinite-nan": (lambda tmp: sad_error(NAN_COLUMN, np.ones((3, 2))), ValidationError),
    "sad-nonfinite-inf": (lambda tmp: sad_error(np.ones((3, 2)), INF_COLUMN), ValidationError),
    "match-zero-columns": (lambda tmp: match_endmembers(np.ones((3, 0)), np.ones((3, 0))), DimensionError),
    "sad-zero-columns": (lambda tmp: sad_error(np.ones((3, 0)), np.ones((3, 0))), DimensionError),
    "abundance-rmse-shapes": (lambda tmp: abundance_rmse(np.ones((2, 3)), np.ones((3, 2))), DimensionError),
    "placement-orthogonal-pixel": (
        lambda tmp: hyperplane_placement_error(np.eye(2), np.array([1.0, 0.0])), ValidationError
    ),
    # synth and fields
    "synth-empty-grid": (lambda tmp: scene_config(height=0), ValidationError),
    "synth-one-endmember": (lambda tmp: scene_config(endmembers=1), ValidationError),
    "synth-fewer-bands": (lambda tmp: scene_config(bands=1), ValidationError),
    "synth-field-kind": (lambda tmp: scene_config(field_kind="gauss"), ValidationError),
    "synth-zero-correlation": (lambda tmp: scene_config(correlation_length=0.0), ValidationError),
    "synth-one-pixel-scale-field": (
        lambda tmp: gen_scaling_field(scene_config(height=1, width=1)), GenerationError
    ),
    "field-indefinite-embedding": (
        lambda tmp: gaussian_random_field(4, 4, indefinite_covariance, np.random.default_rng(0), 1), GenerationError
    ),
    # unmix
    "unmix-negative-abundance": (
        lambda tmp: UnmixResult(np.eye(2), np.array([[-1.0], [2.0]]), np.zeros(1)), ValidationError
    ),
    "unmix-sum-not-one": (
        lambda tmp: UnmixResult(np.eye(2), np.array([[0.5], [0.6]]), np.zeros(1)), ValidationError
    ),
    "fcls-shapes": (lambda tmp: fcls(np.ones((3, 2)), np.ones((4, 2))), DimensionError),
    "fcls-nonfinite-nan-pixel": (lambda tmp: fcls(NAN_COLUMN, np.eye(3)[:, :2]), ValidationError),
    "fcls-nonfinite-inf-pixel": (lambda tmp: fcls(INF_COLUMN, np.eye(3)[:, :2]), ValidationError),
    "fcls-nonfinite-nan-endmember": (lambda tmp: fcls(np.ones((3, 2)), NAN_COLUMN), ValidationError),
    "unmix-nonfinite-nan-pixel": (lambda tmp: unmix(NAN_COLUMN, np.eye(3)[:, :2]), ValidationError),
    "unmix-nonfinite-inf-endmember": (lambda tmp: unmix(np.ones((3, 2)), INF_COLUMN), ValidationError),
    "nfindr-one-vertex": (lambda tmp: nfindr_extract(REDUCED, 1), DimensionError),
    "nfindr-fewer-pixels": (lambda tmp: nfindr_extract(SHORT, 3), DimensionError),
    "nfindr-simplex-too-large": (lambda tmp: nfindr_extract(REDUCED, 4), DimensionError),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
def test_input_check_raises(tmp_path, case):
    call, error = CHECKS[case]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error


@pytest.mark.parametrize("magnitude", [1e200, 1e-200])
def test_normal_whose_squares_overflow_or_underflow_keeps_its_direction(magnitude):
    # 1e200**2 overflows to inf and 1e-200**2 underflows to 0; every start
    # check rescales such a normal by its largest magnitude, which gives
    # exactly the normal [1, 1]
    scaled, ones = np.full(2, magnitude), np.ones(2)
    floor = denom_floor_for(REDUCED.pixels)
    want = HyperplaneModel.build(REDUCED.mean_pixel, ones, floor)
    assert np.array_equal(HyperplaneModel.build(REDUCED.mean_pixel, scaled, floor).normal, want.normal)
    assert objective_psi(scaled, REDUCED) == objective_psi(ones, REDUCED)
    for search in (
        lambda n: gd_refine(n, REDUCED, GdConfig(max_iters=3)),
        lambda n: newton_refine(n, REDUCED),
        lambda n: pso_minimize(REDUCED, [n], PsoConfig(iterations=2), 0),
    ):
        assert np.array_equal(search(scaled), search(ones))


def test_newton_refine_retries_a_failed_factorization(monkeypatch):
    # a failed Cholesky factorization grows the damping and tries again
    reduced, normal, _ = make_line_data(n_pixels=64, seed=3)
    start = normal + np.array([0.2, -0.1])
    want = newton_refine(start, reduced)
    factor = np.linalg.cholesky
    failures = []

    def fail_once(matrix):
        if not failures:
            failures.append(matrix)
            raise np.linalg.LinAlgError("constructed failure")
        return factor(matrix)

    monkeypatch.setattr(np.linalg, "cholesky", fail_once)
    got = newton_refine(start, reduced)
    assert len(failures) == 1
    evaluator = _PsiEvaluator(reduced, reduced.mean_pixel)
    assert evaluator.value(got) == pytest.approx(evaluator.value(want), rel=1e-12)


def test_candidate_normals_skips_a_set_without_a_model(monkeypatch):
    # a K-set whose normal cannot become a model is skipped, and the draws go on
    reduced = svd_reduce(make_rank_k_cube(seed=4), 3)
    want = candidate_normals(reduced, 6, 5)[1:]
    build = HyperplaneModel.build
    refused = []

    def refuse_first(c_star, normal, denom_floor):
        if not refused:
            refused.append(normal)
            raise NearOrthogonalNormalError("constructed failure")
        return build(c_star, normal, denom_floor)

    monkeypatch.setattr(HyperplaneModel, "build", staticmethod(refuse_first))
    got = candidate_normals(reduced, 5, 5)
    assert len(refused) == 1
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_gd_refine_stops_when_no_step_descends(monkeypatch):
    # a gradient that points uphill: every Armijo trial fails, and the
    # start comes back
    reduced, normal, _ = make_line_data(n_pixels=64, seed=0)
    start = normal + np.array([0.2, -0.1])
    gradient = _PsiEvaluator.gradient
    monkeypatch.setattr(_PsiEvaluator, "gradient", lambda self, n: -gradient(self, n))
    assert np.array_equal(gd_refine(start, reduced, GdConfig()), start / np.linalg.norm(start))


def test_gen_endmembers_gives_up_after_the_resamples(monkeypatch):
    # no spectrum ever clears the separation floor
    monkeypatch.setattr(synth_module, "_sad", lambda a, b: 0.0)
    with pytest.raises(GenerationError, match="resamples"):
        gen_endmembers(8, 2, seed=0)


class _FlatDraws:
    """Draws each uniform at its interval's midpoint: no ramp, zero-height bumps."""

    def uniform(self, low, high):
        return 0.5 * (low + high)

    def integers(self, low, high):
        return low


def test_unit_curve_gives_up_on_a_flat_curve():
    with pytest.raises(GenerationError, match="flat after"):
        synth_module._unit_curve(8, _FlatDraws())
