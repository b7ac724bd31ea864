"""The correction's answer depends only on the cube, not on how it is presented.

Each case runs ``run_correction`` on a scene's scaled cube and on one
variant of it: another seed, a gain on every value, permuted bands, or the
image transposed or flipped. ψ must agree within 1e-12 relative once the
gain's square is divided out, and μ̂, read back on the base grid, within
1e-7. The Newton polish stops once ψ falls by at most 1e-15 relative,
which fixes the normal only to about sqrt(1e-15), so μ̂ can move by a few
1e-8 between equally good answers.

A property over small random scenes asks the same of every variant, with ψ
within 1e-10: there the K-th eigengap can be narrow, and ``svd_reduce``'s
rounding, which grows as it narrows, moves ψ by up to a few 1e-12.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiscale import DegenerateDataError, HsiCube, HsiScaleError, SynthConfig, gen_scene, run_correction

PSI_REL_TOL = 1e-12
MU_TOL = 1e-7
PROPERTY_PSI_REL_TOL = 1e-10

SCENES = {
    "k2": SynthConfig(32, 32, 20, 2, scale_std=0.3, seed=3),
    "k5": SynthConfig(64, 64, 60, 5, scale_std=0.3, seed=1),
    "k6-30db": SynthConfig(64, 64, 60, 6, scale_std=0.2, snr_db=30, seed=2),
    "k8-25db": SynthConfig(64, 64, 100, 8, scale_std=0.2, snr_db=25, seed=2),
}
# candidate_normals finds too few K-sets on this scene and raises
XFAIL = {"k8-25db": pytest.mark.xfail(strict=True, raises=DegenerateDataError)}


def same(data):
    return data, 1.0, lambda mu: mu


def scaled(gain):
    return lambda data: (data * gain, gain, lambda mu: mu)


def permuted_bands(data):
    order = np.random.default_rng(0).permutation(data.shape[0])
    return data[order], 1.0, lambda mu: mu


def transposed(data):
    bands, height, width = data.shape
    return data.transpose(0, 2, 1), 1.0, lambda mu: mu.reshape(width, height).T.ravel()


def flipped(data):
    height, width = data.shape[1:]
    return data[:, :, ::-1], 1.0, lambda mu: mu.reshape(height, width)[:, ::-1].ravel()


# name: (rng_seed of the variant's run, cube transform)
VARIANTS = {
    "seed": (5, same),
    "gain-7.3": (0, scaled(7.3)),
    "gain-1e-3": (0, scaled(1e-3)),
    "gain-1e3": (0, scaled(1e3)),
    "bands-permuted": (0, permuted_bands),
    "transposed": (0, transposed),
    "flipped": (0, flipped),
}


@functools.lru_cache(maxsize=None)
def scene_cube(name):
    return gen_scene(SCENES[name]).scaled_cube


@functools.lru_cache(maxsize=None)
def base_answer(name):
    _, report = run_correction(scene_cube(name), SCENES[name].endmembers, rng_seed=0)
    return report.psi_final, report.mu_hat.values


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("scene", [pytest.param(name, marks=XFAIL.get(name, ())) for name in SCENES])
def test_answer_depends_only_on_the_cube(scene, variant):
    psi, mu = base_answer(scene)
    rng_seed, transform = VARIANTS[variant]
    data, gain, to_base_grid = transform(scene_cube(scene).data)
    cube = HsiCube(np.ascontiguousarray(data))
    _, report = run_correction(cube, SCENES[scene].endmembers, rng_seed=rng_seed)
    assert abs(report.psi_final / gain**2 - psi) <= PSI_REL_TOL * psi
    assert np.max(np.abs(to_base_grid(report.mu_hat.values) - mu)) <= MU_TOL


def answer_or_error(cube, k, rng_seed):
    """(ψ, μ̂) of a default correction, or the class of the error it raises."""
    try:
        _, report = run_correction(cube, k, rng_seed=rng_seed)
    except HsiScaleError as exc:
        return type(exc)
    return report.psi_final, report.mu_hat.values


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    k=st.integers(2, 5),
    side=st.integers(24, 40),
    bands=st.integers(12, 30),
    scale_std=st.floats(0.05, 0.3),
    snr_db=st.sampled_from([None, 40.0]),
    scene_seed=st.integers(0, 999),
    variant=st.sampled_from(list(VARIANTS)),
)
def test_small_scenes_answer_depends_only_on_the_cube(k, side, bands, scale_std, snr_db, scene_seed, variant):
    config = SynthConfig(side, side, bands, k, scale_std=scale_std, snr_db=snr_db, seed=scene_seed)
    cube = gen_scene(config).scaled_cube
    rng_seed, transform = VARIANTS[variant]
    data, gain, to_base_grid = transform(cube.data)
    base = answer_or_error(cube, k, 0)
    other = answer_or_error(HsiCube(np.ascontiguousarray(data)), k, rng_seed)
    if isinstance(base, type) or isinstance(other, type):
        assert base == other
        return
    (psi, mu), (other_psi, other_mu) = base, other
    assert abs(other_psi / gain**2 - psi) <= PROPERTY_PSI_REL_TOL * psi
    assert np.max(np.abs(to_base_grid(other_mu) - mu)) <= MU_TOL
