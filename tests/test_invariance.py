"""The correction's answer depends only on the cube, not on how it is presented.

Each case runs ``run_correction`` on a scene's scaled cube and on one
variant of it: another seed, a gain on every value, permuted bands, or the
image transposed or flipped. ψ must agree within 1e-12 relative once the
gain's square is divided out, and μ̂, read back on the base grid, within
1e-7. The Newton polish stops once ψ falls by at most 1e-15 relative,
which fixes the normal only to about sqrt(1e-15), so μ̂ can move by a few
1e-8 between equally good answers.
"""

import functools

import numpy as np
import pytest

from hsiscale import DegenerateDataError, HsiCube, SynthConfig, gen_scene, run_correction

PSI_REL_TOL = 1e-12
MU_TOL = 1e-7

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
