import numpy as np
import pytest

from hsiscale import DimensionError, HsiCube, ReducedData, ValidationError, svd_reduce
from conftest import make_rank_k_cube


def rel_frob(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_rank_k_data_reconstructs_exactly():
    cube = make_rank_k_cube(bands=8, height=6, width=7, k=2, seed=1)
    reduced = svd_reduce(cube, 2)
    assert rel_frob(reduced.basis.T @ reduced.pixels, cube.pixel_matrix()) < 1e-10


def test_identical_pixels_rank_one():
    p = np.array([1.0, 2.0, 2.0])
    cube = HsiCube(np.tile(p[:, None], (1, 12)).reshape(3, 3, 4))
    reduced = svd_reduce(cube, 1)
    # sign convention picks the direction aligned with the mean pixel
    assert np.allclose(reduced.basis[0], p / np.linalg.norm(p))
    assert np.allclose(reduced.pixels[0], np.linalg.norm(p))


def test_sign_convention_for_a_direction_orthogonal_to_the_mean():
    # pixels (2, 1) and (1, 2): the second singular direction is orthogonal
    # to the mean pixel (1.5, 1.5), so its dot product cannot fix the sign
    # and the first nonzero entry is made positive instead
    cube = HsiCube(np.array([[[2.0, 1.0]], [[1.0, 2.0]]]))
    reduced = svd_reduce(cube, 2)
    assert float(reduced.basis[1] @ cube.pixel_matrix().mean(axis=1)) == 0.0
    np.testing.assert_allclose(reduced.basis[1], np.array([1.0, -1.0]) / np.sqrt(2.0), rtol=1e-12)
    np.testing.assert_allclose(reduced.singular_values, [3.0, 1.0], rtol=1e-12)


def test_noise_floor_matches_full_svd_oracle():
    cube = make_rank_k_cube(bands=6, height=5, width=10, k=3, seed=2, noise=1e-6)
    svd_reduce(cube, 3)  # must succeed
    oracle = np.linalg.svd(cube.pixel_matrix(), compute_uv=False)
    assert np.all(oracle[3:] < 1e-4 * oracle[0])


def test_basis_orthonormality_random_cubes():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cube = HsiCube(rng.uniform(0.0, 1.0, (7, 4, 6)))
        reduced = svd_reduce(cube, 4)
        gram = reduced.basis @ reduced.basis.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8


def test_reduce_matches_tall_matrix_path():
    # more bands than pixels: the Gram matrix is L x L with rank at most N
    rng = np.random.default_rng(7)
    cube = HsiCube(rng.uniform(0.0, 1.0, (30, 2, 3)))
    reduced = svd_reduce(cube, 3)
    oracle = np.linalg.svd(cube.pixel_matrix(), compute_uv=False)
    assert np.allclose(reduced.singular_values, oracle[:3], rtol=1e-10)

    # rank 2 at k = 3: the third direction spans no data, yet the basis holds
    rank_two = make_rank_k_cube(bands=30, height=2, width=3, k=2, seed=7)
    reduced = svd_reduce(rank_two, 3)
    assert np.max(np.abs(reduced.basis @ reduced.basis.T - np.eye(3))) < 1e-8
    sigma = reduced.singular_values
    assert sigma[2] <= 1e-6 * sigma[0]


def test_reconstruct_trivial_cases():
    cube = make_rank_k_cube(k=2, seed=3)
    reduced = svd_reduce(cube, 2)
    zero = ReducedData(
        basis=reduced.basis,
        pixels=np.zeros_like(reduced.pixels),
        singular_values=reduced.singular_values,
    )
    assert np.all(zero.basis.T @ zero.pixels == 0.0)


def test_reconstruct_never_inflates_norm():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cube = HsiCube(rng.uniform(0.0, 1.0, (9, 5, 5)))
        reduced = svd_reduce(cube, 3)
        assert np.linalg.norm(reduced.basis.T @ reduced.pixels) <= np.linalg.norm(cube.pixel_matrix()) + 1e-9


def test_linearity_preservation():
    rng = np.random.default_rng(11)
    m0 = rng.uniform(0.1, 0.9, (10, 3))
    frac = rng.dirichlet(np.ones(3), size=40).T
    mu = 1.0 + 0.2 * rng.standard_normal(40)
    mu = np.clip(mu, 0.3, None)
    mu /= mu.mean()
    pixels = (m0 @ frac) * mu
    cube = HsiCube(pixels.reshape(10, 5, 8))
    reduced = svd_reduce(cube, 3)
    expected = (reduced.basis @ m0 @ frac) * mu
    assert rel_frob(reduced.pixels, expected) < 1e-9


def test_k_out_of_range():
    cube = make_rank_k_cube()
    with pytest.raises(DimensionError):
        svd_reduce(cube, 0)
    with pytest.raises(DimensionError):
        svd_reduce(cube, min(cube.bands, cube.n_pixels) + 1)


def test_reduced_data_validation():
    with pytest.raises(ValidationError):
        ReducedData(
            basis=np.array([[1.0, 1.0], [0.0, 1.0]]),  # not orthonormal
            pixels=np.zeros((2, 3)),
            singular_values=np.array([2.0, 1.0]),
        )
    with pytest.raises(ValidationError):
        ReducedData(
            basis=np.eye(2),
            pixels=np.zeros((2, 3)),
            singular_values=np.array([1.0, 2.0]),  # ascending
        )


def test_determinism():
    cube = make_rank_k_cube(seed=5)
    a = svd_reduce(cube, 3)
    b = svd_reduce(cube, 3)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.pixels, b.pixels)
