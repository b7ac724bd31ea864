"""Truncated-SVD subspace reduction of hyperspectral cubes.

The reduction is intentionally uncentered: the correction geometry works
with rays through the origin, so the subspace must contain it. Running a
mean-subtracted PCA here would break every downstream step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cube import HsiCube
from .errors import DimensionError, ValidationError

# singular values this far below the largest are treated as exact zeros
RANK_TOL = 1e-12
ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class ReducedData:
    """Pixels projected onto the dominant subspace.

    ``basis`` has orthonormal rows (top singular directions of the pixel
    matrix, one per row); ``pixels`` is ``basis @ raw_pixels``;
    ``mean_pixel`` is the mean reduced pixel c*, the correction's anchor.
    """

    basis: np.ndarray            # (K, L), orthonormal rows
    pixels: np.ndarray           # (K, N)
    singular_values: np.ndarray  # (K,), descending, >= 0

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        pixels = np.asarray(self.pixels, dtype=np.float64)
        svals = np.asarray(self.singular_values, dtype=np.float64)
        if basis.ndim != 2 or pixels.ndim != 2 or svals.ndim != 1:
            raise DimensionError("basis and pixels must be 2-D, singular_values 1-D")
        k = basis.shape[0]
        if pixels.shape[0] != k or svals.shape[0] != k:
            raise DimensionError(
                f"inconsistent subspace dimension: basis {basis.shape}, "
                f"pixels {pixels.shape}, singular_values {svals.shape}"
            )
        if pixels.shape[1] < 1:
            raise DimensionError("reduced data must contain at least one pixel")
        gram = basis @ basis.T
        if np.max(np.abs(gram - np.eye(k))) > ORTHO_TOL:
            raise ValidationError("basis rows are not orthonormal")
        if np.any(svals < 0) or np.any(np.diff(svals) > 0):
            raise ValidationError("singular values must be non-negative and descending")
        for arr in (basis, pixels, svals):
            arr.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pixels", pixels)
        object.__setattr__(self, "singular_values", svals)

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.pixels.shape[1]

    @functools.cached_property
    def mean_pixel(self) -> np.ndarray:
        """Mean of the reduced pixels, summed compensated per coordinate; read-only."""
        mean = np.array([math.fsum(row) / self.n_pixels for row in self.pixels])
        mean.setflags(write=False)
        return mean


def _fix_row_signs(basis: np.ndarray, mean_pixel: np.ndarray) -> np.ndarray:
    """Make each row's dot product with the mean pixel non-negative.

    Resolves the inherent +/- ambiguity of singular vectors so results are
    reproducible across runs and platforms.
    """
    out = basis.copy()
    for i, row in enumerate(out):
        d = float(row @ mean_pixel)
        if d < 0:
            out[i] = -row
        elif d == 0.0:
            nz = np.nonzero(row)[0]
            if nz.size and row[nz[0]] < 0:
                out[i] = -row
    return out


def svd_reduce(cube: HsiCube, k: int) -> ReducedData:
    """Project the cube onto the top-k subspace of its uncentered pixel matrix.

    The top-k eigenpairs of the L x L Gram matrix ``y @ y.T`` are the
    squared singular values and the left singular vectors of the pixel
    matrix ``y``, whatever its shape.
    """
    y = cube.pixel_matrix()
    n_bands, n_pixels = y.shape
    if not 1 <= k <= min(n_bands, n_pixels):
        raise DimensionError(
            f"k must satisfy 1 <= k <= min(bands={n_bands}, pixels={n_pixels}), got {k}"
        )

    eigvals, eigvecs = np.linalg.eigh(y @ y.T)  # ascending
    order = np.arange(n_bands - 1, n_bands - 1 - k, -1)
    svals = np.sqrt(np.clip(eigvals[order], 0.0, None))
    basis = eigvecs[:, order].T
    svals[svals < RANK_TOL * svals[0]] = 0.0
    basis = _fix_row_signs(basis, y.mean(axis=1))
    return ReducedData(basis=basis, pixels=basis @ y, singular_values=svals)
