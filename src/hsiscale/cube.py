"""Core data carriers: hyperspectral cubes and synthetic ground truth.

Conventions used throughout the toolkit:

* cube data is band-major, shape ``(bands, height, width)``;
* pixels are enumerated in raster order (row-major over the grid), so
  pixel ``i`` sits at ``(row, col) = divmod(i, width)``;
* a pixel matrix is ``(d, n_pixels)`` with one pixel per column.

Work over a whole cube goes through chunks of about ``CHUNK_BYTES``, so
no step holds a second cube-sized temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError

# the scratch one chunked loop works on, in bytes: a module constant, not an option
CHUNK_BYTES = 1 << 20
# chunk edges fall on multiples of this many columns, so that a BLAS
# product over a chunk tiles its columns as one product over all of them does
_CHUNK_ALIGN = 64


def column_chunks(rows: int, cols: int):
    """Column slices of about ``CHUNK_BYTES`` of float64, ``rows`` high, covering ``cols`` in order.

    No slice is one column wide unless ``cols`` is 1: numpy sums a lone
    column pairwise, where it sums a wider slice row by row, so a column
    norm taken over chunks would move in its last bits.
    """
    step = max(_CHUNK_ALIGN, CHUNK_BYTES // (8 * max(rows, 1)) // _CHUNK_ALIGN * _CHUNK_ALIGN)
    start = 0
    for stop in range(step, cols - 1, step):
        yield slice(start, stop)
        start = stop
    yield slice(start, cols)


@dataclass(frozen=True)
class HsiCube:
    """An L-band reflectance image on an H x W pixel grid.

    ``data`` holds finite, non-negative reflectances in float64. The array
    is never mutated after construction; all operations return new cubes.
    """

    data: np.ndarray  # (L, H, W), float64

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise DimensionError(f"cube data must be (bands, height, width), got shape {data.shape}")
        if min(data.shape) < 1:
            raise DimensionError(f"cube dimensions must be positive, got {data.shape}")
        # two reductions and no boolean cube: a NaN or an infinity reaches one of them
        low, high = data.min(), data.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValidationError("cube contains non-finite values")
        if low < 0:
            raise ValidationError("cube contains negative reflectances")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def n_pixels(self) -> int:
        return self.height * self.width

    def pixel_matrix(self) -> np.ndarray:
        """Return the (L, N) view with pixel columns in raster order."""
        return self.data.reshape(self.bands, self.n_pixels)

    @staticmethod
    def from_pixel_matrix(matrix: np.ndarray, height: int, width: int) -> "HsiCube":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise DimensionError(f"pixel matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[1] != height * width:
            raise DimensionError(
                f"pixel matrix has {matrix.shape[1]} columns, grid needs {height * width}"
            )
        return HsiCube(matrix.reshape(matrix.shape[0], height, width))


@dataclass(frozen=True)
class GroundTruth:
    """Known endmember signatures and abundances of a synthetic scene."""

    endmembers: np.ndarray  # (L, K), columns are signatures in [0, 1]
    abundances: np.ndarray  # (K, N), columns on the probability simplex

    # tolerances for the simplex constraints and the independence check
    ASC_TOL = 1e-9
    INDEP_TOL = 1e-10

    def __post_init__(self):
        m = np.asarray(self.endmembers, dtype=np.float64)
        a = np.asarray(self.abundances, dtype=np.float64)
        if m.ndim != 2 or a.ndim != 2:
            raise DimensionError("endmembers and abundances must be 2-D matrices")
        if m.shape[1] != a.shape[0]:
            raise DimensionError(
                f"endmember count mismatch: {m.shape[1]} signatures vs {a.shape[0]} abundance rows"
            )
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(a))):
            raise ValidationError("ground truth contains non-finite values")
        if np.any(m < 0) or np.any(m > 1):
            raise ValidationError("endmember signatures must lie in [0, 1]")
        if np.any(a < 0):
            raise ValidationError("abundances violate non-negativity")
        col_sums = a.sum(axis=0)
        if np.max(np.abs(col_sums - 1.0)) > self.ASC_TOL:
            raise ValidationError("abundance columns must sum to one")
        svals = np.linalg.svd(m, compute_uv=False)
        if svals[-1] <= self.INDEP_TOL * svals[0]:
            raise ValidationError("endmember signatures are not linearly independent")
        m.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "endmembers", m)
        object.__setattr__(self, "abundances", a)
