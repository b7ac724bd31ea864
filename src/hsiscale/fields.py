"""Stationary Gaussian random fields on a grid via circulant embedding.

The target covariance is laid out on a torus at least twice the requested
size, diagonalized with the FFT, and sampled spectrally. If the embedding
is not positive semi-definite the torus is enlarged; persistent failure is
reported rather than silently fixed. The Matern model is the smoothness
3/2 member of the family, in its closed form, so no Bessel function is
evaluated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GenerationError

# negative eigenvalues up to this fraction of the largest are clipped;
# such residual mass is negligible for sampling (Matern embeddings keep a
# tiny indefinite tail at any practical torus size)
_EMBED_TOL = 1e-4
_PAD_FACTORS = (2, 4, 8)


def spherical_covariance(r: np.ndarray, corr_length: float) -> np.ndarray:
    """Spherical covariance model with range ``corr_length`` (C(0) = 1)."""
    x = np.minimum(np.asarray(r, dtype=np.float64) / corr_length, 1.0)
    return 1.0 - 1.5 * x + 0.5 * x**3


def matern_covariance(r: np.ndarray, corr_length: float) -> np.ndarray:
    """Matern covariance of smoothness 3/2 and length scale ``corr_length``.

    At nu = 3/2 the Bessel form has the closed form (1 + x) exp(-x) with
    x = sqrt(3) r / corr_length, so C(0) = 1 exactly and C decays to 0.
    """
    x = math.sqrt(3.0) * np.asarray(r, dtype=np.float64) / corr_length
    return (1.0 + x) * np.exp(-x)


def gaussian_random_field(
    height: int,
    width: int,
    covariance,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Draw ``count`` zero-mean fields with the given isotropic covariance.

    ``covariance`` maps a distance array (in pixels) to covariance values
    with ``covariance(0) == 1``. Marginal variance is 1 up to embedding
    rounding; callers wanting exact sample moments standardize afterwards.
    The embedding is built once; field i is drawn after field i-1, so the
    stack equals ``count`` calls that draw one field each. Returns an array
    of shape (count, height, width).
    """
    last_min = None
    for factor in _PAD_FACTORS:
        m1, m2 = factor * height, factor * width
        ii = np.arange(m1)
        jj = np.arange(m2)
        dx = np.minimum(ii, m1 - ii)
        dy = np.minimum(jj, m2 - jj)
        r = np.hypot(dx[:, None], dy[None, :])
        cov = covariance(r)
        eig = np.fft.fft2(cov).real
        last_min = float(eig.min())
        if last_min < -_EMBED_TOL * float(eig.max()):
            continue  # embedding not PSD at this size; enlarge the torus
        amplitude = np.sqrt(np.clip(eig, 0.0, None))
        fields = np.empty((count, height, width))
        for field in fields:
            noise = rng.standard_normal((m1, m2)) + 1j * rng.standard_normal((m1, m2))
            field[:] = (np.fft.ifft2(amplitude * noise).real * math.sqrt(m1 * m2))[:height, :width]
        return fields
    raise GenerationError(
        f"circulant embedding stayed indefinite up to {_PAD_FACTORS[-1]}x padding "
        f"(most negative eigenvalue {last_min:.3e})"
    )
