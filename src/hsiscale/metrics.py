"""Evaluation metrics: scale-factor RMSE, abundance RMSE, spectral angles,
and the statistical ceiling on hyperplane placement error.
"""

from __future__ import annotations

import numpy as np

from .correct import ScalingField
from .cube import HsiCube
from .errors import DimensionError, ValidationError


def rmse_mu(pred: ScalingField, truth: ScalingField) -> float:
    """Root-mean-square error between two scaling fields."""
    if len(pred) != len(truth):
        raise DimensionError(f"length mismatch: {len(pred)} vs {len(truth)}")
    return float(np.sqrt(np.mean((pred.values - truth.values) ** 2)))


def _sad_matrix(m: np.ndarray, m_hat: np.ndarray) -> np.ndarray:
    if m.shape[0] != m_hat.shape[0]:
        raise DimensionError(f"band counts differ: {m.shape[0]} vs {m_hat.shape[0]}")
    norms = np.linalg.norm(m, axis=0)
    norms_hat = np.linalg.norm(m_hat, axis=0)
    if np.min(norms) == 0 or np.min(norms_hat) == 0:
        raise ValidationError("signature columns must be nonzero")
    cos = (m.T @ m_hat) / np.outer(norms, norms_hat)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def match_endmembers(m: np.ndarray, m_hat: np.ndarray) -> np.ndarray:
    """Permutation aligning estimated signatures to reference columns.

    Hungarian assignment on the pairwise spectral-angle matrix; entry i of
    the result is the estimated column paired with reference column i.
    """
    from scipy.optimize import linear_sum_assignment  # here, so import hsiscale loads numpy only

    m = np.asarray(m, dtype=np.float64)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    if m.shape[1] != m_hat.shape[1]:
        raise DimensionError("column counts must match for assignment")
    rows, cols = linear_sum_assignment(_sad_matrix(m, m_hat))
    perm = np.empty(m.shape[1], dtype=int)
    perm[rows] = cols
    return perm


def sad_error(m: np.ndarray, m_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean and per-endmember spectral angle after optimal matching.

    Invariant to positive per-column rescaling of either argument and to
    the column order of the estimate.
    """
    m = np.asarray(m, dtype=np.float64)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    sad = _sad_matrix(m, m_hat)
    perm = match_endmembers(m, m_hat)
    per = sad[np.arange(m.shape[1]), perm]
    return float(per.mean()), per


def abundance_rmse(
    a: np.ndarray,
    a_hat: np.ndarray,
    permutation: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Total and per-endmember abundance RMSE.

    ``permutation`` (as produced by match_endmembers) reorders the rows of
    the estimate before comparison; resolve it from the endmember
    signatures first when the estimator's output order is arbitrary.
    """
    a = np.asarray(a, dtype=np.float64)
    a_hat = np.asarray(a_hat, dtype=np.float64)
    if a.shape != a_hat.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {a_hat.shape}")
    if permutation is not None:
        if len(permutation) != a.shape[0]:
            raise DimensionError(
                f"permutation has {len(permutation)} entries, the abundances {a.shape[0]} rows"
            )
        a_hat = a_hat[np.asarray(permutation, dtype=int)]
    diff = a - a_hat
    total = float(np.sqrt(np.mean(np.sum(diff**2, axis=0))))
    per = np.sqrt(np.mean(diff**2, axis=1))
    return total, per


def norm_concentration_ratio(clean_cube: HsiCube) -> float:
    """<||y||>^2 / <||y||^2> over pixels; 1 means equal-magnitude pixels."""
    norms = np.linalg.norm(clean_cube.pixel_matrix(), axis=0)
    mean_sq = np.mean(norms**2)
    if mean_sq == 0:
        raise ValidationError("clean cube has no nonzero pixel")
    return float(norms.mean() ** 2 / mean_sq)


def bound_check(mu_true: ScalingField, clean_cube: HsiCube) -> float:
    """Ceiling on the relative RMS hyperplane placement error.

    Evaluates sqrt((var - var * ratio) / N) with both variance extremes
    set to the realized variance of the true scale field, ratio the
    pixel-norm concentration of the clean cube and N the length of the
    field. Shrinks as 1/sqrt(N); zero variance yields zero.
    """
    var = float(np.var(mu_true.values))
    if var == 0.0:
        return 0.0
    ratio = norm_concentration_ratio(clean_cube)
    return float(np.sqrt(max(var - var * ratio, 0.0) / len(mu_true)))


def hyperplane_placement_error(clean_reduced_pixels: np.ndarray, normal: np.ndarray) -> float:
    """Relative RMS gap between clean pixels and an estimated hyperplane.

    For each clean pixel, the ray through it meets the estimated
    hyperplane at a rescaled copy; the gap is the distance between the
    two, normalized by the RMS pixel magnitude.
    """
    pixels = np.asarray(clean_reduced_pixels, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    projections = normal @ pixels
    if np.any(projections == 0):
        raise ValidationError("a clean pixel is orthogonal to the normal")
    mean_projection = float((normal @ pixels.mean(axis=1)))
    sq_norms = np.einsum("ij,ij->j", pixels, pixels)
    gaps_sq = (mean_projection / projections - 1.0) ** 2 * sq_norms
    return float(np.sqrt(gaps_sq.mean() / sq_norms.mean()))
