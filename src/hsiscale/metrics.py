"""Evaluation metrics: scale-factor RMSE, abundance RMSE, spectral angles,
and the statistical ceiling on hyperplane placement error.
"""

from __future__ import annotations

import numpy as np

from .correct import ScalingField
from .cube import HsiCube, column_chunks
from .errors import DimensionError, ValidationError


def rmse_mu(pred: ScalingField, truth: ScalingField) -> float:
    """Root-mean-square error between two scaling fields."""
    if len(pred) != len(truth):
        raise DimensionError(f"length mismatch: {len(pred)} vs {len(truth)}")
    return float(np.sqrt(np.mean((pred.values - truth.values) ** 2)))


def _sad_matrix(m: np.ndarray, m_hat: np.ndarray) -> np.ndarray:
    if m.shape[0] != m_hat.shape[0]:
        raise DimensionError(f"band counts differ: {m.shape[0]} vs {m_hat.shape[0]}")
    if 0 in (m.shape[1], m_hat.shape[1]):
        raise DimensionError("signature matrices need at least one column")
    if not (np.isfinite(m).all() and np.isfinite(m_hat).all()):
        raise ValidationError("signatures contain non-finite values")
    norms = np.linalg.norm(m, axis=0)
    norms_hat = np.linalg.norm(m_hat, axis=0)
    if np.min(norms) == 0 or np.min(norms_hat) == 0:
        raise ValidationError("signature columns must be nonzero")
    cos = (m.T @ m_hat) / np.outer(norms, norms_hat)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _assign(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect matching of a square, finite cost matrix.

    Shortest augmenting paths with dual potentials (Kuhn-Munkres in the
    Jonker-Volgenant form, as in scipy's ``linear_sum_assignment``; Crouse,
    IEEE TAES 2016): each row is added by a Dijkstra search over the
    columns, O(K^3) in all.
    Entry i of the result is the column matched to row i. On ties any
    minimum-cost permutation may be returned.
    """
    k = cost.shape[0]
    # row potentials u and column potentials v; index 0 of the columns is a
    # virtual column that holds the row being added
    u = np.zeros(k + 1)
    v = np.zeros(k + 1)
    row_of = np.zeros(k + 1, dtype=int)  # 1-based row matched to each column, 0 if free
    way = np.zeros(k + 1, dtype=int)
    for i in range(1, k + 1):
        row_of[0] = i
        minv = np.full(k + 1, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        j0 = 0
        while row_of[j0]:  # until the search reaches a free column
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            closer = ~used[1:] & (reduced < minv[1:])
            minv[1:][closer] = reduced[closer]
            way[1:][closer] = j0
            slack = np.where(used[1:], np.inf, minv[1:])
            j1 = int(np.argmin(slack)) + 1
            delta = slack[j1 - 1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
        while j0:  # flip the augmenting path back to the virtual column
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    perm = np.empty(k, dtype=int)
    perm[row_of[1:] - 1] = np.arange(k)
    return perm


def _matched_sad(m: np.ndarray, m_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(m, dtype=np.float64)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    if m.shape[1] != m_hat.shape[1]:
        raise DimensionError("column counts must match for assignment")
    sad = _sad_matrix(m, m_hat)
    return sad, _assign(sad)


def match_endmembers(m: np.ndarray, m_hat: np.ndarray) -> np.ndarray:
    """Permutation aligning estimated signatures to reference columns.

    Optimal assignment on the pairwise spectral-angle matrix; entry i of
    the result is the estimated column paired with reference column i.
    On ties any minimum-cost permutation may be returned.
    """
    return _matched_sad(m, m_hat)[1]


def sad_error(m: np.ndarray, m_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean and per-endmember spectral angle after optimal matching.

    Invariant to positive per-column rescaling of either argument and to
    the column order of the estimate.
    """
    sad, perm = _matched_sad(m, m_hat)
    per = sad[np.arange(len(perm)), perm]
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
    pixels = clean_cube.pixel_matrix()
    norms = np.empty(pixels.shape[1])
    for cols in column_chunks(*pixels.shape):
        norms[cols] = np.linalg.norm(pixels[:, cols], axis=0)
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
