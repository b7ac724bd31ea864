"""Baseline unmixing: simplex-volume endmember extraction and constrained
least-squares abundances.

These are the reference downstream consumers used to judge whether scale
correction actually helps: extract endmembers, solve abundances under the
non-negativity and sum-to-one constraints, compare against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy.optimize import nnls

from .errors import DegenerateDataError, DimensionError, NumericError, ValidationError
from .reduction import ReducedData

# weight of the sum-to-one row relative to the endmember column norms
ASC_WEIGHT = 1e3
KKT_TOL = 1e-8
ANC_TOL = 1e-8
ASC_TOL = 1e-6
NFINDR_STARTS = 3
# relative volume improvement required to accept a vertex swap
_SWAP_TOL = 1e-12


@dataclass(frozen=True)
class UnmixResult:
    """Estimated endmembers and abundances plus per-pixel fit residuals."""

    endmembers: np.ndarray          # (L, K)
    abundances: np.ndarray          # (K, N)
    per_pixel_residual: np.ndarray  # (N,)

    def __post_init__(self):
        a = np.asarray(self.abundances, dtype=np.float64)
        if np.min(a) < -ANC_TOL:
            raise ValidationError("abundances violate non-negativity")
        if np.max(np.abs(a.sum(axis=0) - 1.0)) > ASC_TOL:
            raise ValidationError("abundance columns must sum to one")


def _passive_solve(gram, mty, inv_d2, passive, cols):
    """Unconstrained minimizers on each pixel's passive set, for pixels ``cols``.

    Pixels are grouped on their passive set, and each group is one bordered
    solve [G_PP 1; 1^T -1/delta^2] [s; lam] = [M_P^T y; 1] for all its
    pixels, where lam = delta^2 (sum(s) - 1). The border keeps delta^2 out of
    the sums, where its rounding would swamp the endmember Gram matrix.
    """
    k = gram.shape[0]
    codes = (1 << np.arange(k)) @ passive[:, cols]
    order = np.argsort(codes, kind="stable")
    sets, starts = np.unique(codes[order], return_index=True)
    s = np.zeros((k, cols.size))
    lam = np.empty(cols.size)
    for code, group in zip(sets, np.split(order, starts[1:])):
        idx = np.flatnonzero((code >> np.arange(k)) & 1)
        p = idx.size
        border = np.empty((p + 1, p + 1))
        border[:p, :p] = gram[np.ix_(idx, idx)]
        border[:p, p] = border[p, :p] = 1.0
        border[p, p] = -inv_d2
        rhs = np.empty((p + 1, group.size))
        rhs[:p] = mty[np.ix_(idx, cols[group])]
        rhs[p] = 1.0
        sol = np.linalg.solve(border, rhs)
        s[np.ix_(idx, group)] = sol[:p]
        lam[group] = sol[p]
    return s, lam


def _lawson_hanson(gram, mty, delta):
    """Lawson-Hanson NNLS of the sum-to-one-augmented system for every pixel at once.

    Works in K-space from the Gram matrix M^T M and M^T Y, as fast NNLS
    does (Bro & de Jong 1997). Returns the abundances and a mask of the
    pixels that converged within 3K outer steps, scipy's iteration limit.
    """
    k, n = mty.shape
    x = np.zeros((k, n))
    lam = np.full(n, -delta**2)
    passive = np.zeros((k, n), dtype=bool)
    # the gradient is a difference of terms this large, and the tolerance
    # sits just above its rounding: a looser one leaves out abundances of
    # about tol over the curvature between similar endmembers (1e-12
    # left out 4e-9 on the walkthrough cube). An entry admitted by
    # rounding that then cycles ends unsettled, for the per-pixel solve.
    tol = 1e-15 * (np.abs(mty).max(axis=0) + np.abs(gram).max())
    todo = np.arange(n)
    for _ in range(3 * k):
        grad = mty[:, todo] - gram @ x[:, todo] - lam[todo]
        grad[passive[:, todo]] = -np.inf
        j = grad.argmax(axis=0)
        grows = grad[j, np.arange(todo.size)] > tol[todo]
        todo, j = todo[grows], j[grows]
        if todo.size == 0:
            break
        passive[j, todo] = True
        cols = todo
        while cols.size:
            s, lam_s = _passive_solve(gram, mty, 1.0 / delta**2, passive, cols)
            blocked = passive[:, cols] & (s <= 0.0)
            feasible = ~blocked.any(axis=0)
            x[:, cols[feasible]] = s[:, feasible]
            lam[cols[feasible]] = lam_s[feasible]
            cols, s, lam_s, blocked = (
                cols[~feasible], s[:, ~feasible], lam_s[~feasible], blocked[:, ~feasible]
            )
            # step toward s until the first passive entry reaches zero
            xc = x[:, cols]
            gap = xc - s
            ratio = np.where(blocked, xc / np.where(gap > 0.0, gap, 1.0), np.inf)
            hit = ratio.argmin(axis=0)
            alpha = ratio[hit, np.arange(cols.size)]
            xc -= alpha * gap
            lam[cols] += alpha * (lam_s - lam[cols])
            xc[hit, np.arange(cols.size)] = 0.0
            keep = passive[:, cols] & (xc > 0.0)
            xc[~keep] = 0.0
            x[:, cols] = xc
            passive[:, cols] = keep
    settled = np.ones(n, dtype=bool)
    settled[todo] = False
    return x, settled


def _escalate(y: np.ndarray, m: np.ndarray, delta: float) -> tuple[np.ndarray, float]:
    """One pixel by scipy's NNLS, raising the sum-to-one weight until the constraint holds.

    Badly scaled pixels fit poorly, which loosens the sum-to-one row.
    Returns the abundances and the weight they were solved with.
    """
    weight = delta
    for _ in range(4):
        aug = np.vstack([m, weight * np.ones((1, m.shape[1]))])
        target = np.concatenate([y, [weight]])
        sol, _ = nnls(aug, target)
        if abs(sol.sum() - 1.0) <= 0.1 * ASC_TOL:
            break
        weight *= 10.0
    return sol, weight


def fcls(pixels: np.ndarray, endmembers: np.ndarray) -> np.ndarray:
    """Fully constrained least-squares abundances, one pixel per column.

    Solves min ||y - M a||^2 subject to a >= 0 and sum(a) = 1 by active-set
    non-negative least squares on the sum-to-one-augmented system, batched
    over pixels (Heinz & Chang 2001). Pixels whose sum misses the
    tolerance at the base weight are solved again one at a time with an
    escalating weight. Each solution is KKT-checked: no negative entries
    and complementary slackness within KKT_TOL.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    m = np.asarray(endmembers, dtype=np.float64)
    if pixels.ndim != 2 or m.ndim != 2 or pixels.shape[0] != m.shape[0]:
        raise DimensionError(
            f"incompatible shapes: pixels {pixels.shape}, endmembers {m.shape}"
        )
    delta = ASC_WEIGHT * float(np.mean(np.linalg.norm(m, axis=0)))
    # the solved system includes the sum-to-one row, which separates
    # signatures that differ only by scale; only signatures degenerate in
    # the augmented sense (e.g. exact duplicates) are unsolvable
    svals = np.linalg.svd(np.vstack([m, delta * np.ones((1, m.shape[1]))]), compute_uv=False)
    if svals[-1] <= 1e-10 * svals[0]:
        raise DimensionError("endmember matrix is rank-deficient")
    gram = m.T @ m
    mty = m.T @ pixels
    out, settled = _lawson_hanson(gram, mty, delta)
    weights = np.full(pixels.shape[1], delta)
    for i in np.flatnonzero(~settled | (np.abs(out.sum(axis=0) - 1.0) > 0.1 * ASC_TOL)):
        out[:, i], weights[i] = _escalate(pixels[:, i], m, delta)
    # the dual of the augmented system, A^T (A a - t), in K-space
    dual = gram @ out - mty + weights**2 * (out.sum(axis=0) - 1.0)
    kkt_scale = 1.0 + np.abs(mty + weights**2).max(axis=0)
    failed = np.flatnonzero(np.abs(out * dual).max(axis=0) / kkt_scale > KKT_TOL)
    if failed.size:
        raise NumericError("active-set solve failed the KKT check", pixel_index=int(failed[0]))
    return out


def unmix(pixels: np.ndarray, endmembers: np.ndarray) -> UnmixResult:
    """FCLS plus residual bookkeeping."""
    abundances = fcls(pixels, endmembers)
    residual = np.linalg.norm(pixels - endmembers @ abundances, axis=0)
    return UnmixResult(endmembers=endmembers, abundances=abundances, per_pixel_residual=residual)


def _simplex_volume(vertices: np.ndarray) -> float:
    """(k-1)-volume of the simplex spanned by the k columns of vertices."""
    edges = vertices[:, 1:] - vertices[:, :1]
    gram = edges.T @ edges
    det = float(np.linalg.det(gram))
    k = vertices.shape[1]
    return np.sqrt(max(det, 0.0)) / factorial(k - 1)


def _hull_distances(pixels: np.ndarray, anchor_set: np.ndarray) -> np.ndarray:
    """Distance from every pixel to the affine hull of the anchor columns."""
    base = anchor_set[:, :1]
    span = anchor_set[:, 1:] - base
    centered = pixels - base
    if span.shape[1] == 0:
        return np.linalg.norm(centered, axis=0)
    q, _ = np.linalg.qr(span)
    return np.linalg.norm(centered - q @ (q.T @ centered), axis=0)


def nfindr_extract(
    reduced: ReducedData,
    k: int,
    seed: int = 0,
    max_sweeps: int = 10,
) -> np.ndarray:
    """Endmembers as the pixel set of locally maximal simplex volume.

    Repeated single-vertex sweeps: each vertex is replaced by the pixel
    farthest from the affine hull of the remaining vertices whenever that
    grows the volume. Several seeded random starts are swept and the
    largest simplex wins. Returned signatures live in the original band
    space via the stored subspace basis.
    """
    pixels = reduced.pixels
    n = reduced.n_pixels
    if k < 2:
        raise DimensionError("endmember extraction needs k >= 2")
    if n < k:
        raise DimensionError(f"need at least {k} pixels, have {n}")
    if k > reduced.k + 1:
        raise DimensionError(
            f"a {k - 1}-simplex does not fit in a {reduced.k}-dimensional subspace"
        )
    rng = np.random.default_rng(seed)
    # flat simplexes have Gram determinants of rounding noise, whose square
    # root sits near sqrt(eps) times the edge-length scale
    degenerate_floor = 1e-7 * float(np.abs(pixels).max() or 1.0) ** (k - 1)

    best_idx = None
    best_vol = -1.0
    for _ in range(NFINDR_STARTS):
        idx = rng.choice(n, size=k, replace=False)
        vol = _simplex_volume(pixels[:, idx])
        for _ in range(max_sweeps):
            swapped = False
            for j in range(k):
                others = np.delete(idx, j)
                dist = _hull_distances(pixels, pixels[:, others])
                cand = int(np.argmax(dist))
                if dist[cand] > dist[idx[j]] * (1.0 + _SWAP_TOL) and cand not in others:
                    idx = idx.copy()
                    idx[j] = cand
                    swapped = True
            new_vol = _simplex_volume(pixels[:, idx])
            if new_vol < vol * (1.0 - 1e-9) and vol > degenerate_floor:
                raise NumericError("simplex volume decreased across a sweep")
            vol = new_vol
            if not swapped:
                break
        if vol > best_vol:
            best_vol = vol
            best_idx = idx

    if best_vol <= degenerate_floor:
        raise DegenerateDataError("pixel cloud is (nearly) coplanar; simplex volume vanishes")
    return reduced.basis.T @ pixels[:, best_idx]
