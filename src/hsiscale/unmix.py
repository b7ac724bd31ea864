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

from .cube import column_chunks
from .errors import DegenerateDataError, DimensionError, NumericError, ValidationError
from .reduction import ReducedData

KKT_TOL = 1e-8
ANC_TOL = 1e-8
ASC_TOL = 1e-6
NFINDR_STARTS = 3
# vertex-swap sweeps per start; a start stops earlier once a sweep swaps nothing
NFINDR_SWEEPS = 10
# relative volume improvement required to accept a vertex swap
_SWAP_TOL = 1e-12


def __getattr__(name: str):
    """Resolve ``nnls`` on first access (PEP 562), so importing this module
    loads no scipy; without scipy the name is absent. Nothing here calls it;
    perfbench counts calls to the name. ROADMAP item 1(c) deletes both."""
    if name == "nnls":
        try:
            from scipy.optimize import nnls
        except ImportError:
            pass
        else:
            globals()["nnls"] = nnls
            return nnls
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _passive_solve(gram, mty, passive, cols):
    """Minimizers on each pixel's passive set under sum(s) = 1, for pixels ``cols``.

    Pixels are grouped on their passive set, and each group is one solve of
    the KKT border [G_PP 1; 1^T 0] [s; lam] = [M_P^T y; 1] for all its
    pixels, lam being the multiplier of the sum-to-one constraint.
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
        border = np.zeros((p + 1, p + 1))
        border[:p, :p] = gram[np.ix_(idx, idx)]
        border[:p, p] = border[p, :p] = 1.0
        rhs = np.empty((p + 1, group.size))
        rhs[:p] = mty[np.ix_(idx, cols[group])]
        rhs[p] = 1.0
        sol = np.linalg.solve(border, rhs)
        s[np.ix_(idx, group)] = sol[:p]
        lam[group] = sol[p]
    return s, lam


def _lawson_hanson(gram, mty):
    """Lawson-Hanson active-set FCLS for every pixel at once.

    Works in K-space from the Gram matrix M^T M and M^T Y, as fast NNLS
    does (Bro & de Jong 1997), with the sum-to-one constraint held exactly
    in each passive-set solve, not by a penalty weight. Each pixel starts
    at its nearest vertex, so every iterate is feasible. Returns the
    abundances and the sum-to-one multipliers lam as they stand after at
    most 3K outer steps, scipy's iteration limit.
    """
    k, n = mty.shape
    start = (mty - 0.5 * np.diag(gram)[:, None]).argmax(axis=0)
    x = np.zeros((k, n))
    x[start, np.arange(n)] = 1.0
    lam = mty[start, np.arange(n)] - gram[start, start]
    passive = x > 0.0
    # the gradient is a difference of terms this large, and the tolerance
    # sits just above its rounding: a looser one leaves out abundances of
    # about tol over the curvature between similar endmembers (1e-12
    # left out 4e-9 on the walkthrough cube)
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
            s, lam_s = _passive_solve(gram, mty, passive, cols)
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
    return x, lam


def fcls(pixels: np.ndarray, endmembers: np.ndarray) -> np.ndarray:
    """Fully constrained least-squares abundances, one pixel per column.

    Solves min ||y - M a||^2 subject to a >= 0 and sum(a) = 1 (Heinz &
    Chang 2001) by one batched active-set pass over all pixels that holds
    the sum-to-one constraint exactly, with no penalty weight. Each
    solution is KKT-checked: dual feasibility and complementary slackness
    within KKT_TOL. A NaN or an infinity in either input is refused.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    m = np.asarray(endmembers, dtype=np.float64)
    if pixels.ndim != 2 or m.ndim != 2 or pixels.shape[0] != m.shape[0]:
        raise DimensionError(
            f"incompatible shapes: pixels {pixels.shape}, endmembers {m.shape}"
        )
    for name, values in (("pixels", pixels), ("endmembers", m)):
        # a NaN or an infinity reaches the minimum or the maximum
        if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValidationError(f"{name} contain non-finite values")
    # every passive-set border is solvable iff M with a sum-to-one row has
    # full column rank: the row separates signatures that differ only by
    # scale, so only exact duplicates, or more than L + 1 signatures (the
    # SVD then returns fewer than K values), are refused
    sum_row = 1e3 * float(np.mean(np.linalg.norm(m, axis=0)))
    svals = np.linalg.svd(np.vstack([m, np.full((1, m.shape[1]), sum_row)]), compute_uv=False)
    if svals.size < m.shape[1] or svals[-1] <= 1e-10 * svals[0]:
        raise DimensionError("endmember matrix is rank-deficient")
    gram = m.T @ m
    mty = m.T @ pixels
    out, lam = _lawson_hanson(gram, mty)
    # the Lagrangian's gradient G a - M^T y + lam in K-space, lam being the
    # sum-to-one multiplier: >= 0 everywhere, 0 wherever a > 0
    dual = gram @ out - mty + lam
    kkt_scale = 1.0 + np.abs(mty).max(axis=0) + np.abs(gram).max()
    violation = np.maximum(np.abs(out * dual), -dual).max(axis=0) / kkt_scale
    failed = np.flatnonzero(~(violation <= KKT_TOL))  # a NaN violation fails
    if failed.size:
        raise NumericError("active-set solve failed the KKT check", pixel_index=int(failed[0]))
    return out


def unmix(pixels: np.ndarray, endmembers: np.ndarray) -> UnmixResult:
    """FCLS plus residual bookkeeping.

    The residual norms ||y - M a|| are taken over column chunks
    (``column_chunks``), so no step holds a pixels-sized temporary.
    """
    pixels = np.asarray(pixels)
    abundances = fcls(pixels, endmembers)
    residual = np.empty(abundances.shape[1])
    for cols in column_chunks(*pixels.shape):
        residual[cols] = np.linalg.norm(pixels[:, cols] - endmembers @ abundances[:, cols], axis=0)
    return UnmixResult(endmembers=endmembers, abundances=abundances, per_pixel_residual=residual)


def _simplex_volume(vertices: np.ndarray) -> float:
    """(k-1)-volume of the simplex spanned by the k columns of vertices."""
    edges = vertices[:, 1:] - vertices[:, :1]
    gram = edges.T @ edges
    det = float(np.linalg.det(gram))
    k = vertices.shape[1]
    return np.sqrt(max(det, 0.0)) / factorial(k - 1)


def _is_flat(vertices: np.ndarray) -> bool:
    """Whether the simplex on the columns of vertices has (nearly) lost a dimension.

    Judged by its edges' conditioning, above 1e-3 on every real simplex seen
    up to K=8, not by its volume: a real K=8 simplex can have 1e-12 of the
    product of its edge lengths.
    """
    s = np.linalg.svd(vertices[:, 1:] - vertices[:, :1], compute_uv=False)
    return bool(s[-1] <= 1e-8 * s[0])


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
) -> np.ndarray:
    """Endmembers as the pixel set of locally maximal simplex volume.

    Repeated single-vertex sweeps: each vertex is replaced by the pixel
    farthest from the affine hull of the remaining vertices whenever that
    grows the volume. No sweep can shrink it, so none is checked for that:
    the volume is the other vertices' base times the height over their
    affine hull, and a swap to a pixel strictly farther from that hull
    grows it by the ratio of the two distances. Several seeded random
    starts are swept and the largest simplex wins, its volume taken once
    after its sweeps. Returned signatures live in the original band space
    via the stored subspace basis.
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

    best_idx = None
    best_vol = -1.0
    for _ in range(NFINDR_STARTS):
        idx = rng.choice(n, size=k, replace=False)
        for _ in range(NFINDR_SWEEPS):
            swapped = False
            for j in range(k):
                others = np.delete(idx, j)
                dist = _hull_distances(pixels, pixels[:, others])
                cand = int(np.argmax(dist))
                if dist[cand] > dist[idx[j]] * (1.0 + _SWAP_TOL) and cand not in others:
                    idx = idx.copy()
                    idx[j] = cand
                    swapped = True
            if not swapped:
                break
        vol = _simplex_volume(pixels[:, idx])
        if vol > best_vol:
            best_vol = vol
            best_idx = idx

    if _is_flat(pixels[:, best_idx]):
        raise DegenerateDataError("pixel cloud is (nearly) coplanar; simplex volume vanishes")
    return reduced.basis.T @ pixels[:, best_idx]
