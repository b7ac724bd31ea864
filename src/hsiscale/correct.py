"""Estimation and removal of per-pixel multiplicative scale factors.

The pixel cloud of a scale-distorted linear mixture lives on rays through
the origin; the undistorted mixture lives on a hyperplane crossing those
rays. The pipeline estimates that hyperplane (anchor point + unit normal),
reads each pixel's scale factor off the ray/hyperplane intersection, and
divides it out:

1. reduce the cube to the K-dimensional dominant subspace,
2. anchor the hyperplane at the mean reduced pixel, ``ReducedData.mean_pixel``,
3. seed a swarm with candidate normals solved from random pixel K-sets;
   it holds every accepted candidate, topped up to 64 particles with
   random directions,
4. locate the basin of the projection residual's minimum with a short
   PSO run,
5. polish with damped Newton steps in the affine chart c* . m = 1 of the
   anchor (projected gradient descent on the unit sphere instead, when the
   caller configures it),
6. divide every original pixel by its estimated factor.

The residual objective is scale- and sign-invariant in the normal, so the
swarm and gradient descent search the unit sphere and the Newton polish
the affine chart.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cube import HsiCube, page_array
from .errors import (
    DegenerateDataError,
    DimensionError,
    NearOrthogonalNormalError,
    NumericError,
    OptimizationError,
    ValidationError,
)
from .reduction import ReducedData, svd_reduce

# scale factors with magnitude below this are clamped before dividing
MU_FLOOR = 1e-3
# bytes of one block of particle rows in the objective kernel, about an L2
# cache: 8 MB and 32 MB blocks measured slower than 1 MB
BLOCK_BYTES = 1 << 20
# anchor-normal dot products below this fraction of the mean pixel norm
# count as "normal orthogonal to the data"; ratios are meaningless there
DENOM_FLOOR_REL = 1e-9
# candidate normals a correction asks for unless its caller says otherwise
CANDIDATE_COUNT = 200
# candidate K-sets must be at least this fraction of the reference median
# pairwise distance apart, and decently conditioned
CANDIDATE_MIN_SEPARATION = 0.5
CANDIDATE_MAX_COND = 1e6
CANDIDATE_MAX_RETRIES = 20
_SEPARATION_SUBSAMPLE = 512
_PAIR_ROWS = 64  # rows of the sub-sample's distance triangle computed at once
_CANDIDATE_BATCH = 256  # K-sets tested at once; bounds the draws x K^3 distance temporary
# swarm weights: the constriction values of Clerc & Kennedy (IEEE TEVC 2002)
_PSO_INERTIA = 0.72
_PSO_COGNITIVE = 1.49
_PSO_SOCIAL = 1.49
# largest particle step, as a fraction of the unit-sphere diameter
_PSO_VELOCITY_CLAMP = 0.2
# refinement: first trial step, its backtracking factor, and the stopping
# tolerances; the gradient tolerance is relative to the starting objective
_GD_INITIAL_STEP = 1e-2
_GD_BACKTRACK = 0.5
_GD_GRAD_TOL = 1e-10
_GD_STEP_TOL = 1e-14
_ARMIJO_C = 1e-4
# Newton polish: step cap, the first Marquardt damping (relative to the
# largest tangent Hessian diagonal), its factor on every accepted (divide)
# or failed (multiply) step, the damping past which no step is taken, and
# the relative psi drop below which the polish stops
_NEWTON_MAX_STEPS = 50
_NEWTON_DAMPING_INITIAL = 1e-3
_NEWTON_DAMPING_FACTOR = 10.0
_NEWTON_DAMPING_MAX = 1e12
_NEWTON_REL_TOL = 1e-15
# threads that share the objective kernel's blocks with its caller, one per
# further CPU this process may use (none where the OS reports no CPU
# affinity); the pool starts them on its first task
_HELPER_COUNT = len(os.sched_getaffinity(0)) - 1 if hasattr(os, "sched_getaffinity") else 0
# helpers one batch may use, so its scratch stays within eight blocks
# however many CPUs the host has
_MAX_HELPERS = 7
_HELPER_POOL = ThreadPoolExecutor(_HELPER_COUNT, thread_name_prefix="psi") if _HELPER_COUNT else None


@dataclass(frozen=True)
class HyperplaneModel:
    """Point-normal form of the estimated mixing hyperplane.

    The normal is unit length with its sign fixed so ``c_star @ normal``
    is positive; ``denom`` caches that product.
    """

    c_star: np.ndarray
    normal: np.ndarray
    denom: float

    def __post_init__(self):
        c_star = np.asarray(self.c_star, dtype=np.float64)
        normal = np.asarray(self.normal, dtype=np.float64)
        if c_star.shape != normal.shape or c_star.ndim != 1:
            raise DimensionError("c_star and normal must be 1-D vectors of equal length")
        if abs(np.linalg.norm(normal) - 1.0) > 1e-12:
            raise ValidationError("normal must have unit Euclidean norm")
        if not self.denom > 0:
            raise ValidationError("denom must be positive (sign convention)")
        c_star.setflags(write=False)
        normal.setflags(write=False)
        object.__setattr__(self, "c_star", c_star)
        object.__setattr__(self, "normal", normal)

    @staticmethod
    def build(c_star: np.ndarray, normal: np.ndarray, denom_floor: float) -> "HyperplaneModel":
        """Normalize, fix the sign, and reject near-orthogonal normals."""
        normal, norm = _checked_normal(normal, np.size(c_star))
        unit = normal / norm
        denom = float(c_star @ unit)
        if denom < 0:
            unit = -unit
            denom = -denom
        if denom <= denom_floor:
            raise NearOrthogonalNormalError(
                f"anchor-normal product {denom:.3e} below floor {denom_floor:.3e}"
            )
        return HyperplaneModel(c_star=c_star, normal=unit, denom=denom)


@dataclass(frozen=True)
class ScalingField:
    """Per-pixel positive scale factors, normalized to mean one."""

    values: np.ndarray
    clamped_count: int = 0

    MEAN_TOL = 1e-9

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise DimensionError("scaling field must be a non-empty 1-D vector")
        if not np.all(np.isfinite(values)):
            raise ValidationError("scaling field contains non-finite values")
        if np.min(values) < MU_FLOOR * (1.0 - 1e-12):
            raise ValidationError(f"scaling factors must be >= {MU_FLOOR}")
        if abs(values.mean() - 1.0) > self.MEAN_TOL:
            raise ValidationError("scaling field mean must be 1")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @staticmethod
    def from_raw(values: np.ndarray) -> "ScalingField":
        """Clamp to ``MU_FLOOR``, renormalize to mean one, count clamp events."""
        mu = np.asarray(values, dtype=np.float64).copy()
        if mu.ndim != 1 or mu.size < 1:
            raise DimensionError("scaling field must be a non-empty 1-D vector")
        if not np.all(np.isfinite(mu)):
            bad = int(np.argmax(~np.isfinite(mu)))
            raise NumericError("non-finite scaling factor", pixel_index=bad)
        clamped = int(np.count_nonzero(mu < MU_FLOOR))
        for _ in range(10):
            np.clip(mu, MU_FLOOR, None, out=mu)
            mean = mu.mean()
            mu /= mean
            if np.min(mu) >= MU_FLOOR * (1.0 - 1e-12):
                break
        return ScalingField(values=mu, clamped_count=clamped)


@dataclass(frozen=True)
class PsoConfig:
    """Swarm search size and length; the weights are module constants.

    ``swarm_size`` is the least particle count: ``pso_minimize`` grows the
    swarm to hold every start it is given. The default length only has to
    find the basin of the minimum: the Newton polish that follows closes
    the last gap in a few steps. The swarm's seed is not part of the
    config: ``run_correction`` derives it from its ``rng_seed``.
    """

    swarm_size: int = 64
    iterations: int = 30

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValidationError("swarm_size must be >= 2")
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")


@dataclass(frozen=True)
class GdConfig:
    """Iteration cap of the projected-gradient polish, which runs in place
    of the Newton polish when a caller passes this config."""

    max_iters: int = 500

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")


@dataclass(frozen=True)
class CorrectionReport:
    """Diagnostics from one end-to-end correction run."""

    mu_hat: ScalingField
    model: HyperplaneModel
    psi_initial: float
    psi_after_pso: float
    psi_final: float
    candidate_count: int
    seed: int

    def __post_init__(self):
        if not (self.psi_final <= self.psi_after_pso <= self.psi_initial):
            raise ValidationError(
                "objective must not increase through the pipeline: "
                f"{self.psi_initial} -> {self.psi_after_pso} -> {self.psi_final}"
            )

    @property
    def clamped_pixels(self) -> int:
        return self.mu_hat.clamped_count

    @property
    def degenerate_mode(self) -> bool:
        """K=1: the hyperplane is a point and its normal the one-vector [1]."""
        return self.model.normal.size == 1

    def to_json_dict(self) -> dict:
        return {
            "psi_initial": self.psi_initial,
            "psi_after_pso": self.psi_after_pso,
            "psi_final": self.psi_final,
            "clamped_pixels": self.clamped_pixels,
            "candidate_count": self.candidate_count,
            "normal": [float(v) for v in self.model.normal],
            "c_star": [float(v) for v in self.model.c_star],
            "seed": self.seed,
            "degenerate_mode": self.degenerate_mode,
        }


def derive_seeds(rng_seed: int, count: int = 2) -> tuple[int, ...]:
    """``count`` child seeds from one master seed; child i is the same for any count."""
    children = np.random.SeedSequence(rng_seed).spawn(count)
    return tuple(int(s.generate_state(1)[0]) for s in children)


def denom_floor_for(pixels: np.ndarray) -> float:
    """Orthogonality threshold scaled to the data magnitude."""
    return DENOM_FLOOR_REL * float(np.mean(np.linalg.norm(pixels, axis=0)))


def _checked_normal(normal: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """``normal`` as a float64 vector, and its norm; a normal that is not a
    finite nonzero K-vector raises. A nonzero normal whose squared norm
    overflows or underflows comes back divided by its largest magnitude,
    which keeps its direction."""
    normal = np.asarray(normal, dtype=np.float64)
    if normal.shape != (k,):
        raise DimensionError(f"normal must have shape ({k},), got {normal.shape}")
    if not np.all(np.isfinite(normal)):
        raise ValidationError("normal must be a finite nonzero vector")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(normal))
    if norm in (0.0, math.inf) and normal.any():
        normal = normal / np.max(np.abs(normal))
        norm = float(np.linalg.norm(normal))
    if norm == 0:
        raise ValidationError("normal must be a finite nonzero vector")
    return normal, norm


def objective_psi(normal: np.ndarray, reduced: ReducedData) -> float:
    """Sum of squared distances between pixels and their ray projections.

    Each pixel is projected along its ray from the origin onto the
    hyperplane through ``reduced.mean_pixel`` with that normal; the
    residual is the leftover displacement. Pixels whose scale ratio falls
    under ``MU_FLOOR`` enter with the clamped ratio. Invariant to
    rescaling or flipping ``normal``.
    """
    normal, _ = _checked_normal(normal, reduced.k)
    psi = _PsiEvaluator(reduced, reduced.mean_pixel).value(normal)
    if psi == math.inf:
        raise NearOrthogonalNormalError("normal is orthogonal to the anchor point")
    return psi


class _PsiEvaluator:
    """Precomputed-state evaluator shared by the optimizers.

    ``batch`` is the one place the objective is computed. It works through
    the valid particles in blocks of ``max(1, BLOCK_BYTES // (8 N))`` rows,
    fused and in place in a float64 scratch block. A batch of two or more
    blocks hands them out, one at a time under a lock, to the caller and to
    at most ``_MAX_HELPERS`` threads of ``_HELPER_POOL``, never more helpers
    than blocks after the first. Each worker owns one scratch block, so
    scratch is O(N) whatever the swarm size or the CPU count. A row's score
    depends only on the block it falls in, so it is bit for bit the same at
    any thread count. The scratch makes an evaluator not reentrant: give
    each calling thread its own. Invalid normals score +inf instead of
    raising.
    """

    def __init__(self, reduced: ReducedData, c_star: np.ndarray):
        self.pixels = reduced.pixels
        self.c_star = np.asarray(c_star, dtype=np.float64)
        self.sq_norms = np.einsum("ij,ij->j", self.pixels, self.pixels)
        self.denom_floor = denom_floor_for(self.pixels)
        n = self.pixels.shape[1]
        self._block = np.empty((max(1, BLOCK_BYTES // (8 * n)), n))  # the caller's
        self._helper_blocks: list[np.ndarray] = []

    def value(self, normal: np.ndarray) -> float:
        return float(self.batch(normal[None])[0])

    def batch(self, normals: np.ndarray) -> np.ndarray:
        """Objective for each row of ``normals``."""
        d = normals @ self.c_star                      # (P,)
        out = np.full(normals.shape[0], np.inf)
        valid = np.flatnonzero(np.abs(d) >= self.denom_floor)
        # the objective is even in n and negation is exact: turning every row
        # to d > 0 makes a zero n . p give 1/mu = d / +0 = +inf, clamped positive
        oriented = normals[valid] * np.copysign(1.0, d[valid])[:, None]
        d = np.abs(d[valid])
        rows = self._block.shape[0]
        starts = iter(range(0, valid.size, rows))      # one block at a time, to any worker
        handout = threading.Lock()                     # sharing an iterator is unsafe without a GIL

        def fill(block: np.ndarray) -> None:
            """Score the blocks that ``starts`` hands out, in ``block``."""
            with np.errstate(divide="ignore", over="ignore"):  # per thread, like all errstate
                while True:
                    with handout:
                        i = next(starts, None)
                    if i is None:
                        return
                    n = oriented[i:i + rows]
                    s = block[: n.shape[0]]
                    np.matmul(n, self.pixels, out=s)   # s = n . p
                    s += 0.0                           # -0.0 to +0.0, so zeros clamp to +1/MU_FLOOR
                    np.divide(d[i:i + rows, None], s, out=s)  # 1/mu, +-inf where s is (near) zero
                    np.clip(s, -1.0 / MU_FLOOR, 1.0 / MU_FLOOR, out=s)  # clamp |mu| >= MU_FLOOR, sign kept
                    np.subtract(1.0, s, out=s)
                    np.square(s, out=s)
                    out[valid[i:i + rows]] = s @ self.sq_norms

        later_blocks = len(range(rows, valid.size, rows))
        helpers = min(_HELPER_COUNT, _MAX_HELPERS, later_blocks)
        while len(self._helper_blocks) < helpers:
            self._helper_blocks.append(np.empty_like(self._block))
        tasks = [_HELPER_POOL.submit(fill, block) for block in self._helper_blocks[:helpers]]
        try:
            fill(self._block)
        finally:  # even if the caller fails, no helper outlives the batch
            for task in tasks:
                if not task.cancel():
                    task.result()
        return out

    def chart_system(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of the objective in the anchor's affine chart.

        On the chart c* . m = 1 the scale ratios are mu_j = p_j . m, so the
        objective is sum_j w_j (1 - 1/mu_j)^2, its gradient is
        2 sum w (1 - 1/mu) p / mu^2 and its Hessian 2 sum w (3 - 2 mu) p p^T / mu^4.
        Any ``m`` stands for its chart point m / (c* . m). Clamped pixels
        drop out: their residual is locally constant, so their 1/mu is
        taken as zero. O(N K^2).
        """
        grad, mu, inv, a = self._chart_gradient(m)
        hess = 2.0 * (self.pixels * (a * inv**2 * (3.0 - 2.0 * mu))) @ self.pixels.T
        return grad, hess

    def _chart_gradient(self, m: np.ndarray) -> tuple[np.ndarray, ...]:
        """Chart gradient at ``m``, with the mu, 1/mu and w/mu^2 it is built
        from (see ``chart_system``). O(N K)."""
        mu = (m @ self.pixels) / float(self.c_star @ m)
        inv = np.divide(1.0, mu, out=np.zeros_like(mu), where=np.abs(mu) >= MU_FLOOR)
        a = self.sq_norms * inv**2
        return 2.0 * (self.pixels @ (a * (1.0 - inv))), mu, inv, a

    def gradient(self, normal: np.ndarray) -> np.ndarray:
        """Euclidean gradient of the objective at ``normal``.

        The chart gradient g at m = n / d, d = c* . n, pulled back through
        the chart map: (g - (m . g) c*) / d.
        """
        d = float(self.c_star @ normal)
        if abs(d) < self.denom_floor:
            raise NearOrthogonalNormalError("cannot differentiate at an orthogonal normal")
        g = self._chart_gradient(normal)[0]
        return (g - float(normal @ g) / d * self.c_star) / d


def _draw_k_sets(rng: np.random.Generator, n: int, k: int, draws: int) -> np.ndarray:
    """``draws`` K-subsets of range(n), one row each, from one integer draw.

    Each row replays ``rng.choice(n, size=k, replace=False)``: Floyd's
    algorithm (draw c in [0, n-k+c], a repeat becomes n-k+c), then a
    Fisher-Yates shuffle (step i swaps with a draw in [0, i]). The rows and
    the generator's final state equal those of per-row ``choice``, except
    where numpy shuffles a tail instead (n > 10000 and k > n // 50); there
    each row is still a uniform K-subset.
    """
    highs = np.concatenate([np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)])
    raw = rng.integers(0, np.tile(highs, draws)).reshape(draws, 2 * k - 1)
    sets, swaps = raw[:, :k], raw[:, k:]
    for c in range(1, k):
        repeat = (sets[:, :c] == sets[:, c, None]).any(axis=1)
        sets[repeat, c] = n - k + c
    rows = np.arange(draws)
    for i in range(k - 1, 0, -1):
        j = swaps[:, k - 1 - i]
        sets[rows, i], sets[rows, j] = sets[rows, j], sets[rows, i]
    return sets


def _median_pair_distance(points: np.ndarray) -> float:
    """Median Euclidean distance over all pairs of columns of ``points``.

    Each squared distance sums its K terms in coordinate order, then takes
    the root, as ``scipy.spatial.distance.pdist`` does, so the result equals
    ``np.median(pdist(points.T))``. The upper triangle is filled
    ``_PAIR_ROWS`` rows at a time: no m x m temporary.
    """
    m = points.shape[1]
    dists = np.empty(m * (m - 1) // 2)
    filled = 0
    for start in range(0, m - 1, _PAIR_ROWS):
        stop = min(start + _PAIR_ROWS, m - 1)
        sq = np.zeros((stop - start, m - start - 1))  # row i, column j > start
        for row, col in zip(points[:, start:stop, None], points[:, None, start + 1:]):
            sq += (row - col) ** 2
        upper = sq[np.triu(np.ones(sq.shape, dtype=bool))]  # the pairs with j > i
        dists[filled:filled + upper.size] = np.sqrt(upper)
        filled += upper.size
    return float(np.median(dists, overwrite_input=True))


def candidate_normals(reduced: ReducedData, count: int, rng_seed: int) -> list[np.ndarray]:
    """Solve hyperplane normals from random well-separated pixel K-sets.

    Each candidate solves ``B.T @ n = 1`` where B stacks K sampled reduced
    pixels; a K-set whose pixels share one scale factor yields the true
    normal exactly, so enough samples land some candidates near it. K-sets
    that are too close together or too ill-conditioned are rejected: a
    set's smallest Euclidean distance between two of its pixels must reach
    ``CANDIDATE_MIN_SEPARATION`` times the median distance over all pairs
    of a random sub-sample of at most 512 pixels.

    The K-sets are tested in batches of at most as many sets as are still
    missing, so the result is that of testing each draw as it comes. Each
    batch is one integer draw equal to per-set ``rng.choice`` (see
    ``_draw_k_sets``; only above numpy's tail-shuffle threshold, K > 200,
    do the sets differ, and they are still uniform).
    """
    if count < 1:
        raise ValidationError("candidate count must be >= 1")
    k, n = reduced.k, reduced.n_pixels
    if n < k:
        raise DimensionError(f"need at least {k} pixels, have {n}")
    pixels = reduced.pixels
    rng = np.random.default_rng(rng_seed)
    floor = denom_floor_for(pixels)
    ones = np.ones(k)

    min_separation = 0.0
    if k >= 2:
        sub = pixels[:, rng.choice(n, size=min(n, _SEPARATION_SUBSAMPLE), replace=False)]
        min_separation = CANDIDATE_MIN_SEPARATION * _median_pair_distance(sub)
    off_diagonal = ~np.eye(k, dtype=bool)

    accepted: list[np.ndarray] = []
    budget = CANDIDATE_MAX_RETRIES * count
    while budget > 0 and len(accepted) < count:
        draws = min(budget, count - len(accepted), _CANDIDATE_BATCH)
        budget -= draws
        idx = _draw_k_sets(rng, n, k, draws)
        sets = pixels[:, idx].transpose(1, 0, 2)  # (draws, K, K), one pixel per column
        if k >= 2:
            gaps = np.linalg.norm(sets[..., None] - sets[..., None, :], axis=1)
            sets = sets[gaps[:, off_diagonal].min(axis=1) >= min_separation]
        # numpy's cond reads a 0/0 ratio as inf, not nan, so the test rejects it
        for b in sets[np.linalg.cond(sets) <= CANDIDATE_MAX_COND]:
            try:
                model = HyperplaneModel.build(reduced.mean_pixel, np.linalg.solve(b.T, ones), floor)
            except (np.linalg.LinAlgError, ValidationError, NearOrthogonalNormalError):
                continue
            accepted.append(model.normal)

    if not accepted:
        raise DegenerateDataError(
            "no linearly independent, well-separated pixel set found; "
            "the cube may be rank-deficient"
        )
    return accepted


def pso_minimize(
    reduced: ReducedData,
    initial_normals: list[np.ndarray],
    config: PsoConfig,
    seed: int,
) -> np.ndarray:
    """Global search for the residual-minimizing unit normal.

    Supplied normals become the first particles (the swarm grows to hold
    them all), so the result is never worse than the best of them. Each
    particle owns an RNG stream spawned from ``seed`` by its index, so a
    swarm grown to hold more starts leaves the first particles' draws
    unchanged. Position updates renormalize onto the unit sphere, matching
    the objective's scale invariance.
    """
    if not initial_normals:
        raise ValidationError("at least one initial normal is required")
    k = reduced.k
    evaluator = _PsiEvaluator(reduced, reduced.mean_pixel)

    n_particles = max(config.swarm_size, len(initial_normals))
    v_max = _PSO_VELOCITY_CLAMP * 2.0
    positions = np.empty((n_particles, k))
    velocities = np.empty((n_particles, k))
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_particles)]
    for i in range(n_particles):
        if i < len(initial_normals):
            vec, norm = _checked_normal(initial_normals[i], k)
            # keep already-unit vectors bit-identical so their objective
            # matches any evaluation done before the search
            positions[i] = vec if abs(norm - 1.0) <= 1e-12 else vec / norm
        else:
            vec = streams[i].standard_normal(k)
            positions[i] = vec / np.linalg.norm(vec)
        velocities[i] = streams[i].uniform(-0.5 * v_max, 0.5 * v_max, k)
    # one (iterations, 2, k) block per particle keeps streams schedule-independent
    draws = np.stack([s.random((config.iterations, 2, k)) for s in streams])

    values = evaluator.batch(positions)
    if not np.isfinite(values).any():
        raise OptimizationError("all initial particles have degenerate normals")
    pbest = positions.copy()
    pbest_val = values.copy()
    g_idx = int(np.argmin(pbest_val))  # argmin takes the lowest index on ties
    gbest = pbest[g_idx].copy()
    gbest_val = float(pbest_val[g_idx])

    for it in range(config.iterations):
        r1 = draws[:, it, 0, :]
        r2 = draws[:, it, 1, :]
        velocities = (
            _PSO_INERTIA * velocities
            + _PSO_COGNITIVE * r1 * (pbest - positions)
            + _PSO_SOCIAL * r2 * (gbest[None, :] - positions)
        )
        speed = np.linalg.norm(velocities, axis=1)
        over = speed > v_max
        if over.any():
            velocities[over] *= (v_max / speed[over])[:, None]
        positions = positions + velocities
        positions /= np.linalg.norm(positions, axis=1)[:, None]

        values = evaluator.batch(positions)
        improved = values < pbest_val
        pbest[improved] = positions[improved]
        pbest_val[improved] = values[improved]
        g_idx = int(np.argmin(pbest_val))
        if pbest_val[g_idx] < gbest_val:
            gbest = pbest[g_idx].copy()
            gbest_val = float(pbest_val[g_idx])

    return gbest


def gd_refine(
    start_normal: np.ndarray,
    reduced: ReducedData,
    config: GdConfig,
) -> np.ndarray:
    """Polish a normal by projected gradient descent on the unit sphere.

    The Euclidean gradient is projected onto the tangent space at the
    current normal; steps use Armijo backtracking and renormalize back
    onto the sphere. The result never scores worse than the start.
    """
    evaluator = _PsiEvaluator(reduced, reduced.mean_pixel)
    n, norm = _checked_normal(start_normal, reduced.k)
    n = n / norm
    psi = evaluator.value(n)
    if not math.isfinite(psi):
        raise OptimizationError("objective is not finite at the start normal")
    grad_tol = _GD_GRAD_TOL * psi

    for _ in range(config.max_iters):
        grad = evaluator.gradient(n)
        tangent = grad - float(grad @ n) * n
        g_norm = float(np.linalg.norm(tangent))
        if g_norm <= grad_tol:
            break
        step = _GD_INITIAL_STEP
        accepted = False
        while step >= _GD_STEP_TOL:
            cand = n - step * tangent
            cand /= np.linalg.norm(cand)
            psi_cand = evaluator.value(cand)
            if psi_cand <= psi - _ARMIJO_C * step * g_norm**2:
                n, psi = cand, psi_cand
                accepted = True
                break
            step *= _GD_BACKTRACK
        if not accepted:
            break
    return n


def _tangent_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of a unit normal, as K x (K-1) columns.

    The columns are those of the Householder reflection that maps e1 onto
    the normal's line, less the first.
    """
    v = normal.copy()
    v[0] += math.copysign(1.0, normal[0])
    reflection = np.eye(normal.size) - (2.0 / float(v @ v)) * np.outer(v, v)
    return reflection[:, 1:]


def newton_refine(start_normal: np.ndarray, reduced: ReducedData) -> np.ndarray:
    """Polish a normal by damped Newton steps in the anchor's affine chart.

    The objective depends only on the hyperplane, not on the normal's
    length, so it is minimized over the chart c* . m = 1, whose points are
    m + U delta, U an orthonormal basis of the complement of c*. Each step
    solves (U^T H U + lambda scale I) delta = -U^T g, g and H the chart
    derivatives and scale the largest diagonal of U^T H U. A step is kept
    only if the objective at the normalized point drops, and then lambda
    shrinks; a failed Cholesky factorization or a rejected step grows it
    (Marquardt 1963). The result never scores worse than the start, which
    comes back as given for K = 1 or off the objective's domain. Only a
    misshaped, zero or non-finite start raises.
    """
    if reduced.k == 1:
        return start_normal
    n, norm = _checked_normal(start_normal, reduced.k)
    n = n / norm
    evaluator = _PsiEvaluator(reduced, reduced.mean_pixel)
    psi = evaluator.value(n)
    if not math.isfinite(psi):
        return start_normal
    m = n / float(evaluator.c_star @ n)
    basis = _tangent_basis(evaluator.c_star / np.linalg.norm(evaluator.c_star))
    damping = _NEWTON_DAMPING_INITIAL
    for _ in range(_NEWTON_MAX_STEPS):
        grad, hess = evaluator.chart_system(m)
        g = basis.T @ grad
        h = basis.T @ hess @ basis
        scale = float(np.max(np.abs(np.diag(h)))) or 1.0
        while damping <= _NEWTON_DAMPING_MAX:
            try:
                lower = np.linalg.cholesky(h + damping * scale * np.eye(h.shape[0]))
                delta = -np.linalg.solve(lower.T, np.linalg.solve(lower, g))
            except np.linalg.LinAlgError:
                damping *= _NEWTON_DAMPING_FACTOR
                continue
            cand = m + basis @ delta
            cand_n = cand / np.linalg.norm(cand)
            psi_cand = evaluator.value(cand_n)  # +inf for an orthogonal candidate
            if psi_cand < psi:
                break
            damping *= _NEWTON_DAMPING_FACTOR
        else:
            break  # no damping lowers the objective
        drop = psi - psi_cand
        m, n, psi = cand, cand_n, psi_cand
        damping /= _NEWTON_DAMPING_FACTOR
        if drop <= _NEWTON_REL_TOL * psi:
            break
    return n


def estimate_scaling(reduced: ReducedData, model: HyperplaneModel) -> ScalingField:
    """Per-pixel scale factors from the ray/hyperplane intersection.

    Before clamping, the factors average to one by construction: the
    anchor is the mean pixel, so the mean ray projection is the anchor
    itself.
    """
    mu_raw = (model.normal @ reduced.pixels) / model.denom
    return ScalingField.from_raw(mu_raw)


def correct_pixels(cube: HsiCube, mu_hat: ScalingField) -> HsiCube:
    """Divide each original-space pixel by its estimated scale factor."""
    if len(mu_hat) != cube.n_pixels:
        raise DimensionError(
            f"scaling field has {len(mu_hat)} entries for {cube.n_pixels} pixels"
        )
    factors = mu_hat.values.reshape(cube.height, cube.width)
    return HsiCube(np.divide(cube.data, factors[None, :, :], out=page_array(cube.data.shape)))


def apply_scaling(cube: HsiCube, mu: ScalingField) -> HsiCube:
    """Multiply each pixel by its scale factor (inverse of correct_pixels)."""
    if len(mu) != cube.n_pixels:
        raise DimensionError(f"scaling field has {len(mu)} entries for {cube.n_pixels} pixels")
    factors = mu.values.reshape(cube.height, cube.width)
    return HsiCube(np.multiply(cube.data, factors[None, :, :], out=page_array(cube.data.shape)))


def search_normal(
    reduced: ReducedData,
    starts: list[np.ndarray],
    pso_config: PsoConfig | None,
    gd_config: GdConfig | None,
    swarm_seed: int,
) -> tuple[tuple[np.ndarray, float], ...]:
    """The normal search: best start, then swarm, then polish.

    Returns the ``(normal, psi)`` after each of the three stages. The swarm
    draws its random particles from ``swarm_seed``; it is skipped and
    repeats the previous point when ``pso_config`` is None.
    The polish is projected gradient descent when given a ``GdConfig`` and
    the Newton polish (``newton_refine``) when given None. A stage that
    fails to improve falls back to the previous point, so psi never
    increases. Every psi goes through the same evaluation path.
    """
    evaluator = _PsiEvaluator(reduced, reduced.mean_pixel)
    values = [evaluator.value(n) for n in starts]
    best = int(np.argmin(values))
    stages = [(starts[best], values[best])]

    def no_worse(normal: np.ndarray) -> tuple[np.ndarray, float]:
        psi = evaluator.value(normal)
        return stages[-1] if psi > stages[-1][1] else (normal, psi)

    stages.append(stages[-1] if pso_config is None else no_worse(
        pso_minimize(reduced, starts, pso_config, swarm_seed)
    ))
    start = stages[-1][0]
    stages.append(no_worse(
        newton_refine(start, reduced)
        if gd_config is None
        else gd_refine(start, reduced, gd_config)
    ))
    return tuple(stages)


def run_correction(
    cube: HsiCube,
    k: int,
    pso_config: PsoConfig | None = None,
    gd_config: GdConfig | None = None,
    candidate_count: int = CANDIDATE_COUNT,
    rng_seed: int = 0,
) -> tuple[HsiCube, CorrectionReport]:
    """End-to-end scale correction of a cube with K endmembers.

    ``rng_seed`` is the one seed: the candidate draws and the swarm's
    particles each take a child stream of it, so equal arguments give
    bit-identical results. With ``k == 1`` the hyperplane collapses
    to a point and the correction degenerates to dividing each pixel by
    its magnitude ratio against the mean; the search then has the one
    normal, which neither the swarm nor the polish moves, and the report
    flags this mode. Without configs the search is a default ``PsoConfig``
    swarm followed by the Newton polish.
    """
    reduced = svd_reduce(cube, k)
    candidate_seed, swarm_seed = derive_seeds(rng_seed)
    if k == 1:
        starts, pso_config, gd_config = [np.ones(1)], None, None
    else:
        starts = candidate_normals(reduced, candidate_count, candidate_seed)
        pso_config = pso_config or PsoConfig()

    (_, psi_initial), (_, psi_after_pso), (normal, psi_final) = search_normal(
        reduced, starts, pso_config, gd_config, swarm_seed
    )
    model = HyperplaneModel.build(reduced.mean_pixel, normal, denom_floor_for(reduced.pixels))
    mu_hat = estimate_scaling(reduced, model)
    corrected = correct_pixels(cube, mu_hat)
    report = CorrectionReport(
        mu_hat=mu_hat,
        model=model,
        psi_initial=psi_initial,
        psi_after_pso=psi_after_pso,
        psi_final=psi_final,
        candidate_count=0 if k == 1 else len(starts),
        seed=rng_seed,
    )
    return corrected, report
