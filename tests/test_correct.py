import math
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from hsiscale import (
    DegenerateDataError,
    GdConfig,
    HsiCube,
    HyperplaneModel,
    NearOrthogonalNormalError,
    PsoConfig,
    ReducedData,
    ScalingField,
    SynthConfig,
    ValidationError,
    gen_scene,
    objective_psi,
    run_correction,
    svd_reduce,
)
import hsiscale.correct as correct_module
from hsiscale.correct import (
    MU_FLOOR,
    CorrectionReport,
    _median_pair_distance,
    _PsiEvaluator,
    apply_scaling,
    candidate_normals,
    correct_pixels,
    denom_floor_for,
    estimate_scaling,
    gd_refine,
    newton_refine,
    pso_minimize,
    search_normal,
)
from conftest import grid_search_psi, make_line_data

SQ2 = math.sqrt(2.0)


def simple_reduced(pixels):
    pixels = np.asarray(pixels, dtype=np.float64)
    k = pixels.shape[0]
    svals = np.arange(k, 0, -1, dtype=np.float64)
    return ReducedData(basis=np.eye(k), pixels=pixels, singular_values=svals)


# ------------------------------------------------------------- mean_pixel

def test_mean_pixel_worked_example(worked_reduced):
    assert np.allclose(worked_reduced.mean_pixel, [4.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def test_mean_pixel_identical_pixels():
    p = np.array([2.0, -1.0, 0.5])
    reduced = simple_reduced(np.tile(p[:, None], (1, 9)))
    assert np.allclose(reduced.mean_pixel, p, atol=1e-15)


def test_mean_pixel_symmetric_cloud_is_zero():
    pts = np.array([[1.0, -1.0, 2.0, -2.0], [0.5, -0.5, -1.0, 1.0]])
    reduced = simple_reduced(pts)
    c = reduced.mean_pixel
    assert np.allclose(c, 0.0, atol=1e-15)
    with pytest.raises(NearOrthogonalNormalError):
        HyperplaneModel.build(c, np.array([1.0, 0.0]), denom_floor_for(pts))


def test_mean_pixel_is_a_read_only_cached_fsum_mean(worked_reduced):
    # on this cloud numpy's pairwise mean differs from the compensated one
    line_reduced, _, _ = make_line_data(n_pixels=333, mu_std=0.3, seed=1)
    assert not np.array_equal(line_reduced.mean_pixel, line_reduced.pixels.mean(axis=1))
    for reduced in (worked_reduced, line_reduced):
        mean = reduced.mean_pixel
        assert reduced.mean_pixel is mean
        assert not mean.flags.writeable
        with pytest.raises(ValueError):
            mean[0] = 0.0
        # bit for bit: each coordinate summed compensated, then divided
        assert np.array_equal(mean, [math.fsum(row) / reduced.n_pixels for row in reduced.pixels])


# -------------------------------------------------------------- candidates

def test_candidate_two_pixel_solve():
    reduced = simple_reduced(np.array([[2.0, 0.0], [0.0, 2.0]]))
    cands = candidate_normals(reduced, 5, rng_seed=1)
    for n in cands:
        assert np.allclose(n, [1.0 / SQ2, 1.0 / SQ2], atol=1e-12)


DEGENERATE_MESSAGE = (
    "no linearly independent, well-separated pixel set found; the cube may be rank-deficient"
)


def test_candidate_identical_pixels_degenerate():
    reduced = simple_reduced(np.tile(np.array([[1.0], [1.0]]), (1, 6)))
    with pytest.raises(DegenerateDataError, match=DEGENERATE_MESSAGE):
        candidate_normals(reduced, 4, rng_seed=0)


def test_candidates_equal_true_normal_without_scaling():
    reduced, true_normal, _ = make_line_data(n_pixels=128, mu_std=0.0, seed=2)
    cands = candidate_normals(reduced, 32, rng_seed=3)
    for n in cands:
        assert min(np.linalg.norm(n - true_normal), np.linalg.norm(n + true_normal)) < 1e-8


def test_candidate_count_respected():
    reduced, _, _ = make_line_data(n_pixels=200, mu_std=0.2, seed=4)
    cands = candidate_normals(reduced, 17, rng_seed=5)
    assert 1 <= len(cands) <= 17


def candidate_reference(reduced, count, rng_seed):
    """The one-at-a-time filter: each K-set is tested as soon as it is drawn."""
    k, n = reduced.k, reduced.n_pixels
    pixels = reduced.pixels
    rng = np.random.default_rng(rng_seed)
    c_star = reduced.mean_pixel
    floor = denom_floor_for(pixels)

    def pairwise(points):
        diff = points[:, :, None] - points[:, None, :]
        return np.sqrt(np.einsum("kij,kij->ij", diff, diff))[np.triu_indices(points.shape[1], 1)]

    min_separation = 0.0
    if k >= 2:
        sub = pixels[:, rng.choice(n, size=min(n, correct_module._SEPARATION_SUBSAMPLE), replace=False)]
        min_separation = correct_module.CANDIDATE_MIN_SEPARATION * float(np.median(pairwise(sub)))
    accepted = []
    for _ in range(correct_module.CANDIDATE_MAX_RETRIES * count):
        if len(accepted) >= count:
            break
        b = pixels[:, rng.choice(n, size=k, replace=False)]
        if k >= 2 and float(pairwise(b).min()) < min_separation:
            continue
        if np.linalg.cond(b) > correct_module.CANDIDATE_MAX_COND:
            continue
        try:
            model = HyperplaneModel.build(c_star, np.linalg.solve(b.T, np.ones(k)), floor)
        except (np.linalg.LinAlgError, ValidationError, NearOrthogonalNormalError):
            continue
        accepted.append(model.normal)
    if not accepted:
        raise DegenerateDataError(DEGENERATE_MESSAGE)
    return accepted


def assert_same_candidates(reduced, count, rng_seed):
    """``candidate_normals`` returns the reference list bit for bit, or both
    raise the same error; returns the list."""
    try:
        want = candidate_reference(reduced, count, rng_seed)
    except DegenerateDataError:
        with pytest.raises(DegenerateDataError, match=DEGENERATE_MESSAGE):
            candidate_normals(reduced, count, rng_seed)
        return []
    got = candidate_normals(reduced, count, rng_seed)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    return got


@pytest.fixture(scope="module")
def filter_scenes():
    """Reduced pixels of the benchmark's two correction scenes and of a K=2
    and a K=8 scene."""
    configs = {
        "bench": SynthConfig(height=128, width=128, bands=100, endmembers=5, scale_std=0.3, seed=7),
        "noisy": SynthConfig(
            height=96, width=96, bands=100, endmembers=6, scale_std=0.2, snr_db=25.0, seed=7
        ),
        "k2": SynthConfig(height=32, width=32, bands=30, endmembers=2, scale_std=0.3, seed=3),
        "k8": SynthConfig(height=48, width=48, bands=30, endmembers=8, scale_std=0.3, seed=0),
    }
    return {name: svd_reduce(gen_scene(cfg).scaled_cube, cfg.endmembers) for name, cfg in configs.items()}


@pytest.mark.parametrize("scene", ["bench", "noisy"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_candidate_filter_matches_reference_on_benchmark_scenes(filter_scenes, scene, seed):
    # 200 requested: both scenes run out of the 4000-draw budget first
    got = assert_same_candidates(filter_scenes[scene], 200, seed)
    assert 1 <= len(got) < 200


@pytest.mark.parametrize("count", [1, 8, 64, 200, 300])
def test_candidate_filter_matches_reference_for_each_count(filter_scenes, count):
    # 300 is more than one batch holds, so the first batch is capped
    assert_same_candidates(filter_scenes["bench"], count, rng_seed=11)


def test_candidate_filter_matches_reference_in_small_batches(monkeypatch, filter_scenes):
    monkeypatch.setattr(correct_module, "_CANDIDATE_BATCH", 3)
    assert_same_candidates(filter_scenes["bench"], 64, rng_seed=11)
    assert_same_candidates(filter_scenes["noisy"], 64, rng_seed=11)


@pytest.mark.parametrize("scene", ["bench", "noisy"])
def test_candidate_filter_memory_is_bounded(filter_scenes, scene):
    # no all-pairs temporary of the 512-pixel separation sub-sample
    candidate_normals(filter_scenes[scene], 200, 1)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        candidate_normals(filter_scenes[scene], 200, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("scene", ["bench", "noisy"])
def test_median_pair_distance_equals_pdist_on_benchmark_scenes(filter_scenes, scene):
    pixels = filter_scenes[scene].pixels
    rng = np.random.default_rng(23)
    for _ in range(5):
        sub = pixels[:, rng.choice(pixels.shape[1], size=correct_module._SEPARATION_SUBSAMPLE, replace=False)]
        assert _median_pair_distance(sub) == np.median(pdist(sub.T))


@pytest.mark.parametrize("m", [2, 3, 7, 512])
@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_median_pair_distance_equals_pdist_at_any_size(m, k):
    # 1, 3 and 21 pairs have a middle element, 130816 pairs a middle two;
    # 512 points span several row blocks, the last one short
    points = np.random.default_rng(m * 10 + k).normal(0.0, 3.0, (k, m))
    assert _median_pair_distance(points) == np.median(pdist(points.T))


@pytest.mark.parametrize("scene", ["k2", "k8"])
@pytest.mark.parametrize("count", [8, 200])
def test_candidate_filter_matches_reference_for_k2_and_k8(filter_scenes, scene, count):
    for seed in (0, 1):
        assert_same_candidates(filter_scenes[scene], count, rng_seed=seed)


def test_candidate_filter_matches_reference_on_repeated_pixels():
    # three quarters of the pixels are zero, so the median separation is 0,
    # all-zero K-sets pass it, and their cond is 0/0, which numpy reports as
    # inf without a warning; pyproject.toml turns any RuntimeWarning into an error
    data = np.zeros((3, 100))
    data[:, 75:] = np.random.default_rng(31).uniform(0.1, 1.0, (3, 25))
    reduced = svd_reduce(HsiCube(data.reshape(3, 10, 10)), 2)
    assert np.count_nonzero(np.all(reduced.pixels == 0.0, axis=0)) == 75
    assert np.isinf(np.linalg.cond(np.zeros((2, 2, 2)))).all()
    for seed in range(3):
        assert len(assert_same_candidates(reduced, 8, rng_seed=seed)) >= 1


@pytest.mark.parametrize("n, k", [(16384, 5), (9216, 6), (144, 3), (10, 8), (8, 8), (16384, 1), (50000, 200)])
@pytest.mark.parametrize("draws", [1, 7, 256])
def test_k_set_draw_replays_rng_choice(n, k, draws):
    for seed in range(3):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed == 2:
            # start with half of a 32-bit buffer used
            want_rng.integers(0, 5), got_rng.integers(0, 5)
        want = np.array([want_rng.choice(n, size=k, replace=False) for _ in range(draws)])
        assert np.array_equal(correct_module._draw_k_sets(got_rng, n, k, draws), want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_k_set_draw_above_the_tail_shuffle_threshold_gives_k_subsets():
    # here (n > 10000, k > n // 50) numpy's choice shuffles a tail instead;
    # the helper keeps Floyd's draw, whose rows are still K-subsets
    sets = correct_module._draw_k_sets(np.random.default_rng(0), 12000, 300, 7)
    assert sets.shape == (7, 300)
    assert all(np.unique(row).size == 300 for row in sets)
    assert sets.min() >= 0 and sets.max() < 12000


# -------------------------------------------------------------- objective

def test_psi_zero_on_hyperplane():
    rng = np.random.default_rng(0)
    normal = np.array([1.0, 2.0]) / math.sqrt(5.0)
    # points with fixed projection onto the normal all lie on one hyperplane
    tangent = np.array([-2.0, 1.0]) / math.sqrt(5.0)
    pts = 2.0 * normal[:, None] + tangent[:, None] * rng.uniform(-1.0, 1.0, 30)
    reduced = simple_reduced(pts)
    psi = objective_psi(normal, reduced)
    assert psi <= 1e-18 * np.sum(pts**2)


def test_psi_worked_example(worked_reduced):
    normal = np.array([1.0, 1.0]) / SQ2
    assert objective_psi(normal, worked_reduced) == pytest.approx(2.0, abs=1e-12)


def test_psi_scale_and_sign_invariance():
    reduced, _, _ = make_line_data(n_pixels=64, mu_std=0.25, seed=6)
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = rng.standard_normal(2)
        base = objective_psi(n, reduced)
        for alpha in (-2.0, 0.5, 10.0):
            assert objective_psi(alpha * n, reduced) == pytest.approx(base, rel=1e-12)


def test_psi_value_is_the_batch_kernel():
    reduced, _, _ = make_line_data(n_pixels=64, mu_std=0.3, seed=19)
    c_star = reduced.mean_pixel
    evaluator = _PsiEvaluator(reduced, c_star)
    rng = np.random.default_rng(20)
    # the last normal is orthogonal to the anchor, so every path scores it inf
    normals = [rng.standard_normal(2) for _ in range(5)] + [np.array([-c_star[1], c_star[0]])]
    for n in normals:
        value = evaluator.value(n)
        assert value == evaluator.batch(n[None])[0]
        if math.isfinite(value):
            assert objective_psi(n, reduced) == value
    with pytest.raises(NearOrthogonalNormalError):
        objective_psi(normals[-1], reduced)


def test_psi_orthogonal_normal_raises():
    reduced = simple_reduced(np.array([[1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(NearOrthogonalNormalError):
        objective_psi(np.array([0.0, 1.0]), reduced)


def psi_reference(evaluator, normals):
    """The unfused kernel: whole P x N arrays and copies of the valid rows."""
    d = normals @ evaluator.c_star
    s = normals @ evaluator.pixels
    valid = np.abs(d) >= evaluator.denom_floor
    out = np.full(normals.shape[0], np.inf)
    if valid.any():
        mu = s[valid] / d[valid, None]
        mask = np.abs(mu) < MU_FLOOR
        if mask.any():
            mu = mu.copy()
            signs = np.sign(mu[mask])
            signs[signs == 0] = 1.0
            mu[mask] = signs * MU_FLOOR
        out[valid] = (1.0 - 1.0 / mu) ** 2 @ evaluator.sq_norms
    return out


def kernel_case(n_random):
    """Evaluator and normals covering invalid rows, clamps of every sign and
    the unclamped boundary."""
    rng = np.random.default_rng(21)
    pixels = rng.standard_normal((3, 500)) + np.array([[4.0], [0.5], [0.0]])
    # row 0 on a 2^-20 grid, so the sums below are exact
    pixels[0] = np.round(pixels[0] * 2.0**20) / 2.0**20
    # under the normal e1 these pixels give s = 0, a tiny negative, a tiny
    # positive and a subnormal negative s, whose reciprocal overflows
    pixels[:, :4] = [[0.0, -1e-4, 1e-4, -1e-310], [1.0, 1.0, 0.0, 1.0], [2.0, 0.0, 1.0, 1.0]]
    # and these two, over the anchor's first coordinate 4, give ratios of
    # exactly -MU_FLOOR and +MU_FLOOR, which stay unclamped
    pixels[0, 4:6] = [-4.0 * MU_FLOOR, 4.0 * MU_FLOOR]
    # pixel 6 takes what makes row 0 sum to 2000; fsum rounds the -1e-310 away
    pixels[0, 6] += 2000.0 - math.fsum(pixels[0])
    reduced = simple_reduced(pixels)
    c_star = reduced.mean_pixel
    assert c_star[0] == 4.0
    orthogonal = np.cross(c_star, [0.0, 0.0, 1.0])
    # under (-1, 0, 0) the first pixel has s = +0 over a negative d: mu = -0.0
    special = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], orthogonal, -orthogonal])
    normals = np.vstack([special, rng.standard_normal((n_random, 3))])
    return _PsiEvaluator(reduced, c_star), normals


@pytest.mark.parametrize("block_rows", [None, 1, 7])
@pytest.mark.parametrize("n_random", [0, 1, 296])
def test_psi_batch_matches_unfused_reference(monkeypatch, block_rows, n_random):
    if block_rows is not None:
        # the scratch block is sized when the evaluator is built
        monkeypatch.setattr(correct_module, "BLOCK_BYTES", block_rows * 8 * 500)
    evaluator, normals = kernel_case(n_random)
    if block_rows is not None:
        assert evaluator._block.shape[0] == block_rows
    for rows in (normals[:1], normals[2:3], normals):
        got = evaluator.batch(rows)
        want = psi_reference(evaluator, rows)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    values = evaluator.batch(normals)
    assert np.isinf(values[2:4]).all() and np.isfinite(values[:2]).all()
    mu = (normals[0] @ evaluator.pixels) / float(normals[0] @ evaluator.c_star)
    assert np.count_nonzero(np.abs(mu) < MU_FLOOR) == 4
    assert np.array_equal(mu[4:6], [-MU_FLOOR, MU_FLOOR])


def test_psi_batch_is_bitwise_sign_invariant():
    # negating n negates both n . p and c* . n exactly, so their ratio mu,
    # and with it the score, is bit for bit the same
    evaluator, normals = kernel_case(500)
    np.testing.assert_array_equal(evaluator.batch(normals), evaluator.batch(-normals))
    for n in normals[:20]:
        assert evaluator.value(n) == evaluator.value(-n)


def test_psi_batch_clamps_zero_ratio_to_positive_floor(worked_reduced):
    # under e1 the worked example's ratios are (9/4, 0, 3/4); the zero must
    # enter as +MU_FLOOR, from either sign of the normal
    evaluator = _PsiEvaluator(worked_reduced, worked_reduced.mean_pixel)
    expected = (1.0 - 4.0 / 9.0) ** 2 * 9.0 + (1.0 - 1.0 / MU_FLOOR) ** 2 + (1.0 - 4.0 / 3.0) ** 2 * 2.0
    values = evaluator.batch(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(values, expected, rtol=1e-12)


def test_psi_batch_scratch_is_bounded():
    rng = np.random.default_rng(22)
    n = 262144
    reduced = ReducedData(
        basis=np.eye(5), pixels=rng.uniform(0.5, 1.5, (5, n)), singular_values=np.arange(5.0, 0.0, -1.0)
    )
    evaluator = _PsiEvaluator(reduced, reduced.mean_pixel)
    normals = rng.standard_normal((200, 5))
    tracemalloc.start()
    try:
        values = evaluator.batch(normals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(values).any()
    assert peak < 0.1 * normals.shape[0] * n * 8


def use_helpers(monkeypatch, pool, count):
    """Make ``batch`` share its blocks with ``count`` tasks on ``pool``."""
    monkeypatch.setattr(correct_module, "_HELPER_POOL", pool)
    monkeypatch.setattr(correct_module, "_HELPER_COUNT", count)


@pytest.mark.parametrize("block_rows", [None, 1, 7])
def test_psi_batch_is_bitwise_the_same_at_any_helper_count(monkeypatch, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(correct_module, "BLOCK_BYTES", block_rows * 8 * 500)
    evaluator, normals = kernel_case(296)
    assert normals.shape[0] > evaluator._block.shape[0]  # two blocks at least
    use_helpers(monkeypatch, None, 0)
    want = evaluator.batch(normals)
    # more workers than CPUs, switching threads often: a block lost or
    # scored twice between the workers would leave or change a row
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in (1, 3):
            with ThreadPoolExecutor(count) as pool:
                use_helpers(monkeypatch, pool, count)
                np.testing.assert_array_equal(evaluator.batch(normals), want)
    finally:
        sys.setswitchinterval(interval)


class _LateTask(Future):
    """A task marked as started, so it cannot be cancelled, that runs only
    when its result is asked for."""

    def __init__(self, fn, args):
        super().__init__()
        self.set_running_or_notify_cancel()
        self._call = (fn, args)

    def result(self, timeout=None):
        fn, args = self._call
        self.set_result(fn(*args))
        return super().result(timeout)


class _LatePool:
    """Its tasks start after the caller has scored every block."""

    def submit(self, fn, *args):
        return _LateTask(fn, args)


def test_psi_batch_is_whole_when_helpers_start_late_or_never(monkeypatch):
    monkeypatch.setattr(correct_module, "BLOCK_BYTES", 7 * 8 * 500)
    evaluator, normals = kernel_case(296)
    use_helpers(monkeypatch, None, 0)
    want = evaluator.batch(normals)
    use_helpers(monkeypatch, _LatePool(), 2)
    np.testing.assert_array_equal(evaluator.batch(normals), want)
    # a pool whose one thread is busy: the helper task never starts, so the
    # caller has to cancel it rather than wait until the thread is free
    with ThreadPoolExecutor(1) as pool:
        gate = threading.Event()
        busy = pool.submit(gate.wait, 10.0)
        use_helpers(monkeypatch, pool, 1)
        got = evaluator.batch(normals)
        assert not busy.done()
        gate.set()
    np.testing.assert_array_equal(got, want)


class _ThreadNowPool:
    """Runs each task to its end on a new thread as it is submitted, so the
    first helper scores every block."""

    def __init__(self):
        self.threads = []

    def submit(self, fn, *args):
        future = Future()
        future.set_running_or_notify_cancel()

        def run():
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        self.threads.append(thread.ident)
        return future


def test_psi_batch_helper_raises_no_floating_point_warning(monkeypatch):
    # the first block holds e1 and -e1, whose ratios overflow or divide by
    # zero; a helper thread that lacked its own errstate would warn there, and
    # pyproject.toml turns any RuntimeWarning into an error
    monkeypatch.setattr(correct_module, "BLOCK_BYTES", 7 * 8 * 500)
    evaluator, normals = kernel_case(296)
    use_helpers(monkeypatch, None, 0)
    want = evaluator.batch(normals)
    pool = _ThreadNowPool()
    use_helpers(monkeypatch, pool, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        np.testing.assert_array_equal(evaluator.batch(normals), want)
    assert len(pool.threads) == 1 and pool.threads[0] != threading.get_ident()


class _CountingPool(ThreadPoolExecutor):
    """A thread pool that keeps every task submitted to it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.tasks = []

    def submit(self, fn, *args):
        task = super().submit(fn, *args)
        self.tasks.append(task)
        return task


def block_count(evaluator, normals):
    valid = np.count_nonzero(np.abs(normals @ evaluator.c_star) >= evaluator.denom_floor)
    return -(-valid // evaluator._block.shape[0])


def test_psi_batch_scratch_is_bounded_with_many_helpers(monkeypatch):
    # the bound of test_psi_batch_scratch_is_bounded, on a host with 64 CPUs
    rng = np.random.default_rng(22)
    n = 262144
    reduced = ReducedData(
        basis=np.eye(5), pixels=rng.uniform(0.5, 1.5, (5, n)), singular_values=np.arange(5.0, 0.0, -1.0)
    )
    evaluator = _PsiEvaluator(reduced, reduced.mean_pixel)
    normals = rng.standard_normal((200, 5))
    with _CountingPool(63) as pool:
        use_helpers(monkeypatch, pool, 63)
        tracemalloc.start()
        try:
            values = evaluator.batch(normals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert np.isfinite(values).any()
    assert peak < 0.1 * normals.shape[0] * n * 8
    assert len(pool.tasks) == len(evaluator._helper_blocks) == correct_module._MAX_HELPERS


def test_psi_batch_takes_no_more_helpers_than_blocks_after_the_first(monkeypatch):
    monkeypatch.setattr(correct_module, "BLOCK_BYTES", 7 * 8 * 500)
    evaluator, normals = kernel_case(6)
    assert block_count(evaluator, normals) == 2
    with _CountingPool(63) as pool:
        use_helpers(monkeypatch, pool, 63)
        evaluator.batch(normals)
        evaluator.batch(normals[:1])  # one block: no helper at all
    assert len(pool.tasks) == len(evaluator._helper_blocks) == 1


def test_psi_batch_hands_each_block_to_one_worker(monkeypatch):
    monkeypatch.setattr(correct_module, "BLOCK_BYTES", 7 * 8 * 500)
    evaluator, normals = kernel_case(296)
    use_helpers(monkeypatch, None, 0)
    want = evaluator.batch(normals)
    # the caller and the helpers each wait, holding their first block, until
    # the other side has taken one, so the blocks are surely shared
    caller = threading.get_ident()
    started = {True: threading.Event(), False: threading.Event()}
    scorers = []
    matmul = np.matmul

    def matmul_by_thread(*args, **kwargs):
        scorers.append(threading.get_ident())
        is_caller = threading.get_ident() == caller
        started[is_caller].set()
        assert started[not is_caller].wait(30.0)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", matmul_by_thread)
    with ThreadPoolExecutor(3) as pool:
        use_helpers(monkeypatch, pool, 3)
        got = evaluator.batch(normals)
    np.testing.assert_array_equal(got, want)
    assert len(scorers) == block_count(evaluator, normals)  # none scored twice
    assert caller in scorers and len(set(scorers)) > 1


class _CallerFailed(Exception):
    pass


def test_psi_batch_waits_for_its_helpers_when_the_caller_fails(monkeypatch):
    monkeypatch.setattr(correct_module, "BLOCK_BYTES", 7 * 8 * 500)
    evaluator, normals = kernel_case(296)
    use_helpers(monkeypatch, None, 0)
    want = evaluator.batch(normals)
    # the caller fails once a helper is busy scoring blocks, which it does slowly
    caller = threading.get_ident()
    helper_started = threading.Event()
    matmul = np.matmul

    def failing_matmul(*args, **kwargs):
        if threading.get_ident() == caller:
            assert helper_started.wait(30.0)
            raise _CallerFailed
        helper_started.set()
        time.sleep(1e-3)
        return matmul(*args, **kwargs)

    with _CountingPool(1) as pool:
        use_helpers(monkeypatch, pool, 1)
        monkeypatch.setattr(np, "matmul", failing_matmul)
        with pytest.raises(_CallerFailed):
            evaluator.batch(normals)
        assert len(pool.tasks) == 1 and pool.tasks[0].done()
        monkeypatch.setattr(np, "matmul", matmul)
        np.testing.assert_array_equal(evaluator.batch(normals), want)


def test_run_correction_is_bitwise_the_same_with_or_without_helpers(monkeypatch):
    # at 64 x 64 px a block holds 32 particles, so every swarm batch splits
    scene = gen_scene(SynthConfig(height=64, width=64, bands=20, endmembers=4, scale_std=0.3, seed=3))
    with ThreadPoolExecutor(2) as pool:
        use_helpers(monkeypatch, pool, 2)
        _, want = run_correction(scene.scaled_cube, 4, rng_seed=5)
    use_helpers(monkeypatch, None, 0)
    _, got = run_correction(scene.scaled_cube, 4, rng_seed=5)
    assert got.to_json_dict() == want.to_json_dict()
    assert np.array_equal(got.mu_hat.values, want.mu_hat.values)


# --------------------------------------------------------------- gradient

def test_gradient_ignores_clamped_pixels():
    # the clamped pixels' residual is constant in the normal, so dropping
    # them must leave the gradient as it is
    evaluator, normals = kernel_case(0)
    for n in normals[:2]:  # e1 and -e1
        unclamped = np.abs((n @ evaluator.pixels) / float(n @ evaluator.c_star)) >= MU_FLOOR
        assert np.count_nonzero(~unclamped) == 4
        reference = _PsiEvaluator(simple_reduced(evaluator.pixels[:, unclamped]), evaluator.c_star)
        # relative to the whole vector: a component can cancel to rounding noise
        got, want = evaluator.gradient(n), reference.gradient(n)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_gradient_orthogonal_normal_raises():
    evaluator, normals = kernel_case(0)
    for n in normals[2:4]:  # +-orthogonal to the anchor
        with pytest.raises(NearOrthogonalNormalError):
            evaluator.gradient(n)


def test_gradient_matches_finite_differences():
    h = 1e-6
    worst = 0.0
    for seed in range(20):
        reduced, _, _ = make_line_data(n_pixels=50, mu_std=0.3, seed=seed)
        c_star = reduced.mean_pixel
        evaluator = _PsiEvaluator(reduced, c_star)
        rng = np.random.default_rng(seed + 1000)
        n = rng.standard_normal(2)
        n /= np.linalg.norm(n)
        if abs(float(c_star @ n)) < 0.3:  # stay away from the clamped regime
            n = np.sign(float(c_star @ n) or 1.0) * (n + c_star / np.linalg.norm(c_star))
            n /= np.linalg.norm(n)
        grad = evaluator.gradient(n)
        fd = np.empty_like(grad)
        for i in range(n.size):
            e = np.zeros_like(n)
            e[i] = h
            fd[i] = (evaluator.value(n + e) - evaluator.value(n - e)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12)))
    assert worst < 1e-4


def plane_data(k, n_pixels, seed):
    """Noise-free K-endmember data, scaled pixel-wise, in identity coordinates."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 1.0, (k, k)) + np.eye(k)
    abundances = rng.dirichlet(np.ones(k), n_pixels).T
    mu = np.clip(1.0 + 0.3 * rng.standard_normal(n_pixels), 0.2, None)
    return simple_reduced((m @ abundances) * (mu / mu.mean()))


def chart_case(seed):
    """Evaluator, a point m on its chart c* . m = 1 near the anchor's
    direction, and an orthonormal basis of the chart's directions."""
    k = 2 + seed % 3
    reduced = plane_data(k, 64, seed)
    c_star = reduced.mean_pixel
    unit = c_star / np.linalg.norm(c_star)
    n = np.random.default_rng(seed + 1000).standard_normal(k) + unit
    return _PsiEvaluator(reduced, c_star), n / float(c_star @ n), correct_module._tangent_basis(unit)


def test_chart_hessian_matches_finite_differences():
    # central differences of the chart gradient along the chart, as
    # criterion 6d checks the gradient against differences of the objective
    h = 1e-6
    worst = 0.0
    for seed in range(20):
        evaluator, m, basis = chart_case(seed)
        _, hess = evaluator.chart_system(m)
        fd = np.column_stack([
            (evaluator.chart_system(m + h * u)[0] - evaluator.chart_system(m - h * u)[0]) / (2.0 * h)
            for u in basis.T
        ])
        np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=0.0)
        want = hess @ basis
        worst = max(worst, float(np.max(np.abs(want - fd)) / np.max(np.abs(want))))
    assert worst < 1e-4


def test_chart_gradient_matches_psi_differences():
    # psi(m / |m|) is the objective on the chart; its central differences in
    # a chart basis must match the chart gradient there
    h = 1e-6
    worst = 0.0
    for seed in range(20):
        evaluator, m, basis = chart_case(seed)
        grad, _ = evaluator.chart_system(m)
        psi = lambda x: evaluator.value(x / np.linalg.norm(x))
        fd = np.array([(psi(m + h * u) - psi(m - h * u)) / (2.0 * h) for u in basis.T])
        want = basis.T @ grad
        worst = max(worst, float(np.max(np.abs(want - fd)) / max(np.max(np.abs(want)), 1e-12)))
    assert worst < 1e-4


def test_chart_system_ignores_clamped_pixels():
    evaluator, normals = kernel_case(0)
    for n in normals[:2]:  # e1 and -e1
        unclamped = np.abs((n @ evaluator.pixels) / float(n @ evaluator.c_star)) >= MU_FLOOR
        assert np.count_nonzero(~unclamped) == 4
        reference = _PsiEvaluator(simple_reduced(evaluator.pixels[:, unclamped]), evaluator.c_star)
        for got, want in zip(evaluator.chart_system(n), reference.chart_system(n)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_newton_never_increases_objective_and_is_deterministic():
    for seed in range(3):
        reduced = plane_data(4, 200, seed + 40)
        c_star = reduced.mean_pixel
        evaluator = _PsiEvaluator(reduced, c_star)
        starts = list(np.random.default_rng(seed).standard_normal((8, 4)))
        starts += candidate_normals(reduced, 4, rng_seed=seed)
        for start in starts:
            out = newton_refine(start, reduced)
            assert np.array_equal(out, newton_refine(start, reduced))
            assert evaluator.value(out) <= evaluator.value(start / np.linalg.norm(start))


def test_newton_converges_to_grid_optimum():
    reduced, _, _ = make_line_data(n_pixels=400, mu_std=0.3, seed=9)
    c_star = reduced.mean_pixel
    psi_grid, theta_star = grid_search_psi(reduced, c_star)
    start = np.array([math.cos(theta_star + 0.05), math.sin(theta_star + 0.05)])
    out = newton_refine(start, reduced)
    assert abs(objective_psi(out, reduced) - psi_grid) / psi_grid < 1e-9


def test_newton_k1_returns_start():
    reduced = simple_reduced(np.array([[1.0, 2.0, 0.5]]))
    start = np.ones(1)
    assert newton_refine(start, reduced) is start


def test_newton_rejects_zero_start():
    reduced = plane_data(3, 20, 0)
    with pytest.raises(ValidationError):
        newton_refine(np.zeros(3), reduced)


def test_newton_rank_deficient_cloud_raises_nothing():
    # K = 3 coordinates, but the pixels span two: the objective is flat
    # along e3 and the tangent Hessian is singular there
    reduced2, _, _ = make_line_data(n_pixels=64, mu_std=0.3, seed=27)
    flat = simple_reduced(np.vstack([reduced2.pixels, np.zeros(64)]))
    # every pixel equal: the objective is zero at almost every normal
    same = simple_reduced(np.tile([[1.0], [2.0], [0.5]], (1, 16)))
    for reduced in (flat, same):
        c_star = reduced.mean_pixel
        evaluator = _PsiEvaluator(reduced, c_star)
        orthogonal = np.cross(c_star, [0.0, 0.0, 1.0] if reduced is same else [1.0, 0.0, 0.0])
        rng = np.random.default_rng(28)
        for start in [np.array([0.3, 0.4, 0.87]), orthogonal, *rng.standard_normal((5, 3))]:
            out = newton_refine(start, reduced)
            before = evaluator.value(start / np.linalg.norm(start))
            assert evaluator.value(out) <= before
        assert newton_refine(orthogonal, reduced) is orthogonal


# --------------------------------------------------------------------- gd

def test_gd_returns_stationary_start():
    reduced, true_normal, _ = make_line_data(n_pixels=300, mu_std=0.0, seed=8)
    out = gd_refine(true_normal, reduced, GdConfig())
    assert np.allclose(out, true_normal, atol=1e-12)


def test_gd_converges_to_grid_optimum_from_small_offset():
    reduced, _, _ = make_line_data(n_pixels=400, mu_std=0.3, seed=9)
    c_star = reduced.mean_pixel
    _, theta_star = grid_search_psi(reduced, c_star)
    start = np.array([math.cos(theta_star + 0.01), math.sin(theta_star + 0.01)])
    out = gd_refine(start, reduced, GdConfig())
    theta_out = math.atan2(out[1], out[0]) % math.pi
    assert abs(theta_out - theta_star) < 1e-4 or abs(abs(theta_out - theta_star) - math.pi) < 1e-4


def test_gd_never_increases_objective():
    reduced, _, _ = make_line_data(n_pixels=200, mu_std=0.3, seed=10)
    c_star = reduced.mean_pixel
    evaluator = _PsiEvaluator(reduced, c_star)
    rng = np.random.default_rng(11)
    for _ in range(5):
        start = rng.standard_normal(2)
        start /= np.linalg.norm(start)
        out = gd_refine(start, reduced, GdConfig(max_iters=50))
        assert evaluator.value(out) <= evaluator.value(start) + 1e-12


# -------------------------------------------------------------------- pso

def test_pso_single_particle_at_optimum_stays():
    reduced, _, _ = make_line_data(n_pixels=300, mu_std=0.2, seed=12)
    c_star = reduced.mean_pixel
    _, theta_star = grid_search_psi(reduced, c_star)
    # polish the grid point to the exact stationary optimum first
    n_star = gd_refine(
        np.array([math.cos(theta_star), math.sin(theta_star)]), reduced, GdConfig()
    )
    out = pso_minimize(reduced, [n_star], PsoConfig(swarm_size=2, iterations=40), seed=0)
    assert np.array_equal(out, n_star)


def test_pso_beats_every_candidate():
    reduced, _, _ = make_line_data(n_pixels=256, mu_std=0.3, seed=13)
    c_star = reduced.mean_pixel
    evaluator = _PsiEvaluator(reduced, c_star)
    cands = candidate_normals(reduced, 20, rng_seed=14)
    out = pso_minimize(reduced, cands, PsoConfig(swarm_size=32, iterations=60), seed=1)
    best_cand = min(evaluator.value(c) for c in cands)
    assert evaluator.value(out) <= best_cand + 1e-12


def test_pso_all_invalid_particles_fail():
    # a cloud symmetric about the origin has a zero anchor, so every
    # normal is degenerate and the search cannot start
    pts = np.array([[1.0, -1.0, 2.0, -2.0], [0.5, -0.5, -1.0, 1.0]])
    reduced = simple_reduced(pts)
    from hsiscale import OptimizationError

    with pytest.raises(OptimizationError):
        pso_minimize(
            reduced, [np.array([1.0, 0.0])], PsoConfig(swarm_size=4, iterations=5), seed=0
        )


def test_pso_deterministic():
    reduced, _, _ = make_line_data(n_pixels=128, mu_std=0.3, seed=15)
    cands = candidate_normals(reduced, 8, rng_seed=16)
    config = PsoConfig(swarm_size=16, iterations=30)
    a = pso_minimize(reduced, cands, config, seed=42)
    b = pso_minimize(reduced, cands, config, seed=42)
    assert np.array_equal(a, b)


def test_pso_grid_oracle_equivalence():
    reduced, _, _ = make_line_data(n_pixels=1024, mu_std=0.3, seed=17)
    c_star = reduced.mean_pixel
    cands = candidate_normals(reduced, 60, rng_seed=18)
    n_pso = pso_minimize(reduced, cands, PsoConfig(swarm_size=64, iterations=120), seed=2)
    n_best = gd_refine(n_pso, reduced, GdConfig())
    psi_final = objective_psi(n_best, reduced)
    psi_grid, _ = grid_search_psi(reduced, c_star)
    assert abs(psi_final - psi_grid) / psi_grid < 1e-6


# --------------------------------------------------------------- scaling

def test_estimate_scaling_on_plane_gives_ones():
    normal = np.array([3.0, 4.0]) / 5.0
    tangent = np.array([-4.0, 3.0]) / 5.0
    pts = 1.5 * normal[:, None] + tangent[:, None] * np.linspace(-1, 1, 20)
    reduced = simple_reduced(pts)
    c_star = reduced.mean_pixel
    model = HyperplaneModel.build(c_star, normal, denom_floor_for(pts))
    field = estimate_scaling(reduced, model)
    assert np.allclose(field.values, 1.0, atol=1e-12)
    assert field.clamped_count == 0


def test_estimate_scaling_worked_example(worked_reduced):
    c_star = worked_reduced.mean_pixel
    model = HyperplaneModel.build(
        c_star, np.array([1.0, 1.0]) / SQ2, denom_floor_for(worked_reduced.pixels)
    )
    field = estimate_scaling(worked_reduced, model)
    assert np.allclose(field.values, [1.5, 0.5, 1.0], atol=1e-12)


def test_mean_one_identity_random_data():
    for seed in range(5):
        reduced, _, _ = make_line_data(n_pixels=333, mu_std=0.3, seed=seed)
        c_star = reduced.mean_pixel
        rng = np.random.default_rng(seed + 50)
        n = rng.standard_normal(2) + np.array([1.0, 1.0])
        model = HyperplaneModel.build(c_star, n, denom_floor_for(reduced.pixels))
        mu_raw = (model.normal @ reduced.pixels) / model.denom
        assert abs(mu_raw.mean() - 1.0) < 1e-12


# ------------------------------------------------------------ correction

def test_correct_pixels_identity_for_unit_field():
    cube = HsiCube(np.arange(24.0).reshape(2, 3, 4) + 1.0)
    field = ScalingField(values=np.ones(12))
    out = correct_pixels(cube, field)
    assert np.array_equal(out.data, cube.data)


def test_correct_pixels_divides_per_pixel():
    pixels = np.array([[2.0, 1.0, 1.0], [4.0, 1.0, 1.0], [6.0, 1.0, 1.0]])
    cube = HsiCube(pixels.reshape(3, 1, 3))
    field = ScalingField(values=np.array([2.0, 0.5, 0.5]))
    out = correct_pixels(cube, field)
    assert np.array_equal(out.pixel_matrix()[:, 0], [1.0, 2.0, 3.0])
    assert np.array_equal(out.pixel_matrix()[:, 1], [2.0, 2.0, 2.0])


def test_scaling_over_a_chunk_is_the_one_shot_expression():
    # 2 MB: the output takes pages of its own
    cube = HsiCube(np.random.default_rng(22).uniform(0.1, 1.0, (64, 64, 64)))
    field = ScalingField.from_raw(np.random.default_rng(23).uniform(0.5, 1.5, 64 * 64))
    factors = field.values.reshape(64, 64)[None, :, :]
    assert np.array_equal(correct_pixels(cube, field).data, cube.data / factors)
    assert np.array_equal(apply_scaling(cube, field).data, cube.data * factors)


def test_apply_then_correct_recovers():
    rng = np.random.default_rng(21)
    cube = HsiCube(rng.uniform(0.2, 1.0, (6, 4, 5)))
    mu = 1.0 + 0.3 * rng.standard_normal(20)
    mu = np.clip(mu, 0.2, None)
    mu /= mu.mean()
    field = ScalingField(values=mu)
    recovered = correct_pixels(apply_scaling(cube, field), field)
    assert np.max(np.abs(recovered.data - cube.data) / cube.data) < 1e-6


def test_scaling_field_validation():
    with pytest.raises(ValidationError):
        ScalingField(values=np.array([0.5, 0.6]))  # mean != 1
    with pytest.raises(ValidationError):
        ScalingField(values=np.array([2.0 - 1e-4, 1e-4]))  # below floor
    field = ScalingField.from_raw(np.array([-0.5, 1.0, 1.5, 2.0]))
    assert field.clamped_count == 1
    assert abs(field.values.mean() - 1.0) < 1e-9


def test_hyperplane_model_sign_fix():
    c_star = np.array([1.0, 1.0])
    model = HyperplaneModel.build(c_star, np.array([-1.0, -1.0]), 1e-9)
    assert model.denom > 0
    assert np.allclose(model.normal, [1.0 / SQ2, 1.0 / SQ2])


def test_config_validation():
    with pytest.raises(ValidationError):
        PsoConfig(swarm_size=1)


def test_report_monotonicity_enforced():
    field = ScalingField(values=np.ones(4))
    model = HyperplaneModel.build(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1e-12)
    with pytest.raises(ValidationError):
        CorrectionReport(
            mu_hat=field,
            model=model,
            psi_initial=1.0,
            psi_after_pso=2.0,
            psi_final=0.5,
            candidate_count=1,
            seed=0,
        )


# ---------------------------------------------------------- run_correction

def small_scene(std, seed, h=24, w=24, bands=20, k=3):
    from hsiscale import SynthConfig, gen_scene

    cfg = SynthConfig(height=h, width=w, bands=bands, endmembers=k, scale_std=std, seed=seed)
    return gen_scene(cfg)


def fast_configs(seed=0):
    return dict(
        pso_config=PsoConfig(swarm_size=64, iterations=60),
        gd_config=GdConfig(max_iters=200),
        candidate_count=64,
        rng_seed=seed,
    )


# ---------------------------------------------------------- search_normal

def test_search_without_stages_returns_best_start():
    reduced, _, _ = make_line_data(n_pixels=128, mu_std=0.3, seed=19)
    c_star = reduced.mean_pixel
    starts = candidate_normals(reduced, 12, rng_seed=20)
    evaluator = _PsiEvaluator(reduced, c_star)
    best = int(np.argmin([evaluator.value(n) for n in starts]))
    stages = search_normal(reduced, starts, None, None, 0)
    assert len(stages) == 3
    for normal, psi in stages[:2]:
        assert normal is starts[best]
        assert psi == evaluator.value(starts[best])
    # without a GdConfig the polish is the Newton one, never above its start
    normal, psi = stages[2]
    assert psi <= stages[1][1]
    assert psi == evaluator.value(normal)


@pytest.mark.parametrize("seed", range(4))
def test_search_swarm_never_reports_above_best_start(seed):
    reduced, _, _ = make_line_data(n_pixels=96, mu_std=0.3, seed=21 + seed)
    c_star = reduced.mean_pixel
    starts = candidate_normals(reduced, 6, rng_seed=seed)
    config = PsoConfig(swarm_size=4, iterations=3)
    (_, psi_start), (normal, psi_swarm), (_, psi_final) = search_normal(
        reduced, starts, config, None, seed
    )
    assert psi_final <= psi_swarm <= psi_start
    assert psi_swarm == _PsiEvaluator(reduced, c_star).value(normal)


def test_search_falls_back_when_a_stage_does_worse(monkeypatch):
    reduced, _, _ = make_line_data(n_pixels=96, mu_std=0.3, seed=25)
    c_star = reduced.mean_pixel
    starts = candidate_normals(reduced, 6, rng_seed=26)
    values = [_PsiEvaluator(reduced, c_star).value(n) for n in starts]
    worst = starts[int(np.argmax(values))]
    monkeypatch.setattr(correct_module, "pso_minimize", lambda *args: worst)
    monkeypatch.setattr(correct_module, "gd_refine", lambda *args: worst)
    stages = search_normal(reduced, starts, PsoConfig(), GdConfig(), 0)
    best = starts[int(np.argmin(values))]
    assert max(values) > min(values)
    assert all(normal is best and psi == min(values) for normal, psi in stages)


def test_search_falls_back_when_the_newton_polish_does_worse(monkeypatch):
    reduced, _, _ = make_line_data(n_pixels=96, mu_std=0.3, seed=25)
    c_star = reduced.mean_pixel
    starts = candidate_normals(reduced, 6, rng_seed=26)
    values = [_PsiEvaluator(reduced, c_star).value(n) for n in starts]
    worst = starts[int(np.argmax(values))]
    monkeypatch.setattr(correct_module, "newton_refine", lambda *args: worst)
    stages = search_normal(reduced, starts, None, None, 0)
    assert stages[2][0] is stages[1][0] and stages[2][1] == stages[1][1]


def test_run_correction_reports_the_search_stages(monkeypatch):
    scene = small_scene(0.3, seed=6)
    configs = fast_configs(8)
    real_search, calls = correct_module.search_normal, []

    def spy_search(*args):
        calls.append((args, real_search(*args)))
        return calls[-1][1]

    monkeypatch.setattr(correct_module, "search_normal", spy_search)
    _, report = run_correction(scene.scaled_cube, 3, **configs)
    [((reduced, starts, pso_config, gd_config, _), stages)] = calls
    assert (pso_config, gd_config) == (configs["pso_config"], configs["gd_config"])
    assert len(starts) == report.candidate_count
    assert (report.psi_initial, report.psi_after_pso, report.psi_final) == tuple(
        psi for _, psi in stages
    )
    assert np.array_equal(report.model.normal, HyperplaneModel.build(
        reduced.mean_pixel, stages[2][0], denom_floor_for(reduced.pixels)
    ).normal)


def test_rng_seed_drives_the_swarm_with_or_without_a_config(monkeypatch):
    # one seed per correction: passing a PsoConfig does not change the swarm's stream
    scene = small_scene(0.3, seed=6)
    real_pso, seeds = correct_module.pso_minimize, []

    def spy_pso(reduced, initial_normals, config, seed):
        seeds.append(seed)
        return real_pso(reduced, initial_normals, config, seed)

    monkeypatch.setattr(correct_module, "pso_minimize", spy_pso)
    for rng_seed in (1, 2):
        for pso_config in (None, PsoConfig(iterations=2)):
            run_correction(scene.scaled_cube, 3, pso_config, candidate_count=16, rng_seed=rng_seed)
    assert seeds[0] == seeds[1] != seeds[2] == seeds[3]


@pytest.mark.parametrize("snr_db, k", [(25.0, 6), (40.0, 5)])
def test_default_swarm_holds_the_accepted_candidates(monkeypatch, snr_db, k):
    # at 25 dB fewer than 64 of the 200 requested candidates pass, at 40 dB
    # more than 64 but not all: the swarm is 64 particles, or one per candidate
    scene = gen_scene(SynthConfig(
        height=32, width=32, bands=30, endmembers=k, scale_std=0.2, snr_db=snr_db, seed=7
    ))
    real_pso, real_batch = correct_module.pso_minimize, _PsiEvaluator.batch
    runs = []

    def spy_batch(evaluator, normals):
        runs[-1]["rows"].append(normals.shape[0])
        return real_batch(evaluator, normals)

    def spy_pso(reduced, initial_normals, config, seed):
        runs.append({"starts": len(initial_normals), "rows": []})
        monkeypatch.setattr(_PsiEvaluator, "batch", spy_batch)
        try:
            return real_pso(reduced, initial_normals, config, seed)
        finally:
            monkeypatch.setattr(_PsiEvaluator, "batch", real_batch)

    monkeypatch.setattr(correct_module, "pso_minimize", spy_pso)
    (a, ra), (b, rb) = (run_correction(scene.scaled_cube, k, rng_seed=0) for _ in range(2))
    assert runs[0] == runs[1]
    accepted = runs[0]["starts"]
    assert accepted == ra.candidate_count
    assert (accepted < 64) if snr_db == 25.0 else (64 < accepted < 200)
    # every evaluation of the swarm, the first and one per iteration, scores each particle
    assert runs[0]["rows"] == [max(64, accepted)] * (PsoConfig().iterations + 1)
    assert np.array_equal(a.data, b.data)
    assert ra.to_json_dict() == rb.to_json_dict()


def test_run_correction_unscaled_fixed_point():
    scene = small_scene(0.0, seed=1)
    corrected, report = run_correction(scene.scaled_cube, 3, **fast_configs(1))
    assert np.max(np.abs(report.mu_hat.values - 1.0)) < 1e-6
    assert np.max(np.abs(corrected.data - scene.clean_cube.data)) < 1e-6
    assert report.psi_final <= report.psi_after_pso <= report.psi_initial


def test_run_correction_deterministic():
    scene = small_scene(0.3, seed=2)
    a, ra = run_correction(scene.scaled_cube, 3, **fast_configs(5))
    b, rb = run_correction(scene.scaled_cube, 3, **fast_configs(5))
    assert np.array_equal(a.data, b.data)
    assert ra.to_json_dict() == rb.to_json_dict()


def test_run_correction_on_plane_residual():
    scene = small_scene(0.3, seed=3)
    corrected, report = run_correction(scene.scaled_cube, 3, **fast_configs(3))
    reduced = svd_reduce(scene.scaled_cube, 3)
    c_star = reduced.mean_pixel
    assert np.array_equal(report.model.c_star, c_star)
    corrected_reduced = reduced.pixels / report.mu_hat.values[None, :]
    residual = np.abs((corrected_reduced - c_star[:, None]).T @ report.model.normal)
    norms = np.linalg.norm(reduced.pixels, axis=0)
    assert np.all(residual <= 1e-9 * norms)


def test_run_correction_degenerate_k1():
    scene = small_scene(0.2, seed=4)
    corrected, report = run_correction(scene.scaled_cube, 1, rng_seed=0)
    assert report.degenerate_mode
    assert np.array_equal(report.model.c_star, svd_reduce(scene.scaled_cube, 1).mean_pixel)
    assert report.to_json_dict()["degenerate_mode"] is True
    assert report.candidate_count == 0
    assert report.psi_initial == report.psi_after_pso == report.psi_final
    assert corrected.data.shape == scene.scaled_cube.data.shape


def test_error_tracks_bound_scaling():
    # the ceiling diagnostic shrinks as 1/sqrt(N); the measured error on
    # spatially-uncorrelated scale fields must follow the same trend
    # (the diagnostic's absolute level describes the idealized estimator,
    # not any realized run, so only the scaling is comparable)
    from hsiscale import SynthConfig, gen_scene, rmse_mu
    from hsiscale.metrics import bound_check

    results = {}
    for side in (32, 64):
        errs, bounds = [], []
        for seed in (11, 12, 13):
            cfg = SynthConfig(
                height=side, width=side, bands=40, endmembers=4, scale_std=0.3,
                scale_correlation_length=0.5, seed=seed,
            )
            scene = gen_scene(cfg)
            _, report = run_correction(scene.scaled_cube, 4, rng_seed=seed)
            errs.append(rmse_mu(report.mu_hat, scene.mu_true))
            bounds.append(bound_check(scene.mu_true, scene.clean_cube))
        results[side] = (np.mean(errs), np.mean(bounds))
    err_ratio = results[64][0] / results[32][0]
    bound_ratio = results[64][1] / results[32][1]
    assert bound_ratio == pytest.approx(0.5, abs=0.05)
    assert err_ratio < 0.85  # error genuinely shrinks with N alongside the bound
