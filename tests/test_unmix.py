import importlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, nnls

from hsiscale import (
    DegenerateDataError,
    DimensionError,
    GdConfig,
    HsiCube,
    NumericError,
    PsoConfig,
    ScalingField,
    SynthConfig,
    abundance_rmse,
    fcls,
    gen_scene,
    hyperplane_placement_error,
    match_endmembers,
    nfindr_extract,
    rmse_mu,
    run_correction,
    sad_error,
    svd_reduce,
    unmix,
)
from hsiscale.cube import CHUNK_BYTES, column_chunks
from hsiscale.metrics import _assign, _sad_matrix, bound_check, norm_concentration_ratio
from hsiscale.synth import gen_endmembers
from hsiscale.unmix import _simplex_volume
from conftest import make_line_data

# the package attribute ``hsiscale.unmix`` is the function, not the module
unmix_module = importlib.import_module("hsiscale.unmix")


# ------------------------------------------------------------------- fcls

def test_fcls_identity_mixture():
    a = fcls(np.array([[0.3], [0.7]]), np.eye(2))
    assert np.allclose(a[:, 0], [0.3, 0.7], atol=1e-10)


def test_fcls_pure_pixel():
    m = gen_endmembers(20, 3, seed=1)
    a = fcls(m[:, [0]], m)
    assert np.allclose(a[:, 0], [1.0, 0.0, 0.0], atol=1e-8)


def test_fcls_anc_asc_invariants():
    rng = np.random.default_rng(2)
    m = gen_endmembers(15, 4, seed=2)
    pixels = np.clip(m @ rng.dirichlet(np.ones(4), 50).T + 0.05 * rng.standard_normal((15, 50)), 0, None)
    a = fcls(pixels, m)
    assert np.min(a) >= -1e-12
    assert np.max(np.abs(a.sum(axis=0) - 1.0)) < 1e-6


def test_fcls_matches_simplex_grid_oracle():
    rng = np.random.default_rng(3)
    m = gen_endmembers(12, 3, seed=3)
    # dense grid over the simplex, step 0.01
    fracs = np.arange(0.0, 1.0 + 1e-12, 0.01)
    grid = [
        (f1, f2, 1.0 - f1 - f2)
        for f1 in fracs
        for f2 in fracs
        if f1 + f2 <= 1.0 + 1e-12
    ]
    grid = np.array(grid).T  # (3, G)
    projections = m @ grid
    for trial in range(5):
        a_true = rng.dirichlet(np.ones(3))
        y = m @ a_true + 0.01 * rng.standard_normal(12)
        a_hat = fcls(y[:, None], m)[:, 0]
        obj_fcls = float(np.sum((y - m @ a_hat) ** 2))
        obj_grid = float(np.min(np.sum((y[:, None] - projections) ** 2, axis=0)))
        assert obj_fcls <= obj_grid + 1e-12
        assert abs(obj_fcls - obj_grid) < 1e-4


def test_fcls_rank_deficient_rejected():
    m = np.ones((5, 2))
    with pytest.raises(DimensionError):
        fcls(np.ones((5, 3)), m)


def test_fcls_more_endmembers_than_bands_plus_one_rejected():
    # five distinct signatures in three bands: the sum-to-one row adds one
    # dimension, which still leaves them linearly dependent
    m = np.random.default_rng(16).uniform(0.1, 1.0, (3, 5))
    with pytest.raises(DimensionError):
        fcls(m @ np.full((5, 1), 0.2), m)


def test_fcls_exact_on_clean_scene():
    scene = gen_scene(SynthConfig(height=12, width=12, bands=18, endmembers=3, scale_std=0.0, seed=4))
    a = fcls(scene.clean_cube.pixel_matrix(), scene.truth.endmembers)
    total, _ = abundance_rmse(scene.truth.abundances, a)
    assert total < 1e-6


def fcls_reference(pixels, endmembers):
    """The exact optimum by enumeration: for each pixel, every support's
    bordered solve, keeping the feasible one of lowest loss."""
    m = np.asarray(endmembers, dtype=np.float64)
    k, n = m.shape[1], pixels.shape[1]
    out = np.zeros((k, n))
    best = np.full(n, np.inf)
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            idx = list(support)
            border = np.zeros((size + 1, size + 1))
            border[:size, :size] = m[:, idx].T @ m[:, idx]
            border[:size, size] = border[size, :size] = 1.0
            rhs = np.vstack([m[:, idx].T @ pixels, np.ones((1, n))])
            s = np.linalg.solve(border, rhs)[:size]
            loss = np.sum((pixels - m[:, idx] @ s) ** 2, axis=0)
            # strict: of optima tied to rounding, the first support found wins
            wins = np.all(s >= 0.0, axis=0) & (loss < best)
            out[:, wins] = 0.0
            out[np.ix_(idx, np.flatnonzero(wins))] = s[:, wins]
            best[wins] = loss[wins]
    return out


@pytest.fixture(scope="module")
def benchmark_scene():
    """The 128 x 128 px, K=5 walkthrough scene, its lightly corrected cube
    as the CLI stores it (float32), and the endmembers N-FINDR finds there."""
    scene = gen_scene(SynthConfig(height=128, width=128, bands=100, endmembers=5, scale_std=0.3, seed=7))
    corrected, _ = run_correction(
        scene.scaled_cube, 5, pso_config=PsoConfig(iterations=20),
        gd_config=GdConfig(max_iters=50), candidate_count=64, rng_seed=7,
    )
    corrected = HsiCube(corrected.data.astype(np.float32).astype(np.float64))
    extracted = nfindr_extract(svd_reduce(corrected, 5), 5, seed=7)
    return scene, corrected, extracted


def count_nnls_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return nnls(*args, **kwargs)

    monkeypatch.setattr(unmix_module, "nnls", counted)
    return calls


def test_nnls_is_resolved_on_first_access(monkeypatch):
    import scipy.optimize

    module = importlib.import_module("hsiscale.unmix")
    monkeypatch.delitem(vars(module), "nnls", raising=False)
    assert module.nnls is scipy.optimize.nnls
    assert vars(module)["nnls"] is scipy.optimize.nnls  # cached for the next lookup
    with pytest.raises(AttributeError, match="has no attribute 'lstsq'"):
        module.lstsq


def test_nnls_is_absent_without_scipy(monkeypatch):
    # scipy is a test dependency only: without it the name is absent, like any other
    module = importlib.import_module("hsiscale.unmix")
    monkeypatch.delitem(vars(module), "nnls", raising=False)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    assert getattr(module, "nnls", None) is None
    with pytest.raises(AttributeError, match="has no attribute 'nnls'"):
        module.nnls
    assert "nnls" not in vars(module)


def record_solves(monkeypatch):
    """The pixel count of every _lawson_hanson call."""
    solves = []
    solve = unmix_module._lawson_hanson

    def recorded(gram, mty):
        solves.append(mty.shape[1])
        return solve(gram, mty)

    monkeypatch.setattr(unmix_module, "_lawson_hanson", recorded)
    return solves


@pytest.mark.parametrize(
    "cube, endmembers",
    [("corrected", "truth"), ("corrected", "nfindr"), ("scaled", "truth")],
)
def test_fcls_matches_per_pixel_reference_on_benchmark_scene(
    benchmark_scene, monkeypatch, cube, endmembers
):
    scene, corrected, extracted = benchmark_scene
    pixels = (corrected if cube == "corrected" else scene.scaled_cube).pixel_matrix()
    # N-FINDR's endmembers are close enough to each other that a loose
    # stopping tolerance leaves out abundances of a few 1e-9
    m = scene.truth.endmembers if endmembers == "truth" else extracted
    calls = count_nnls_calls(monkeypatch)
    solves = record_solves(monkeypatch)
    got = fcls(pixels, m)
    # one pass over every pixel, badly scaled ones included
    assert solves == [pixels.shape[1]]
    assert len(calls) == 0
    np.testing.assert_allclose(got, fcls_reference(pixels, m), rtol=0.0, atol=1e-9)
    assert np.max(np.abs(got.sum(axis=0) - 1.0)) <= 1e-12


def mixed_pixels(k, n, seed, bands=30):
    rng = np.random.default_rng(seed)
    m = gen_endmembers(bands, k, seed=seed)
    pixels = m @ rng.dirichlet(np.ones(k), n).T * rng.uniform(0.7, 1.3, n)
    return np.clip(pixels + 0.02 * rng.standard_normal(pixels.shape), 0.0, None), m


@pytest.mark.parametrize(
    "case",
    ["vertices", "k2", "k8", "single-pixel", "mixed-x3"],
)
def test_fcls_matches_per_pixel_reference(case):
    if case == "vertices":
        # pure pixels and two-endmember edges: most constraints active
        m = gen_endmembers(20, 4, seed=11)
        pixels = np.column_stack([m, 1.2 * m, 0.5 * (m[:, :3] + m[:, 1:]), 0.3 * m[:, :1] + 0.7 * m[:, 3:]])
    elif case == "k2":
        pixels, m = mixed_pixels(2, 400, seed=12)
    elif case == "k8":
        pixels, m = mixed_pixels(8, 400, seed=13)
    elif case == "single-pixel":
        pixels, m = mixed_pixels(5, 1, seed=14)
    else:
        # three times too bright: far from every mixture of the endmembers
        pixels, m = mixed_pixels(5, 400, seed=14)
        pixels = 3.0 * pixels
    got = fcls(pixels, m)
    np.testing.assert_allclose(got, fcls_reference(pixels, m), rtol=0.0, atol=1e-9)
    assert np.max(np.abs(got.sum(axis=0) - 1.0)) <= 1e-12


@pytest.mark.parametrize("how", ["reversed", "shift-0.03", "shift-1e-4", "dropped", "nan"])
def test_fcls_kkt_failure_names_the_pixel(monkeypatch, how):
    # gen_endmembers(30, 3, seed=15): a check scaled by the squared
    # sum-to-one weight passed the 0.03 shift here
    pixels, m = mixed_pixels(3, 6, seed=15)
    solve = unmix_module._lawson_hanson

    def off_optimum(gram, mty):
        x, multiplier = solve(gram, mty)
        a = x[:, 4].copy()
        if how == "reversed":
            # keeps it feasible, sum included
            x[:, 4] = a[::-1]
        elif how == "dropped":
            # the optimum without one of its endmembers: complementary
            # slackness holds, but that endmember is a descent direction
            keep = np.flatnonzero(a > 0.0)[1:]
            sub, sub_multiplier = solve(gram[np.ix_(keep, keep)], mty[keep, 4:5])
            x[:, 4] = 0.0
            x[keep, 4] = sub[:, 0]
            multiplier[4] = sub_multiplier[0]
        elif how == "nan":
            # a NaN violation fails the check, which compares it closed
            x[:, 4] = np.nan
        else:
            # mass moved between two abundances, sum kept
            shift = float(how.removeprefix("shift-"))
            big = int(np.argmax(a))
            x[big, 4] -= shift
            x[(big + 1) % a.size, 4] += shift
        return x, multiplier

    monkeypatch.setattr(unmix_module, "_lawson_hanson", off_optimum)
    with pytest.raises(NumericError) as info:
        fcls(pixels, m)
    assert info.value.pixel_index == 4


def test_unmix_result_residuals():
    scene = gen_scene(SynthConfig(height=8, width=8, bands=16, endmembers=3, scale_std=0.0, seed=5))
    result = unmix(scene.clean_cube.pixel_matrix(), scene.truth.endmembers)
    assert np.max(result.per_pixel_residual) < 1e-8


def chunk_width(rows):
    """Columns in a full chunk of a ``rows``-high matrix."""
    return next(column_chunks(rows, 1 << 30)).stop


def noisy_mixtures(bands, k, n, seed):
    rng = np.random.default_rng(seed)
    m = gen_endmembers(bands, k, seed=seed)
    return m @ rng.dirichlet(np.ones(k), n).T + 0.01 * rng.standard_normal((bands, n)), m


@pytest.mark.parametrize("extra", [-1, 0, 1, 2])
def test_unmix_residuals_equal_the_one_shot_norm_at_a_chunk_edge(extra):
    # one chunk less a pixel, one chunk, one more pixel (folded into the
    # chunk: a one-column chunk would be summed pairwise), and two chunks
    n = chunk_width(100) + extra
    pixels, m = noisy_mixtures(100, 5, n, seed=21)
    result = unmix(pixels, m)
    want = np.linalg.norm(pixels - m @ result.abundances, axis=0)
    assert np.array_equal(result.per_pixel_residual, want)


def test_unmix_residuals_equal_the_one_shot_norm_over_chunks():
    n = 3 * chunk_width(100)
    pixels, m = noisy_mixtures(100, 5, n, seed=22)
    result = unmix(pixels, m)
    assert len(list(column_chunks(*pixels.shape))) == 3
    assert np.array_equal(result.per_pixel_residual, np.linalg.norm(pixels - m @ result.abundances, axis=0))


def test_unmix_residual_adds_no_pixels_sized_temporary():
    pixels, m = noisy_mixtures(100, 5, 65536, seed=23)

    def peak_of(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    solve, full = peak_of(lambda: fcls(pixels, m)), peak_of(lambda: unmix(pixels, m))
    # fcls keeps its K x N working set; the residual adds its output and
    # a few chunks, where the one-shot norm held two 52 MB temporaries
    assert full <= solve + 8 * pixels.shape[1] + 3 * CHUNK_BYTES
    assert full < pixels.nbytes / 2


# ----------------------------------------------------------------- nfindr

def corners_and_mixtures(seed=0, k=3, bands=6, n_mix=60):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 0.9, (bands, k))
    mixtures = m @ rng.dirichlet(np.ones(k) * 4.0, n_mix).T  # interior points
    pixels = np.column_stack([m, mixtures])
    from hsiscale import HsiCube

    cube = HsiCube(pixels.reshape(bands, 1, pixels.shape[1]))
    return cube, m


def test_nfindr_recovers_pure_corners():
    cube, m = corners_and_mixtures(seed=6)
    reduced = svd_reduce(cube, 3)
    found = nfindr_extract(reduced, 3, seed=1)
    perm = match_endmembers(m, found)
    assert np.allclose(found[:, perm], m, atol=1e-8)


def test_nfindr_two_endmembers_are_the_line_ends():
    # at k=2 each vertex's hull is the other vertex alone, a point with no span
    reduced, _, _ = make_line_data(n_pixels=64, mu_std=0.0, seed=9)
    ends = reduced.pixels[:, np.argsort(reduced.pixels[0])[[0, -1]]]
    found = nfindr_extract(reduced, 2, seed=0)
    assert np.array_equal(found[:, np.argsort(found[0])], ends)


def test_nfindr_local_optimality():
    cube, _ = corners_and_mixtures(seed=7, n_mix=40)
    reduced = svd_reduce(cube, 3)
    found = nfindr_extract(reduced, 3, seed=2)
    # map found endmembers back to reduced coordinates and try every swap
    found_reduced = reduced.basis @ found
    vol = _simplex_volume(found_reduced)
    for j in range(3):
        for i in range(reduced.n_pixels):
            trial = found_reduced.copy()
            trial[:, j] = reduced.pixels[:, i]
            assert _simplex_volume(trial) <= vol * (1.0 + 1e-9)


def test_nfindr_deterministic():
    cube, _ = corners_and_mixtures(seed=8)
    reduced = svd_reduce(cube, 3)
    assert np.array_equal(nfindr_extract(reduced, 3, seed=3), nfindr_extract(reduced, 3, seed=3))


def test_nfindr_coplanar_degenerate():
    from hsiscale import HsiCube

    pixels = np.vstack([np.linspace(0.2, 0.8, 20), np.linspace(0.2, 0.8, 20)])
    cube = HsiCube(pixels.reshape(2, 1, 20))
    reduced = svd_reduce(cube, 2)
    with pytest.raises(DegenerateDataError):
        nfindr_extract(reduced, 3, seed=0)  # 2-simplex needs non-collinear data


@pytest.mark.parametrize("k", [6, 7, 8])
def test_nfindr_recovers_many_endmembers(k):
    scene = gen_scene(SynthConfig(height=48, width=48, bands=40, endmembers=k, scale_std=0.0, seed=1))
    # the scene holds a pure pixel of every endmember, so the largest
    # simplex among the pixels is the true one
    assert np.all(scene.truth.abundances.max(axis=1) >= 1.0 - 1e-12)
    found = nfindr_extract(svd_reduce(scene.clean_cube, k), k, seed=1)
    assert sad_error(scene.truth.endmembers, found)[0] < 1e-6


def test_nfindr_correction_improves_sad():
    # paired before/after comparison across seeds: corrected data should
    # give better endmember angles for most endmembers
    wins_needed = 3
    ok_seeds = 0
    for seed in range(5):
        scene = gen_scene(
            SynthConfig(height=48, width=48, bands=40, endmembers=4, scale_std=0.3, seed=seed)
        )
        k = 4
        before = nfindr_extract(svd_reduce(scene.scaled_cube, k), k, seed=seed)
        corrected, _ = run_correction(
            scene.scaled_cube,
            k,
            pso_config=PsoConfig(swarm_size=96, iterations=100),
            gd_config=GdConfig(),
            candidate_count=96,
            rng_seed=seed,
        )
        after = nfindr_extract(svd_reduce(corrected, k), k, seed=seed)
        _, sad_before = sad_error(scene.truth.endmembers, before)
        _, sad_after = sad_error(scene.truth.endmembers, after)
        if int(np.sum(sad_after <= sad_before + 1e-12)) >= wins_needed:
            ok_seeds += 1
    assert ok_seeds >= 3


# ---------------------------------------------------------------- metrics

def test_rmse_mu_basics():
    truth = ScalingField(values=np.ones(2))
    pred = ScalingField(values=np.array([1.1, 0.9]))
    assert rmse_mu(pred, truth) == pytest.approx(0.1, abs=1e-15)
    assert rmse_mu(truth, truth) == 0.0
    assert rmse_mu(pred, truth) == rmse_mu(truth, pred)
    with pytest.raises(DimensionError):
        rmse_mu(pred, ScalingField(values=np.ones(3)))


def test_abundance_rmse_basics():
    a = np.array([[1.0], [0.0]])
    a_hat = np.array([[0.0], [1.0]])
    total, per = abundance_rmse(a, a_hat)
    assert total == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert np.allclose(per, [1.0, 1.0])
    assert abundance_rmse(a, a)[0] == 0.0


def test_abundance_rmse_permutation_safety():
    # an estimator returning rows/columns in any order scores identically
    # once the endmember matching resolves the correspondence
    rng = np.random.default_rng(9)
    m = gen_endmembers(16, 3, seed=9)
    a = rng.dirichlet(np.ones(3), 30).T
    order = np.array([2, 0, 1])
    perm = match_endmembers(m, m[:, order])
    assert np.array_equal(perm, np.argsort(order))
    total, _ = abundance_rmse(a, a[order], perm)
    assert total == pytest.approx(0.0, abs=1e-12)


def test_sad_scale_invariance_and_orthogonality():
    rng = np.random.default_rng(10)
    m = rng.uniform(0.1, 1.0, (12, 3))
    mean, per = sad_error(m, 3.0 * m)
    assert mean < 1e-7
    ortho = np.eye(4)[:, :2]
    mean_o, per_o = sad_error(ortho, ortho[:, ::-1])
    # best matching pairs the identical columns, angle 0; force mismatch:
    mean_x, per_x = sad_error(np.eye(4)[:, :2], np.eye(4)[:, 2:])
    assert np.allclose(per_x, math.pi / 2.0)
    assert mean_x == pytest.approx(math.pi / 2.0)


def test_sad_small_perturbation():
    rng = np.random.default_rng(11)
    m = rng.uniform(0.2, 1.0, (20, 4))
    m_hat = m * (1.0 + 1e-3 * rng.standard_normal(m.shape))
    mean, per = sad_error(m, m_hat)
    assert np.all(per < 2e-3)


def test_sad_symmetry():
    rng = np.random.default_rng(12)
    m = rng.uniform(0.1, 1.0, (10, 3))
    m_hat = rng.uniform(0.1, 1.0, (10, 3))
    assert sad_error(m, m_hat)[0] == pytest.approx(sad_error(m_hat, m)[0], rel=1e-12)


def _assign_cases(ties):
    # seeded square cost matrices, K = 1..12 at three scales; ``ties`` rounds
    # the entries to one decimal, so many permutations share the minimum
    rng = np.random.default_rng(13 if ties else 14)
    for k in range(1, 13):
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(8):
                cost = rng.random((k, k))
                yield scale * (np.round(cost, 1) if ties else cost)


@pytest.mark.parametrize("ties", [False, True])
def test_assign_total_cost_equals_scipy(ties):
    for cost in _assign_cases(ties):
        k = len(cost)
        perm = _assign(cost)
        assert np.array_equal(np.sort(perm), np.arange(k))
        rows, cols = linear_sum_assignment(cost)
        best = cost[rows, cols].sum()
        assert cost[np.arange(k), perm].sum() == pytest.approx(best, rel=1e-12, abs=0.0)


def test_assign_equals_scipy_where_the_minimum_is_unique():
    # continuous random entries: no two permutations share the minimum
    for cost in _assign_cases(ties=False):
        rows, cols = linear_sum_assignment(cost)
        assert np.array_equal(_assign(cost)[rows], cols)


def test_match_endmembers_recovers_a_column_shuffle():
    rng = np.random.default_rng(15)
    m = gen_endmembers(40, 8, seed=15)
    order = rng.permutation(8)
    perm = match_endmembers(m, 2.0 * m[:, order])
    assert np.array_equal(order[perm], np.arange(8))


def test_sad_error_scores_scipys_matching():
    rng = np.random.default_rng(16)
    for k in (1, 3, 6):
        m = rng.uniform(0.1, 1.0, (12, k))
        m_hat = rng.uniform(0.1, 1.0, (12, k))
        sad = _sad_matrix(m, m_hat)
        rows, cols = linear_sum_assignment(sad)
        mean, per = sad_error(m, m_hat)
        assert np.array_equal(per, sad[rows, cols])
        assert mean == float(sad[rows, cols].mean())


class _TwoPixelCube:
    """Stand-in with magnitudes 1 and 1/3: <|y|>^2 / <|y|^2> = 0.8 exactly."""

    def pixel_matrix(self):
        return np.array([[1.0, 1.0 / 3.0]])


def test_bound_check_values():
    flat = ScalingField(values=np.ones(16384))
    assert bound_check(flat, _TwoPixelCube()) == 0.0  # zero variance

    assert norm_concentration_ratio(_TwoPixelCube()) == pytest.approx(0.8)
    sigma = ScalingField.from_raw(np.array([1.3, 0.7, 1.3, 0.7]))
    expected = math.sqrt((np.var(sigma.values) * (1.0 - 0.8)) / 4)
    assert bound_check(sigma, _TwoPixelCube()) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("extra", [-1, 1, 2, None])
def test_norm_concentration_ratio_equals_the_one_shot_formula(extra):
    step = chunk_width(50)
    n = 2 * step + 1 if extra is None else step + extra
    pixels = np.random.default_rng(24).uniform(0.0, 1.0, (50, n))
    norms = np.linalg.norm(pixels, axis=0)
    want = float(norms.mean() ** 2 / np.mean(norms**2))
    assert norm_concentration_ratio(HsiCube(pixels.reshape(50, 1, n))) == want


def test_bound_check_allocates_at_most_a_chunk():
    cube = HsiCube(np.random.default_rng(25).uniform(0.0, 1.0, (64, 256, 256)))
    mu = ScalingField.from_raw(np.random.default_rng(26).uniform(0.5, 1.5, cube.n_pixels))
    tracemalloc.start()
    try:
        bound_check(mu, cube)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk of squares beside two pixel-length vectors (the norms and
    # their squares); the one-shot norm squared the whole 33 MB cube
    assert peak <= CHUNK_BYTES + 2 * 8 * cube.n_pixels


def test_bound_halves_when_n_quadruples():
    # the alternating pattern has variance 0.09 at every even length
    small = ScalingField(values=1.0 + 0.3 * np.array([1.0, -1.0] * 2048))
    large = ScalingField(values=1.0 + 0.3 * np.array([1.0, -1.0] * 8192))
    assert np.var(small.values) == pytest.approx(np.var(large.values), rel=1e-12)
    b1 = bound_check(small, _TwoPixelCube())
    b2 = bound_check(large, _TwoPixelCube())
    assert b2 == pytest.approx(0.5 * b1, rel=1e-12)


def test_bound_formula_spec_case():
    # variance exactly 0.09 at N=16384 with norm ratio 0.8
    values = 1.0 + 0.3 * np.array([1.0, -1.0] * 8192)
    mu = ScalingField(values=values)
    got = bound_check(mu, _TwoPixelCube())
    assert got == pytest.approx(math.sqrt(0.09 * (1 - 0.8) / 16384), rel=1e-12)
    # reference arithmetic at ratio 0.9: sqrt(0.009/16384) ~ 7.4e-4
    assert math.sqrt((0.09 - 0.09 * 0.9) / 16384) == pytest.approx(7.4e-4, abs=2e-5)


def test_placement_error_zero_for_true_normal():
    rng = np.random.default_rng(15)
    normal = np.array([1.0, 1.0]) / math.sqrt(2.0)
    tangent = np.array([-1.0, 1.0]) / math.sqrt(2.0)
    pts = 2.0 * normal[:, None] + tangent[:, None] * rng.uniform(-1, 1, 50)
    assert hyperplane_placement_error(pts, normal) < 1e-12
    tilted = np.array([1.0, 0.8])
    assert hyperplane_placement_error(pts, tilted) > 1e-3
