import numpy as np
import pytest

from hsiscale import HsiCube, ReducedData


@pytest.fixture
def worked_reduced():
    """Three 2-D pixels with a hand-computed hyperplane fit.

    mean = (4/3, 2/3); with normal (1,1)/sqrt(2) the scale factors are
    (1.5, 0.5, 1.0) and the projection residual sums to 2.
    """
    pixels = np.array([[3.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    return ReducedData(basis=np.eye(2), pixels=pixels, singular_values=np.array([2.0, 1.0]))


def make_line_data(n_pixels=256, mu_std=0.3, seed=0):
    """Noise-free 2-endmember data on a line segment, scaled pixel-wise.

    Returns (reduced, true_unit_normal, mu) with the reduction being the
    identity embedding, so geometry can be checked by hand.
    """
    rng = np.random.default_rng(seed)
    m = np.array([[1.0, 0.2], [0.3, 0.9]])
    frac = rng.uniform(0.0, 1.0, n_pixels)
    abundances = np.vstack([frac, 1.0 - frac])
    mu = 1.0 + mu_std * rng.standard_normal(n_pixels)
    mu = np.clip(mu, 0.2, None)
    mu /= mu.mean()
    pixels = (m @ abundances) * mu
    reduced = ReducedData(basis=np.eye(2), pixels=pixels, singular_values=np.array([2.0, 1.0]))
    normal = np.linalg.solve(m.T, np.ones(2))
    normal /= np.linalg.norm(normal)
    return reduced, normal, mu


def make_rank_k_cube(bands=6, height=5, width=10, k=3, seed=0, noise=0.0):
    """Cube whose pixels are non-negative combinations of k signatures."""
    rng = np.random.default_rng(seed)
    signatures = rng.uniform(0.1, 0.9, (bands, k))
    weights = rng.uniform(0.05, 1.0, (k, height * width))
    pixels = signatures @ weights
    if noise:
        pixels = pixels + noise * rng.standard_normal(pixels.shape)
        pixels = np.clip(pixels, 0.0, None)
    return HsiCube(pixels.reshape(bands, height, width))


def grid_search_psi(reduced, c_star, step=0.0005):
    """Exhaustive objective scan over normal angles in [0, pi).

    The raw scan is polished with one parabolic sub-grid interpolation
    through the argmin's neighbors (standard grid-oracle practice), so the
    returned value reflects the continuum minimum at the scan's
    resolution rather than the nearest lattice point.
    """
    from hsiscale.correct import _PsiEvaluator

    evaluator = _PsiEvaluator(reduced, c_star)
    thetas = np.arange(0.0, np.pi, step)
    normals = np.column_stack([np.cos(thetas), np.sin(thetas)])
    values = evaluator.batch(normals)
    best = int(np.argmin(values))
    # parabola through the argmin and its cyclic neighbors (period pi)
    lo, hi = (best - 1) % len(thetas), (best + 1) % len(thetas)
    y0, y1, y2 = values[lo], values[best], values[hi]
    denom = y0 - 2.0 * y1 + y2
    theta_best = float(thetas[best])
    psi_best = float(y1)
    if denom > 0:
        offset = 0.5 * float(y0 - y2) / float(denom) * step
        theta_v = theta_best + offset
        psi_v = float(evaluator.value(np.array([np.cos(theta_v), np.sin(theta_v)])))
        if psi_v < psi_best:
            psi_best, theta_best = psi_v, theta_v
    return psi_best, theta_best
