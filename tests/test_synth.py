from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from hsiscale import (
    SynthConfig,
    ValidationError,
    gen_scene,
    read_cube,
    write_scene,
)
import hsiscale.synth as synth_module
from hsiscale.fields import gaussian_random_field, matern_covariance
from hsiscale.synth import _covariance_fn, _sad, gen_abundance_field, gen_endmembers, gen_scaling_field


def cfg(**kw):
    base = dict(height=32, width=32, bands=24, endmembers=4, scale_std=0.3, seed=0)
    base.update(kw)
    return SynthConfig(**base)


# ------------------------------------------------------------ endmembers

def test_endmembers_pairwise_separation():
    for seed in range(4):
        m = gen_endmembers(40, 5, seed)
        for i in range(5):
            for j in range(i + 1, 5):
                assert _sad(m[:, i], m[:, j]) >= 0.1


def test_endmembers_value_range_and_shape():
    m = gen_endmembers(30, 3, seed=7)
    assert m.shape == (30, 3)
    assert m.min() >= 0.05 and m.max() <= 0.95


def test_endmembers_deterministic():
    assert np.array_equal(gen_endmembers(25, 4, 3), gen_endmembers(25, 4, 3))


def test_endmembers_requires_enough_bands():
    with pytest.raises(ValidationError):
        gen_endmembers(2, 3, 0)


def test_endmembers_refuse_one_band():
    # a one-band curve is a single point, flat on every draw
    with pytest.raises(ValidationError, match="at least two bands"):
        gen_endmembers(1, 1, 0)


# ------------------------------------------------------ Matern covariance

def matern_bessel(r, corr_length, nu=1.5):
    """The general Matern formula, 2^(1-nu)/Gamma(nu) x^nu K_nu(x), x = sqrt(2 nu) r / l."""
    x = np.sqrt(2.0 * nu) * r / corr_length
    out = np.ones_like(x)
    pos = x > 0
    out[pos] = 2.0 ** (1.0 - nu) / special.gamma(nu) * x[pos] ** nu * special.kv(nu, x[pos])
    return out


def test_matern_closed_form_matches_bessel_formula_on_scene_distances(monkeypatch):
    # the torus distances gen_scene's fields are embedded on, at short and long lengths
    calls = []

    def recorded(r, corr_length):
        calls.append((r, corr_length))
        return matern_covariance(r, corr_length)

    monkeypatch.setattr(synth_module, "matern_covariance", recorded)
    for length in (0.7, 3.0, 8.0, 16.0):
        gen_scene(cfg(height=40, width=24, correlation_length=length, scale_correlation_length=length))
    assert {length for _, length in calls} == {0.7, 3.0, 8.0, 16.0}
    for r, length in calls:
        want = matern_bessel(r, length)
        got = matern_covariance(r, length)
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


def test_matern_is_exactly_one_at_zero_distance():
    for length in (0.7, 3.0, 1e300):
        assert matern_covariance(np.zeros(3), length).tolist() == [1.0, 1.0, 1.0]
    assert matern_covariance(0.0, 3.0) == 1.0


# ------------------------------------------------------- abundance fields

def test_field_stack_equals_fields_drawn_one_at_a_time():
    # one embedding for the stack; each field takes the next draws of the stream
    cov = _covariance_fn(cfg(), 3.0)
    one_rng, stack_rng = np.random.default_rng(4), np.random.default_rng(4)
    singles = [gaussian_random_field(12, 9, cov, one_rng, 1)[0] for _ in range(3)]
    assert np.array_equal(gaussian_random_field(12, 9, cov, stack_rng, 3), np.stack(singles))


def test_abundance_simplex_constraints():
    a = gen_abundance_field(cfg())
    assert a.shape == (4, 32 * 32)
    assert np.min(a) >= 0.0
    assert np.max(np.abs(a.sum(axis=0) - 1.0)) <= 1e-9


def test_abundance_short_correlation_decorrelates():
    a = gen_abundance_field(cfg(correlation_length=0.5))
    field = a[0].reshape(32, 32)
    x = field[:, :-5].ravel()
    y = field[:, 5:].ravel()
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.2


def test_abundance_deterministic():
    assert np.array_equal(gen_abundance_field(cfg()), gen_abundance_field(cfg()))


def test_abundance_spheric_kind():
    a = gen_abundance_field(cfg(field_kind="spheric"))
    assert np.max(np.abs(a.sum(axis=0) - 1.0)) <= 1e-9


# --------------------------------------------------------- scaling fields

def test_scaling_zero_std_is_ones():
    field = gen_scaling_field(cfg(scale_std=0.0))
    assert np.all(field.values == 1.0)


def test_scaling_moments():
    field = gen_scaling_field(cfg(height=128, width=128, scale_std=0.3))
    assert 0.999 <= field.values.mean() <= 1.001
    assert 0.285 <= field.values.std() <= 0.315


def test_scaling_seeds_differ():
    a = gen_scaling_field(cfg(seed=1))
    b = gen_scaling_field(cfg(seed=2))
    assert np.max(np.abs(a.values - b.values)) > 0.01


def test_scaling_clamp_warning_near_limit():
    with pytest.warns(UserWarning, match="clamp"):
        gen_scaling_field(cfg(height=96, width=96, scale_std=0.45, seed=8))


def test_scale_std_range_enforced():
    with pytest.raises(ValidationError):
        cfg(scale_std=0.6)
    with pytest.raises(ValidationError):
        cfg(scale_std=-0.1)


def test_config_refuses_non_finite_values():
    # an infinite correlation length makes the covariance all ones, one
    # distinct abundance pixel; a NaN snr_db a non-finite cube
    nan, inf = float("nan"), float("inf")
    for field, value in [
        ("correlation_length", nan),
        ("correlation_length", inf),
        ("scale_correlation_length", nan),
        ("scale_correlation_length", inf),
        ("snr_db", nan),
        ("snr_db", -inf),
    ]:
        with pytest.raises(ValidationError, match=f"^{field} "):
            cfg(**{field: value})
    # +inf dB is a noise-free scene
    infinite_snr = gen_scene(cfg(height=8, width=8, seed=3, snr_db=inf))
    no_snr = gen_scene(cfg(height=8, width=8, seed=3))
    assert np.array_equal(infinite_snr.scaled_cube.data, no_snr.scaled_cube.data)


def test_moment_control_across_seeds():
    stds = [gen_scaling_field(cfg(height=64, width=64, seed=s)).values.std() for s in range(10)]
    assert 0.285 <= np.mean(stds) <= 0.315


# ----------------------------------------------------------------- scenes

def test_scene_zero_std_bit_identical():
    scene = gen_scene(cfg(scale_std=0.0))
    assert np.array_equal(scene.clean_cube.data, scene.scaled_cube.data)


def test_scene_ratio_is_exactly_mu():
    scene = gen_scene(cfg(seed=5))
    expected = scene.clean_cube.pixel_matrix() * scene.mu_true.values[None, :]
    assert np.array_equal(expected, scene.scaled_cube.pixel_matrix())


def test_scene_deterministic():
    a = gen_scene(cfg(seed=9))
    b = gen_scene(cfg(seed=9))
    assert np.array_equal(a.scaled_cube.data, b.scaled_cube.data)
    assert np.array_equal(a.truth.abundances, b.truth.abundances)


def test_scene_with_noise_flag():
    scene = gen_scene(cfg(seed=2, snr_db=30.0))
    diff = scene.scaled_cube.pixel_matrix() - scene.clean_cube.pixel_matrix() * scene.mu_true.values
    assert np.max(np.abs(diff)) > 0  # noise actually applied
    assert np.min(scene.scaled_cube.data) >= 0.0


def test_noisy_scene_is_the_one_shot_expression():
    # a cube over one chunk, so the scene's arrays take pages of their own
    config = cfg(height=64, width=64, bands=40, seed=2, snr_db=30.0)
    scaled = gen_scene(replace(config, snr_db=None)).scaled_cube.data
    rng = synth_module._role_rng(config.seed, synth_module._ROLE_NOISE)
    noise_std = np.sqrt(float(np.mean(scaled**2)) / 10.0 ** (config.snr_db / 10.0))
    want = np.clip(scaled + noise_std * rng.standard_normal(scaled.shape), 0.0, None)
    assert np.array_equal(gen_scene(config).scaled_cube.data, want)


def test_benchmark_scale_config_accepted():
    # full benchmark-scale generation is exercised in the acceptance suite;
    # here only the config must validate
    SynthConfig(height=128, width=128, bands=431, endmembers=5, scale_std=0.3, seed=0)


def test_write_scene_layout(tmp_path):
    config = cfg(height=8, width=9, bands=12, endmembers=3, seed=4)
    scene = gen_scene(config)
    write_scene(scene, config, tmp_path)
    for name in ("clean.hsic", "scaled.hsic", "endmembers.csv", "abundances.csv", "mu_true.f32", "config.json"):
        assert (tmp_path / name).exists()
    back = read_cube(tmp_path / "scaled.hsic")
    assert back.data.shape == (12, 8, 9)
