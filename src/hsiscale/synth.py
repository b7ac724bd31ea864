"""Synthetic linear-mixture scenes with controllable scale distortion.

A scene is built from procedural smooth endmember spectra, Gaussian-random-
field abundances pushed onto the simplex, and a spatially correlated
positive scale field of prescribed standard deviation. Everything is a
pure function of (config, seed).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, asdict
from functools import partial
from pathlib import Path

import numpy as np

from .correct import ScalingField, apply_scaling
from .cube import GroundTruth, HsiCube, page_array
from .errors import GenerationError, ValidationError
from .fields import gaussian_random_field, matern_covariance, spherical_covariance
from .fileio import save_vector, write_cube, write_matrix_csv

FIELD_KINDS = ("matern", "spheric")
# minimum spectral angle between generated endmember signatures
MIN_ENDMEMBER_SAD = 0.1
MAX_RESAMPLES = 100
SCALE_CLAMP = 0.1
# role indices for per-generator seed streams, so calling a generator
# directly or through gen_scene yields the same draws
_ROLE_ENDMEMBERS, _ROLE_ABUNDANCE, _ROLE_SCALING, _ROLE_NOISE = range(4)


@dataclass(frozen=True)
class SynthConfig:
    """Scene-generation settings."""

    height: int
    width: int
    bands: int
    endmembers: int
    field_kind: str = "matern"
    correlation_length: float = 3.0
    scale_std: float = 0.3
    scale_correlation_length: float = 6.0
    seed: int = 0
    snr_db: float | None = None  # optional white noise on the scaled cube

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValidationError("grid dimensions must be positive")
        if self.endmembers < 2:
            raise ValidationError("need at least two endmembers")
        if self.bands < self.endmembers:
            raise ValidationError("need at least as many bands as endmembers")
        if self.field_kind not in FIELD_KINDS:
            raise ValidationError(f"field_kind must be one of {FIELD_KINDS}")
        if not 0.0 <= self.scale_std <= 0.5:
            raise ValidationError("scale_std must lie in [0, 0.5]")
        for name in ("correlation_length", "scale_correlation_length"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValidationError(f"{name} must be finite and positive, got {value}")
        # +inf is a noise-free cube; NaN and -inf would make a non-finite one
        if self.snr_db is not None and not self.snr_db > -np.inf:
            raise ValidationError(f"snr_db must be a number or +inf, got {self.snr_db}")

    @property
    def n_pixels(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class SynthScene:
    """A generated scene: clean cube, scaled cube, and its ground truth."""

    clean_cube: HsiCube
    scaled_cube: HsiCube
    truth: GroundTruth
    mu_true: ScalingField


def _role_rng(seed: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[role])


def _covariance_fn(config: SynthConfig, corr_length: float):
    if config.field_kind == "spheric":
        return partial(spherical_covariance, corr_length=corr_length)
    return partial(matern_covariance, corr_length=corr_length)


def _unit_curve(bands: int, rng: np.random.Generator) -> np.ndarray:
    """One smooth min-0/max-1 curve from a few Gaussian bumps plus a ramp."""
    x = np.linspace(0.0, 1.0, bands)
    for _ in range(MAX_RESAMPLES + 1):
        curve = rng.uniform(-1.0, 1.0) * x
        for _ in range(int(rng.integers(3, 7))):
            center = rng.uniform(0.0, 1.0)
            width = rng.uniform(0.05, 0.25)
            amp = rng.uniform(-1.0, 1.0)
            curve += amp * np.exp(-0.5 * ((x - center) / width) ** 2)
        span = curve.max() - curve.min()
        if span >= 1e-9:
            return (curve - curve.min()) / span
    raise GenerationError(f"spectral curve stayed flat after {MAX_RESAMPLES} resamples")


def _sad(a: np.ndarray, b: np.ndarray) -> float:
    cos = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def gen_endmembers(bands: int, count: int, seed: int) -> np.ndarray:
    """Procedural endmember matrix with enforced pairwise angular separation.

    Signatures mimic a real material library: one shared spectral envelope
    with per-column smooth perturbations just past the separation floor
    (closely related materials), and reflectance ranges laddered from
    bright anchors down to dim, dark-material columns. All values stay in
    [0.05, 0.95]; every pair of columns is at least MIN_ENDMEMBER_SAD
    radians apart.
    """
    if bands < 2:
        raise ValidationError(f"need at least two bands, got {bands}")
    if bands < count:
        raise ValidationError("need at least as many bands as endmembers")
    rng = _role_rng(seed, _ROLE_ENDMEMBERS)

    # geometric ladder of reflectance spans: bright down to dim
    span_hi, span_lo = 0.6, 0.06
    ratio = (span_lo / span_hi) ** (1.0 / max(count - 1, 1))
    spans = span_hi * ratio ** np.arange(count)

    def place(unit: np.ndarray, lo: float, span: float) -> np.ndarray:
        return lo + min(span, 0.95 - lo) * unit

    def draw_lo(span: float) -> float:
        return 0.05 + rng.uniform(0.0, 0.3) * span

    base = _unit_curve(bands, rng)
    columns = [place(base, draw_lo(spans[0]), spans[0])]
    for span in spans[1:]:
        for attempt in range(MAX_RESAMPLES + 1):
            bump = _unit_curve(bands, rng)
            lo = draw_lo(span)
            accepted = None
            # smallest envelope perturbation that clears the separation floor
            for eps in np.linspace(0.05, 3.0, 60):
                mixed = base + eps * bump
                unit = (mixed - mixed.min()) / (mixed.max() - mixed.min())
                cand = place(unit, lo, span)
                if all(_sad(cand, prev) >= MIN_ENDMEMBER_SAD for prev in columns):
                    accepted = cand
                    break
            if accepted is not None:
                columns.append(accepted)
                break
        else:
            raise GenerationError(
                f"could not separate endmember spectra after {MAX_RESAMPLES} resamples"
            )
    return np.column_stack(columns)


def gen_abundance_field(config: SynthConfig) -> np.ndarray:
    """Simplex-valued abundance maps from smooth Gaussian random fields.

    One field per endmember; negative field values are cut to zero, the
    rest squared, and each pixel normalized to sum one. This yields the
    patchy maps typical of mixing benchmarks: regions where a material is
    entirely absent, near-pure patch cores, and smooth mixed boundaries.
    Pixels where every field is non-positive collapse to the largest
    field's endmember.
    """
    rng = _role_rng(config.seed, _ROLE_ABUNDANCE)
    cov = _covariance_fn(config, config.correlation_length)
    fields = gaussian_random_field(config.height, config.width, cov, rng, config.endmembers)
    fields = fields.reshape(config.endmembers, config.n_pixels)
    weights = np.clip(fields, 0.0, None) ** 2
    totals = weights.sum(axis=0)
    dead = totals <= 0.0
    if dead.any():
        winners = fields[:, dead].argmax(axis=0)
        weights[winners, np.nonzero(dead)[0]] = 1.0
        totals = weights.sum(axis=0)
    return weights / totals


def gen_scaling_field(config: SynthConfig) -> ScalingField:
    """Smooth positive scale factors with mean one and the requested std.

    Built as 1 + std * g for a standardized correlated field g, clamped at
    SCALE_CLAMP and re-standardized afterwards. A clamp touching more than
    1% of pixels triggers a warning (the requested std is barely feasible).
    """
    n = config.n_pixels
    if config.scale_std == 0.0:
        return ScalingField(values=np.ones(n))
    rng = _role_rng(config.seed, _ROLE_SCALING)
    cov = _covariance_fn(config, config.scale_correlation_length)
    g = gaussian_random_field(config.height, config.width, cov, rng, 1).ravel()
    std = g.std()
    if std < 1e-12:
        raise GenerationError("scale field collapsed to a constant")
    g = (g - g.mean()) / std

    mu = 1.0 + config.scale_std * g
    clamped = int(np.count_nonzero(mu < SCALE_CLAMP))
    if clamped > 0.01 * n:
        warnings.warn(
            f"scale clamp at {SCALE_CLAMP} binds on {clamped}/{n} pixels; "
            f"std {config.scale_std} is at the edge of feasibility",
            stacklevel=2,
        )
    for _ in range(5):
        if not np.any(mu < SCALE_CLAMP):
            break
        np.clip(mu, SCALE_CLAMP, None, out=mu)
        mu = 1.0 + (mu - mu.mean()) * (config.scale_std / mu.std())
    mu += 1.0 - mu.mean()
    return ScalingField(values=mu)


def gen_scene(config: SynthConfig) -> SynthScene:
    """Generate a full scene: clean mixture, scale-distorted copy, truth."""
    endmembers = gen_endmembers(config.bands, config.endmembers, config.seed)
    abundances = gen_abundance_field(config)
    mu = gen_scaling_field(config)
    truth = GroundTruth(endmembers=endmembers, abundances=abundances)

    clean_pixels = np.matmul(endmembers, abundances, out=page_array((config.bands, config.n_pixels)))
    clean = HsiCube(clean_pixels.reshape(config.bands, config.height, config.width))
    scaled = apply_scaling(clean, mu)
    if config.snr_db is not None:
        rng = _role_rng(config.seed, _ROLE_NOISE)
        signal_power = float(np.mean(scaled.data**2))
        noise_std = np.sqrt(signal_power / 10.0 ** (config.snr_db / 10.0))
        # in place, in the rounding order of scaled + noise_std * z
        noisy = rng.standard_normal(out=page_array(scaled.data.shape))
        noisy *= noise_std
        noisy += scaled.data
        scaled = HsiCube(np.clip(noisy, 0.0, None, out=noisy))

    return SynthScene(clean_cube=clean, scaled_cube=scaled, truth=truth, mu_true=mu)


def write_scene(scene: SynthScene, config: SynthConfig, out_dir) -> None:
    """Write the standard scene directory layout."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_cube(scene.clean_cube, out / "clean.hsic")
    write_cube(scene.scaled_cube, out / "scaled.hsic")
    write_matrix_csv(scene.truth.endmembers, out / "endmembers.csv")
    write_matrix_csv(scene.truth.abundances, out / "abundances.csv")
    save_vector(scene.mu_true.values, out / "mu_true.f32")
    (out / "config.json").write_text(json.dumps(asdict(config), indent=2) + "\n")
