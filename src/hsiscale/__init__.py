"""Scale-variability correction toolkit for hyperspectral images."""

from .correct import (
    CorrectionReport,
    GdConfig,
    HyperplaneModel,
    PsoConfig,
    ScalingField,
    apply_scaling,
    candidate_normals,
    correct_pixels,
    estimate_scaling,
    gd_refine,
    newton_refine,
    objective_psi,
    pso_minimize,
    run_correction,
    search_normal,
)
from .cube import GroundTruth, HsiCube
from .errors import (
    DegenerateDataError,
    DimensionError,
    FormatError,
    GenerationError,
    HsiScaleError,
    NearOrthogonalNormalError,
    NumericError,
    OptimizationError,
    ValidationError,
)
from .fileio import load_vector, read_cube, save_vector, write_cube
from .metrics import (
    abundance_rmse,
    bound_check,
    hyperplane_placement_error,
    match_endmembers,
    rmse_mu,
    sad_error,
)
from .reduction import ReducedData, svd_reduce
from .synth import SynthConfig, SynthScene, gen_abundance_field, gen_endmembers, gen_scaling_field, gen_scene, write_scene
from .unmix import UnmixResult, fcls, nfindr_extract, unmix

__version__ = "0.1.0"
