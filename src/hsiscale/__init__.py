"""Scale-variability correction toolkit for hyperspectral images."""

from .correct import (
    CorrectionReport,
    GdConfig,
    HyperplaneModel,
    PsoConfig,
    ScalingField,
    objective_psi,
    run_correction,
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
from .fileio import load_vector, read_cube, write_cube
from .metrics import abundance_rmse, hyperplane_placement_error, match_endmembers, rmse_mu, sad_error
from .reduction import ReducedData, svd_reduce
from .synth import SynthConfig, SynthScene, gen_scene, write_scene
from .unmix import UnmixResult, fcls, nfindr_extract, unmix

__version__ = "0.1.0"
