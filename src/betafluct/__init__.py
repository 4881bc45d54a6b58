"""Point-counting statistics for circular and Gaussian beta ensembles.

Samples the Circular beta Ensemble through its Verblunsky coefficients and
the Gaussian beta Ensemble through its tridiagonal matrix model, counts
points in arcs and intervals by phase winding and Sturm pivots, and runs
reproducible Monte Carlo variance scans against the known logarithmic
growth of the number variance.
"""

from .rng import RngStream, gaussian_sample, chi_sample, beta_1s_sample
from .circular import (
    VerblunskyDraw,
    PruferEvaluation,
    PointConfiguration,
    sample_verblunsky,
    prufer_evaluate,
    count_arc,
    cbe_points,
    sine_beta_window,
)
from .circlemap import AffineAction, LiftedCircleMap, lift_affine, angular_shift
from .gaussian import (
    TridiagonalModel,
    ConjugatedModel,
    PhaseSweep,
    CarouselParams,
    CrossCountReport,
    sample_tridiagonal,
    conjugate_model,
    sturm_count,
    phase_sweep,
    carousel_params,
    semicircle_count,
    semicircle_residual,
    relative_phase,
    straightening_map,
    verify_counts,
)
from .stats import (
    ScanSpec,
    ScanRow,
    BoundFit,
    TailCheckResult,
    cue_variance_oracle,
    default_grid,
    variance_scan,
    fit_log_bound,
    tail_check,
    regularity_profile,
)

__version__ = "0.1.0"
