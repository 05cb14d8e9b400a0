"""Free multiplicative deconvolution of empirical covariance spectra.

Estimates the population spectral measure behind an observed sample
covariance spectrum by inverting the moment map on its Riemann surface,
dividing out the Marchenko-Pastur S-transform, extracting moments of the
estimate by Lagrange inversion on a circle, and reconstructing a discrete
measure through Hankel/Jacobi recovery.
"""

from .contours import (
    ContourRepresentation,
    choose_m_contour,
    circle_nodes,
)
from .errors import (
    BaselineFailureError,
    DegenerateRamificationError,
    IncompleteRootsError,
    InvalidMomentsError,
    LiftFailureError,
    NoContourError,
    NoisyContourError,
    NumericalError,
    PoleError,
)
from .experiments import (
    SCENARIOS,
    RunReport,
    Scenario,
    baseline_subordination,
    run_scenario,
    sample_spectrum,
    toeplitz_spectrum,
    write_report_csv,
)
from .inversion import critical_points, lift_many, slit_free_radius
from .measures import (
    DiscreteMeasure,
    MarchenkoPastur,
    MomentSequence,
    wasserstein_1,
)
from .pipeline import (
    DeconvConfig,
    DeconvResult,
    deconvolve,
    deconvolve_with_retries,
    forward_contour,
    forward_measure,
    ree_assemble,
)
from .recovery import (
    JacobiCoefficients,
    hankel_factor,
    jacobi_from_moments,
    measure_from_jacobi,
    recover_measure_detailed,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BaselineFailureError",
    "ContourRepresentation",
    "DeconvConfig",
    "DeconvResult",
    "DegenerateRamificationError",
    "DiscreteMeasure",
    "IncompleteRootsError",
    "InvalidMomentsError",
    "JacobiCoefficients",
    "LiftFailureError",
    "MarchenkoPastur",
    "MomentSequence",
    "NoContourError",
    "NoisyContourError",
    "NumericalError",
    "PoleError",
    "RunReport",
    "SCENARIOS",
    "Scenario",
    "baseline_subordination",
    "choose_m_contour",
    "circle_nodes",
    "critical_points",
    "deconvolve",
    "deconvolve_with_retries",
    "forward_contour",
    "forward_measure",
    "hankel_factor",
    "jacobi_from_moments",
    "lift_many",
    "measure_from_jacobi",
    "recover_measure_detailed",
    "ree_assemble",
    "run_scenario",
    "sample_spectrum",
    "slit_free_radius",
    "toeplitz_spectrum",
    "wasserstein_1",
    "write_report_csv",
]
