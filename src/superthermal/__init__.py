"""Internal-state coherences of a detector on superposed accelerated paths.

A pointlike multilevel detector rides a quantum superposition of
uniformly accelerated trajectories through the Minkowski vacuum.  To
first order in the coupling, each branch excites a thermal (Unruh)
spectrum; branches whose excitation frequencies align in Rindler energy
leave overlapping field states, and those overlaps show up as
off-diagonal coherences of the detector's internal state after the
trajectory degree of freedom is measured.

The package provides:

* :mod:`superthermal.geometry` — wedge trajectories, branch sets, and
  the dimensionless alignment variables.
* :mod:`superthermal.specfun` — the overlap factor :math:`\\Lambda` and
  the special functions behind it.
* :mod:`superthermal.overlaps` — field-state scalar products, their
  independent quadrature oracles, and convergence diagnostics.
* :mod:`superthermal.detector` — joint, reduced, and post-measurement
  internal matrices, plus the built-in three-trajectory demonstration.
* :mod:`superthermal.continuum` — continuous-spectrum kernels.
* :mod:`superthermal.io` / :mod:`superthermal.cli` — deterministic
  artifact emission and the command-line driver.
"""

from .continuum import (
    CouplingFunction,
    SmearedAmplitude,
    continuum_joint_kernel,
    continuum_offdiag_coefficient,
    continuum_spectrum_slice,
)
from .detector import (
    BlockDensity,
    DetectorSpec,
    MeasurementBasisVector,
    PaperExampleResult,
    compare_with_reference,
    joint_state,
    load_reference_matrix,
    measured_internal,
    neglog_matrix,
    paper_example,
    reduced_internal,
)
from .geometry import (
    MU,
    RegimeReport,
    Trajectory,
    TrajectorySet,
    WedgeError,
    coherence_condition,
    delta_xbar,
    delta_xi,
    minkowski_to_rindler,
    rindler_to_minkowski,
    validate_regime,
)
from .overlaps import (
    ConvergenceReport,
    ConvergenceRow,
    OverlapDiagnostics,
    OverlapResult,
    QuadratureError,
    convergence_report,
    diag_overlap,
    offdiag_overlap,
    oracle_lambda_quadrature,
    oracle_overlap_finite_t,
    overlap_diagnostics,
)
from .specfun import (
    bessel_j0,
    bessel_k_imag,
    lambda_axis_xbar,
    lambda_axis_xi,
    lambda_overlap,
    planck_weight,
)

__version__ = "0.1.0"

__all__ = [
    "MU",
    "BlockDensity",
    "ConvergenceReport",
    "ConvergenceRow",
    "CouplingFunction",
    "DetectorSpec",
    "MeasurementBasisVector",
    "OverlapDiagnostics",
    "OverlapResult",
    "PaperExampleResult",
    "QuadratureError",
    "RegimeReport",
    "SmearedAmplitude",
    "Trajectory",
    "TrajectorySet",
    "WedgeError",
    "bessel_j0",
    "bessel_k_imag",
    "coherence_condition",
    "compare_with_reference",
    "continuum_joint_kernel",
    "continuum_offdiag_coefficient",
    "continuum_spectrum_slice",
    "convergence_report",
    "delta_xbar",
    "delta_xi",
    "diag_overlap",
    "joint_state",
    "lambda_axis_xbar",
    "lambda_axis_xi",
    "lambda_overlap",
    "load_reference_matrix",
    "measured_internal",
    "minkowski_to_rindler",
    "neglog_matrix",
    "offdiag_overlap",
    "oracle_lambda_quadrature",
    "oracle_overlap_finite_t",
    "overlap_diagnostics",
    "paper_example",
    "planck_weight",
    "reduced_internal",
    "rindler_to_minkowski",
    "validate_regime",
    "__version__",
]
