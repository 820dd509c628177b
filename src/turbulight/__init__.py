"""Nonclassical light through fluctuating-loss channels.

Transfer of sub-Poissonian statistics, Bell-test correlations, quadrature
squeezing and Gaussian entanglement through free-space channels whose
transmittance is a random variable, plus the selection strategies
(postselection, preselection, adaptive correlation, copropagation) used
to fight the fluctuations.
"""

__version__ = "0.1.0"

from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureAccuracyError,
    QuadratureSpec,
    integrate,
    integrate2,
)
from .pdt import (
    AdaptiveCorrelated,
    Beta,
    Dirac,
    Empirical,
    EmptySelectionError,
    JointTransmittanceDistribution,
    PerfectlyCorrelated,
    Product,
    Scaled,
    TransmittanceDistribution,
    TruncatedLogNormal,
    adaptive_correlate,
)
from .states import (
    SingleModeGaussian,
    TwoModeMoments,
    squeezed_vacuum,
    squeezed_vacuum_db,
    tmsv,
    variance_to_db,
)
from .channel import (
    arm_statistics,
    attenuate_moment,
    characteristic_out,
    joint_statistics,
    transform_two_mode,
)
from .photocount import (
    MAX_COUNTS,
    DetectorModel,
    PhotonNumberDist,
    count_distribution_coherent,
    count_distribution_fock,
    mandel_out,
    povm_qsymbol,
    sub_poisson_bound,
)
from .bell import (
    DEFAULT_ANGLES_A,
    DEFAULT_ANGLES_B,
    BellSettings,
    BellSingularityError,
    SweepPoint,
    bell_parameter,
    bell_sweep,
    click_probabilities,
    correlation,
)
from .homodyne import (
    HomodyneModel,
    SqueezeSweepPoint,
    noisy_variance,
    postselect_sweep,
    squeeze_out,
)
from .entangle import (
    CertifierResult,
    MomentMatrix,
    dgcz_certifier,
    dgcz_matrix,
    dgcz_out_closed,
    dgcz_out_correlated,
    preservation_domain,
    simon_certifier,
    simon_matrix,
)

__all__ = [
    "__version__",
    # numerics
    "DEFAULT_QUADRATURE",
    "QuadratureAccuracyError",
    "QuadratureSpec",
    "integrate",
    "integrate2",
    # transmittance laws
    "AdaptiveCorrelated",
    "Beta",
    "Dirac",
    "Empirical",
    "EmptySelectionError",
    "JointTransmittanceDistribution",
    "PerfectlyCorrelated",
    "Product",
    "Scaled",
    "TransmittanceDistribution",
    "TruncatedLogNormal",
    "adaptive_correlate",
    # states
    "SingleModeGaussian",
    "TwoModeMoments",
    "squeezed_vacuum",
    "squeezed_vacuum_db",
    "tmsv",
    "variance_to_db",
    # channel maps
    "arm_statistics",
    "attenuate_moment",
    "characteristic_out",
    "joint_statistics",
    "transform_two_mode",
    # photocounting
    "MAX_COUNTS",
    "DetectorModel",
    "PhotonNumberDist",
    "count_distribution_coherent",
    "count_distribution_fock",
    "mandel_out",
    "povm_qsymbol",
    "sub_poisson_bound",
    # Bell test
    "DEFAULT_ANGLES_A",
    "DEFAULT_ANGLES_B",
    "BellSettings",
    "BellSingularityError",
    "SweepPoint",
    "bell_parameter",
    "bell_sweep",
    "click_probabilities",
    "correlation",
    # homodyne squeezing
    "HomodyneModel",
    "SqueezeSweepPoint",
    "noisy_variance",
    "postselect_sweep",
    "squeeze_out",
    # Gaussian entanglement
    "CertifierResult",
    "MomentMatrix",
    "dgcz_certifier",
    "dgcz_matrix",
    "dgcz_out_closed",
    "dgcz_out_correlated",
    "preservation_domain",
    "simon_certifier",
    "simon_matrix",
]
