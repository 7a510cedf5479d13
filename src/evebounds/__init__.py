"""Upper bounds and a Gram-matrix estimate of an eavesdropper's von Neumann
entropy for discretely modulated continuous-variable QKD under the
entangling-cloner attack, with a truncated Fock-space oracle for
validation."""

from .states import (
    GaussianState,
    SymplecticMap,
    StandardTwoModeCov,
    make_tmsv,
    symplectic_eigenvalues,
    standard_symplectic_spectrum,
    williamson_standard_two_mode,
    entropy_from_cov,
    apply_symplectic,
    partial_trace_modes,
    average_covariance,
    omega,
)
from .linalg import MatchedSVD, matched_svd, principal_sqrt
from .unitaries import (
    BogoliubovPair,
    Displacement,
    Rotation,
    Squeezer,
    bogoliubov_of,
    to_symplectic,
    from_symplectic,
    compose,
    switch_disp_squeezer,
    switch_squeezer_rotation,
    switch_disp_rotation,
)
from .blochmessiah import BMFactors, bloch_messiah, factors_to_circuit
from .cloner import (
    ChannelParams,
    Constellation,
    DisplacedThermalEnsemble,
    qpsk,
    initial_covariance,
    bs_symplectic,
    eve_reduced_covariance,
    eve_thermal_weights,
    displaced_thermal_ensemble,
    eve_average_covariance,
)
from .bounds import (
    gram_matrix,
    gram_entropy,
    gaussian_extremality_entropy,
    bm_get_entropy,
    bm_gme_entropy,
    eb_qpsk_entropy,
)
from .fock import (
    FockConvergenceError,
    fock_thermal,
    fock_tmsv,
    fock_bs,
    fock_partial_trace,
    fock_entropy,
    eve_exact_entropy,
    eb_z4,
)

__version__ = "0.1.0"
