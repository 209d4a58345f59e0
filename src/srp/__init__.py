"""Stochastic restoration-prior gradient solver for linear inverse problems.

The solver alternates degraded observations of the current iterate through a
randomly selected linear degradation operator with gradient steps on a
least-squares fidelity plus a restoration-residual regularizer. Under a
Gaussian-mixture prior every restoration operator is an exact posterior
mean, so the regularizer, its gradient identity, the bias of inexact
operators and the convergence bound are all computable and checkable.
"""

from .operators import (
    CircularConvolution,
    Composition,
    ConvexCombination,
    CoordinateMask,
    DegradationEnsemble,
    DenseMatrix,
    DimensionMismatch,
    DiscreteFourier,
    FoldDownsample,
    Identity,
    LinearOperator,
    Scale,
    deinterleave,
    interleave,
    masked_fourier,
    sample_degradation,
)
from .priors import (
    GmmPrior,
    LinearGaussianPosterior,
    ObservationModel,
    mmse_restore,
    observation_logpdf,
    observation_score,
)
from .restoration import (
    Biased,
    ConstantOffset,
    ExactMmse,
    Gain,
    Smoothing,
    bias_vector,
)
from .objective import (
    Problem,
    Regularizer,
    fidelity,
    fidelity_grad,
    fidelity_lipschitz,
    reg_grad_exact,
    reg_value_exact,
    reg_value_mc,
    stochastic_grad,
    variance_probe,
)
from .oracle import QuadratureGrid, oracle_grad, oracle_mmse, oracle_reg_value
from .solver import (
    AuditProbes,
    AuditReport,
    DivergenceError,
    SolverConfig,
    Trace,
    audit_convergence,
    run,
    solver_streams,
)
from .metrics import magnitude, psnr, ssim
from .config import ExperimentConfig, build_experiment
from .experiment import audit_experiment, run_experiment, simulate_measurement

__version__ = "0.1.0"
