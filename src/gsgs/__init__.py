"""Gradient-scan Gibbs sampling for high-dimensional Gaussian conditionals.

The engine samples a joint p(x, theta) whose x-conditional is Gaussian with a
matrix-free factored precision, replacing the full Gaussian draw with an
exact excursion along a few conjugate directions seeded by the (perturbed)
gradient. The `superres` module applies it to unsupervised multi-frame
super-resolution; `validate` holds the statistical acceptance suites.
"""

from .conjugate import (
    ConjugateSet,
    PrecisionModel,
    build_conjugate_set,
    densify_precision,
    sample_along,
)
from .diagnostics import (
    MomentSummary,
    autocorrelation,
    cholesky_oracle_sample,
    exact_summary,
    moment_compare,
    summarize,
)
from .engine import (
    ChainRecord,
    ChainState,
    FixedGaussianModel,
    GsgsConfig,
    ThetaModel,
    exact_step,
    gsgs_step,
    run_chain,
)
from .errors import (
    ConfigurationError,
    DegenerateDirectionError,
    DegenerateScaleError,
    DimensionError,
    GsgsError,
    ImageFormatError,
    IndefinitePrecisionError,
    SizeCapError,
)
from .imgio import read_image_f64, read_image_pgm16, write_image_f64, write_image_pgm16
from .operators import (
    CirculantOperator,
    ComposedOperator,
    DecimationOperator,
    DenseOperator,
    IdentityOperator,
    LinearOperator,
    densify,
    make_circulant,
    max_adjoint_defect,
)
from .rng import RngState, gamma_draw, standard_normal_vector
from .superres import (
    Hyperparams,
    SuperResModel,
    SuperResResult,
    SuperResThetaModel,
    build_precision,
    exact_gibbs_reference,
    geometry_operators,
    phantom,
    run_superres,
    sample_hyperparams,
    simulate_data,
)

__version__ = "0.1.0"
