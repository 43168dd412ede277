"""Asymptotic-coupling simulators and statistical diagnostics.

Subpackages mirror the pipeline: exact measure algebra (``measures``),
sparse indexed polynomials (``polynomials``), the four example systems
(``models``), their binding forces (``binding``), coupled time
integration with Girsanov accounting (``engine``), statistical
verification (``estimators``), and the experiment harness (``config``,
``presets``, ``cli``).
"""

from .binding import (
    BindingError,
    BindingSpec,
    ZetaCascade,
    build_zeta_cascade,
    dump_cascade_text,
    gl_binding,
    make_binding,
    null_binding,
    rd_binding,
    toy_binding,
)
from .engine import (
    BlowUpError,
    EngineError,
    NoisePath,
    integrate,
    integrate_coupled,
    run_coupled_ensemble,
    run_ensemble,
    sample_noise,
    shift_noise,
)
from .estimators import (
    EstimatorError,
    EstimatorReport,
    axk_table,
    binding_growth_exponents,
    density_diagnostics,
    dual_lipschitz_distance,
    fit_contraction,
    lyapunov_fit,
    mixing_distance_series,
)
from .measures import (
    DiscreteKernel,
    DiscreteMeasure,
    MeasureError,
    compose,
    meet,
    overlap_chi2_bound,
    overlap_chi2_bound_sharp,
    overlap_lower_bound,
    pushforward,
    subtract,
)
from .models import (
    LyapunovSpec,
    ModelError,
    ModelSpec,
    apply_noise,
    chain_k_star,
    drift,
    lyapunov,
    make_chain,
    make_ginzburg_landau,
    make_model,
    make_reaction_diffusion,
    make_toy2d,
)
from .polynomials import (
    IndexedPolynomial,
    PolynomialError,
    PolyVectorField,
    evaluate,
    format_polynomial,
    lie_derivative,
    parse_polynomial,
)

__version__ = "0.1.0"
