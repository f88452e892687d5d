"""Semi-Markov market microstructure simulation and verification toolkit.

Simulates markets of inert investors whose trading moods follow stationary
semi-Markov processes with heavy-tailed inactivity, computes the associated
Markov-renewal quantities and limit constants numerically, and verifies the
convergence of rescaled aggregate order flow to fractional-Brownian limits.
"""

__version__ = "0.1.0"

from .distributions import Exponential, Pareto, ParetoLog, SojournLaw, Uniform
from .paths import SamplePath
from .semi_markov import (
    SemiMarkovModel,
    StationaryLaw,
    Trajectory,
    expected_visits_before_hit,
    hurst_from_alpha,
    limit_constant_c2,
    sample_path,
    sample_stationary_path,
    stationary_law,
    validate_model,
)
from .renewal import (
    Grid,
    GridFunction,
    asymptotic_covariance,
    covariance_gamma,
    first_passage,
    key_renewal_asymptote,
    stationary_transition,
    tail_constant_Cj,
    variance_of_integral,
)
from .fbm import (
    HurstEstimate,
    fgn_autocovariance,
    hurst_aggregated_variance,
    hurst_variogram,
    quadratic_variation,
    sample_fbm,
    sample_fgn,
)
from .market import (
    AggregatePath,
    AmplitudeModel,
    MarketConfig,
    markov_market,
    mixed_market,
    simulate_amplitude,
    simulate_market,
)
from .integrals import (
    PartitionLadder,
    cross_variation,
    integration_by_parts_residual,
    self_integral_identity,
    stieltjes_integral,
)
from .config import load_model, model_from_dict
