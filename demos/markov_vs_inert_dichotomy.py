"""Centered heavy-tailed vs all-exponential markets: both scale like Wiener.

When the stationary mean mood is zero (symmetric model) or the sojourns are
all exponential (Markov case), the rescaled imbalance is diffusive: Hurst
estimates concentrate near 1/2 (single-replicate estimates carry +-0.1 noise
at this small budget; the verification experiments use 10 seeds and medians).
"""
import numpy as np

from semimarket import AmplitudeModel, MarketConfig, load_model, markov_market, simulate_market
from semimarket.experiments import market_hurst

for name, runner in (("example_a", simulate_market), ("markov", markov_market)):
    model = load_model(f"configs/{name}.json")
    cfg = MarketConfig(model=model, n_agents=500, epsilon=1e-3,
                       amplitude=AmplitudeModel(),
                       horizon=32.0, seed=5, n_grid=2**13 + 1)
    estimates = []
    for rep in range(3):
        agg = runner(cfg, replicate=rep)
        vario, _ = market_hurst(agg.path(), min_lag=64, max_lag=1024)
        estimates.append(vario.h_hat)
    print(f"{name:9s}: H estimates per replicate {np.round(estimates, 3)}"
          f"  median {np.median(estimates):.3f} (Wiener target 0.5)")
