"""Simulate an inert-investor market and estimate the Hurst exponent of the
rescaled integrated order imbalance (small desk-scale budget).

With heavy-tailed inactivity (tail index alpha = 1.5) the rescaled path
approaches an integral against fractional Brownian motion with H = 0.75; the
coarse-lag Hurst estimates land near it already at eps = 1e-3.
"""
from semimarket import AmplitudeModel, MarketConfig, model_from_dict, simulate_market
from semimarket.experiments import LIMIT_MODEL, market_hurst

model = model_from_dict(LIMIT_MODEL)
cfg = MarketConfig(model=model, n_agents=500, epsilon=1e-3,
                   amplitude=AmplitudeModel(),
                   horizon=32.0, seed=11, n_grid=2**13 + 1)
print(f"target H = {model.hurst()}  (alpha = {model.alpha})")
for rep in range(3):
    agg = simulate_market(cfg, replicate=rep)
    vario, aggvar = market_hurst(agg.path(), min_lag=64, max_lag=1024)
    print(f"replicate {rep}: H_variogram = {vario.h_hat:.3f}, "
          f"H_aggvar = {aggvar.h_hat:.3f}, X_T = {agg.x_scaled[-1]:+.3f}")
print("(the full 10-seed verification runs via: semimarket limit-verification)")
