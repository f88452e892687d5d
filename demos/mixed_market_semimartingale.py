"""Mixed inert+active market: quadratic variation separates the two limits.

The combined rescaled flow, inert plus active block, approximates
c1 B^H + c2 sqrt(rho) W.  Refining the sampling grid, the inert block's
quadratic variation vanishes (H > 1/2) while the combined path's stabilises at
the Wiener level c2^2 rho T.  One inert block serves every rho.
"""
from semimarket import (
    AmplitudeModel,
    MarketConfig,
    load_model,
    mixed_market,
    model_from_dict,
    quadratic_variation,
    wiener_constant_c2,
)
from semimarket.experiments import LIMIT_MODEL
from semimarket.paths import SamplePath

inert_model = model_from_dict(LIMIT_MODEL)
markov_model = load_model("configs/markov.json")

# c2^2 = 2 ∫ gamma in closed form, from the Markov chain's deviation matrix
c2_sq = wiener_constant_c2(markov_model)
print("active-block Wiener coefficient c2^2 =", round(c2_sq, 4))

rhos, horizon = (0.5, 1.0), 8.0
cfg = MarketConfig(model=inert_model, n_agents=200, epsilon=1e-4,
                   amplitude=AmplitudeModel(),
                   horizon=horizon, seed=3, n_grid=2**11 + 1)
inert, actives = mixed_market(cfg, rhos, markov_model)
for rho, active in zip(rhos, actives):
    combined = SamplePath(cfg.dt, inert.x_scaled + active.x_scaled)
    print(f"rho = {rho} (Wiener level {c2_sq * rho * horizon:.3f}):")
    for block in (64, 16, 4):
        qv_c = quadratic_variation(combined, block=block)
        qv_i = quadratic_variation(SamplePath(cfg.dt, inert.x_scaled), block=block)
        print(f"  block {block:3d}: combined QV = {qv_c:6.3f}, inert-only QV = {qv_i:.3f}")
