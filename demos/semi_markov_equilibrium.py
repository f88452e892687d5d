"""Build the three-mood trading model, validate it, and examine its equilibrium.

States are -1 (selling), 0 (inactive, heavy-tailed sojourns), +1 (buying).
The stationary law fixes the occupation measure nu, mean recurrence times eta,
and the drift mu; the limit constant c^2 exists only when the drift condition
mu * sum_k k m_k / eta_k^2 > 0 holds.
"""
import numpy as np

from semimarket import (
    expected_visits_before_hit,
    limit_constant_c2,
    load_model,
    sample_stationary_path,
    stationary_law,
    validate_model,
)
from semimarket.semi_markov import theorem_condition_value

for name in ("example_a", "asymmetric"):
    model = load_model(f"configs/{name}.json")
    print(f"--- {name} ---")
    print("violations:", validate_model(model) or "none")
    law = stationary_law(model)
    print("pi :", np.round(law.pi, 4))
    print("nu :", np.round(law.nu, 4), " mu:", round(law.mu, 4))
    print("eta:", np.round(law.eta, 4))
    print("expected inactive visits between returns to +1:",
          expected_visits_before_hit(model, 1, 1))
    holds, product, _, _ = theorem_condition_value(model)
    print("drift condition holds:", bool(holds), " product:", round(product, 6))
    if holds:
        print("limit constant c^2 =", round(limit_constant_c2(model), 6),
              " Hurst:", model.hurst())

# occupation fractions of one stationary path against nu
model = load_model("configs/example_a.json")
law = stationary_law(model)
traj = sample_stationary_path(model, 20000.0, np.random.default_rng(7))
durations = np.diff(np.append(traj.jump_times, traj.horizon))
occ = np.array([durations[traj.states == s].sum() for s in (-1, 0, 1)]) / traj.horizon
print("occupation fractions over one long path:", np.round(occ, 4), " nu:", law.nu)
