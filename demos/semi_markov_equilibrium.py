"""Build the three-mood trading model and examine its equilibrium.

Building a model checks it: a model that breaks an assumption of the limit
theorem raises a ValueError listing every problem.

States are -1 (selling), 0 (inactive, heavy-tailed sojourns), +1 (buying).
The stationary law fixes the occupation measure nu, mean recurrence times eta,
and the drift mu.  By the cycle formula the expected inactive visits between
two entrances to +1 are E N_1 = pi_0 / pi_1, so the tail constants
C_j = pi_0 nu_j / (pi . m) and the limit constant
c^2 = pi_0 mu^2 / ((pi . m) 2H(1-H)(2H-1)) come straight from the law; c^2
exists only when the drift condition mu * sum_k k m_k / eta_k^2 > 0 holds.
"""
import numpy as np

from semimarket import limit_constant_c2, load_model, stationary_law, tail_constant_Cj
from semimarket.semi_markov import jump_rounds, theorem_condition_value

for name in ("example_a", "asymmetric"):
    model = load_model(f"configs/{name}.json")
    print(f"--- {name} ---")
    print("tail index alpha:", model.alpha)
    law = stationary_law(model)
    print("pi :", np.round(law.pi, 4))
    print("nu :", np.round(law.nu, 4), " mu:", round(law.mu, 4))
    print("eta:", np.round(law.eta, 4))
    zero, up = model.states.index(0), model.states.index(1)
    print("expected inactive visits between returns to +1, pi_0/pi_1:",
          round(law.pi[zero] / law.pi[up], 6), " C_1:", round(tail_constant_Cj(model, 1), 6))
    holds, product, _, _ = theorem_condition_value(model)
    print("drift condition holds:", bool(holds), " product:", round(product, 6))
    if holds:
        print("limit constant c^2 =", round(limit_constant_c2(model), 6),
              " Hurst:", model.hurst())

# occupation fractions of one stationary agent of the engine against nu
model = load_model("configs/example_a.json")
law = stationary_law(model)
horizon = 20000.0
rounds = jump_rounds(model, 1, horizon, np.random.default_rng(7))
times, visited = [0.0], [next(rounds)[0]]
for _, t, _, dst in rounds:
    times.append(t[0])
    visited.append(dst[0])
durations = np.diff(np.append(times, horizon))
occ = np.bincount(visited, weights=durations, minlength=len(model.states)) / horizon
print("occupation fractions over one long path:", np.round(occ, 4), " nu:", law.nu)
