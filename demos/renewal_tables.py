"""Solve the Markov-renewal equations numerically and check the covariance decay.

For the centered reference model the equilibrium covariance is exactly
gamma(t) = 2 nu_1 e^{-t}; for the asymmetric model gamma decays like
t^{2H-2} with the predicted constant, the signature of long-range dependence.
"""
import numpy as np

from semimarket import (
    Grid,
    asymptotic_covariance,
    covariance_gamma,
    load_model,
    stationary_law,
    stationary_transition,
    variance_of_integral,
)

model = load_model("configs/example_a.json")
law = stationary_law(model)
grid = Grid.for_horizon(12.0, 0.005)

pstar = stationary_transition(model, grid)
print("P*_t(1,1) at t = 1, 5, 10:", np.round(pstar[(1, 1)].at(np.array([1.0, 5.0, 10.0])), 4))

gamma = covariance_gamma(model, grid)
exact = 2 * law.nu[2] * np.exp(-grid.times())
print("max |gamma - 2 nu_1 e^-t| =", f"{np.abs(gamma.values - exact).max():.2e}")

asym = load_model("configs/asymmetric.json")
big = Grid.for_horizon(2000.0, 0.05)
gamma_a = covariance_gamma(asym, big)
t_checks = np.array([100.0, 500.0, 2000.0])
print("asymmetric gamma / predicted asymptote:",
      np.round(gamma_a.at(t_checks) / asymptotic_covariance(asym, t_checks), 4))
var = variance_of_integral(gamma_a)
print("Var(t) at t = 100, 1000:", np.round(var.at(np.array([100.0, 1000.0])), 2))
