"""Heavy-tailed key renewal theorem: numeric residual vs predicted asymptote.

For F = Pareto(1, 1.5) and forcing z(t) = e^{-t}, the renewal residual
lambda/kappa - ∫ z(t-s) U(ds) decays like -(2/9) t^{-1/2}; the numeric ratio
approaches one along a geometric time ladder.
"""
import numpy as np

from semimarket import Grid, SamplePath, key_renewal_asymptote
from semimarket.distributions import Exponential, Pareto

grid = Grid.for_horizon(3000.0, 0.05)
law = Pareto(scale=1.0, alpha=1.5)
z = SamplePath(grid.dt, np.exp(-grid.times()))
h_num, h_pred, info = key_renewal_asymptote(law, z)
print(f"kappa = {info['kappa']}, lambda = {info['lambda']:.6f}, "
      f"z = o(F̄) check: {info['z_precondition_ok']}")
ladder = np.array([100.0, 300.0, 1000.0, 3000.0])
print("t       :", ladder)
print("numeric :", np.round(h_num.at(ladder), 6))
print("predicted:", np.round(h_pred.at(ladder), 6))
print("ratio    :", np.round(h_num.at(ladder) / h_pred.at(ladder), 4))

light, _, info2 = key_renewal_asymptote(Exponential(1.0),
                                        SamplePath(grid.dt, np.exp(-2 * grid.times())))
print("light-tailed F: applicable =", info2["applicable"],
      " residual at t=100:", f"{light.at(100.0):.2e}")
