"""Hierarchy dynamics against the exactly solvable dephasing qubit.

When the coupling operator commutes with the Hamiltonian the populations
freeze and the coherence decays by a factor with a closed double-integral
form.  That gives a rare full-strength test of the machinery: the same
bath, the same hierarchy, no perturbative assumption on either side.

Run:  python3 demos/dephasing_check.py
"""

import numpy as np

from hseom import (BathSpec, ContourEngine, OhmicCircular, PureState,
                   build_space, compute_coefficients, dephasing_exact,
                   pure_dephasing, rdm_trajectory)

spec = BathSpec(OhmicCircular(zeta=0.1, nu=3.0), 3.0, Omega=3.0, K=12)
model = pure_dephasing(1.0)
engine = ContourEngine(build_space(12, 5), compute_coefficients(spec), model)
plus = PureState(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))

times = np.array([0.25, 0.5, 1.0, 1.5, 2.0])
_, rho, _ = rdm_trajectory(engine, plus, 0.0125, times)

h = model.hamiltonian_at(0.0).to_dense()
print(f"{'t':>5}  {'|rho_01| hierarchy':>19}  {'exact':>10}  {'rel err':>9}")
for t, r in zip(times, rho):
    exact = 0.5 * abs(dephasing_exact(spec, 0.5, float(t)))
    got = abs(r[0, 1])
    print(f"{t:5.2f}  {got:19.10f}  {exact:10.7f}  "
          f"{abs(got - exact) / exact:9.1e}")
print("\npopulations stay put, as they must for a commuting coupling:")
print(f"  max |rho_00 - 1/2| = {np.abs(rho[:, 0, 0] - 0.5).max():.1e}")
