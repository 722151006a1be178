"""The round-trip sanity check behind every correlation function.

Observables come from running the stack out to the turning point and back:
forward along C1 with one sign of the generator, backward along C2 with the
other.  With no operator inserted at the turn, the two legs cancel exactly,
whatever the coupling does in between.  The integrator must preserve that
cancellation to tight tolerance or every extracted number is suspect.

Run:  python3 demos/contour_identity.py
"""

import numpy as np

from hseom import (BathSpec, ContourEngine, OhmicCircular, build_space,
                   compute_coefficients, closed_system_propagate, spin_boson)

model = spin_boson(np.pi)
psi0 = np.array([0.6, 0.8], dtype=complex)

spec = BathSpec(OhmicCircular(zeta=0.35, nu=6.0), 3.0, Omega=6.0, K=20)
engine = ContourEngine(build_space(20, 2), compute_coefficients(spec), model)

print("coupled qubit, K = 20, N_max = 2, t = 1, dt = 2.5e-3")
turn, final = engine.run(psi0, t=1.0, dt=0.0025)
print(f"  return error |phi(2t) - phi(0)|: "
      f"{np.abs(final[0] - psi0).max():.2e}")

# the state at the turning point is genuinely dressed by the bath: compare
# with the bare unitary evolution to see how far it has moved
bare = closed_system_propagate(model, psi0, 1.0)
moved = np.abs(turn[0] - bare).max()
print(f"  bath dressing at the turn |phi(t) - e^(-iHt) psi0|: {moved:.2e}")
print("  (large dressing, tiny return error: the cancellation is exact in")
print("   the equations and fourth-order accurate in the integrator)")
