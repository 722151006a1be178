"""Fit the bath correlation function with the Bessel-basis expansion.

The solver never integrates the bath explicitly: everything it knows about
the environment is the coefficient vector c_k of the expansion

    alpha(t) ~ sum_k c_k J_k(Omega t),

computed once by quadrature over the spectral density.  This script builds
the two Ohmic cutoff forms at matched coupling, prints the closed-form
check for the circular cutoff (only c_1 and c_3 carry the imaginary part
of alpha, and they are equal), and writes a reconstruction-vs-exact table,
with the exact alpha(t) from the same Gauss-Legendre rule in
theta = arccos(omega / Omega) that gives the coefficients.

Run:  python3 demos/bath_expansion.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from hseom import (BathSpec, OhmicCircular, OhmicExponential,
                   alpha_reconstruct, alpha_theta, compute_coefficients,
                   reconstruction_error)
from hseom.reporting import line_plot, write_csv

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demos/out")
out.mkdir(parents=True, exist_ok=True)

zeta, nu, beta = 0.35, 6.0, 3.0
circular = BathSpec(OhmicCircular(zeta=zeta, nu=nu), beta, Omega=nu, K=20)
# eta = e * zeta / 2 makes the exponential cutoff mimic the circular one
exponential = BathSpec(OhmicExponential(eta=np.e * zeta / 2.0, gamma=nu),
                       beta, Omega=20.0, K=80)

print("circular cutoff, K = 20")
exp_c = compute_coefficients(circular)
target = np.pi * zeta * nu ** 2 / 8.0
print(f"  |c_1| = {abs(exp_c.c[1]):.6f}   closed form pi*zeta*nu^2/8 "
      f"= {target:.6f}")
print(f"  |c_1 - c_3| = {abs(exp_c.c[1] - exp_c.c[3]):.2e}")
print(f"  |c_5|, |c_7| = {abs(exp_c.c[5]):.1e}, {abs(exp_c.c[7]):.1e} "
      "(every other odd coefficient vanishes)")

ts = np.linspace(0.0, 2.0, 161)
exact = alpha_theta(circular, ts)
fit = alpha_reconstruct(exp_c, ts)
write_csv(out / "bath_circular.csv",
          ["t", "re_exact", "im_exact", "re_fit", "im_fit"],
          [ts, exact.real, exact.imag, fit.real, fit.imag])
line_plot(out / "bath_circular.svg", ts,
          [("Re alpha", exact.real), ("Im alpha", exact.imag),
           ("Re fit", fit.real), ("Im fit", fit.imag)],
          xlabel="t", ylabel="alpha(t)", title="circular cutoff, K = 20")
print(f"  max relative error over [0, 2]: "
      f"{reconstruction_error(circular, exp_c, ts):.2e}")

print("exponential cutoff, K = 80 (needs the larger basis: the integrand")
print("is not band-limited, so Omega must exceed the cutoff gamma)")
exp_e = compute_coefficients(exponential)
print(f"  max relative error over [0, 2]: "
      f"{reconstruction_error(exponential, exp_e, ts):.2e}")

print(f"\ntables and plots in {out}/")
