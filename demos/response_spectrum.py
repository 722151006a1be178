"""First-order response of the dissipative qubit, from lag grid to spectrum.

Equilibrate from the localized state, kick with sigma_x, measure sigma_x a
lag tau later, transform the imaginary part.  The shipped preset puts the
resonance just below the bare frequency omega_0 = pi, softened and shifted
by the finite-temperature bath.

This is the same computation as `python3 -m hseom respond --config
configs/respond_circular.ini`, driven through the library API instead.

Run:  python3 demos/response_spectrum.py [outdir]   (about 10 s)
"""

import sys
from pathlib import Path

import numpy as np

from hseom import half_fourier, response_function
from hseom.presets import build_components, preset
from hseom.reporting import line_plot, write_csv

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demos/out")
out.mkdir(parents=True, exist_ok=True)

cfg = preset("respond-circular")
comps = build_components(cfg)
taus = cfg.require("run", "tau").values()
result = response_function(comps.engine, taus, cfg.require("run", "t0"),
                           comps.dt)

print(f"equilibration drift over the settling run: "
      f"{result.metadata['drift']:.2e}")

omegas = cfg.require("run", "omega").values()
spectrum = half_fourier(result, omegas, part="imag")
response = -spectrum.values.imag

write_csv(out / "response_demo.csv", ["omega", "response"],
          [omegas, response])
line_plot(out / "response_demo.svg", omegas / np.pi,
          [("-Im transform", response)],
          xlabel="omega / omega_0", ylabel="response",
          title="dissipative qubit response spectrum")

peak = omegas[int(np.argmax(response))]
print(f"resonance at omega = {peak:.4f} = {peak / np.pi:.3f} omega_0, "
      f"height {response.max():.4f}")
print(f"outputs in {out}/")
