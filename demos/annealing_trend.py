"""Dissipative quantum annealing of four qubits at three couplings.

The schedule interpolates from a transverse field to the ferromagnetic
p-spin target; the bath is zero temperature with a circular cutoff.  The
populations are measured against the target Hamiltonian's eigenstates, so
every run starts at P_ground = 1/16 (the uniform superposition overlap)
and the interesting physics is how the bath reshapes the rise.

Run:  python3 demos/annealing_trend.py [outdir]   (about 5 s)
"""

import sys
from pathlib import Path

from hseom import annealing_populations
from hseom.presets import build_components, preset
from hseom.reporting import line_plot, write_csv

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demos/out")
out.mkdir(parents=True, exist_ok=True)


def half_rise(t, p):
    """First time the population reaches half its final value."""
    half = p[-1] / 2.0
    for i in range(1, len(t)):
        if p[i - 1] < half <= p[i]:
            frac = (half - p[i - 1]) / (p[i] - p[i - 1])
            return float(t[i - 1] + frac * (t[i] - t[i - 1]))
    return float("nan")


series = []
print(f"{'coupling':>14}  {'P_ground(t_f)':>13}  {'half-rise':>9}")
for name in ("anneal-weak", "anneal-intermediate", "anneal-strong"):
    cfg = preset(name)
    comps = build_components(cfg)
    record = cfg.require("run", "record").values()
    trace = annealing_populations(comps.engine, comps.init, comps.dt, record)
    label = name.split("-", 1)[1]
    series.append((label, trace.p_ground))
    print(f"{label:>14}  {trace.p_ground[-1]:13.4f}  "
          f"{half_rise(trace.times, trace.p_ground):9.3f}")
    times = trace.times

print("\nthe intermediate bath ends highest; the strong bath moves first")
print("but overshoots and settles back")

write_csv(out / "annealing_demo.csv",
          ["t"] + [label for label, _ in series],
          [times] + [p for _, p in series])
line_plot(out / "annealing_demo.svg", times, series,
          xlabel="t / t_f", ylabel="P_ground",
          title="target ground-state population, three couplings")
print(f"outputs in {out}/")
