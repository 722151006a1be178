"""Dissipative quantum annealing of four qubits at three couplings, and of
ten to forty qubits at the intermediate one.

The schedule interpolates from a transverse field to the ferromagnetic
p-spin target; the bath is zero temperature with a circular cutoff.  The
populations are measured against the target Hamiltonian's eigenstates, so
every run starts at P_ground = 1/2^Ncal (the uniform superposition
overlap) and the interesting physics is how the bath reshapes the rise.
The model runs on the Ncal + 1 permutation-symmetric states, so forty
qubits cost 41 states, not 2^40; the last table gives each run's size,
step and sparse products beside its final P_ground.

Run:  python3 demos/annealing_trend.py [outdir]   (about 1 s)
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

print("\nthe intermediate bath at more qubits, on the symmetric states:")
print(f"{'Ncal':>5}  {'dim':>4}  {'AWFs':>5}  {'dt':>6}  {'products':>8}  "
      f"{'P_ground(t_f)':>13}")
for Ncal in (10, 20, 40):
    cfg = preset("anneal-intermediate").replace("model", "Ncal", Ncal)
    comps = build_components(cfg)
    trace = annealing_populations(comps.engine, comps.init, comps.dt,
                                  cfg.require("run", "record").values())
    print(f"{Ncal:>5}  {comps.engine.dim:>4}  {comps.engine.num_awf:>5}  "
          f"{f'1/{round(1 / comps.dt)}':>6}  {trace.metadata['products']:>8}"
          f"  {trace.p_ground[-1]:13.2e}")
print("P_ground(t_f) falls by orders of magnitude with Ncal at t_f = 1")

write_csv(out / "annealing_demo.csv",
          ["t"] + [label for label, _ in series],
          [times] + [p for _, p in series])
line_plot(out / "annealing_demo.svg", times, series,
          xlabel="t / t_f", ylabel="P_ground",
          title="target ground-state population, three couplings")
print(f"outputs in {out}/")
