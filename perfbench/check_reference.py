"""Self-test of the exact reference propagator, and evolve's error against it.

Run from the root of a checkout:

    python3 perfbench/check_reference.py

1. One bin: ``reference.generator`` under ``expm_multiply`` against
   ``solve_ivp`` on the rate equations written out term by term, through a
   lit and a dark interval.
2. Conservation: on fig5's pump-probe grid at its top power (1e-4 W, with
   diffusion), the four populations of every bin still sum to one.
3. Reports ``evolve``'s largest population error against the reference at
   that point, and how far halving both default steps moves ``evolve``.

Exits non-zero if test 1 or 2 fails; the report in 3 is informational.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scipy.integrate import solve_ivp  # noqa: E402
from scipy.sparse.linalg import expm_multiply  # noqa: E402

from afcsim import core, experiments, pumping  # noqa: E402

import closedform  # noqa: E402
import reference  # noqa: E402

ODE_TOL = 1e-9
MASS_TOL = 1e-11


def one_bin_rhs(rate, power, params, tls):
    a, s = 1.0 / params.t1_opt, 1.0 / params.t_short
    bz, bh = params.beta_zeeman, params.beta_shf
    f = (1.0 - np.tanh(closedform.spin_argument(
        params.b_field, params.temperature, params.g_factor))) / 2.0
    k = closedform.flipflop_rate(params.b_field, params) + tls.kappa_fill * power

    def rhs(_, n):
        g, z, h, e = n
        dev = z - f * (g + z)
        return [-rate * (g - e) + (1.0 - bz - bh) * a * e + k * dev + s * h,
                bz * a * e - k * dev,
                bh * a * e - s * h,
                rate * (g - e) - a * e]

    return rhs


def check_one_bin():
    params = core.MaterialParams()
    tls = experiments.default_config().tls
    x_exact = x_ivp = np.array([0.6, 0.4, 0.0, 0.0])
    worst = 0.0
    for rate, power, duration in ((3000.0, 5e-4, 0.3), (0.0, 0.0, 0.05)):
        op = reference.generator(np.array([rate]), power, params, tls, 0.5e6)
        x_exact = expm_multiply(op * duration, x_exact)
        sol = solve_ivp(one_bin_rhs(rate, power, params, tls), (0.0, duration), x_ivp,
                        method="Radau", rtol=1e-12, atol=1e-14)
        x_ivp = sol.y[:, -1]
        worst = max(worst, float(np.max(np.abs(x_exact - x_ivp))))
    print(f"one bin, expm_multiply vs solve_ivp: {worst:.3g} (limit {ODE_TOL:g})")
    return worst <= ODE_TOL


def fig5_top_power():
    config = experiments.default_config()
    cfg = config.fig5
    params = config.material
    grid = core.make_grid(cfg.center - cfg.separation / 2.0 - 100e6,
                          cfg.center + cfg.separation / 2.0 + 100e6, config.bin_width)
    state = core.init_equilibrium_state(grid, params)
    seq = pumping.build_two_hole_sequence(
        separation=cfg.separation, hole_width=cfg.hole_width,
        pump_power=max(cfg.pump_powers), probe_power=cfg.probe_power,
        center=cfg.center, burn_duration=cfg.duration, dark_after=cfg.wait)
    return state, seq, params, config.tls


def check_fig5():
    state, seq, params, tls = fig5_top_power()
    record = [seq.total_duration]
    start = time.perf_counter()
    exact = reference.propagate(state, seq, params, tls, record, pumping.pump_rate_profile)
    ref_s = time.perf_counter() - start
    drift = float(np.max(np.abs(exact.sum(axis=-1) - 1.0)))
    print(f"fig5 at 1e-4 W ({state.grid.n_bins} bins): reference {ref_s:.2f} s, "
          f"mass drift {drift:.3g} (limit {MASS_TOL:g})")
    default = reference.populations(pumping.evolve(state, seq, params, tls, record))
    halved = reference.populations(pumping.evolve(
        state, seq, params, tls, record,
        dt_lit=params.t1_opt / 128.0, dt_dark=params.t_short / 200.0))
    print(f"  evolve vs exact: {np.max(np.abs(default - exact)):.3g}; "
          f"halving the steps moves evolve by {np.max(np.abs(default - halved)):.3g}")
    return drift <= MASS_TOL


if __name__ == "__main__":
    ok = check_one_bin()
    ok = check_fig5() and ok
    print("ok" if ok else "FAILED")
    sys.exit(0 if ok else 1)
