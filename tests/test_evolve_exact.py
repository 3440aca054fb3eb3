"""``evolve`` against an exact solution of the linear rate equations.

While the pump is constant, each bin's populations (g, z, h, e) follow a
fixed 4x4 generator and spectral diffusion couples neighbouring bins, so an
interval is one sparse linear system ``x' = A x``.  The oracle here builds
``A`` term by term from the rate equations and applies ``exp(A t)`` with
``scipy.sparse.linalg.expm_multiply``: on a twenty-bin hole, and at the
scenarios' top operating points whose errors the ``evolve`` docstring states.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

import afcsim as a
from afcsim import experiments as ex
from afcsim.core import boltzmann_polarization
from afcsim.relaxation import TlsParams, flipflop_lifetime

# documented bounds on evolve's population error with spectral diffusion, at
# the scenarios' top operating points: fig5's hole pair at 1e-4 W and the
# 0.2 GHz comb of fig4
HOLE_BOUND = 5e-5
COMB_BOUND = 1e-3


def generator(rate, power, params, tls, bin_width):
    """Sparse generator on ``rate.size`` bins, unknowns ordered 4*bin + level."""
    n = rate.size
    a_opt, s = 1.0 / params.t1_opt, 1.0 / params.t_short
    bz, bh = params.beta_zeeman, params.beta_shf
    f = (1.0 - boltzmann_polarization(params.b_field, params.temperature,
                                      params.g_factor)) / 2.0
    k = 1.0 / flipflop_lifetime(params.b_field, params.temperature, params) \
        + tls.kappa_fill * power
    op = sparse.lil_matrix((4 * n, 4 * n))
    for i in range(n):
        g, z, h, e = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        r = rate[i]
        # optical pumping and decay, with branching into the two shelves
        op[g, g] -= r
        op[e, g] += r
        op[g, e] += r + (1.0 - bz - bh) * a_opt
        op[z, e] += bz * a_opt
        op[h, e] += bh * a_opt
        op[e, e] -= r + a_opt
        # shelf release and relaxation of dev = z - f (g + z)
        op[h, h] -= s
        op[g, h] += s
        for col, coeff in ((g, -f), (z, 1.0 - f)):
            op[z, col] -= k * coeff
            op[g, col] += k * coeff
    d = tls.kappa_diff * power / (2.0 * bin_width ** 2)
    if d > 0:
        for i in range(n):
            for j in (i - 1, i + 1):
                if 0 <= j < n:
                    for level in range(4):
                        op[4 * i + level, 4 * j + level] += d
                        op[4 * i + level, 4 * i + level] -= d
    return op.tocsr()


def exact(state, seq, params, tls, record_times):
    """Exact populations at ``record_times`` as an array (times, bins, 4)."""
    grid = state.grid
    intervals = [(seg.duration, a.pump_rate_profile(seg, grid, params), seg.total_power)
                 for seg in seq.segments]
    intervals.append((seq.dark_after, np.zeros(grid.n_bins), 0.0))
    x = np.stack([state.n_g, state.n_z, state.n_h, state.n_e], axis=1).ravel()
    pending, out, now = list(record_times), [], 0.0
    for duration, rate, power in intervals:
        op = generator(rate, power, params, tls, grid.bin_width)
        end = now + duration
        while pending and pending[0] <= end + 1e-12:
            x = expm_multiply(op * (pending[0] - now), x)
            now = pending.pop(0)
            out.append(x)
        if end > now:
            x = expm_multiply(op * (end - now), x)
        now = end
    return np.array(out).reshape(len(out), grid.n_bins, 4)


def populations(states):
    return np.array([np.stack([s.n_g, s.n_z, s.n_h, s.n_e], axis=1) for s in states])


def hole_setup():
    """A 20-bin hole burn followed by a dark wait, recorded in both."""
    p = a.MaterialParams()
    g = a.make_grid(240e6, 260e6, 1e6)
    st = a.init_equilibrium_state(g, p)
    seq = a.build_hole_sequence(detuning=250e6, burn_duration=0.05, power=2e-5,
                                width=5e6, dark_after=0.5)
    return st, seq, p, [0.01, 0.05, 0.06, 0.2, 0.55]


@pytest.mark.parametrize("tls", [TlsParams.disabled(), TlsParams(kappa_diff=0.0)],
                         ids=["tls_off", "fill_only"])
def test_intervals_without_diffusion_are_exact(tls):
    st, seq, p, rec = hole_setup()
    got = populations(a.evolve(st, seq, p, tls, rec))
    assert np.max(np.abs(got - exact(st, seq, p, tls, rec))) <= 1e-10


def test_mass_conserved_without_diffusion():
    st, seq, p, rec = hole_setup()
    got = populations(a.evolve(st, seq, p, TlsParams(kappa_diff=0.0), rec))
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= 1e-12


def test_tls_on_hole_burn_within_documented_bound():
    st, seq, p, rec = hole_setup()
    tls = TlsParams()
    got = populations(a.evolve(st, seq, p, tls, rec))
    assert np.max(np.abs(got - exact(st, seq, p, tls, rec))) <= HOLE_BOUND


def test_comb_within_documented_bound():
    config = ex.default_config()
    cfg = config.fig4
    p = config.material.with_(peak_od=cfg.peak_od)
    g = a.make_grid(-250e6, 250e6, config.bin_width)
    st = a.init_equilibrium_state(g, p)
    seq = a.build_afc_sequence(0.2e9, cfg.spacing, cfg.pit_width, cfg.duration,
                               cfg.total_power, dark_after=cfg.wait)
    rec = [seq.total_duration]
    got = populations(a.evolve(st, seq, p, config.tls, rec))
    assert np.max(np.abs(got - exact(st, seq, p, config.tls, rec))) <= COMB_BOUND


def test_fig5_top_power_within_documented_bound_and_step_halving():
    config = ex.default_config()
    cfg = config.fig5
    p = config.material
    g = a.make_grid(cfg.center - cfg.separation / 2.0 - 100e6,
                    cfg.center + cfg.separation / 2.0 + 100e6, config.bin_width)
    st = a.init_equilibrium_state(g, p)
    seq = a.build_two_hole_sequence(
        separation=cfg.separation, hole_width=cfg.hole_width,
        pump_power=max(cfg.pump_powers), probe_power=cfg.probe_power,
        center=cfg.center, burn_duration=cfg.duration, dark_after=cfg.wait)
    rec = [cfg.duration, seq.total_duration]
    default = populations(a.evolve(st, seq, p, config.tls, rec))
    halved = populations(a.evolve(st, seq, p, config.tls, rec,
                                  dt_lit=p.t1_opt / 128.0, dt_dark=p.t_short / 200.0))
    assert np.max(np.abs(default - exact(st, seq, p, config.tls, rec))) <= HOLE_BOUND
    assert np.max(np.abs(default - halved)) <= HOLE_BOUND
