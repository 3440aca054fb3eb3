"""``evolve`` against an exact solution of the linear rate equations.

While the pump is constant, each bin's populations (g, z, h, e) follow a
fixed 4x4 generator and spectral diffusion couples neighbouring bins, so an
interval is one sparse linear system ``x' = A x``.  The oracle here builds
``A`` term by term from the rate equations and applies ``exp(A t)`` with
``scipy.sparse.linalg.expm_multiply``: on a twenty-bin hole, at the
scenarios' top operating points whose errors the ``evolve`` docstring states,
and on random burns of up to 24 bins.  At pump rates far beyond the
scenarios', a 30-digit ``mpmath.expm`` is the reference, since a dense
``scipy.linalg.expm`` is there less accurate than ``evolve``.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import afcsim as a
from afcsim import experiments as ex
from afcsim import pumping
from afcsim.core import CONSERVATION_ATOL, boltzmann_polarization
from afcsim.errors import MassDrift, SpectrumOutsideContour
from afcsim.relaxation import TlsParams, flipflop_lifetime

# documented bounds on evolve's population error with spectral diffusion, at
# the scenarios' top operating points: fig5's hole pair at 1e-4 W and the
# 0.2 GHz comb of fig4
HOLE_BOUND = 5e-5
COMB_BOUND = 1e-3
# evolve's documented error with diffusion, from its rational exp solve, and the
# per-bin mass drift
EXACT_BOUND = 1e-10
MASS_BOUND = 1e-12


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


def dense_expm(op, x):
    """``exp(op) x`` by a dense ``scipy.linalg.expm``, for small stiff generators."""
    return expm(op.toarray()) @ x


def exact(state, seq, params, tls, record_times, propagate=expm_multiply):
    """Exact populations at ``record_times`` as an array (times, bins, 4),
    each interval applied by ``propagate(op * tau, x)``."""
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
            x = propagate(op * (pending[0] - now), x)
            now = pending.pop(0)
            out.append(x)
        if end > now:
            x = propagate(op * (end - now), x)
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


@lru_cache(maxsize=None)
def fig5_top_power_case():
    """Evolved and exact populations of fig5's hole pair at 1e-4 W, recorded
    at 1 ms, inside the burn, at its end and after the wait."""
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
    rec = [1e-3, 0.1234, cfg.duration, seq.total_duration]
    return (populations(a.evolve(st, seq, p, config.tls, rec)),
            exact(st, seq, p, config.tls, rec))


@lru_cache(maxsize=None)
def comb_case():
    """Evolved and exact populations of fig4's 0.2 GHz comb at the end of the
    burn and after the wait."""
    config = ex.default_config()
    cfg = config.fig4
    p = config.material.with_(peak_od=cfg.peak_od)
    g = a.make_grid(-250e6, 250e6, config.bin_width)
    st = a.init_equilibrium_state(g, p)
    seq = a.build_afc_sequence(0.2e9, cfg.spacing, cfg.pit_width, cfg.duration,
                               cfg.total_power, dark_after=cfg.wait)
    rec = [cfg.duration, seq.total_duration]
    return (populations(a.evolve(st, seq, p, config.tls, rec)),
            exact(st, seq, p, config.tls, rec))


def test_fig5_top_power_exact():
    got, want = fig5_top_power_case()
    assert np.max(np.abs(got[2:] - want[2:])) <= EXACT_BOUND


def test_comb_exact():
    got, want = comb_case()
    assert np.max(np.abs(got - want)) <= EXACT_BOUND


def test_record_time_inside_lit_interval_exact():
    got, want = fig5_top_power_case()
    assert np.max(np.abs(got[1] - want[1])) <= EXACT_BOUND


def test_exact_at_1ms():
    got, want = fig5_top_power_case()
    assert np.max(np.abs(got[0] - want[0])) <= EXACT_BOUND


def test_mass_conserved_with_diffusion():
    for got, _ in (fig5_top_power_case(), comb_case()):
        assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= MASS_BOUND


@pytest.mark.parametrize("bandwidth", [3.2e9, 6.4e9], ids=["3.2GHz", "6.4GHz"])
def test_mass_conserved_on_wide_combs(bandwidth):
    # fig4's widest combs, 7,000 and 13,400 bins: the oracle is too slow here,
    # but the documented mass bound is not
    config = ex.default_config()
    cfg = config.fig4
    p = config.material.with_(peak_od=cfg.peak_od)
    g = a.make_grid(-bandwidth / 2.0 - 150e6, bandwidth / 2.0 + 150e6, config.bin_width)
    seq = a.build_afc_sequence(bandwidth, cfg.spacing, cfg.pit_width, cfg.duration,
                               cfg.total_power, dark_after=cfg.wait)
    got = populations(a.evolve(a.init_equilibrium_state(g, p), seq, p, config.tls,
                               [cfg.duration, seq.total_duration]))
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= MASS_BOUND


@pytest.mark.parametrize("power", [1.0, 10.0, 100.0])
def test_mass_conserved_at_very_high_pump_rates(power):
    # peak pump rates of 1e8 to 1e10 s^-1, far beyond the scenarios' 0.5 mW
    st, _, p, rec = hole_setup()
    seq = a.build_hole_sequence(detuning=250e6, burn_duration=0.05, power=power,
                                width=5e6, dark_after=0.5)
    got = populations(a.evolve(st, seq, p, TlsParams(), rec))
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= CONSERVATION_ATOL


@pytest.mark.parametrize("bandwidth", [3.2e9, 6.4e9], ids=["3.2GHz", "6.4GHz"])
def test_wide_comb_burn_in_pieces_matches_one_interval(bandwidth):
    # each bin's total skips the level solve, so the mass test above cannot
    # see that solve; recording the burn in 2 and in 3 pieces runs it again
    # on other intervals, and each piece starts from the previous one's state
    config = ex.default_config()
    cfg = config.fig4
    p = config.material.with_(peak_od=cfg.peak_od)
    g = a.make_grid(-bandwidth / 2.0 - 150e6, bandwidth / 2.0 + 150e6, config.bin_width)
    st = a.init_equilibrium_state(g, p)
    seq = a.build_afc_sequence(bandwidth, cfg.spacing, cfg.pit_width, cfg.duration,
                               cfg.total_power)
    whole = populations(a.evolve(st, seq, p, config.tls, [cfg.duration]))[-1]
    for pieces in (2, 3):
        rec = [cfg.duration * k / pieces for k in range(1, pieces + 1)]
        split = populations(a.evolve(st, seq, p, config.tls, rec))[-1]
        assert np.max(np.abs(split - whole)) <= 1e-12


# evolve measured 1.5e-10, 3.1e-10 and 1.2e-8 against the dense expm; each
# bound is under 3 times that
@pytest.mark.parametrize("power, bound", [(1.0, 4e-10), (10.0, 7e-10), (100.0, 3e-8)])
def test_populations_at_very_high_pump_rates(power, bound):
    # the hole of the mass test above, 80 unknowns: expm_multiply takes over
    # 100 s at 1 W, a dense expm of the generator well under one
    st, _, p, rec = hole_setup()
    seq = a.build_hole_sequence(detuning=250e6, burn_duration=0.05, power=power,
                                width=5e6, dark_after=0.5)
    got = populations(a.evolve(st, seq, p, TlsParams(), rec))
    want = exact(st, seq, p, TlsParams(), rec, propagate=dense_expm)
    assert np.max(np.abs(got - want)) <= bound


@lru_cache(maxsize=None)
def small_hole_case(power):
    """Evolved and 30-digit ``mpmath.expm`` populations of a 6-bin hole
    (24 unknowns) after its first 10 ms lit interval at ``power``."""
    mpmath = pytest.importorskip("mpmath")
    p = a.MaterialParams()
    g = a.make_grid(247e6, 253e6, 1e6)
    st = a.init_equilibrium_state(g, p)
    seq = a.build_hole_sequence(detuning=250e6, burn_duration=0.01, power=power, width=5e6)
    seg = seq.segments[0]
    op = generator(a.pump_rate_profile(seg, g, p), seg.total_power, p, TlsParams(),
                   g.bin_width).toarray() * seg.duration
    x = np.stack([st.n_g, st.n_z, st.n_h, st.n_e], axis=1).ravel()
    with mpmath.workdps(30):
        want = mpmath.expm(mpmath.matrix(op.tolist())) * mpmath.matrix(x.tolist())
    got = populations(a.evolve(st, seq, p, TlsParams(), [seg.duration]))
    return got.ravel(), np.array([float(v) for v in want])


# evolve measured 6.9e-12, 4.6e-9 and 6.1e-7 against the 30-digit reference,
# where a dense scipy.linalg.expm is off by 1.6e-11, 7.0e-8 and 2.5e-6; each
# bound is under 3 times evolve's error and under the dense expm's
@pytest.mark.parametrize("power, bound", [(1.0, 1.5e-11), (1e3, 1.2e-8), (1e5, 1.5e-6)])
def test_populations_against_extended_precision(power, bound):
    got, want = small_hole_case(power)
    assert np.max(np.abs(got - want)) <= bound


def test_mass_drift_is_named(monkeypatch):
    # an interval that loses the per-bin mass is reported as such, not left to
    # the next state's conservation check
    def lossy(*args):
        return 0.999 * exp_rule(*args)

    exp_rule = pumping._contour_expmv
    st, seq, p, rec = hole_setup()
    monkeypatch.setattr(pumping, "_contour_expmv", lossy)
    with pytest.raises(MassDrift):
        a.evolve(st, seq, p, TlsParams(), rec)


def test_mass_drift_is_read_after_the_clip():
    # at this coupling the rule keeps each bin's total but sends levels
    # negative; clipping them loses 0.147 of a bin's population
    config = replace(ex.default_config(), tls=TlsParams(kappa_diff=1e40))
    with pytest.raises(MassDrift):
        ex._fig5_point(config, 1e-4)


@pytest.mark.parametrize("kappa_fill", [1e60, 1e200])
def test_overflowing_blocks_are_named(kappa_fill):
    # the blocks' characteristic cubic overflows, which must raise no
    # RuntimeWarning; at 1e200 every eigenvalue is NaN, which no sector
    # comparison would catch
    st, seq, p, rec = hole_setup()
    with pytest.raises(SpectrumOutsideContour):
        a.evolve(st, seq, p, TlsParams(kappa_fill=kappa_fill), rec)


@pytest.mark.parametrize("b_field, beta_zeeman, beta_shf",
                         [(0.3, 0.9, 0.1), (1.0, 0.05, 0.8), (0.035, 0.9, 0.1)])
def test_other_materials_exact(b_field, beta_zeeman, beta_shf):
    st, seq, p, rec = hole_setup()
    p = p.with_(b_field=b_field, beta_zeeman=beta_zeeman, beta_shf=beta_shf)
    st = a.init_equilibrium_state(st.grid, p)
    tls = TlsParams()
    got = populations(a.evolve(st, seq, p, tls, rec))
    assert np.max(np.abs(got - exact(st, seq, p, tls, rec))) <= EXACT_BOUND


def test_spectrum_guard_raises(monkeypatch):
    # no physical block leaves the guard region, so substitute a cyclic flow
    # g -> e -> z -> g whose eigenvalues c(-3/2 +- i sqrt(3)/2) sit 30 degrees
    # off the negative real axis, outside the guard's 22.8-degree sector
    def cyclic_flow(params, spin_rate, frac_upper):
        cycle = 1e4 * np.array([[-1.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 1.0],
                                [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
        return cycle, np.zeros((4, 4))

    st, seq, p, rec = hole_setup()
    monkeypatch.setattr(pumping, "_rate_matrices", cyclic_flow)
    with pytest.raises(SpectrumOutsideContour):
        a.evolve(st, seq, p, TlsParams(), rec)


@st.composite
def random_burns(draw):
    """``(state, seq, params, tls, record_times)``: 2-24 bins, 1-3 lit
    segments of 1-2 pits plus carrier leak, an optional dark tail, TLS on or
    off, branching on the simplex, B in [0.01, 1] T, and record times
    anywhere in the sequence, inside lit intervals too, and at its end."""
    n = draw(st.integers(2, 24))
    width = draw(st.floats(1e6, 5e6))
    lo = draw(st.floats(-1e9, 1e9))
    grid = a.make_grid(lo, lo + n * width, width)
    beta_zeeman = draw(st.floats(0.0, 1.0))
    beta_shf = draw(st.floats(0.0, 1.0)) * (1.0 - beta_zeeman)
    assume(beta_zeeman + beta_shf <= 1.0)
    params = a.MaterialParams(b_field=draw(st.floats(0.01, 1.0)),
                              beta_zeeman=beta_zeeman, beta_shf=beta_shf)
    tls = TlsParams() if draw(st.booleans()) else TlsParams.disabled()
    pit = st.builds(a.PumpFeature, center=st.floats(lo, lo + n * width),
                    width=st.floats(1e6, 20e6), power=st.floats(1e-7, 1e-4))
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        features = tuple(draw(st.lists(pit, min_size=1, max_size=2)))
        leak = draw(st.floats(0.0, 0.2))
        segments.append(a.PumpSegment(
            duration=draw(st.floats(1e-3, 0.1)), features=features, carrier_leak=leak,
            shape=draw(st.sampled_from(["tophat", "gaussian"])),
            total_power=sum(f.power for f in features) / (1.0 - leak)))
    dark = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5]))
    seq = a.PumpSequence(segments=tuple(segments), dark_after=dark)
    fractions = draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    record_times = sorted(f * seq.total_duration for f in fractions) + [seq.total_duration]
    return a.init_equilibrium_state(grid, params), seq, params, tls, record_times


@settings(derandomize=True, max_examples=25, deadline=None)
@given(random_burns())
def test_random_burns_exact(burn):
    state, seq, params, tls, record_times = burn
    got = populations(a.evolve(state, seq, params, tls, record_times))
    assert np.max(np.abs(got - exact(state, seq, params, tls, record_times))) <= EXACT_BOUND
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) <= MASS_BOUND
    assert np.min(got) >= 0.0


@settings(derandomize=True, max_examples=25, deadline=None)
@given(random_burns())
def test_each_record_is_the_record_taken_alone(burn):
    # every record comes from the start of its interval, so it is the same,
    # bit for bit, whatever else is recorded
    state, seq, params, tls, record_times = burn
    together = pumping._evolve_records(state, seq, params, tls, record_times)
    for t, record in zip(record_times, together):
        alone = pumping._evolve_records(state, seq, params, tls, [t])
        assert alone[0].tobytes() == record.tobytes()


@lru_cache(maxsize=None)
def table1_case():
    """Every block ``pumping._expm_blocks`` exponentiates in a default
    Table 1 run, as one stack, and the largest per-bin mass drift of the
    records ``pumping._exact_records`` returns, before the clip."""
    blocks, drifts = [], []
    expm_blocks, exact_records = pumping._expm_blocks, pumping._exact_records

    def capture_blocks(stack):
        blocks.append(stack.reshape(-1, 4, 4).copy())
        return expm_blocks(stack)

    def capture_drift(relax, pump, rate, taus, x):
        out = exact_records(relax, pump, rate, taus, x)
        drifts.append(np.max(np.abs(out.sum(axis=-1) - x.sum(axis=-1))))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pumping, "_expm_blocks", capture_blocks)
        mp.setattr(pumping, "_exact_records", capture_drift)
        ex.run_table1(ex.default_config(), write=False)
    return np.concatenate(blocks), max(drifts)


@lru_cache(maxsize=None)
def stiffest_table1_blocks():
    """Table 1's 40 blocks of largest 1-norm and their 40-digit ``mpmath.expm``."""
    mpmath = pytest.importorskip("mpmath")
    blocks, _ = table1_case()
    stiff = blocks[np.argsort(np.abs(blocks).sum(axis=-2).max(axis=-1))[-40:]]
    with mpmath.workdps(40):
        want = [mpmath.expm(mpmath.matrix(b.tolist())).tolist() for b in stiff]
    return stiff, np.array(want, dtype=float)


# measured 1.1e-13, with 1-norms up to 4.6e4; scipy.linalg.expm is off by 2.8e-14
def test_stiffest_table1_blocks_against_extended_precision():
    stiff, want = stiffest_table1_blocks()
    assert np.abs(stiff).sum(axis=-2).max() > 4e4
    assert np.max(np.abs(pumping._expm_blocks(stiff) - want)) <= 1e-12


def test_table1_mass_kept_without_diffusion():
    _, drift = table1_case()
    assert drift <= 1e-12


@st.composite
def block_stacks(draw):
    """A stack of generator-like 4x4 blocks (columns summing to at most 0)
    whose 1-norms span eight decades, so their scalings differ, and the
    index of one of them."""
    n = draw(st.integers(1, 12))
    entries = draw(st.lists(st.floats(0.0, 1.0), min_size=20 * n, max_size=20 * n))
    scales = draw(st.lists(st.integers(-3, 5), min_size=n, max_size=n))
    raw = np.array(entries).reshape(n, 5, 4)
    blocks = raw[:, :4] * (1.0 - np.eye(4))
    blocks -= np.eye(4) * (blocks.sum(axis=1) + raw[:, 4])[:, None, :]
    blocks *= 10.0 ** np.array(scales, dtype=float)[:, None, None]
    return blocks, draw(st.integers(0, n - 1))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(block_stacks())
def test_block_exponential_alone_equals_in_stack(case):
    blocks, i = case
    alone = pumping._expm_blocks(blocks[i:i + 1])[0]
    assert pumping._expm_blocks(blocks)[i].tobytes() == alone.tobytes()
    # a (records x rates) stack, as the no-diffusion records use
    pair = pumping._expm_blocks(np.stack([blocks, blocks[::-1]]))
    assert pair[0, i].tobytes() == alone.tobytes()
    assert pair[1, blocks.shape[0] - 1 - i].tobytes() == alone.tobytes()


@pytest.mark.parametrize("field_g", ex.Fig2Config.fields_gauss)
def test_fig2_dark_records_match_chained_expm(field_g):
    # each dark record now comes from the end of the burn in one step; the
    # reference chains one scipy.linalg.expm per record interval, clipping
    # after each, on the full 4x4 dark block
    config = ex.default_config()
    cfg = config.fig2
    p = config.material.with_(beta_zeeman=cfg.beta_zeeman, beta_shf=cfg.beta_shf,
                              b_field=field_g * 1e-4)
    delays = np.geomspace(cfg.delay_min, cfg.delay_max, cfg.n_delays)
    g = a.make_grid(cfg.detuning - cfg.span, cfg.detuning + cfg.span, config.bin_width)
    seq = a.build_hole_sequence(detuning=cfg.detuning, burn_duration=cfg.burn_duration,
                                power=cfg.burn_power, width=cfg.hole_width,
                                dark_after=float(delays[-1]) * 1.0001 + 1e-6)
    rec = [cfg.burn_duration + d for d in delays]
    got = pumping._evolve_records(a.init_equilibrium_state(g, p), seq, p, config.tls,
                                  [cfg.burn_duration, *rec])
    f = (1.0 - boltzmann_polarization(p.b_field, p.temperature, p.g_factor)) / 2.0
    relax, _ = pumping._rate_matrices(
        p, 1.0 / flipflop_lifetime(p.b_field, p.temperature, p), f)
    x, now = got[0], cfg.burn_duration
    for t, record in zip(rec, got[1:]):
        x = np.clip(x @ expm(relax * (t - now)).T, 0.0, 1.0)
        now = t
        assert np.max(np.abs(record - x)) <= 1e-13


def test_records_split_over_calls_are_unchanged(monkeypatch):
    # a stack that would pass _STACK_BLOCKS goes through _expm_blocks a few
    # records at a time; each block's exponential, and so each record, is the
    # same as from one call
    st, seq, p, rec = hole_setup()
    rec = [0.002, 0.004, 0.01, 0.03, 0.05, 0.06, 0.2, 0.55]
    whole = populations(a.evolve(st, seq, p, TlsParams.disabled(), rec))
    calls = []
    expm_blocks = pumping._expm_blocks
    monkeypatch.setattr(pumping, "_STACK_BLOCKS", 1)
    monkeypatch.setattr(pumping, "_expm_blocks", lambda b: calls.append(b.shape) or expm_blocks(b))
    split = populations(a.evolve(st, seq, p, TlsParams.disabled(), rec))
    # one call per stop: the records, of which 0.05 and 0.55 end the burn
    # and the wait
    assert max(shape[0] for shape in calls) == 1 and len(calls) == len(rec)
    assert split.tobytes() == whole.tobytes()
