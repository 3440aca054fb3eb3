from dataclasses import replace

import numpy as np
import pytest

import afcsim as a
from afcsim import core, experiments
from afcsim.core import AbsorptionSpectrum
from afcsim.errors import (
    FitDiverged,
    InvalidRange,
    NoCombDetected,
    NoHoleFound,
    NonPositiveInput,
    NonPositiveSpacing,
    SpanOutOfGrid,
)
from afcsim.readout import CombMetrics, _folded_profile
from afcsim.relaxation import TlsParams


def flat_spectrum(od=2.0, span=400e6, bin_width=0.5e6):
    g = a.make_grid(-span / 2, span / 2, bin_width)
    return g, np.full(g.n_bins, od)


def dip_spectrum(depth, fwhm, center=0.0, baseline=2.0, span=400e6,
                 bin_width=0.5e6):
    g, od = flat_spectrum(baseline, span, bin_width)
    half = fwhm / 2.0
    od -= depth * half ** 2 / ((g.centers - center) ** 2 + half ** 2)
    return AbsorptionSpectrum(grid=g, od=od)


def square_comb(d_peak=2.0, d0=0.0, spacing=50e6, duty=0.5, span=1e9,
                bin_width=0.5e6, shift=0.0):
    g = a.make_grid(-span / 2 + shift, span / 2 + shift, bin_width)
    phase = (g.centers % spacing) / spacing
    od = np.where((phase < duty / 2) | (phase > 1 - duty / 2), d_peak, d0)
    return AbsorptionSpectrum(grid=g, od=od)


def lorentzian_comb(fwhm, spacing=50e6, floor=0.2, peak=0.7, span=300e6,
                    bin_width=0.5e6, shift=0.0):
    """Noiseless comb of Lorentzian teeth on every multiple of ``spacing``,
    scaled to run from ``floor`` in the troughs to ``peak`` on the teeth, and
    the closed-form width of its teeth at half contrast."""
    g = a.make_grid(-span / 2 + shift, span / 2 + shift, bin_width)
    half = fwhm / 2.0
    u = 2.0 * np.pi * half / spacing
    amp = np.pi * half / spacing * np.sinh(u)

    def periodic(nu):
        # sum over k of half^2 / ((nu - k spacing)^2 + half^2)
        return amp / (np.cosh(u) - np.cos(2.0 * np.pi * nu / spacing))

    top, bottom = periodic(0.0), periodic(spacing / 2.0)
    od = floor + (peak - floor) * (periodic(g.centers) - bottom) / (top - bottom)
    level = (top + bottom) / 2.0
    width = 2.0 * np.arccos(np.cosh(u) - amp / level) * spacing / (2.0 * np.pi)
    return AbsorptionSpectrum(grid=g, od=od), width


class TestSimulateReadout:
    def setup_method(self):
        self.p = a.MaterialParams()
        g = a.make_grid(-200e6, 200e6, 0.5e6)
        self.state = a.init_equilibrium_state(g, self.p)

    def test_zero_noise_matches_spectrum(self):
        spec = a.simulate_readout(self.state, self.p, span=100e6, noise_rel=0.0)
        full = a.absorption_spectrum(self.state, self.p)
        sub, sl = self.state.grid.subgrid(-50e6, 50e6)
        assert np.array_equal(spec.od, full.od[sl])

    def test_repeat_averaging_statistics(self):
        stds = []
        for repeats in (1, 20):
            samples = []
            for k in range(1000):
                spec = a.simulate_readout(self.state, self.p, span=50e6,
                                          repeats=repeats, noise_rel=0.05,
                                          seed=1000 * repeats + k)
                samples.append(spec.od[10])
            stds.append(np.std(samples))
        assert stds[0] / stds[1] == pytest.approx(np.sqrt(20), rel=0.1)

    def test_reproducible_given_seed(self):
        s1 = a.simulate_readout(self.state, self.p, span=100e6,
                                noise_rel=0.05, seed=42)
        s2 = a.simulate_readout(self.state, self.p, span=100e6,
                                noise_rel=0.05, seed=42)
        assert np.array_equal(s1.od, s2.od)

    @pytest.mark.parametrize("noise_rel", [-0.02, np.nan])
    def test_negative_noise_refused(self, noise_rel):
        with pytest.raises(NonPositiveInput):
            a.simulate_readout(self.state, self.p, span=100e6, noise_rel=noise_rel)

    def test_span_out_of_grid(self):
        with pytest.raises(SpanOutOfGrid):
            a.simulate_readout(self.state, self.p, span=600e6)

    def test_comb_section_shows_teeth_and_carrier_hole(self):
        p = a.MaterialParams()
        g = a.make_grid(-3.35e9, 3.35e9, 0.5e6)
        st = a.init_equilibrium_state(g, p)
        seq = a.build_afc_sequence(6.4e9, 50e6, 25e6, 0.3, 5e-4, dark_after=0.03)
        final = a.evolve(st, seq, p, TlsParams(), [0.33])[0]
        spec = a.simulate_readout(final, p, span=200e6)
        od = spec.od

        def at(nu):
            # the bin holding nu; the window's upper edge is in its last bin
            return od[min(int((nu - spec.grid.nu_min) / spec.grid.bin_width), od.size - 1)]

        # four teeth at +-50 and +-100 MHz stand above the troughs
        for tooth in (-100e6, -50e6, 50e6, 100e6):
            assert at(tooth) > at(tooth + 25e6 if tooth < 0 else tooth - 25e6) + 0.2
        # the carrier leak burns a hole right at zero detuning
        assert at(0.0) < at(50e6) - 0.2


class TestMeasureHole:
    def test_synthetic_roundtrip(self):
        spec = dip_spectrum(depth=1.0, fwhm=25e6)
        m = a.measure_hole(spec, 0.0)
        assert m.depth == pytest.approx(1.0, rel=0.01)
        assert m.fwhm == pytest.approx(25e6, rel=0.01)
        assert m.area == pytest.approx(1.0 * np.pi / 2 * 25e6, rel=0.02)

    def test_identity_over_parameter_grid(self):
        for depth in (0.1, 0.7, 2.0):
            for fwhm in (5e6, 20e6, 50e6):
                spec = dip_spectrum(depth, fwhm, baseline=2.5)
                m = a.measure_hole(spec, 0.0)
                assert m.depth == pytest.approx(depth, rel=0.01)
                assert m.fwhm == pytest.approx(fwhm, rel=0.01)

    def test_flat_spectrum_raises(self):
        g, od = flat_spectrum()
        with pytest.raises(NoHoleFound):
            a.measure_hole(AbsorptionSpectrum(grid=g, od=od), 0.0)

    def test_two_dips_measured_independently(self):
        g = a.make_grid(-300e6, 300e6, 0.5e6)
        od = np.full(g.n_bins, 2.0)
        for center, depth in ((-100e6, 1.0), (100e6, 0.6)):
            half = 12.5e6
            od -= depth * half ** 2 / ((g.centers - center) ** 2 + half ** 2)
        spec = AbsorptionSpectrum(grid=g, od=od)
        m1 = a.measure_hole(spec, -100e6, search_radius=60e6)
        m2 = a.measure_hole(spec, 100e6, search_radius=60e6)
        assert m1.depth == pytest.approx(1.0, rel=0.02)
        assert m2.depth == pytest.approx(0.6, rel=0.02)

    def test_off_guess_still_locates(self):
        spec = dip_spectrum(depth=1.0, fwhm=25e6, center=10e6)
        m = a.measure_hole(spec, 0.0)
        assert m.center == pytest.approx(10e6, abs=1e6)

    def test_area_err_matches_seed_spread(self):
        # the 350 G hole 11 ms after a 50 ms burn, read out at 1 MHz bins with
        # 2% noise: area_err is 1 sigma in OD*Hz, so it must match the spread
        # of the area over readout seeds (not the error per unit OD of noise)
        p = a.MaterialParams(b_field=0.035, beta_zeeman=0.05, beta_shf=0.8)
        g = a.make_grid(150e6, 350e6, 1e6)
        seq = a.build_hole_sequence(detuning=250e6, burn_duration=0.05,
                                    power=2e-6, dark_after=0.02)
        state = a.evolve(a.init_equilibrium_state(g, p), seq, p, TlsParams(),
                         [0.061])[0]
        areas, errs = [], []
        for seed in range(48):
            spec = a.simulate_readout(state, p, span=100e6, center=250e6,
                                      noise_rel=0.02, repeats=20, seed=seed)
            m = a.measure_hole(spec, 250e6)
            areas.append(m.area)
            errs.append(m.area_err)
        ratio = np.median(errs) / np.std(areas, ddof=1)
        assert 0.5 <= ratio <= 3.0


class TestAnalyzeComb:
    def test_ideal_square_comb(self):
        spec = square_comb()
        m = a.analyze_comb(spec, 50e6)
        assert m.d0 < 0.02
        assert m.d_peak == pytest.approx(2.0, rel=0.02)
        assert m.finesse == pytest.approx(2.0, rel=0.25)

    def test_white_noise_rejected(self):
        g = a.make_grid(-500e6, 500e6, 0.5e6)
        rng = np.random.default_rng(7)
        od = 1.0 + 0.3 * rng.standard_normal(g.n_bins)
        spec = AbsorptionSpectrum(grid=g, od=np.maximum(od, 0))
        with pytest.raises(NoCombDetected):
            a.analyze_comb(spec, 50e6)

    def test_flat_spectrum_rejected(self):
        g, od = flat_spectrum(span=1e9)
        with pytest.raises(NoCombDetected):
            a.analyze_comb(AbsorptionSpectrum(grid=g, od=od), 50e6)

    def test_window_too_small(self):
        g, od = flat_spectrum(span=100e6)
        with pytest.raises(NoCombDetected):
            a.analyze_comb(AbsorptionSpectrum(grid=g, od=od), 50e6)

    def test_shift_invariance(self):
        m0 = a.analyze_comb(square_comb(), 50e6)
        m3 = a.analyze_comb(square_comb(shift=3 * 50e6), 50e6)
        assert m3.d_peak == pytest.approx(m0.d_peak, rel=1e-6)
        assert m3.d0 == pytest.approx(m0.d0, abs=1e-9)
        assert m3.tooth_fwhm == pytest.approx(m0.tooth_fwhm, rel=1e-3)

    @pytest.mark.parametrize("fwhm", [10e6, 12e6, 14e6, 16e6])
    def test_lorentzian_teeth_width_at_half_contrast(self, fwhm):
        # the width at half contrast between the sampled tooth top and the
        # trough, interpolated between samples to within a tenth of a bin
        spec, width = lorentzian_comb(fwhm)
        m = a.analyze_comb(spec, 50e6)
        assert abs(m.tooth_fwhm - width) < 0.1 * spec.grid.bin_width

    def test_nonpositive_spacing(self):
        spec = square_comb()
        with pytest.raises(NonPositiveSpacing):
            a.analyze_comb(spec, 0.0)

    @pytest.mark.parametrize("spacing", [np.nan, np.inf])
    def test_nonfinite_spacing(self, spacing):
        with pytest.raises(NonPositiveSpacing):
            a.analyze_comb(square_comb(), spacing)
        with pytest.raises(NonPositiveSpacing):
            CombMetrics(d_peak=1.0, d0=0.1, spacing=spacing, tooth_fwhm=10e6,
                        finesse=5.0, bandwidth=300e6)

    def test_coarse_grids_end_in_metrics_or_no_comb(self):
        # bins of 10-60 MHz at a 50 MHz spacing, at three grid phases: a
        # tooth's quarter period may hold no sample and its half period one
        outcomes = set()
        for bin_width in np.arange(10, 61) * 1e6:
            for phase in (0.0, 1 / 3, 2 / 3):
                spec, _ = lorentzian_comb(12e6, bin_width=bin_width, shift=phase * bin_width)
                try:
                    outcomes.add(type(a.analyze_comb(spec, 50e6)))
                except NoCombDetected as exc:
                    outcomes.add(str(exc).split()[0])
        assert {CombMetrics, "bins"} <= outcomes


def folded_profile_loop(nu, od, spacing):
    """Oracle: the per-bucket loop, one np.median and one std per bucket."""
    dnu = float(np.min(np.diff(nu))) if nu.size > 1 else spacing
    n_phase = max(int(round(spacing / dnu)), 4)
    phase_idx = np.floor((nu % spacing) / spacing * n_phase).astype(int)
    phase_idx = np.clip(phase_idx, 0, n_phase - 1)
    profile = np.full(n_phase, np.nan)
    sems = []
    for k in range(n_phase):
        chunk = od[phase_idx == k]
        if chunk.size:
            profile[k] = np.median(chunk)
            if chunk.size > 1:
                sems.append(chunk.std(ddof=1) / np.sqrt(chunk.size))
    sem = float(np.median(sems)) if sems else 0.0
    return profile, sem, n_phase, np.bincount(phase_idx, minlength=n_phase)


class TestFoldedProfile:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_bucket_loop(self, seed):
        rng = np.random.default_rng(seed)
        spacing = 10.3  # ten buckets of 1.03 samples: counts vary period to period
        nu = np.arange(rng.integers(60, 240)) * 1.0
        nu = nu[rng.random(nu.size) > 0.2]  # thinned, for odd and even bucket sizes
        bucket = np.floor((nu % spacing) / spacing * 10).astype(int)
        # empty one bucket and leave a single sample in another
        empty, single = rng.choice(10, size=2, replace=False)
        keep = (bucket != empty) & ((bucket != single) | (nu == nu[bucket == single][0]))
        nu = nu[keep]
        assert np.min(np.diff(nu)) == 1.0
        # rounded values, so buckets also hold ties
        od = np.round(rng.uniform(0.0, 3.0, nu.size) * 10.0 ** rng.uniform(-3, 0), 3)

        profile, sem, n_phase = _folded_profile(nu, od, spacing)
        want, want_sem, want_n, counts = folded_profile_loop(nu, od, spacing)
        assert n_phase == want_n == 10
        sizes = set(counts)
        assert 0 in sizes and 1 in sizes
        assert any(c > 1 and c % 2 for c in sizes) and any(c > 1 and c % 2 == 0 for c in sizes)
        assert np.array_equal(profile, want, equal_nan=True)
        # the one-pass sums add each bucket in another order than np.std, so
        # the SEM may differ in the last bits; it only sets analyze_comb's
        # 7-sigma detection threshold
        assert abs(sem - want_sem) <= 4 * np.spacing(want_sem)


class TestStorageTime:
    def test_values(self):
        assert a.storage_time(50e6) == pytest.approx(20e-9)
        assert a.storage_time(100e6) == pytest.approx(10e-9)

    def test_reciprocal_identity(self):
        for spacing in (1e6, 50e6, 2e9):
            assert a.storage_time(spacing) * spacing == pytest.approx(1.0)

    def test_nonpositive(self):
        with pytest.raises(NonPositiveSpacing):
            a.storage_time(0.0)

    @pytest.mark.parametrize("spacing", [np.nan, np.inf])
    def test_nonfinite(self, spacing):
        with pytest.raises(NonPositiveSpacing):
            a.storage_time(spacing)


class TestAfcEfficiency:
    def test_reference_point(self):
        m = CombMetrics(d_peak=2.0, d0=0.0, spacing=50e6,
                        tooth_fwhm=25e6, finesse=2.0, bandwidth=6.4e9)
        assert a.afc_efficiency(m) == pytest.approx(np.exp(-2.75), rel=1e-9)

    def test_large_background_suppresses(self):
        m = CombMetrics(d_peak=22.0, d0=20.0, spacing=50e6,
                        tooth_fwhm=25e6, finesse=2.0, bandwidth=6.4e9)
        assert a.afc_efficiency(m) < 1e-8

    def test_maximised_at_effective_depth_two(self):
        finesse, d0 = 2.0, 0.0
        d_eff = np.linspace(0.2, 4.0, 381)
        etas = [a.afc_efficiency(CombMetrics(
            d_peak=de * finesse, d0=d0, spacing=50e6,
            tooth_fwhm=25e6, finesse=finesse, bandwidth=1e9)) for de in d_eff]
        assert d_eff[int(np.argmax(etas))] == pytest.approx(2.0, abs=0.02)

    def test_monotone_decreasing_in_background(self):
        etas = [a.afc_efficiency(CombMetrics(
            d_peak=2.0 + d0, d0=d0, spacing=50e6, tooth_fwhm=25e6,
            finesse=2.0, bandwidth=1e9)) for d0 in np.linspace(0, 3, 31)]
        assert np.all(np.diff(etas) < 0)

    def test_monotone_increasing_in_finesse_regime(self):
        # teeth carrying a fixed contrast of 2 OD, finesse 1 to 3
        etas = [a.afc_efficiency(CombMetrics(
            d_peak=2.0, d0=0.0, spacing=50e6, tooth_fwhm=50e6 / f,
            finesse=f, bandwidth=1e9)) for f in np.linspace(1.0, 3.0, 21)]
        assert np.all(np.diff(etas) > 0)


def fig2_field(noise_rel):
    """hole_decay_experiment's arguments for fig2's 350 G field at config
    seed 3, with a fresh SeedSequence each call."""
    config = experiments.default_config()
    cfg = config.fig2
    params = config.material.with_(beta_zeeman=cfg.beta_zeeman, beta_shf=cfg.beta_shf)
    delays = np.geomspace(cfg.delay_min, cfg.delay_max, cfg.n_delays)
    kwargs = dict(seed=np.random.SeedSequence(3).spawn(1)[0], burn_power=cfg.burn_power,
                  detuning=cfg.detuning, hole_width=cfg.hole_width,
                  burn_duration=cfg.burn_duration, span=cfg.span, noise_rel=noise_rel,
                  repeats=cfg.repeats, bin_width=config.bin_width)
    return cfg.fields_gauss[0] * 1e-4, delays, params, config.tls, kwargs


def per_state_curve(b_field, delays, params, tls, kw):
    """The decay curve from the public per-state functions: evolve's states,
    one simulate_readout and one measure_hole each."""
    p = params.with_(b_field=b_field)
    det, span = kw["detuning"], kw["span"]
    state = a.init_equilibrium_state(a.make_grid(det - span, det + span, kw["bin_width"]), p)
    seq = a.build_hole_sequence(detuning=det, burn_duration=kw["burn_duration"],
                                power=kw["burn_power"], width=kw["hole_width"],
                                dark_after=float(delays[-1]) * 1.0001 + 1e-6)
    states = a.evolve(state, seq, p, tls, [kw["burn_duration"] + d for d in delays])
    floor = 1e-7 if kw["noise_rel"] == 0 else None
    kept, areas, sigmas, dropped = [], [], [], []
    for delay, st, child in zip(delays, states, kw["seed"].spawn(len(states))):
        spect = a.simulate_readout(st, p, span=span, center=det, noise_rel=kw["noise_rel"],
                                   repeats=kw["repeats"], seed=child)
        try:
            m = a.measure_hole(spect, det, min_depth=floor)
        except (NoHoleFound, FitDiverged) as exc:
            dropped.append((float(delay), str(exc)))
            continue
        kept.append(delay)
        areas.append(m.area)
        sigmas.append(m.area_err)
    return np.array(kept), np.array(areas), np.array(sigmas), tuple(dropped)


class TestHoleDecayExperiment:
    @pytest.mark.parametrize("noise_rel", [0.0, 0.02])
    def test_matches_the_per_state_path_bit_for_bit(self, noise_rel):
        b_field, delays, params, tls, kw = fig2_field(noise_rel)
        curve = a.hole_decay_experiment(b_field, delays, params, tls, **kw)
        kw = fig2_field(noise_rel)[-1]  # spawning used up the first seed's children
        kept, areas, sigmas, dropped = per_state_curve(b_field, delays, params, tls, kw)
        assert curve.delays.tobytes() == kept.tobytes()
        assert curve.areas.tobytes() == areas.tobytes()
        assert curve.sigmas.tobytes() == sigmas.tobytes()
        assert curve.dropped == dropped
        # the noisy curve loses its latest delays below the noise floor
        assert bool(dropped) == (noise_rel > 0)

    def test_one_spectrum_pass_per_field(self, monkeypatch):
        # the convolutions of a whole decay are those of one spectrum, not
        # one set per delay
        p = a.MaterialParams(b_field=0.035, beta_zeeman=0.05, beta_shf=0.8)
        g = a.make_grid(150e6, 350e6, 0.5e6)
        seq = a.build_hole_sequence(burn_duration=0.3, power=2e-6, dark_after=0.1)
        burned = a.evolve(a.init_equilibrium_state(g, p), seq, p, a.TlsParams(), [0.35])[0]
        calls = []
        convolve = core._convolve_padded
        monkeypatch.setattr(core, "_convolve_padded",
                            lambda *args: calls.append(args) or convolve(*args))
        a.absorption_spectrum(burned, p)
        per_spectrum = len(calls)
        assert per_spectrum in (2, 3)
        for _ in range(2):
            calls.clear()
            a.hole_decay_experiment(0.035, np.geomspace(0.02, 2.0, 8), p, a.TlsParams(),
                                    seed=5, burn_power=2e-6)
            assert len(calls) == per_spectrum

    def test_rejects_negative_noise(self):
        # run_fig2 reaches it from a config, which takes any finite noise_rel
        with pytest.raises(NonPositiveInput):
            a.hole_decay_experiment(0.035, [0.05], a.MaterialParams(), TlsParams(),
                                    noise_rel=-0.02)
        cfg = experiments.default_config()
        cfg.fig2 = replace(cfg.fig2, noise_rel=-0.02)
        with pytest.raises(NonPositiveInput):
            experiments.run_fig2(cfg, write=False)

    def test_rejects_short_delays(self):
        p = a.MaterialParams()
        with pytest.raises(InvalidRange):
            a.hole_decay_experiment(0.035, [1e-3], p, TlsParams.disabled())

    def test_two_delay_areas_match_linear_relaxation_oracle(self):
        # zero noise, TLS off: dark areas follow the two-reservoir decay
        p = a.MaterialParams(b_field=0.035, beta_zeeman=0.05, beta_shf=0.8)
        tls = TlsParams.disabled()
        delays = [0.05, 0.2, 0.8, 2.0]
        curve = a.hole_decay_experiment(0.035, delays, p, tls, seed=3,
                                        burn_power=2e-6)
        from afcsim.relaxation import flipflop_lifetime
        tl = flipflop_lifetime(0.035, p.temperature, p)
        ts = p.t_short
        # solve the two-component amplitudes from the first two points and
        # predict the remaining areas
        t = np.asarray(delays)
        basis = np.stack([np.exp(-t / ts), np.exp(-t / tl)], axis=1)
        coef, *_ = np.linalg.lstsq(basis[:2], curve.areas[:2], rcond=None)
        predicted = basis @ coef
        assert np.allclose(curve.areas[2:], predicted[2:], rtol=0.05)

    def test_hole_below_noise_floor_is_dropped(self):
        # 0.5 s after a short weak burn the 350 G hole is at the noise floor
        p = a.MaterialParams(b_field=0.035, beta_zeeman=0.05, beta_shf=0.8)
        curve = a.hole_decay_experiment(
            0.035, [0.05, 0.5], p, TlsParams(), burn_power=2e-6,
            burn_duration=0.05, noise_rel=0.2, bin_width=1e6, seed=1)
        assert list(curve.delays) == [0.05]
        assert [d for d, _ in curve.dropped] == [0.5]
        assert "below threshold" in curve.dropped[0][1]
        assert curve.as_dict()["dropped"] == [[0.5, curve.dropped[0][1]]]

    def test_curve_is_decreasing_and_positive(self):
        p = a.MaterialParams(b_field=0.06, beta_zeeman=0.05, beta_shf=0.8)
        delays = np.geomspace(0.02, 2.0, 8)
        curve = a.hole_decay_experiment(0.06, delays, p, TlsParams.disabled(),
                                        seed=5, burn_power=2e-6)
        assert np.all(curve.areas > 0)
        assert np.all(np.diff(curve.areas) < 0)
