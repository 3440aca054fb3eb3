import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.fft import dct, idct
from scipy.linalg import expm

import afcsim as a
from afcsim.core import boltzmann_polarization
from afcsim.pumping import _comb_segment, _contour_expmv, _feature_shape, _rate_matrices
from afcsim.errors import (
    InvalidCombGeometry,
    InvalidGeometry,
    InvalidRange,
    NonPositiveInput,
    NonPositivePower,
    StepSizeUnderflow,
)
from afcsim.relaxation import TlsParams, flipflop_lifetime


def dark_sequence(duration, dark):
    seg = a.PumpSegment(duration=duration,
                        features=(a.PumpFeature(0.0, 1e6, 0.0),),
                        total_power=0.0)
    return a.PumpSequence(segments=(seg,), dark_after=dark)


def sequences():
    """Valid sequences of 1-4 segments: each with 0-5 features, either shape,
    a carrier leak in [0, 1] and a total power >= 0, then a dark tail >= 0."""
    positive = st.floats(min_value=1e-300, max_value=1e300)
    non_negative = st.floats(min_value=0.0, max_value=1e300)
    feature = st.builds(a.PumpFeature, center=st.floats(-1e12, 1e12),
                        width=positive, power=non_negative)
    segment = st.builds(a.PumpSegment, duration=positive,
                        features=st.lists(feature, max_size=5).map(tuple),
                        carrier_leak=st.floats(0.0, 1.0),
                        shape=st.sampled_from(["tophat", "gaussian"]),
                        total_power=non_negative)
    return st.builds(a.PumpSequence,
                     segments=st.lists(segment, min_size=1, max_size=4),
                     dark_after=non_negative)


def strict_json(text):
    """Parse ``text`` as JSON proper: NaN and Infinity are not JSON."""
    def refuse(token):
        raise AssertionError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestBuilders:
    def test_hole_sequence_defaults(self):
        seq = a.build_hole_sequence(power=1e-5)
        assert len(seq.segments) == 1
        seg = seq.segments[0]
        assert seg.duration == 0.3
        assert len(seg.features) == 1
        assert seg.features[0].center == 250e6
        # serrodyne at 250 MHz delivers 87.5%, the rest leaks to the carrier
        assert seg.features[0].power == pytest.approx(1e-5 * 0.875)
        assert seg.carrier_leak == pytest.approx(0.125)

    def test_hole_sequence_rejects_zero_power(self):
        with pytest.raises(NonPositivePower):
            a.build_hole_sequence(power=0.0)

    def test_afc_pit_count_full_band(self):
        seq = a.build_afc_sequence(6.4e9, 50e6, 25e6, 0.3, 5e-4)
        assert len(seq.segments[0].features) == 128
        centers = np.array([f.center for f in seq.segments[0].features])
        assert centers.min() == pytest.approx(-3175e6)
        assert centers.max() == pytest.approx(3175e6)
        assert np.allclose(np.diff(centers), 50e6)

    def test_afc_pit_count_narrow(self):
        seq = a.build_afc_sequence(0.2e9, 50e6, 25e6, 0.3, 5e-4)
        assert len(seq.segments[0].features) == 4

    def test_afc_overlapping_pits_rejected(self):
        with pytest.raises(InvalidCombGeometry):
            a.build_afc_sequence(6.4e9, 50e6, 60e6, 0.3, 5e-4)

    def test_afc_bandwidth_below_spacing_rejected(self):
        with pytest.raises(InvalidCombGeometry):
            a.build_afc_sequence(20e6, 50e6, 25e6, 0.3, 5e-4)

    def test_afc_constant_total_power(self):
        for bw in (0.4e9, 1.6e9):
            seq = a.build_afc_sequence(bw, 50e6, 25e6, 0.3, 5e-4)
            seg = seq.segments[0]
            delivered = sum(f.power for f in seg.features)
            assert delivered + seg.carrier_leak * seg.total_power == \
                pytest.approx(5e-4)

    @pytest.mark.parametrize("second", [(0.2e9, -0.6e9), (0.4e9, -1e9)])
    def test_comb_pair_power_accounting(self, second):
        # table1's pairs: the measured comb at zero detuning beside a second
        # one below it, burned in one segment
        total = 5e-4
        seg = _comb_segment(((0.2e9, 0.0), second), 50e6, 25e6, 0.3, total, "tophat")
        n_second = int(round(second[0] / 50e6))
        combs = (seg.features[:4], seg.features[4:])
        assert len(combs[1]) == n_second
        # each comb requests half the total, shared equally by its pits, and
        # each pit gets the serrodyne efficiency at its detuning of that share
        for comb in combs:
            for f in comb:
                assert f.power == total / 2 / len(comb) * a.serrodyne_efficiency(abs(f.center))
        centers = np.array([f.center for f in combs[1]])
        assert centers.mean() == pytest.approx(second[1], rel=1e-12)
        delivered = sum(f.power for f in seg.features)
        assert delivered + seg.carrier_power == pytest.approx(total, rel=1e-15)
        assert seg.total_power == total

    def test_one_comb_segment_is_the_afc_segment(self):
        seg = _comb_segment(((6.4e9, 0.0),), 50e6, 25e6, 0.3, 5e-4, "tophat")
        assert seg == a.build_afc_sequence(6.4e9, 50e6, 25e6, 0.3, 5e-4).segments[0]

    def test_two_hole_geometry(self):
        seq = a.build_two_hole_sequence(pump_power=1e-5, probe_power=2e-6)
        f1, f2 = seq.segments[0].features
        assert f2.center - f1.center == pytest.approx(200e6)

    def test_two_hole_invalid_geometry(self):
        with pytest.raises(InvalidGeometry):
            a.build_two_hole_sequence(separation=10e6, hole_width=25e6,
                                      pump_power=1e-5, probe_power=1e-6)

    def test_sequence_json_roundtrip(self):
        seq = a.build_afc_sequence(0.4e9, 50e6, 25e6, 0.3, 5e-4, dark_after=0.03)
        clone = a.PumpSequence.from_json(seq.to_json())
        assert clone == seq

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(sequences())
    def test_sequence_json_roundtrip_generated(self, seq):
        text = seq.to_json()
        strict_json(text)
        assert a.PumpSequence.from_json(text) == seq
        assert a.PumpSequence.from_json(text).to_json() == text


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestSequenceValidation:
    """Sequences hold finite values only, so ``to_json`` always writes JSON,
    and ``from_json`` reports bad input as a library error naming it."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_feature_rejects_non_finite(self, bad):
        with pytest.raises(InvalidGeometry, match="center"):
            a.PumpFeature(bad, 1e6, 0.0)
        with pytest.raises(InvalidGeometry, match="width"):
            a.PumpFeature(0.0, bad, 0.0)
        with pytest.raises(NonPositivePower, match="power"):
            a.PumpFeature(0.0, 1e6, bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_segment_and_sequence_reject_non_finite(self, bad):
        features = (a.PumpFeature(0.0, 1e6, 0.0),)
        with pytest.raises(InvalidGeometry, match="duration"):
            a.PumpSegment(duration=bad, features=features)
        with pytest.raises(InvalidGeometry, match="carrier_leak"):
            a.PumpSegment(duration=0.1, features=features, carrier_leak=bad)
        with pytest.raises(NonPositivePower, match="total_power"):
            a.PumpSegment(duration=0.1, features=features, total_power=bad)
        seg = a.PumpSegment(duration=0.1, features=features)
        with pytest.raises(InvalidGeometry, match="dark_after"):
            a.PumpSequence(segments=(seg,), dark_after=bad)

    def test_from_json_names_a_missing_key(self):
        with pytest.raises(NonPositiveInput, match="duration_s"):
            a.PumpSequence.from_json('{"segments": [{}]}')

    def test_from_json_names_a_value_of_the_wrong_type(self):
        text = '{"segments": [{"duration_s": "0.3", "features": []}]}'
        with pytest.raises(NonPositiveInput, match="duration_s.*'0.3'"):
            a.PumpSequence.from_json(text)

    def test_from_json_rejects_a_document_that_is_not_an_object(self):
        with pytest.raises(NonPositiveInput, match="segments"):
            a.PumpSequence.from_json("[1]")

    def test_from_json_rejects_text_that_is_not_json(self):
        with pytest.raises(NonPositiveInput, match="not JSON"):
            a.PumpSequence.from_json('{"segments": [')

    @pytest.mark.parametrize("key", ["center_hz", "width_hz", "power_w", "duration_s"])
    def test_from_json_names_an_integer_too_large_for_a_float(self, key):
        feature = {"center_hz": 0.0, "width_hz": 1e6, "power_w": 1e-3}
        segment = {"duration_s": 0.1, "features": [feature]}
        (segment if key == "duration_s" else feature)[key] = int("9" * 400)
        with pytest.raises(NonPositiveInput, match=key):
            a.PumpSequence.from_json(json.dumps({"segments": [segment]}))

    def test_from_json_rejects_a_non_finite_token(self):
        text = '{"segments": [{"duration_s": NaN, "features": []}]}'
        with pytest.raises(InvalidGeometry, match="duration"):
            a.PumpSequence.from_json(text)


class TestSerrodyne:
    def test_anchor_points(self):
        assert a.serrodyne_efficiency(0.0) == 1.0
        assert a.serrodyne_efficiency(1e9) == 0.5
        assert a.serrodyne_efficiency(3e9) == 0.0

    def test_linear_between(self):
        assert a.serrodyne_efficiency(0.5e9) == pytest.approx(0.75)


class TestPumpRateProfile:
    def test_zero_power(self):
        p = a.MaterialParams()
        g = a.make_grid(-100e6, 100e6, 1e6)
        seg = a.PumpSegment(duration=0.1,
                            features=(a.PumpFeature(0.0, 25e6, 0.0),),
                            total_power=0.0)
        assert np.all(a.pump_rate_profile(seg, g, p) == 0.0)

    def test_halving_width_doubles_peak(self):
        p = a.MaterialParams()
        g = a.make_grid(-100e6, 100e6, 0.25e6)
        segs = [a.PumpSegment(duration=0.1,
                              features=(a.PumpFeature(0.0, w, 1e-5),),
                              total_power=1e-5) for w in (25e6, 12.5e6)]
        peaks = [a.pump_rate_profile(s, g, p).max() for s in segs]
        assert peaks[1] / peaks[0] == pytest.approx(2.0, rel=0.01)

    def test_saturation_nonlinearity_with_bandwidth(self):
        # halving the per-bin rate by doubling the bandwidth raises the total
        # steady-state excited population because excitation saturates; ideal
        # modulation efficiency (every pit gets its share of the 0.5 mW, no
        # carrier leak) keeps the delivered power truly constant
        p = a.MaterialParams()
        g = a.make_grid(-3.3e9, 3.3e9, 1e6)
        n_exc = []
        for bw in (1.6e9, 3.2e9):
            n_pits = int(round(bw / 50e6))
            offsets = (np.arange(n_pits) - (n_pits - 1) / 2.0) * 50e6
            seg = a.PumpSegment(duration=0.3, total_power=5e-4, features=tuple(
                a.PumpFeature(off, 25e6, 5e-4 / n_pits) for off in offsets))
            rate = a.pump_rate_profile(seg, g, p)
            s = rate * p.t1_opt
            n_exc.append(np.sum(s / (2.0 * (1.0 + s))))
        assert n_exc[1] > n_exc[0]

    def test_rates_within_comb_scale_inversely_with_bandwidth(self):
        p = a.MaterialParams()
        g = a.make_grid(-200e6, 200e6, 0.5e6)
        peaks = []
        for bw in (1.6e9, 3.2e9):
            seq = a.build_afc_sequence(bw, 50e6, 25e6, 0.3, 5e-4)
            rate = a.pump_rate_profile(seq.segments[0], g, p)
            i = int((75e6 - g.nu_min) / g.bin_width)  # central pit, same serrodyne efficiency
            peaks.append(rate[i])
        assert peaks[1] / peaks[0] == pytest.approx(0.5, rel=0.01)

    def test_carrier_leak_adds_dc_feature(self):
        p = a.MaterialParams()
        g = a.make_grid(-100e6, 400e6, 0.5e6)
        seq = a.build_hole_sequence(detuning=250e6, power=1e-5)
        rate = a.pump_rate_profile(seq.segments[0], g, p)
        i_0, i_100, i_250 = (int((nu - g.nu_min) / g.bin_width) for nu in (0.0, 100e6, 250e6))
        assert rate[i_0] > rate[i_100]
        assert rate[i_250] > 0

    @pytest.mark.parametrize("combs, lo, hi, bin_width, shape", [
        # pits whole bins apart, 0.2 of a bin off their bin centres, some of
        # them beyond the grid
        (((1.6e9, 0.15e6),), -700e6, 900e6, 0.5e6, "tophat"),
        (((1.6e9, 0.15e6),), -700e6, 900e6, 0.5e6, "gaussian"),
        # Table 1's comb pair, 1.4 GHz apart
        (((200e6, 0.0), (200e6, -1.4e9)), -1.6e9, 250e6, 0.5e6, "tophat"),
        # a spacing of 166.7 bins: the pits fall at three places in their bins
        (((3.2e9, 0.0),), -1.75e9, 1.75e9, 0.3e6, "tophat"),
        # pits spread over 16 times the grid
        (((3.2e9, 0.0),), -100e6, 100e6, 0.5e6, "tophat"),
    ])
    def test_profile_equals_the_per_pit_sum(self, combs, lo, hi, bin_width, shape):
        p = a.MaterialParams()
        g = a.make_grid(lo, hi, bin_width)
        seg = _comb_segment(combs, 50e6, 25e6, 0.3, 5e-4, shape)
        nu = g.centers
        want = np.zeros_like(nu)
        for f in seg.features:
            want += p.pump_xsec * f.power / f.width * _feature_shape(
                nu, f.center, f.width, p.gamma_h_fwhm, shape)
        width = max(p.gamma_h_fwhm, 1e6)
        want += p.pump_xsec * seg.carrier_power / width * _feature_shape(
            nu, 0.0, width, p.gamma_h_fwhm, "tophat")
        rate = a.pump_rate_profile(seg, g, p)
        assert np.abs(rate - want).max() <= 1e-15 * want.max()


class TestEvolve:
    def test_dark_relaxation_matches_ivp_oracle(self):
        p = a.MaterialParams(b_field=0.035)
        g = a.make_grid(-50e6, 50e6, 2e6)
        st = a.init_equilibrium_state(g, p)
        sel = np.abs(g.centers) < 15e6
        st.n_z[sel] += 0.25
        st.n_h[sel] += 0.30
        st.n_g[sel] -= 0.55
        st.validate()
        rec = [0.5, 1.0, 2.0, 4.0]
        out = a.evolve(st, dark_sequence(1.0, 3.0), p, TlsParams.disabled(), rec)

        pol = boltzmann_polarization(p.b_field, p.temperature, p.g_factor)
        cz = (1 - pol) / 2
        tl = flipflop_lifetime(p.b_field, p.temperature, p)
        a_opt = 1 / p.t1_opt

        def rhs(t, y):
            ng, nz, nh, ne = y
            dev = nz - cz * (ng + nz)
            return [(1 - p.beta_zeeman - p.beta_shf) * ne * a_opt
                    + dev / tl + nh / p.t_short,
                    p.beta_zeeman * ne * a_opt - dev / tl,
                    p.beta_shf * ne * a_opt - nh / p.t_short,
                    -ne * a_opt]

        i = int((0.0 - g.nu_min) / g.bin_width)
        sol = solve_ivp(rhs, (0, 4.0),
                        [st.n_g[i], st.n_z[i], st.n_h[i], st.n_e[i]],
                        t_eval=rec, rtol=1e-11, atol=1e-13)
        for k in range(len(rec)):
            sim = np.array([out[k].n_g[i], out[k].n_z[i],
                            out[k].n_h[i], out[k].n_e[i]])
            assert np.max(np.abs(sim - sol.y[:, k])) < 1e-6

    def test_dark_grating_decays_double_exponentially(self):
        p = a.MaterialParams(b_field=0.035)
        g = a.make_grid(-50e6, 50e6, 2e6)
        st = a.init_equilibrium_state(g, p)
        sel = np.abs(g.centers) < 15e6
        st.n_z[sel] += 0.2
        st.n_h[sel] += 0.3
        st.n_g[sel] -= 0.5
        st.validate()
        times = np.geomspace(0.02, 4.0, 24)
        out = a.evolve(st, dark_sequence(1.0, 4.0), p, TlsParams.disabled(),
                       list(times))
        i = int((0.0 - g.nu_min) / g.bin_width)
        eq = a.init_equilibrium_state(g, p)
        amp = np.array([eq.n_g[i] - o.n_g[i] for o in out])
        res = a.fit_curve(a.model_double_exponential(), times, amp)
        tl = flipflop_lifetime(p.b_field, p.temperature, p)
        assert res["t_short"] == pytest.approx(p.t_short, rel=0.05)
        assert res["t_long"] == pytest.approx(tl, rel=0.05)

    def test_excited_level_empty_after_wait(self):
        p = a.MaterialParams(b_field=0.035)
        g = a.make_grid(150e6, 350e6, 1e6)
        st = a.init_equilibrium_state(g, p)
        seq = a.build_hole_sequence(detuning=250e6, power=2e-5, dark_after=0.03)
        out = a.evolve(st, seq, p, TlsParams.disabled(), [0.33])
        assert out[0].n_e.max() < 1e-6

    def test_class_conservation_random_sequences(self):
        rng = np.random.default_rng(99)
        p = a.MaterialParams()
        tls = TlsParams()
        for _ in range(30):
            n_bins = rng.integers(16, 48)
            g = a.make_grid(-n_bins / 2 * 1e6, n_bins / 2 * 1e6, 1e6)
            st = a.init_equilibrium_state(g, p)
            segs = []
            for _ in range(rng.integers(1, 3)):
                feats = tuple(
                    a.PumpFeature(rng.uniform(-20e6, 20e6),
                                  rng.uniform(2e6, 20e6),
                                  rng.uniform(0, 2e-5))
                    for _ in range(rng.integers(1, 4)))
                segs.append(a.PumpSegment(
                    duration=rng.uniform(0.002, 0.02), features=feats,
                    carrier_leak=rng.uniform(0, 0.3),
                    total_power=rng.uniform(0, 5e-4)))
            seq = a.PumpSequence(segments=tuple(segs),
                                 dark_after=rng.uniform(0, 0.02))
            out = a.evolve(st, seq, p, tls, [seq.total_duration])[0]
            total = out.n_g + out.n_z + out.n_h + out.n_e
            assert np.max(np.abs(total - 1.0)) < 1e-9
            for arr in (out.n_g, out.n_z, out.n_h, out.n_e):
                assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_positivity_under_extreme_rate(self):
        p = a.MaterialParams()
        g = a.make_grid(-20e6, 20e6, 1e6)
        st = a.init_equilibrium_state(g, p)
        seg = a.PumpSegment(duration=0.05,
                            features=(a.PumpFeature(0.0, 10e6, 1.0),),
                            total_power=1.0)
        seq = a.PumpSequence(segments=(seg,), dark_after=0.0)
        out = a.evolve(st, seq, p, TlsParams.disabled(), [0.05])[0]
        for arr in (out.n_g, out.n_z, out.n_h, out.n_e):
            assert arr.min() >= 0.0 and arr.max() <= 1.0
        total = out.n_g + out.n_z + out.n_h + out.n_e
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_dark_convergence_to_equilibrium(self):
        p = a.MaterialParams(b_field=0.035)
        g = a.make_grid(-30e6, 30e6, 2e6)
        st = a.init_equilibrium_state(g, p)
        sel = np.abs(g.centers) < 10e6
        st.n_z[sel] += 0.4
        st.n_g[sel] -= 0.4
        out = a.evolve(st, dark_sequence(0.01, 15.0), p,
                       TlsParams.disabled(), [15.0])[0]
        eq = a.init_equilibrium_state(g, p)
        assert np.max(np.abs(out.n_g - eq.n_g)) < 1e-6
        assert np.max(np.abs(out.n_z - eq.n_z)) < 1e-6

    def test_dark_linil_superposition(self):
        p = a.MaterialParams(b_field=0.06)
        g = a.make_grid(-30e6, 30e6, 2e6)
        base = a.init_equilibrium_state(g, p)
        sel = np.abs(g.centers) < 10e6

        st1 = copy.deepcopy(base)
        st1.n_z[sel] += 0.3
        st1.n_g[sel] -= 0.3
        st2 = copy.deepcopy(base)
        st2.n_h[sel] += 0.4
        st2.n_g[sel] -= 0.4
        mix = copy.deepcopy(base)
        for name in ("n_g", "n_z", "n_h", "n_e"):
            setattr(mix, name, 0.5 * getattr(st1, name) + 0.5 * getattr(st2, name))

        seq = dark_sequence(0.01, 2.0)
        tls = TlsParams.disabled()
        o1 = a.evolve(st1, seq, p, tls, [0.5, 2.0])
        o2 = a.evolve(st2, seq, p, tls, [0.5, 2.0])
        om = a.evolve(mix, seq, p, tls, [0.5, 2.0])
        for k in range(2):
            lin = 0.5 * (o1[k].n_g + o2[k].n_g)
            assert np.max(np.abs(lin - om[k].n_g)) < 1e-9

    def test_hole_area_monotone_in_power(self):
        p = a.MaterialParams()
        g = a.make_grid(150e6, 350e6, 1e6)
        tls = TlsParams.disabled()
        areas = []
        for power in (1e-6, 3e-6, 1e-5, 3e-5):
            st = a.init_equilibrium_state(g, p)
            seq = a.build_hole_sequence(detuning=250e6, power=power,
                                        dark_after=0.03)
            out = a.evolve(st, seq, p, tls, [0.33])[0]
            spec = a.absorption_spectrum(out, p)
            areas.append(a.measure_hole(spec, 250e6).area)
        assert np.all(np.diff(areas) > 0)

    def test_hole_area_monotone_in_duration(self):
        p = a.MaterialParams()
        g = a.make_grid(150e6, 350e6, 1e6)
        tls = TlsParams.disabled()
        areas = []
        for dur in (0.15, 0.3, 0.6):
            st = a.init_equilibrium_state(g, p)
            seq = a.build_hole_sequence(detuning=250e6, power=2e-6,
                                        burn_duration=dur, dark_after=0.03)
            out = a.evolve(st, seq, p, tls, [dur + 0.03])[0]
            spec = a.absorption_spectrum(out, p)
            areas.append(a.measure_hole(spec, 250e6).area)
        assert np.all(np.diff(areas) > 0)

    def test_probe_power_zero_equivalent_to_single_hole(self):
        p = a.MaterialParams()
        g = a.make_grid(0.0, 500e6, 1e6)
        tls = TlsParams()
        st = a.init_equilibrium_state(g, p)
        two = a.build_two_hole_sequence(pump_power=1e-5, probe_power=0.0,
                                        dark_after=0.03)
        pump_center = two.segments[0].features[0].center
        one = a.build_hole_sequence(detuning=pump_center, power=1e-5,
                                    dark_after=0.03)
        s_two = a.evolve(st, two, p, tls, [0.33])[0]
        s_one = a.evolve(st, one, p, tls, [0.33])[0]
        for name in ("n_g", "n_z", "n_h", "n_e"):
            assert np.max(np.abs(getattr(s_two, name) - getattr(s_one, name))) < 1e-9

    def test_tls_keeps_hole_from_transparency(self):
        p = a.MaterialParams()
        g = a.make_grid(150e6, 350e6, 1e6)
        st = a.init_equilibrium_state(g, p)
        seq = a.build_hole_sequence(detuning=250e6, power=1.5e-4, dark_after=0.03)
        clean = a.evolve(st, seq, p, TlsParams.disabled(), [0.33])[0]
        filled = a.evolve(st, seq, p, TlsParams(), [0.33])[0]
        i = int((250e6 - g.nu_min) / g.bin_width)
        assert filled.n_g[i] > clean.n_g[i]
        assert filled.n_g[i] > 0.01  # strictly short of full transparency

    def test_step_halving_convergence(self):
        p = a.MaterialParams()
        g = a.make_grid(150e6, 350e6, 1e6)
        st = a.init_equilibrium_state(g, p)
        seq = a.build_hole_sequence(detuning=250e6, burn_duration=0.06,
                                    power=2e-5, dark_after=0.04)
        rec = [0.06, 0.1]
        tls = TlsParams()
        out1 = a.evolve(st, seq, p, tls, rec)
        out2 = a.evolve(st, seq, p, tls, rec,
                        dt_lit=p.t1_opt / 100, dt_dark=p.t_short / 200)
        for o1, o2 in zip(out1, out2):
            for name in ("n_g", "n_z", "n_h", "n_e"):
                assert np.max(np.abs(getattr(o1, name) - getattr(o2, name))) < 1e-6

    def test_record_time_validation(self):
        p = a.MaterialParams()
        g = a.make_grid(-20e6, 20e6, 1e6)
        st = a.init_equilibrium_state(g, p)
        seq = dark_sequence(0.01, 0.0)
        with pytest.raises(InvalidRange):
            a.evolve(st, seq, p, TlsParams.disabled(), [0.5])
        with pytest.raises(InvalidRange):
            a.evolve(st, seq, p, TlsParams.disabled(), [0.01, 0.005])
        with pytest.raises(InvalidRange):
            a.evolve(st, seq, p, TlsParams.disabled(), [float("nan")])

    def test_step_underflow(self):
        p = a.MaterialParams()
        g = a.make_grid(-20e6, 20e6, 1e6)
        st = a.init_equilibrium_state(g, p)
        with pytest.raises(StepSizeUnderflow):
            a.evolve(st, dark_sequence(0.01, 0.0), p, TlsParams.disabled(),
                     [0.01], dt_lit=1e-13)


def reflective_laplacian(n):
    """The n x n second difference with reflective boundaries."""
    lap = np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1)
    lap -= np.diag(lap.sum(axis=1))
    return lap


class TestHeatKernel:
    @pytest.mark.parametrize("coeff", [0.05, 0.2028, 0.9])
    @pytest.mark.parametrize("n", [2, 3, 5, 50])
    def test_reflect_taps_match_reflective_laplacian(self, n, coeff):
        # with no pump and no relaxation the rational solve is the pure heat
        # kernel exp(coeff L) on every level; checked over one and two steps.
        # The 7-pole rational rule is off by up to 1.5e-14 here, well inside 1e-11
        pops = np.random.default_rng(n).uniform(size=(n, 4))
        zeros = np.zeros((4, 4))
        for steps in (1, 2):
            got = _contour_expmv(zeros, zeros, np.zeros(n), coeff, float(steps), pops.ravel())
            want = expm(steps * coeff * reflective_laplacian(n)) @ pops
            assert np.max(np.abs(got.reshape(n, 4) - want)) <= 1e-11

    # 3708 is the product of the burn time and the diffusion rate of fig4's
    # combs, where a dense expm of the Laplacian is itself off by about 3e-12
    @pytest.mark.parametrize("coeff", [0.05, 3.0, 100.0, 3708.0])
    def test_totals_follow_the_heat_kernel_with_pumping_on(self, coeff):
        # whatever the pump does, each bin's total g + z + h + e obeys the
        # heat equation alone; here the totals start away from 1, so they
        # are not left fixed by the diffusion
        rng = np.random.default_rng(11)
        n = 60
        relax, pump = _rate_matrices(a.MaterialParams(), 20.0, 0.3)
        pops = rng.uniform(size=(n, 4))
        got = _contour_expmv(relax, pump, rng.uniform(0.0, 1e3, n), coeff, 1.0, pops.ravel())
        # exp(coeff L) in the cosine basis that diagonalises L
        decay = np.exp(-4.0 * coeff * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2)
        want = idct(decay * dct(pops.sum(axis=1), norm="ortho"), norm="ortho")
        assert np.max(np.abs(got.reshape(n, 4).sum(axis=1) - want)) <= 1e-13

    # fig4's tau diff again; from an equilibrium state every bin's total is
    # the same number, so no tridiagonal solve is made, and moving one bin's
    # total by 1e-12 makes one at each pole
    @pytest.mark.parametrize("moved", [0.0, 1e-12])
    def test_equilibrium_start_against_dense_expm(self, moved):
        n, tau, diff = 40, 0.3, 3708.0 / 0.3
        params = a.MaterialParams()
        state = a.init_equilibrium_state(a.make_grid(0.0, n * 1e6, 1e6), params)
        pops = np.stack([state.n_g, state.n_z, state.n_h, state.n_e], axis=1)
        pops[n // 3, 1] += moved
        totals = pops.sum(axis=1)
        assert (totals == totals.mean()).all() == (moved == 0.0)
        relax, pump = _rate_matrices(params, 20.0, 0.3)
        rate = np.random.default_rng(3).uniform(0.0, 1e3, n)
        got = _contour_expmv(relax, pump, rate, diff, tau, pops.ravel()).reshape(n, 4)
        gen = (np.kron(np.eye(n), relax) + np.kron(np.diag(rate), pump)
               + diff * np.kron(reflective_laplacian(n), np.eye(4)))
        want = (expm(tau * gen) @ pops.ravel()).reshape(n, 4)
        assert np.max(np.abs(got - want)) <= 1e-11
        # each bin's total follows the heat kernel to rounding (it stays put
        # when the totals are uniform)
        decay = np.exp(-4.0 * tau * diff * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2)
        heat = idct(decay * dct(totals, norm="ortho"), norm="ortho")
        assert np.max(np.abs(got.sum(axis=1) - heat)) <= 1e-15
        if moved == 0.0:
            assert np.max(np.abs(got.sum(axis=1) - totals)) <= 1e-15


class TestEvolveSnapshots:
    def test_snapshots_are_independent_1d_arrays(self):
        p = a.MaterialParams()
        g = a.make_grid(240e6, 260e6, 1e6)
        st = a.init_equilibrium_state(g, p)
        before = copy.deepcopy(st)
        seq = a.build_hole_sequence(detuning=250e6, burn_duration=0.01, power=2e-5,
                                    width=5e6, dark_after=0.01)
        out = a.evolve(st, seq, p, TlsParams(), [0.0, 0.005, 0.005, 0.02])
        levels = ("n_g", "n_z", "n_h", "n_e")
        for snap in out:
            for name in levels:
                arr = getattr(snap, name)
                assert arr.dtype == np.float64 and arr.shape == (g.n_bins,)
        kept = [{name: getattr(s, name).copy() for name in levels} for s in out]
        out[1].n_g[:] = -1.0
        for k, snap in enumerate(out):
            for name in levels:
                if (k, name) != (1, "n_g"):
                    assert np.array_equal(getattr(snap, name), kept[k][name])
        for name in levels:
            assert np.array_equal(getattr(st, name), getattr(before, name))

    def test_every_accepted_record_time_is_recorded(self):
        # a last record time within the accepted rounding of a long
        # sequence's end comes back, so records pair with their times
        p = a.MaterialParams()
        g = a.make_grid(240e6, 260e6, 1e6)
        seq = a.build_hole_sequence(detuning=250e6, burn_duration=0.01, power=2e-5,
                                    width=5e6, dark_after=1e4)
        total = seq.total_duration
        st = a.init_equilibrium_state(g, p)
        out = a.evolve(st, seq, p, TlsParams(), [1.0, total * (1 + 5e-13)])
        assert len(out) == 2
        # the past-end record is the end state, bit for bit
        end = a.evolve(st, seq, p, TlsParams(), [total])[0]
        for name in ("n_g", "n_z", "n_h", "n_e"):
            assert getattr(out[1], name).tobytes() == getattr(end, name).tobytes()
        # a record on the boundary of the burn and the dark is the burn's end,
        # and the dark runs on from it unchanged
        burn = a.build_hole_sequence(detuning=250e6, burn_duration=0.01, power=2e-5,
                                     width=5e6, dark_after=0.0)
        burn_end = a.evolve(st, burn, p, TlsParams(), [0.01])[0]
        at_edge, last = a.evolve(st, seq, p, TlsParams(), [0.01, total])
        for name in ("n_g", "n_z", "n_h", "n_e"):
            assert getattr(at_edge, name).tobytes() == getattr(burn_end, name).tobytes()
            assert getattr(last, name).tobytes() == getattr(end, name).tobytes()
        with pytest.raises(InvalidRange):
            a.evolve(st, seq, p, TlsParams(), [1.0, total * (1 + 2e-12)])
