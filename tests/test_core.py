import copy
import dataclasses

import numpy as np
import pytest
from scipy.constants import physical_constants

import afcsim as a
from afcsim import core
from afcsim.core import AbsorptionSpectrum, _convolve_padded, _optical_depth, check_populations
from afcsim.errors import (
    InvalidRange,
    NegativeField,
    NonPositiveInput,
    NonPositiveTemperature,
    TooManyBins,
)
from afcsim.pumping import _evolve_records

MU_B = physical_constants["Bohr magneton"][0]
K_B = physical_constants["Boltzmann constant"][0]
H = physical_constants["Planck constant"][0]


class TestMakeGrid:
    def test_basic_binning(self):
        g = a.make_grid(-100e6, 100e6, 0.5e6)
        assert g.n_bins == 400
        assert g.centers[0] == pytest.approx(-99.75e6)
        assert g.centers[-1] == pytest.approx(99.75e6)

    def test_wideband_bin_count(self):
        g = a.make_grid(-3.2e9, 3.2e9, 0.5e6)
        assert g.n_bins == 12800

    def test_uniform_spacing(self):
        g = a.make_grid(-1e9, 1e9, 0.7e6)
        diffs = np.diff(g.centers)
        assert np.max(np.abs(diffs / g.bin_width - 1.0)) < 1e-9

    def test_degenerate_range(self):
        with pytest.raises(InvalidRange):
            a.make_grid(0.0, 0.0, 1e6)

    def test_inverted_range(self):
        with pytest.raises(InvalidRange):
            a.make_grid(1e6, -1e6, 1e5)

    def test_too_many_bins(self):
        with pytest.raises(TooManyBins):
            a.make_grid(0.0, 1e9, 0.01)

    @pytest.mark.parametrize("edges", [
        (0.0, np.inf, 1e6), (-np.inf, 0.0, 1e6), (np.nan, 1e9, 1e6),
        (0.0, 1e9, np.nan), (0.0, 1e9, np.inf)])
    def test_non_finite_values_rejected(self, edges):
        # int(round(inf)) overflowed and round(nan) raised ValueError
        with pytest.raises(InvalidRange, match="finite"):
            a.make_grid(*edges)

    @pytest.mark.parametrize("fields", [
        (np.inf, 1e6, 10), (-np.inf, 1e6, 10), (np.nan, 1e6, 10),
        (0.0, np.inf, 10), (0.0, np.nan, 10), (0.0, 1e308, 10)])
    def test_direct_construction_rejects_non_finite_edges(self, fields):
        # the last bin's edge overflows even though both fields are finite
        with pytest.raises(InvalidRange, match="finite"):
            core.FrequencyGrid(*fields)

    def test_upper_edge_is_the_last_bin_edge(self):
        # the window is rounded to whole bins; the edge follows the bins
        assert a.make_grid(0.0, 10.3e6, 1e6).nu_max == 10e6

    def test_subgrid_alignment(self):
        g = a.make_grid(-100e6, 100e6, 0.5e6)
        sub, sl = g.subgrid(-50e6, 50e6)
        assert np.allclose(sub.centers, g.centers[sl])


class TestLevelStructure:
    def test_constants_are_scipy_codata_values(self):
        # core writes them as literals, so that importing it loads no scipy.constants
        assert (core.MU_B, core.K_B, core.PLANCK_H) == (MU_B, K_B, H)

    def test_zeeman_zero_field(self):
        assert a.zeeman_splitting(0.0, 15.13) == 0.0

    def test_zeeman_3kg(self):
        expected = 15.13 * MU_B * 0.3 / H
        val = a.zeeman_splitting(0.3, 15.13)
        assert val == pytest.approx(expected)
        assert val == pytest.approx(63.5e9, abs=0.1e9)
        assert val > 50e9

    def test_zeeman_800g(self):
        assert a.zeeman_splitting(0.08, 15.13) == pytest.approx(16.9e9, abs=0.1e9)

    def test_zeeman_negative_field(self):
        with pytest.raises(NegativeField):
            a.zeeman_splitting(-0.1, 15.13)

    def test_zeeman_linear_in_field(self):
        vals = [a.zeeman_splitting(b, 15.13) for b in (0.05, 0.1, 0.2)]
        assert vals[1] == pytest.approx(2 * vals[0], rel=1e-12)
        assert vals[2] == pytest.approx(4 * vals[0], rel=1e-12)

    def test_spin_width_static_only(self):
        assert a.spin_inhom_width(0.0, 0.4e9, 14.5e9) == pytest.approx(0.4e9)

    def test_spin_width_3kg(self):
        assert a.spin_inhom_width(0.3, 0.4e9, 14.5e9) == pytest.approx(4.75e9)

    def test_spin_width_600g(self):
        assert a.spin_inhom_width(0.06, 0.4e9, 14.5e9) == pytest.approx(1.27e9)

    def test_spin_width_linear(self):
        base = a.spin_inhom_width(0.0, 0.4e9, 14.5e9)
        for b in (0.01, 0.1, 0.4):
            assert a.spin_inhom_width(b, 0.4e9, 14.5e9) - base == pytest.approx(
                14.5e9 * b, rel=1e-12)

    def test_polarization_zero_field(self):
        assert a.boltzmann_polarization(0.0, 0.7, 15.13) == 0.0

    def test_polarization_3kg(self):
        expected = np.tanh(15.13 * MU_B * 0.3 / (2 * K_B * 0.7))
        val = a.boltzmann_polarization(0.3, 0.7, 15.13)
        assert val == pytest.approx(expected)
        assert val == pytest.approx(0.975, abs=1e-3)

    def test_polarization_350g(self):
        assert a.boltzmann_polarization(0.035, 0.7, 15.13) == pytest.approx(
            0.249, abs=2e-3)

    def test_polarization_bad_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            a.boltzmann_polarization(0.1, 0.0, 15.13)

    def test_polarization_odd_monotone_saturating(self):
        # odd in B (checked through the defining identity), monotone, -> 1
        fields = np.linspace(0.0, 1.0, 40)
        vals = np.array([a.boltzmann_polarization(b, 0.7, 15.13) for b in fields])
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 1.0
        assert vals[-1] > 0.999
        x = 15.13 * MU_B * fields / (2 * K_B * 0.7)
        assert np.allclose(vals, -np.tanh(-x))


class TestMaterialParams:
    def test_defaults_valid(self):
        p = a.MaterialParams()
        assert p.g_factor == 15.13
        assert p.t1_opt == 2.1e-3
        assert p.alpha_ff == 1e9

    def test_branching_bounds(self):
        with pytest.raises(NonPositiveInput):
            a.MaterialParams(beta_zeeman=0.7, beta_shf=0.4)

    def test_positive_rates(self):
        with pytest.raises(NonPositiveInput):
            a.MaterialParams(t1_opt=-1.0)

    def test_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            a.MaterialParams(temperature=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(a.MaterialParams)])
    def test_non_finite_rejected_by_name(self, name, bad):
        # nan passes every `<= 0` check, so it must be refused on its own
        with pytest.raises(NonPositiveInput, match=name):
            a.MaterialParams(**{name: bad})


class TestEquilibriumState:
    def test_zero_field_even_split(self):
        g = a.make_grid(-50e6, 50e6, 1e6)
        st = a.init_equilibrium_state(g, a.MaterialParams(b_field=0.0))
        assert np.allclose(st.n_g, 0.5)
        assert np.allclose(st.n_z, 0.5)
        assert np.all(st.n_h == 0)
        assert np.all(st.n_e == 0)

    def test_3kg_polarized(self):
        g = a.make_grid(-50e6, 50e6, 1e6)
        st = a.init_equilibrium_state(g, a.MaterialParams(b_field=0.3))
        assert st.n_g[0] == pytest.approx(0.987, abs=1e-3)
        assert st.n_z[0] == pytest.approx(0.013, abs=1e-3)

    def test_conservation_validated(self):
        g = a.make_grid(-50e6, 50e6, 1e6)
        st = a.init_equilibrium_state(g, a.MaterialParams())
        st.n_g[3] += 1e-6
        with pytest.raises(NonPositiveInput):
            st.validate()

    @pytest.mark.parametrize("defect", ["negative_weight", "nan", "outside_unit", "drift"])
    def test_state_and_record_stack_give_one_message(self, defect):
        # EnsembleState and evolve's record stack run the same population
        # check, so each defect reads the same through both
        p = a.MaterialParams()
        g = a.make_grid(-10e6, 10e6, 1e6)
        good = a.init_equilibrium_state(g, p)
        arrays = [good.weight.copy(), good.n_g.copy(), good.n_z.copy(),
                  good.n_h.copy(), good.n_e.copy()]
        weight, n_g, n_z, n_h, _ = arrays
        if defect == "negative_weight":
            weight[5] = -1.0
        elif defect == "nan":
            n_h[5] = np.nan
        elif defect == "outside_unit":
            n_g[5] += 0.5
            n_z[5] -= 0.5
        else:
            n_g[5] += 2e-9
        with pytest.raises(NonPositiveInput) as as_state:
            a.EnsembleState(g, *arrays)

        clean = np.stack([good.n_g, good.n_z, good.n_h, good.n_e], axis=-1)
        records = np.stack([clean, np.stack(arrays[1:], axis=-1), clean])
        with pytest.raises(NonPositiveInput) as as_stack:
            check_populations(weight, np.moveaxis(records, 2, 0))
        assert str(as_stack.value) == str(as_state.value)

        if defect != "nan":  # evolve reports a NaN as NonFiniteState first
            for name, arr in zip(("weight", "n_g", "n_z", "n_h", "n_e"), arrays):
                setattr(good, name, arr)
            seq = a.build_hole_sequence(detuning=0.0, burn_duration=1e-3, width=4e6)
            with pytest.raises(NonPositiveInput) as through_evolve:
                _evolve_records(good, seq, p, a.TlsParams.disabled(), [0.0])
            assert str(through_evolve.value) == str(as_state.value)


class TestAbsorptionSpectrum:
    @pytest.mark.parametrize("pad_mode", ["edge", "constant"])
    def test_convolution_matches_direct_sum(self, pad_mode):
        # the padded convolution, summed directly: n - 1 pad bins on each side
        # and a (2n - 1)-tap kernel, "valid" leaving the n centred outputs
        rng = np.random.default_rng(8)
        for n in [*range(1, 60), 199, 200, 201, 400, 1000, 1001, 7000]:
            values = rng.random(n)
            kernel = rng.random(2 * n - 1)
            expected = np.convolve(np.pad(values, n - 1, mode=pad_mode), kernel, "valid")
            got = _convolve_padded(values, kernel, pad_mode)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected)), n
            # a stack is transformed in one batched call, each row as alone
            stack = np.stack([rng.random(n), values, rng.random(n)])
            rows = _convolve_padded(stack, kernel, pad_mode)
            assert np.array_equal(rows[1], got), n
            for row, one in zip(rows, stack):
                assert np.array_equal(row, _convolve_padded(one, kernel, pad_mode)), n

    def test_fft_length_is_scipys_next_fast_real_length(self):
        from scipy.fft import next_fast_len

        sizes = range(1, 30_001)
        assert [core._next_fast_len(n) for n in sizes] == [next_fast_len(n, True) for n in sizes]

    def test_convolution_needs_one_tap_per_grid_offset(self):
        # a shorter kernel would need another FFT length and other edge tails
        with pytest.raises(InvalidRange):
            _convolve_padded(np.ones(10), np.ones(17), "edge")

    @pytest.mark.parametrize("b_field,n_convolutions", [(0.001, 3), (0.035, 2)])
    def test_stacked_rows_equal_single_spectra(self, b_field, n_convolutions, monkeypatch):
        # at 10 G the anti-hole reaches the window; at 350 G its kernel is
        # skipped (shift - 8 sigma >= span).  Rows: the equilibrium state
        # (n_h = 0), burned states, and one with no population in n_z.
        p = a.MaterialParams(b_field=b_field, beta_shf=0.3)
        g = a.make_grid(150e6, 350e6, 0.5e6)
        eq = a.init_equilibrium_state(g, p)
        seq = a.build_hole_sequence(burn_duration=0.05, power=2e-6, dark_after=0.1)
        states = [eq, *a.evolve(eq, seq, p, a.TlsParams(), [0.01, 0.05, 0.15])]
        unflipped = copy.deepcopy(eq)
        unflipped.n_g[:], unflipped.n_z[:] = 1.0, 0.0
        states.insert(2, unflipped)
        assert not states[0].n_h.any() and states[-1].n_h.any()

        pops = np.stack([np.stack([s.n_g, s.n_z, s.n_h, s.n_e], axis=-1) for s in states])
        calls = []
        convolve = core._convolve_padded
        monkeypatch.setattr(core, "_convolve_padded",
                            lambda *args: calls.append(args) or convolve(*args))
        od = _optical_depth(g, eq.weight, pops, p)
        assert len(calls) == n_convolutions
        monkeypatch.undo()
        for row, state in zip(od, states):
            assert row.tobytes() == a.absorption_spectrum(state, p).od.tobytes()

    def test_fresh_flat_spectrum(self):
        p = a.MaterialParams()
        g = a.make_grid(-100e6, 100e6, 0.5e6)
        st = a.init_equilibrium_state(g, p)
        spec = a.absorption_spectrum(st, p)
        level = 2.0 * st.n_g[0]
        assert np.max(np.abs(spec.od - level)) / level < 1e-6

    def test_single_bin_hole_and_antihole(self):
        p = a.MaterialParams()  # 3 kG: anti-hole 63.5 GHz away
        g = a.make_grid(-1.5e9, 1.5e9, 2e6)
        st = a.init_equilibrium_state(g, p)
        ref = a.absorption_spectrum(st, p)
        st2 = copy.deepcopy(st)
        i = int((0.0 - g.nu_min) / g.bin_width)
        moved = st2.n_g[i]
        st2.n_z[i] += moved
        st2.n_g[i] = 0.0
        spec = a.absorption_spectrum(st2, p)
        delta = ref.od - spec.od
        hole_area = delta.sum() * g.bin_width
        expected = st.weight[i] * moved * g.bin_width
        assert hole_area == pytest.approx(expected, rel=0.01)
        # anti-hole mass within +-1.4 GHz of the hole is a deep Gaussian tail
        gained = -delta[delta < 0].sum() * g.bin_width
        assert gained < 1e-3 * expected

    def test_band_hole_width_convolution_oracle(self):
        p = a.MaterialParams(gamma_h_fwhm=1e6)
        g = a.make_grid(-100e6, 100e6, 0.5e6)
        st = a.init_equilibrium_state(g, p)
        band = np.abs(g.centers) <= 12.5e6
        st.n_z[band] += st.n_g[band]
        st.n_g[band] = 0.0
        spec = a.absorption_spectrum(st, p)

        # independent oracle: numerically convolve the 25 MHz top-hat with a
        # unit-area Lorentzian of the homogeneous width on a finer axis
        nu = np.linspace(-100e6, 100e6, 20001)
        hat = (np.abs(nu) <= 12.5e6).astype(float)
        gam = p.gamma_h_fwhm
        dx = nu[1] - nu[0]
        kern = (gam / 2) / (nu ** 2 + (gam / 2) ** 2)
        kern /= kern.sum()
        profile = np.convolve(hat, kern, mode="same")
        half = 0.5 * profile.max()
        above = nu[profile > half]
        fwhm_oracle = above.max() - above.min()

        od = spec.od
        base = od[np.abs(g.centers) > 60e6].mean()
        depth = base - od.min()
        below = g.centers[od < base - depth / 2]
        fwhm_meas = below.max() - below.min() + g.bin_width
        assert fwhm_meas == pytest.approx(fwhm_oracle, rel=0.05)

    def test_total_od_sum_rule_with_antihole_in_window(self):
        p = a.MaterialParams(b_field=0.002)
        g = a.make_grid(-3e9, 3e9, 2e6)
        st = a.init_equilibrium_state(g, p)
        ref = a.absorption_spectrum(st, p)
        st2 = copy.deepcopy(st)
        sel = np.abs(g.centers) < 20e6
        st2.n_z[sel] += 0.5 * st2.n_g[sel]
        st2.n_g[sel] *= 0.5
        spec = a.absorption_spectrum(st2, p)
        tot_ref = ref.od.sum() * g.bin_width
        tot = spec.od.sum() * g.bin_width
        assert abs(tot - tot_ref) / tot_ref < 1e-3

    def test_linearity_in_populations(self):
        p = a.MaterialParams()
        g = a.make_grid(-100e6, 100e6, 1e6)
        st1 = a.init_equilibrium_state(g, p)
        st2 = copy.deepcopy(st1)
        sel = np.abs(g.centers) < 30e6
        st2.n_z[sel] += 0.4 * st2.n_g[sel]
        st2.n_g[sel] *= 0.6
        mix = copy.deepcopy(st1)
        alpha = 0.3
        for name in ("n_g", "n_z", "n_h", "n_e"):
            setattr(mix, name,
                    alpha * getattr(st1, name) + (1 - alpha) * getattr(st2, name))
        s1 = a.absorption_spectrum(st1, p)
        s2 = a.absorption_spectrum(st2, p)
        sm = a.absorption_spectrum(mix, p)
        assert np.max(np.abs(sm.od - (alpha * s1.od + (1 - alpha) * s2.od))) < 1e-9

    def test_excited_population_does_not_absorb(self):
        p = a.MaterialParams()
        g = a.make_grid(-50e6, 50e6, 1e6)
        st = a.init_equilibrium_state(g, p)
        st2 = copy.deepcopy(st)
        i = int((0.0 - g.nu_min) / g.bin_width)
        st2.n_e[i] = st2.n_g[i]
        st2.n_g[i] = 0.0
        spec = a.absorption_spectrum(st2, p)
        ref = a.absorption_spectrum(st, p)
        # the bin turned dark: only the hole shows, no new absorption anywhere
        assert np.all(spec.od <= ref.od + 1e-12)

    def test_csv_serialization(self):
        p = a.MaterialParams()
        g = a.make_grid(-10e6, 10e6, 1e6)
        st = a.init_equilibrium_state(g, p)
        spec = a.absorption_spectrum(st, p)
        text = spec.to_csv()
        assert text.startswith("detuning_hz,od\n")
        assert "\r" not in text
        rows = text.strip().split("\n")[1:]
        assert len(rows) == g.n_bins
        vals = np.array([[float(c) for c in r.split(",")] for r in rows])
        assert np.allclose(vals[:, 0], g.centers)
        assert np.allclose(vals[:, 1], spec.od)

    def test_od_must_be_nonnegative_finite(self):
        g = a.make_grid(-10e6, 10e6, 1e6)
        with pytest.raises(NonPositiveInput):
            AbsorptionSpectrum(grid=g, od=np.full(g.n_bins, -0.1))
        with pytest.raises(NonPositiveInput):
            AbsorptionSpectrum(grid=g, od=np.full(g.n_bins, np.nan))
