"""Stacked hole and comb-tooth metrology: the set-up that readout takes over
a whole stack of spectra at once (search window, 85% baseline percentile,
noise estimate, threshold, width estimate, fit window) and the batched fits
must give each row exactly what one spectrum gets alone, errors included;
Fig. 2's stack across its fields must give each field the curve it gets
alone; and a comb's teeth, read as one stack with the hole set-up's
half-level kernel, must get exactly what each tooth gets alone."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import afcsim as a
from afcsim import experiments, readout
from afcsim.core import AbsorptionSpectrum
from afcsim.errors import FitDiverged, NoCombDetected, NoHoleFound

GRID = a.make_grid(200e6, 300e6, 0.5e6)
NU = GRID.centers


def spectrum(seed):
    """A Lorentzian hole of random width, depth and noise near 250 MHz."""
    rng = np.random.default_rng(seed)
    half = rng.uniform(0.2e6, 3e6) / 2.0
    depth = rng.uniform(0.05, 0.5)
    center = 250e6 + rng.uniform(-5e6, 5e6)
    od = 1.0 - depth * half ** 2 / ((NU - center) ** 2 + half ** 2)
    return od + rng.uniform(0.0, 0.03) * rng.standard_normal(NU.size)


# holes of several widths, so fit windows of several lengths; seed 3's hole
# is below its noise floor and seed 136's narrow dip exhausts the iterations
SEEDS = [0, 1, 2, 3, 4, 5, 136, 7, 8]
STACK = np.stack([spectrum(s) for s in SEEDS])


def half_level_width(nu, od, i_min, level):
    """Reference: the width of the dip at the od ``level`` around index
    ``i_min``, walked out sample by sample, with linear interpolation at the
    two crossings."""
    dnu = float(nu[1] - nu[0])
    left = i_min
    while left > 0 and od[left] < level:
        left -= 1
    right = i_min
    while right < od.size - 1 and od[right] < level:
        right += 1
    x_left = nu[left]
    if od[left] >= level and left < i_min:
        frac = (od[left] - level) / max(od[left] - od[left + 1], 1e-300)
        x_left = nu[left] + frac * dnu
    x_right = nu[right]
    if od[right] >= level and right > i_min:
        frac = (od[right] - level) / max(od[right] - od[right - 1], 1e-300)
        x_right = nu[right] - frac * dnu
    return max(float(x_right - x_left), dnu)


def per_spectrum_setup(od, guess=250e6):
    """The set-up of one spectrum with the 1-D calls of a one-spectrum
    readout: baseline, noise, threshold, lowest sample, width estimate."""
    window = np.abs(NU - guess) <= (NU[-1] - NU[0]) / 8.0
    idx = np.flatnonzero(window)
    i_min = idx[int(np.argmin(od[idx]))]
    baseline = float(np.percentile(od, 85.0))
    diffs = np.diff(od)
    noise = 1.4826 * float(np.median(np.abs(diffs - np.median(diffs)))) / np.sqrt(2.0)
    depth = baseline - float(od[i_min])
    fwhm = min(half_level_width(NU, od, i_min, baseline - depth / 2.0),
               (NU[-1] - NU[0]) / 2.0)
    return i_min, baseline, noise, max(0.01, 5.0 * noise), depth, fwhm


def test_stacked_setup_equals_per_spectrum_values():
    fits = readout._hole_fits(NU, STACK, 250e6, None, None)
    dnu = NU[1] - NU[0]
    lengths = set()
    for od, fit in zip(STACK, fits):
        i_min, baseline, noise, threshold, depth, fwhm = per_spectrum_setup(od)
        if depth < threshold:
            assert isinstance(fit, NoHoleFound)
            assert str(fit) == f"largest dip {depth:.4g} OD below threshold {threshold:.4g}"
            continue
        scale = max(fwhm, 4.0 * dnu)
        sel = np.abs(NU - NU[i_min]) <= max(4.0 * fwhm, 12.0 * dnu)
        x, y, sigma, init, _, _ = fit.row
        assert fit.ref == NU[i_min] and fit.scale == scale
        assert np.array_equal(x, (NU[sel] - NU[i_min]) / scale)
        assert np.array_equal(y, od[sel])
        assert sigma == max(noise, 1e-12 * float(np.max(od)))
        assert np.array_equal(init, [baseline, 0.0, depth, 0.0, fwhm / scale])
        lengths.add(x.size)
    assert len(lengths) > 1


def test_stacked_holes_equal_one_spectrum_each():
    stacked = readout._measure_holes(NU, STACK, 250e6)
    kinds = set()
    for od, got in zip(STACK, stacked):
        try:
            want = a.measure_hole(AbsorptionSpectrum(grid=GRID, od=od), 250e6)
        except (NoHoleFound, FitDiverged) as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            kinds.add(type(exc))
            continue
        assert got == want
    assert kinds == {NoHoleFound, FitDiverged}


def test_rows_without_a_hole_get_their_own_error():
    # a grid too short for hole metrology, and a search window with no sample
    for fits in (readout._hole_fits(NU[:7], STACK[:, :7], 250e6, None, None),
                 readout._hole_fits(NU, STACK, 1e9, 1e6, None)):
        assert all(isinstance(fit, NoHoleFound) for fit in fits)
        assert len({id(fit) for fit in fits}) == len(fits) == len(STACK)


def test_percentile_equals_numpy():
    rng = np.random.default_rng(5)
    for n in (2, 3, 8, 199, 200, 201):
        values = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-6, 6, (4, 1))
        values[0] = np.round(values[0], 1)   # ties
        for q in (0.0, 12.5, 50.0, 85.0, 99.0, 100.0):
            assert np.array_equal(readout._percentile(values, q),
                                  np.percentile(values, q, axis=1)), (n, q)


@pytest.mark.parametrize("noise_rel, seed", [(0.0, 12345), (0.02, 0), (0.02, 1), (0.02, 2)])
def test_fig2_stack_across_fields_equals_one_field_each(noise_rel, seed, monkeypatch):
    """``run_fig2`` measures the holes of all fields as one stack; each
    field's curve must equal ``hole_decay_experiment`` at that field with the
    seed spawned for it.  With noise, window lengths differ and delays drop."""
    cfg = experiments.default_config()
    cfg.seed = seed
    cfg.fig2 = replace(cfg.fig2, noise_rel=noise_rel)
    lengths = set()
    real = readout._fit_rows

    def recording(rows):
        lengths.update(row[0].size for row in rows)
        return real(rows)

    monkeypatch.setattr(readout, "_fit_rows", recording)
    curves = experiments.run_fig2(cfg, write=False)["curves"]
    monkeypatch.undo()

    fig2 = cfg.fig2
    params = cfg.material.with_(beta_zeeman=fig2.beta_zeeman, beta_shf=fig2.beta_shf)
    delays = np.geomspace(fig2.delay_min, fig2.delay_max, fig2.n_delays)
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(fig2.fields_gauss))
    dropped = 0
    for field_g, field_seed in zip(fig2.fields_gauss, seeds):
        want = readout.hole_decay_experiment(
            field_g * 1e-4, delays, params, cfg.tls, seed=field_seed,
            burn_power=fig2.burn_power, detuning=fig2.detuning, hole_width=fig2.hole_width,
            burn_duration=fig2.burn_duration, span=fig2.span, noise_rel=fig2.noise_rel,
            repeats=fig2.repeats, bin_width=cfg.bin_width)
        got = curves[field_g]
        for name in ("delays", "areas", "sigmas"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (field_g, name)
        assert got.dropped == want.dropped
        dropped += len(got.dropped)
    if noise_rel > 0:
        assert len(lengths) > 1 and dropped > 0


def per_tooth(nu, od, teeth, spacing):
    """Reference: each tooth alone, cut out of the spectrum: its top within a
    quarter period, its trough within half a period and its half-contrast
    width, as ``(tops, troughs, widths)``; None if a tooth's quarter period
    holds no sample or its half period fewer than two."""
    tops, troughs, widths = [], [], []
    for tc in teeth:
        sel = np.abs(nu - tc) <= spacing / 2.0
        sub_nu, sub_od = nu[sel], od[sel]
        near = np.abs(sub_nu - tc) <= spacing / 4.0
        if not near.any() or sub_nu.size < 2:
            return None
        top = float(sub_od[near].max())
        trough = float(sub_od.min())
        i_pk = int(np.argmax(np.where(near, sub_od, -np.inf)))
        width = half_level_width(sub_nu, -sub_od, i_pk, -(trough + (top - trough) / 2.0))
        tops.append(top)
        troughs.append(trough)
        widths.append(min(width, spacing))
    return tops, troughs, widths


@st.composite
def tooth_grids(draw):
    """A noisy comb of Lorentzian teeth on a grid whose bin width mostly does
    not divide the spacing, so that the teeth's windows differ in length,
    and teeth spread over the grid at a random phase."""
    spacing = draw(st.floats(20e6, 80e6))
    bin_width = draw(st.floats(0.2e6, 25e6))
    start = draw(st.floats(-4.0, -2.0)) * spacing
    grid = a.make_grid(start, start + draw(st.floats(3.0, 8.0)) * spacing, bin_width)
    nu = grid.centers
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    half = draw(st.floats(0.05, 0.45)) * spacing
    phase = draw(st.floats(0.0, 1.0)) * spacing
    dx = (nu - phase + spacing / 2.0) % spacing - spacing / 2.0
    od = 0.2 + 0.6 * half ** 2 / (dx ** 2 + half ** 2)
    od = np.maximum(od + draw(st.floats(0.0, 0.1)) * rng.standard_normal(nu.size), 0.0)
    teeth = np.arange(nu[0] + phase % spacing, nu[-1] - spacing / 4.0, spacing)
    return nu, od, teeth[teeth >= nu[0] + spacing / 4.0], spacing


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tooth_grids())
def test_stacked_teeth_equal_each_tooth_alone(case):
    nu, od, teeth, spacing = case
    want = per_tooth(nu, od, teeth, spacing)
    if want is None:
        with pytest.raises(NoCombDetected):
            readout._read_teeth(nu, od, teeth, spacing)
        return
    for got, expected in zip(readout._read_teeth(nu, od, teeth, spacing), want):
        assert np.array_equal(got, expected)
