"""Frequency-sweep readout emulation and hole/comb metrology.

Readout returns the absorption spectrum over a sweep window with seeded,
repeat-averaged detection noise.  Hole metrology fits a Lorentzian dip on a
linear local baseline; comb metrology locates the periodic teeth, measures
their width with per-tooth Lorentzian fits and quantifies the residual
background absorption ``d0`` in the troughs.  The forward-recall echo
efficiency follows the standard square-tooth comb formula with an effective
depth reduced by the finesse and the background.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    AbsorptionSpectrum,
    EnsembleState,
    MaterialParams,
    absorption_spectrum,
    init_equilibrium_state,
    make_grid,
)
from .errors import (
    FitDiverged,
    InvalidRange,
    MaxIterations,
    NoCombDetected,
    NoHoleFound,
    NonPositiveInput,
    NonPositiveSpacing,
    SingularJacobian,
    SpanOutOfGrid,
)
from .fitting import (
    LogTransform,
    ParametricModel,
    _columns,
    fit_curve,
)
from .pumping import build_hole_sequence, evolve
from .relaxation import TlsParams


# ---------------------------------------------------------------------------
# Metric containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoleMetrics:
    """Fitted spectral-hole parameters.

    ``area`` is the Lorentzian dip area depth * (pi/2) * fwhm in OD*Hz; the
    ``*_err`` fields carry the 1-sigma local-quadratic fit uncertainties in
    the same units, propagated from the readout-noise estimate.
    """

    center: float
    depth: float
    fwhm: float
    area: float
    depth_err: float = 0.0
    fwhm_err: float = 0.0
    area_err: float = 0.0

    def __post_init__(self):
        if self.depth < 0 or self.fwhm <= 0 or self.area < 0:
            raise NonPositiveInput("hole metrics must satisfy depth, area >= 0 and fwhm > 0")

    def as_dict(self) -> dict:
        return {k: float(getattr(self, k)) for k in
                ("center", "depth", "fwhm", "area", "depth_err", "fwhm_err", "area_err")}


@dataclass(frozen=True)
class CombMetrics:
    """Comb structure parameters extracted from an absorption spectrum."""

    d_peak: float
    d0: float
    spacing: float
    tooth_fwhm: float
    finesse: float
    bandwidth: float

    def __post_init__(self):
        if self.spacing <= 0:
            raise NonPositiveSpacing(f"spacing={self.spacing}")
        if not (self.d_peak >= self.d0 >= 0):
            raise NonPositiveInput("comb metrics must satisfy d_peak >= d0 >= 0")
        if self.finesse < 1:
            raise NonPositiveInput("finesse must be >= 1")

    def as_dict(self) -> dict:
        return {k: float(getattr(self, k)) for k in
                ("d_peak", "d0", "spacing", "tooth_fwhm", "finesse", "bandwidth")}

    def to_csv(self) -> str:
        names = ("d_peak", "d0", "spacing_hz", "tooth_fwhm_hz", "finesse", "bandwidth_hz")
        vals = (self.d_peak, self.d0, self.spacing, self.tooth_fwhm,
                self.finesse, self.bandwidth)
        return ",".join(names) + "\n" + ",".join(f"{v:.12g}" for v in vals) + "\n"


@dataclass(frozen=True)
class DecayCurve:
    """Hole area versus dark delay with per-point uncertainties.

    ``dropped`` lists the ``(delay_s, reason)`` pairs of delays whose hole
    could not be measured; they are not part of the arrays or the CSV.
    """

    delays: np.ndarray
    areas: np.ndarray
    sigmas: np.ndarray
    dropped: tuple = ()

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        areas = np.asarray(self.areas, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=float)
        if delays.ndim != 1 or delays.shape != areas.shape or delays.shape != sigmas.shape:
            raise InvalidRange("delays, areas and sigmas must be equal-length 1-D arrays")
        if np.any(np.diff(delays) <= 0):
            raise InvalidRange("delays must be strictly increasing")
        if np.any(areas < 0) or np.any(sigmas < 0):
            raise NonPositiveInput("areas and sigmas must be >= 0")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "sigmas", sigmas)

    def to_csv(self) -> str:
        lines = ["delay_s,area_od_hz,sigma"]
        for d, a, s in zip(self.delays, self.areas, self.sigmas):
            lines.append(f"{d:.9g},{a:.12g},{s:.12g}")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {
            "delay_s": [float(v) for v in self.delays],
            "area_od_hz": [float(v) for v in self.areas],
            "sigma": [float(v) for v in self.sigmas],
            "dropped": [list(pair) for pair in self.dropped],
        }


# ---------------------------------------------------------------------------
# Readout
# ---------------------------------------------------------------------------

def simulate_readout(state: EnsembleState, params: MaterialParams, span: float,
                     repeats: int = 20, noise_rel: float = 0.0, seed=None,
                     center: float = 0.0) -> AbsorptionSpectrum:
    """Frequency-sweep readout of ``span`` Hz around ``center``.

    Additive Gaussian detection noise of relative amplitude
    ``noise_rel / sqrt(repeats)`` (relative to the spectrum maximum) models
    the ``repeats``-fold averaged sweeps; the result is reproducible for a
    fixed seed.
    """
    if repeats < 1:
        raise NonPositiveInput(f"repeats must be >= 1, got {repeats}")
    lo, hi = center - span / 2.0, center + span / 2.0
    if not state.grid.contains(lo, hi):
        raise SpanOutOfGrid(
            f"span [{lo:.3g}, {hi:.3g}] not inside grid "
            f"[{state.grid.nu_min:.3g}, {state.grid.nu_max:.3g}]")
    full = absorption_spectrum(state, params)
    subgrid, sl = state.grid.subgrid(lo, hi)
    od = full.od[sl].copy()
    if noise_rel > 0:
        rng = np.random.default_rng(seed)
        scale = noise_rel / np.sqrt(repeats) * max(float(od.max()), 1e-12)
        od = od + scale * rng.standard_normal(od.size)
        np.maximum(od, 0.0, out=od)
    return AbsorptionSpectrum(grid=subgrid, od=od)


# ---------------------------------------------------------------------------
# Hole metrology
# ---------------------------------------------------------------------------

def _sloped_dip_model(ref: float) -> ParametricModel:
    """Lorentzian dip on a linear baseline anchored at ``ref``."""

    def evaluate(params, nu):
        b0, slope, depth, center, fwhm = params
        half = fwhm / 2.0
        return (b0 + slope * (nu - ref)
                - depth * half ** 2 / ((nu - center) ** 2 + half ** 2))

    def jacobian(params, nu):
        b0, slope, depth, center, fwhm = params
        half = fwhm / 2.0
        dx = nu - center
        denom = dx ** 2 + half ** 2
        lshape = half ** 2 / denom
        return _columns(nu.size, 1.0, nu - ref, -lshape, -depth * lshape * 2.0 * dx / denom,
                        -depth * half * dx ** 2 / denom ** 2)

    return ParametricModel(
        name="lorentzian_dip_sloped",
        param_names=("baseline", "slope", "depth", "center", "fwhm"),
        units=("od", "od/Hz", "od", "Hz", "Hz"),
        evaluate=evaluate,
        jacobian=jacobian,
        bounds=(np.array([-np.inf, -np.inf, -np.inf, -np.inf, 1e-3]),
                np.array([np.inf] * 5)),
        transform=LogTransform([False, False, False, False, True]),
    )


def _noise_mad(values: np.ndarray) -> float:
    """Robust noise estimate from first differences."""
    if values.size < 3:
        return 0.0
    diffs = np.diff(values)
    return 1.4826 * float(np.median(np.abs(diffs - np.median(diffs)))) / np.sqrt(2.0)


def _half_level_width(nu, od, i_min, level) -> float:
    """Width of the dip at the given od level around index ``i_min``,
    with linear interpolation at the two crossings."""
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


def measure_hole(spec: AbsorptionSpectrum, center_guess: float,
                 search_radius: Optional[float] = None,
                 min_depth: Optional[float] = None) -> HoleMetrics:
    """Locate and fit the spectral hole nearest ``center_guess``.

    Fits a Lorentzian dip plus a linear baseline over a window of a few
    widths around the minimum, so nearby structures only enter through the
    baseline slope.  The fit is weighted by the readout-noise estimate of the
    spectrum, so the ``*_err`` fields are 1-sigma uncertainties in data units
    (OD, Hz, OD*Hz) propagated from that noise.

    Raises
    ------
    NoHoleFound
        If no dip exceeding the noise floor exists near the guess.
    FitDiverged
        If the line-shape fit does not converge.
    """
    nu = spec.grid.centers
    od = spec.od
    if nu.size < 8:
        raise NoHoleFound("spectrum too short for hole metrology")
    span = nu[-1] - nu[0]
    radius = search_radius if search_radius is not None else span / 8.0
    window = np.abs(nu - center_guess) <= radius
    if not window.any():
        raise NoHoleFound(f"no samples within {radius:.3g} Hz of guess")

    idx = np.flatnonzero(window)
    i_min = idx[int(np.argmin(od[idx]))]
    # baseline from the upper od quantile of the whole window so that wide
    # (power-broadened) holes do not drag the estimate down
    baseline_est = float(np.percentile(od, 85.0))
    depth_est = baseline_est - float(od[i_min])
    noise = _noise_mad(od)
    threshold = min_depth if min_depth is not None else max(0.01, 5.0 * noise)
    if depth_est < threshold:
        raise NoHoleFound(
            f"largest dip {depth_est:.4g} OD below threshold {threshold:.4g}")

    fwhm_est = _half_level_width(nu, od, i_min, baseline_est - depth_est / 2.0)
    fwhm_est = min(fwhm_est, span / 2.0)
    fit_radius = max(4.0 * fwhm_est, 12.0 * (nu[1] - nu[0]))
    sel = np.abs(nu - nu[i_min]) <= fit_radius
    # fit in units of the estimated width so the normal equations stay
    # well conditioned regardless of the absolute frequency scale
    scale = max(fwhm_est, 4.0 * (nu[1] - nu[0]))
    ref = float(nu[i_min])
    x = (nu[sel] - ref) / scale
    model = _sloped_dip_model(0.0)
    init = np.array([baseline_est, 0.0, depth_est, 0.0, fwhm_est / scale])
    x_span = float(x.max() - x.min())
    bounds = (np.array([-np.inf, -np.inf, -np.inf, float(x.min()), 1e-2]),
              np.array([np.inf, np.inf, np.inf, float(x.max()), 4.0 * x_span]))
    try:
        # the floor keeps noiseless spectra fittable; estimates do not depend on
        # a uniform sigma, only the reported errors scale with it
        res = fit_curve(model, x, od[sel], sigma=max(noise, 1e-12 * float(np.max(od))),
                        init=init, bounds=bounds)
    except (MaxIterations, SingularJacobian) as exc:
        raise FitDiverged(str(exc)) from exc
    if not res.converged:
        raise FitDiverged(f"hole fit did not converge ({res.stop_reason})")
    depth = res["depth"]
    fwhm = res["fwhm"] * scale
    if depth <= 0:
        raise NoHoleFound("fit found no absorption dip")
    d_err = res.error_of("depth")
    f_err = res.error_of("fwhm") * scale
    i_d = res.param_names.index("depth")
    i_f = res.param_names.index("fwhm")
    cov_df = float(res.covariance[i_d, i_f]) * scale
    area = depth * (np.pi / 2.0) * fwhm
    area_var = (np.pi / 2.0) ** 2 * (
        (fwhm * d_err) ** 2 + (depth * f_err) ** 2 + 2.0 * fwhm * depth * cov_df)
    return HoleMetrics(
        center=ref + res["center"] * scale, depth=depth, fwhm=fwhm, area=area,
        depth_err=d_err, fwhm_err=f_err,
        area_err=float(np.sqrt(max(area_var, 0.0))),
    )


# ---------------------------------------------------------------------------
# Comb metrology
# ---------------------------------------------------------------------------

def _lorentzian_peak_model() -> ParametricModel:
    """Lorentzian peak above a pinned zero floor: (amp, center, fwhm)."""

    def evaluate(params, x):
        amp, center, fwhm = params
        half = fwhm / 2.0
        return amp * half ** 2 / ((x - center) ** 2 + half ** 2)

    def jacobian(params, x):
        amp, center, fwhm = params
        half = fwhm / 2.0
        dx = x - center
        denom = dx ** 2 + half ** 2
        lshape = half ** 2 / denom
        return _columns(x.size, lshape, amp * lshape * 2.0 * dx / denom,
                        amp * half * dx ** 2 / denom ** 2)

    return ParametricModel(
        name="lorentzian_peak",
        param_names=("amp", "center", "fwhm"),
        units=("od", "", ""),
        evaluate=evaluate,
        jacobian=jacobian,
        transform=LogTransform([False, False, True]),
    )


def _folded_profile(nu, od, spacing):
    """Median od versus phase within one comb period, and a typical SEM.

    The median per phase bucket keeps single deep outliers (such as the
    carrier-leak hole) from skewing the tooth-phase detection.
    """
    dnu = float(np.min(np.diff(nu))) if nu.size > 1 else spacing
    n_phase = max(int(round(spacing / dnu)), 4)
    phase_idx = np.floor((nu % spacing) / spacing * n_phase).astype(int)
    phase_idx = np.clip(phase_idx, 0, n_phase - 1)
    counts = np.bincount(phase_idx, minlength=n_phase)
    filled = counts > 0
    n = counts[filled]
    start = (np.cumsum(counts) - counts)[filled]
    # each bucket sorted by od: its median is the mean of its middle two
    # elements (one element twice for an odd count), as np.median takes it
    sorted_od = od[np.lexsort((od, phase_idx))]
    profile = np.full(n_phase, np.nan)
    profile[filled] = (sorted_od[start + (n - 1) // 2] + sorted_od[start + n // 2]) / 2.0
    dev = sorted_od - np.repeat(np.add.reduceat(sorted_od, start) / n, n)
    multi = n > 1
    var = np.add.reduceat(dev * dev, start)[multi] / (n[multi] - 1)
    sem = float(np.median(np.sqrt(var) / np.sqrt(n[multi]))) if multi.any() else 0.0
    return profile, sem, n_phase


def analyze_comb(spec: AbsorptionSpectrum, spacing: float,
                 exclude_dc: bool = True,
                 min_contrast: float = 0.02) -> CombMetrics:
    """Extract comb metrics at the given tooth spacing.

    Teeth are located by folding the spectrum modulo the spacing; widths
    come from per-tooth Lorentzian fits (numeric half-maximum width as a
    fallback), medians are used across teeth for robustness, and trough
    regions around zero detuning are excluded so the carrier-leak hole does
    not contaminate the background estimate.

    Raises
    ------
    NoCombDetected
        If the window holds fewer than three periods or shows no periodic
        modulation above the noise.
    """
    if spacing <= 0:
        raise NonPositiveSpacing(f"spacing={spacing}")
    nu = spec.grid.centers
    od = spec.od
    span = nu[-1] - nu[0]
    if span < 3 * spacing:
        raise NoCombDetected(f"window {span:.3g} Hz holds fewer than 3 periods")

    # keep the burned-out carrier region at zero detuning away from the fold
    if exclude_dc:
        fold_sel = np.abs(nu) > 0.9 * spacing
        if fold_sel.sum() < 8:
            fold_sel = np.ones_like(nu, dtype=bool)
    else:
        fold_sel = np.ones_like(nu, dtype=bool)
    folded, sem, n_phase = _folded_profile(nu[fold_sel], od[fold_sel], spacing)
    modulation = float(np.nanmax(folded) - np.nanmin(folded))
    if modulation < max(min_contrast, 7.0 * sem):
        raise NoCombDetected(
            f"folded modulation {modulation:.4g} OD below detection threshold")

    # tooth phase from the circular centroid of the top quarter of the fold,
    # so plateau-shaped teeth are centred rather than edge-anchored
    level = np.nanmax(folded) - 0.25 * modulation
    top = np.nan_to_num(folded, nan=-np.inf) >= level
    angles = 2.0 * np.pi * (np.arange(n_phase) + 0.5) / n_phase
    mean_angle = np.arctan2(np.sin(angles[top]).sum(), np.cos(angles[top]).sum())
    tooth_phase = (mean_angle / (2.0 * np.pi)) % 1.0 * spacing
    first = nu[0] + (tooth_phase - nu[0]) % spacing
    teeth = np.arange(first, nu[-1] + spacing / 2.0, spacing)
    teeth = teeth[(teeth >= nu[0] + spacing / 4.0) & (teeth <= nu[-1] - spacing / 4.0)]
    if exclude_dc:
        teeth_used = teeth[np.abs(teeth) > 0.9 * spacing]
    else:
        teeth_used = teeth
    if teeth_used.size < 2:
        raise NoCombDetected(f"only {teeth_used.size} usable teeth in window")

    peak = _lorentzian_peak_model()
    tops, widths = [], []
    for tc in teeth_used:
        sel = np.abs(nu - tc) <= spacing / 2.0
        sub_nu, sub_od = nu[sel], od[sel]
        near = np.abs(sub_nu - tc) <= spacing / 4.0
        top = float(sub_od[near].max())
        trough = float(sub_od.min())
        tops.append(top)
        if top - trough <= 0:
            continue
        # a Lorentzian fit above the local trough floor refines the tooth
        # top; the reported width is the interpolated half-contrast width,
        # which coincides with the fitted fwhm for Lorentzian teeth and with
        # the duty width for square ones
        i_pk = int(np.argmax(np.where(near, sub_od, -np.inf)))
        x = (sub_nu - tc) / spacing
        w_est = _half_level_width(sub_nu, -sub_od, i_pk,
                                  -(trough + (top - trough) / 2.0))
        init = np.array([top - trough, (sub_nu[i_pk] - tc) / spacing,
                         w_est / spacing])
        bounds = (np.array([0.0, float(x.min()), 1e-3]),
                  np.array([np.inf, float(x.max()), 2.0]))
        try:
            res = fit_curve(peak, x, sub_od - trough, init=init, bounds=bounds)
            if res.converged:
                top = max(top, res["amp"] + trough)
        except (MaxIterations, SingularJacobian):
            pass
        half_level = trough + (top - trough) / 2.0
        width = _half_level_width(sub_nu, -sub_od, i_pk, -half_level)
        widths.append(min(width, spacing))

    if not widths:
        raise NoCombDetected("no teeth with positive contrast")
    d_peak = float(np.median(tops))
    tooth_fwhm = float(np.median(widths))

    trough_means = []
    trough_centers = np.arange(first - spacing / 2.0, nu[-1] + spacing / 4.0, spacing)
    trough_centers = trough_centers[
        (trough_centers >= nu[0] + spacing / 4.0)
        & (trough_centers <= nu[-1] - spacing / 4.0)]
    for tc in trough_centers:
        if exclude_dc and abs(tc) <= 0.9 * spacing:
            continue
        sel = np.abs(nu - tc) <= spacing / 4.0
        if sel.any():
            trough_means.append(float(od[sel].mean()))
    if not trough_means:
        raise NoCombDetected("no usable trough regions")
    d0 = float(np.median(trough_means))
    d0 = min(d0, d_peak)

    return CombMetrics(
        d_peak=d_peak,
        d0=max(d0, 0.0),
        spacing=float(spacing),
        tooth_fwhm=tooth_fwhm,
        finesse=spacing / tooth_fwhm,
        bandwidth=float(span),
    )


# ---------------------------------------------------------------------------
# Storage time and echo efficiency
# ---------------------------------------------------------------------------

def storage_time(spacing: float) -> float:
    """AFC recall delay 1/spacing in seconds."""
    if spacing <= 0:
        raise NonPositiveSpacing(f"spacing={spacing}")
    return 1.0 / spacing


def afc_efficiency(metrics: CombMetrics) -> float:
    """Forward-recall echo efficiency of a square-tooth comb.

    Uses the effective depth ``d_eff = (d_peak - d0) / F`` with the
    square-tooth dephasing factor exp(-7/F^2) and background suppression
    exp(-d0):

        eta = d_eff^2 * exp(-d_eff) * exp(-7/F^2) * exp(-d0)
    """
    d_eff = (metrics.d_peak - metrics.d0) / metrics.finesse
    return float(d_eff ** 2 * np.exp(-d_eff)
                 * np.exp(-7.0 / metrics.finesse ** 2) * np.exp(-metrics.d0))


# ---------------------------------------------------------------------------
# Decay-curve orchestration
# ---------------------------------------------------------------------------

def hole_decay_experiment(b_field: float, delays: Sequence[float],
                          params: MaterialParams, tls: TlsParams,
                          seed=None, burn_power: float = 2e-5,
                          detuning: float = 250e6, hole_width: float = 25e6,
                          burn_duration: float = 0.3, span: float = 100e6,
                          noise_rel: float = 0.0, repeats: int = 20,
                          bin_width: float = 0.5e6) -> DecayCurve:
    """Burn a hole, wait each dark delay, read out, and measure the area.

    Delays are measured from the end of the burn and must exceed five
    optical lifetimes so the excited level has emptied before readout.  The
    burn and the dark relaxation are simulated once; readout noise uses
    per-delay seeds spawned from ``seed``.  A delay whose hole has sunk
    below the noise floor (:class:`NoHoleFound`) or whose hole fit does not
    converge (:class:`FitDiverged`) is left out of the curve and listed with
    the reason in ``DecayCurve.dropped``.
    """
    delays = np.asarray(sorted(delays), dtype=float)
    if delays.size == 0:
        raise InvalidRange("need at least one delay")
    if np.any(delays <= 5.0 * params.t1_opt):
        raise InvalidRange(
            f"delays must exceed 5 * t1_opt = {5 * params.t1_opt:.4g} s")
    p = params.with_(b_field=b_field)
    grid = make_grid(detuning - span, detuning + span, bin_width)
    state0 = init_equilibrium_state(grid, p)
    seq = build_hole_sequence(detuning=detuning, burn_duration=burn_duration,
                              power=burn_power, width=hole_width,
                              dark_after=float(delays[-1]) * 1.0001 + 1e-6)
    record = [burn_duration + d for d in delays]
    states = evolve(state0, seq, p, tls, record)

    root = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    child_seeds = root.spawn(len(states))
    # noiseless readouts can resolve arbitrarily faint holes
    floor = 1e-7 if noise_rel == 0 else None
    kept, areas, sigmas, dropped = [], [], [], []
    for delay, st, child in zip(delays, states, child_seeds):
        spect = simulate_readout(st, p, span=span, center=detuning,
                                 noise_rel=noise_rel, repeats=repeats, seed=child)
        try:
            metrics = measure_hole(spect, detuning, min_depth=floor)
        except (NoHoleFound, FitDiverged) as exc:
            dropped.append((float(delay), str(exc)))
            continue
        kept.append(delay)
        areas.append(metrics.area)
        sigmas.append(metrics.area_err)
    return DecayCurve(delays=np.array(kept), areas=np.array(areas),
                      sigmas=np.array(sigmas), dropped=tuple(dropped))
