"""Frequency-sweep readout emulation and hole/comb metrology.

Readout returns the absorption spectrum over a sweep window with seeded,
repeat-averaged detection noise.  Hole metrology fits the Lorentzian of
:func:`fitting.model_lorentzian_dip` on a linear local baseline
(``baseline_terms=2``); it runs on a stack of spectra on one grid, with the
set-up taken over the whole stack and the fits of equally long windows in one
:func:`fitting.fit_curves` batch, and :func:`measure_hole` is its
one-spectrum case.  A hole decay stacks the spectra of all its delays, and
Fig. 2 those of every field and delay (:func:`_hole_decays`), so one set-up
and one batch of fits serve the whole figure.  Comb metrology fits nothing:
it locates the periodic teeth, reads them as one stack with the hole
set-up's half-level kernel (each tooth's height its sampled top, its width
the interpolated half-contrast width between that top and the local trough),
and quantifies the residual background absorption ``d0`` in the troughs.
The forward-recall echo efficiency combines the square-tooth effective depth
``(d_peak - d0) / F`` with the Gaussian-tooth dephasing factor
``exp(-7/F^2)`` and the background factor ``exp(-d0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    AbsorptionSpectrum,
    EnsembleState,
    MaterialParams,
    _optical_depth,
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
from .fitting import fit_curve, fit_curves, model_lorentzian_dip
from .pumping import _evolve_records, build_hole_sequence
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
        if not 0 < self.spacing < math.inf:
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
    if not noise_rel >= 0:
        raise NonPositiveInput(f"noise_rel must be >= 0, got {noise_rel}")
    lo, hi = center - span / 2.0, center + span / 2.0
    if not state.grid.contains(lo, hi):
        raise SpanOutOfGrid(
            f"span [{lo:.3g}, {hi:.3g}] not inside grid "
            f"[{state.grid.nu_min:.3g}, {state.grid.nu_max:.3g}]")
    full = absorption_spectrum(state, params)
    subgrid, sl = state.grid.subgrid(lo, hi)
    return AbsorptionSpectrum(grid=subgrid, od=_sweep_noise(full.od[sl], noise_rel,
                                                            repeats, seed))


def _sweep_noise(od: np.ndarray, noise_rel: float, repeats: int, seed) -> np.ndarray:
    """A copy of ``od`` read by ``repeats`` averaged sweeps: with additive
    Gaussian noise of ``noise_rel / sqrt(repeats)`` times its maximum, drawn
    from ``seed``, and clipped at 0."""
    od = od.copy()
    if noise_rel > 0:
        rng = np.random.default_rng(seed)
        scale = noise_rel / np.sqrt(repeats) * max(float(od.max()), 1e-12)
        od = od + scale * rng.standard_normal(od.size)
        np.maximum(od, 0.0, out=od)
    return od


# ---------------------------------------------------------------------------
# Hole metrology
# ---------------------------------------------------------------------------

def _median(values: np.ndarray):
    """``np.median`` along the last axis of finite values, bit for bit: the
    middle order statistic, or the mean of the middle two, from one
    partition and without ``np.median``'s overhead."""
    n = values.shape[-1]
    k = n // 2
    if n % 2:
        return np.partition(values, k, axis=-1)[..., k]
    part = np.partition(values, (k - 1, k), axis=-1)
    return (part[..., k - 1] + part[..., k]) / 2.0


def _percentile(values: np.ndarray, q: float):
    """``np.percentile`` along the last axis of finite values, bit for bit:
    its default linear rule between the order statistics around ``(n - 1) *
    q / 100``, with numpy's interpolation from the nearer of the two, from
    one partition and without ``np.percentile``'s overhead."""
    n = values.shape[-1]
    at = (n - 1) * (q / 100)
    lo = math.floor(at)
    hi = min(lo + 1, n - 1)
    gamma = at - lo
    part = np.partition(values, (lo, hi), axis=-1)
    below, above = part[..., lo], part[..., hi]
    step = above - below
    return above - step * (1.0 - gamma) if gamma >= 0.5 else below + step * gamma


def _noise_mad(values: np.ndarray):
    """Robust noise estimate from first differences, one per row of a stack
    (along the last axis)."""
    if values.shape[-1] < 3:
        return np.zeros(values.shape[:-1])[()]
    diffs = np.diff(values, axis=-1)
    return 1.4826 * _median(np.abs(diffs - _median(diffs)[..., None])) / np.sqrt(2.0)


def _half_level_widths(nu, od, i_min, level, lo=0, hi=None) -> np.ndarray:
    """Width of the dip at ``level`` around the lowest point ``i_min`` of
    each row of the stack ``od``, with linear interpolation at the two
    crossings, within the row's window of samples ``[lo, hi)`` (by default
    the whole row) and at least that window's first sample step."""
    at = np.arange(nu.size)
    above = od >= level[:, None]
    # the last sample at the level on the left of the lowest point and the
    # first on its right, or the window's ends where the dip runs off it
    left = np.maximum(np.where(above & (at <= i_min[:, None]), at, 0).max(axis=1), lo)
    right = np.minimum(np.where(above & (at >= i_min[:, None]), at, nu.size - 1).min(axis=1),
                       nu.size - 1 if hi is None else hi - 1)
    # a crossing between a side and its inner neighbour is interpolated; a
    # side that is the lowest point, or a window end below the level, stays
    side = np.stack((left, right))
    inner = np.stack((np.minimum(left + 1, nu.size - 1), np.maximum(right - 1, 0)))
    rows = np.arange(len(od))
    od_side = od[rows, side]
    rise = np.where(above[rows, side] & (side != i_min), od_side - level, 0.0)
    dnu = nu[lo + 1] - nu[lo]
    shift = rise / np.maximum(od_side - od[rows, inner], 1e-300) * dnu
    return np.maximum((nu[right] - shift[1]) - (nu[left] + shift[0]), dnu)


# the Lorentzian dip on a line that every hole fit uses; it holds no state
_HOLE_DIP = model_lorentzian_dip(2)


@dataclass(frozen=True)
class _HoleFit:
    """One spectrum's hole fit: the ``(x, y, sigma, init, lo, hi)`` row of
    :func:`_fit_rows`, with ``x`` the samples around the lowest point in
    units of the estimated width ``scale`` about that point's frequency
    ``ref``, and ``sigma`` the readout-noise estimate."""

    row: tuple
    ref: float
    scale: float


def _hole_fits(nu: np.ndarray, od: np.ndarray, center_guess: float,
               search_radius: Optional[float], min_depth: Optional[float]) -> list:
    """The hole-fit set-up of every row of the stack ``od`` of spectra on the
    grid ``nu``: a :class:`_HoleFit`, or the :class:`NoHoleFound` of a row
    without a dip above its noise floor.  The search window, the 85% baseline
    percentile, the noise estimate, the thresholds, the half-level width and
    the fit window are taken over the whole stack at once; each row's value
    is what it gets alone."""
    if nu.size < 8:
        return [NoHoleFound("spectrum too short for hole metrology") for _ in od]
    span = nu[-1] - nu[0]
    radius = search_radius if search_radius is not None else span / 8.0
    window = np.abs(nu - center_guess) <= radius
    if not window.any():
        return [NoHoleFound(f"no samples within {radius:.3g} Hz of guess") for _ in od]

    idx = np.flatnonzero(window)
    rows = np.arange(len(od))
    i_min = idx[np.argmin(od[:, idx], axis=1)]
    # baseline from the upper od quantile of the whole window so that wide
    # (power-broadened) holes do not drag the estimate down
    baseline_est = _percentile(od, 85.0)
    depth_est = baseline_est - od[rows, i_min]
    noise = _noise_mad(od)
    threshold = np.full(len(od), min_depth) if min_depth is not None \
        else np.maximum(0.01, 5.0 * noise)
    # the floor keeps noiseless spectra fittable; estimates do not depend on
    # a uniform sigma, only the reported errors scale with it
    sigma = np.maximum(noise, 1e-12 * od.max(axis=1))
    dnu = nu[1] - nu[0]
    fwhm_est = np.minimum(_half_level_widths(nu, od, i_min, baseline_est - depth_est / 2.0),
                          span / 2.0)
    # the fit window: the samples within the fit radius of the lowest point,
    # one run of the grid, from start to stop
    fit_radius = np.maximum(4.0 * fwhm_est, 12.0 * dnu)
    inside = np.abs(nu - nu[i_min][:, None]) <= fit_radius[:, None]
    start = inside.argmax(axis=1)
    stop = nu.size - inside[:, ::-1].argmax(axis=1)
    # fit in units of the estimated width so the normal equations stay
    # well conditioned regardless of the absolute frequency scale
    scale = np.maximum(fwhm_est, 4.0 * dnu)
    ref = nu[i_min]
    x = (nu - ref[:, None]) / scale[:, None]
    x_lo, x_hi = x[rows, start], x[rows, stop - 1]
    # each row's start and bounds, as (init, lo, hi)
    setup = np.empty((len(od), 3, 5))
    setup[:] = [[0.0, 0.0, 0.0, 0.0, 0.0], [-np.inf, -np.inf, -np.inf, 0.0, 1e-2],
                [np.inf, np.inf, np.inf, 0.0, 0.0]]
    setup[:, 0, 0], setup[:, 0, 2], setup[:, 0, 4] = baseline_est, depth_est, fwhm_est / scale
    setup[:, 1, 3], setup[:, 2, 3], setup[:, 2, 4] = x_lo, x_hi, 4.0 * (x_hi - x_lo)
    fits = []
    for k, (a, b, r, sc, depth, limit, sig) in enumerate(zip(
            start.tolist(), stop.tolist(), ref.tolist(), scale.tolist(), depth_est.tolist(),
            threshold.tolist(), sigma.tolist())):
        if depth < limit:
            fits.append(NoHoleFound(f"largest dip {depth:.4g} OD below threshold {limit:.4g}"))
            continue
        fits.append(_HoleFit(row=(x[k, a:b], od[k, a:b], sig, *setup[k]),
                             ref=r, scale=sc))
    return fits


def _hole_metrics(fit: _HoleFit, res):
    """The :class:`HoleMetrics` of one hole fit's result, or the
    :class:`FitDiverged` or :class:`NoHoleFound` that rejects it."""
    if isinstance(res, (MaxIterations, SingularJacobian)):
        exc = FitDiverged(str(res))
        exc.__cause__ = res
        return exc
    if not res.converged:
        return FitDiverged(f"hole fit did not converge ({res.stop_reason})")
    scale = fit.scale
    depth = res["depth"]
    fwhm = res["fwhm"] * scale
    if depth <= 0:
        return NoHoleFound("fit found no absorption dip")
    d_err = res.error_of("depth")
    f_err = res.error_of("fwhm") * scale
    i_d = res.param_names.index("depth")
    i_f = res.param_names.index("fwhm")
    cov_df = float(res.covariance[i_d, i_f]) * scale
    area = depth * (np.pi / 2.0) * fwhm
    area_var = (np.pi / 2.0) ** 2 * (
        (fwhm * d_err) ** 2 + (depth * f_err) ** 2 + 2.0 * fwhm * depth * cov_df)
    return HoleMetrics(
        center=fit.ref + res["center"] * scale, depth=depth, fwhm=fwhm, area=area,
        depth_err=d_err, fwhm_err=f_err,
        area_err=float(np.sqrt(max(area_var, 0.0))),
    )


def _fit_rows(rows) -> list:
    """Fit every ``(x, y, sigma, init, lo, hi)`` row with ``_HOLE_DIP``.  Rows
    with windows of the same length run as one :func:`fitting.fit_curves`
    batch, a lone row through :func:`fitting.fit_curve`; each row gets what it
    gets alone.  Returns each row's :class:`FitResult`, or the
    :class:`MaxIterations` or :class:`SingularJacobian` that ends its fit."""
    results = [None] * len(rows)
    groups = {}
    for k, row in enumerate(rows):
        groups.setdefault(row[0].size, []).append(k)
    for ks in groups.values():
        if len(ks) == 1:
            x, y, sigma, init, lo, hi = rows[ks[0]]
            try:
                results[ks[0]] = fit_curve(_HOLE_DIP, x, y, sigma=sigma, init=init,
                                           bounds=(lo, hi))
            except (MaxIterations, SingularJacobian) as exc:
                results[ks[0]] = exc
            continue
        x, y, sigma, init, lo, hi = (np.array(col) for col in zip(*(rows[k] for k in ks)))
        for k, res in zip(ks, fit_curves(_HOLE_DIP, x, y, sigma=sigma[:, None], init=init,
                                          bounds=(lo, hi))):
            results[k] = res
    return results


def _measure_holes(nu: np.ndarray, od: np.ndarray, center_guess: float,
                   search_radius: Optional[float] = None,
                   min_depth: Optional[float] = None) -> list:
    """:func:`measure_hole` on every row of the stack ``od`` of spectra on the
    grid ``nu``: per row, its :class:`HoleMetrics` or the
    :class:`NoHoleFound` or :class:`FitDiverged` that :func:`measure_hole`
    would raise."""
    out = _hole_fits(nu, od, center_guess, search_radius, min_depth)
    ks = [k for k, fit in enumerate(out) if isinstance(fit, _HoleFit)]
    for k, res in zip(ks, _fit_rows([out[k].row for k in ks])):
        out[k] = _hole_metrics(out[k], res)
    return out


def measure_hole(spec: AbsorptionSpectrum, center_guess: float,
                 search_radius: Optional[float] = None,
                 min_depth: Optional[float] = None) -> HoleMetrics:
    """Locate and fit the spectral hole nearest ``center_guess``.

    Fits a Lorentzian dip plus a linear baseline over a window of a few
    widths around the minimum, so nearby structures only enter through the
    baseline slope.  The fit is weighted by the readout-noise estimate of the
    spectrum, so the ``*_err`` fields are 1-sigma uncertainties in data units
    (OD, Hz, OD*Hz) propagated from that noise.  This is the one-spectrum
    case of the stacked hole metrology that :func:`hole_decay_experiment`
    runs over all its delays.

    Raises
    ------
    NoHoleFound
        If no dip exceeding the noise floor exists near the guess.
    FitDiverged
        If the line-shape fit does not converge.
    """
    res, = _measure_holes(spec.grid.centers, spec.od[None, :], center_guess,
                          search_radius, min_depth)
    if isinstance(res, Exception):
        raise res
    return res


# ---------------------------------------------------------------------------
# Comb metrology
# ---------------------------------------------------------------------------

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
    sem = float(_median(np.sqrt(var) / np.sqrt(n[multi]))) if multi.any() else 0.0
    return profile, sem, n_phase


def _read_teeth(nu, od, teeth, spacing):
    """The top, trough and half-contrast width of every tooth centred at
    ``teeth``, read as one stack: each tooth a row over its window, the
    samples within half a period of it, with its top within a quarter
    period.  The width at half contrast, at most ``spacing``, is the fwhm of
    a lone Lorentzian tooth and the duty width of a square one."""
    offset = np.abs(nu - teeth[:, None])
    window = offset <= spacing / 2.0
    lo = window.argmax(axis=1)
    hi = nu.size - window[:, ::-1].argmax(axis=1)
    near_od = np.where(offset <= spacing / 4.0, od, -np.inf)
    i_pk = near_od.argmax(axis=1)
    tops = near_od[np.arange(teeth.size), i_pk]
    if np.any(tops == -np.inf) or np.any(hi - lo < 2):
        raise NoCombDetected(f"bins of {nu[1] - nu[0]:.3g} Hz too coarse for "
                             f"teeth {spacing:.3g} Hz apart")
    troughs = np.where(window, od, np.inf).min(axis=1)
    widths = _half_level_widths(nu, np.broadcast_to(-od, window.shape), i_pk,
                                -(troughs + (tops - troughs) / 2.0), lo, hi)
    return tops, troughs, np.minimum(widths, spacing)


def analyze_comb(spec: AbsorptionSpectrum, spacing: float) -> CombMetrics:
    """Extract comb metrics at the given tooth spacing.

    Teeth are located by folding the spectrum modulo the spacing and read
    as one stack (:func:`_read_teeth`): each tooth's height is its sampled
    top, and its width the interpolated half-contrast width between that top
    and the local trough, by the hole set-up's half-level kernel; no line
    shape is fitted.  Medians across teeth give ``d_peak`` and
    ``tooth_fwhm``, and trough regions around zero detuning are excluded so
    the carrier-leak hole does not contaminate the background estimate.

    Raises
    ------
    NoCombDetected
        If the window holds fewer than three periods or shows no periodic
        modulation above the noise, or a tooth has no sample within a
        quarter period or fewer than two within half a period.
    """
    if not 0 < spacing < math.inf:
        raise NonPositiveSpacing(f"spacing={spacing}")
    nu = spec.grid.centers
    od = spec.od
    span = nu[-1] - nu[0]
    if span < 3 * spacing:
        raise NoCombDetected(f"window {span:.3g} Hz holds fewer than 3 periods")

    # keep the burned-out carrier region at zero detuning away from the fold
    fold_sel = np.abs(nu) > 0.9 * spacing
    if fold_sel.sum() < 8:
        fold_sel = np.ones_like(nu, dtype=bool)
    folded, sem, n_phase = _folded_profile(nu[fold_sel], od[fold_sel], spacing)
    modulation = float(np.nanmax(folded) - np.nanmin(folded))
    if modulation < max(0.02, 7.0 * sem):
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
    teeth = teeth[(teeth >= nu[0] + spacing / 4.0) & (teeth <= nu[-1] - spacing / 4.0)
                  & (np.abs(teeth) > 0.9 * spacing)]
    if teeth.size < 2:
        raise NoCombDetected(f"only {teeth.size} usable teeth in window")

    tops, troughs, widths = _read_teeth(nu, od, teeth, spacing)
    widths = widths[tops - troughs > 0]
    if not widths.size:
        raise NoCombDetected("no teeth with positive contrast")
    d_peak = float(_median(tops))
    tooth_fwhm = float(_median(widths))

    trough_means = []
    trough_centers = np.arange(first - spacing / 2.0, nu[-1] + spacing / 4.0, spacing)
    trough_centers = trough_centers[
        (trough_centers >= nu[0] + spacing / 4.0)
        & (trough_centers <= nu[-1] - spacing / 4.0)
        & (np.abs(trough_centers) > 0.9 * spacing)]
    for tc in trough_centers:
        sel = np.abs(nu - tc) <= spacing / 4.0
        if sel.any():
            trough_means.append(float(od[sel].mean()))
    if not trough_means:
        raise NoCombDetected("no usable trough regions")
    d0 = float(_median(np.array(trough_means)))
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
    if not 0 < spacing < math.inf:
        raise NonPositiveSpacing(f"spacing={spacing}")
    return 1.0 / spacing


def afc_efficiency(metrics: CombMetrics) -> float:
    """Forward-recall echo efficiency from the comb metrics.

    Combines the square-tooth effective depth ``d_eff = (d_peak - d0) / F``
    with the Gaussian-tooth dephasing factor exp(-7/F^2) and the background
    suppression exp(-d0):

        eta = d_eff^2 * exp(-d_eff) * exp(-7/F^2) * exp(-d0)

    This matches neither form of Afzelius et al., PRA 79, 052329 (2009): a
    square-tooth comb dephases by sinc^2(pi/F), and a Gaussian-tooth comb
    has the effective depth ``(d_peak - d0) * sqrt(pi / (4 ln 2)) / F``.
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
    burn and the dark relaxation are simulated once, and the states at every
    delay come back as one record array.  Their spectra are taken in one
    stacked pass, and the readout window is cut from them once.  Each delay
    then gets the seeded readout noise that :func:`simulate_readout` adds,
    from per-delay seeds spawned from ``seed``, and all the delays' holes are
    measured as one stack: one set-up and one batch of fits (see
    :func:`measure_hole`).  The curve is bit-identical to running
    :func:`evolve`, :func:`simulate_readout` and :func:`measure_hole` state by
    state.  A delay whose hole has sunk below the noise floor
    (:class:`NoHoleFound`) or whose hole fit does not converge
    (:class:`FitDiverged`) is left out of the curve and listed with the
    reason in ``DecayCurve.dropped``.  This is the one-field case of the
    hole stack that ``experiments.run_fig2`` measures across its fields.
    """
    curve, = _hole_decays([b_field], delays, params, tls, [seed], burn_power=burn_power,
                          detuning=detuning, hole_width=hole_width,
                          burn_duration=burn_duration, span=span, noise_rel=noise_rel,
                          repeats=repeats, bin_width=bin_width)
    return curve


def _hole_decays(b_fields: Sequence[float], delays: Sequence[float],
                 params: MaterialParams, tls: TlsParams, seeds: Sequence,
                 burn_power: float, detuning: float, hole_width: float,
                 burn_duration: float, span: float, noise_rel: float, repeats: int,
                 bin_width: float) -> list:
    """:func:`hole_decay_experiment` at each field of ``b_fields``, with the
    matching seed of ``seeds``: one :class:`DecayCurve` per field.  Each field
    is evolved, read out and given its per-delay noise seeds as alone; then
    the holes of every field and delay are measured as one stack, one set-up
    and one batch of fits, which gives each row what it gets alone."""
    delays = np.asarray(sorted(delays), dtype=float)
    if delays.size == 0:
        raise InvalidRange("need at least one delay")
    if np.any(delays <= 5.0 * params.t1_opt):
        raise InvalidRange(
            f"delays must exceed 5 * t1_opt = {5 * params.t1_opt:.4g} s")
    if repeats < 1:
        raise NonPositiveInput(f"repeats must be >= 1, got {repeats}")
    if not noise_rel >= 0:
        raise NonPositiveInput(f"noise_rel must be >= 0, got {noise_rel}")
    grid = make_grid(detuning - span, detuning + span, bin_width)
    subgrid, sl = grid.subgrid(detuning - span / 2.0, detuning + span / 2.0)
    seq = build_hole_sequence(detuning=detuning, burn_duration=burn_duration,
                              power=burn_power, width=hole_width,
                              dark_after=float(delays[-1]))
    record = [burn_duration + d for d in delays]
    swept = []
    for b_field, seed in zip(b_fields, seeds):
        p = params.with_(b_field=b_field)
        state0 = init_equilibrium_state(grid, p)
        records = _evolve_records(state0, seq, p, tls, record)
        window = _optical_depth(grid, state0.weight, records, p)[:, sl]
        root = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(seed)
        swept.extend(_sweep_noise(od, noise_rel, repeats, child)
                     for od, child in zip(window, root.spawn(len(records))))

    # noiseless readouts can resolve arbitrarily faint holes
    floor = 1e-7 if noise_rel == 0 else None
    holes = _measure_holes(subgrid.centers, np.stack(swept), detuning, min_depth=floor)
    curves = []
    for first in range(0, len(holes), delays.size):
        kept, areas, sigmas, dropped = [], [], [], []
        for delay, metrics in zip(delays, holes[first:first + delays.size]):
            if isinstance(metrics, (NoHoleFound, FitDiverged)):
                dropped.append((float(delay), str(metrics)))
                continue
            kept.append(delay)
            areas.append(metrics.area)
            sigmas.append(metrics.area_err)
        curves.append(DecayCurve(delays=np.array(kept), areas=np.array(areas),
                                 sigmas=np.array(sigmas), dropped=tuple(dropped)))
    return curves
