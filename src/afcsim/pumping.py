"""Pump protocols and rate-equation time evolution.

A :class:`PumpSequence` is an ordered list of timed segments, each holding a
set of spectral features (centre, width, power) plus the carrier light that
leaks through the phase modulator at zero detuning.  :func:`evolve`
integrates the per-bin rate equations

    dn_e/dt = R (n_g - n_e) - n_e / T1
    dn_g/dt = -R (n_g - n_e) + (1 - bz - bh) n_e / T1
              + dev_z / t_long + n_h / t_short + TLS fill
    dn_z/dt = bz n_e / T1 - dev_z / t_long - TLS fill
    dn_h/dt = bh n_e / T1 - n_h / t_short

where ``dev_z`` is the deviation of the Zeeman populations from their
thermal partition of the current ground pool.

The two TLS channels (grating fill and spectral diffusion) are driven by
the pump power coupled into the waveguide: the host matrix absorbs a small
fixed fraction of the circulating light whether or not the erbium line has
been burned transparent, and that fraction is folded into the TLS
coefficients.  Spectral diffusion accumulates Gaussian variance
proportional to the deposited pump energy: every level diffuses over the
grid with the reflective-boundary Laplacian.

While the pump is constant all of this is one linear system with a fixed
generator, and :func:`evolve` applies its exponential directly on each
record interval.  Without diffusion the generator is a 4x4 block per bin,
exponentiated exactly in one batched ``expm``.  With diffusion it is banded,
and ``exp(tau A) x`` is a trapezoid rule on a hyperbolic contour
(Trefethen, Weideman & Schmelzer, BIT 46, 2006; Weideman & Trefethen,
Math. Comp. 76, 2007): twelve complex banded LAPACK solves, off from
``expm_multiply`` by about 1e-12 in population.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import zgbsv
from scipy.special import voigt_profile

from .core import (
    EnsembleState,
    FrequencyGrid,
    MaterialParams,
    boltzmann_polarization,
)
from .errors import (
    InvalidCombGeometry,
    InvalidGeometry,
    InvalidRange,
    NonFiniteState,
    NonPositiveInput,
    NonPositivePower,
    SpectrumOutsideContour,
    StepSizeUnderflow,
)
from .relaxation import TlsParams, flipflop_lifetime, tls_fill_rate

_SHAPES = ("tophat", "gaussian")


# ---------------------------------------------------------------------------
# Sequence data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PumpFeature:
    """One spectral pumping feature: centre and width in Hz, power in W.

    ``power`` is the power actually delivered into the feature, i.e. after
    the serrodyne modulation efficiency at its detuning.
    """

    center: float
    width: float
    power: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise InvalidGeometry(f"feature center must be finite, got {self.center}")
        if not 0 < self.width < math.inf:
            raise InvalidGeometry(f"feature width must be finite and > 0, got {self.width}")
        if not 0 <= self.power < math.inf:
            raise NonPositivePower(f"feature power must be finite and >= 0, got {self.power}")


@dataclass(frozen=True)
class PumpSegment:
    """A timed pumping interval with fixed spectral content."""

    duration: float
    features: tuple
    carrier_leak: float = 0.0
    shape: str = "tophat"
    total_power: float = 0.0

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise InvalidGeometry(f"segment duration must be finite and > 0, got {self.duration}")
        if not (0.0 <= self.carrier_leak <= 1.0):
            raise InvalidGeometry(f"carrier_leak must be in [0, 1], got {self.carrier_leak}")
        if self.shape not in _SHAPES:
            raise InvalidGeometry(f"shape must be one of {_SHAPES}")
        object.__setattr__(self, "features", tuple(self.features))
        if not 0 <= self.total_power < math.inf:
            raise NonPositivePower(f"total_power must be finite and >= 0, got {self.total_power}")

    @property
    def carrier_power(self) -> float:
        return self.carrier_leak * self.total_power


@dataclass(frozen=True)
class PumpSequence:
    """Ordered pump segments followed by an idle (dark) interval."""

    segments: tuple
    dark_after: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise InvalidGeometry("sequence needs at least one segment")
        if not 0 <= self.dark_after < math.inf:
            raise InvalidGeometry(f"dark_after must be finite and >= 0, got {self.dark_after}")
        if self.total_duration <= 0:
            raise InvalidGeometry("total duration must be > 0")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments) + self.dark_after

    @property
    def burn_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def to_json(self) -> str:
        """Serialise to the documented JSON schema."""
        doc = {
            "dark_after_s": self.dark_after,
            "segments": [
                {
                    "duration_s": seg.duration,
                    "shape": seg.shape,
                    "carrier_leak": seg.carrier_leak,
                    "total_power_w": seg.total_power,
                    "features": [
                        {"center_hz": f.center, "width_hz": f.width, "power_w": f.power}
                        for f in seg.features
                    ],
                }
                for seg in self.segments
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "PumpSequence":
        """Inverse of :meth:`to_json`; raises :class:`NonPositiveInput` on bad input."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise NonPositiveInput(f"pump sequence is not JSON: {exc}") from None
        segments = tuple(
            PumpSegment(
                duration=_json_get(seg, "duration_s"),
                features=tuple(
                    PumpFeature(_json_get(f, "center_hz"), _json_get(f, "width_hz"),
                                _json_get(f, "power_w"))
                    for f in _json_get(seg, "features", kind=list)
                ),
                carrier_leak=_json_get(seg, "carrier_leak", 0.0),
                shape=_json_get(seg, "shape", "tophat", str),
                total_power=_json_get(seg, "total_power_w", 0.0),
            )
            for seg in _json_get(doc, "segments", kind=list)
        )
        return cls(segments=segments, dark_after=_json_get(doc, "dark_after_s", 0.0))


def _json_get(obj, key, default=None, kind=(int, float)):
    """``obj[key]``, or ``default``, of a parsed pump-sequence document, checked
    to be a ``kind`` (a number unless stated)."""
    value = obj.get(key, default) if isinstance(obj, dict) else None
    if value is None or isinstance(value, bool) or not isinstance(value, kind):
        raise NonPositiveInput(f"pump sequence JSON: bad or missing {key!r} in {obj!r}")
    # a JSON integer has no size limit; one beyond the float range would
    # overflow wherever it meets a float
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise NonPositiveInput(f"pump sequence JSON: {key!r} is too large for a float")
    return value


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def serrodyne_efficiency(detuning: float, eff_at_1ghz: float = 0.5) -> float:
    """Serrodyne frequency-shift efficiency at a given detuning.

    Linear fall-off anchored at 100% for an unshifted carrier and
    ``eff_at_1ghz`` at 1 GHz, clamped at zero.  The complementary power stays
    at zero detuning (carrier leak).
    """
    if detuning < 0:
        raise InvalidGeometry(f"detuning must be >= 0, got {detuning}")
    return max(0.0, 1.0 - (1.0 - eff_at_1ghz) * detuning / 1e9)


def build_hole_sequence(detuning: float = 250e6, burn_duration: float = 0.3,
                        power: float = 1e-4, width: float = 25e6,
                        dark_after: float = 0.0,
                        eff_at_1ghz: float = 0.5) -> PumpSequence:
    """Single-hole burning protocol: one narrow feature at ``detuning``."""
    if power <= 0:
        raise NonPositivePower(f"power must be > 0, got {power}")
    eff = serrodyne_efficiency(abs(detuning), eff_at_1ghz)
    seg = PumpSegment(
        duration=burn_duration,
        features=(PumpFeature(detuning, width, power * eff),),
        carrier_leak=1.0 - eff,
        total_power=power,
    )
    return PumpSequence(segments=(seg,), dark_after=dark_after)


def build_afc_sequence(bandwidth: float, spacing: float = 50e6,
                       pit_width: float = 25e6, total_duration: float = 0.3,
                       total_power: float = 5e-4, dark_after: float = 0.0,
                       shape: str = "tophat",
                       eff_at_1ghz: float = 0.5,
                       center: float = 0.0) -> PumpSequence:
    """Comb-burning protocol: equally spaced pits sharing the total power.

    Pit centres are placed symmetrically about ``center`` at multiples of
    ``spacing``; the pit count is ``round(bandwidth / spacing)``.  The total
    pump power and duration are independent of the bandwidth, so widening
    the comb lowers the per-pit power spectral density.
    """
    if total_power <= 0:
        raise NonPositivePower(f"total_power must be > 0, got {total_power}")
    if bandwidth < spacing or spacing <= 0:
        raise InvalidCombGeometry(
            f"bandwidth {bandwidth} must be >= spacing {spacing} > 0")
    if not (0 < pit_width < spacing):
        raise InvalidCombGeometry(
            f"pit_width {pit_width} must be within (0, spacing={spacing})")
    n_pits = int(round(bandwidth / spacing))
    offsets = (np.arange(n_pits) - (n_pits - 1) / 2.0) * spacing
    per_pit = total_power / n_pits
    features = []
    leak = 0.0
    for off in offsets:
        eff = serrodyne_efficiency(abs(center + off), eff_at_1ghz)
        features.append(PumpFeature(center + off, pit_width, per_pit * eff))
        leak += per_pit * (1.0 - eff)
    seg = PumpSegment(
        duration=total_duration,
        features=tuple(features),
        carrier_leak=leak / total_power,
        shape=shape,
        total_power=total_power,
    )
    return PumpSequence(segments=(seg,), dark_after=dark_after)


def build_two_hole_sequence(separation: float = 200e6, hole_width: float = 25e6,
                            pump_power: float = 1e-4, probe_power: float = 2e-5,
                            center: float = 250e6, burn_duration: float = 0.3,
                            dark_after: float = 0.0,
                            eff_at_1ghz: float = 0.5) -> PumpSequence:
    """Pump-probe hole pair: two features ``separation`` apart.

    The first feature (below ``center``) is the pump hole whose power is
    varied; the second is the probe hole burned at constant power.  Either
    power may be zero, which leaves an inert feature.
    """
    if pump_power < 0 or probe_power < 0:
        raise NonPositivePower("powers must be >= 0")
    if separation <= hole_width:
        raise InvalidGeometry(
            f"separation {separation} must exceed hole width {hole_width}")
    centers = (center - separation / 2.0, center + separation / 2.0)
    powers = (pump_power, probe_power)
    features = []
    leak = 0.0
    for c, p in zip(centers, powers):
        eff = serrodyne_efficiency(abs(c), eff_at_1ghz)
        features.append(PumpFeature(c, hole_width, p * eff))
        leak += p * (1.0 - eff)
    total = pump_power + probe_power
    seg = PumpSegment(
        duration=burn_duration,
        features=tuple(features),
        carrier_leak=(leak / total) if total > 0 else 0.0,
        total_power=total,
    )
    return PumpSequence(segments=(seg,), dark_after=dark_after)


# ---------------------------------------------------------------------------
# Pump rate profile
# ---------------------------------------------------------------------------

def _feature_shape(nu: np.ndarray, center: float, width: float,
                   gamma_h: float, shape: str) -> np.ndarray:
    """Peak-normalised spectral shape of a pit convolved with the
    homogeneous Lorentzian."""
    if shape == "tophat":
        half_g = gamma_h / 2.0
        raw = (np.arctan((nu - center + width / 2.0) / half_g)
               - np.arctan((nu - center - width / 2.0) / half_g)) / np.pi
        peak = 2.0 * np.arctan(width / gamma_h) / np.pi
    else:  # gaussian
        sigma = width / np.sqrt(8.0 * np.log(2.0))
        raw = voigt_profile(nu - center, sigma, gamma_h / 2.0)
        peak = voigt_profile(0.0, sigma, gamma_h / 2.0)
    return raw / peak


def pump_rate_profile(segment: PumpSegment, grid: FrequencyGrid,
                      params: MaterialParams) -> np.ndarray:
    """Per-bin stimulated pumping rate R(nu) in s^-1 for one segment.

    Each feature contributes ``pump_xsec * (power / width)`` at its peak,
    shaped by the pit profile convolved with the homogeneous line; the
    carrier leak adds a narrow feature at zero detuning.  Contributions add.
    """
    nu = grid.centers
    rate = np.zeros_like(nu)
    for f in segment.features:
        if f.power == 0.0:
            continue
        psd = f.power / f.width
        rate += params.pump_xsec * psd * _feature_shape(
            nu, f.center, f.width, params.gamma_h_fwhm, segment.shape)
    carrier = segment.carrier_power
    if carrier > 0.0:
        # carrier structure below the grid scale is not resolved
        width = max(params.gamma_h_fwhm, 1e6)
        psd = carrier / width
        rate += params.pump_xsec * psd * _feature_shape(
            nu, 0.0, width, params.gamma_h_fwhm, "tophat")
    return rate


# ---------------------------------------------------------------------------
# Time evolution
# ---------------------------------------------------------------------------

# hyperbolic contour for exp(z) (Weideman & Trefethen, Math. Comp. 76, 2007):
# z(theta) = mu (1 - sin(alpha - i sigma theta)) at the trapezoid nodes
# theta_k = -pi + (k - 1/2) 2 pi / N; only the upper half is kept, because the
# lower half contributes the complex conjugate for a real generator and state
_N_NODES = 24
_MU, _ALPHA, _SIGMA = 2.246 * _N_NODES, 1.1721, 0.3443
_THETA = -np.pi + (np.arange(_N_NODES // 2, _N_NODES) + 0.5) * 2.0 * np.pi / _N_NODES
_Z = _MU * (1.0 - np.sin(_ALPHA - 1j * _SIGMA * _THETA))
_W = (2.0 / _N_NODES) * np.exp(_Z) * 1j * _MU * _SIGMA * np.cos(_ALPHA - 1j * _SIGMA * _THETA)
# scaled so that the rule gives exp(0) = 1 exactly (it is 1.7e-12 short): the
# per-bin mass, the generator's null mode, is then conserved to rounding
_W /= np.sum((_W / _Z).imag)


def _rate_matrices(params: MaterialParams, spin_rate: float,
                   frac_upper: float) -> tuple:
    """``(relax, pump)``: a bin pumped at rate ``R`` has the 4x4 generator
    ``relax + R * pump`` on the levels (g, z, h, e).  ``spin_rate`` is the
    spin relaxation plus TLS fill rate pulling ``dev_z`` to zero."""
    a = 1.0 / params.t1_opt
    s = 1.0 / params.t_short
    bz, bh = params.beta_zeeman, params.beta_shf
    k, f = spin_rate, frac_upper
    relax = np.array([[-k * f, k * (1.0 - f), s, (1.0 - bz - bh) * a],
                      [k * f, -k * (1.0 - f), 0.0, bz * a],
                      [0.0, 0.0, -s, bh * a],
                      [0.0, 0.0, 0.0, -a]])
    pump = np.array([[-1.0, 0.0, 0.0, 1.0], [0.0] * 4, [0.0] * 4, [1.0, 0.0, 0.0, -1.0]])
    return relax, pump


def _check_sector(eigs: np.ndarray, tau: float) -> None:
    """Raise unless every ``tau * eig`` lies left of the contour."""
    lam = tau * eigs.ravel()
    edge = _MU * (1.0 - np.sin(_ALPHA) * np.hypot(1.0, lam.imag / (_MU * np.cos(_ALPHA))))
    if np.any(lam.real >= edge):
        worst = lam[np.argmax(lam.real - edge)]
        raise SpectrumOutsideContour(
            f"eigenvalue {worst:.4g} of the {tau:.4g} s generator lies outside the contour")


def _contour_expmv(relax: np.ndarray, pump: np.ndarray, rate: np.ndarray,
                   diff: float, tau: float, x: np.ndarray) -> np.ndarray:
    """``exp(tau A) x`` on the bin-major state, for the generator
    ``A = blockdiag(relax + rate_i pump) + diff (L x I4)`` with ``L`` the
    reflective-boundary Laplacian: the trapezoid rule on the hyperbolic
    contour, one complex banded solve of ``z - tau A`` per upper-half node.
    """
    m = x.size
    # zgbsv's band layout, 4 sub- and 4 super-diagonals: (z - tau A)[r, c] at
    # row 8 + r - c, column c, and rows 0-3 take the LU fill-in.  One
    # Fortran-ordered buffer is refilled in place, so f2py copies nothing.
    lu = np.empty((13, m), dtype=complex, order="F")
    acc = np.zeros(m)
    for z, w in zip(_Z, _W):
        lu[:] = 0.0
        for row in range(4):
            for col in range(4):
                lu[8 + row - col, col::4] = -tau * (relax[row, col] + pump[row, col] * rate)
        lu[4, 4:] = lu[12, :-4] = -tau * diff
        lu[8] += z + 2.0 * tau * diff
        lu[8, :4] -= tau * diff
        lu[8, -4:] -= tau * diff
        _, _, y, info = zgbsv(4, 4, lu, x.astype(complex), overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise SpectrumOutsideContour(f"contour node {z:.4g} is an eigenvalue of the generator")
        acc += w.real * y.imag + w.imag * y.real
    return acc


def evolve(state: EnsembleState, seq: PumpSequence, params: MaterialParams,
           tls: TlsParams, record_times: Sequence[float],
           dt_lit: Optional[float] = None,
           dt_dark: Optional[float] = None) -> list:
    """Integrate the rate equations and return states at ``record_times``.

    ``record_times`` are measured from the start of the sequence, must be
    sorted and lie within the total duration.  The input state is not
    modified.  The state is one bin-major ``(n_bins, 4)`` array.  While the
    pump is constant the whole system is linear with one fixed generator
    ``A``, and every record interval of length ``tau`` is advanced by
    ``exp(tau A)`` directly, with no time steps, then clipped to [0, 1] once.

    Without spectral diffusion (the dark, or TLS off) ``A`` is block
    diagonal, and each bin's exact 4x4 propagator comes from one batched
    ``expm`` over the distinct pump rates.  With diffusion ``A`` is banded
    (4 sub- and 4 super-diagonals in bin-major order), and ``exp(tau A) x``
    is a 24-node trapezoid rule on a hyperbolic contour: 12 complex banded
    solves, using conjugate symmetry.  Against ``expm_multiply`` that is off
    by less than 1e-10 in population: on fig5's hole pair at 1e-4 W by
    1.9e-12 at 1 ms, 3.0e-13 inside the burn and 2.2e-13 at its end and
    after the wait; on the 0.2, 3.2 and 6.4 GHz combs of fig4 by 3.7e-13,
    5.3e-13 and 9.1e-13.  The per-bin mass drifts by less than 1e-12
    (6.4e-13 on the 6.4 GHz comb).
    The contour needs the spectrum of ``tau A`` to lie left of it; the
    eigenvalues of the distinct-rate 4x4 blocks are checked, and
    :class:`SpectrumOutsideContour` is raised when one is outside.  Blocks
    of valid material parameters stay within about 20 degrees of the
    negative real axis, inside the contour's 22.8-degree asymptotes.

    ``dt_lit`` and ``dt_dark`` are still validated (each must exceed
    1e-12 s) but have no effect on the result.
    """
    record_times = list(record_times)
    if any(t < 0 for t in record_times) or record_times != sorted(record_times):
        raise InvalidRange("record_times must be sorted and non-negative")
    total = seq.total_duration
    if record_times and record_times[-1] > total * (1 + 1e-12) + 1e-15:
        raise InvalidRange(
            f"record time {record_times[-1]} beyond sequence end {total}")
    if (dt_lit is not None and dt_lit <= 1e-12) or (dt_dark is not None and dt_dark <= 1e-12):
        raise StepSizeUnderflow("step size must exceed 1e-12 s")

    grid = state.grid
    n, dnu = grid.n_bins, grid.bin_width
    pops = np.stack([state.n_g, state.n_z, state.n_h, state.n_e], axis=1)

    pol = boltzmann_polarization(params.b_field, params.temperature, params.g_factor)
    frac_upper = (1.0 - pol) / 2.0
    spin_dark = 1.0 / flipflop_lifetime(params.b_field, params.temperature, params)

    # intervals: (duration, rate array, incident power); the TLS channels are
    # driven by the power coupled into the waveguide, which the host matrix
    # samples independently of how transparent the erbium line has become
    intervals = [(seg.duration, pump_rate_profile(seg, grid, params), seg.total_power)
                 for seg in seq.segments]
    if seq.dark_after > 0:
        intervals.append((seq.dark_after, np.zeros(n), 0.0))

    snapshots = []
    rec_iter = iter(record_times)
    next_rec = next(rec_iter, None)
    now = 0.0
    eps = 1e-12

    def take_snapshots_at(t):
        nonlocal next_rec
        while next_rec is not None and next_rec <= t + eps:
            g, z, h, e = pops.T.copy()
            snapshots.append(EnsembleState(grid, state.weight.copy(), g, z, h, e))
            next_rec = next(rec_iter, None)

    take_snapshots_at(0.0)

    for duration, rate, power in intervals:
        seg_end = now + duration
        spin_rate = spin_dark + tls_fill_rate(power, tls)
        diff = tls.kappa_diff * power / (2.0 * dnu * dnu)
        relax, pump = _rate_matrices(params, spin_rate, frac_upper)
        rates, which = np.unique(rate, return_inverse=True)
        blocks = relax + rates[:, None, None] * pump
        if diff > 0:
            eigs = np.linalg.eigvals(blocks)
        while now < seg_end - eps:
            # advance to the next record time or the segment end
            if next_rec is not None and now + eps < next_rec < seg_end - eps:
                stop = next_rec
            else:
                stop = seg_end
            tau = stop - now
            if diff > 0:
                _check_sector(eigs, tau)
                pops = _contour_expmv(relax, pump, rate, diff, tau, pops.ravel()).reshape(n, 4)
            else:
                pops = np.einsum("nij,nj->ni", expm(blocks * tau)[which], pops)
            np.clip(pops, 0.0, 1.0, out=pops)

            now = stop
            if not np.isfinite(pops).all():
                raise NonFiniteState(f"state diverged at t={now}")
            take_snapshots_at(now)
        now = seg_end

    take_snapshots_at(total + eps)
    return snapshots
