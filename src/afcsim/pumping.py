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
generator, and :func:`evolve` applies its exponential directly: every
record of an interval, and its end, comes from the interval's start in one
step, with or without diffusion (a record at 0 is the input state, and one
past the end the end state).  Without diffusion the generator is a 4x4
block per bin: the blocks of the distinct pump rates, times each record's
time from that start, are exponentiated in one batched degree-13 Pade
scaling-and-squaring pass in numpy (Higham, SIAM J. Matrix Anal. Appl. 26,
1179, 2005).  With diffusion it is banded, and
``exp(tau A) x`` comes from the type-(14, 14) Caratheodory-Fejer rational
approximation of exp on (-inf, 0] (Trefethen, Weideman & Schmelzer,
BIT 46, 2006), the approximation CRAM uses, one shifted solve per pole.  Each
bin's total population only diffuses, so at each of the seven poles it comes
from a tridiagonal solve (none when every bin's total is the same, as in an
equilibrium state), and the other three levels from one complex banded
LAPACK factorisation and solve, on a real band built once for all seven:
off from ``expm_multiply`` by at most 4e-13 in population on the scenarios'
holes and combs.  The rule is held accurate where the
spectrum of ``tau A`` lies within 22.8 degrees of the negative real axis or
within 0.5 of 0.  A guard checks the spectra of the 4x4 blocks, one
per distinct pump rate, before the solves.  It needs no LAPACK: each block's
eigenvalues other than 0 are the roots of a cubic whose coefficients are
affine in the pump rate, found in closed form for all rates at once.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs, zgtsv

from .core import (
    CONSERVATION_ATOL,
    EnsembleState,
    FrequencyGrid,
    MaterialParams,
    boltzmann_polarization,
    check_populations,
)
from .errors import (
    InvalidCombGeometry,
    InvalidGeometry,
    InvalidRange,
    MassDrift,
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

def serrodyne_efficiency(detuning: float) -> float:
    """Serrodyne frequency-shift efficiency at a given detuning.

    Linear fall-off anchored at 100% for an unshifted carrier and 50% at
    1 GHz, clamped at zero.  The complementary power stays at zero detuning
    (carrier leak).
    """
    if detuning < 0:
        raise InvalidGeometry(f"detuning must be >= 0, got {detuning}")
    return max(0.0, 1.0 - 0.5 * detuning / 1e9)


def _serrodyne_segment(centers, width: float, powers, total_power: float,
                       duration: float, shape: str) -> PumpSegment:
    """The segment that requests ``powers`` for pits of ``width`` at
    ``centers``: each pit gets ``serrodyne_efficiency(|centre|)`` of its
    request and the rest leaks into the carrier at zero detuning, stored as
    a fraction of ``total_power`` (the sum of the requests)."""
    features, leak = [], 0.0
    for center, power in zip(centers, powers):
        eff = serrodyne_efficiency(abs(center))
        features.append(PumpFeature(center, width, power * eff))
        leak += power * (1.0 - eff)
    return PumpSegment(
        duration=duration,
        features=tuple(features),
        carrier_leak=leak / total_power if total_power > 0 else 0.0,
        shape=shape,
        total_power=total_power,
    )


def _comb_segment(combs, spacing: float, pit_width: float, duration: float,
                  total_power: float, shape: str) -> PumpSegment:
    """One segment burning every ``(bandwidth, centre)`` comb of ``combs``.

    The combs share ``total_power`` equally and each shares its part
    equally among its ``round(bandwidth / spacing)`` pits, placed
    symmetrically about its centre at multiples of ``spacing``.
    """
    if total_power <= 0:
        raise NonPositivePower(f"total_power must be > 0, got {total_power}")
    if not (0 < pit_width < spacing):
        raise InvalidCombGeometry(
            f"pit_width {pit_width} must be within (0, spacing={spacing})")
    centers, powers = [], []
    for bandwidth, center in combs:
        if not bandwidth >= spacing:
            raise InvalidCombGeometry(f"bandwidth {bandwidth} must be >= spacing {spacing}")
        n_pits = int(round(bandwidth / spacing))
        centers.extend(center + (np.arange(n_pits) - (n_pits - 1) / 2.0) * spacing)
        powers.extend([total_power / len(combs) / n_pits] * n_pits)
    return _serrodyne_segment(centers, pit_width, powers, total_power, duration, shape)


def build_hole_sequence(detuning: float = 250e6, burn_duration: float = 0.3,
                        power: float = 1e-4, width: float = 25e6,
                        dark_after: float = 0.0) -> PumpSequence:
    """Single-hole burning protocol: one narrow feature at ``detuning``."""
    if power <= 0:
        raise NonPositivePower(f"power must be > 0, got {power}")
    seg = _serrodyne_segment((detuning,), width, (power,), power, burn_duration, "tophat")
    return PumpSequence(segments=(seg,), dark_after=dark_after)


def build_afc_sequence(bandwidth: float, spacing: float = 50e6,
                       pit_width: float = 25e6, total_duration: float = 0.3,
                       total_power: float = 5e-4, dark_after: float = 0.0,
                       shape: str = "tophat") -> PumpSequence:
    """Comb-burning protocol: equally spaced pits sharing the total power.

    Pit centres are placed symmetrically about zero detuning at multiples
    of ``spacing``; the pit count is ``round(bandwidth / spacing)``.  The
    total pump power and duration are independent of the bandwidth, so
    widening the comb lowers the per-pit power spectral density.
    """
    seg = _comb_segment(((bandwidth, 0.0),), spacing, pit_width, total_duration,
                        total_power, shape)
    return PumpSequence(segments=(seg,), dark_after=dark_after)


def build_two_hole_sequence(separation: float = 200e6, hole_width: float = 25e6,
                            pump_power: float = 1e-4, probe_power: float = 2e-5,
                            center: float = 250e6, burn_duration: float = 0.3,
                            dark_after: float = 0.0) -> PumpSequence:
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
    seg = _serrodyne_segment(
        (center - separation / 2.0, center + separation / 2.0), hole_width,
        (pump_power, probe_power), pump_power + probe_power, burn_duration, "tophat")
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
    else:  # gaussian; imported here, since scipy.special is slow to load
        from scipy.special import voigt_profile

        sigma = width / np.sqrt(8.0 * np.log(2.0))
        raw = voigt_profile(nu - center, sigma, gamma_h / 2.0)
        peak = voigt_profile(0.0, sigma, gamma_h / 2.0)
    return raw / peak


def pump_rate_profile(segment: PumpSegment, grid: FrequencyGrid,
                      params: MaterialParams) -> np.ndarray:
    """Per-bin stimulated pumping rate R(nu) in s^-1 for one segment.

    Each feature contributes ``pump_xsec * (power / width)`` at its peak,
    shaped by the pit profile convolved with the homogeneous line; the
    carrier leak adds a narrow feature at zero detuning.  Contributions add,
    in the order of the features.

    A pit's shape depends only on its width and on ``nu - center``, so pits
    of one width whose centres fall at the same place inside their bins (a
    comb's pits, whole bins apart) share one shape: it is evaluated once, on
    the grid extended by their spread, and each pit adds it shifted by whole
    bins.  Any other pit is a group of one.
    """
    pits = [(f.center, f.width, segment.shape, f.power / f.width)
            for f in segment.features if f.power != 0.0]
    carrier = segment.carrier_power
    if carrier > 0.0:
        # carrier structure below the grid scale is not resolved
        width = max(params.gamma_h_fwhm, 1e6)
        pits.append((0.0, width, "tophat", carrier / width))
    nu_min, bin_width, n = grid.nu_min, grid.bin_width, grid.n_bins
    # the bin each centre falls in, and the group of its width, shape and
    # place inside that bin
    bins = [math.floor((c - nu_min) / bin_width) for c, *_ in pits]
    groups = {}
    for p, ((c, width, shape, _), k) in enumerate(zip(pits, bins)):
        groups.setdefault((width, shape, c - (nu_min + k * bin_width)), []).append(p)
    views = [None] * len(pits)
    for members in groups.values():
        members.sort(key=bins.__getitem__)
        # pits more than a grid apart share no sample: each run of closer pits
        # gets its own extended grid, never longer than their grids together
        cuts = [i for i in range(1, len(members)) if bins[members[i]] - bins[members[i - 1]] > n]
        for run in (members[i:j] for i, j in zip([0] + cuts, cuts + [len(members)])):
            k_lo, k_hi = bins[run[0]], bins[run[-1]]
            c, width, shape, _ = pits[run[0]]
            ext = nu_min + (np.arange(k_lo - k_hi, n) + 0.5) * bin_width
            profile = _feature_shape(ext, c, width, params.gamma_h_fwhm, shape)
            for p in run:
                views[p] = profile[k_hi - bins[p]:][:n]
    rate = np.zeros(n)
    for (*_, psd), view in zip(pits, views):
        rate += params.pump_xsec * psd * view
    return rate


# ---------------------------------------------------------------------------
# Time evolution
# ---------------------------------------------------------------------------

# exp(z) by the type-(14, 14) Caratheodory-Fejer rational approximation on
# (-inf, 0] (Trefethen, Weideman & Schmelzer, BIT 46, 2006, sec. 4), the
# approximation CRAM uses (Pusa & Leppanen, Nucl. Sci. Eng. 164, 2010):
# r(z) = sum_j Im(w_j / (p_j - z)) over the seven poles in the upper
# half-plane, since for a real generator and state the lower half contributes
# the complex conjugate.  The poles are those of TWS sec. 4: the Chebyshev
# coefficients of exp(9 (t - 1) / (t + 1)) from a 1024-point FFT, the SVD of
# the 75 x 75 Hankel matrix of coefficients 1-75, and the roots q outside the
# unit disc of its 15th singular vector, mapped by z = 9 (q - 1)^2 / (q + 1)^2.
# The weights are the least-squares fit to exp at 0 and at 4000 log-spaced
# points from -1e-6 to -2000, scaled so that sum Im(w / p) = 1: r(0) = 1
# exactly, so the per-bin mass, the generator's null mode, is conserved to
# rounding.  |r(z) - exp(z)| is at most 3.5e-14 on (-inf, 0], 8.6e-12 on the
# 20.7-degree rays, 1.8e-11 on the 22.8-degree rays and on the |z| = 0.5 arc
# of the left half-plane, and 4e-10 on the |z| = 1 arc.
_P = np.array([
    -8.897735413180298 + 16.63093520842446j,
    -3.703239160176677 + 13.656333463712498j,
    -0.20872377764902525 + 10.991232026333313j,
    2.2698165258521406 + 8.461717806877203j,
    3.993400429650635 + 6.004818060139016j,
    5.089374564875054 + 3.588816095602845j,
    5.62317153475742 + 1.1940664287021552j,
])
_W = np.array([
    0.0002872379863058238 + 0.00014307733678803236j,
    -0.03437147050656491 - 0.018877441332884274j,
    0.6704093645685589 + 0.7527267435351578j,
    -2.6422244263280565 - 9.614466630305513j,
    -11.616438380250655 + 46.997958814449795j,
    91.28908768255246 - 93.86980911316265j,
    -204.3000126478722 + 55.75232454932658j,
])
# r is held accurate to 2e-11 within 22.8 degrees of the negative real axis
# and within 0.5 of 0, so the block spectra of tau A must lie there
_SECTOR_TAN = math.tan(math.radians(22.8))
_DISC = 0.5


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


def _reduced_blocks(relax: np.ndarray, pump: np.ndarray) -> tuple:
    """``(b_relax, b_pump)``: the columns of a block ``m = relax + R * pump``
    sum to zero, so putting ``g = total - z - h - e`` into its rows for
    (z, h, e) leaves the 3x3 block ``B = b_relax + R * b_pump`` on them, with
    ``B[i, j] = m[i, j] - m[i, 0]`` for i, j >= 1 (levels ordered g, z, h, e)."""
    return relax[1:, 1:] - relax[1:, :1], pump[1:, 1:] - pump[1:, :1]


def _block_spectrum(relax: np.ndarray, pump: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Eigenvalues other than 0 of every block ``relax + R * pump``, one row
    of three per ``R`` in ``rates``.

    The columns of a block ``m`` sum to zero, so ``m`` is similar to
    ``[[0, 0], [*, B]]`` with ``B`` the block of :func:`_reduced_blocks`,
    and the other three eigenvalues are the roots of B's characteristic cubic
    ``x^3 + a x^2 + b x + c``.  The pump moves population between g and e
    only, so ``R`` enters B's last row alone, and each coefficient is affine
    in that row: ``a``, ``b`` and ``c`` are affine in ``R``, with slopes that
    are computed, not differenced.  One real root comes from Cardano's
    formula or, with three real roots, Viete's (the root farthest from their
    mean, so it is simple), and is polished by Newton; deflating it leaves a
    quadratic for the other two.  Where those two merge, they move by about
    sqrt(eps) of the spectral radius, as ``np.linalg.eigvals``' do.
    """
    b_relax, b_pump = _reduced_blocks(relax, pump)
    top = b_relax[:2]
    # a, b, c = fixed + lin @ (last row of B)
    fixed = np.array([-top[0, 0] - top[1, 1], top[0, 0] * top[1, 1] - top[0, 1] * top[1, 0], 0.0])
    lin = np.array([[0.0, 0.0, -1.0],
                    [-top[0, 2], -top[1, 2], top[0, 0] + top[1, 1]],
                    -np.cross(top[0], top[1])])
    a, b, c = (fixed + lin @ b_relax[2])[:, None] + np.outer(lin @ b_pump[2], rates)
    # x = t - a/3 gives the depressed cubic t^3 + p t + q
    p = b - a * a / 3.0
    q = (2.0 * a * a / 27.0 - b / 3.0) * a + c
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    one_real = disc > 0
    u = np.cbrt(-q / 2.0 - np.copysign(np.sqrt(np.maximum(disc, 0.0)), q))
    cardano = u - p / (3.0 * np.where(one_real, u, 1.0))
    rad = np.sqrt(np.maximum(-p / 3.0, 0.0))
    cos3 = np.abs(q) / (2.0 * np.where(one_real | (rad == 0.0), 1.0, rad ** 3))
    viete = -np.copysign(2.0 * rad * np.cos(np.arccos(np.minimum(cos3, 1.0)) / 3.0), q)
    r = np.where(one_real, cardano, viete) - a / 3.0
    for _ in range(2):
        # Newton steps, none where the slope is 0 (a triple root)
        slope = (3.0 * r + 2.0 * a) * r + b
        np.divide(((r + a) * r + b) * r + c, slope, out=slope, where=slope != 0.0)
        r -= slope
    # the other two roots have sum -s and product s0; s0 comes from c / r
    # when r dominates, since b + r s would then cancel
    s = a + r
    s0 = np.where(np.abs(r) > np.abs(s), -c / np.where(r != 0.0, r, 1.0), b + r * s)
    disc = s * s - 4.0 * s0
    pair = disc < 0
    half = np.sqrt(np.abs(disc)) / 2.0
    big = -(s / 2.0 + np.copysign(half, s))
    out = np.empty((rates.size, 3), dtype=complex)
    out.real[:, 0], out.imag[:, 0] = r, 0.0
    out.real[:, 1] = np.where(pair, -s / 2.0, big)
    out.real[:, 2] = np.where(pair, -s / 2.0, s0 / np.where(big != 0.0, big, 1.0))
    out.imag[:, 1] = np.where(pair, half, 0.0)
    out.imag[:, 2] = -out.imag[:, 1]
    return out


def _check_sector(eigs: np.ndarray, tau: float) -> None:
    """Raise unless every ``tau * eig`` lies where the rational rule is held
    accurate: within 22.8 degrees of the negative real axis or within 0.5 of 0."""
    lam = tau * eigs.ravel()
    outside = (np.abs(lam.imag) > -_SECTOR_TAN * lam.real) & (np.abs(lam) > _DISC)
    if np.any(outside):
        worst = lam[outside][np.argmax(np.abs(lam[outside]))]
        raise SpectrumOutsideContour(
            f"eigenvalue {worst:.4g} of the {tau:.4g} s generator lies outside the "
            f"region where the rational rule for exp holds")


def _contour_expmv(relax: np.ndarray, pump: np.ndarray, rate: np.ndarray,
                   diff: float, tau: float, x: np.ndarray) -> np.ndarray:
    """``exp(tau A) x`` on the bin-major state, for the generator
    ``A = blockdiag(relax + rate_i pump) + diff (L x I4)`` with ``L`` the
    reflective-boundary Laplacian: the rational rule
    ``sum_j Im(w_j (p_j - tau A)^-1 x)``.

    The columns of every block sum to zero and diffusion acts alike on all
    four levels, so ``(p - tau A)`` maps each bin's total ``g + z + h + e``
    through the scalar tridiagonal ``p - tau diff L``, whatever the pump
    does.  At each pole the totals ``t`` come from that system: the mean
    ``c`` of the input's totals ``s`` is a null vector of ``L``, so
    ``t = c / p + (p - tau diff L)^-1 (s - c)``.  When every bin's total
    equals ``c`` (as in an equilibrium state) the second term is exactly 0
    and no tridiagonal solve is made.  Putting ``g = t - z - h - e`` into
    the other three rows leaves a banded system on (z, h, e), with 3 sub-
    and 3 super-diagonals, the blocks of :func:`_reduced_blocks` and
    ``tau m[:, g] t`` added to the right-hand side: one complex banded
    factorisation and solve per pole.  The result's g is its totals,
    ``c + sum_j Im(w_j (t_j - c / p_j))``, less its z, h and e.  A physical
    state's totals are 1 up to rounding, so their deviation from ``c`` is of
    rounding size, and so is the drift of each bin's total.

    The banded matrix less ``p`` is real, and is built once per call as
    the 7 rows of zgbtrf's band layout that hold it: ``(-tau B - tau diff
    L)[r, c]`` at row ``3 + r - c``, column ``c``.  Each pole copies them
    into rows 3-9 of one complex Fortran-ordered LU buffer and adds ``p`` to
    its diagonal, row 6; rows 0-2 take zgbtrf's fill-in, which it does not
    read on entry.  f2py copies nothing, and every solve runs in place.
    """
    n = rate.size
    xs = x.reshape(n, 4)
    total = xs.sum(axis=1)
    mean = total.mean()
    deviation = total - mean
    uniform = not deviation.any()
    b_relax, b_pump = _reduced_blocks(relax, pump)
    # the diagonal of -tau diff L; off it, -tau diff
    diag = np.full(n, 2.0 * tau * diff)
    diag[[0, -1]] = tau * diff
    band = np.zeros((7, 3 * n), order="F")
    for row in range(3):
        for col in range(3):
            entry = -tau * (b_relax[row, col] + b_pump[row, col] * rate)
            if row == col:
                entry += diag
            band[3 + row - col, col::3] = entry
    band[0, 3:] = band[6, :-3] = -tau * diff
    lu = np.empty((10, 3 * n), dtype=complex, order="F")
    # the g column of each block, which carries the totals into (z, h, e),
    # and the input's (z, h, e), both complex so that no pole casts them
    lead = (tau * (relax[1:, 0] + np.outer(rate, pump[1:, 0]))).astype(complex)
    zhe = xs[:, 1:].astype(complex)
    y = np.empty(3 * n, dtype=complex)
    ys = y.reshape(n, 3)
    acc = np.zeros(3 * n)
    term = np.empty(3 * n)
    part = np.empty(3 * n)
    acc_total = np.full(n, mean)
    for p, w in zip(_P, _W):
        if uniform:
            t = mean / p
        else:
            # L is real and symmetric and Im p >= 1.19 at every pole, so
            # p - tau diff L is never singular: a zero pivot is a fault
            off = np.full(n - 1, -tau * diff, dtype=complex)
            *_, u, info = zgtsv(off, diag + p, off.copy(), deviation[:, None],
                                overwrite_dl=1, overwrite_d=1, overwrite_du=1)
            if info != 0:
                raise SpectrumOutsideContour(
                    f"zero pivot in the totals' solve at pole {p:.4g} (tau diff {tau * diff:.4g})")
            u = u[:, 0]
            t = (mean / p + u)[:, None]
            acc_total += w.real * u.imag + w.imag * u.real
        lu[3:] = band
        lu[6] += p
        _, piv, info = zgbtrf(lu, 3, 3, overwrite_ab=1)
        if info != 0:
            raise SpectrumOutsideContour(f"pole {p:.4g} is an eigenvalue of the generator")
        np.multiply(lead, t, out=ys)
        ys += zhe
        zgbtrs(lu, 3, 3, y, piv, overwrite_b=1)
        np.multiply(y.imag, w.real, out=term)
        np.multiply(y.real, w.imag, out=part)
        term += part
        acc += term
    out = np.empty((n, 4))
    out[:, 1:] = acc.reshape(n, 3)
    out[:, 0] = acc_total - out[:, 1:].sum(axis=1)
    return out.ravel()


# exp(A) by the degree-13 Pade approximant r_13 = (V - U)^-1 (V + U), with U
# and V the odd and even parts of its numerator, whose coefficients these are,
# and scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005,
# sec. 2): r_13 is exp to double precision, in backward error, wherever the
# 1-norm is at most theta_13
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
_STACK_BLOCKS = 4096


def _solve_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b`` for two ``(n_blocks, n, n)`` stacks, overwriting both.

    Gaussian elimination with partial pivoting, written out elementwise over
    the stack, so each block's solution is the same alone or inside any
    stack.  With it :func:`_expm_blocks` is off from ``mpmath`` by 1.1e-13
    on Table 1's stiffest blocks, and with LAPACK's ``dgesv`` by 1.9e-12.
    """
    n = a.shape[-1]
    for k in range(n):
        p = k + np.argmax(np.abs(a[:, k:, k]), axis=1)
        swap = np.flatnonzero(p != k)
        if swap.size:
            for m in (a, b):
                m[swap, k], m[swap, p[swap]] = m[swap, p[swap]], m[swap, k]
        f = a[:, k + 1:, k:k + 1] / a[:, k:k + 1, k:k + 1]
        a[:, k + 1:, k + 1:] -= f * a[:, k:k + 1, k + 1:]
        b[:, k + 1:] -= f * b[:, k:k + 1]
    for k in reversed(range(n)):
        for j in range(k + 1, n):
            b[:, k] -= a[:, k, j, None] * b[:, j]
        b[:, k] /= a[:, k, k, None]
    return b


def _expm_blocks(blocks: np.ndarray) -> np.ndarray:
    """``exp`` of every square matrix in the stack ``blocks``.

    Each block is scaled by ``2^-s``, with ``s >= 0`` the least that brings
    its 1-norm to at most theta_13, put through r_13 and squared ``s``
    times.  Every step acts on each block alone, so a block's exponential is
    the same, bit for bit, alone or inside any stack.
    """
    b = _PADE13
    a = blocks.reshape(-1, *blocks.shape[-2:])
    norm = np.abs(a).sum(axis=1).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.ceil(np.log2(norm / _THETA13))
    # a non-finite block keeps s = 0 and comes out non-finite
    s = np.where((s > 0) & np.isfinite(s), s, 0.0)
    a = a * np.exp2(-s)[:, None, None]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = _solve_blocks(v - u, v + u)
    # with the blocks in falling order of s, those still to square lead
    order = np.argsort(-s, kind="stable")
    r, s = r[order], s[order]
    for k in range(int(s.max(initial=0.0))):
        lead = np.count_nonzero(s > k)
        r[:lead] = r[:lead] @ r[:lead]
    out = np.empty_like(r)
    out[order] = r
    return out.reshape(blocks.shape)


def _exact_records(relax: np.ndarray, pump: np.ndarray, rate: np.ndarray,
                   taus: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``exp(tau A) x`` for every ``tau`` of ``taus``, as one
    ``(taus.size, n_bins, 4)`` array, for the block-diagonal generator
    ``A = blockdiag(relax + rate_i pump)`` and the ``(n_bins, 4)`` state ``x``.

    Without diffusion each bin's total ``T = g + z + h + e`` is constant, so
    with ``g = T - z - h - e`` a bin follows a 4x4 generator on (z, h, e, T):
    the block of :func:`_reduced_blocks` and the g column of
    ``relax + R pump`` on top, and a last row of 0.  That block for each
    distinct rate, times each ``tau``, goes through :func:`_expm_blocks`,
    in one call unless the stack would pass ``_STACK_BLOCKS`` blocks (then
    in calls of as many records as fit, since each block's exponential is
    the same in any stack).  Every record's (z, h, e) is one gathered
    product with the start's (z, h, e, T), and its g is T less them, so each
    bin's total is kept by construction.
    """
    rates, which = np.unique(rate, return_inverse=True)
    b_relax, b_pump = _reduced_blocks(relax, pump)
    blocks = np.zeros((rates.size, 4, 4))
    blocks[:, :3, :3] = b_relax + rates[:, None, None] * b_pump
    blocks[:, :3, 3] = relax[1:, 0] + np.outer(rates, pump[1:, 0])
    start = np.empty_like(x)
    start[:, :3] = x[:, 1:]
    start[:, 3] = x[:, 0] + x[:, 1] + x[:, 2] + x[:, 3]
    out = np.empty((taus.size, rate.size, 4))
    # as many records per call as keep the stack within _STACK_BLOCKS blocks,
    # or one, since the work arrays of a call take about 1 kB per block
    step = max(1, _STACK_BLOCKS // rates.size)
    for lo in range(0, taus.size, step):
        prop = _expm_blocks(np.multiply.outer(taus[lo:lo + step], blocks))
        out[lo:lo + step, :, 1:] = np.einsum("knij,nj->kni", prop[:, which, :3], start)
    out[..., 0] = start[:, 3] - out[..., 1] - out[..., 2] - out[..., 3]
    return out


def evolve(state: EnsembleState, seq: PumpSequence, params: MaterialParams,
           tls: TlsParams, record_times: Sequence[float],
           dt_lit: Optional[float] = None,
           dt_dark: Optional[float] = None) -> list:
    """Integrate the rate equations and return states at ``record_times``.

    ``record_times`` are measured from the start of the sequence, must be
    sorted and lie within the total duration.  The input state is not
    modified.  The state is one bin-major ``(n_bins, 4)`` array.  While the
    pump is constant the whole system is linear with one fixed generator
    ``A``, and the state is advanced by ``exp(tau A)`` directly, with no
    time steps, then clipped to [0, 1].  The states at the record times are
    copied into one ``(n_records, n_bins, 4)`` array, whose populations are
    checked once, as :meth:`EnsembleState.validate` checks a state; each
    returned :class:`EnsembleState` wraps one record of it.
    The hole decays of :mod:`readout` (:func:`readout.hole_decay_experiment`,
    and Fig. 2's decays at every field) take that array directly.
    Every record of an interval, and its end, comes from the interval's
    start ``t0`` in one step, ``exp((t - t0) A)``, with or without diffusion.
    A record on an interval boundary is the end of the first, one at 0 the
    input state, and one past the end (by the accepted rounding) the end state.

    Without spectral diffusion (the dark, or TLS off) ``A`` is block diagonal.
    Each bin's total is constant there, so the 4x4 blocks act on (z, h, e)
    and the total, and g is the total less the others: the per-bin mass is
    kept to rounding (2e-16 on Table 1).  The blocks of the distinct pump
    rates, times every record's ``t - t0``, are exponentiated as one stack by
    the degree-13 Pade approximant with scaling and squaring (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179, 2005), each block with its own scaling.
    On Table 1's 40 stiffest blocks (1-norm up to 4.6e4) that is off from a
    40-digit ``mpmath.expm`` by 1.1e-13, where ``scipy.linalg.expm`` is off
    by 2.8e-14; on fig2's dark waits the records are within 2e-14 of
    chaining one ``scipy.linalg.expm`` per record interval.  With diffusion
    ``A`` is banded, since diffusion couples neighbouring bins, and
    ``exp(tau A) x`` is the type-(14, 14) Caratheodory-Fejer rational
    approximation of exp: one shifted solve per pole in the upper half-plane,
    using conjugate symmetry.  On (-inf, 0] it is off from exp by at most
    3.5e-14, on the 20.7- and 22.8-degree rays by 8.6e-12 and 1.8e-11, and
    within 0.5 of 0 by 1.8e-11.  The columns of every block sum to zero and
    diffusion acts alike on the four levels, so each bin's total population
    only diffuses, whatever the pump does: at each pole the totals come from
    a scalar tridiagonal solve, with their mean, which diffusion keeps, taken
    out first.  With g written as the total less ``z + h + e``, the other
    levels come from a complex banded solve on (z, h, e), with 3 sub- and 3
    super-diagonals in bin-major order.  Against ``expm_multiply`` that is
    off by less than 1e-10 in population: on fig5's hole pair at 1e-4 W by
    1.0e-13 at 1 ms, inside the burn, at its end and after the wait; on the
    0.2 and 3.2 GHz combs of fig4 by 2.4e-13 and 4.0e-13.  The per-bin mass
    drifts by less than 1e-14: 5.6e-16 on fig5's pair, 4.4e-16 on the 0.2,
    3.2 and 6.4 GHz combs, and 4.1e-15 on a 20-bin hole burned for 50 ms at
    any power up to 1e10 W.  At high pump rates the error goes into how each
    bin's total is shared among its levels: the weights are up to 37 times
    their pole, so the rounding of each level solve, of the size of
    ``tau A``, grows in the sum.  Over the first 10 ms of that hole's burn,
    against a 30-digit ``mpmath.expm`` of its 80x80 generator, the
    populations are off by 6.8e-13, 1.6e-10 and 8.4e-7 at 1 W, 100 W and
    100 kW (peak pump rates 1e8, 1e10 and 1e13 s^-1), where a dense
    ``scipy.linalg.expm`` is off by 6.7e-12, 1.4e-9 and 1.4e-6; the tests
    hold a 6-bin hole to such a reference at 1 W, 1 kW and 100 kW.  A
    diffusive interval that moves a bin's total population by more than
    ``CONSERVATION_ATOL``, read after the clip to [0, 1], raises
    :class:`MassDrift`.  The totals do not pass through the level solve, so
    this happens only where the rule sends levels out of [0, 1]: none on
    that hole up to 1e10 W, but on fig5's pair at ``kappa_diff = 1e40``,
    where clipping loses 0.147 of a bin.
    The rule is held accurate where ``tau`` times the generator's spectrum
    lies within 22.8 degrees of the negative real axis or within 0.5 of 0.
    Before the solves, the eigenvalues of the 4x4 block of every distinct
    pump rate are checked, and :class:`SpectrumOutsideContour` is raised when
    one is outside, or is not finite because the block overflows its cubic.
    They are the roots of each block's characteristic cubic, in closed form:
    one from Cardano's or Viete's formula polished by Newton, the other two
    from the deflated quadratic.  Away from merging roots they
    agree with ``np.linalg.eigvals`` to about 1e-13 of the spectral radius.
    Blocks of valid material parameters stay within about 20.7 degrees of
    the negative real axis (the widest found by a parameter search).

    ``dt_lit`` and ``dt_dark`` are still validated (each must exceed
    1e-12 s) but have no effect on the result.
    """
    if (dt_lit is not None and dt_lit <= 1e-12) or (dt_dark is not None and dt_dark <= 1e-12):
        raise StepSizeUnderflow("step size must exceed 1e-12 s")
    records = _evolve_records(state, seq, params, tls, record_times)
    return [EnsembleState(state.grid, state.weight.copy(), *rec.T.copy()) for rec in records]


def _evolve_records(state: EnsembleState, seq: PumpSequence, params: MaterialParams,
                    tls: TlsParams, record_times: Sequence[float]) -> np.ndarray:
    """The body of :func:`evolve`: the states at ``record_times`` as one
    ``(n_records, n_bins, 4)`` array of the levels (g, z, h, e), checked by
    :func:`core.check_populations`."""
    record_times = list(record_times)
    if not all(t >= 0 for t in record_times) or record_times != sorted(record_times):
        raise InvalidRange("record_times must be sorted and non-negative")
    total = seq.total_duration
    # record times up to this count as the sequence end; all are recorded
    end = total * (1 + 1e-12) + 1e-15
    if record_times and record_times[-1] > end:
        raise InvalidRange(
            f"record time {record_times[-1]} beyond sequence end {total}")

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

    # the interval each record ends in: -1 at t = 0; past the end, the last
    edges = np.cumsum([0.0] + [duration for duration, _, _ in intervals])
    times = np.minimum(record_times, edges[-1])
    owner = np.searchsorted(edges, times) - 1
    records = np.empty((times.size, n, 4))
    records[owner == -1] = pops

    for k, (_, rate, power) in enumerate(intervals):
        mine = owner == k
        # the end's tau is the edge difference, so a record there is the end
        taus, back = np.unique(np.append(times[mine] - edges[k], edges[k + 1] - edges[k]),
                               return_inverse=True)
        spin_rate = spin_dark + tls_fill_rate(power, tls)
        diff = tls.kappa_diff * power / (2.0 * dnu * dnu)
        relax, pump = _rate_matrices(params, spin_rate, frac_upper)
        if diff > 0:
            # a block too stiff for double precision overflows its cubic
            with np.errstate(over="ignore", invalid="ignore"):
                eigs = _block_spectrum(relax, pump, np.unique(rate))
            if not np.isfinite(eigs).all():
                raise SpectrumOutsideContour(
                    f"the eigenvalues of a block overflow (spin rate {spin_rate:.4g} s^-1, "
                    f"pump rates up to {rate.max():.4g} s^-1)")
            # of the accepted cone and disc, only the disc shrinks as tau grows
            _check_sector(eigs, taus[-1])
            states = np.stack([_contour_expmv(relax, pump, rate, diff, tau, pops.ravel())
                               .reshape(n, 4) for tau in taus])
        else:
            states = _exact_records(relax, pump, rate, taus, pops)
        np.clip(states, 0.0, 1.0, out=states)
        finite = np.isfinite(states).all(axis=(1, 2))
        if not finite.all():
            raise NonFiniteState(f"state diverged at t={edges[k] + taus[np.argmin(finite)]}")
        if diff > 0:
            # after the clip, so that levels the rule sent negative count; the
            # no-diffusion blocks keep each bin's total by construction
            drift = np.max(np.abs(states.sum(axis=2) - 1.0))
            if drift > CONSERVATION_ATOL:
                raise MassDrift(
                    f"the {taus[-1]:.4g} s interval ending at t={edges[k + 1]:.6g} moved a bin's "
                    f"total population by {drift:.3g} (pump rates up to {rate.max():.4g} s^-1, "
                    f"diffusion {diff:.4g} s^-1): too stiff for double precision")
        records[mine] = states[back[:-1]]
        pops = states[back[-1]]

    check_populations(state.weight, np.moveaxis(records, 2, 0))
    return records
