"""Frequency grid, material parameters, ensemble state and absorption spectra.

The simulation discretises a window of the (much broader) inhomogeneous
erbium line into uniform frequency bins.  Each bin carries an optical-depth
weight ``G`` (the OD the bin would contribute with its whole population in
the active ground sub-level) and four population fractions:

* ``n_g``  active electronic-Zeeman ground sub-level (the one being pumped),
* ``n_z``  the other Zeeman sub-level (long-lived shelf),
* ``n_h``  superhyperfine shelf (short-lived reservoir),
* ``n_e``  optically excited level.

Absorption spectra are assembled by convolving the per-bin populations with
the appropriate line-shape kernels: a homogeneous Lorentzian for ``n_g``, a
broad Gaussian smear for ``n_h`` and a Gaussian anti-hole kernel displaced
by the Zeeman splitting for ``n_z``.  Excited population does not absorb at
readout (spectra are read after the excited level has decayed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    InvalidRange,
    NegativeField,
    NonPositiveInput,
    NonPositiveTemperature,
    TooManyBins,
)

# CODATA 2022 (scipy.constants.physical_constants); K_B and PLANCK_H are
# exact in the SI since 2019
MU_B = 9.2740100657e-24  # J/T, Bohr magneton
K_B = 1.380649e-23       # J/K, Boltzmann constant
PLANCK_H = 6.62607015e-34  # J s, Planck constant

MAX_BINS = 10_000_000

#: tolerance for per-bin population-class conservation
CONSERVATION_ATOL = 1e-9


# ---------------------------------------------------------------------------
# Frequency grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of detunings (Hz, relative to line centre).

    Bin ``i`` is centred at ``nu_min + (i + 1/2) * bin_width``.
    """

    nu_min: float
    bin_width: float
    n_bins: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.nu_min, self.bin_width, self.nu_max))):
            raise InvalidRange(f"grid edges must be finite, got nu_min={self.nu_min}, "
                               f"bin_width={self.bin_width}, n_bins={self.n_bins}")
        if self.bin_width <= 0:
            raise InvalidRange(f"bin_width must be > 0, got {self.bin_width}")
        if self.n_bins < 2:
            raise InvalidRange(f"grid needs at least 2 bins, got {self.n_bins}")
        if self.n_bins > MAX_BINS:
            raise TooManyBins(f"{self.n_bins} bins exceeds limit {MAX_BINS}")

    @property
    def nu_max(self) -> float:
        return self.nu_min + self.n_bins * self.bin_width

    @property
    def centers(self) -> np.ndarray:
        """Bin-centre detunings, shape ``(n_bins,)``."""
        return self.nu_min + (np.arange(self.n_bins) + 0.5) * self.bin_width

    @property
    def span(self) -> float:
        return self.n_bins * self.bin_width

    def contains(self, lo: float, hi: float) -> bool:
        eps = 1e-6 * self.bin_width
        return (lo >= self.nu_min - eps) and (hi <= self.nu_max + eps)

    def subgrid(self, lo: float, hi: float) -> tuple["FrequencyGrid", slice]:
        """Aligned sub-grid covering ``[lo, hi]`` and the index slice into self."""
        i0 = int(np.floor((lo - self.nu_min) / self.bin_width + 1e-9))
        i1 = int(np.ceil((hi - self.nu_min) / self.bin_width - 1e-9))
        i0 = max(i0, 0)
        i1 = min(i1, self.n_bins)
        sub = FrequencyGrid(nu_min=self.nu_min + i0 * self.bin_width,
                            bin_width=self.bin_width, n_bins=i1 - i0)
        return sub, slice(i0, i1)


def make_grid(nu_min: float, nu_max: float, bin_width: float) -> FrequencyGrid:
    """Build a uniform detuning grid.

    Parameters
    ----------
    nu_min, nu_max : float
        Window edges in Hz (detuning relative to line centre).
    bin_width : float
        Bin width in Hz.

    Raises
    ------
    InvalidRange
        If an edge or the bin width is not finite, the window is empty or
        the bin width not positive.
    TooManyBins
        If more than ``MAX_BINS`` bins would be needed.
    """
    if not all(map(math.isfinite, (nu_min, nu_max, bin_width))):
        raise InvalidRange(f"grid values must be finite, got {nu_min}, {nu_max}, {bin_width}")
    if not (nu_min < nu_max):
        raise InvalidRange(f"nu_min={nu_min} must be below nu_max={nu_max}")
    if bin_width <= 0:
        raise InvalidRange(f"bin_width must be > 0, got {bin_width}")
    n = int(round((nu_max - nu_min) / bin_width))
    return FrequencyGrid(nu_min=nu_min, bin_width=bin_width, n_bins=n)


# ---------------------------------------------------------------------------
# Material parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialParams:
    """Static material and environment parameters (SI units).

    Attributes
    ----------
    g_factor : float
        Effective electronic g-factor of the ground doublet.
    t1_opt : float
        Population lifetime of the optically excited level (s).
    t_short : float
        Lifetime of the superhyperfine shelf (s).
    alpha_ff : float
        Scaling coefficient of the spin flip-flop rate model (s^-2).
    gamma_spin_static : float
        Static spin inhomogeneous broadening (Hz).
    gamma_spin_slope : float
        Field-dependent spin inhomogeneous broadening (Hz/T).
    gamma_h_fwhm : float
        Homogeneous optical linewidth FWHM (Hz).  Not resolved
        experimentally; any value well below the pit width reproduces the
        observed hole shapes.  The default is kept small enough that the
        Lorentzian pump wings of saturated comb pits do not erode the teeth
        between them.
    shf_fwhm : float
        FWHM of the Gaussian absorption smear of the superhyperfine shelf (Hz).
    beta_zeeman, beta_shf : float
        Branching fractions of an excited-state decay into the Zeeman and
        superhyperfine shelves.  The remainder returns to the pumped level.
    peak_od : float
        Optical depth of the unburned line at full ground population.
    temperature : float
        Sample temperature (K).
    b_field : float
        Applied magnetic field (T).
    pump_xsec : float
        Pump-rate coefficient: peak stimulated rate R = pump_xsec * (power /
        width) for a spectral feature, i.e. s^-1 per W/Hz of power spectral
        density.  Absolute pump power at the waveguide is not known, so this
        single scale is calibrated so that a 25 MHz pit at reference power
        burns a hole of comparable width without excessive power broadening.
    """

    g_factor: float = 15.13
    t1_opt: float = 2.1e-3
    t_short: float = 0.06
    alpha_ff: float = 1e9
    gamma_spin_static: float = 0.4e9
    gamma_spin_slope: float = 14.5e9
    gamma_h_fwhm: float = 1e5
    shf_fwhm: float = 50e6
    beta_zeeman: float = 0.4
    beta_shf: float = 0.1
    peak_od: float = 2.0
    temperature: float = 0.7
    b_field: float = 0.3
    pump_xsec: float = 6.0e14

    def __post_init__(self):
        # nan passes every comparison below, so it is refused first
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise NonPositiveInput(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("t1_opt", "t_short", "alpha_ff", "gamma_h_fwhm",
                     "shf_fwhm", "peak_od", "pump_xsec"):
            if getattr(self, name) <= 0:
                raise NonPositiveInput(f"{name} must be > 0")
        if self.gamma_spin_static < 0 or self.gamma_spin_slope < 0:
            raise NonPositiveInput("spin broadening terms must be >= 0")
        if self.temperature <= 0:
            raise NonPositiveTemperature(f"temperature={self.temperature}")
        if self.b_field < 0:
            raise NegativeField(f"b_field={self.b_field}")
        if self.beta_zeeman < 0 or self.beta_shf < 0 \
                or self.beta_zeeman + self.beta_shf > 1:
            raise NonPositiveInput(
                "branching fractions must satisfy 0 <= beta_zeeman + beta_shf <= 1")

    def with_(self, **kwargs) -> "MaterialParams":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# Closed-form level-structure quantities
# ---------------------------------------------------------------------------

def zeeman_splitting(b_field: float, g_factor: float) -> float:
    """Electronic Zeeman splitting g * mu_B * B / h in Hz."""
    if np.any(np.asarray(b_field) < 0):
        raise NegativeField(f"b_field={b_field}")
    return g_factor * MU_B * b_field / PLANCK_H


def spin_inhom_width(b_field: float, gamma_static: float, gamma_slope: float) -> float:
    """Spin inhomogeneous broadening: static term plus linear field term (Hz)."""
    if np.any(np.asarray(b_field) < 0):
        raise NegativeField(f"b_field={b_field}")
    if gamma_static < 0 or gamma_slope < 0:
        raise NonPositiveInput("broadening terms must be >= 0")
    return gamma_static + gamma_slope * b_field


def boltzmann_polarization(b_field: float, temperature: float, g_factor: float) -> float:
    """Thermal spin polarisation tanh(g mu_B B / (2 k_B T)).

    Equilibrium populations of the two Zeeman sub-levels are ``(1 + p) / 2``
    (lower) and ``(1 - p) / 2`` (upper).
    """
    if temperature <= 0:
        raise NonPositiveTemperature(f"temperature={temperature}")
    if np.any(np.asarray(b_field) < 0):
        raise NegativeField(f"b_field={b_field}")
    return np.tanh(g_factor * MU_B * b_field / (2.0 * K_B * temperature))


# ---------------------------------------------------------------------------
# Ensemble state
# ---------------------------------------------------------------------------

def check_populations(weight: np.ndarray, levels) -> None:
    """Raise :class:`NonPositiveInput` unless ``weight >= 0`` and the four
    level arrays ``levels = (n_g, n_z, n_h, n_e)`` are finite, lie in [0, 1]
    and sum to 1 per bin, each within ``CONSERVATION_ATOL``.  The level
    arrays may hold a stack of states along leading axes; ``weight``
    broadcasts against them.
    """
    if np.any(weight < 0):
        raise NonPositiveInput("weight must be >= 0 everywhere")
    for arr in levels:
        if not np.all(np.isfinite(arr)):
            raise NonPositiveInput("populations must be finite")
        if np.any(arr < -CONSERVATION_ATOL) or np.any(arr > 1 + CONSERVATION_ATOL):
            raise NonPositiveInput("populations must lie in [0, 1]")
    n_g, n_z, n_h, n_e = levels
    drift = np.max(np.abs(n_g + n_z + n_h + n_e - 1.0))
    if drift > CONSERVATION_ATOL:
        raise NonPositiveInput(f"class conservation violated by {drift:.3e}")


@dataclass
class EnsembleState:
    """Per-bin populations of the four levels over the simulated window.

    ``weight`` is the optical-depth weight G per bin; populations are
    fractions of each bin's ion class and satisfy
    ``n_g + n_z + n_h + n_e == 1`` per bin.
    """

    grid: FrequencyGrid
    weight: np.ndarray
    n_g: np.ndarray
    n_z: np.ndarray
    n_h: np.ndarray
    n_e: np.ndarray

    def __post_init__(self):
        n = self.grid.n_bins
        for name in ("weight", "n_g", "n_z", "n_h", "n_e"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise InvalidRange(f"{name} must have shape ({n},), got {arr.shape}")
            object.__setattr__(self, name, arr)
        self.validate()

    def validate(self) -> None:
        """Check class conservation, population ranges and weight positivity."""
        check_populations(self.weight, (self.n_g, self.n_z, self.n_h, self.n_e))


def init_equilibrium_state(grid: FrequencyGrid, params: MaterialParams) -> EnsembleState:
    """Thermal-equilibrium state before any burning.

    The inhomogeneous profile is flat at ``params.peak_od`` (the simulated
    window is small compared with the full line).
    """
    n = grid.n_bins
    weight = np.full(n, params.peak_od, dtype=float)
    p = boltzmann_polarization(params.b_field, params.temperature, params.g_factor)
    n_g = np.full(n, (1.0 + p) / 2.0)
    n_z = np.full(n, (1.0 - p) / 2.0)
    zeros = np.zeros(n)
    return EnsembleState(grid=grid, weight=weight, n_g=n_g, n_z=n_z,
                         n_h=zeros.copy(), n_e=zeros.copy())


# ---------------------------------------------------------------------------
# Absorption spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsorptionSpectrum:
    """Optical depth versus detuning on a frequency grid."""

    grid: FrequencyGrid
    od: np.ndarray

    def __post_init__(self):
        od = np.asarray(self.od, dtype=float)
        if od.shape != (self.grid.n_bins,):
            raise InvalidRange(
                f"od must have shape ({self.grid.n_bins},), got {od.shape}")
        if not np.all(np.isfinite(od)):
            raise NonPositiveInput("optical depth must be finite")
        if np.any(od < 0):
            raise NonPositiveInput("optical depth must be >= 0")
        object.__setattr__(self, "od", od)

    def to_csv(self) -> str:
        """CSV text with header ``detuning_hz,od`` (LF line endings)."""
        lines = ["detuning_hz,od"]
        for nu, od in zip(self.grid.centers, self.od):
            lines.append(f"{nu:.6f},{od:.12g}")
        return "\n".join(lines) + "\n"


def _next_fast_len(n: int) -> int:
    """The least ``2^a 3^b 5^c >= n`` for ``n >= 1``: the real FFT lengths
    pocketfft transforms fastest (``scipy.fft.next_fast_len(n, real=True)``)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of 2 that takes it to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_padded(values: np.ndarray, kernel: np.ndarray, pad_mode: str) -> np.ndarray:
    """Convolve every row of ``values`` (along its last axis, ``n`` bins)
    with a centred kernel of ``2n - 1`` taps, one per grid offset, as if each
    row were padded by ``n - 1`` bins on both sides with ``np.pad(...,
    pad_mode)``, so that every output bin sees full kernel support.

    The unpadded rows are convolved at a real FFT length of at least
    ``2n - 1``, which no wrap-around reaches for the ``n`` outputs kept.  An
    ``"edge"`` pad repeats a row's end values, and its contribution is added
    in closed form: output ``i`` gets the first value times the kernel's
    taps above ``n - 1 + i`` and the last value times its first ``i`` taps.
    A ``"constant"`` pad is zero and adds nothing.  A stack and each of its
    rows alone use the same length, and numpy's pocketfft gives the same
    bits per row of a batched transform as for the row alone, so every row
    equals its single-row call bit for bit.
    """
    n = values.shape[-1]
    if kernel.size != 2 * n - 1:
        raise InvalidRange(f"kernel must have {2 * n - 1} taps for {n} bins, got {kernel.size}")
    size = _next_fast_len(2 * n - 1)
    out = np.fft.irfft(np.fft.rfft(values, size) * np.fft.rfft(kernel, size),
                       size)[..., n - 1:2 * n - 1]
    if pad_mode == "edge":
        out[..., :-1] += values[..., :1] * np.cumsum(kernel[:n - 1:-1])[::-1]
        out[..., 1:] += values[..., -1:] * np.cumsum(kernel[:n - 1])
    return out


def _lorentzian_kernel(n: int, bin_width: float, fwhm: float) -> np.ndarray:
    """Discrete unit-sum Lorentzian kernel over all grid offsets."""
    offsets = np.arange(-(n - 1), n) * bin_width
    half = fwhm / 2.0
    kern = half / (offsets ** 2 + half ** 2)
    return kern / kern.sum()


def _gaussian_kernel(n: int, bin_width: float, fwhm: float) -> np.ndarray:
    """Discrete unit-sum Gaussian kernel over all grid offsets."""
    offsets = np.arange(-(n - 1), n) * bin_width
    sigma = fwhm / np.sqrt(8.0 * np.log(2.0))
    kern = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kern / kern.sum()


def _antihole_kernel(n: int, bin_width: float, fwhm: float, shift: float) -> np.ndarray:
    """Gaussian kernel displaced by ``shift``; analytically normalised so that
    total displaced absorption is conserved whether or not it lands in-window."""
    offsets = np.arange(-(n - 1), n) * bin_width
    sigma = max(fwhm, bin_width) / np.sqrt(8.0 * np.log(2.0))
    arg = (offsets - shift) / sigma
    small = np.abs(arg) < 40.0  # avoid exp underflow work
    kern = np.zeros_like(offsets)
    kern[small] = np.exp(-0.5 * arg[small] ** 2)
    return kern * (bin_width / (sigma * np.sqrt(2.0 * np.pi)))


def _optical_depth(grid: FrequencyGrid, weight: np.ndarray, pops: np.ndarray,
                   params: MaterialParams) -> np.ndarray:
    """Optical depth of a stack of states, one row per state.

    ``pops`` is a ``(n_states, n_bins, 4)`` stack of the levels (g, z, h, e)
    on ``grid``, all with the OD weights ``weight``.  Each kernel and its
    transform are built once for the whole stack, and each level is
    convolved in one batched call.  A level term is added only to the rows
    where that level holds population, so every row is bit-identical to the
    one-state spectrum.
    """
    n = grid.n_bins
    dn = grid.bin_width

    od = _convolve_padded(weight * pops[..., 0],
                          _lorentzian_kernel(n, dn, params.gamma_h_fwhm), "edge")

    shelved = (pops[..., 2] > 0).any(axis=1)
    if shelved.any():
        od[shelved] += _convolve_padded(weight * pops[shelved, :, 2],
                                        _gaussian_kernel(n, dn, params.shf_fwhm), "edge")

    flipped = (pops[..., 1] > 0).any(axis=1)
    if flipped.any():
        shift = zeeman_splitting(params.b_field, params.g_factor)
        width = spin_inhom_width(params.b_field, params.gamma_spin_static,
                                 params.gamma_spin_slope)
        sigma = max(width, dn) / np.sqrt(8.0 * np.log(2.0))
        # skip when the displaced kernel cannot reach the window at all
        if shift - 8.0 * sigma < grid.span:
            kern = _antihole_kernel(n, dn, width, shift)
            if kern.max() > 0:
                od[flipped] += _convolve_padded(weight * pops[flipped, :, 1], kern, "constant")

    np.maximum(od, 0.0, out=od)
    return od


def absorption_spectrum(state: EnsembleState, params: MaterialParams) -> AbsorptionSpectrum:
    """Optical depth of the current state.

    The active ground population absorbs at its own bin, broadened by the
    homogeneous Lorentzian.  Population in the superhyperfine shelf absorbs
    as a broad Gaussian smear around its bin.  Population in the other Zeeman
    sub-level absorbs displaced by the Zeeman splitting with a Gaussian
    spread given by the spin inhomogeneous broadening; only population inside
    the simulated window contributes, so absorption displaced beyond the
    window simply leaves it.  Excited population does not absorb.

    This is the one-state case of the stacked optical depth that the hole
    decays of :mod:`readout` take over all of a field's delays at once; each
    of its rows equals this spectrum of that row's state bit for bit.
    """
    pops = np.stack((state.n_g, state.n_z, state.n_h, state.n_e), axis=-1)
    od = _optical_depth(state.grid, state.weight, pops[None], params)
    return AbsorptionSpectrum(grid=state.grid, od=od[0])
