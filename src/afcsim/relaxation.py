"""Closed-form relaxation and broadening models.

Covers the field/temperature dependence of the spin flip-flop lifetime, the
instantaneous-spectral-diffusion (ISD) estimate, and the phenomenological
two-level-system (TLS) hole-filling rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import K_B, MU_B, MaterialParams
from .errors import (
    DegenerateModel,
    NegativeField,
    NonPositiveInput,
    NonPositiveTemperature,
)


@dataclass(frozen=True)
class TlsParams:
    """Coefficients of the phenomenological TLS interaction.

    Laser light excites two-level systems of the host matrix; their decay
    emits phonons that flip erbium spins.  The host absorbs a fixed small
    fraction of whatever power is coupled into the waveguide (unlike the
    erbium line, it cannot be burned transparent), so both channels are
    linear in the incident pump power with the absorbed fraction folded
    into the coefficients:

    * ``kappa_fill``  rate (s^-1 per W of pump power) at which the
      ground-state population grating relaxes towards thermal equilibrium,
    * ``kappa_diff``  spectral-diffusion coefficient (Hz^2 per J of pump
      energy): population structures are convolved with a Gaussian whose
      variance grows accordingly.

    Both default to values calibrated against the pump-probe observations
    (probe-hole depth drops threefold and its width grows by about 5 MHz
    over the pump-power range); see ``experiments.calibrate_tls``.
    """

    kappa_fill: float = 7.47e4
    kappa_diff: float = 1.236e19

    def __post_init__(self):
        for name in ("kappa_fill", "kappa_diff"):
            if not 0 <= getattr(self, name) < math.inf:
                raise NonPositiveInput(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    @classmethod
    def disabled(cls) -> "TlsParams":
        """TLS mechanism switched off."""
        return cls(kappa_fill=0.0, kappa_diff=0.0)


def flipflop_lifetime(b_field: float, temperature: float, params: MaterialParams) -> float:
    """Population lifetime of the Zeeman grating set by spin flip-flops.

    The flip-flop rate falls with increasing field both through spin
    polarisation (the sech^2 factor) and through growing spin inhomogeneous
    broadening, which makes neighbouring spins less likely to be resonant:

        1 / t_long = alpha / (Gamma_s + gamma_s B) * sech^2(g mu_B B / 2 k T)

    Returns the lifetime ``t_long`` in seconds.
    """
    if temperature <= 0:
        raise NonPositiveTemperature(f"temperature={temperature}")
    if np.any(np.asarray(b_field) < 0):
        raise NegativeField(f"b_field={b_field}")
    width = params.gamma_spin_static + params.gamma_spin_slope * b_field
    if np.any(np.asarray(width) <= 0):
        raise DegenerateModel("spin inhomogeneous width is zero")
    x = params.g_factor * MU_B * b_field / (2.0 * K_B * temperature)
    rate = params.alpha_ff / width / np.cosh(x) ** 2
    return 1.0 / rate


def isd_broadening(excited_density: float, c_isd: float) -> float:
    """Spectral broadening from instantaneous spectral diffusion (Hz).

    Linear in the excited-ion density (cm^-3) with coefficient ``c_isd``
    (Hz cm^3 per excited ion).
    """
    if excited_density < 0 or c_isd < 0:
        raise NonPositiveInput("excited_density and c_isd must be >= 0")
    return c_isd * excited_density


def tls_fill_rate(absorbed_power: float, tls: TlsParams) -> float:
    """Instantaneous relaxation rate (s^-1) of the ground-state grating.

    ``absorbed_power`` is the pump power feeding the host TLS bath, taken
    proportional to the power coupled into the waveguide; zero in the dark.
    """
    if absorbed_power < 0:
        raise NonPositiveInput(f"absorbed_power={absorbed_power}")
    return tls.kappa_fill * absorbed_power
