"""Simulation and analysis toolkit for persistent spectral hole burning and
atomic-frequency-comb preparation in erbium-doped waveguides."""

from .core import (
    AbsorptionSpectrum,
    EnsembleState,
    FrequencyGrid,
    MaterialParams,
    absorption_spectrum,
    boltzmann_polarization,
    init_equilibrium_state,
    make_grid,
    spin_inhom_width,
    zeeman_splitting,
)
from .relaxation import (
    TlsParams,
    flipflop_lifetime,
    isd_broadening,
    tls_fill_rate,
)
from .pumping import (
    PumpFeature,
    PumpSegment,
    PumpSequence,
    build_afc_sequence,
    build_hole_sequence,
    build_two_hole_sequence,
    evolve,
    pump_rate_profile,
    serrodyne_efficiency,
)
from .readout import (
    CombMetrics,
    DecayCurve,
    HoleMetrics,
    afc_efficiency,
    analyze_comb,
    hole_decay_experiment,
    measure_hole,
    simulate_readout,
    storage_time,
)
from .fitting import (
    FitResult,
    ParametricModel,
    fit_curve,
    fit_curves,
    load_curve_csv,
    model_double_exponential,
    model_flipflop_field,
    model_lorentzian_dip,
)

__version__ = "0.1.0"
