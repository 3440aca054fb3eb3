"""Exception hierarchy for afcsim.

Every error raised by the library derives from :class:`AfcSimError` so that
callers (and the CLI) can catch simulator failures without masking genuine
programming errors.
"""


class AfcSimError(Exception):
    """Base class for all afcsim errors."""


# --- input validation -------------------------------------------------------

class InvalidRange(AfcSimError, ValueError):
    """Frequency range is empty or inverted."""


class TooManyBins(AfcSimError, ValueError):
    """Requested grid exceeds the bin-count safety limit."""


class NegativeField(AfcSimError, ValueError):
    """Magnetic field must be non-negative."""


class NonPositiveTemperature(AfcSimError, ValueError):
    """Temperature must be strictly positive."""


class NonPositiveInput(AfcSimError, ValueError):
    """Argument must be strictly positive."""


class NonPositivePower(AfcSimError, ValueError):
    """Optical power must be strictly positive."""


class NonPositiveSpacing(AfcSimError, ValueError):
    """Comb tooth spacing must be strictly positive."""


class InvalidCombGeometry(AfcSimError, ValueError):
    """Comb bandwidth/spacing/pit-width combination is inconsistent."""


class InvalidGeometry(AfcSimError, ValueError):
    """Pump feature geometry is inconsistent (e.g. overlapping holes)."""


class DegenerateModel(AfcSimError, ValueError):
    """Model parameters make the expression singular."""


class SpanOutOfGrid(AfcSimError, ValueError):
    """Requested readout span is not contained in the simulation grid."""


class InvalidBounds(AfcSimError, ValueError):
    """Fit bounds are inconsistent or exclude the initial guess."""


# --- runtime failures -------------------------------------------------------

class StepSizeUnderflow(AfcSimError, RuntimeError):
    """Integrator step size collapsed below the representable minimum."""


class NonFiniteState(AfcSimError, RuntimeError):
    """Populations became NaN or infinite during time evolution."""


class SpectrumOutsideContour(AfcSimError, RuntimeError):
    """A generator's spectrum leaves the region where the rational rule for
    exp(tA) is held accurate: within 22.8 degrees of the negative real axis,
    or within 0.5 of 0 once scaled by the interval."""


class MassDrift(AfcSimError, RuntimeError):
    """One exp(tA) interval moved a bin's total population by more than the
    conservation tolerance: the generator is too stiff over that interval
    for double precision."""


class SingularJacobian(AfcSimError, RuntimeError):
    """Fit Jacobian is rank deficient at the current point."""


class MaxIterations(AfcSimError, RuntimeError):
    """Fit did not converge within the iteration budget."""


class NoHoleFound(AfcSimError, RuntimeError):
    """No spectral hole detected near the requested position."""


class FitDiverged(AfcSimError, RuntimeError):
    """Line-shape fit failed to converge to a usable minimum."""


class NoCombDetected(AfcSimError, RuntimeError):
    """Spectrum shows no periodic comb structure at the requested spacing."""


class CalibrationFailed(AfcSimError, RuntimeError):
    """The TLS couplings cannot be set to meet the pump-probe targets."""


class UnsupportedFormat(AfcSimError, ValueError):
    """Unknown export format."""
