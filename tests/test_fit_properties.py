"""Properties of fit_curve on curves its model cannot match: a Gaussian or
Voigt dip under the sloped-Lorentzian hole model, and a double exponential
on an offset.  Such large-residual fits are where a Gauss-Newton step
mispredicts, so they are where an ending short of the optimum would show."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import voigt_profile

import afcsim as a
from afcsim.errors import AfcSimError
from afcsim.readout import _sloped_dip_model

NAMED_STOPS = {"exact", "gtol", "xtol", "stall", "no_progress", "max_damping"}
RESTART_MOVE = 1e-4  # sigma


def fit_or_error(model, x, y, sigma=None, init=None, bounds=None):
    """The fit, or the library error it raised; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return a.fit_curve(model, x, y, sigma=sigma, init=init, bounds=bounds)
        except AfcSimError as exc:
            return exc


def check_fit(model, x, y, sigma=None, init=None, bounds=None):
    res = fit_or_error(model, x, y, sigma, init, bounds)
    if isinstance(res, AfcSimError):
        return
    assert res.stop_reason in NAMED_STOPS or res.stop_reason.startswith("lost_influence:")
    if not res.converged:
        return
    again = fit_or_error(model, x, y, sigma, res.params, bounds)
    assert not isinstance(again, AfcSimError), again
    move = np.abs(again.params - res.params) / res.std_errors
    assert np.max(move) <= RESTART_MOVE, (res.stop_reason, move)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(shape=st.sampled_from(["gauss", "voigt"]),
       depth=st.floats(0.05, 2.0), width=st.floats(0.3, 1.5),
       per_width=st.floats(3.0, 12.0), lorentz_frac=st.floats(0.05, 1.0),
       center=st.floats(-0.5, 0.5), slope=st.floats(-0.05, 0.05),
       noise=st.sampled_from([0.0, 1e-3, 1e-2]), seed=st.integers(0, 2 ** 16))
def test_non_lorentzian_dip_under_the_hole_model(shape, depth, width, per_width, lorentz_frac,
                                                 center, slope, noise, seed):
    # ``width`` is the FWHM of the Gaussian part, sampled ``per_width`` times.
    # A dip under about three samples wide has no line shape to fit: the
    # Lorentzian runs to its FWHM bound or off the dip, and stall or
    # no_progress can then end it, flagged converged, short of its optimum.
    n = max(25, int(8.0 * per_width / width) + 1)
    x = np.linspace(-4.0, 4.0, n)
    g_sigma = width / 2.355
    if shape == "gauss":
        dip = np.exp(-0.5 * ((x - center) / g_sigma) ** 2)
    else:
        profile = voigt_profile(x - center, g_sigma, lorentz_frac * g_sigma)
        dip = profile / voigt_profile(0.0, g_sigma, lorentz_frac * g_sigma)
    y = 1.0 + slope * x - depth * dip
    y = y + noise * np.random.default_rng(seed).standard_normal(n)
    bounds = (np.array([-np.inf, -np.inf, -np.inf, -4.0, 1e-2]),
              np.array([np.inf, np.inf, np.inf, 4.0, 32.0]))
    # started like readout.measure_hole: at the lowest sample, under the
    # upper-quantile baseline
    i_min = int(np.argmin(y))
    base = float(np.percentile(y, 85.0))
    init = np.array([base, 0.0, base - y[i_min], x[i_min], width])
    check_fit(_sloped_dip_model(0.0), x, y, sigma=max(noise, 1e-3),
              init=init, bounds=bounds)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(a_short=st.floats(0.1, 1.0), t_short=st.floats(0.01, 0.1),
       a_long=st.floats(0.1, 1.0), ratio=st.floats(3.0, 50.0),
       offset=st.floats(0.0, 0.3), n=st.integers(12, 40))
def test_double_exponential_on_an_offset(a_short, t_short, a_long, ratio, offset, n):
    t = np.geomspace(1e-3, 5.0, n)
    y = a_short * np.exp(-t / t_short) + a_long * np.exp(-t / (ratio * t_short)) + offset
    check_fit(a.model_double_exponential(), t, y, sigma=np.full(n, 1e-2))
