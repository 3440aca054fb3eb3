"""The Gauss-Newton stop: a fit ends by ``gtol`` once the undamped
Gauss-Newton step from its point moves no parameter by more than 1e-5 of its
standard error (for chi^2 >= 1), and noiseless data still ends by ``exact``.

The step is recomputed here from the model's external Jacobian, and the fit
is restarted from its result by scipy's MINPACK Levenberg-Marquardt run to
rounding, an independent solver.  The restart may move a little further than
the Gauss-Newton step, by the residual curvature the step leaves out: up to
1.2 times on the double exponentials at chi^2 ~ 30."""

import numpy as np
import pytest
from scipy.optimize import least_squares

import afcsim as a
import afcsim.experiments as ex

STEP_MOVE = 1e-5     # sigma, the stop rule's bound
RESTART_MOVE = 2e-5  # sigma
N_CURVES = 20

PARAMS = ex.default_config().material
DELAYS = np.geomspace(0.011, 5.0, 36)
FIELDS = np.linspace(0.03, 0.1, 8)
NU = np.linspace(-4.0, 4.0, 81)


def decay(rng):
    truth = [rng.uniform(0.5, 1.5), 0.06 * rng.uniform(0.8, 1.25),
             rng.uniform(0.5, 1.5), rng.uniform(0.5, 3.0)]
    return a.model_double_exponential(), DELAYS, np.array(truth), 0.02, None


def flipflop(rng):
    model = a.model_flipflop_field(alpha=PARAMS.alpha_ff, g_factor=PARAMS.g_factor,
                                   temperature=PARAMS.temperature)
    truth = [PARAMS.gamma_spin_static * rng.uniform(0.7, 1.4),
             PARAMS.gamma_spin_slope * rng.uniform(0.7, 1.4)]
    return model, FIELDS, np.array(truth), 0.02, None


def sloped_dip(rng):
    truth = [rng.uniform(0.6, 1.0), rng.uniform(-0.05, 0.05), rng.uniform(0.15, 0.5),
             rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)]
    # started as readout starts a hole fit: at the sampled minimum, off in
    # depth and width
    truth = np.array(truth)
    start = truth * [1.0, 0.0, 0.8, 1.0, 1.3] + [0.02, 0.0, 0.0, 0.1, 0.0]
    return a.model_lorentzian_dip(2), NU, truth, None, start


def curves(make):
    """Noiseless and noisy curves with their sigmas (2% of the curve, or 0.01
    for the dip) and starting points (None for the model's guess)."""
    for seed in range(N_CURVES):
        rng = np.random.default_rng(seed)
        model, x, truth, rel, init = make(rng)
        clean = model.evaluate(truth, x)
        sigma = rel * clean if rel else np.full(x.size, 0.01)
        yield model, x, clean, clean + sigma * rng.standard_normal(x.size), sigma, init


@pytest.mark.parametrize("make", [decay, flipflop, sloped_dip])
def test_noisy_fits_stop_within_1e5_sigma_and_exact_data_by_exact(make):
    for model, x, clean, y, sigma, init in curves(make):
        assert a.fit_curve(model, x, clean, sigma=sigma, init=init).stop_reason == "exact"

        res = a.fit_curve(model, x, y, sigma=sigma, init=init)
        assert res.stop_reason == "gtol" and res.converged
        assert res.residual_norm >= 1.0

        def residual(p):
            return (model.evaluate(p, x) - y) / sigma

        def jacobian(p):
            return model.jacobian(p, x) / sigma[:, None]

        step = np.linalg.lstsq(jacobian(res.params), -residual(res.params), rcond=None)[0]
        assert np.max(np.abs(step) / res.std_errors) <= STEP_MOVE
        opt = least_squares(residual, res.params, jac=jacobian, method="lm",
                            xtol=1e-15, ftol=1e-15, gtol=1e-15, x_scale="jac")
        assert np.max(np.abs(opt.x - res.params) / res.std_errors) <= RESTART_MOVE
