"""The Fig. 2 fits end at their optimum.

The hole fits of a fig2 run are large-residual fits (the simulated holes are
not Lorentzian), where a Gauss-Newton model mispredicts every step.  Each of
them, restarted from its own result, must stay put; the lifetimes and
flip-flop rates must match reference values; and the noisy run's flip-flop
fit must end by a stop rule, not by exhausting its iteration budget."""

from dataclasses import replace

import numpy as np
import pytest

import afcsim.experiments as ex
import afcsim.readout as ro
from afcsim.fitting import fit_curve

RESTART_MOVE = 1e-4  # sigma
NAMED_STOPS = {"exact", "gtol", "xtol", "stall", "no_progress", "max_damping"}

# default config, fields 350/600/800 G, fitted with the plain Gauss-Newton
# model, which stops up to 0.1 sigma short of each hole fit's optimum
REFERENCE_T_SHORT = [0.05903539333468933, 0.058696000342972766, 0.05858225210016611]
REFERENCE_T_LONG = [0.9705819400449637, 1.527399847419477, 2.148004536140539]
REFERENCE_FLIPFLOP = {"gamma_spin_static": 405752995.25785416,
                      "gamma_spin_slope": 14421262726.72947}


def run_recording_hole_fits(config):
    """``run_fig2`` without writing, plus every hole fit as (args, result)."""
    calls = []

    def recording(model, x, y, sigma=None, init=None, bounds=None):
        res = fit_curve(model, x, y, sigma=sigma, init=init, bounds=bounds)
        calls.append(((model, x, y, sigma, bounds), res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ro, "fit_curve", recording)
        summary = ex.run_fig2(config, write=False)
    return summary, calls


@pytest.fixture(scope="module")
def default_run():
    return run_recording_hole_fits(ex.default_config())


def test_each_hole_fit_restarted_from_its_result_stays_put(default_run):
    _, calls = default_run
    assert len(calls) == 108
    for (model, x, y, sigma, bounds), res in calls:
        assert res.converged
        again = fit_curve(model, x, y, sigma=sigma, init=res.params, bounds=bounds)
        move = np.abs(again.params - res.params) / res.std_errors
        assert np.max(move) <= RESTART_MOVE, (res.stop_reason, move)


def test_lifetimes_and_flipflop_rates_match_reference(default_run):
    summary, _ = default_run
    np.testing.assert_allclose(summary["t_short_fitted_s"], REFERENCE_T_SHORT, rtol=1e-4)
    np.testing.assert_allclose(summary["t_long_fitted_s"], REFERENCE_T_LONG, rtol=1e-4)
    for name, want in REFERENCE_FLIPFLOP.items():
        assert summary["flipflop_fit"]["params"][name] == pytest.approx(want, rel=1e-4)


def test_noisy_flipflop_fit_ends_by_a_stop_rule():
    # 2% readout noise, seed 3: the three decay fits converge and the
    # flip-flop fit through their 1/t_long has a large residual
    cfg = ex.default_config()
    cfg.seed = 3
    cfg.fig2 = replace(cfg.fig2, noise_rel=0.02)
    summary, calls = run_recording_hole_fits(cfg)
    assert all(res.converged for _, res in calls)
    assert all(r["converged"] for r in summary["double_exp_fits"].values())
    assert summary["flipflop_fields_gauss"] == [350.0, 600.0, 800.0]
    assert summary["flipflop_fit"]["stop_reason"] in NAMED_STOPS
    assert summary["flipflop_fit"]["residual_norm"] == pytest.approx(0.352, abs=1e-3)
