"""How fit_curve ends: every result names its stop rule, and a parameter
the data cannot pin ends the fit as not converged instead of exhausting the
iteration budget."""

import warnings

import numpy as np
import pytest

import afcsim as a
from afcsim.errors import InvalidBounds
from afcsim.fitting import ParamTransform, ParametricModel


class TestStopRules:
    def test_unpinned_lifetime_stops_with_reason(self):
        # a fast decay on a flat offset: the optimum puts t_long at infinity
        model = a.model_double_exponential()
        t = np.geomspace(0.01, 0.5, 12)
        y = 0.6 * np.exp(-t / 0.06) + 0.4
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = a.fit_curve(model, t, y, sigma=0.01)
        assert not res.converged
        assert res.stop_reason == "lost_influence:t_long"
        assert res.as_dict()["stop_reason"] == res.stop_reason
        assert np.isinf(res.error_of("t_long"))
        assert np.isfinite(res.error_of("t_short"))
        assert res["t_short"] == pytest.approx(0.06, rel=1e-3)

    def test_exact_data_stops_converged_with_reason(self):
        model = a.model_double_exponential()
        t = np.geomspace(0.01, 5, 25)
        res = a.fit_curve(model, t, model.evaluate(np.array([0.6, 0.06, 0.4, 1.0]), t))
        assert res.converged
        assert res.stop_reason in ("exact", "gtol")

    def test_trial_point_outside_transform_domain_is_rejected(self):
        class CappedTransform(ParamTransform):
            def to_internal(self, external):
                if external[0] > 1.5:
                    raise InvalidBounds("slope above 1.5")
                return super().to_internal(external)

        line = ParametricModel(
            param_names=("slope",),
            evaluate=lambda p, x: p[0] * x,
            jacobian=lambda p, x: x[:, None],
            transform=CappedTransform())
        x = np.linspace(0.0, 1.0, 10)
        res = a.fit_curve(line, x, 2.0 * x, init=np.array([1.0]))
        assert res["slope"] == pytest.approx(1.5, rel=1e-6)
        assert not res.converged
        assert res.stop_reason == "xtol"
