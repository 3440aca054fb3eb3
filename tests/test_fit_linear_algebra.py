"""The inner workings of a fit_curve iteration: the transforms' chain rule,
the damped LAPACK solve, and what a Jacobian that turns non-finite mid-fit
does to the result."""

import dataclasses
import warnings

import numpy as np
import pytest

import afcsim as a
from afcsim.errors import SingularJacobian
from afcsim.fitting import LogTransform, ParamTransform, ParametricModel, _damped_step


def assert_same_fit(got, want):
    """Every FitResult field exactly equal (NaN where the other has NaN)."""
    for name in ("params", "std_errors", "covariance", "residual_norm", "residual_trace"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    for name in ("param_names", "iterations", "converged", "stop_reason"):
        assert getattr(got, name) == getattr(want, name), name


class GenericLog(ParamTransform):
    """LogTransform's maps only, so the chain rule takes the base-class matmul."""

    def __init__(self, log_mask):
        self._log = LogTransform(log_mask)

    def to_internal(self, external):
        return self._log.to_internal(external)

    def to_external(self, internal):
        return self._log.to_external(internal)

    def jac_external(self, internal):
        return self._log.jac_external(internal)


class GenericIdentity(ParamTransform):
    """The identity's maps only, so the chain rule takes the base-class matmul."""

    def to_internal(self, external):
        return np.asarray(external, dtype=float).copy()

    def to_external(self, internal):
        return np.asarray(internal, dtype=float).copy()

    def jac_external(self, internal):
        return np.eye(len(internal))


def noisy_dips(n_seeds=6):
    model = a.model_lorentzian_dip()
    x = np.linspace(-20.0, 20.0, 81)
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        truth = np.array([2.0, rng.uniform(0.5, 1.5), rng.uniform(-3, 3), rng.uniform(2, 8)])
        y = model.evaluate(truth, x) + 0.02 * rng.standard_normal(x.size)
        yield x, y, np.array([1.9, 1.0, 0.0, 5.0])


class TestChainRuleRoutes:
    """LogTransform and the identity scale Jacobian columns instead of
    multiplying by jac_external; every FitResult field must come out the same."""

    def test_log_transform_matches_generic_route(self):
        dip = a.model_lorentzian_dip()
        generic = dataclasses.replace(dip, transform=GenericLog(dip.transform.log_mask))
        for x, y, init in noisy_dips():
            assert_same_fit(a.fit_curve(dip, x, y, sigma=0.02, init=init),
                            a.fit_curve(generic, x, y, sigma=0.02, init=init))

        ff = a.model_flipflop_field()
        generic = dataclasses.replace(ff, transform=GenericLog([True, True]))
        b = np.array([0.035, 0.06, 0.08])
        rates = np.array([1 / 1.00, 1 / 1.36, 1 / 2.44])
        assert_same_fit(a.fit_curve(ff, b, rates), a.fit_curve(generic, b, rates))

    def test_identity_matches_generic_route(self):
        dip = a.model_lorentzian_dip()
        identity = dataclasses.replace(dip, transform=ParamTransform())
        generic = dataclasses.replace(dip, transform=GenericIdentity())
        for x, y, init in noisy_dips():
            assert_same_fit(a.fit_curve(identity, x, y, sigma=0.02, init=init),
                            a.fit_curve(generic, x, y, sigma=0.02, init=init))


class TestDampedStep:
    def test_solves_the_damped_normal_equations(self):
        rng = np.random.default_rng(5)
        for n_par in (1, 3, 5):
            jac = rng.standard_normal((30, n_par))
            a_mat = jac.T @ jac
            kept = a_mat.copy()
            scale = np.maximum(np.diag(a_mat), 1e-300)
            grad = jac.T @ rng.standard_normal(30)
            want = np.linalg.solve(a_mat + 1e-3 * np.diag(scale), -grad)
            np.testing.assert_allclose(_damped_step(a_mat, scale, 1e-3, grad), want,
                                       rtol=1e-12)
            assert np.array_equal(a_mat, kept)

    def test_singular_system_raises(self):
        # two identical columns and no damping: the matrix has an exact zero pivot
        with pytest.raises(SingularJacobian):
            _damped_step(np.ones((2, 2)), np.ones(2), 0.0, np.ones(2))


def decay(bad=None, clean_calls=1):
    """One exponential; with ``bad``, one Jacobian entry turns to ``bad``
    after ``clean_calls`` calls (1: at the first accepted point)."""
    calls = []

    def jacobian(p, x):
        calls.append(p)
        e = np.exp(-x / p[1])
        jac = np.stack([e, p[0] * x / p[1] ** 2 * e], axis=1)
        if bad is not None and len(calls) > clean_calls:
            jac[3, 1] = bad
        return jac

    return ParametricModel(name="decay", param_names=("amp", "tau"), units=("", "s"),
                           evaluate=lambda p, x: p[0] * np.exp(-x / p[1]),
                           jacobian=jacobian)


class TestNonFiniteJacobian:
    x = np.linspace(0.0, 3.0, 20)
    y = 2.0 * np.exp(-x / 0.7) + 0.01 * np.sin(7 * x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_at_the_start_raises(self, bad):
        with pytest.raises(SingularJacobian, match="non-finite"):
            a.fit_curve(decay(bad, clean_calls=0), self.x, self.y, init=[1.0, 1.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_after_a_step_stops_at_that_point(self, bad):
        clean = a.fit_curve(decay(), self.x, self.y, init=[1.0, 1.0])
        res = a.fit_curve(decay(bad), self.x, self.y, init=[1.0, 1.0])
        # no step from a non-finite Jacobian goes downhill
        assert res.stop_reason == "max_damping"
        assert not res.converged
        assert res.iterations == 2
        assert res.residual_trace == clean.residual_trace[:2]
        assert np.all(np.isfinite(res.params))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_after_a_step_warns_nothing_and_leaves_every_error_open(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = a.fit_curve(decay(bad), self.x, self.y, init=[1.0, 1.0])
        assert res.stop_reason == "max_damping"
        assert np.all(np.isinf(res.std_errors))
