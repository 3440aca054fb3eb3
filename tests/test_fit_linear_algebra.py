"""The inner workings of a fit_curve iteration: the transforms' chain rules
for the Jacobian and the residual curvature, the damped LAPACK solve, and
what a Jacobian that turns non-finite mid-fit does to the result."""

import dataclasses
import warnings

import numpy as np
import pytest

import afcsim as a
from afcsim.errors import SingularJacobian
from afcsim.fitting import LogTransform, ParamTransform, ParametricModel, _solve


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
        self.hess_calls = 0

    def to_internal(self, external):
        return self._log.to_internal(external)

    def to_external(self, internal):
        return self._log.to_external(internal)

    def jac_external(self, internal):
        return self._log.jac_external(internal)

    def hess_external(self, weights, internal):
        self.hess_calls += 1
        return self._log.hess_external(weights, internal)


class GenericIdentity(ParamTransform):
    """The identity's maps only, so the chain rule takes the base-class matmul."""

    hess_calls = 0

    def to_internal(self, external):
        return np.asarray(external, dtype=float).copy()

    def to_external(self, internal):
        return np.asarray(internal, dtype=float).copy()

    def jac_external(self, internal):
        return np.eye(len(internal))

    def hess_external(self, weights, internal):
        self.hess_calls += 1
        return ParamTransform().hess_external(weights, internal)


def noisy_dips(n_seeds=6):
    model = a.model_lorentzian_dip()
    x = np.linspace(-20.0, 20.0, 81)
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        truth = np.array([2.0, rng.uniform(0.5, 1.5), rng.uniform(-3, 3), rng.uniform(2, 8)])
        y = model.evaluate(truth, x) + 0.02 * rng.standard_normal(x.size)
        yield x, y, np.array([1.9, 1.0, 0.0, 5.0])


def gaussian_dip():
    """The Gaussian dip of test_fit_properties' ``@example``, started as
    there: a large-residual fit, so the curvature term switches on."""
    n = int(8.0 * 9.0 / 0.3125) + 1
    x = np.linspace(-4.0, 4.0, n)
    y = 1.0 - 2.0 * np.exp(-0.5 * (x / (0.3125 / 2.355)) ** 2)
    y = y + 1e-3 * np.random.default_rng(18).standard_normal(n)
    i_min = int(np.argmin(y))
    base = float(np.percentile(y, 85.0))
    init = np.array([base, 0.0, base - y[i_min], x[i_min], 0.3125])
    bounds = (np.array([-np.inf, -np.inf, -np.inf, -4.0, 1e-2]),
              np.array([np.inf, np.inf, np.inf, 4.0, 32.0]))
    return dict(x=x, y=y, sigma=1e-3, init=init, bounds=bounds)


class TestChainRuleRoutes:
    """LogTransform and the identity scale Jacobian columns and curvature
    entries instead of multiplying by jac_external; every FitResult field must
    come out the same.  The noisy dips are small-residual fits that never
    switch the curvature on; the Gaussian dip switches it on."""

    def test_log_transform_matches_generic_route(self):
        dip = a.model_lorentzian_dip()
        generic = dataclasses.replace(dip, transform=GenericLog(dip.transform.log_mask))
        for x, y, init in noisy_dips():
            assert_same_fit(a.fit_curve(dip, x, y, sigma=0.02, init=init),
                            a.fit_curve(generic, x, y, sigma=0.02, init=init))

        hole = a.model_lorentzian_dip(2)
        generic = dataclasses.replace(hole, transform=GenericLog(hole.transform.log_mask))
        assert_same_fit(a.fit_curve(hole, **gaussian_dip()),
                        a.fit_curve(generic, **gaussian_dip()))
        assert generic.transform.hess_calls > 0

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

        hole = a.model_lorentzian_dip(2)
        identity = dataclasses.replace(hole, transform=ParamTransform())
        generic = dataclasses.replace(hole, transform=GenericIdentity())
        assert_same_fit(a.fit_curve(identity, **gaussian_dip()),
                        a.fit_curve(generic, **gaussian_dip()))
        assert generic.transform.hess_calls > 0


class TestDampedStep:
    def test_solves_the_damped_normal_equations(self):
        rng = np.random.default_rng(5)
        for n_par in (1, 3, 5):
            jac = rng.standard_normal((30, n_par))
            a_mat = jac.T @ jac
            scale = np.maximum(np.diag(a_mat), 1e-300)
            damped = a_mat + 1e-3 * np.diag(scale)
            kept = damped.copy()
            grad = jac.T @ rng.standard_normal(30)
            want = np.linalg.solve(damped, -grad)
            delta, singular = _solve(damped, -grad)
            np.testing.assert_allclose(delta, want, rtol=1e-12)
            assert singular is None
            assert np.array_equal(damped, kept)

    def test_singular_system_is_reported(self):
        # two identical columns and no damping: the matrix has an exact zero pivot
        delta, singular = _solve(np.ones((2, 2)), -np.ones(2))
        assert singular and np.array_equal(delta, np.zeros(2))
        # in a stack, only that system is singular, and the others are solved
        # as they are alone
        stack = np.stack([np.eye(2), np.ones((2, 2)), 2.0 * np.eye(2)])
        rhs = np.ones((3, 2))
        delta, singular = _solve(stack, rhs)
        assert singular.tolist() == [False, True, False]
        assert np.array_equal(delta, [[1.0, 1.0], [0.0, 0.0], [0.5, 0.5]])

    def test_singular_damped_system_ends_a_fit_as_it_ends_a_batch_row(self):
        # a residual curvature of 2^1000 in every entry swallows J^T J and the
        # damping in rounding, so once the curvature switches on, the damped
        # matrix is exactly singular
        hole = a.model_lorentzian_dip(2)
        model = dataclasses.replace(
            hole, transform=ParamTransform(),
            curvature=lambda p, x, w: np.full(np.shape(p)[:-1] + (5, 5), 2.0 ** 1000))
        dip = gaussian_dip()
        with pytest.raises(SingularJacobian, match="Singular matrix"):
            a.fit_curve(model, **dip)
        # beside a row that is still running when it turns singular
        other = hole.evaluate(np.array([1.0, 0.01, 1.5, 0.3, 0.8]), dip["x"])
        other += 1e-3 * np.random.default_rng(1).standard_normal(other.size)
        other_init = np.array([1.0, 0.0, 1.4, 0.2, 1.0])
        alone = a.fit_curve(model, dip["x"], other, sigma=dip["sigma"], init=other_init,
                            bounds=dip["bounds"])
        assert alone.iterations >= 4
        rows = a.fit_curves(model, dip["x"], np.stack([dip["y"], other]), sigma=dip["sigma"],
                            init=np.stack([dip["init"], other_init]), bounds=dip["bounds"])
        assert type(rows[0]) is SingularJacobian and str(rows[0]) == "Singular matrix"
        assert_same_fit(rows[1], alone)

    def test_subnormal_gram_matrix_leaves_its_parameters_open_without_warning(self):
        # two equal Jacobian columns of norm ~1e-160: J^T J is singular and
        # subnormal, so its pseudo-inverse overflows
        x = np.linspace(0.0, 1.0, 20)
        model = ParametricModel(param_names=("s", "t"),
                                evaluate=lambda p, x: (p[0] + p[1]) * 1e-161 * x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = a.fit_curve(model, x, np.sin(3.0 * x) + 0.5 * x, init=[1.0, 1.0])
        assert res.stop_reason == "max_damping" and not res.converged
        assert np.all(np.isinf(res.std_errors))
        assert np.all(np.isinf(np.diag(res.covariance)))
        assert np.all(np.isnan(res.covariance[[0, 1], [1, 0]]))

    def test_empty_system_has_an_empty_solution(self):
        for a_mat in (np.empty((0, 0)), np.empty((3, 0, 0))):
            x, singular = _solve(a_mat, np.broadcast_to(np.eye(0), a_mat.shape))
            assert x.shape == a_mat.shape and singular is None


def decay(bad=None, clean_calls=1):
    """One exponential; with ``bad``, one Jacobian entry turns to ``bad``
    after ``clean_calls`` calls (1: at the first accepted point).  ``bad``
    may instead map entries to the values they turn to."""
    calls = []
    entries = bad if isinstance(bad, dict) else {} if bad is None else {(3, 1): bad}

    def jacobian(p, x):
        calls.append(p)
        e = np.exp(-x / p[1])
        jac = np.stack([e, p[0] * x / p[1] ** 2 * e], axis=1)
        if len(calls) > clean_calls:
            for at, value in entries.items():
                jac[at] = value
        return jac

    return ParametricModel(param_names=("amp", "tau"),
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

    @pytest.mark.parametrize("bad", [
        np.nan, np.inf, -np.inf,
        # beside d/dtau = 0 at x = 0, so J^T J would hold inf * 0
        pytest.param({(0, 0): np.inf}, id="inf_beside_zero"),
        pytest.param({(3, 1): np.inf, (4, 1): -np.inf}, id="opposite_infs"),
    ])
    def test_after_a_step_warns_nothing_and_leaves_every_error_open(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = a.fit_curve(decay(bad), self.x, self.y, init=[1.0, 1.0])
        assert res.stop_reason == "max_damping"
        assert np.all(np.isinf(res.std_errors))
