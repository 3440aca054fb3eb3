"""The residual curvature behind fit_curve's Newton step.

Each shipped model's ``curvature`` and each transform's chain rule are held
against central differences of the analytic Jacobian, a model without
``curvature`` must still end at its optimum on a large-residual fit, and the
Fig. 2 hole fits must show the iterations the exact term saves."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import afcsim as a
import afcsim.experiments as ex
from afcsim.fitting import (
    LogTransform,
    OrderedLifetimesTransform,
    ParametricModel,
    ParamTransform,
)

from test_fig2_fit_optimum import run_recording_hole_fits

RESTART_MOVE = 1e-4  # sigma
# central differences of an analytic Jacobian with a relative step of 1e-6
# are good to about 1e-9 of the largest entry
FD_TOL = 1e-7


def central_fd(fun, params, rel=1e-6):
    """Central differences of the vector ``fun(params)``, one column per
    parameter."""
    params = np.asarray(params, dtype=float)
    cols = []
    for i in range(params.size):
        h = rel * max(abs(params[i]), 1e-30)
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        cols.append((fun(up) - fun(dn)) / (2 * h))
    return np.stack(cols, axis=1)


def scaled_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def dip_points(baseline_terms):
    def draw(rng):
        base = [rng.uniform(0.5, 3), rng.uniform(-0.05, 0.05)][:baseline_terms]
        return np.array(base + [rng.uniform(0.1, 2), rng.uniform(-10, 10), rng.uniform(1, 8)])
    return draw


# (model, random parameter point, abscissae), as in tests_jacobian_helper
CASES = {
    "dip1": (lambda: a.model_lorentzian_dip(1), dip_points(1), np.linspace(-30, 30, 41)),
    "dip2": (lambda: a.model_lorentzian_dip(2), dip_points(2), np.linspace(-30, 30, 41)),
    "double_exponential": (
        a.model_double_exponential,
        lambda rng: np.array([rng.uniform(0.1, 2), rng.uniform(0.01, 0.2),
                              rng.uniform(0.1, 2), rng.uniform(0.5, 5)]),
        np.geomspace(0.01, 5, 17)),
    "flipflop_field": (
        a.model_flipflop_field,
        lambda rng: np.array([rng.uniform(0.1e9, 1e9), rng.uniform(1e9, 3e10)]),
        np.linspace(0.01, 0.5, 13)),
}


def points(case, n=25, seed=41):
    """``n`` (model, params, x, w) draws; ``w`` stands in for ``r / sigma``."""
    make, draw, x = CASES[case]
    model = make()
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield model, draw(rng), x, rng.standard_normal(x.size)


@pytest.mark.parametrize("case", sorted(CASES))
def test_curvature_matches_differences_of_the_jacobian(case):
    for model, params, x, w in points(case):
        curv = model.curvature(params, x, w)
        want = central_fd(lambda p: model.jacobian(p, x).T @ w, params)
        assert np.array_equal(curv, curv.T)
        assert scaled_error(curv, want) <= FD_TOL


def internal_curvature(model, theta, x, w):
    tr = model.transform
    ext = tr.to_external(theta)
    return tr.curvature_internal(model.curvature(ext, x, w), model.jacobian(ext, x).T @ w,
                                 theta, ext)


def internal_gradient(model, theta, x, w):
    """``J_int^T w``, whose derivative is the internal curvature."""
    tr = model.transform
    ext = tr.to_external(theta)
    return tr.jac_internal(model.jacobian(ext, x), theta, ext).T @ w


@pytest.mark.parametrize("case", sorted(CASES))
def test_chain_rule_matches_differences_of_the_internal_jacobian(case):
    for model, params, x, w in points(case):
        theta = model.transform.to_internal(params)
        curv = internal_curvature(model, theta, x, w)
        want = central_fd(lambda th: internal_gradient(model, th, x, w), theta)
        assert scaled_error(curv, want) <= FD_TOL


def test_transform_without_hess_external_says_so():
    class MapsOnly(ParamTransform):
        def jac_external(self, internal):
            return np.eye(len(internal))

    with pytest.raises(NotImplementedError, match="MapsOnly"):
        MapsOnly().hess_external(np.ones(2), np.zeros(2))


@pytest.mark.parametrize("transform, internal", [
    (LogTransform([False, True, True]), np.array([0.3, -1.2, 2.5])),
    (OrderedLifetimesTransform(), np.array([0.7, np.log(0.05), 0.4, np.log(1.2)])),
    (ParamTransform(), np.array([0.3, -1.2])),
])
def test_hess_external_matches_differences_of_jac_external(transform, internal):
    weights = np.random.default_rng(3).standard_normal(internal.size)
    want = central_fd(lambda th: weights @ transform.jac_external(th), internal)
    got = transform.hess_external(weights, internal)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * max(np.abs(want).max(), 1.0))


def gauss_profile_dips(n_dips=6):
    """Gaussian dips under the Lorentzian model: large-residual fits."""
    x = np.linspace(-4.0, 4.0, 97)
    for seed in range(n_dips):
        rng = np.random.default_rng(seed)
        width = rng.uniform(0.4, 1.2)
        y = 1.0 - rng.uniform(0.5, 2.0) * np.exp(-0.5 * (x / (width / 2.355)) ** 2)
        y = y + 1e-3 * rng.standard_normal(x.size)
        yield x, y, np.array([1.0, rng.uniform(0.5, 2.0), 0.1, width])


def user_gaussian_line():
    """A user model with neither a Jacobian nor a curvature."""
    return ParametricModel(
        param_names=("base", "depth", "center", "width"),
        evaluate=lambda p, x: p[0] - p[1] * np.exp(-0.5 * ((x - p[2]) / p[3]) ** 2))


def test_model_without_curvature_takes_central_differences():
    dip = a.model_lorentzian_dip()
    for model in (dataclasses.replace(dip, curvature=None),
                  dataclasses.replace(dip, curvature=None, jacobian=None)):
        for x, y, init in gauss_profile_dips():
            exact = a.fit_curve(dip, x, y, sigma=1e-3, init=init)
            res = a.fit_curve(model, x, y, sigma=1e-3, init=init)
            assert res.converged
            again = a.fit_curve(model, x, y, sigma=1e-3, init=res.params)
            assert np.max(np.abs(again.params - res.params) / res.std_errors) <= RESTART_MOVE
            assert np.max(np.abs(res.params - exact.params) / exact.std_errors) <= RESTART_MOVE


def test_user_model_without_derivatives_ends_at_its_optimum():
    # a Gaussian line on a Lorentzian dip: the line shape cannot match
    model = user_gaussian_line()
    x = np.linspace(-5.0, 5.0, 101)
    y = 1.0 - 0.8 / (1.0 + ((x - 0.2) / 0.3) ** 2)
    y = y + 2e-3 * np.random.default_rng(1).standard_normal(x.size)
    res = a.fit_curve(model, x, y, sigma=2e-3, init=[1.0, 0.5, 0.0, 0.5])
    assert res.converged
    again = a.fit_curve(model, x, y, sigma=2e-3, init=res.params)
    assert np.max(np.abs(again.params - res.params) / res.std_errors) <= RESTART_MOVE


def exponential_curvature(params, t, w):
    amp, tau = params
    wte = w * t * np.exp(-t / tau)
    cross = float(wte.sum()) / tau ** 2
    return np.array([[0.0, cross], [cross, amp * float(wte @ (t - 2.0 * tau)) / tau ** 4]])


@pytest.mark.parametrize("seed", range(4))
def test_differencing_steps_follow_the_parameter_scale(seed):
    # one exponential on two, with lifetimes of order 1e-5 s and no
    # transform: a step of 1e-4 in tau would cross zero
    taus = []

    def jacobian(p, t):
        taus.append(p[1])
        e = np.exp(-t / p[1])
        return np.stack([e, p[0] * t / p[1] ** 2 * e], axis=1)

    model = ParametricModel(
        param_names=("amp", "tau"),
        evaluate=lambda p, t: p[0] * np.exp(-t / p[1]), jacobian=jacobian,
        bounds=([-np.inf, 1e-12], [np.inf, np.inf]))
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 6e-5, 61)
    y = (0.7 * np.exp(-t / rng.uniform(3e-6, 6e-6))
         + 0.3 * np.exp(-t / rng.uniform(2e-5, 4e-5)) + 1e-3 * rng.standard_normal(t.size))
    res = a.fit_curve(model, t, y, sigma=1e-3, init=[1.0, 1e-5])
    # the curvature's differences took Jacobians beyond one per iteration
    assert len(taus) > res.iterations + 1
    assert min(taus) > 0.0
    assert res.converged
    exact = a.fit_curve(dataclasses.replace(model, curvature=exponential_curvature),
                        t, y, sigma=1e-3, init=[1.0, 1e-5])
    again = a.fit_curve(model, t, y, sigma=1e-3, init=res.params)
    assert np.max(np.abs(again.params - res.params) / res.std_errors) <= RESTART_MOVE
    assert np.max(np.abs(res.params - exact.params) / exact.std_errors) <= RESTART_MOVE


def test_fig2_hole_fits_end_by_gtol_in_fewer_iterations():
    # the Gauss-Newton step with the former secant estimate took 994
    # iterations here and ended 49 of the 108 fits by gtol
    _, calls = run_recording_hole_fits(ex.default_config())
    assert len(calls) == 108
    stops = Counter(res.stop_reason for _, res in calls)
    assert sum(res.iterations for _, res in calls) <= 750
    assert stops["gtol"] >= 95, stops
