"""fit_curves: a batch of fits through the one Levenberg-Marquardt loop.

Row k of a batch must be exactly what fit_curve returns (or raises) on row k
alone, whatever the other rows do and in whatever order they come: the
fixed rows below end by every stop rule, raise MaxIterations, or have a dead
column at the start.  Rows that stop together take their covariances from one
stacked calculation, singular ones included, and must still equal their
single fits."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import afcsim as a
from afcsim.errors import AfcSimError, MaxIterations, SingularJacobian
from afcsim import fitting
from afcsim.fitting import ParametricModel, _columns, _split, fit_curves
from test_fit_linear_algebra import assert_same_fit

MODEL = a.model_lorentzian_dip(2)
X = np.linspace(-4.0, 4.0, 41)
LO = np.array([-np.inf, -np.inf, -np.inf, -4.0, 1e-2])
HI = np.array([np.inf, np.inf, np.inf, 4.0, 32.0])


def make_row(kind, seed):
    """A dip (Lorentzian, Gaussian, or none) with noise, and a start taken
    as ``readout.measure_hole`` takes it; ``dead`` starts at zero depth, so
    the center and fwhm have no influence."""
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        y = 1.0 - rng.uniform(0.1, 1.0) * np.exp(-0.5 * (X / rng.uniform(0.05, 2.0)) ** 2)
    elif kind == "flat":
        y = np.ones_like(X)
    else:
        truth = np.array([1.0, rng.uniform(-0.05, 0.05), rng.uniform(0.05, 1.0),
                          rng.uniform(-1.0, 1.0), rng.uniform(0.1, 3.0)])
        y = MODEL.evaluate(truth, X)
    noise = rng.choice([0.0, 1e-6, 1e-3, 0.05])
    y = y + noise * rng.standard_normal(X.size)
    i = int(np.argmin(y))
    base = float(np.percentile(y, 85.0))
    depth = 0.0 if kind == "dead" else max(base - y[i], 1e-3)
    init = np.array([base, 0.0, depth, X[i], rng.uniform(0.05, 3.0)])
    return y, init, max(noise, 1e-3)


# one row for each way a fit ends
FIXED = {
    "gtol": ("lor", 8), "xtol": ("flat", 76), "max_damping": ("flat", 68),
    "lost_influence": ("lor", 60), "exact": ("lor", 0), "stall": ("gauss", 0),
    "no_progress": ("flat", 2), "MaxIterations": ("lor", 10),
    "SingularJacobian": ("dead", 1),
}


def single(y, init, sigma):
    try:
        return a.fit_curve(MODEL, X, y, sigma=sigma, init=init, bounds=(LO, HI))
    except (MaxIterations, SingularJacobian) as exc:
        return exc


def batch(rows):
    ys, inits, sigmas = zip(*rows)
    return fit_curves(MODEL, X, np.stack(ys), sigma=np.array(sigmas)[:, None],
                      init=np.stack(inits), bounds=(LO, HI))


def assert_same_outcome(got, want):
    if isinstance(want, AfcSimError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert_same_fit(got, want)


def outcome_name(res):
    return type(res).__name__ if isinstance(res, AfcSimError) else res.stop_reason.split(":")[0]


SINGLES = {name: single(*make_row(*spec)) for name, spec in FIXED.items()}


def test_fixed_rows_end_as_named():
    assert {name: outcome_name(res) for name, res in SINGLES.items()} == \
        {name: name for name in FIXED}


@settings(max_examples=12, derandomize=True, deadline=None)
@given(extra=st.lists(st.tuples(st.sampled_from(["lor", "gauss", "flat"]),
                                st.integers(0, 10 ** 6)), max_size=4),
       order=st.randoms(use_true_random=False))
def test_rows_equal_single_fits_in_any_order(extra, order):
    specs = list(FIXED.values()) + extra
    rows = [make_row(*spec) for spec in specs]
    want = list(SINGLES.values()) + [single(*row) for row in rows[len(FIXED):]]
    for got, expected in zip(batch(rows), want):
        assert_same_outcome(got, expected)
    perm = list(range(len(rows)))
    order.shuffle(perm)
    for k, got in zip(perm, batch([rows[k] for k in perm])):
        assert_same_outcome(got, want[k])


def test_batch_of_one_and_shared_abscissae():
    y, init, sigma = make_row(*FIXED["gtol"])
    res, = fit_curves(MODEL, X, y[None], sigma=sigma, init=init, bounds=(LO, HI))
    assert_same_fit(res, SINGLES["gtol"])


def test_model_and_transform_rows_equal_single_calls():
    # the broadcasting rule: each row of a batched call is computed exactly
    # as the one-curve call on that row (scalar and array arithmetic can
    # round differently, e.g. a scalar's pow against an array's square)
    rng = np.random.default_rng(4)
    n = 3000
    params = np.column_stack([rng.uniform(0.5, 1.5, n), rng.uniform(-0.1, 0.1, n),
                              rng.uniform(0.01, 2.0, n), rng.uniform(-2.0, 2.0, n),
                              rng.uniform(0.02, 5.0, n)])
    # a half width whose square pow rounds away from the product
    params[0, 4] = 2.0 * 0.46275263427316826
    x = rng.uniform(-4.0, 4.0, (n, X.size))
    w = rng.standard_normal((n, X.size))
    tr = MODEL.transform
    internal = tr.to_internal(params)
    jac = MODEL.jacobian(params, x)
    curv = MODEL.curvature(params, x, w)
    grad = np.vecmat(w, jac)
    batched = {
        "evaluate": MODEL.evaluate(params, x), "jacobian": jac, "curvature": curv,
        "to_internal": internal, "to_external": tr.to_external(internal),
        "jac_internal": tr.jac_internal(jac, internal, params),
        "curvature_internal": tr.curvature_internal(curv, grad, internal, params),
    }
    for k in range(n):
        p, xk, ik = params[k], x[k], internal[k]
        single = {
            "evaluate": MODEL.evaluate(p, xk), "jacobian": MODEL.jacobian(p, xk),
            "curvature": MODEL.curvature(p, xk, w[k]), "to_internal": tr.to_internal(p),
            "to_external": tr.to_external(ik), "jac_internal": tr.jac_internal(jac[k], ik, p),
            "curvature_internal": tr.curvature_internal(curv[k], grad[k], ik, p),
        }
        for name, value in single.items():
            assert np.array_equal(batched[name][k], value), (name, k)


# rows that stop together: two copies of each, so that each stop rule settles
# several rows at once, and lost-influence rows that all stop at iteration 8
# with three different lost columns (center and fwhm, center, fwhm)
TOGETHER = [FIXED["gtol"], FIXED["exact"], FIXED["max_damping"], FIXED["lost_influence"],
            ("flat", 328), ("flat", 355)]


def test_rows_that_stop_together_equal_single_fits(monkeypatch):
    rows = [make_row(*spec) for spec in TOGETHER * 2]
    want = [single(*row) for row in rows]
    lost = {res.stop_reason for res in want if res.stop_reason.startswith("lost_influence")}
    assert len(lost) == 3 and {res.iterations for res in want if res.stop_reason in lost} == {8}

    stacks = []
    real = fitting._fit_results

    def recording(model, theta, *args):
        out = real(model, theta, *args)
        stacks.append((out[0].stop_reason, out[0].iterations, len(out)))
        return out

    monkeypatch.setattr(fitting, "_fit_results", recording)
    for got, expected in zip(batch(rows), want):
        assert_same_fit(got, expected)
    # one stacked calculation per rule and lost-column mask
    assert sorted(reason for reason, _, _ in stacks) == \
        sorted({res.stop_reason for res in want})
    assert all(n == 2 for _, _, n in stacks)
    assert {it for reason, it, _ in stacks if reason in lost} == {8}


def test_singular_rows_in_a_stack_take_the_pseudo_inverse(monkeypatch):
    """Where a row's J^T J is singular at its stop (equal columns x and x^2
    on x in {0, 1}), its covariance is the pseudo-inverse, as for the single
    fit; a regular row that stops with it in one stack keeps the inverse."""
    model = ParametricModel(
        param_names=("a", "b"),
        evaluate=lambda p, x: _split(p)[0] * x + _split(p)[1] * (x * x),
        jacobian=lambda p, x: _columns(x.shape, x, x * x))
    x_equal = np.tile([0.0, 1.0], 10)
    xs = np.stack([x_equal, x_equal, np.linspace(0.0, 2.0, 20)])
    ys = 2.0 * xs + 0.5 * xs * xs + 1e-3 * np.random.default_rng(0).standard_normal(xs.shape)
    init = np.array([1.0, 1.0])
    pinvs = []
    real = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda m: pinvs.append(m) or real(m))
    got = fit_curves(model, xs, ys, sigma=1e-3, init=init)
    assert len(pinvs) == 2
    want = [a.fit_curve(model, x, y, sigma=1e-3, init=init) for x, y in zip(xs, ys)]
    assert [(res.stop_reason, res.iterations) for res in want] == \
        [("gtol", 4), ("max_damping", 4), ("gtol", 4)]
    for g, w in zip(got, want):
        assert_same_fit(g, w)


def spoiled_model(bad, x0):
    """MODEL whose Jacobian entry (point 3, slope) turns to ``bad`` on the
    curves whose abscissae start at ``x0``, at every call after the first
    (the start): from the first accepted point on."""
    calls = []

    def jacobian(params, x):
        jac = MODEL.jacobian(params, x)
        if calls:
            jac[x[..., 0] == x0, 3, 1] = bad
        calls.append(None)
        return jac

    return dataclasses.replace(MODEL, jacobian=jacobian)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_row_whose_jacobian_turns_non_finite_ends_as_alone(bad):
    # the stall row, on abscissae moved by 1e-9 to mark it, next to clean rows
    names = ["gtol", "exact", "lost_influence", "stall"]
    rows = [make_row(*FIXED[name]) for name in names]
    x_spoiled = X + 1e-9
    xs = np.stack([X] * len(names) + [x_spoiled])
    ys, inits, sigmas = (np.stack(col) for col in zip(*rows, rows[-1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = a.fit_curve(spoiled_model(bad, x_spoiled[0]), x_spoiled, ys[-1],
                            sigma=sigmas[-1], init=inits[-1], bounds=(LO, HI))
        got = fit_curves(spoiled_model(bad, x_spoiled[0]), xs, ys, sigma=sigmas[:, None],
                         init=inits, bounds=(LO, HI))
    assert alone.stop_reason == "max_damping" and alone.iterations == 2
    assert np.all(np.isinf(alone.std_errors))
    assert_same_fit(got[-1], alone)
    for name, res in zip(names, got):
        assert_same_fit(res, SINGLES[name])


@pytest.mark.parametrize("n_par, n_rows, n_points", [(5, 6, 41), (2, 3, 1), (4, 9, 36),
                                                     (3, 2, 200)])
def test_rows_left_after_a_drop_keep_their_gram_matrices(n_par, n_rows, n_points):
    # rows kept when others leave mid-iteration stay parameter rows, so each
    # one's J^T J rounds as its single fit's does
    rng = np.random.default_rng(n_par * n_rows * n_points)
    rows = fitting._param_rows((n_rows, n_points), n_par)
    rows[...] = rng.standard_normal(rows.shape)
    keep = np.arange(n_rows) % 2 == 0
    kept = fitting._drop_rows(fitting._jacobian_view(rows), keep)
    assert np.moveaxis(kept, -1, 0).flags.c_contiguous
    for got, j in zip(fitting._gram(kept)[0], np.flatnonzero(keep)):
        alone = fitting._jacobian_view(np.ascontiguousarray(rows[:, j]))
        assert np.array_equal(got, fitting._gram(alone)[0])
